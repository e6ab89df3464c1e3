//! Device profiles: the hardware constants of the simulated GPUs.

/// Hardware constants of a simulated GPU + host platform.
///
/// The two built-in profiles correspond to the paper's testbeds:
/// an NVIDIA GeForce RTX 3090 (Ampere, §5.1) and an RTX 2080 (Turing,
/// §5.6), both attached over PCIe 3.0 x16 to an Intel i7-7700K host.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceProfile {
    /// Human-readable name.
    pub name: String,
    /// Peak tensor-core throughput in TFLOP/s for fp16 input / fp32
    /// accumulate (the paper measured 63 TFLOPS on the RTX 3090).
    pub tcu_tflops: f64,
    /// Peak conventional CUDA-core throughput in TFLOP/s (the paper
    /// measured 19 TFLOPS mixed-precision on the RTX 3090's CUDA cores).
    pub cuda_tflops: f64,
    /// Device-memory (GDDR) bandwidth in GB/s.
    pub mem_bandwidth_gbps: f64,
    /// Host↔device interconnect bandwidth in GB/s (PCIe 3.0 x16 ≈ 12 GB/s
    /// effective).
    pub pcie_bandwidth_gbps: f64,
    /// Device memory capacity in bytes.
    pub device_mem_bytes: usize,
    /// Number of CUDA cores (vector lanes) — `p` in the GPU-assisted data
    /// transformation estimate DT_op ≈ α·(m+n)/p.
    pub cuda_cores: usize,
    /// Number of tensor cores.
    pub tensor_cores: usize,
    /// Host scan/transform throughput α expressed as seconds per row for a
    /// single CPU core building matrix entries from table rows.
    pub host_seconds_per_row: f64,
    /// Effective per-row cost of the GPU hash-join's build/probe phases
    /// (the "row by row" iteration the paper blames for YDB's cost).
    pub gpu_hash_seconds_per_row: f64,
    /// Effective per-output-tuple cost of materialising join results with
    /// the row-by-row GPU hash-join operator (the expensive path the paper
    /// blames for YDB's HashJoin time).
    pub gpu_join_materialize_seconds_per_tuple: f64,
    /// Per-output-tuple cost of streaming, coalesced result writes
    /// (the `nonzero` extraction and memcpy-style writers).
    pub gpu_output_seconds_per_tuple: f64,
    /// Per-row cost of the GPU group-by/aggregation operator.
    pub gpu_agg_seconds_per_row: f64,
    /// Kernel launch overhead in seconds (charged once per kernel).
    pub kernel_launch_seconds: f64,
    /// Efficiency factor (0..1] applied to the TCU peak for the tiled
    /// sparse TCU-SpMM kernel (irregular fragment gathering).
    pub spmm_efficiency: f64,
    /// Efficiency factor (0..1] applied to the TCU peak when running the
    /// blocked/pipelined MSplitGEMM path.
    pub blocked_efficiency: f64,
}

impl DeviceProfile {
    /// The NVIDIA GeForce RTX 3090 testbed of §5.1 (Ampere, 24 GB GDDR6X,
    /// 328 tensor cores, 10496 CUDA cores, PCIe 3.0 x16).
    pub fn rtx_3090() -> DeviceProfile {
        DeviceProfile {
            name: "RTX 3090".to_string(),
            tcu_tflops: 63.0,
            cuda_tflops: 19.0,
            mem_bandwidth_gbps: 936.0,
            pcie_bandwidth_gbps: 12.0,
            device_mem_bytes: 24 * 1024 * 1024 * 1024,
            cuda_cores: 10_496,
            tensor_cores: 328,
            host_seconds_per_row: 12e-9,
            gpu_hash_seconds_per_row: 60e-9,
            gpu_join_materialize_seconds_per_tuple: 25e-9,
            gpu_output_seconds_per_tuple: 1.5e-9,
            gpu_agg_seconds_per_row: 2.5e-9,
            kernel_launch_seconds: 8e-6,
            spmm_efficiency: 0.25,
            blocked_efficiency: 0.7,
        }
    }

    /// The NVIDIA GeForce RTX 2080 of §5.6 (Turing, 8 GB GDDR6, 368 tensor
    /// cores, 2944 CUDA cores).  Tensor throughput roughly halves and the
    /// CUDA-core / bandwidth figures drop accordingly, which is what
    /// produces the generation-over-generation scaling of Figure 14.
    pub fn rtx_2080() -> DeviceProfile {
        DeviceProfile {
            name: "RTX 2080".to_string(),
            tcu_tflops: 32.0,
            cuda_tflops: 10.0,
            mem_bandwidth_gbps: 448.0,
            pcie_bandwidth_gbps: 12.0,
            device_mem_bytes: 8 * 1024 * 1024 * 1024,
            cuda_cores: 2_944,
            tensor_cores: 368,
            host_seconds_per_row: 12e-9,
            gpu_hash_seconds_per_row: 75e-9,
            gpu_join_materialize_seconds_per_tuple: 33e-9,
            gpu_output_seconds_per_tuple: 2.2e-9,
            gpu_agg_seconds_per_row: 3.5e-9,
            kernel_launch_seconds: 12e-6,
            spmm_efficiency: 0.22,
            blocked_efficiency: 0.65,
        }
    }

    /// TCU throughput after adjusting for input precision: int8 doubles and
    /// int4 quadruples the fp16 MMA rate on Turing/Ampere tensor cores.
    pub fn tcu_tflops_for(&self, precision: tcudb_types::Precision) -> f64 {
        match precision {
            tcudb_types::Precision::Half => self.tcu_tflops,
            tcudb_types::Precision::Int8 => self.tcu_tflops * 2.0,
            tcudb_types::Precision::Int4 => self.tcu_tflops * 4.0,
            tcudb_types::Precision::Fp32 => self.cuda_tflops,
        }
    }

    /// Does a working set of `bytes` fit in device memory (leaving a small
    /// reserve for CUDA context and staging buffers)?
    pub fn fits_in_device(&self, bytes: usize) -> bool {
        let reserve = self.device_mem_bytes / 16;
        bytes.saturating_add(reserve) <= self.device_mem_bytes
    }

    /// The data-transformation parallelism `p` used by the GPU-assisted
    /// transform estimate.
    pub fn transform_parallelism(&self) -> f64 {
        // The paper notes p > 2000 on modern GPUs; effective parallelism is
        // bounded by occupancy, so use half the CUDA core count.
        (self.cuda_cores as f64 / 2.0).max(1.0)
    }
}

impl Default for DeviceProfile {
    fn default() -> Self {
        DeviceProfile::rtx_3090()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcudb_types::Precision;

    #[test]
    fn builtin_profiles_have_paper_constants() {
        let p = DeviceProfile::rtx_3090();
        assert_eq!(p.tcu_tflops, 63.0);
        assert_eq!(p.cuda_tflops, 19.0);
        assert_eq!(p.tensor_cores, 328);
        assert_eq!(p.cuda_cores, 10_496);
        assert_eq!(p.device_mem_bytes, 24 * 1024 * 1024 * 1024);

        let q = DeviceProfile::rtx_2080();
        assert_eq!(q.tensor_cores, 368);
        assert_eq!(q.cuda_cores, 2_944);
        assert!(q.tcu_tflops < p.tcu_tflops);
    }

    #[test]
    fn precision_scales_tcu_throughput() {
        let p = DeviceProfile::rtx_3090();
        assert_eq!(p.tcu_tflops_for(Precision::Half), 63.0);
        assert_eq!(p.tcu_tflops_for(Precision::Int8), 126.0);
        assert_eq!(p.tcu_tflops_for(Precision::Int4), 252.0);
        assert_eq!(p.tcu_tflops_for(Precision::Fp32), 19.0);
    }

    #[test]
    fn device_memory_fit_checks_reserve() {
        let p = DeviceProfile::rtx_3090();
        assert!(p.fits_in_device(1024));
        assert!(p.fits_in_device(20 * 1024 * 1024 * 1024));
        assert!(!p.fits_in_device(24 * 1024 * 1024 * 1024));
        assert!(!p.fits_in_device(usize::MAX));
    }

    #[test]
    fn transform_parallelism_positive() {
        assert!(DeviceProfile::rtx_3090().transform_parallelism() > 1000.0);
        assert!(DeviceProfile::rtx_2080().transform_parallelism() > 1000.0);
    }

    #[test]
    fn default_is_3090() {
        assert_eq!(DeviceProfile::default().name, "RTX 3090");
    }
}
