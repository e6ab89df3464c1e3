//! Dense GEMM entry points in emulated tensor-core precisions.
//!
//! The paper's TCU operators run `C = A × Bᵀ` (join patterns) or chains of
//! GEMMs in fp16-input / fp32-accumulate or int8/int4-input / int32-
//! accumulate modes.  These entry points reproduce that arithmetic
//! faithfully:
//!
//! * [`GemmPrecision::Half`]: both operands are rounded through IEEE
//!   binary16 before each multiply, products and sums are accumulated in
//!   f32 — the numeric contract of `mma.sync.aligned.m16n16k16.f32.f16.f16.f32`.
//! * [`GemmPrecision::Int8`] / [`GemmPrecision::Int4`]: operands are
//!   saturating-cast to the integer range and accumulated in i64 (standing
//!   in for the hardware's i32 accumulators, which never overflow for the
//!   matrix sizes the feasibility test admits).
//! * [`GemmPrecision::Fp32`]: plain f32 arithmetic — the "CUDA core"
//!   arithmetic used by the baselines.
//!
//! Execution happens on the tiled, operand-packed, multi-threaded engine
//! of [`crate::engine`]; the original naive kernels live in
//! [`crate::reference`] as the bit-exact correctness oracle.  Each call
//! returns [`GemmStats`] so the simulated device can charge the
//! corresponding tensor-core (or CUDA-core) time.

use crate::dense::DenseMatrix;
use crate::engine;
use tcudb_types::sync::QueryContext;
use tcudb_types::{Precision, TcuError, TcuResult};

/// The arithmetic mode of a GEMM kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GemmPrecision {
    /// fp16 inputs, fp32 accumulate (TCU native).
    Half,
    /// int8 inputs, wide integer accumulate (TCU native).
    Int8,
    /// int4 inputs, wide integer accumulate (TCU native).
    Int4,
    /// fp32 inputs and accumulate (CUDA-core reference).
    Fp32,
}

impl From<Precision> for GemmPrecision {
    fn from(p: Precision) -> Self {
        match p {
            Precision::Half => GemmPrecision::Half,
            Precision::Int8 => GemmPrecision::Int8,
            Precision::Int4 => GemmPrecision::Int4,
            Precision::Fp32 => GemmPrecision::Fp32,
        }
    }
}

impl From<GemmPrecision> for Precision {
    fn from(p: GemmPrecision) -> Self {
        match p {
            GemmPrecision::Half => Precision::Half,
            GemmPrecision::Int8 => Precision::Int8,
            GemmPrecision::Int4 => Precision::Int4,
            GemmPrecision::Fp32 => Precision::Fp32,
        }
    }
}

/// Operation statistics reported by a GEMM kernel, consumed by the cost
/// model (CT_op of §4.2.2: `M·N·K·2 / peak_TFLOPS`).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct GemmStats {
    /// M dimension (rows of A / rows of C).
    pub m: usize,
    /// N dimension (cols of B / cols of C).
    pub n: usize,
    /// K dimension (cols of A / rows of B).
    pub k: usize,
    /// Floating-point (or integer multiply-add) operations: `2·M·N·K`.
    pub flops: f64,
    /// Bytes of operand + result data touched at the chosen precision.
    pub bytes_touched: f64,
    /// Precision the kernel ran in.
    pub precision: Precision,
}

impl GemmStats {
    pub(crate) fn new(m: usize, n: usize, k: usize, precision: Precision) -> GemmStats {
        let flops = 2.0 * m as f64 * n as f64 * k as f64;
        let elem = precision.size_bytes();
        // A: m×k, B: k×n at input precision; C: m×n at 4-byte accumulate.
        let bytes = (m * k + k * n) as f64 * elem + (m * n) as f64 * 4.0;
        GemmStats {
            m,
            n,
            k,
            flops,
            bytes_touched: bytes,
            precision,
        }
    }
}

/// Validate `A × B` operand shapes (`A.cols == B.rows`).
pub(crate) fn check_gemm_shapes(a: &DenseMatrix, b: &DenseMatrix) -> TcuResult<()> {
    if a.cols() != b.rows() {
        return Err(TcuError::ShapeMismatch {
            expected: format!("A.cols == B.rows, A is {}x{}", a.rows(), a.cols()),
            got: format!("B is {}x{}", b.rows(), b.cols()),
        });
    }
    Ok(())
}

/// Validate `A × Bᵀ` operand shapes (`A.cols == B.cols`).
pub(crate) fn check_gemm_bt_shapes(a: &DenseMatrix, b: &DenseMatrix) -> TcuResult<()> {
    if a.cols() != b.cols() {
        return Err(TcuError::ShapeMismatch {
            expected: format!("A.cols == B.cols, A is {}x{}", a.rows(), a.cols()),
            got: format!("B is {}x{}", b.rows(), b.cols()),
        });
    }
    Ok(())
}

/// Compute `C = A × B` in the requested precision.
///
/// Shapes: `A` is M×K, `B` is K×N, the result is M×N.  The thread count is
/// chosen automatically ([`engine::auto_threads`]).
pub fn gemm(
    a: &DenseMatrix,
    b: &DenseMatrix,
    precision: GemmPrecision,
) -> TcuResult<(DenseMatrix, GemmStats)> {
    let threads = engine::auto_threads(a.rows(), b.cols(), a.cols());
    gemm_with_threads(a, b, precision, threads)
}

/// [`gemm`] with an explicit thread count (used by the determinism tests;
/// results are identical for every count).
pub fn gemm_with_threads(
    a: &DenseMatrix,
    b: &DenseMatrix,
    precision: GemmPrecision,
    threads: usize,
) -> TcuResult<(DenseMatrix, GemmStats)> {
    check_gemm_shapes(a, b)?;
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let out = engine::tiled_gemm(a, b, precision, threads);
    Ok((out, GemmStats::new(m, n, k, precision.into())))
}

/// [`gemm`] under a [`QueryContext`]: shards probe the context between
/// k blocks and a tripped context returns the typed
/// cancellation/deadline error instead of a result.
pub fn gemm_ctx(
    a: &DenseMatrix,
    b: &DenseMatrix,
    precision: GemmPrecision,
    ctx: &QueryContext,
) -> TcuResult<(DenseMatrix, GemmStats)> {
    check_gemm_shapes(a, b)?;
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let threads = engine::auto_threads(m, n, k);
    let out = engine::tiled_gemm_ctx(a, b, precision, threads, ctx)?;
    Ok((out, GemmStats::new(m, n, k, precision.into())))
}

/// Convenience wrapper: `C = A × Bᵀ`, the orientation every join pattern of
/// §3 uses (both operands are laid out with the shared key domain along
/// their column dimension).
pub fn gemm_bt(
    a: &DenseMatrix,
    b: &DenseMatrix,
    precision: GemmPrecision,
) -> TcuResult<(DenseMatrix, GemmStats)> {
    let threads = engine::auto_threads(a.rows(), b.rows(), a.cols());
    gemm_bt_with_threads(a, b, precision, threads)
}

/// [`gemm_bt`] under a [`QueryContext`] — see [`gemm_ctx`].
pub fn gemm_bt_ctx(
    a: &DenseMatrix,
    b: &DenseMatrix,
    precision: GemmPrecision,
    ctx: &QueryContext,
) -> TcuResult<(DenseMatrix, GemmStats)> {
    check_gemm_bt_shapes(a, b)?;
    let (m, k, n) = (a.rows(), a.cols(), b.rows());
    let threads = engine::auto_threads(m, n, k);
    let out = engine::tiled_gemm_bt_ctx(a, b, precision, threads, ctx)?;
    Ok((out, GemmStats::new(m, n, k, precision.into())))
}

/// [`gemm_bt`] with an explicit thread count.
pub fn gemm_bt_with_threads(
    a: &DenseMatrix,
    b: &DenseMatrix,
    precision: GemmPrecision,
    threads: usize,
) -> TcuResult<(DenseMatrix, GemmStats)> {
    check_gemm_bt_shapes(a, b)?;
    let (m, k, n) = (a.rows(), a.cols(), b.rows());
    let out = engine::tiled_gemm_bt(a, b, precision, threads);
    Ok((out, GemmStats::new(m, n, k, precision.into())))
}

/// Exact f64 reference multiplication used by accuracy experiments
/// (Table 1 MAPE) — not part of any simulated device path.
pub fn gemm_exact_f64(a: &DenseMatrix, b: &DenseMatrix) -> TcuResult<Vec<Vec<f64>>> {
    if a.cols() != b.rows() {
        return Err(TcuError::ShapeMismatch {
            expected: "A.cols == B.rows".into(),
            got: format!("{}x{} * {}x{}", a.rows(), a.cols(), b.rows(), b.cols()),
        });
    }
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let mut c = vec![vec![0.0f64; n]; m];
    for (i, crow) in c.iter_mut().enumerate() {
        for p in 0..k {
            let av = a.get(i, p) as f64;
            if av == 0.0 {
                continue;
            }
            for (j, cv) in crow.iter_mut().enumerate() {
                *cv += av * b.get(p, j) as f64;
            }
        }
    }
    Ok(c)
}

/// Mean absolute percentage error between an approximate result matrix and
/// an exact reference (entries where the reference is zero are skipped,
/// matching how the paper reports MAPE for matrix-multiplication queries).
pub fn mape(approx: &DenseMatrix, exact: &[Vec<f64>]) -> f64 {
    assert_eq!(exact.len(), approx.rows(), "MAPE row-count mismatch");
    let mut total = 0.0f64;
    let mut count = 0usize;
    for (i, erow) in exact.iter().enumerate() {
        assert_eq!(erow.len(), approx.cols(), "MAPE col-count mismatch");
        for (j, &e) in erow.iter().enumerate() {
            if e == 0.0 {
                continue;
            }
            total += ((approx.get(i, j) as f64 - e) / e).abs();
            count += 1;
        }
    }
    if count == 0 {
        0.0
    } else {
        100.0 * total / count as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn a2x3() -> DenseMatrix {
        DenseMatrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]).unwrap()
    }
    fn b3x2() -> DenseMatrix {
        DenseMatrix::from_rows(&[vec![7.0, 8.0], vec![9.0, 10.0], vec![11.0, 12.0]]).unwrap()
    }

    #[test]
    fn fp32_gemm_matches_hand_computed() {
        let (c, stats) = gemm(&a2x3(), &b3x2(), GemmPrecision::Fp32).unwrap();
        assert_eq!(c.get(0, 0), 58.0);
        assert_eq!(c.get(0, 1), 64.0);
        assert_eq!(c.get(1, 0), 139.0);
        assert_eq!(c.get(1, 1), 154.0);
        assert_eq!(stats.flops, 2.0 * 2.0 * 2.0 * 3.0);
        assert_eq!(stats.m, 2);
        assert_eq!(stats.n, 2);
        assert_eq!(stats.k, 3);
    }

    #[test]
    fn shape_mismatch_is_rejected() {
        let err = gemm(&a2x3(), &a2x3(), GemmPrecision::Fp32);
        assert!(err.is_err());
        let err2 = gemm_bt(&a2x3(), &b3x2(), GemmPrecision::Fp32);
        assert!(err2.is_err());
    }

    #[test]
    fn gemm_bt_equals_gemm_with_transpose() {
        let a = a2x3();
        let b = DenseMatrix::from_rows(&[vec![1.0, 0.0, 2.0], vec![0.0, 3.0, 1.0]]).unwrap();
        let (via_bt, _) = gemm_bt(&a, &b, GemmPrecision::Fp32).unwrap();
        let (via_t, _) = gemm(&a, &b.transpose(), GemmPrecision::Fp32).unwrap();
        assert_eq!(via_bt, via_t);
    }

    #[test]
    fn half_precision_is_exact_for_small_integers() {
        // 0/1 matrices (the join encoding) must multiply exactly in fp16.
        let a = DenseMatrix::from_rows(&[vec![1.0, 0.0, 1.0], vec![0.0, 1.0, 1.0]]).unwrap();
        let b = DenseMatrix::from_rows(&[vec![1.0, 1.0, 0.0], vec![1.0, 0.0, 1.0]]).unwrap();
        let (h, _) = gemm_bt(&a, &b, GemmPrecision::Half).unwrap();
        let (f, _) = gemm_bt(&a, &b, GemmPrecision::Fp32).unwrap();
        assert_eq!(h, f);
    }

    #[test]
    fn half_precision_loses_accuracy_for_large_values() {
        let a = DenseMatrix::from_rows(&[vec![30001.0]]).unwrap();
        let b = DenseMatrix::from_rows(&[vec![1.0]]).unwrap();
        let (h, _) = gemm(&a, &b, GemmPrecision::Half).unwrap();
        // 30001 is not exactly representable in binary16.
        assert_ne!(h.get(0, 0), 30001.0);
        assert!((h.get(0, 0) - 30001.0).abs() < 32.0);
    }

    #[test]
    fn int8_gemm_saturates() {
        let a = DenseMatrix::from_rows(&[vec![300.0, 2.0]]).unwrap();
        let b = DenseMatrix::from_rows(&[vec![1.0], vec![1.0]]).unwrap();
        let (c, _) = gemm(&a, &b, GemmPrecision::Int8).unwrap();
        // 300 saturates to 127 → 127 + 2 = 129.
        assert_eq!(c.get(0, 0), 129.0);
    }

    #[test]
    fn int4_gemm_saturates() {
        let a = DenseMatrix::from_rows(&[vec![10.0, -10.0]]).unwrap();
        let b = DenseMatrix::from_rows(&[vec![1.0], vec![1.0]]).unwrap();
        let (c, _) = gemm(&a, &b, GemmPrecision::Int4).unwrap();
        // 10 → 7, −10 → −8 ⇒ −1.
        assert_eq!(c.get(0, 0), -1.0);
    }

    #[test]
    fn int8_wide_accumulation_survives_f32_mantissa_overflow() {
        // 20 000 · 127² = 322 580 000 = 32 · 10 080 625: above the 2²⁴ f32
        // integer range (so f32 accumulation drifts) yet exactly
        // representable as an f32, so wide integer accumulation must return
        // it exactly.  Regression test for the old non-transposed int
        // kernel, which accumulated through f32 `add_to`.
        let k = 20_000;
        let exact = 20_000.0 * 127.0 * 127.0;
        let a = DenseMatrix::from_vec(1, k, vec![127.0; k]).unwrap();
        let b_col = DenseMatrix::from_vec(k, 1, vec![127.0; k]).unwrap();
        let b_row = DenseMatrix::from_vec(1, k, vec![127.0; k]).unwrap();
        let (c, _) = gemm(&a, &b_col, GemmPrecision::Int8).unwrap();
        assert_eq!(c.get(0, 0), exact);
        let (cbt, _) = gemm_bt(&a, &b_row, GemmPrecision::Int8).unwrap();
        assert_eq!(cbt.get(0, 0), exact);
        let (r, _) = crate::reference::gemm(&a, &b_col, GemmPrecision::Int8).unwrap();
        assert_eq!(r.get(0, 0), exact);
        let (rbt, _) = crate::reference::gemm_bt(&a, &b_row, GemmPrecision::Int8).unwrap();
        assert_eq!(rbt.get(0, 0), exact);
    }

    #[test]
    fn ctx_wrappers_match_and_cancel() {
        use tcudb_types::sync::{CancellationToken, QueryContext};
        let ctx = QueryContext::unbounded();
        let (c, _) = gemm_ctx(&a2x3(), &b3x2(), GemmPrecision::Fp32, &ctx).unwrap();
        let (plain, _) = gemm(&a2x3(), &b3x2(), GemmPrecision::Fp32).unwrap();
        assert_eq!(c, plain);
        let b = DenseMatrix::from_rows(&[vec![1.0, 0.0, 2.0], vec![0.0, 3.0, 1.0]]).unwrap();
        let (cbt, _) = gemm_bt_ctx(&a2x3(), &b, GemmPrecision::Fp32, &ctx).unwrap();
        let (plainbt, _) = gemm_bt(&a2x3(), &b, GemmPrecision::Fp32).unwrap();
        assert_eq!(cbt, plainbt);

        let token = CancellationToken::new();
        token.cancel();
        let cancelled = QueryContext::with_token(token);
        assert!(gemm_ctx(&a2x3(), &b3x2(), GemmPrecision::Fp32, &cancelled).is_err());
        assert!(gemm_bt_ctx(&a2x3(), &b, GemmPrecision::Fp32, &cancelled).is_err());
    }

    #[test]
    fn stats_bytes_scale_with_precision() {
        let (_, half) = gemm(&a2x3(), &b3x2(), GemmPrecision::Half).unwrap();
        let (_, fp32) = gemm(&a2x3(), &b3x2(), GemmPrecision::Fp32).unwrap();
        assert!(half.bytes_touched < fp32.bytes_touched);
        assert_eq!(half.precision, Precision::Half);
    }

    #[test]
    fn exact_reference_and_mape() {
        let a = a2x3();
        let b = b3x2();
        let exact = gemm_exact_f64(&a, &b).unwrap();
        let (approx, _) = gemm(&a, &b, GemmPrecision::Fp32).unwrap();
        assert_eq!(mape(&approx, &exact), 0.0);
        assert!(gemm_exact_f64(&a, &a).is_err());
    }

    #[test]
    fn precision_from_conversion() {
        assert_eq!(GemmPrecision::from(Precision::Half), GemmPrecision::Half);
        assert_eq!(GemmPrecision::from(Precision::Int8), GemmPrecision::Int8);
        assert_eq!(GemmPrecision::from(Precision::Int4), GemmPrecision::Int4);
        assert_eq!(GemmPrecision::from(Precision::Fp32), GemmPrecision::Fp32);
        assert_eq!(Precision::from(GemmPrecision::Half), Precision::Half);
        assert_eq!(Precision::from(GemmPrecision::Int8), Precision::Int8);
        assert_eq!(Precision::from(GemmPrecision::Int4), Precision::Int4);
        assert_eq!(Precision::from(GemmPrecision::Fp32), Precision::Fp32);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// fp16 GEMM on 0/1 matrices (the join encoding) is always exact.
        #[test]
        fn prop_half_exact_on_binary_matrices(
            m in 1usize..8, k in 1usize..16, n in 1usize..8, seed in 0u64..1000
        ) {
            let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            let mut next = || {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((state >> 33) & 1) as f32
            };
            let a = DenseMatrix::from_vec(m, k, (0..m*k).map(|_| next()).collect()).unwrap();
            let b = DenseMatrix::from_vec(n, k, (0..n*k).map(|_| next()).collect()).unwrap();
            let (h, _) = gemm_bt(&a, &b, GemmPrecision::Half).unwrap();
            let (f, _) = gemm_bt(&a, &b, GemmPrecision::Fp32).unwrap();
            prop_assert_eq!(h, f);
        }

        /// GEMM against an identity matrix returns the operand unchanged
        /// (fp32 path).
        #[test]
        fn prop_identity_is_neutral(m in 1usize..6, k in 1usize..6, seed in 0u64..1000) {
            let mut state = seed.wrapping_add(7);
            let mut next = || {
                state = state.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
                ((state >> 40) % 17) as f32 - 8.0
            };
            let a = DenseMatrix::from_vec(m, k, (0..m*k).map(|_| next()).collect()).unwrap();
            let i = DenseMatrix::identity(k);
            let (c, _) = gemm(&a, &i, GemmPrecision::Fp32).unwrap();
            prop_assert_eq!(c, a);
        }
    }
}
