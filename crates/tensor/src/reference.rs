//! Naive scalar reference kernels — the correctness oracle.
//!
//! These are the original triple-loop kernels the tiled engine
//! ([`crate::engine`]) replaced on the hot path.  They are kept verbatim
//! (modulo the integer-accumulator fix below) so that every optimised
//! kernel can be proven bit-identical against them, and so the oracle
//! suite (`tests/engine_oracle.rs`) has a stable baseline for its speed
//! floor.
//!
//! Numeric contracts (shared with the engine):
//!
//! * `Half`: operands rounded through IEEE binary16 once up front,
//!   products and sums accumulated in f32,
//! * `Int8` / `Int4`: operands saturating-cast, accumulated in **wide
//!   integers** (`i64`, standing in for the hardware's i32 accumulators)
//!   and converted to f32 exactly once at store time.  The original
//!   non-transposed kernel accumulated through f32 `add_to`, silently
//!   losing integer precision past 2²⁴ — fixed here for both orientations,
//!   with a regression test in [`crate::gemm`](mod@crate::gemm).
//! * `Fp32`: plain f32 accumulation in ascending k order per element.

use crate::dense::DenseMatrix;
use crate::gemm::{check_gemm_bt_shapes, check_gemm_shapes, GemmPrecision, GemmStats};
use tcudb_types::quant::{to_i4_saturating, to_i8_saturating};
use tcudb_types::{TcuResult, F16};

/// Reference `C = A × B` (`A`: m×k, `B`: k×n); same contract as
/// [`crate::gemm::gemm`].
pub fn gemm(
    a: &DenseMatrix,
    b: &DenseMatrix,
    precision: GemmPrecision,
) -> TcuResult<(DenseMatrix, GemmStats)> {
    check_gemm_shapes(a, b)?;
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let out = match precision {
        GemmPrecision::Fp32 => gemm_f32(a, b),
        GemmPrecision::Half => gemm_half(a, b),
        GemmPrecision::Int8 => gemm_int(a, b, |v| to_i8_saturating(v as f64) as i64),
        GemmPrecision::Int4 => gemm_int(a, b, |v| to_i4_saturating(v as f64) as i64),
    };
    Ok((out, GemmStats::new(m, n, k, precision.into())))
}

/// Reference `C = A × Bᵀ` (`A`: m×k, `B`: n×k); same contract as
/// [`crate::gemm::gemm_bt`].
pub fn gemm_bt(
    a: &DenseMatrix,
    b: &DenseMatrix,
    precision: GemmPrecision,
) -> TcuResult<(DenseMatrix, GemmStats)> {
    check_gemm_bt_shapes(a, b)?;
    let (m, k, n) = (a.rows(), a.cols(), b.rows());
    let out = match precision {
        GemmPrecision::Fp32 => gemm_bt_f32(a, b),
        GemmPrecision::Half => gemm_bt_half(a, b),
        GemmPrecision::Int8 => gemm_bt_int(a, b, |v| to_i8_saturating(v as f64) as i64),
        GemmPrecision::Int4 => gemm_bt_int(a, b, |v| to_i4_saturating(v as f64) as i64),
    };
    Ok((out, GemmStats::new(m, n, k, precision.into())))
}

fn gemm_f32(a: &DenseMatrix, b: &DenseMatrix) -> DenseMatrix {
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let mut c = DenseMatrix::zeros(m, n);
    for i in 0..m {
        let arow = a.row(i);
        for (p, &av) in arow.iter().enumerate().take(k) {
            if av == 0.0 {
                continue;
            }
            let brow = b.row(p);
            for (j, &bv) in brow.iter().enumerate().take(n) {
                c.add_to(i, j, av * bv);
            }
        }
    }
    c
}

fn gemm_bt_f32(a: &DenseMatrix, b: &DenseMatrix) -> DenseMatrix {
    let (m, k, n) = (a.rows(), a.cols(), b.rows());
    let mut c = DenseMatrix::zeros(m, n);
    for i in 0..m {
        let arow = a.row(i);
        for j in 0..n {
            let brow = b.row(j);
            let mut acc = 0.0f32;
            for p in 0..k {
                acc += arow[p] * brow[p];
            }
            c.set(i, j, acc);
        }
    }
    c
}

fn gemm_half(a: &DenseMatrix, b: &DenseMatrix) -> DenseMatrix {
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    // Round operands through binary16 once up front (the data-transformation
    // step casts entire fragments, not individual scalars).
    let ar: Vec<f32> = a.data().iter().map(|&v| F16::round_trip(v)).collect();
    let br: Vec<f32> = b.data().iter().map(|&v| F16::round_trip(v)).collect();
    let mut c = DenseMatrix::zeros(m, n);
    for i in 0..m {
        for p in 0..k {
            let av = ar[i * k + p];
            if av == 0.0 {
                continue;
            }
            for j in 0..n {
                c.add_to(i, j, av * br[p * n + j]);
            }
        }
    }
    c
}

fn gemm_bt_half(a: &DenseMatrix, b: &DenseMatrix) -> DenseMatrix {
    let (m, k, n) = (a.rows(), a.cols(), b.rows());
    let ar: Vec<f32> = a.data().iter().map(|&v| F16::round_trip(v)).collect();
    let br: Vec<f32> = b.data().iter().map(|&v| F16::round_trip(v)).collect();
    let mut c = DenseMatrix::zeros(m, n);
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for p in 0..k {
                acc += ar[i * k + p] * br[j * k + p];
            }
            c.set(i, j, acc);
        }
    }
    c
}

fn gemm_int(a: &DenseMatrix, b: &DenseMatrix, cast: impl Fn(f32) -> i64) -> DenseMatrix {
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let ai: Vec<i64> = a.data().iter().map(|&v| cast(v)).collect();
    let bi: Vec<i64> = b.data().iter().map(|&v| cast(v)).collect();
    // Wide integer accumulation, converted to f32 once at store time (the
    // original version accumulated through f32 `add_to`, which silently
    // rounded sums past the 2²⁴ f32 mantissa).
    let mut acc = vec![0i64; m * n];
    for i in 0..m {
        for p in 0..k {
            let av = ai[i * k + p];
            if av == 0 {
                continue;
            }
            let accrow = &mut acc[i * n..(i + 1) * n];
            for (j, accv) in accrow.iter_mut().enumerate() {
                *accv += av * bi[p * n + j];
            }
        }
    }
    DenseMatrix::from_vec(m, n, acc.iter().map(|&v| v as f32).collect())
        .expect("accumulator buffer matches m×n")
}

fn gemm_bt_int(a: &DenseMatrix, b: &DenseMatrix, cast: impl Fn(f32) -> i64) -> DenseMatrix {
    let (m, k, n) = (a.rows(), a.cols(), b.rows());
    let ai: Vec<i64> = a.data().iter().map(|&v| cast(v)).collect();
    let bi: Vec<i64> = b.data().iter().map(|&v| cast(v)).collect();
    let mut c = DenseMatrix::zeros(m, n);
    for i in 0..m {
        for j in 0..n {
            let mut acc: i64 = 0;
            for p in 0..k {
                acc += ai[i * k + p] * bi[j * k + p];
            }
            c.set(i, j, acc as f32);
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_matches_hand_computed() {
        let a = DenseMatrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]).unwrap();
        let b =
            DenseMatrix::from_rows(&[vec![7.0, 8.0], vec![9.0, 10.0], vec![11.0, 12.0]]).unwrap();
        let (c, stats) = gemm(&a, &b, GemmPrecision::Fp32).unwrap();
        assert_eq!(c.get(0, 0), 58.0);
        assert_eq!(c.get(1, 1), 154.0);
        assert_eq!(stats.k, 3);
        assert!(gemm(&a, &a, GemmPrecision::Fp32).is_err());
        assert!(gemm_bt(&a, &b, GemmPrecision::Fp32).is_err());
    }

    #[test]
    fn reference_bt_equals_gemm_with_transpose() {
        let a = DenseMatrix::from_rows(&[vec![1.0, -2.0], vec![0.5, 3.0]]).unwrap();
        let b = DenseMatrix::from_rows(&[vec![2.0, 1.0], vec![-1.0, 4.0]]).unwrap();
        for p in [
            GemmPrecision::Fp32,
            GemmPrecision::Half,
            GemmPrecision::Int8,
            GemmPrecision::Int4,
        ] {
            let (via_bt, _) = gemm_bt(&a, &b, p).unwrap();
            let (via_t, _) = gemm(&a, &b.transpose(), p).unwrap();
            assert_eq!(via_bt, via_t, "{p:?}");
        }
    }
}
