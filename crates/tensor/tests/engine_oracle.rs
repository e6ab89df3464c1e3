//! Oracle suite: the tiled, packed, multi-threaded kernel engine must be
//! **bit-identical** to the naive reference kernels across all four
//! precisions, awkward shapes (edges smaller than the MR×NR register tile,
//! primes, empty matrices) and 0/1 join-encoded operands — and a run must
//! be byte-for-byte deterministic for every thread count.

use proptest::prelude::*;
use std::time::Instant;
use tcudb_tensor::gemm::{gemm_bt_with_threads, gemm_with_threads, GemmPrecision};
use tcudb_tensor::{blocked, reference, spmm, CsrMatrix, DenseMatrix};

const PRECISIONS: [GemmPrecision; 4] = [
    GemmPrecision::Fp32,
    GemmPrecision::Half,
    GemmPrecision::Int8,
    GemmPrecision::Int4,
];

/// Deterministic matrix fill.  `mode 0`: 0/1 join encoding; `mode 1`:
/// small signed integers (exact in every precision's range checks);
/// `mode 2`: signed quarter-steps (stress fp16 rounding and f32
/// accumulation order).
fn lcg_matrix(rows: usize, cols: usize, seed: u64, mode: u64) -> DenseMatrix {
    let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(97);
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    };
    let data = (0..rows * cols)
        .map(|_| match mode {
            0 => (next() & 1) as f32,
            1 => ((next() % 19) as f32) - 9.0,
            _ => (((next() % 257) as f32) - 128.0) * 0.25,
        })
        .collect();
    DenseMatrix::from_vec(rows, cols, data).unwrap()
}

fn assert_engine_matches_reference(m: usize, k: usize, n: usize, seed: u64, mode: u64) {
    let a = lcg_matrix(m, k, seed, mode);
    let b = lcg_matrix(k, n, seed + 1, mode);
    let b_t = lcg_matrix(n, k, seed + 2, mode);
    for precision in PRECISIONS {
        let (expected, _) = reference::gemm(&a, &b, precision).unwrap();
        for threads in [1usize, 4] {
            let (tiled, _) = gemm_with_threads(&a, &b, precision, threads).unwrap();
            assert_eq!(
                tiled, expected,
                "gemm {m}x{k}x{n} {precision:?} threads={threads} mode={mode}"
            );
        }
        let (expected_bt, _) = reference::gemm_bt(&a, &b_t, precision).unwrap();
        for threads in [1usize, 4] {
            let (tiled_bt, _) = gemm_bt_with_threads(&a, &b_t, precision, threads).unwrap();
            assert_eq!(
                tiled_bt, expected_bt,
                "gemm_bt {m}x{k}x{n} {precision:?} threads={threads} mode={mode}"
            );
        }
    }
}

#[test]
fn tiled_engine_matches_reference_on_odd_prime_and_empty_shapes() {
    for &(m, k, n) in &[
        (0, 0, 0),
        (0, 3, 2),
        (3, 0, 2),
        (3, 4, 0),
        (1, 1, 1),
        (2, 3, 5),   // everything below one MR×NR register tile
        (7, 11, 13), // primes straddling the tile edges
        (17, 19, 23),
        (1, 64, 1),
        (31, 2, 67),
        (33, 37, 9),
    ] {
        assert_engine_matches_reference(m, k, n, 13 + (m * 1000 + k * 10 + n) as u64, 2);
    }
}

#[test]
fn tiled_engine_exact_on_join_encoded_binary_matrices() {
    // 0/1 one-hot matrices are the §3 join encoding: every precision must
    // agree exactly with the fp32 reference (counts are small integers).
    for &(m, k, n) in &[(5, 33, 7), (16, 16, 16), (19, 40, 3)] {
        let a = lcg_matrix(m, k, 5, 0);
        let b_t = lcg_matrix(n, k, 6, 0);
        let (expected, _) = reference::gemm_bt(&a, &b_t, GemmPrecision::Fp32).unwrap();
        for precision in PRECISIONS {
            let (tiled, _) = gemm_bt_with_threads(&a, &b_t, precision, 2).unwrap();
            assert_eq!(tiled, expected, "binary join {m}x{k}x{n} {precision:?}");
        }
    }
}

#[test]
fn one_thread_and_n_thread_runs_agree_exactly() {
    let a = lcg_matrix(97, 53, 41, 2);
    let b = lcg_matrix(53, 61, 42, 2);
    let b_t = lcg_matrix(61, 53, 43, 2);
    for precision in PRECISIONS {
        let (one, _) = gemm_with_threads(&a, &b, precision, 1).unwrap();
        let (one_bt, _) = gemm_bt_with_threads(&a, &b_t, precision, 1).unwrap();
        for threads in [2, 3, 5, 8, 32] {
            let (many, _) = gemm_with_threads(&a, &b, precision, threads).unwrap();
            assert_eq!(one, many, "{precision:?} threads={threads}");
            let (many_bt, _) = gemm_bt_with_threads(&a, &b_t, precision, threads).unwrap();
            assert_eq!(one_bt, many_bt, "bt {precision:?} threads={threads}");
        }
    }
}

/// Best-of-3 wall-clock seconds of `f`.
fn best_of_3_secs<R>(mut f: impl FnMut() -> R) -> f64 {
    (0..3)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(f());
            t.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// Speed floor: on an odd 517×233×129 fp32 join shape the tiled engine,
/// held to one thread, must be no slower than the naive oracle.
#[test]
fn one_thread_tiled_gemm_bt_is_no_slower_than_reference() {
    let (m, n, k) = (517, 233, 129);
    let a = lcg_matrix(m, k, 0xA, 1);
    let b_t = lcg_matrix(n, k, 0xB, 1);
    let precision = GemmPrecision::Fp32;
    let reference_secs = best_of_3_secs(|| reference::gemm_bt(&a, &b_t, precision).unwrap());
    let tiled_secs = best_of_3_secs(|| gemm_bt_with_threads(&a, &b_t, precision, 1).unwrap());
    assert!(
        tiled_secs <= reference_secs,
        "tiled engine ({tiled_secs:.6}s) slower than reference oracle ({reference_secs:.6}s) \
         on {m}x{n}x{k}"
    );
}

#[test]
fn blocked_and_spmm_agree_with_reference_on_exact_values() {
    // Integer-valued operands: blocked accumulation order and SpMM tile
    // order are exact, so every route must land on the reference result.
    let a = lcg_matrix(37, 29, 7, 1);
    let b = lcg_matrix(29, 31, 8, 1);
    let (expected, _) = reference::gemm(&a, &b, GemmPrecision::Fp32).unwrap();
    for block in [5, 16, 64] {
        let (c, _) = blocked::blocked_gemm(&a, &b, GemmPrecision::Fp32, block).unwrap();
        assert_eq!(c, expected, "blocked block={block}");
    }
    let b_t = b.transpose();
    for precision in PRECISIONS {
        let (expected_p, _) = reference::gemm_bt(&a, &b_t, precision).unwrap();
        let (c, _) = spmm::tcu_spmm(
            &CsrMatrix::from_dense(&a),
            &CsrMatrix::from_dense(&b_t),
            precision,
        )
        .unwrap();
        assert_eq!(c, expected_p, "spmm {precision:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The engine is bit-identical to the reference oracle for random
    /// shapes, seeds and value modes, in every precision, single- and
    /// multi-threaded.
    #[test]
    fn prop_tiled_engine_is_bit_identical_to_reference(
        m in 0usize..24, k in 0usize..28, n in 0usize..24,
        seed in 0u64..500, mode in 0u64..3
    ) {
        assert_engine_matches_reference(m, k, n, seed, mode);
    }
}
