//! Workspace-wide differential property suite: on generated shapes from
//! every family, every public execution path — naive, shuffle, FTMMT,
//! fused, pinned serial/row-tile/wide workspaces, planned, the single-node
//! serving runtime (ticket and session APIs), the distributed serving
//! runtime, and the direct sharded engine — must agree **bit-for-bit** on
//! `f32` and `f64` (see `kron-testkit` for the exactness argument).
//!
//! A failure prints the offending engine, the first differing element, and
//! a copy-pasteable `KronCase::<T>::deterministic(..)` literal; paste it
//! into `pinned_regression_corpus` below to pin it forever.

use kron_testkit::{check_all_paths, DiffElement, KronCase, ShapeFamily};
use proptest::prelude::*;
use proptest::TestRng;

fn sample_case<T: DiffElement>(family: usize, seed: u64) -> KronCase<T> {
    let mut rng = TestRng::deterministic(&format!("differential-shape-{family}-{seed}"));
    let (m, shapes) = ShapeFamily::ALL[family % ShapeFamily::ALL.len()].sample(&mut rng);
    KronCase::<T>::deterministic(m, &shapes, seed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn all_paths_agree_f64(family in 0usize..4, seed in 0u64..1 << 32) {
        let case = sample_case::<f64>(family, seed);
        let res = check_all_paths(&case);
        prop_assert!(res.is_ok(), "{}", res.unwrap_err());
    }

    #[test]
    fn all_paths_agree_f32(family in 0usize..4, seed in 0u64..1 << 32) {
        let case = sample_case::<f32>(family, seed);
        let res = check_all_paths(&case);
        prop_assert!(res.is_ok(), "{}", res.unwrap_err());
    }
}

/// Hand-pinned cases: one per family plus the edges that exercise every
/// special case at once (single factor, tall solo-path M, expanding then
/// contracting intermediates, shardable Figure 11-style chains, chains
/// the fused path runs as group steps). Failures
/// from the property tests get pasted here verbatim.
#[test]
fn pinned_regression_corpus() {
    // f64 corpus.
    for (case, label) in [
        (
            KronCase::<f64>::deterministic(4, &[(4, 4), (4, 4), (4, 4)], 1),
            "uniform pow2, shardable",
        ),
        (
            KronCase::<f64>::deterministic(8, &[(8, 8), (8, 8)], 2),
            "uniform pow2, wide",
        ),
        (
            KronCase::<f64>::deterministic(5, &[(3, 3), (3, 3), (3, 3)], 3),
            "uniform odd",
        ),
        (
            KronCase::<f64>::deterministic(3, &[(2, 5), (4, 2), (3, 3)], 4),
            "rectangular mixed",
        ),
        (
            KronCase::<f64>::deterministic(2, &[(5, 5), (5, 5), (5, 5), (2, 2)], 5),
            "Table 4 row 20",
        ),
        (
            KronCase::<f64>::deterministic(1, &[(6, 4)], 6),
            "single factor",
        ),
        (
            KronCase::<f64>::deterministic(33, &[(4, 4), (4, 4)], 7),
            "solo-path M",
        ),
        (
            KronCase::<f64>::deterministic(3, &[(2, 8), (8, 2)], 8),
            "expand then contract",
        ),
        // Chains the fused path cuts into group steps on AVX-512F hosts
        // (runs of consecutive small factors in one pass).
        (
            KronCase::<f64>::deterministic(3, &[(8, 8), (8, 8), (8, 8), (8, 8)], 9),
            "group steps, 8^4",
        ),
        (
            KronCase::<f64>::deterministic(5, &[(2, 2); 8], 10),
            "group steps, 2^8",
        ),
        (
            KronCase::<f64>::deterministic(2, &[(4, 2), (2, 4), (4, 4), (2, 2)], 11),
            "group steps, rectangular",
        ),
    ] {
        if let Err(e) = check_all_paths(&case) {
            panic!("pinned case ({label}) regressed:\n{e}");
        }
    }
    // f32 corpus (the exactness budget is the binding constraint here).
    for (case, label) in [
        (
            KronCase::<f32>::deterministic(4, &[(4, 4), (4, 4), (4, 4)], 11),
            "uniform pow2, shardable",
        ),
        (
            KronCase::<f32>::deterministic(6, &[(7, 7), (7, 7)], 12),
            "uniform odd 7",
        ),
        (
            KronCase::<f32>::deterministic(2, &[(1, 3), (5, 1), (2, 6)], 13),
            "degenerate dims",
        ),
        (
            KronCase::<f32>::deterministic(
                40,
                &[
                    (2, 2),
                    (2, 2),
                    (2, 2),
                    (2, 2),
                    (2, 2),
                    (2, 2),
                    (2, 2),
                    (2, 2),
                ],
                14,
            ),
            "deep chain, solo M",
        ),
        (
            KronCase::<f32>::deterministic(3, &[(8, 8), (8, 8), (8, 8), (8, 8)], 15),
            "group steps, 8^4",
        ),
        (
            KronCase::<f32>::deterministic(5, &[(2, 2); 8], 16),
            "group steps, 2^8",
        ),
        (
            KronCase::<f32>::deterministic(2, &[(8, 3), (4, 2), (2, 4), (4, 4), (2, 2)], 17),
            "group steps, rectangular",
        ),
    ] {
        if let Err(e) = check_all_paths(&case) {
            panic!("pinned case ({label}) regressed:\n{e}");
        }
    }
}
