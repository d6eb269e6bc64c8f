//! Seeded input generation and the workload definitions.
//!
//! Every input is integer-valued and small enough that no partial sum
//! exceeds the mantissa (2^24 for f32, 2^53 for f64), so every engine and
//! every summation order gives the same bits. That is what lets the
//! benchmark compare each output bit-for-bit against the
//! `kron_matmul_shuffle` oracle.

use kron_core::{Element, FactorShape, KronProblem, Matrix};

/// SplitMix64: a small, fast, well-mixed generator. The benchmark needs
/// repeatable inputs from a seed, not cryptographic quality.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator whose stream is a pure function of `seed` and `stream`
    /// (separate streams keep one workload's draws from shifting when
    /// another part draws more).
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    /// Next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw from `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() >> 11) % n as u64) as usize
    }

    /// Uniform integer in `-mag..=mag`.
    pub fn int(&mut self, mag: i64) -> i64 {
        self.below(2 * mag as usize + 1) as i64 - mag
    }
}

/// A `rows × cols` matrix of integers drawn uniformly from `-mag..=mag`.
pub fn int_matrix<T: Element>(rng: &mut Rng, rows: usize, cols: usize, mag: i64) -> Matrix<T> {
    Matrix::from_fn(rows, cols, |_, _| T::from_f64(rng.int(mag) as f64))
}

/// Bit-exact equality of two matrices (same shape, same bits).
pub fn same_bits<T: Element>(a: &Matrix<T>, b: &Matrix<T>) -> bool {
    a.rows() == b.rows()
        && a.cols() == b.cols()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_f64().to_bits() == y.to_f64().to_bits())
}

/// A 64-bit fingerprint of `values`' bits, in order. Each step is a
/// bijection of the running state, so outputs that differ in one element
/// never collide; chain-fig9 keeps fingerprints of its oracle outputs
/// instead of the outputs themselves.
pub fn fingerprint<T: Element>(values: &[T]) -> u64 {
    values.iter().fold(0x6A09_E667_F3BC_C909, |h: u64, v| {
        (h ^ v.to_f64().to_bits())
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(23)
    })
}

/// Figure 9's (P, N) grid (Jangda & Yadav, PPoPP 2024): power-of-two P,
/// the two largest `P^N` per P the paper fits on a 32 GB V100. Run at
/// `M = FIG9_M` in f32.
pub const FIG9_GRID: [(usize, usize); 10] = [
    (8, 5),
    (8, 6),
    (16, 4),
    (16, 5),
    (32, 3),
    (32, 4),
    (64, 2),
    (64, 3),
    (128, 2),
    (128, 3),
];

/// Row count of the Figure 9 problems (the paper uses 1024 on a GPU; 16
/// keeps the largest case at 128 MB per operand on a CPU host).
pub const FIG9_M: usize = 16;

/// Figure 9 inputs hold values in `-1..=1`: the largest output magnitude
/// is then `∏P ≤ 2^21`, exact in f32.
pub const FIG9_MAG: i64 = 1;

/// Serving inputs hold values in `-3..=3`; every serving chain keeps its
/// bound `3 · ∏(3·Pᵢ)` below 2^24.
pub const SERVE_MAG: i64 = 3;

/// Shape label used in metric names: `p8n5` for `8^5`.
pub fn fig9_label(p: usize, n: usize) -> String {
    format!("p{p}n{n}")
}

/// Label of a factor chain: `p16n2` when uniform square, else the factor
/// shapes joined, e.g. `4x4-8x8`.
pub fn chain_label(chain: &[(usize, usize)]) -> String {
    let (p, q) = chain[0];
    if p == q && chain.iter().all(|&f| f == (p, q)) {
        fig9_label(p, chain.len())
    } else {
        chain
            .iter()
            .map(|(p, q)| format!("{p}x{q}"))
            .collect::<Vec<_>>()
            .join("-")
    }
}

/// The problem a chain defines at `m` rows.
pub fn chain_problem(m: usize, chain: &[(usize, usize)]) -> KronProblem {
    let shapes = chain.iter().map(|&(p, q)| FactorShape::new(p, q)).collect();
    KronProblem::new(m, shapes).expect("benchmark chains are valid problems")
}

/// Element type of a served model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dtype {
    /// `f32`.
    F32,
    /// `f64`.
    F64,
}

/// One model of a serving workload.
#[derive(Debug, Clone)]
pub struct ModelSpec {
    /// Factor shapes `(P, Q)`, first to last.
    pub chain: Vec<(usize, usize)>,
    /// Element type.
    pub dtype: Dtype,
    /// Relative request weight within the mix.
    pub weight: usize,
    /// Request row counts, used equally often.
    pub rows: &'static [usize],
}

impl ModelSpec {
    fn square(p: usize, n: usize, dtype: Dtype, weight: usize, rows: &'static [usize]) -> Self {
        ModelSpec {
            chain: vec![(p, p); n],
            dtype,
            weight,
            rows,
        }
    }

    /// Metric label of the model's chain.
    pub fn label(&self) -> String {
        chain_label(&self.chain)
    }
}

/// The warm small-M serving mix: 8², 16², 4⁴ and 32², the last in f64.
/// 16² carries 5/8 of the requests, all at M = 4, so the pooled median
/// falls inside that one latency mode instead of between two; the other
/// models spread their requests over every row count in `M_CHOICES`.
pub fn serve_mix() -> Vec<ModelSpec> {
    vec![
        ModelSpec::square(16, 2, Dtype::F32, 5, &[4]),
        ModelSpec::square(8, 2, Dtype::F32, 1, &M_CHOICES),
        ModelSpec::square(4, 4, Dtype::F32, 1, &M_CHOICES),
        ModelSpec::square(32, 2, Dtype::F64, 1, &M_CHOICES),
    ]
}

/// The cache probe's chains: twelve distinct factor-shape chains, all
/// with `∏P = 64`, whose plan builds at the cache's 256-row capacity each
/// cost about 5–11 ms on a 2-core x86 host. The cache holds
/// `CHURN_CACHE_ENTRIES` of them, and a round-robin rotation makes every
/// request a miss.
pub fn churn_chains() -> Vec<ModelSpec> {
    let chains: [&[(usize, usize)]; 12] = [
        &[(4, 4), (4, 4), (4, 4)],
        &[(8, 8), (8, 8)],
        &[(8, 4), (8, 4)],
        &[(4, 8), (16, 8)],
        &[(4, 4), (16, 16)],
        &[(16, 16), (4, 4)],
        &[(2, 2), (4, 4), (8, 8)],
        &[(8, 8), (4, 4), (2, 2)],
        &[(4, 4), (2, 2), (8, 8)],
        &[(2, 2), (32, 32)],
        &[(32, 32), (2, 2)],
        &[(2, 2), (2, 2), (16, 16)],
    ];
    chains
        .iter()
        .map(|c| ModelSpec {
            chain: c.to_vec(),
            dtype: Dtype::F32,
            weight: 1,
            rows: &M_CHOICES,
        })
        .collect()
}

/// Plan-cache capacity of the cache probe's runtime.
pub const CHURN_CACHE_ENTRIES: usize = 4;

/// Request row counts (M ≤ 16: the small-M serving regime the batcher
/// exists for).
pub const M_CHOICES: [usize; 5] = [1, 2, 4, 8, 16];

/// One model's factors plus a pool of requests with their oracle replies.
pub struct Pool<T: Element> {
    /// The model's factors.
    pub factors: Vec<Matrix<T>>,
    /// Request inputs.
    pub xs: Vec<Matrix<T>>,
    /// `kron_matmul_shuffle` of each input: the bit-exact expected reply.
    pub want: Vec<Matrix<T>>,
}

impl<T: Element> Pool<T> {
    /// `size` requests for `spec`, drawn from `rng`.
    pub fn generate(rng: &mut Rng, spec: &ModelSpec, size: usize) -> Self {
        let chain = &spec.chain;
        let factors: Vec<Matrix<T>> = chain
            .iter()
            .map(|&(p, q)| int_matrix(rng, p, q, SERVE_MAG))
            .collect();
        let k: usize = chain.iter().map(|f| f.0).product();
        // Row counts cycle through `spec.rows`, so every seed's pool has
        // the same mix of sizes.
        let xs: Vec<Matrix<T>> = (0..size)
            .map(|i| int_matrix(rng, spec.rows[i % spec.rows.len()], k, SERVE_MAG))
            .collect();
        let refs: Vec<&Matrix<T>> = factors.iter().collect();
        let want = xs
            .iter()
            .map(|x| kron_core::shuffle::kron_matmul_shuffle(x, &refs).expect("oracle"))
            .collect();
        Pool { factors, xs, want }
    }

    /// Factor references in the form the engines take.
    pub fn refs(&self) -> Vec<&Matrix<T>> {
        self.factors.iter().collect()
    }
}

/// Fisher–Yates shuffle driven by `rng`.
fn shuffle<T>(rng: &mut Rng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i + 1));
    }
}

/// A request stream of `(model index, pool index)` pairs with the same
/// composition for every seed; only the order depends on `rng`. Each
/// deck of `Σ weight` requests holds exactly `weight` requests of each
/// model, shuffled, and each model walks its pool through successive
/// shuffled permutations, so every pool entry is sent equally often.
pub fn request_stream(
    rng: &mut Rng,
    specs: &[ModelSpec],
    pool_size: usize,
    len: usize,
) -> Vec<(usize, usize)> {
    let mut deck: Vec<usize> = specs
        .iter()
        .enumerate()
        .flat_map(|(m, s)| std::iter::repeat_n(m, s.weight))
        .collect();
    let mut perms: Vec<Vec<usize>> = vec![Vec::new(); specs.len()];
    let mut out = Vec::with_capacity(len);
    while out.len() < len {
        shuffle(rng, &mut deck);
        for &m in &deck {
            if perms[m].is_empty() {
                perms[m] = (0..pool_size).collect();
                shuffle(rng, &mut perms[m]);
            }
            let i = perms[m].pop().expect("refilled above");
            out.push((m, i));
        }
    }
    out.truncate(len);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_identical_inputs() {
        let a: Matrix<f32> = int_matrix(&mut Rng::new(7, 1), 5, 9, 3);
        let b: Matrix<f32> = int_matrix(&mut Rng::new(7, 1), 5, 9, 3);
        assert!(same_bits(&a, &b));
        let c: Matrix<f32> = int_matrix(&mut Rng::new(8, 1), 5, 9, 3);
        assert!(!same_bits(&a, &c));
        let d: Matrix<f32> = int_matrix(&mut Rng::new(7, 2), 5, 9, 3);
        assert!(!same_bits(&a, &d), "streams are independent");

        let mix = serve_mix();
        let s1 = request_stream(&mut Rng::new(3, 0), &mix, 16, 500);
        let s2 = request_stream(&mut Rng::new(3, 0), &mix, 16, 500);
        assert_eq!(s1, s2);
        let p1: Pool<f64> = Pool::generate(&mut Rng::new(3, 4), &mix[3], 4);
        let p2: Pool<f64> = Pool::generate(&mut Rng::new(3, 4), &mix[3], 4);
        for (x, y) in p1.xs.iter().zip(&p2.xs) {
            assert!(same_bits(x, y));
        }
    }

    #[test]
    fn fingerprint_tells_outputs_apart() {
        let a: Matrix<f32> = int_matrix(&mut Rng::new(5, 0), 4, 64, 3);
        assert_eq!(fingerprint(a.as_slice()), fingerprint(a.clone().as_slice()));
        for i in [0, 17, 255] {
            let mut b = a.clone();
            b.as_mut_slice()[i] += 1.0;
            assert_ne!(fingerprint(a.as_slice()), fingerprint(b.as_slice()), "{i}");
        }
        let mut swapped = a.clone();
        swapped.as_mut_slice().swap(0, 1);
        if a.as_slice()[0] != a.as_slice()[1] {
            assert_ne!(fingerprint(a.as_slice()), fingerprint(swapped.as_slice()));
        }
        // Negative zero differs from zero in its bits.
        assert_ne!(fingerprint(&[0.0f32]), fingerprint(&[-0.0f32]));
    }

    #[test]
    fn inputs_are_small_integers() {
        let m: Matrix<f64> = int_matrix(&mut Rng::new(1, 0), 20, 20, 3);
        assert!(m
            .as_slice()
            .iter()
            .all(|v| v.fract() == 0.0 && v.abs() <= 3.0));
    }

    #[test]
    fn every_seed_sends_the_same_mix() {
        let mix = serve_mix();
        let count = |seed| {
            let s = request_stream(&mut Rng::new(seed, 0), &mix, 10, 8 * 10 * 5);
            let mut counts = std::collections::BTreeMap::new();
            for r in s {
                *counts.entry(r).or_insert(0) += 1;
            }
            counts
        };
        let a = count(11);
        assert_eq!(a, count(12), "composition is seed-independent");
        // 5/8 of the requests go to the heavy model, spread evenly over
        // its pool entries.
        assert_eq!(
            a.iter()
                .filter(|((m, _), _)| *m == 0)
                .map(|(_, c)| c)
                .sum::<i32>(),
            250
        );
        assert!(a
            .iter()
            .all(|((m, _), &c)| c == if *m == 0 { 25 } else { 5 }));
        assert_ne!(
            request_stream(&mut Rng::new(11, 0), &mix, 10, 64),
            request_stream(&mut Rng::new(12, 0), &mix, 10, 64),
            "order depends on the seed"
        );
    }

    #[test]
    fn outputs_stay_exact() {
        // Largest |y| a chain can reach must fit the mantissa.
        for spec in serve_mix().iter().chain(churn_chains().iter()) {
            let bound = spec.chain.iter().fold(SERVE_MAG as f64, |acc, &(p, _)| {
                acc * p as f64 * SERVE_MAG as f64
            });
            let mantissa = match spec.dtype {
                Dtype::F32 => 2f64.powi(24),
                Dtype::F64 => 2f64.powi(53),
            };
            assert!(bound < mantissa, "{}", spec.label());
        }
        for (p, n) in FIG9_GRID {
            assert!((p as f64).powi(n as i32) < 2f64.powi(24));
        }
    }

    #[test]
    fn churn_chains_are_distinct_and_outnumber_the_cache() {
        let chains = churn_chains();
        let mut labels: Vec<String> = chains.iter().map(|c| c.label()).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), chains.len());
        assert!(chains.len() > CHURN_CACHE_ENTRIES);
        assert!(chains
            .iter()
            .all(|c| c.chain.iter().map(|f| f.0).product::<usize>() == 64));
    }

    #[test]
    fn labels() {
        assert_eq!(chain_label(&[(8, 8), (8, 8)]), "p8n2");
        assert_eq!(chain_label(&[(4, 8), (16, 8)]), "4x8-16x8");
    }
}
