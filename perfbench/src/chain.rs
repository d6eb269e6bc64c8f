//! chain-fig9: the paper's kernel microbenchmark (Figure 9's (P, N)
//! grid) through `Workspace::execute_into` on a warm workspace, with no
//! runtime in the way.
//!
//! The grid runs in rounds, and each round visits every shape once: it
//! regenerates the shape's input from the seed, sets up a workspace,
//! warms it with one execute, times its share of the run, and frees the
//! workspace again. Each shape's samples are thus spread over the whole
//! run, so interference from outside the process that lasts a few seconds
//! moves a few samples of every shape instead of all samples of one.
//! Between visits only the factors and a 64-bit fingerprint of each
//! oracle output stay resident, so the peak resident memory is one
//! visit's input, workspace and output (about 512 MB for 128³), most of
//! it allocated by the program under test.
use crate::inputs::{fig9_label, fingerprint, int_matrix, Rng, FIG9_GRID, FIG9_M, FIG9_MAG};
use crate::report::{Report, Tally};
use crate::spans::Recorder;
use crate::stats::{geomean, median, ratio};
use fastkron_core::exec::{sliced_multiply_rows_into, PackPanel, Workspace};
use kron_core::{KronProblem, Matrix};
use std::time::Instant;

/// Fewest timed executes per shape per round, however long each takes.
/// One 128³ execute takes about half a second on 2 cores, more than its
/// time share of a visit; three per round give its median 18 samples.
const MIN_REPS: usize = 3;
/// Seconds spent per shape on each probe (one-thread execute, factor
/// step), beyond their minimum call counts.
const PROBE_SECS: f64 = 0.1;
/// Entries of a factor step's output checked against a direct sum.
const STEP_CHECKS: usize = 64;

/// Measurements of one Figure 9 shape.
pub struct ShapeRun {
    /// Metric label, e.g. `p8n5`.
    pub label: String,
    /// Flops of one execute.
    pub flops: u64,
    /// Bytes one execute must read and write at the least: every factor
    /// step's input and output rows plus the factors (computed from the
    /// shapes, not measured).
    pub bytes: u64,
    /// Seconds of each set-up (one per round): `Workspace::new`, output
    /// allocation and one warm-up execute.
    pub setup_s: Vec<f64>,
    /// Seconds of each untraced timed execute, per round.
    pub rounds: Vec<Vec<f64>>,
    /// Seconds of each traced execute (traced runs only).
    pub traced: Vec<f64>,
    /// Seconds of each serial (one-thread) execute (probes only).
    pub serial: Vec<f64>,
    /// Seconds of each serial single factor step (probes only).
    pub step: Vec<f64>,
    /// Flops of that factor step.
    pub step_flops: u64,
}

impl ShapeRun {
    /// Every untraced timed execute, in seconds.
    pub fn times(&self) -> Vec<f64> {
        self.rounds.concat()
    }

    /// Median untraced execute time over all rounds.
    pub fn median_s(&self) -> f64 {
        median(&self.times())
    }

    /// GFLOP/s at the median untraced execute time.
    pub fn gflops(&self) -> f64 {
        ratio(self.flops as f64, self.median_s()) / 1e9
    }
}

/// How long to measure each shape, and what beyond untraced executes.
pub struct GridPlan {
    /// Untraced timed seconds per shape, over all rounds (at least
    /// `MIN_REPS` executes per round).
    pub slot_secs: f64,
    /// Rounds over the grid.
    pub rounds: usize,
    /// Also time one-thread executes and a single factor step (in the
    /// last round).
    pub probes: bool,
}

/// One Figure 9 problem: its factors, how to redraw its input, and a
/// fingerprint of its oracle output.
struct Shape {
    p: usize,
    n: usize,
    problem: KronProblem,
    factors: Vec<Matrix<f32>>,
    /// Generator state that draws the input `x`.
    x_rng: Rng,
    /// `fingerprint` of `kron_matmul_shuffle(x, factors)`.
    want: u64,
}

impl Shape {
    fn generate(seed: u64, s: usize, p: usize, n: usize) -> Self {
        let problem = KronProblem::uniform(FIG9_M, p, n).expect("Figure 9 shapes are valid");
        let mut rng = Rng::new(seed, 1000 + s as u64);
        let factors: Vec<Matrix<f32>> = (0..n)
            .map(|_| int_matrix(&mut rng, p, p, FIG9_MAG))
            .collect();
        let mut shape = Shape {
            p,
            n,
            problem,
            factors,
            x_rng: rng,
            want: 0,
        };
        // Rows of the product are independent, so the oracle runs one row
        // at a time and its working memory stays a few rows deep.
        let x = shape.input();
        let refs: Vec<&Matrix<f32>> = shape.factors.iter().collect();
        let mut want = Vec::with_capacity(FIG9_M * shape.problem.output_cols());
        for r in 0..FIG9_M {
            let row = Matrix::from_vec(1, x.cols(), x.row(r).to_vec()).expect("one row");
            let y = kron_core::shuffle::kron_matmul_shuffle(&row, &refs).expect("oracle");
            want.extend_from_slice(y.as_slice());
        }
        shape.want = fingerprint(&want);
        shape
    }

    /// The input matrix, the same on every call.
    fn input(&self) -> Matrix<f32> {
        int_matrix(
            &mut self.x_rng.clone(),
            FIG9_M,
            self.problem.input_cols(),
            FIG9_MAG,
        )
    }

    /// Whether `y` has the oracle's shape and bits.
    fn matches(&self, y: &Matrix<f32>) -> bool {
        y.rows() == FIG9_M
            && y.cols() == self.problem.output_cols()
            && fingerprint(y.as_slice()) == self.want
    }
}

/// Seconds `f` takes, and what it returns.
fn timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let t = Instant::now();
    let out = f();
    (t.elapsed().as_secs_f64(), out)
}

/// Calls `f` until `secs` of timed calls have been spent and at least
/// `min_reps` calls made, returning each call's seconds. `f` returns the
/// seconds of the call it timed and whether its output checked out, so
/// the check stays outside the timed interval.
fn timed_reps(
    secs: f64,
    min_reps: usize,
    mut f: impl FnMut() -> (f64, bool),
    tally: &mut Tally,
) -> Vec<f64> {
    let mut times = Vec::new();
    let mut spent = 0.0;
    while spent < secs || times.len() < min_reps {
        let (dt, ok) = f();
        tally.add(ok);
        spent += dt;
        times.push(dt);
    }
    times
}

/// Runs the grid. With a recorder, each visit also gets a traced slot as
/// long as its untraced one, in which every execute is an `exec.chain`
/// span.
pub fn run_grid(
    seed: u64,
    plan: &GridPlan,
    mut rec: Option<&mut Recorder>,
    tally: &mut Tally,
) -> Vec<ShapeRun> {
    let shapes: Vec<Shape> = FIG9_GRID
        .iter()
        .enumerate()
        .map(|(s, &(p, n))| Shape::generate(seed, s, p, n))
        .collect();
    let mut out: Vec<ShapeRun> = shapes
        .iter()
        .map(|sh| ShapeRun {
            label: fig9_label(sh.p, sh.n),
            flops: sh.problem.flops(),
            bytes: 4 * (sh.problem.intermediate_accesses() + (sh.n * sh.p * sh.p) as u64),
            setup_s: Vec::new(),
            rounds: Vec::new(),
            traced: Vec::new(),
            serial: Vec::new(),
            step: Vec::new(),
            // The first step applies the last factor to X (Algorithm 1).
            step_flops: 2 * (FIG9_M * sh.problem.input_cols() * sh.p) as u64,
        })
        .collect();
    let visit_secs = plan.slot_secs / plan.rounds as f64;
    let mut rng = Rng::new(seed, 999);
    for round in 0..plan.rounds {
        for (sh, run) in shapes.iter().zip(out.iter_mut()) {
            let x = sh.input();
            let refs: Vec<&Matrix<f32>> = sh.factors.iter().collect();
            let t = Instant::now();
            let mut ws = Workspace::<f32>::new(&sh.problem);
            let mut y = Matrix::zeros(FIG9_M, sh.problem.output_cols());
            let ok = ws.execute_into(&x, &refs, &mut y).is_ok();
            run.setup_s.push(t.elapsed().as_secs_f64());
            tally.add(ok && sh.matches(&y));
            let exec = |ws: &mut Workspace<f32>, y: &mut Matrix<f32>| {
                let (dt, out) = timed(|| ws.execute_into(&x, &refs, y));
                (dt, out.is_ok() && sh.matches(y))
            };

            run.rounds.push(timed_reps(
                visit_secs,
                MIN_REPS,
                || exec(&mut ws, &mut y),
                tally,
            ));
            if let Some(r) = rec.as_deref_mut() {
                let mut spent = 0.0;
                let mut calls = 0;
                while spent < visit_secs || calls < MIN_REPS {
                    let start = r.now_ns();
                    let ok = ws.execute_into(&x, &refs, &mut y).is_ok();
                    let end = r.now_ns();
                    r.record("exec.chain", start, end, None, run.traced.len() as u64);
                    tally.add(ok && sh.matches(&y));
                    let dt = (end - start) as f64 / 1e9;
                    spent += dt;
                    calls += 1;
                    run.traced.push(dt);
                }
            }

            if plan.probes && round + 1 == plan.rounds {
                ws.set_partition(Some((1, 1)));
                run.serial = timed_reps(PROBE_SECS, 1, || exec(&mut ws, &mut y), tally);
                ws.set_partition(None);
                let k = sh.problem.input_cols();
                let mut buf = vec![0f32; FIG9_M * k];
                let mut panel = PackPanel::new();
                let f = refs[sh.n - 1];
                run.step = timed_reps(
                    PROBE_SECS,
                    2,
                    || {
                        let (dt, out) = timed(|| {
                            sliced_multiply_rows_into(
                                x.as_slice(),
                                k,
                                f,
                                FIG9_M,
                                k,
                                &mut buf,
                                k,
                                &mut panel,
                            )
                        });
                        (dt, out.is_ok())
                    },
                    tally,
                );
                tally.add(step_matches(&mut rng, &x, f, &buf));
            }
        }
    }
    out
}

/// Checks sampled entries of one sliced multiply,
/// `out[r][q·S + s] = Σ_p x[r][s·P + p] · f[p][q]`, against a direct sum
/// (exact on integer data).
fn step_matches(rng: &mut Rng, x: &Matrix<f32>, f: &Matrix<f32>, out: &[f32]) -> bool {
    let (p, q, k) = (f.rows(), f.cols(), x.cols());
    let slices = k / p;
    (0..STEP_CHECKS).all(|_| {
        let (r, s, c) = (rng.below(x.rows()), rng.below(slices), rng.below(q));
        let sum: f32 = (0..p)
            .map(|i| x.row(r)[s * p + i] * f.as_slice()[i * q + c])
            .sum();
        out[r * slices * q + c * slices + s].to_bits() == sum.to_bits()
    })
}

/// chain-fig9's end-to-end metrics from an untraced grid run.
pub fn report_end_to_end(runs: &[ShapeRun], report: &mut Report) {
    let samples: usize = runs.iter().map(|r| r.times().len()).sum();
    let setup: f64 = runs.iter().map(|r| median(&r.setup_s)).sum();
    let gflops: Vec<f64> = runs.iter().map(ShapeRun::gflops).collect();
    let p50: Vec<f64> = runs.iter().map(|r| r.median_s() * 1e6).collect();
    // One pass over the grid at every shape's median speed.
    let pass_s: f64 = runs.iter().map(ShapeRun::median_s).sum();
    report.push(
        "setup_s",
        setup,
        "s",
        runs.iter().map(|r| r.setup_s.len()).sum(),
    );
    report.push("gflops", geomean(&gflops), "GFLOP/s", samples);
    report.push("rps", ratio(runs.len() as f64, pass_s), "1/s", samples);
    report.push("p50_us", geomean(&p50), "us", samples);
}

/// The exec layer's metrics from a grid run with probes: per-shape chain
/// and single-step rates, computed arithmetic intensity, parallel
/// efficiency over `threads`, and the share of the measured FMA peak.
pub fn report_layers(runs: &[ShapeRun], threads: usize, fma_peak_all: f64, report: &mut Report) {
    for r in runs {
        report.push(
            &format!("exec.chain_gflops.{}", r.label),
            r.gflops(),
            "GFLOP/s",
            r.times().len(),
        );
        report.push(
            &format!("exec.step_gflops.{}", r.label),
            ratio(r.step_flops as f64, median(&r.step)) / 1e9,
            "GFLOP/s",
            r.step.len(),
        );
        report.push(
            &format!("exec.flops_per_byte_computed.{}", r.label),
            r.flops as f64 / r.bytes as f64,
            "flop/B",
            1,
        );
    }
    let speedups: Vec<f64> = runs
        .iter()
        .map(|r| ratio(median(&r.serial), r.median_s()))
        .collect();
    report.push(
        "exec.parallel_eff",
        geomean(&speedups) / threads as f64,
        "frac",
        runs.len(),
    );
    let gflops: Vec<f64> = runs.iter().map(ShapeRun::gflops).collect();
    report.push(
        "exec.peak_frac",
        ratio(geomean(&gflops), fma_peak_all),
        "frac",
        runs.len(),
    );
}

/// Tracing overhead of a grid run: untraced over traced GFLOP/s, minus 1.
pub fn trace_overhead(runs: &[ShapeRun]) -> f64 {
    let plain: Vec<f64> = runs.iter().map(ShapeRun::median_s).collect();
    let traced: Vec<f64> = runs.iter().map(|r| median(&r.traced)).collect();
    ratio(geomean(&traced), geomean(&plain)) - 1.0
}
