//! The serve-seq workload and the serving layers' probes: the batching
//! path under bursts, and the plan cache's miss path.
//!
//! Each client is a closed loop: it sends its next request (or burst)
//! only after the previous one has been answered. Client latency runs
//! from the start of `Runtime::submit` to the return of `Ticket::wait`.
//! Building a request's input matrix and checking its reply happen
//! outside that interval and outside the timed wall clock.

use crate::inputs::{
    chain_problem, churn_chains, request_stream, serve_mix, Dtype, ModelSpec, Pool, Rng,
    CHURN_CACHE_ENTRIES,
};
use crate::report::{Report, Tally};
use crate::spans::{Recorder, SpanId};
use crate::stats::{median, percentile, percentile_sorted, ratio};
use crate::Args;
use fastkron_core::exec::{kron_matmul_fused, Workspace};
use fastkron_core::FastKron;
use gpu_sim::device::V100;
use kron_core::{Element, Matrix, Result};
use kron_runtime::{
    CachePolicy, MetricsSnapshot, Model, Runtime, RuntimeConfig, RuntimeStats, ServeElement, Stage,
    Ticket,
};
use std::time::Instant;

/// Requests generated per model (each with its oracle reply); a
/// multiple of `M_CHOICES.len()`.
const POOL_SIZE: usize = 40;
/// Length of the precomputed request order; clients cycle through it.
const STREAM_LEN: usize = 8192;
/// Requests the burst probe's client submits before waiting.
const BURST: usize = 32;
/// Seconds the burst probe runs.
const BURST_PROBE_SECS: f64 = 2.0;
/// Timed calls per `Workspace::execute_rows` probe.
const ROWS_REPS: usize = 200;
/// Times serve-seq's set-up is repeated per run; `setup_s` is the median.
const SETUP_REPS: usize = 10;
/// Equal spans of wall clock a client loop is cut into; every end-to-end
/// figure is the median over the windows of a phase.
const WINDOWS: usize = 20;

/// Which serving loop to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// One client at queue depth 1 on the warm mix (serve-seq).
    Seq,
    /// One client submitting bursts on the warm mix (the burst probe).
    Burst,
    /// One client at queue depth 1 rotating through more chains than
    /// the plan cache holds (the cache probe).
    Churn,
}

/// A pool of either dtype.
pub enum AnyPool {
    /// `f32` model.
    F32(Pool<f32>),
    /// `f64` model.
    F64(Pool<f64>),
}

enum AnyModel {
    F32(Model<f32>),
    F64(Model<f64>),
}

enum AnyInput {
    F32(Matrix<f32>),
    F64(Matrix<f64>),
}

enum AnyTicket {
    F32(Ticket<f32>),
    F64(Ticket<f64>),
}

enum AnyReply {
    F32(Matrix<f32>),
    F64(Matrix<f64>),
}

impl AnyPool {
    fn generate(rng: &mut Rng, spec: &ModelSpec) -> Self {
        match spec.dtype {
            Dtype::F32 => AnyPool::F32(Pool::generate(rng, spec, POOL_SIZE)),
            Dtype::F64 => AnyPool::F64(Pool::generate(rng, spec, POOL_SIZE)),
        }
    }

    fn rows(&self, i: usize) -> usize {
        match self {
            AnyPool::F32(p) => p.xs[i].rows(),
            AnyPool::F64(p) => p.xs[i].rows(),
        }
    }

    fn input(&self, i: usize) -> AnyInput {
        match self {
            AnyPool::F32(p) => AnyInput::F32(p.xs[i].clone()),
            AnyPool::F64(p) => AnyInput::F64(p.xs[i].clone()),
        }
    }

    fn check(&self, i: usize, reply: &AnyReply) -> bool {
        match (self, reply) {
            (AnyPool::F32(p), AnyReply::F32(y)) => crate::inputs::same_bits(&p.want[i], y),
            (AnyPool::F64(p), AnyReply::F64(y)) => crate::inputs::same_bits(&p.want[i], y),
            _ => false,
        }
    }

    fn load(&self, rt: &Runtime) -> Result<AnyModel> {
        Ok(match self {
            AnyPool::F32(p) => AnyModel::F32(rt.load_model(p.factors.clone())?),
            AnyPool::F64(p) => AnyModel::F64(rt.load_model(p.factors.clone())?),
        })
    }

    /// One bare `kron_matmul_fused` call on request `i`: `(seconds, ok)`.
    fn direct(&self, i: usize) -> (f64, bool) {
        fn call<T: Element>(p: &Pool<T>, i: usize) -> (f64, bool) {
            let refs = p.refs();
            let t = Instant::now();
            let y = kron_matmul_fused(&p.xs[i], &refs);
            let dt = t.elapsed().as_secs_f64();
            (
                dt,
                y.is_ok_and(|y| crate::inputs::same_bits(&p.want[i], &y)),
            )
        }
        match self {
            AnyPool::F32(p) => call(p, i),
            AnyPool::F64(p) => call(p, i),
        }
    }
}

fn submit(rt: &Runtime, model: &AnyModel, x: AnyInput) -> Result<AnyTicket> {
    match (model, x) {
        (AnyModel::F32(m), AnyInput::F32(x)) => rt.submit(m, x).map(AnyTicket::F32),
        (AnyModel::F64(m), AnyInput::F64(x)) => rt.submit(m, x).map(AnyTicket::F64),
        _ => unreachable!("a pool's inputs share its model's dtype"),
    }
}

fn wait(ticket: AnyTicket) -> Result<AnyReply> {
    match ticket {
        AnyTicket::F32(t) => t.wait().map(AnyReply::F32),
        AnyTicket::F64(t) => t.wait().map(AnyReply::F64),
    }
}

/// A loop's models, request pools and request order.
struct Mix {
    specs: Vec<ModelSpec>,
    pools: Vec<AnyPool>,
    /// Request kind of each pool entry, per model: one kind per model and
    /// row count, so requests of a kind do the same work.
    kind: Vec<Vec<usize>>,
    /// Flops of one request of each kind.
    kind_flops: Vec<u64>,
    stream: Vec<(usize, usize)>,
}

impl Mix {
    /// Generates the inputs and oracle replies of `kind` from `seed`.
    fn generate(kind: Kind, seed: u64) -> Self {
        let specs = match kind {
            Kind::Seq | Kind::Burst => serve_mix(),
            Kind::Churn => churn_chains(),
        };
        let pools: Vec<AnyPool> = specs
            .iter()
            .enumerate()
            .map(|(i, s)| AnyPool::generate(&mut Rng::new(seed, 100 + i as u64), s))
            .collect();
        let mut kinds: Vec<(usize, usize)> = Vec::new();
        let mut kind_flops = Vec::new();
        let kind_of = (0..pools.len())
            .map(|m| {
                (0..POOL_SIZE)
                    .map(|i| {
                        let key = (m, pools[m].rows(i));
                        kinds.iter().position(|&k| k == key).unwrap_or_else(|| {
                            kinds.push(key);
                            kind_flops.push(chain_problem(key.1, &specs[m].chain).flops());
                            kinds.len() - 1
                        })
                    })
                    .collect()
            })
            .collect();
        let mut rng = Rng::new(seed, 1);
        let stream = match kind {
            Kind::Seq | Kind::Burst => request_stream(&mut rng, &specs, POOL_SIZE, STREAM_LEN),
            // Round-robin: with more chains than cache entries, LRU turns
            // every request into a miss.
            Kind::Churn => (0..STREAM_LEN)
                .map(|i| (i % specs.len(), rng.below(POOL_SIZE)))
                .collect(),
        };
        Mix {
            specs,
            pools,
            kind: kind_of,
            kind_flops,
            stream,
        }
    }

    /// Labels of the models, in mix order.
    fn labels(&self) -> Vec<String> {
        self.specs.iter().map(|s| s.label()).collect()
    }
}

fn config(kind: Kind) -> RuntimeConfig {
    let mut cfg = RuntimeConfig::default();
    if kind == Kind::Churn {
        cfg.cache = CachePolicy {
            max_entries: CHURN_CACHE_ENTRIES,
            ..CachePolicy::default()
        };
    }
    cfg
}

/// A loaded runtime: the system under test after set-up.
struct Loaded {
    rt: Runtime,
    models: Vec<AnyModel>,
}

/// Set-up as a user pays it: `Runtime::new`, every `load_model`, then
/// two warm-up requests per model (the first builds and caches the
/// model's plan).
fn set_up(kind: Kind, mix: &Mix, tally: &mut Tally) -> Loaded {
    let rt = Runtime::new(config(kind));
    let models: Vec<AnyModel> = mix
        .pools
        .iter()
        .map(|p| p.load(&rt).expect("benchmark models are valid"))
        .collect();
    for (m, pool) in mix.pools.iter().enumerate() {
        for i in 0..2 {
            let reply = submit(&rt, &models[m], pool.input(i)).and_then(wait);
            tally.add(reply.is_ok_and(|r| pool.check(i, &r)));
        }
    }
    Loaded { rt, models }
}

/// The client's results over one time window of a phase.
#[derive(Default, Clone)]
struct Window {
    /// Latency percentiles of the requests answered in the window, set
    /// when the window closes.
    p50_us: f64,
    p99_us: f64,
    /// Requests answered in the window.
    samples: usize,
    /// Requests answered correctly.
    done: u64,
    /// Their rows.
    rows: u64,
    /// Timed seconds (first submit to last wait return of each burst).
    timed: f64,
    /// Median latency of each request kind answered correctly in the
    /// window (`Mix::kind`), with its count.
    kind_p50_us: Vec<f64>,
    kind_done: Vec<u64>,
}

impl Window {
    /// Takes the window's percentiles from `lat_us` and `kind_lat_us` and
    /// empties them, so latency storage stays one window deep whatever the
    /// throughput.
    fn close(&mut self, lat_us: &mut Vec<f64>, kind_lat_us: &mut [Vec<f64>]) {
        lat_us.sort_by(f64::total_cmp);
        self.p50_us = percentile_sorted(lat_us, 0.50);
        self.p99_us = percentile_sorted(lat_us, 0.99);
        self.samples = lat_us.len();
        lat_us.clear();
        self.kind_p50_us = kind_lat_us.iter().map(|l| median(l)).collect();
        self.kind_done = kind_lat_us.iter().map(|l| l.len() as u64).collect();
        kind_lat_us.iter_mut().for_each(Vec::clear);
    }
}

/// Client-side results of one measured phase.
struct Phase {
    /// The phase cut into `WINDOWS` equal spans of wall clock; a burst
    /// belongs to the window it ended in.
    windows: Vec<Window>,
    tally: Tally,
}

/// A phase's client figures, each the median over its windows.
struct Summary {
    /// Answered requests per second of timed wall clock.
    rps: f64,
    p50_us: f64,
    p99_us: f64,
    samples: usize,
}

/// A depth-1 phase's throughput at each request kind's median latency.
struct Steady {
    rps: f64,
    gflops: f64,
}

impl Phase {
    /// Adds a later phase's windows and checks to this one.
    fn append(&mut self, later: Phase) {
        self.windows.extend(later.windows);
        self.tally.merge(later.tally);
    }

    /// Mean rows of the requests answered correctly.
    fn rows_per_request(&self) -> f64 {
        let sum = |f: fn(&Window) -> u64| self.windows.iter().map(f).sum::<u64>() as f64;
        ratio(sum(|w| w.rows), sum(|w| w.done))
    }

    /// Medians over the windows that answered requests, so that a burst
    /// of interference from outside the process moves a few windows, not
    /// the result. A window's rate is its answered requests over its timed
    /// seconds.
    fn summary(&self) -> Summary {
        let live: Vec<&Window> = self.windows.iter().filter(|w| w.samples > 0).collect();
        let med =
            |f: &dyn Fn(&Window) -> f64| median(&live.iter().map(|w| f(w)).collect::<Vec<_>>());
        Summary {
            rps: med(&|w| ratio(w.done as f64, w.timed)),
            p50_us: med(&|w| w.p50_us),
            p99_us: med(&|w| w.p99_us),
            samples: live.iter().map(|w| w.samples).sum(),
        }
    }

    /// Throughput of a queue-depth-1 phase with every request taking its
    /// kind's latency: the median over windows of the kind's window
    /// median. Requests are served one at a time, so their latencies add
    /// up to the timed wall clock. A pause of the process or of a pool
    /// worker, from outside it, lands on long requests most often and
    /// makes a few of them much slower; taking each kind at its median
    /// keeps such pauses out of the figure. `rps` and `gflops` divide the
    /// answered requests and their flops by `Σ count × median` over the
    /// kinds.
    fn steady(&self, kind_flops: &[u64]) -> Steady {
        let (mut done, mut flops, mut busy_us) = (0.0, 0.0, 0.0);
        for (k, &per_request) in kind_flops.iter().enumerate() {
            let (mut n, mut p50s) = (0, Vec::new());
            // A traced phase that ended early leaves later windows unclosed.
            let answered = |w: &&Window| w.kind_done.get(k).is_some_and(|&c| c > 0);
            for w in self.windows.iter().filter(answered) {
                n += w.kind_done[k];
                p50s.push(w.kind_p50_us[k]);
            }
            done += n as f64;
            flops += (n * per_request) as f64;
            busy_us += n as f64 * median(&p50s);
        }
        Steady {
            rps: ratio(done, busy_us) * 1e6,
            gflops: ratio(flops, busy_us) / 1e3,
        }
    }
}

/// Spans one request records: `op`, `runtime.submit`, `runtime.wait`.
const SPANS_PER_REQUEST: usize = 3;

/// One client's closed loop for `secs` seconds of wall clock: `burst`
/// requests are submitted before the first wait. A traced loop also ends
/// when the recorder has no room for another burst, so no span is lost
/// and the phase's figures cover only the stretch it recorded.
fn client(
    loaded: &Loaded,
    mix: &Mix,
    burst: usize,
    secs: f64,
    mut rec: Option<&mut Recorder>,
) -> Phase {
    let mut cursor = 0;
    let mut windows = vec![Window::default(); WINDOWS];
    let mut inputs = Vec::with_capacity(burst);
    let mut pending = Vec::with_capacity(burst);
    let mut starts = Vec::with_capacity(burst);
    let mut replies = Vec::with_capacity(burst);
    let mut latencies = Vec::with_capacity(burst);
    let mut window_lat = Vec::new();
    let mut kind_lat = vec![Vec::new(); mix.kind_flops.len()];
    let mut current = 0;
    let mut tally = Tally::default();
    let begin = Instant::now();
    while begin.elapsed().as_secs_f64() < secs
        && rec
            .as_ref()
            .is_none_or(|r| r.room() >= SPANS_PER_REQUEST * burst)
    {
        let ids: Vec<(usize, usize)> = (0..burst)
            .map(|k| mix.stream[(cursor + k) % mix.stream.len()])
            .collect();
        cursor += burst;
        inputs.extend(ids.iter().map(|&(m, i)| mix.pools[m].input(i)));
        starts.clear();
        latencies.clear();
        let t0 = Instant::now();
        for (k, x) in inputs.drain(..).enumerate() {
            let (m, _) = ids[k];
            let req = (cursor - burst + k) as u64;
            starts.push(Instant::now());
            let s0 = now_ns(&rec);
            let ticket = submit(&loaded.rt, &loaded.models[m], x);
            let span = record(&mut rec, "runtime.submit", s0, req);
            pending.push((ticket, s0, span));
        }
        for (k, (ticket, s0, submit_span)) in pending.drain(..).enumerate() {
            let req = (cursor - burst + k) as u64;
            let w0 = now_ns(&rec);
            let reply = ticket.and_then(wait);
            let wait_span = record(&mut rec, "runtime.wait", w0, req);
            latencies.push(starts[k].elapsed().as_secs_f64() * 1e6);
            if let Some(r) = rec.as_deref_mut() {
                let root = r.record("op", s0, r.now_ns(), None, req);
                r.set_parent(submit_span, root);
                r.set_parent(wait_span, root);
            }
            replies.push(reply);
        }
        let timed = t0.elapsed().as_secs_f64();
        let w = ((begin.elapsed().as_secs_f64() / secs * WINDOWS as f64) as usize).min(WINDOWS - 1);
        if w != current {
            windows[current].close(&mut window_lat, &mut kind_lat);
            current = w;
        }
        let win = &mut windows[w];
        win.timed += timed;
        window_lat.extend_from_slice(&latencies);
        for (k, reply) in replies.drain(..).enumerate() {
            let (m, i) = ids[k];
            let ok = reply.is_ok_and(|r| mix.pools[m].check(i, &r));
            tally.add(ok);
            if ok {
                win.rows += mix.pools[m].rows(i) as u64;
                win.done += 1;
                kind_lat[mix.kind[m][i]].push(latencies[k]);
            }
        }
    }
    windows[current].close(&mut window_lat, &mut kind_lat);
    Phase { windows, tally }
}

fn now_ns(rec: &Option<&mut Recorder>) -> u64 {
    rec.as_ref().map_or(0, |r| r.now_ns())
}

/// Records a span from `start_ns` to now when tracing.
fn record(
    rec: &mut Option<&mut Recorder>,
    name: &'static str,
    start_ns: u64,
    req: u64,
) -> Option<SpanId> {
    let r = rec.as_deref_mut()?;
    let end = r.now_ns();
    r.record(name, start_ns, end, None, req)
}

/// Bare `kron_matmul_fused` over the workload's own request order for
/// about `secs` seconds: `(latencies µs, rps)`.
fn direct_pass(mix: &Mix, secs: f64, tally: &mut Tally) -> (Vec<f64>, f64) {
    let mut lat = Vec::new();
    let mut busy = 0.0;
    let begin = Instant::now();
    for &(m, i) in mix.stream.iter().cycle() {
        if begin.elapsed().as_secs_f64() >= secs {
            break;
        }
        let (dt, ok) = mix.pools[m].direct(i);
        tally.add(ok);
        busy += dt;
        lat.push(dt * 1e6);
    }
    let rps = ratio(lat.len() as f64, busy);
    (lat, rps)
}

/// serve-seq's end-to-end run.
pub fn run(args: &Args, report: &mut Report) {
    let kind = Kind::Seq;
    let mix = Mix::generate(kind, args.seed);
    let mut tally = Tally::default();
    let mut setups = Vec::new();
    let mut timed_set_up = |tally: &mut Tally| {
        let t = Instant::now();
        let loaded = set_up(kind, &mix, tally);
        setups.push(t.elapsed().as_secs_f64());
        loaded
    };
    // The measurement is cut into slices, each followed by the set-up of
    // a runtime that is then dropped. The set-ups' median thus samples the
    // whole run rather than one stretch of it.
    let loaded = timed_set_up(&mut tally);
    let slices = SETUP_REPS - 1;
    let mut phase = Phase {
        windows: Vec::new(),
        tally: Tally::default(),
    };
    for _ in 0..slices {
        phase.append(client(&loaded, &mix, 1, args.seconds / slices as f64, None));
        drop(timed_set_up(&mut tally));
    }
    tally.merge(phase.tally);
    drop(loaded);

    let sum = phase.summary();
    let steady = phase.steady(&mix.kind_flops);
    let n = sum.samples;
    report.push("setup_s", median(&setups), "s", setups.len());
    report.push("gflops", steady.gflops, "GFLOP/s", n);
    report.push("rps", steady.rps, "1/s", n);
    report.push("p50_us", sum.p50_us, "us", n);
    report.tally(tally.attempted, tally.failed);
}

/// Counter deltas between two snapshots (gauges keep the later value).
fn stats_delta(a: &RuntimeStats, b: &RuntimeStats) -> RuntimeStats {
    RuntimeStats {
        served: b.served - a.served,
        batches: b.batches - a.batches,
        batched_requests: b.batched_requests - a.batched_requests,
        solo_requests: b.solo_requests - a.solo_requests,
        bypassed_requests: b.bypassed_requests - a.bypassed_requests,
        plan_hits: b.plan_hits - a.plan_hits,
        plan_misses: b.plan_misses - a.plan_misses,
        evictions: b.evictions - a.evictions,
        rebuilds: b.rebuilds - a.rebuilds,
        lane_steals: b.lane_steals - a.lane_steals,
        cached_bytes: b.cached_bytes,
        ..RuntimeStats::default()
    }
}

/// Mean of the runtime's linger-stage histogram between two snapshots,
/// with its sample count.
fn linger_us(a: &MetricsSnapshot, b: &MetricsSnapshot) -> (f64, usize) {
    let linger = |s: &MetricsSnapshot| {
        s.stages
            .iter()
            .find(|(st, _)| *st == Stage::Linger)
            .map(|(_, h)| *h)
            .unwrap_or_default()
    };
    let h = linger(b).since(&linger(a));
    (ratio(h.sum_us as f64, h.count as f64), h.count as usize)
}

/// serve-seq's traced run: half the time untraced, half traced, then
/// the runtime metrics of the traced half.
pub fn run_traced(args: &Args, report: &mut Report, rec: &mut Recorder) -> Tally {
    let kind = Kind::Seq;
    let mix = Mix::generate(kind, args.seed);
    let mut tally = Tally::default();
    let loaded = set_up(kind, &mix, &mut tally);
    let half = args.seconds / 2.0;
    let plain = client(&loaded, &mix, 1, half, None);
    tally.merge(plain.tally);
    let before = loaded.rt.stats();
    let traced = client(&loaded, &mix, 1, half, Some(rec));
    let d = stats_delta(&before, &loaded.rt.stats());
    tally.merge(traced.tally);
    drop(loaded);
    let (direct_lat, _) = direct_pass(&mix, 1.0, &mut tally);

    for (call, name) in [
        ("runtime.submit", "runtime.submit_us"),
        ("runtime.wait", "runtime.wait_us"),
    ] {
        let t = rec.durations_us(call);
        report.push(&format!("{name}.p50"), percentile(&t, 0.5), "us", t.len());
        report.push(&format!("{name}.p99"), percentile(&t, 0.99), "us", t.len());
    }
    report.push(
        "runtime.bypass_frac",
        ratio(d.bypassed_requests as f64, d.served as f64),
        "frac",
        d.served as usize,
    );
    report.push("cache.cached_bytes", d.cached_bytes as f64, "B", 1);
    let (plain_rps, traced_rps) = (
        plain.steady(&mix.kind_flops).rps,
        traced.steady(&mix.kind_flops).rps,
    );
    let (plain, traced) = (plain.summary(), traced.summary());
    report.push("client.p99_us", plain.p99_us, "us", plain.samples);
    report.push(
        "runtime.seq_tax_x",
        ratio(plain.p50_us, percentile(&direct_lat, 0.5)),
        "x",
        plain.samples,
    );
    report.push(
        "trace.overhead_frac",
        ratio(plain_rps, traced_rps) - 1.0,
        "frac",
        traced.samples,
    );
    tally
}

/// serve-seq's traced-window metrics, reported as zero by chain-fig9,
/// whose workload never calls the runtime.
pub fn report_no_runtime(report: &mut Report) {
    for (name, unit) in [
        ("runtime.submit_us.p50", "us"),
        ("runtime.submit_us.p99", "us"),
        ("runtime.wait_us.p50", "us"),
        ("runtime.wait_us.p99", "us"),
        ("runtime.bypass_frac", "frac"),
        ("cache.cached_bytes", "B"),
        ("client.p99_us", "us"),
        ("runtime.seq_tax_x", "x"),
    ] {
        report.push(name, 0.0, unit, 0);
    }
}

/// Median seconds of `reps` calls of `f`. What `f` returns is dropped
/// after the clock stops, so a `Runtime`'s shutdown is not timed.
fn time_median<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            let out = std::hint::black_box(f());
            let dt = t.elapsed().as_secs_f64();
            drop(out);
            dt
        })
        .collect();
    median(&times)
}

/// `Workspace::execute_rows` of `rows` rows on a batch-capacity
/// workspace, `(µs, ok)`.
fn rows_probe<T: ServeElement>(
    rng: &mut Rng,
    pool: &Pool<T>,
    chain: &[(usize, usize)],
    rows: usize,
) -> (f64, bool) {
    let cap = RuntimeConfig::default().max_batch_rows;
    let problem = chain_problem(cap, chain);
    let k = problem.input_cols();
    let x: Matrix<T> = crate::inputs::int_matrix(rng, rows, k, crate::inputs::SERVE_MAG);
    let refs = pool.refs();
    let want = kron_core::shuffle::kron_matmul_shuffle(&x, &refs).expect("oracle");
    let mut ws = Workspace::<T>::new(&problem);
    let mut y = Matrix::zeros(rows, problem.output_cols());
    let mut ok = ws.execute_rows(&x, &refs, &mut y, rows).is_ok();
    let us = time_median(ROWS_REPS, || ws.execute_rows(&x, &refs, &mut y, rows)) * 1e6;
    ok &= crate::inputs::same_bits(&want, &y);
    (us, ok)
}

/// Plan build and workspace allocation at the cache's row capacity:
/// `(plan ms, workspace µs)`.
fn plan_probe<T: ServeElement>(chain: &[(usize, usize)], plan_reps: usize) -> (f64, f64) {
    let problem = chain_problem(RuntimeConfig::default().max_batch_rows, chain);
    let plan_ms = time_median(plan_reps, || FastKron::plan::<T>(&problem, &V100)) * 1e3;
    let ws_us = time_median(21, || Workspace::<T>::new(&problem)) * 1e6;
    (plan_ms, ws_us)
}

/// The batching path: one client submits bursts of `BURST` requests over
/// the warm serving mix and waits for each whole burst, so requests queue
/// behind each other and reach the scheduler, which stacks same-model
/// requests into batches. Reports the scheduler's counters over the
/// probe, the client's latency, and its throughput over that of bare
/// `kron_matmul_fused` calls on the same requests. Also returns the mean
/// rows of a multi-request batch: the mean rows of an answered request
/// times the batched requests per batch, within `1..=max_batch_rows`.
fn burst_probe(seed: u64, report: &mut Report) -> (Tally, usize) {
    let mut tally = Tally::default();
    let mix = Mix::generate(Kind::Burst, seed);
    let loaded = set_up(Kind::Burst, &mix, &mut tally);
    let snap0 = loaded.rt.metrics_snapshot();
    let phase = client(&loaded, &mix, BURST, BURST_PROBE_SECS, None);
    let snap1 = loaded.rt.metrics_snapshot();
    tally.merge(phase.tally);
    drop(loaded);
    let (_, direct_rps) = direct_pass(&mix, 0.5, &mut tally);
    let d = stats_delta(&snap0.stats, &snap1.stats);
    let (linger, lingered) = linger_us(&snap0, &snap1);
    let sum = phase.summary();
    let n = d.served as usize;
    report.push("scheduler.batches", d.batches as f64, "count", n);
    report.push(
        "scheduler.requests_per_batch",
        ratio(d.batched_requests as f64, d.batches as f64),
        "count",
        d.batches as usize,
    );
    report.push(
        "scheduler.solo_frac",
        ratio(d.solo_requests as f64, d.served as f64),
        "frac",
        n,
    );
    report.push("scheduler.lane_steals", d.lane_steals as f64, "count", n);
    report.push("scheduler.linger_us", linger, "us", lingered);
    report.push("runtime.burst_p50_us", sum.p50_us, "us", sum.samples);
    report.push("runtime.burst_p99_us", sum.p99_us, "us", sum.samples);
    report.push(
        "runtime.burst_vs_direct_x",
        ratio(sum.rps, direct_rps),
        "x",
        sum.samples,
    );
    let per_batch = ratio(d.batched_requests as f64, d.batches as f64).max(1.0);
    let rows = (phase.rows_per_request() * per_batch).round() as usize;
    (
        tally,
        rows.clamp(1, RuntimeConfig::default().max_batch_rows),
    )
}

/// Rotations of the cache probe.
const CHURN_ROTATIONS: usize = 3;

/// The plan cache's write path: one client at queue depth 1 rotating
/// round-robin through the churn chains on a runtime whose cache holds
/// fewer of them (`CachePolicy { max_entries }`), so every request
/// misses, evicts the least-recently-used entry and builds a plan. The
/// first rotation builds cold; later ones rebuild evicted shapes.
fn cache_probe(seed: u64, report: &mut Report) -> Tally {
    let mut tally = Tally::default();
    let mix = Mix::generate(Kind::Churn, seed);
    let rt = Runtime::new(config(Kind::Churn));
    let models: Vec<AnyModel> = mix
        .pools
        .iter()
        .map(|p| p.load(&rt).expect("benchmark models are valid"))
        .collect();
    let before = rt.stats();
    let mut lat = Vec::new();
    for &(m, i) in mix.stream.iter().take(CHURN_ROTATIONS * mix.specs.len()) {
        let x = mix.pools[m].input(i);
        let t = Instant::now();
        let reply = submit(&rt, &models[m], x).and_then(wait);
        lat.push(t.elapsed().as_secs_f64() * 1e6);
        tally.add(reply.is_ok_and(|r| mix.pools[m].check(i, &r)));
    }
    let d = stats_delta(&before, &rt.stats());
    let lookups = (d.plan_hits + d.plan_misses) as f64;
    let n = lat.len();
    report.push(
        "cache.hit_frac",
        ratio(d.plan_hits as f64, lookups),
        "frac",
        lookups as usize,
    );
    report.push("cache.evictions", d.evictions as f64, "count", n);
    report.push("cache.rebuilds", d.rebuilds as f64, "count", n);
    report.push("cache.miss_us", median(&lat), "us", n);
    tally
}

/// Probes of the serving layers, taken from outside by timing their
/// public calls: the batching path, the bare kernel per model,
/// `execute_rows` at the batching path's mean batch rows, plan and
/// workspace builds, `Runtime::new`, `load_model`, `metrics_snapshot`
/// and the plan cache's miss path.
pub fn layer_probes(seed: u64, report: &mut Report) -> Tally {
    let (mut tally, batch_rows) = burst_probe(seed, report);
    println!("# exec.rows_us: {batch_rows} rows, the burst probe's mean batch");
    let mix = Mix::generate(Kind::Seq, seed);
    let mut rng = Rng::new(seed, 7);
    for ((spec, pool), label) in mix.specs.iter().zip(&mix.pools).zip(mix.labels()) {
        let mut times = Vec::new();
        for i in (0..POOL_SIZE).cycle().take(20 * POOL_SIZE) {
            let (dt, ok) = pool.direct(i);
            tally.add(ok);
            times.push(dt * 1e6);
        }
        report.push(
            &format!("exec.direct_us.{label}"),
            median(&times),
            "us",
            times.len(),
        );
        let ((rows_us, ok), (plan_ms, ws_us)) = match pool {
            AnyPool::F32(p) => (
                rows_probe(&mut rng, p, &spec.chain, batch_rows),
                plan_probe::<f32>(&spec.chain, 3),
            ),
            AnyPool::F64(p) => (
                rows_probe(&mut rng, p, &spec.chain, batch_rows),
                plan_probe::<f64>(&spec.chain, 3),
            ),
        };
        tally.add(ok);
        report.push(&format!("exec.rows_us.{label}"), rows_us, "us", ROWS_REPS);
        report.push(&format!("engine.plan_ms.{label}"), plan_ms, "ms", 3);
        report.push(&format!("exec.workspace_new_us.{label}"), ws_us, "us", 21);
    }
    let churn: Vec<(f64, f64)> = churn_chains()
        .iter()
        .map(|s| plan_probe::<f32>(&s.chain, 1))
        .collect();
    let plans: Vec<f64> = churn.iter().map(|c| c.0).collect();
    let wss: Vec<f64> = churn.iter().map(|c| c.1).collect();
    report.push("engine.plan_ms.churn", median(&plans), "ms", plans.len());
    report.push("exec.workspace_new_us.churn", median(&wss), "us", wss.len());
    tally.merge(cache_probe(seed, report));

    let new_ms = time_median(5, || Runtime::new(RuntimeConfig::default())) * 1e3;
    report.push("runtime.new_ms", new_ms, "ms", 5);

    let rt = Runtime::new(RuntimeConfig::default());
    let mut loads = Vec::new();
    for _ in 0..50 {
        for pool in &mix.pools {
            let t = Instant::now();
            let model = pool.load(&rt);
            loads.push(t.elapsed().as_secs_f64() * 1e6);
            tally.add(model.is_ok());
        }
    }
    report.push("runtime.load_model_us", median(&loads), "us", loads.len());

    // Snapshot cost on a runtime that has served the whole mix.
    let loaded = Loaded {
        models: mix
            .pools
            .iter()
            .map(|p| p.load(&rt).expect("valid model"))
            .collect(),
        rt,
    };
    let warm = client(&loaded, &mix, 1, 0.2, None);
    tally.merge(warm.tally);
    let snap_us = time_median(201, || loaded.rt.metrics_snapshot()) * 1e6;
    report.push("metrics.snapshot_us", snap_us, "us", 201);
    tally
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window(kind_p50_us: &[f64], kind_done: &[u64]) -> Window {
        Window {
            kind_p50_us: kind_p50_us.to_vec(),
            kind_done: kind_done.to_vec(),
            ..Window::default()
        }
    }

    #[test]
    fn steady_rate_takes_each_kind_at_its_median_over_windows() {
        let phase = Phase {
            windows: vec![
                window(&[10.0, 100.0], &[3, 1]),
                window(&[12.0, 900.0], &[3, 1]),
                window(&[11.0, 0.0], &[2, 0]),
                // A traced phase that ended early leaves windows unclosed.
                Window::default(),
            ],
            tally: Tally::default(),
        };
        let s = phase.steady(&[1_000, 50_000]);
        // Kind 0 at 11 µs × 8 requests, kind 1 at 500 µs × 2 requests.
        assert!((s.rps - 10.0 / 1_088.0 * 1e6).abs() < 1e-6, "{}", s.rps);
        let want = 108_000.0 / 1_088.0 / 1e3;
        assert!((s.gflops - want).abs() < 1e-12, "{}", s.gflops);
    }
}
