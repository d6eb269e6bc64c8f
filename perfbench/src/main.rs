//! The repository benchmark: one command, four named workloads, every
//! output checked against the `kron_matmul_shuffle` oracle.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve-seq --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the
//! workload half untraced and half traced, then probes each layer, and
//! prints the per-layer metrics. The last line of standard output is one
//! JSON object; the lines above it are a readable table with sample
//! counts. The command exits 1 if any output was wrong or any call
//! returned an error, and 2 on bad arguments. See `README.md` for the
//! workloads, the metrics and the layers they belong to.

mod chain;
mod host;
mod inputs;
mod report;
mod serve;
mod spans;
mod stats;

use report::{Report, Tally};
use spans::Recorder;
use std::process::ExitCode;
use std::time::Instant;

/// The workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 2] = ["chain-fig9", "serve-seq"];

/// Rounds chain-fig9 makes over the Figure 9 grid.
const CHAIN_ROUNDS: usize = 6;
/// Spans kept in memory per second of `--seconds`. serve-seq traces half
/// the run at about 170k spans per second on a 2-core x86 host, so this
/// leaves room for a host over four times as fast. A traced phase that
/// still fills the store ends early (see `serve::client`), and a dropped
/// span fails the run.
const SPANS_PER_SEC: f64 = 400_000.0;
/// Spans written to the trace file per traced run.
const SPANS_WRITTEN: usize = 100_000;

/// Command-line arguments.
pub struct Args {
    workload: String,
    /// Seed all inputs are generated from.
    pub seed: u64,
    /// Seconds of measurement.
    pub seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(args)
}

/// End-to-end run: the workload with tracing off.
fn end_to_end(args: &Args, report: &mut Report) {
    match args.workload.as_str() {
        "serve-seq" => serve::run(args, report),
        _ => {
            let mut tally = Tally::default();
            let plan = chain::GridPlan {
                slot_secs: args.seconds / inputs::FIG9_GRID.len() as f64,
                rounds: CHAIN_ROUNDS,
                probes: false,
            };
            let runs = chain::run_grid(args.seed, &plan, None, &mut tally);
            chain::report_end_to_end(&runs, report);
            report.tally(tally.attempted, tally.failed);
        }
    }
    report.push("peak_rss_mb", host::peak_rss_mb(), "MB", 1);
}

/// Traced run: the workload half untraced and half traced, then every
/// layer probe. Spans go to `<target dir>/perfbench-spans/`.
fn traced(args: &Args, report: &mut Report) {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut rec = Recorder::new(
        Instant::now(),
        (args.seconds * SPANS_PER_SEC) as usize + (1 << 16),
    );
    let mut tally = Tally::default();
    // chain-fig9's own grid run carries the exec probes; serve-seq makes a
    // short one after its workload.
    let chain_runs = match args.workload.as_str() {
        "serve-seq" => {
            tally.merge(serve::run_traced(args, report, &mut rec));
            None
        }
        _ => {
            let plan = chain::GridPlan {
                slot_secs: args.seconds / 2.0 / inputs::FIG9_GRID.len() as f64,
                rounds: CHAIN_ROUNDS,
                probes: true,
            };
            let runs = chain::run_grid(args.seed, &plan, Some(&mut rec), &mut tally);
            report.push(
                "trace.overhead_frac",
                chain::trace_overhead(&runs),
                "frac",
                runs.len(),
            );
            serve::report_no_runtime(report);
            Some(runs)
        }
    };
    let op_self = rec.self_times_us("op");
    report.push(
        "trace.op_self_us",
        stats::median(&op_self),
        "us",
        op_self.len(),
    );

    // Layer probes shared by every workload.
    let runs = chain_runs.unwrap_or_else(|| {
        let plan = chain::GridPlan {
            slot_secs: 0.05,
            rounds: 1,
            probes: true,
        };
        chain::run_grid(args.seed, &plan, None, &mut tally)
    });
    let (fma_1c, fma_all) = host::fma_peak(threads, 5, 0.1);
    report.push("host.fma_gflops_1c", fma_1c, "GFLOP/s", 5);
    report.push("host.fma_gflops_all", fma_all, "GFLOP/s", 5);
    chain::report_layers(&runs, threads, fma_all, report);
    tally.merge(serve::layer_probes(args.seed, report));
    tally.add(rec.dropped() == 0);
    report.tally(tally.attempted, tally.failed);
    report.push(
        "fail_frac",
        stats::ratio(tally.failed as f64, tally.attempted as f64),
        "frac",
        tally.attempted as usize,
    );

    let dir = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "perfbench/target".into());
    let path = std::path::Path::new(&dir)
        .join("perfbench-spans")
        .join(format!("{}-seed{}.jsonl", args.workload, args.seed));
    match rec.write_jsonl(&path, SPANS_WRITTEN) {
        Ok(()) => println!(
            "# spans: {} recorded, {} dropped, first {} written to {}",
            rec.spans().len(),
            rec.dropped(),
            rec.spans().len().min(SPANS_WRITTEN),
            path.display()
        ),
        Err(e) => eprintln!(
            "perfbench: could not write spans to {}: {e}",
            path.display()
        ),
    }
    println!(
        "# host: {threads} threads, FMA probe on {}; flops per byte are computed from shapes, not measured",
        host::fma_isa()
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut report = Report::default();
    if args.trace {
        traced(&args, &mut report);
    } else {
        end_to_end(&args, &mut report);
    }
    print!("{}", report.table());
    println!("{}", report.json());
    if report.failed() > 0 {
        eprintln!(
            "perfbench: {} operations failed their checks",
            report.failed()
        );
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::WORKLOADS;

    #[test]
    fn benchmark_json_lists_the_workloads() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let listed = json.matches("\"why\"").count();
        assert_eq!(listed, WORKLOADS.len(), "one `why` per workload");
        for w in WORKLOADS {
            assert!(json.contains(&format!("\"name\": \"{w}\"")), "{w} missing");
        }
    }
}
