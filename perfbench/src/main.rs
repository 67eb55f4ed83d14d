//! `perfbench` — the repository benchmark. One seeded run of one
//! workload prints every end-to-end metric (or, with `--trace 1`, every
//! per-layer metric) by name and unit, checks the program's outputs, and
//! ends with a one-line JSON result.
//!
//! ```text
//! perfbench --workload sweep-sim|sweep-bo|serve-open|all --seed N --seconds S --trace 0|1
//!           [--aarc PATH] [--run-dir DIR]
//! ```
//!
//! Run it through `perfbench/run.sh` from the repository root, which
//! builds this package and the `aarc` binary first.

mod digest;
mod gen;
mod http;
mod procfs;
mod prom;
mod report;
mod serve;
mod stats;
mod sweep;
mod trace;

use std::path::PathBuf;

use report::Report;

/// The end-to-end metrics every untraced run prints.
const END_TO_END: [(&str, &str); 7] = [
    ("searches_per_s", "1/s"),
    ("search_ms_p50", "ms"),
    ("search_ms_p90", "ms"),
    ("req_ms_p50", "ms"),
    ("req_ms_p99", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics every traced run prints.
const PER_LAYER: [(&str, &str); 35] = [
    ("spec.compile_us", "us"),
    ("driver.rounds_per_search", "count"),
    ("strategy.ask_share", "ratio"),
    ("strategy.tell_share", "ratio"),
    ("strategy.ask_us_per_round", "us"),
    ("strategy.tell_us_per_round", "us"),
    ("eval.share", "ratio"),
    ("eval.probe_us_p50", "us"),
    ("eval.batch_us_per_candidate", "us"),
    ("eval.requests_per_search", "count"),
    ("eval.hit_ratio", "ratio"),
    ("eval.evictions", "count"),
    ("eval.dedup_hits", "count"),
    ("kernel.us_per_sim", "us"),
    ("kernel.sims", "count"),
    ("kernel.incremental_ratio", "ratio"),
    ("kernel.relaxed_ratio", "ratio"),
    ("kernel.reused_nodes_per_sim", "count"),
    ("kernel.slab_allocs_per_sim", "count"),
    ("http.start_ms_p50", "ms"),
    ("http.status_ms_p50", "ms"),
    ("http.report_ms_p50", "ms"),
    ("http.upload_ms_p50", "ms"),
    ("http.validate_ms_p50", "ms"),
    ("http.server_ms_p50", "ms"),
    ("http.server_ms_p99", "ms"),
    ("http.outside_ms_p50", "ms"),
    ("scheduler.busy_share", "ratio"),
    ("scheduler.step_ms_p99", "ms"),
    ("persist.wal_ms", "ms"),
    ("persist.checkpoint_writes", "count"),
    ("proc.cpu_ms_per_search", "ms"),
    ("gen.lag_ms_p99", "ms"),
    ("gen.backlog_end", "count"),
    ("trace.overhead_ratio", "ratio"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    aarc: PathBuf,
    run_dir: PathBuf,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        aarc: PathBuf::from("target/release/aarc"),
        run_dir: PathBuf::from(".bench_run"),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value.to_owned(),
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--aarc" => args.aarc = PathBuf::from(value),
            "--run-dir" => args.run_dir = PathBuf::from(value),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds.is_finite()) {
        return Err(format!("--seconds must be positive (got {})", args.seconds));
    }
    Ok(args)
}

/// Checks the report holds exactly the metric set of its mode. A
/// per-layer metric of a layer the workload does not pass through is
/// reported as 0 and named in a note.
fn complete(report: &mut Report, trace: bool) {
    let expected: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let mut absent = Vec::new();
    for &(name, unit) in expected {
        if !report.metrics.iter().any(|m| m.name == name) {
            if trace {
                absent.push(name);
                report.metric(name, 0.0, unit, None);
            } else {
                report.problem(format!("end-to-end metric {name} was not measured"));
            }
        }
    }
    if !absent.is_empty() {
        report.note(format!(
            "reported as 0, not on this workload's path or not observable from outside: {}",
            absent.join(", ")
        ));
    }
    report
        .metrics
        .retain(|m| expected.iter().any(|&(name, _)| name == m.name));
    report
        .metrics
        .sort_by_key(|m| expected.iter().position(|&(name, _)| name == m.name));
}

/// The workloads, in the order `--workload all` runs them.
const WORKLOADS: [&str; 3] = ["sweep-sim", "sweep-bo", "serve-open"];

/// Runs one workload and returns its completed report.
fn run_workload(args: &Args, workload: &str) -> Result<Report, String> {
    let trace_path = args.trace.then(|| {
        args.run_dir
            .join(format!("trace-{workload}-seed{}.json", args.seed))
    });
    let mut report = Report::default();
    let trace = trace_path.as_deref();
    match workload {
        "sweep-sim" => sweep::run(
            sweep::Sweep::Sim,
            args.seed,
            args.seconds,
            trace,
            &mut report,
        ),
        "sweep-bo" => sweep::run(
            sweep::Sweep::Bo,
            args.seed,
            args.seconds,
            trace,
            &mut report,
        ),
        "serve-open" => serve::run(
            &serve::Options {
                aarc: args.aarc.clone(),
                run_dir: args.run_dir.clone(),
                seed: args.seed,
                seconds: args.seconds,
            },
            trace,
            &mut report,
        ),
        other => Err(format!(
            "unknown workload `{other}` ({} or all)",
            WORKLOADS.join(", ")
        )),
    }?;
    complete(&mut report, args.trace);
    Ok(report)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.run_dir) {
        eprintln!("perfbench: {}: {e}", args.run_dir.display());
        std::process::exit(1);
    }
    let workloads: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut all_correct = true;
    for workload in workloads {
        match run_workload(&args, workload) {
            Ok(report) => {
                all_correct &= report.correct();
                print!(
                    "{}",
                    report.text(&format!(
                        "perfbench {workload} seed={} seconds={} trace={} nproc={threads}",
                        args.seed,
                        args.seconds,
                        u8::from(args.trace)
                    ))
                );
                println!("{}", report.json());
            }
            Err(e) => {
                // No result line: the run could not measure anything.
                eprintln!("perfbench: {workload}: {e}");
                std::process::exit(1);
            }
        }
    }
    if args.workload == "all" && !all_correct {
        std::process::exit(1);
    }
}
