//! End-to-end and per-layer benchmark of the two iawj entry points:
//! `iawj_core::execute_on` (behind `iawj run`) and `StreamingJoin::run`
//! (behind `iawj serve`). See `repobench/README.md` for the workloads, the
//! metrics and which layer metric is expected to move which end-to-end
//! metric.
//!
//! ```text
//! repobench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--trace-dir <dir>]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. The exit code
//! is non-zero when any result disagreed with the oracle.

mod rest;
mod serve;
mod spans;
mod stats;

use iawj_core::Algorithm;
use spans::Spans;
use stats::Metrics;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// Worker threads of every engine run (program defaults otherwise).
pub const THREADS: usize = 2;

/// The engines measured on every workload, one per data plane: shared
/// hash table, radix partition, sort/merge, join-matrix eager drive and
/// window index.
pub const ENGINES: [(Algorithm, &str); 5] = [
    (Algorithm::Npj, "npj"),
    (Algorithm::Prj, "prj"),
    (Algorithm::MWay, "mway"),
    (Algorithm::ShjJm, "shj_jm"),
    (Algorithm::Ibwj, "ibwj"),
];

pub const WORKLOADS: [&str; 4] = ["rest-unique", "rest-dupe", "serve-saturate", "serve-paced"];

/// End-to-end metrics every untraced run reports.
fn e2e_names() -> Vec<String> {
    let mut v: Vec<String> = ENGINES.iter().map(|(_, e)| format!("{e}.tpms")).collect();
    v.extend(["window_p50_ms", "window_p95_ms", "setup_s", "peak_rss_mb"].map(String::from));
    v
}

/// Per-layer metrics every traced run reports; a layer the workload does
/// not exercise reads 0.
fn layer_names() -> Vec<String> {
    let mut v: Vec<String> = [
        "datagen.gen_ms",
        "exec.provision_ms",
        "exec.dispatch_per_run",
        "run.npj.latch_wait_per_1k",
        "gen.send_blocked_ms",
        "gen.blocked_sends",
        "gen.lag_p95_ms",
        "gen.lag_max_ms",
        "stream.ingest_ns_per_tuple",
        "stream.close_p50_ms",
        "stream.close_p95_ms",
        "stream.close_total_ms",
        "stream.window_wait_p50_ms",
        "stream.peak_queue_depth",
        "stream.peak_resident_panes",
        "stream.engine_runs",
        "stream.index_inserts",
        "stream.index_evicts",
        "trace.overhead_frac",
    ]
    .map(String::from)
    .to_vec();
    for (_, e) in ENGINES {
        for m in ["wait", "partition", "build_sort", "merge", "probe", "other"] {
            v.push(format!("run.{e}.{m}_ms"));
        }
        v.push(format!("run.{e}.busy_frac"));
        v.push(format!("run.{e}.imbalance"));
    }
    v
}

/// The unit of a per-layer metric, from its name.
pub fn layer_unit(name: &str) -> &'static str {
    if name.ends_with("_ms") {
        "ms"
    } else if name.ends_with("_ns_per_tuple") {
        "ns"
    } else if name.ends_with("_frac") || name.ends_with(".imbalance") {
        "ratio"
    } else {
        "count"
    }
}

/// What one workload run produced.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub e2e: Metrics,
    pub layer: Metrics,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    trace_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        trace_dir: PathBuf::from(".bench_build/repobench-trace"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {val}: expected {what}");
        match flag.as_str() {
            "--workload" => args.workload = val,
            "--seed" => args.seed = val.parse().map_err(|_| bad("an integer"))?,
            "--seconds" => args.seconds = val.parse().map_err(|_| bad("whole seconds"))?,
            "--trace" => {
                args.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--trace-dir" => args.trace_dir = PathBuf::from(val),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload {:?}: expected one of {}",
            args.workload,
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let mut spans = Spans::new(args.trace, Instant::now());
    let (seed, secs) = (args.seed, args.seconds.max(1));
    let out = match args.workload.as_str() {
        "rest-unique" => rest::run(rest::Rest::Unique, seed, secs, &mut spans),
        "rest-dupe" => rest::run(rest::Rest::Dupe, seed, secs, &mut spans),
        "serve-saturate" => serve::run(&serve::SATURATE, seed, secs, &mut spans),
        _ => serve::run(&serve::PACED, seed, secs, &mut spans),
    };
    let mut metrics = if args.trace {
        let mut m = out.layer;
        for name in layer_names() {
            m.default_zero(&name, layer_unit(&name));
        }
        m.assert_names(&layer_names());
        let path = args
            .trace_dir
            .join(format!("{}-seed{}.spans.jsonl", args.workload, args.seed));
        match spans.write_jsonl(&path) {
            Ok(()) => println!("spans: {}", path.display()),
            Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
        }
        m
    } else {
        out.e2e
    };
    if !args.trace {
        metrics.value("peak_rss_mb", "MB", stats::peak_rss_mb(), 1);
        metrics.assert_names(&e2e_names());
    }
    let correct = out.failed == 0;
    println!(
        "host: nproc={} git_sha={} counter_source=none workload={} seed={} trace={}",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        std::env::var("REPOBENCH_GIT_SHA").unwrap_or_else(|_| "unknown".into()),
        args.workload,
        args.seed,
        args.trace as u8,
    );
    print!("{}", metrics.table());
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.attempted,
        out.failed,
        metrics.json()
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The result line must carry exactly the names `BENCHMARK.json`
    /// declares.
    #[test]
    fn declared_names_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        let mut declared: Vec<&str> = json
            .split("\"name\": \"")
            .skip(1)
            .filter_map(|s| s.split('"').next())
            .collect();
        let mut ours: Vec<String> = WORKLOADS.map(String::from).to_vec();
        ours.extend(e2e_names());
        ours.extend(layer_names());
        declared.sort_unstable();
        ours.sort_unstable();
        assert_eq!(declared, ours);
    }
}
