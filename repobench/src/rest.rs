//! The data-at-rest workloads: every engine joins one dataset through
//! `iawj_core::execute_on` on one shared executor.

use crate::spans::Spans;
use crate::stats::{median, Metrics, WindowLatency};
use crate::{Outcome, ENGINES, THREADS};
use iawj_common::{Phase, PhaseBreakdown};
use iawj_core::reference::match_count;
use iawj_core::{execute_on, RunConfig, RunResult};
use iawj_datagen::{debs, Dataset, MicroSpec};
use iawj_exec::Executor;
use iawj_obs::MARK_LATCH_WAIT;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Scale of the DEBS dataset of `rest-dupe`.
const DEBS_SCALE: f64 = 0.25;

/// Tuples per side of `rest-unique`.
const UNIQUE_N: usize = 250_000;

#[derive(Clone, Copy)]
pub enum Rest {
    /// `MicroSpec::static_counts(250k, 250k).dupe(1)`: one match per tuple.
    Unique,
    /// DEBS at scale 0.25: 25k ⋈ 250k with ~7M matches.
    Dupe,
}

fn generate(kind: Rest, seed: u64) -> Dataset {
    match kind {
        Rest::Unique => MicroSpec::static_counts(UNIQUE_N, UNIQUE_N)
            .dupe(1)
            .seed(seed)
            .generate(),
        Rest::Dupe => debs(DEBS_SCALE, seed),
    }
}

/// Set-up, timed: datagen plus the executor. Returns its wall seconds.
fn setup(kind: Rest, seed: u64, cfg: &RunConfig, spans: &mut Spans) -> (Dataset, Executor, f64) {
    let t0 = Instant::now();
    let ds = generate(kind, seed);
    spans.record("datagen", 0, t0);
    let t1 = Instant::now();
    let exec = cfg.make_executor();
    spans.record("exec.make_executor", 0, t1);
    (ds, exec, t0.elapsed().as_secs_f64())
}

/// The six phases as reported, in breakdown order.
const PHASE_NAMES: [(Phase, &str); 6] = [
    (Phase::Wait, "wait"),
    (Phase::Partition, "partition"),
    (Phase::BuildSort, "build_sort"),
    (Phase::Merge, "merge"),
    (Phase::Probe, "probe"),
    (Phase::Other, "other"),
];

/// Per-layer readings of one traced engine call.
struct Layers {
    phase_ms: [f64; 6],
    busy_frac: f64,
    imbalance: f64,
    latch_wait_per_1k: f64,
    dispatches: f64,
}

fn layers(r: &RunResult, wall: Duration, dispatches: u64) -> Layers {
    let ms = |b: &PhaseBreakdown, p: Phase| b[p] as f64 / 1e6;
    let busy: Vec<f64> = r.per_thread.iter().map(|b| b.busy_ns() as f64).collect();
    let mean = busy.iter().sum::<f64>() / busy.len().max(1) as f64;
    let max = busy.iter().copied().fold(0.0, f64::max);
    Layers {
        phase_ms: PHASE_NAMES.map(|(p, _)| ms(&r.breakdown, p)),
        busy_frac: r.breakdown.busy_ns() as f64
            / (wall.as_nanos() as f64 * r.threads.max(1) as f64),
        imbalance: if mean > 0.0 { max / mean } else { 0.0 },
        latch_wait_per_1k: r.count_marks(MARK_LATCH_WAIT) as f64 * 1e3 / r.total_inputs as f64,
        dispatches: dispatches as f64,
    }
}

pub fn run(kind: Rest, seed: u64, seconds: u64, spans: &mut Spans) -> Outcome {
    let cfg = RunConfig::with_threads(THREADS);
    let trace = spans.on();

    let (mut ds, mut exec, first_setup_s) = setup(kind, seed, &cfg, spans);
    let mut setup_s = vec![first_setup_s];
    let oracle = match_count(&ds.r, &ds.s, ds.window);
    let inputs = ds.total_inputs() as f64;

    let plain = cfg.clone();
    let journaled = cfg.clone().with_journal();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut tpms: Vec<Vec<f64>> = vec![Vec::new(); ENGINES.len()];
    let mut latency = WindowLatency::default();
    let mut traced: Vec<Vec<Layers>> = ENGINES.iter().map(|_| Vec::new()).collect();
    let mut round_ms = [Vec::new(), Vec::new()];

    // Whole rounds, one call per engine each, so every engine gets the same
    // number of samples. The traced run alternates untraced and traced
    // rounds; the difference is the tracing overhead.
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let mut round = 0usize;
    loop {
        // Set-up again at the start of every round, so `setup_s` is a
        // median over the whole run, not over a burst at its start. The
        // seed makes the dataset the same; only one is resident at a time.
        if round > 0 {
            drop((ds, exec));
            let s;
            (ds, exec, s) = setup(kind, seed, &cfg, spans);
            setup_s.push(s);
        }
        let journal = trace && !round.is_multiple_of(2);
        let rcfg = if journal { &journaled } else { &plain };
        let round_start = Instant::now();
        for (e, &(alg, _)) in ENGINES.iter().enumerate() {
            let gen0 = exec.generations();
            let t0 = Instant::now();
            let res = catch_unwind(AssertUnwindSafe(|| execute_on(alg, &ds, rcfg, &exec)));
            let wall = t0.elapsed();
            attempted += 1;
            let r = match res {
                Ok(r) if r.matches == oracle => r,
                _ => {
                    failed += 1;
                    continue;
                }
            };
            if journal {
                let id = spans.id();
                spans.record_as(id, "execute_on", 0, t0, t0 + wall);
                traced[e].push(layers(&r, wall, exec.generations() - gen0));
            } else {
                tpms[e].push(inputs / (wall.as_secs_f64() * 1e3));
                // At rest the whole dataset is one window, due at the call.
                latency.add(e, 0, wall.as_secs_f64() * 1e3);
            }
        }
        round_ms[journal as usize].push(round_start.elapsed().as_secs_f64() * 1e3);
        round += 1;
        if Instant::now() >= deadline && (!trace || round.is_multiple_of(2)) {
            break;
        }
    }

    let mut e2e = Metrics::default();
    let mut layer = Metrics::default();
    for (e, &(_, name)) in ENGINES.iter().enumerate() {
        e2e.median_of(format!("{name}.tpms"), "tuples/ms", &tpms[e]);
        let t = &traced[e];
        let col = |f: &dyn Fn(&Layers) -> f64| t.iter().map(f).collect::<Vec<f64>>();
        for (i, (_, phase)) in PHASE_NAMES.iter().enumerate() {
            layer.median_of(
                format!("run.{name}.{phase}_ms"),
                "ms",
                &col(&|l| l.phase_ms[i]),
            );
        }
        layer.median_of(
            format!("run.{name}.busy_frac"),
            "ratio",
            &col(&|l| l.busy_frac),
        );
        layer.median_of(
            format!("run.{name}.imbalance"),
            "ratio",
            &col(&|l| l.imbalance),
        );
        if name == "npj" {
            let v = col(&|l| l.latch_wait_per_1k);
            layer.median_of("run.npj.latch_wait_per_1k", "count", &v);
        }
    }
    let dispatches: Vec<f64> = traced.iter().flatten().map(|l| l.dispatches).collect();
    layer.median_of("exec.dispatch_per_run", "count", &dispatches);
    latency.report(&mut e2e);
    e2e.median_of("setup_s", "s", &setup_s);
    layer.median_of("datagen.gen_ms", "ms", &spans.durations_ms("datagen"));
    layer.median_of(
        "exec.provision_ms",
        "ms",
        &spans.durations_ms("exec.make_executor"),
    );
    if trace {
        let overhead = median(&round_ms[1]) / median(&round_ms[0]) - 1.0;
        layer.value("trace.overhead_frac", "ratio", overhead, round_ms[1].len());
    }
    Outcome {
        attempted,
        failed,
        e2e,
        layer,
    }
}
