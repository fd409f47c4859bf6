//! The streaming workloads: every engine runs behind
//! `StreamingJoin::run`, fed by one load-generator thread.

use crate::spans::Spans;
use crate::stats::{median, quantile, Metrics, WindowLatency};
use crate::{Outcome, ENGINES, THREADS};
use iawj_common::{stream_channel, Rate, StreamSender, Ts, Tuple, Window};
use iawj_core::reference::match_count;
use iawj_core::windowing::{windows_for, WindowSpec};
use iawj_core::{Algorithm, ClosedWindow, RunConfig, StreamConfig, StreamingJoin};
use iawj_datagen::rate_stream;
use iawj_obs::{MARK_INDEX_EVICT, MARK_INDEX_INSERT};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// One streaming workload's shape.
pub struct Serve {
    spec: WindowSpec,
    /// Tuples per stream ms on each side.
    rate: f64,
    duration_ms: u32,
    keys: u32,
    /// The open-loop run: its engine and the tuples (both sides together)
    /// it sends per wall ms. With one, window latency and the stream
    /// layers come from it; without, from the closed-loop runs.
    paced: Option<(Algorithm, f64)>,
}

/// Closed loop through backpressure: the operator limits throughput.
pub const SATURATE: Serve = Serve {
    spec: WindowSpec::Tumbling { len_ms: 50 },
    rate: 400.0,
    duration_ms: 1000,
    keys: 1 << 20,
    paced: None,
};

/// Open loop well below saturation: window latency under load on the
/// persistent index. The pace is ~1/5 of this geometry's IBWJ capacity:
/// at ~1/3 a neighbour taking part of a core on a 2-core host already
/// saturates the operator and the latency tail grows tenfold.
pub const PACED: Serve = Serve {
    spec: WindowSpec::Sliding {
        len_ms: 100,
        slide_ms: 10,
    },
    rate: 100.0,
    // Half a second of stream: twice the runs per measured second, for
    // steadier medians, and still ~40 windows closed by the watermark.
    duration_ms: 500,
    keys: 2000,
    paced: Some((Algorithm::Ibwj, 250.0)),
};

/// Open-loop runs per round: window latency needs more samples than the
/// throughput medians do.
const PACED_RUNS: usize = 3;

/// Ingress queue capacity of closed-loop runs (`iawj serve`'s default).
const CLOSED_QUEUE_CAP: usize = 1024;

/// Ingress queue capacity of the open-loop run: ~65 ms of one side's
/// traffic, so a short preemption of the operator does not fill it but a
/// backlog that keeps growing does.
const PACED_QUEUE_CAP: usize = 1 << 14;

/// Shortest sleep of the paced generator, in ms.
const PACE_TICK_MS: f64 = 0.1;

/// A paced run whose generator ran later than this at p95 did not apply
/// the load it claims, so its latencies are not reported as valid.
const LAG_P95_LIMIT_MS: f64 = 10.0;

/// The generated streams plus everything the checks need, computed once
/// outside the timed region.
struct Input {
    r: Vec<Tuple>,
    s: Vec<Tuple>,
    /// Expected window and match count by window start.
    expect: HashMap<Ts, (Window, u64, Option<usize>)>,
    /// Position in the merged send order of each window's trigger: the
    /// tuple after which the watermark has passed the window's end.
    trigger_pos: Vec<usize>,
}

fn streams(w: &Serve, seed: u64) -> (Vec<Tuple>, Vec<Tuple>) {
    let rate = Rate::PerMs(w.rate);
    let r = rate_stream(
        rate,
        w.duration_ms,
        w.keys,
        seed.wrapping_mul(2).wrapping_add(1),
    );
    let s = rate_stream(
        rate,
        w.duration_ms,
        w.keys,
        seed.wrapping_mul(2).wrapping_add(2),
    );
    (r, s)
}

/// Merge order of the generator: by timestamp, R first on ties.
fn merged_pos_r(s: &[Tuple], j: usize, ts: Ts) -> usize {
    j + s.partition_point(|t| t.ts < ts)
}

fn merged_pos_s(r: &[Tuple], k: usize, ts: Ts) -> usize {
    k + r.partition_point(|t| t.ts <= ts)
}

fn oracle(w: &Serve, r: Vec<Tuple>, s: Vec<Tuple>) -> Input {
    let mut expect = HashMap::new();
    let mut trigger_pos = Vec::new();
    for win in windows_for(w.spec, &r, &s) {
        let slice = |v: &[Tuple]| {
            let a = v.partition_point(|t| t.ts < win.start);
            let b = v.partition_point(|t| t.ts < win.end());
            (a, b)
        };
        let (ra, rb) = slice(&r);
        let (sa, sb) = slice(&s);
        let matches = match_count(&r[ra..rb], &s[sa..sb], win);
        // The watermark is min(max R ts, max S ts): it passes `end` once
        // both sides have sent a tuple with ts >= end. Windows without such
        // a tuple on some side close in the end-of-stream flush.
        let trigger = (rb < r.len() && sb < s.len()).then(|| {
            let pos = merged_pos_r(&s, rb, r[rb].ts).max(merged_pos_s(&r, sb, s[sb].ts));
            trigger_pos.push(pos);
            trigger_pos.len() - 1
        });
        expect.insert(win.start, (win, matches, trigger));
    }
    Input {
        r,
        s,
        expect,
        trigger_pos,
    }
}

/// What the generator thread observed over one run.
struct GenOut {
    sent: u64,
    blocked_sends: u64,
    lag_ms: Vec<f64>,
    spans: Spans,
}

/// The single-thread load generator: merges R and S by timestamp into the
/// two bounded queues. Paced, it sends tuple `i` no earlier than `i / pace`
/// wall ms and records how late it ran; unpaced, it sends as fast as the
/// queues accept. It publishes each window trigger's start time (ns since
/// `start`, the due time when paced) before sending the trigger tuple.
#[allow(clippy::too_many_arguments)]
fn generate(
    input: &Input,
    tx_r: StreamSender<Tuple>,
    tx_s: StreamSender<Tuple>,
    pace: Option<f64>,
    trigger_at: &[AtomicU64],
    start: Instant,
    spans: Spans,
    parent: u64,
) -> GenOut {
    let (r, s) = (&input.r, &input.s);
    let mut out = GenOut {
        sent: 0,
        blocked_sends: 0,
        lag_ms: Vec::with_capacity(if pace.is_some() { r.len() + s.len() } else { 0 }),
        spans,
    };
    let (mut i, mut j, mut next_trigger) = (0usize, 0usize, 0usize);
    while i < r.len() || j < s.len() {
        let pos = i + j;
        let mut now = Instant::now();
        let mut at_ns = 0;
        if let Some(pace) = pace {
            let due_ms = pos as f64 / pace;
            loop {
                let ahead = due_ms - now.duration_since(start).as_secs_f64() * 1e3;
                if ahead <= 0.0 {
                    out.lag_ms.push(-ahead);
                    break;
                }
                // Sleep rather than spin: on two cores a spinning generator
                // takes a core from the operator. Tuples that fall due
                // while it sleeps go out back to back when it wakes.
                std::thread::sleep(Duration::from_secs_f64(ahead.max(PACE_TICK_MS) / 1e3));
                now = Instant::now();
            }
            at_ns = (due_ms * 1e6) as u64;
        }
        while input.trigger_pos.get(next_trigger) == Some(&pos) {
            if pace.is_none() {
                at_ns = now.duration_since(start).as_nanos() as u64;
            }
            // The queue's lock orders this store before the operator
            // receives the trigger tuple, so the reader needs no more.
            trigger_at[next_trigger].store(at_ns.max(1), Ordering::Relaxed);
            next_trigger += 1;
        }
        let take_r = j >= s.len() || (i < r.len() && r[i].ts <= s[j].ts);
        let (tx, t) = if take_r {
            i += 1;
            (&tx_r, r[i - 1])
        } else {
            j += 1;
            (&tx_s, s[j - 1])
        };
        match tx.send(t) {
            Ok(blocked) => {
                if blocked {
                    out.blocked_sends += 1;
                    out.spans.record("gen.send_blocked", parent, now);
                }
            }
            Err(_) => break,
        }
        out.sent += 1;
    }
    out
}

/// What one operator run observed.
struct RunOut {
    wall_ms: f64,
    ingested: u64,
    bad_windows: u64,
    windows: u64,
    late: u64,
    invalid: bool,
    /// (window start, latency) of each window that closed by watermark.
    latency_ms: Vec<(Ts, f64)>,
    wait_ms: Vec<f64>,
    close_ms: Vec<f64>,
    gen: GenOut,
    send_blocked_ms: f64,
    peak_queue_depth: usize,
    peak_resident_panes: usize,
    engine_runs: u64,
    index_inserts: usize,
    index_evicts: usize,
}

/// One operator run over the whole input: closed loop, or open loop at
/// `pace` tuples per wall ms.
fn run_once(
    input: &Input,
    op: StreamingJoin,
    pace: Option<f64>,
    spans: &mut Spans,
    run_id: u64,
) -> RunOut {
    let queue_cap = if pace.is_some() {
        PACED_QUEUE_CAP
    } else {
        CLOSED_QUEUE_CAP
    };
    let (tx_r, rx_r) = stream_channel(queue_cap);
    let (tx_s, rx_s) = stream_channel(queue_cap);
    let trigger_at: Vec<AtomicU64> = input
        .trigger_pos
        .iter()
        .map(|_| AtomicU64::new(0))
        .collect();
    let gen_spans = spans.child(run_id << 32);
    let (mut latency_ms, mut wait_ms, mut close_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut bad, mut seen) = (0u64, 0u64);
    let start = Instant::now();
    let (report, gen) = std::thread::scope(|sc| {
        let gen = sc.spawn(|| {
            generate(
                input,
                tx_r,
                tx_s,
                pace,
                &trigger_at,
                start,
                gen_spans,
                run_id,
            )
        });
        let on_window = |cw: &ClosedWindow| {
            let now = Instant::now();
            seen += 1;
            let expected = input.expect.get(&cw.window.start);
            if expected.map(|&(win, m, _)| (win, m)) != Some((cw.window, cw.matches)) {
                bad += 1;
            }
            close_ms.push(cw.join_wall_ms);
            if let (false, Some(&(_, _, Some(k)))) = (cw.flushed_at_end(), expected) {
                let at = trigger_at[k].load(Ordering::Relaxed);
                if at > 0 {
                    let due = start + Duration::from_nanos(at);
                    let lat = now.saturating_duration_since(due).as_secs_f64() * 1e3;
                    latency_ms.push((cw.window.start, lat));
                    wait_ms.push(lat - cw.join_wall_ms);
                    let id = spans.id();
                    spans.record_as(id, "window.latency", run_id, due, now);
                }
            }
            spans.record("on_window", run_id, now);
        };
        let report = op.run(rx_r, rx_s, on_window, |_| {});
        (report, gen.join().expect("load generator panicked"))
    });
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let expected = input.expect.len() as u64;
    bad += expected.abs_diff(seen);
    let lag_p95 = quantile(&gen.lag_ms, 0.95);
    RunOut {
        wall_ms,
        ingested: report.ingested_r + report.ingested_s,
        bad_windows: bad,
        windows: expected,
        late: report.late_dropped,
        invalid: gen.sent != (input.r.len() + input.s.len()) as u64
            || (pace.is_some()
                && (report.peak_queue_depth >= queue_cap || lag_p95 > LAG_P95_LIMIT_MS)),
        latency_ms,
        wait_ms,
        close_ms,
        send_blocked_ms: gen.spans.durations_ms("gen.send_blocked").iter().sum(),
        gen,
        peak_queue_depth: report.peak_queue_depth,
        peak_resident_panes: report.peak_resident_panes,
        engine_runs: report.engine_runs,
        index_inserts: report.count_marks(MARK_INDEX_INSERT),
        index_evicts: report.count_marks(MARK_INDEX_EVICT),
    }
}

fn operator(w: &Serve, alg: Algorithm, run: &RunConfig) -> StreamingJoin {
    StreamingJoin::new(
        StreamConfig::new(w.spec, alg)
            .run_config(run.clone())
            .tick_every_ms(0.0),
    )
}

pub fn run(w: &Serve, seed: u64, seconds: u64, spans: &mut Spans) -> Outcome {
    let trace = spans.on();
    let plain = RunConfig::with_threads(THREADS);
    // The operator's own journal holds the index:* marks; size it so one
    // traced run's marks are all retained.
    let mut journaled = plain.clone();
    journaled.journal_capacity = 1 << 17;

    // Set-up, timed: datagen plus one operator per engine (each provisions
    // its executor). Returns the streams and its wall seconds.
    let setup = |spans: &mut Spans| {
        let t0 = Instant::now();
        let (r, s) = streams(w, seed);
        spans.record("datagen", 0, t0);
        for &(alg, _) in ENGINES.iter() {
            let t1 = Instant::now();
            drop(operator(w, alg, &plain));
            spans.record("StreamingJoin::new", 0, t1);
        }
        (r, s, t0.elapsed().as_secs_f64())
    };
    let (r, s, first_setup_s) = setup(spans);
    let mut setup_s = vec![first_setup_s];
    let mut input = oracle(w, r, s);

    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut tpms: Vec<Vec<f64>> = vec![Vec::new(); ENGINES.len()];
    let mut latency = WindowLatency::default();
    let mut traced: Vec<RunOut> = Vec::new();
    let mut round_ms = [Vec::new(), Vec::new()];

    let deadline = Instant::now() + Duration::from_secs(seconds);
    let mut round = 0usize;
    loop {
        // Set-up again at the start of every round, as at rest. The seed
        // makes the streams the same, so the oracle still holds.
        if round > 0 {
            input.r = Vec::new();
            input.s = Vec::new();
            let secs;
            (input.r, input.s, secs) = setup(spans);
            setup_s.push(secs);
        }
        let journal = trace && !round.is_multiple_of(2);
        let rcfg = if journal { &journaled } else { &plain };
        let round_start = Instant::now();
        // One closed-loop run per engine, then the open-loop runs if any.
        let paced = w.paced.map(|(alg, pace)| (None, alg, Some(pace)));
        let legs = ENGINES
            .iter()
            .enumerate()
            .map(|(e, &(alg, _))| (Some(e), alg, None))
            .chain(std::iter::repeat_n(paced, PACED_RUNS).flatten());
        for (e, alg, pace) in legs {
            let latency_leg = pace.is_some() || w.paced.is_none();
            let run_id = spans.id();
            let t0 = Instant::now();
            let op = operator(w, alg, rcfg);
            if journal {
                spans.record("StreamingJoin::new", run_id, t0);
            }
            let mut scratch = Spans::new(false, t0);
            let sp = if journal { &mut *spans } else { &mut scratch };
            let t1 = Instant::now();
            let res = catch_unwind(AssertUnwindSafe(|| run_once(&input, op, pace, sp, run_id)));
            attempted += 1;
            let mut out = match res {
                Ok(out) => out,
                Err(_) => {
                    failed += 1;
                    continue;
                }
            };
            attempted += out.windows;
            failed += out.bad_windows + out.late;
            if out.invalid {
                failed += 1;
            }
            if journal {
                let end = t1 + Duration::from_secs_f64(out.wall_ms / 1e3);
                spans.record_as(run_id, "StreamingJoin::run", 0, t1, end);
                let gen_spans = std::mem::replace(&mut out.gen.spans, Spans::new(false, t1));
                spans.absorb(gen_spans);
                if latency_leg {
                    traced.push(out);
                }
                continue;
            }
            if let Some(e) = e {
                tpms[e].push(out.ingested as f64 / out.wall_ms);
            }
            if latency_leg {
                let run = e.unwrap_or(ENGINES.len());
                for &(start, ms) in &out.latency_ms {
                    latency.add(run, start, ms);
                }
            }
        }
        round_ms[journal as usize].push(round_start.elapsed().as_secs_f64() * 1e3);
        round += 1;
        if Instant::now() >= deadline && (!trace || round.is_multiple_of(2)) {
            break;
        }
    }

    let mut e2e = Metrics::default();
    for (e, &(_, name)) in ENGINES.iter().enumerate() {
        e2e.median_of(format!("{name}.tpms"), "tuples/ms", &tpms[e]);
    }
    latency.report(&mut e2e);
    e2e.median_of("setup_s", "s", &setup_s);

    let mut layer = Metrics::default();
    let per_run = |f: &dyn Fn(&RunOut) -> f64| traced.iter().map(f).collect::<Vec<f64>>();
    let pooled = |f: &dyn Fn(&RunOut) -> &Vec<f64>| {
        traced
            .iter()
            .flat_map(|o| f(o).iter().copied())
            .collect::<Vec<f64>>()
    };
    layer.median_of(
        "gen.send_blocked_ms",
        "ms",
        &per_run(&|o| o.send_blocked_ms),
    );
    layer.median_of(
        "gen.blocked_sends",
        "count",
        &per_run(&|o| o.gen.blocked_sends as f64),
    );
    layer.median_of(
        "gen.lag_p95_ms",
        "ms",
        &per_run(&|o| quantile(&o.gen.lag_ms, 0.95)),
    );
    layer.median_of(
        "gen.lag_max_ms",
        "ms",
        &per_run(&|o| o.gen.lag_ms.iter().copied().fold(0.0, f64::max)),
    );
    layer.median_of(
        "stream.ingest_ns_per_tuple",
        "ns",
        &per_run(&|o| (o.wall_ms - o.close_ms.iter().sum::<f64>()) * 1e6 / o.ingested as f64),
    );
    let closes = pooled(&|o| &o.close_ms);
    layer.median_of("stream.close_p50_ms", "ms", &closes);
    layer.value(
        "stream.close_p95_ms",
        "ms",
        quantile(&closes, 0.95),
        closes.len(),
    );
    layer.median_of(
        "stream.close_total_ms",
        "ms",
        &per_run(&|o| o.close_ms.iter().sum()),
    );
    layer.median_of("stream.window_wait_p50_ms", "ms", &pooled(&|o| &o.wait_ms));
    layer.median_of(
        "stream.peak_queue_depth",
        "count",
        &per_run(&|o| o.peak_queue_depth as f64),
    );
    layer.median_of(
        "stream.peak_resident_panes",
        "count",
        &per_run(&|o| o.peak_resident_panes as f64),
    );
    layer.median_of(
        "stream.engine_runs",
        "count",
        &per_run(&|o| o.engine_runs as f64),
    );
    layer.median_of(
        "stream.index_inserts",
        "count",
        &per_run(&|o| o.index_inserts as f64),
    );
    layer.median_of(
        "stream.index_evicts",
        "count",
        &per_run(&|o| o.index_evicts as f64),
    );
    layer.median_of("datagen.gen_ms", "ms", &spans.durations_ms("datagen"));
    layer.median_of(
        "exec.provision_ms",
        "ms",
        &spans.durations_ms("StreamingJoin::new"),
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
