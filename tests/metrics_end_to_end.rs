//! End-to-end metric structure: the three §4.1 metrics and the §5.3
//! breakdown must come out well-formed for every algorithm on streaming
//! and static inputs.

use iawj_study::common::{Phase, PHASES};
use iawj_study::core::metrics::{latency_quantile_ms, progressiveness, time_to_fraction_ms};
use iawj_study::core::output::aggregate_mem_curve;
use iawj_study::core::{execute, Algorithm, RunConfig};
use iawj_study::datagen::MicroSpec;

fn streaming_ds() -> iawj_study::datagen::Dataset {
    MicroSpec::with_rates(8.0, 8.0).dupe(4).seed(21).generate()
}

#[test]
fn progressiveness_is_monotone_and_complete() {
    let ds = streaming_ds();
    for algo in Algorithm::STUDIED {
        let cfg = RunConfig::with_threads(2).record_all().speedup(300.0);
        let res = execute(algo, &ds, &cfg);
        let curve = progressiveness(&res);
        assert!(!curve.is_empty(), "{algo}: no progress recorded");
        assert!(
            curve.windows(2).all(|w| w[0].1 <= w[1].1),
            "{algo}: fractions must be non-decreasing"
        );
        let last = curve.last().unwrap();
        assert!(
            (last.1 - 1.0).abs() < 1e-9,
            "{algo}: curve must end at 100%"
        );
        let t50 = time_to_fraction_ms(&res, 0.5).expect("50% point exists");
        assert!(t50 <= last.0 + 1e-9);
    }
}

#[test]
fn latency_quantiles_are_ordered() {
    let ds = streaming_ds();
    let cfg = RunConfig::with_threads(2).record_all().speedup(300.0);
    for algo in [Algorithm::Npj, Algorithm::ShjJm, Algorithm::PmjJb] {
        let res = execute(algo, &ds, &cfg);
        let p50 = latency_quantile_ms(&res, 0.5).unwrap();
        let p95 = latency_quantile_ms(&res, 0.95).unwrap();
        let p100 = latency_quantile_ms(&res, 1.0).unwrap();
        assert!(p50 <= p95 && p95 <= p100, "{algo}: {p50} {p95} {p100}");
        assert!(p50 >= 0.0);
    }
}

#[test]
fn eager_beats_lazy_on_latency_for_slow_streams() {
    // The paper's low-rate finding: SHJ^JM delivers matches almost
    // immediately while lazy algorithms wait out the window. Use real-time
    // factors large enough that scheduling noise cannot flip the order.
    let ds = MicroSpec::with_rates(5.0, 5.0).seed(22).generate();
    let cfg = RunConfig::with_threads(2).record_all().speedup(100.0);
    let eager = execute(Algorithm::ShjJm, &ds, &cfg);
    let lazy = execute(Algorithm::Npj, &ds, &cfg);
    let eager_p50 = latency_quantile_ms(&eager, 0.5).unwrap();
    let lazy_p50 = latency_quantile_ms(&lazy, 0.5).unwrap();
    assert!(
        eager_p50 < lazy_p50 / 2.0,
        "eager median latency {eager_p50} must be far below lazy {lazy_p50}"
    );
}

#[test]
fn breakdown_phases_are_consistent() {
    let ds = MicroSpec::static_counts(5000, 5000)
        .dupe(8)
        .seed(23)
        .generate();
    for algo in Algorithm::STUDIED {
        let cfg = RunConfig::with_threads(2);
        let res = execute(algo, &ds, &cfg);
        let total = res.breakdown.total_ns();
        assert!(total > 0, "{algo}: empty breakdown");
        let sum: u64 = PHASES.iter().map(|&p| res.breakdown[p]).sum();
        assert_eq!(sum, total);
        if algo.is_sort_based() {
            assert!(
                res.breakdown[Phase::BuildSort] > 0,
                "{algo}: sort time missing"
            );
        }
        // Per-thread breakdowns sum to the merged one.
        let per: u64 = res.per_thread.iter().map(|b| b.total_ns()).sum();
        assert_eq!(per, total);
    }
}

#[test]
fn memory_gauge_produces_a_curve() {
    let ds = MicroSpec::static_counts(20_000, 20_000)
        .dupe(4)
        .seed(24)
        .generate();
    let mut cfg = RunConfig::with_threads(2);
    cfg.mem_sample_every = 512;
    for algo in [Algorithm::ShjJm, Algorithm::PmjJb] {
        let res = execute(algo, &ds, &cfg);
        assert!(!res.mem_samples.is_empty(), "{algo}: no memory samples");
        let curve = aggregate_mem_curve(&res.mem_samples, res.threads);
        let peak = curve.iter().map(|&(_, b)| b).max().unwrap();
        assert!(peak > 0);
        // Times non-decreasing.
        assert!(curve.windows(2).all(|w| w[0].0 <= w[1].0));
    }
}

#[test]
fn cpu_utilisation_bounded() {
    let ds = streaming_ds();
    let cfg = RunConfig::with_threads(2).speedup(300.0);
    for algo in [Algorithm::Npj, Algorithm::ShjJm] {
        let res = execute(algo, &ds, &cfg);
        let u = res.cpu_utilisation();
        assert!((0.0..=1.0).contains(&u), "{algo}: utilisation {u}");
    }
    // A compute-bound static run: busy wall time fills most of the wall
    // elapsed time, so a speedup that scales the stream clock must not
    // scale utilisation down with it.
    let ds = MicroSpec::static_counts(40_000, 40_000).seed(22).generate();
    let res = execute(
        Algorithm::Npj,
        &ds,
        &RunConfig::with_threads(2).speedup(25.0),
    );
    let u = res.cpu_utilisation();
    assert!(u > 0.2, "static NPJ at speedup 25: utilisation {u}");
}

#[test]
fn throughput_definition_matches_inputs_over_last_emit() {
    let ds = MicroSpec::static_counts(3000, 3000).seed(25).generate();
    let cfg = RunConfig::with_threads(2);
    let res = execute(Algorithm::Prj, &ds, &cfg);
    assert!(res.last_emit_ms > 0.0);
    let expect = res.total_inputs as f64 / res.last_emit_ms;
    assert!((res.throughput_tpms() - expect).abs() < 1e-9);
}
