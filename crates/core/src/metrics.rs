//! The three §4.1 performance metrics, computed from a [`RunResult`]'s
//! match samples.

use crate::output::RunResult;

/// Quantile processing latency in stream ms (the paper reports the 95th
/// percentile worst-case latency, after Karimov et al.). Computed over the
/// sampled matches; `None` when no matches were sampled.
///
/// Uses the nearest-rank convention — the value at rank `⌈q·n⌉` (1-based,
/// clamped to `[1, n]`) — matching [`latency_quantile_exact_ms`]'s
/// histogram so the two paths answer the same question and differ only by
/// the histogram's bucket error. An O(n) selection, no full sort.
pub fn latency_quantile_ms(result: &RunResult, q: f64) -> Option<f64> {
    assert!((0.0..=1.0).contains(&q), "quantile must be in [0,1]");
    if result.samples.is_empty() {
        return None;
    }
    let mut lat: Vec<f64> = result.samples.iter().map(|m| m.latency_ms()).collect();
    let rank = ((q * lat.len() as f64).ceil() as usize).clamp(1, lat.len());
    let (_, v, _) = lat.select_nth_unstable_by(rank - 1, |a, b| a.total_cmp(b));
    Some(*v)
}

/// Progressiveness curve: cumulative fraction of matches delivered as a
/// function of elapsed stream time (§4.1). Returns `(elapsed_ms, fraction)`
/// points, one per sample. The sink always records the first match, so
/// sample 0 stands for match #1 and sample `i ≥ 1` stands for match number
/// `i × sample_every`, capped at the true total.
pub fn progressiveness(result: &RunResult) -> Vec<(f64, f64)> {
    if result.matches == 0 {
        return Vec::new();
    }
    let total = result.matches as f64;
    result
        .samples
        .iter()
        .enumerate()
        .map(|(i, m)| {
            let cum = if result.sample_every == 1 {
                i as u64 + 1
            } else if i == 0 {
                1
            } else {
                i as u64 * result.sample_every
            };
            (m.emit_ms, cum.min(result.matches) as f64 / total)
        })
        .collect()
}

/// Quantile latency from the full-population histogram: covers *every*
/// match, not just the sampled subset, at ≤ 1/128 relative bucket error.
/// Prefer this over [`latency_quantile_ms`] for tail quantiles (p99, max),
/// where sampling bias is worst. `None` when the run had no matches.
pub fn latency_quantile_exact_ms(result: &RunResult, q: f64) -> Option<f64> {
    result.hist.quantile_ms(q)
}

/// Exact worst-case latency over all matches, from the histogram.
pub fn latency_max_ms(result: &RunResult) -> Option<f64> {
    result.hist.max_ms()
}

/// Stream time at which `fraction` of all matches had been delivered —
/// e.g. the "time to 50% of matches" comparisons of §5.2. `None` when the
/// curve never reaches the fraction (sampling granularity or no matches).
///
/// A fraction ≤ 0 is satisfied before anything is delivered, so it returns
/// `Some(0.0)` rather than the first match's emit time.
///
/// # Panics
/// Panics on a NaN `fraction` — every float comparison against NaN is
/// false, which would silently return the first curve point.
pub fn time_to_fraction_ms(result: &RunResult, fraction: f64) -> Option<f64> {
    assert!(!fraction.is_nan(), "fraction must not be NaN");
    if fraction <= 0.0 {
        return Some(0.0);
    }
    progressiveness(result)
        .into_iter()
        .find(|&(_, f)| f >= fraction)
        .map(|(t, _)| t)
}

/// Down-sample a progressiveness curve to at most `n` evenly spaced points
/// (for printing Figure 6/9c/10c/12b series without flooding the output).
/// For `n ≥ 2` the first and last points are always kept, so the thinned
/// curve starts where the original starts and still ends at the 100% mark.
/// `n == 1` keeps only the final point; `n == 0` returns the curve as-is.
pub fn thin_curve(curve: &[(f64, f64)], n: usize) -> Vec<(f64, f64)> {
    if curve.len() <= n || n == 0 {
        return curve.to_vec();
    }
    let last = *curve.last().expect("non-empty");
    if n == 1 {
        return vec![last];
    }
    let step = curve.len() as f64 / n as f64;
    let mut out: Vec<(f64, f64)> = (0..n)
        .map(|i| curve[((i as f64 + 0.5) * step) as usize])
        .collect();
    out[0] = curve[0];
    *out.last_mut().expect("n > 0") = last;
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::Algorithm;
    use crate::output::WorkerOut;
    use iawj_common::Sink;

    fn run_with(samples: &[(f64, u32)], sample_every: u64, matches: u64) -> RunResult {
        let mut w = WorkerOut::new(1); // record all pushes
        for &(emit, arrival) in samples {
            w.sink.push(1, arrival, arrival, emit);
        }
        let mut r = RunResult::merge(Algorithm::Npj, 100, sample_every, 100.0, 100.0, vec![w]);
        r.matches = matches; // simulate a counting sink that saw more
        r
    }

    #[test]
    fn latency_quantiles() {
        // Latencies 1..=100.
        let samples: Vec<(f64, u32)> = (1..=100).map(|i| (i as f64, 0u32)).collect();
        let r = run_with(&samples, 1, 100);
        assert!((latency_quantile_ms(&r, 0.95).unwrap() - 95.0).abs() <= 1.0);
        assert!((latency_quantile_ms(&r, 0.0).unwrap() - 1.0).abs() < 1e-9);
        assert!((latency_quantile_ms(&r, 1.0).unwrap() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn latency_none_without_samples() {
        let r = run_with(&[], 1, 0);
        assert!(latency_quantile_ms(&r, 0.95).is_none());
    }

    #[test]
    fn latency_quantile_is_nearest_rank() {
        // 4 samples: nearest rank ⌈q·4⌉ picks an actual sample, never an
        // interpolated or rounded-up index.
        let samples: Vec<(f64, u32)> = [10.0, 20.0, 30.0, 40.0]
            .iter()
            .map(|&l| (l, 0u32))
            .collect();
        let r = run_with(&samples, 1, 4);
        // q=0.5 → rank 2 → 20.0 (the `.round()` convention gave 30.0 via
        // index round(1.5)=2).
        assert_eq!(latency_quantile_ms(&r, 0.5).unwrap(), 20.0);
        assert_eq!(latency_quantile_ms(&r, 0.25).unwrap(), 10.0);
        assert_eq!(latency_quantile_ms(&r, 0.26).unwrap(), 20.0);
        assert_eq!(latency_quantile_ms(&r, 0.75).unwrap(), 30.0);
        assert_eq!(latency_quantile_ms(&r, 1.0).unwrap(), 40.0);
        assert_eq!(latency_quantile_ms(&r, 0.0).unwrap(), 10.0);
    }

    #[test]
    fn sampled_and_exact_quantiles_agree() {
        // Regression for the convention mismatch: with every match sampled,
        // the sampled path and the histogram path must answer within one
        // histogram bucket width (≤ 1/128 relative) of each other at every
        // quantile.
        let samples: Vec<(f64, u32)> = (1..=500).map(|i| (i as f64, 0u32)).collect();
        let r = run_with(&samples, 1, 500);
        for q in [0.0, 0.1, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0] {
            let sampled = latency_quantile_ms(&r, q).unwrap();
            let exact = latency_quantile_exact_ms(&r, q).unwrap();
            let tol = exact / 128.0 + 1e-9;
            assert!(
                (sampled - exact).abs() <= tol,
                "q={q}: sampled={sampled} exact={exact} tol={tol}"
            );
        }
    }

    #[test]
    fn time_to_zero_fraction_is_zero() {
        let samples = [(5.0, 0u32), (6.0, 0), (7.0, 0)];
        let r = run_with(&samples, 1, 3);
        // 0% of the matches are delivered before the first emit at 5.0 ms.
        assert_eq!(time_to_fraction_ms(&r, 0.0), Some(0.0));
        assert_eq!(time_to_fraction_ms(&r, -0.5), Some(0.0));
        // Positive fractions still walk the curve.
        assert_eq!(time_to_fraction_ms(&r, 0.01), Some(5.0));
        assert_eq!(time_to_fraction_ms(&r, 1.0), Some(7.0));
        // Even an empty run has delivered 0% of its matches at t=0.
        let empty = run_with(&[], 1, 0);
        assert_eq!(time_to_fraction_ms(&empty, 0.0), Some(0.0));
        assert_eq!(time_to_fraction_ms(&empty, 0.5), None);
    }

    #[test]
    #[should_panic(expected = "fraction must not be NaN")]
    fn time_to_nan_fraction_panics() {
        let r = run_with(&[(5.0, 0u32)], 1, 1);
        let _ = time_to_fraction_ms(&r, f64::NAN);
    }

    #[test]
    fn progressiveness_reaches_one() {
        let samples: Vec<(f64, u32)> = (1..=10).map(|i| (i as f64 * 10.0, 0u32)).collect();
        let r = run_with(&samples, 1, 10);
        let curve = progressiveness(&r);
        assert_eq!(curve.len(), 10);
        assert!((curve.last().unwrap().1 - 1.0).abs() < 1e-9);
        assert!((curve[4].1 - 0.5).abs() < 1e-9);
        assert!((time_to_fraction_ms(&r, 0.5).unwrap() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn progressiveness_respects_sampling_rate() {
        // The sink records the first match then every 10th: samples stand
        // for matches #1, #10, #20 of 32 total.
        let samples = [(5.0, 0u32), (6.0, 0), (7.0, 0)];
        let r = run_with(&samples, 10, 32);
        let curve = progressiveness(&r);
        assert!((curve[0].1 - 1.0 / 32.0).abs() < 1e-9);
        assert!((curve[1].1 - 10.0 / 32.0).abs() < 1e-9);
        assert!((curve[2].1 - 20.0 / 32.0).abs() < 1e-9);
    }

    #[test]
    fn exact_quantiles_use_histogram_not_samples() {
        // Push 200 matches with latency = i ms through a rate-100 sink:
        // only matches #1, #100, #200 are sampled, but the histogram sees
        // all of them.
        let mut w = WorkerOut::new(100);
        for i in 0..200 {
            w.sink.push(1, 0, 0, i as f64);
        }
        let r = RunResult::merge(Algorithm::Npj, 100, 100, 250.0, 250.0, vec![w]);
        assert_eq!(r.samples.len(), 3);
        let p99 = latency_quantile_exact_ms(&r, 0.99).unwrap();
        assert!((p99 - 198.0).abs() <= 198.0 / 128.0 + 0.001, "p99={p99}");
        assert_eq!(latency_max_ms(&r).unwrap(), 199.0);
        // No matches → no quantiles.
        let empty = RunResult::merge(Algorithm::Npj, 0, 1, 1.0, 1.0, vec![WorkerOut::new(1)]);
        assert!(latency_quantile_exact_ms(&empty, 0.5).is_none());
        assert!(latency_max_ms(&empty).is_none());
    }

    #[test]
    fn thinning_preserves_endpoints() {
        let curve: Vec<(f64, f64)> = (0..1000).map(|i| (i as f64, i as f64 / 999.0)).collect();
        let thin = thin_curve(&curve, 20);
        assert_eq!(thin.len(), 20);
        assert_eq!(*thin.first().unwrap(), *curve.first().unwrap());
        assert_eq!(*thin.last().unwrap(), *curve.last().unwrap());
        assert!(thin.windows(2).all(|w| w[0].0 <= w[1].0));
        // Short curves pass through unchanged.
        assert_eq!(thin_curve(&curve[..5], 20).len(), 5);
    }

    #[test]
    fn thinning_tiny_n_regression() {
        let curve: Vec<(f64, f64)> = (0..100).map(|i| (i as f64, i as f64 / 99.0)).collect();
        // n == 2 keeps exactly the two endpoints.
        assert_eq!(thin_curve(&curve, 2), vec![(0.0, 0.0), (99.0, 1.0)]);
        // n == 1 keeps the 100% anchor (documented behaviour).
        assert_eq!(thin_curve(&curve, 1), vec![(99.0, 1.0)]);
        // n == 0 disables thinning.
        assert_eq!(thin_curve(&curve, 0).len(), 100);
    }
}
