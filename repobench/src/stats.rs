//! Order statistics and the named-metric table the benchmark prints.

use std::collections::BTreeMap;

/// Linear-interpolated quantile `q` in `[0, 1]` of `v` (0 when empty).
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Median of `v` (0 when empty).
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// One reported metric: its value and the samples it summarises.
pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
    pub q1: f64,
    pub q3: f64,
}

/// Metrics by name, in name order.
#[derive(Default)]
pub struct Metrics(BTreeMap<String, Metric>);

impl Metrics {
    /// Report the median of `samples`, with its quartiles.
    pub fn median_of(&mut self, name: impl Into<String>, unit: &'static str, samples: &[f64]) {
        self.0.insert(
            name.into(),
            Metric {
                value: median(samples),
                unit,
                samples: samples.len(),
                q1: quantile(samples, 0.25),
                q3: quantile(samples, 0.75),
            },
        );
    }

    /// Report one value that stands for `samples` observations.
    pub fn value(
        &mut self,
        name: impl Into<String>,
        unit: &'static str,
        value: f64,
        samples: usize,
    ) {
        self.0.insert(
            name.into(),
            Metric {
                value,
                unit,
                samples,
                q1: value,
                q3: value,
            },
        );
    }

    /// Report `name` as 0 from no samples unless it is already reported.
    pub fn default_zero(&mut self, name: &str, unit: &'static str) {
        if !self.0.contains_key(name) {
            self.value(name, unit, 0.0, 0);
        }
    }

    /// Panic unless exactly `names` are reported: the result line must
    /// match the metric list the benchmark declares.
    pub fn assert_names(&self, names: &[String]) {
        let mut want: Vec<&str> = names.iter().map(String::as_str).collect();
        want.sort_unstable();
        let have: Vec<&str> = self.0.keys().map(String::as_str).collect();
        assert_eq!(have, want, "reported metrics differ from the declared list");
    }

    /// A human-readable table: name, value, unit, sample count, quartiles.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for (name, m) in &self.0 {
            out.push_str(&format!(
                "{name:<34} {:>14.4} {:<9} n={:<6} q1={:.4} q3={:.4}\n",
                m.value, m.unit, m.samples, m.q1, m.q3
            ));
        }
        out
    }

    /// The `metrics` object of the result line.
    pub fn json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(name, m)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    finite(m.value),
                    m.unit
                )
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// JSON has no NaN or infinity; a metric that is undefined reads 0.
fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

/// Window latency over repeated runs of the same input. Each window's
/// latency is its median over the repetitions; `window_p50_ms` and
/// `window_p95_ms` are quantiles of those medians across windows. A host
/// hiccup that delays one window in one run barely moves that window's
/// median, while a change that slows every run of a window moves it fully.
#[derive(Default)]
pub struct WindowLatency(BTreeMap<(usize, u32), Vec<f64>>);

impl WindowLatency {
    /// One latency sample of window `window` of run kind `run` (an engine
    /// index, or one past the engines for the open-loop run).
    pub fn add(&mut self, run: usize, window: u32, ms: f64) {
        self.0.entry((run, window)).or_default().push(ms);
    }

    pub fn report(&self, m: &mut Metrics) {
        let medians: Vec<f64> = self.0.values().map(|v| median(v)).collect();
        m.median_of("window_p50_ms", "ms", &medians);
        m.value(
            "window_p95_ms",
            "ms",
            quantile(&medians, 0.95),
            medians.len(),
        );
    }
}

/// Peak resident set (`VmHWM`) of this process in MB, 0 when unreadable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }
}
