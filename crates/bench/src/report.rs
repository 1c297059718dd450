//! Machine-readable bench results: every bench target writes a
//! `BENCH_<name>.json` next to its table output, so the repo accumulates
//! a perf trajectory that `machtlb bench-check` can hold against a
//! committed baseline with a noise envelope.
//!
//! The format is deliberately flat — one object per metric, scalar
//! fields only — so the files diff well; the workspace's shared strict
//! parser ([`machtlb_xpr::json`]) reads them back.

use std::fmt::Write as _;
use std::path::PathBuf;

use machtlb_xpr::json::{escape, Json};

/// One measured point: a headline number plus the configuration that
/// produced it and any counters worth tracking over time.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchMetric {
    /// Stable metric name within the bench (e.g. `basic_cost/n256`).
    pub name: String,
    /// Machine size the point was measured on.
    pub cpus: u64,
    /// Strategy label (e.g. `shootdown`).
    pub strategy: String,
    /// Multicast fan-out degree (1 = unicast).
    pub fanout: u64,
    /// The headline value, in microseconds (a median unless the bench
    /// says otherwise in the metric name).
    pub median_us: f64,
    /// Counters worth a trajectory (ipis sent, rounds, coalesced...).
    pub counters: Vec<(String, u64)>,
}

impl BenchMetric {
    /// A metric with no counters attached.
    pub fn new(
        name: impl Into<String>,
        cpus: u64,
        strategy: impl Into<String>,
        fanout: u64,
        median_us: f64,
    ) -> BenchMetric {
        BenchMetric {
            name: name.into(),
            cpus,
            strategy: strategy.into(),
            fanout,
            median_us,
            counters: Vec::new(),
        }
    }

    /// Attaches a counter, builder-style.
    #[must_use]
    pub fn counter(mut self, name: impl Into<String>, value: u64) -> BenchMetric {
        self.counters.push((name.into(), value));
        self
    }
}

/// A bench target's full result set, serializable to `BENCH_<name>.json`.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchReport {
    /// The bench target name (the `<name>` of `BENCH_<name>.json`).
    pub bench: String,
    /// Every metric the target measured.
    pub metrics: Vec<BenchMetric>,
}

impl BenchReport {
    /// An empty report for the named bench.
    pub fn new(bench: impl Into<String>) -> BenchReport {
        BenchReport {
            bench: bench.into(),
            metrics: Vec::new(),
        }
    }

    /// Appends a metric.
    pub fn push(&mut self, metric: BenchMetric) {
        self.metrics.push(metric);
    }

    /// Serializes to the flat JSON format `parse_report` reads back.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "{{");
        let _ = writeln!(s, "  \"bench\": \"{}\",", escape(&self.bench));
        let _ = writeln!(s, "  \"metrics\": [");
        for (i, m) in self.metrics.iter().enumerate() {
            let counters = m
                .counters
                .iter()
                .map(|(k, v)| format!("\"{}\": {v}", escape(k)))
                .collect::<Vec<_>>()
                .join(", ");
            let _ = writeln!(
                s,
                "    {{\"name\": \"{}\", \"cpus\": {}, \"strategy\": \"{}\", \
                 \"fanout\": {}, \"median_us\": {:.3}, \"counters\": {{{counters}}}}}{}",
                escape(&m.name),
                m.cpus,
                escape(&m.strategy),
                m.fanout,
                m.median_us,
                if i + 1 == self.metrics.len() { "" } else { "," },
            );
        }
        let _ = writeln!(s, "  ]");
        s.push_str("}\n");
        s
    }

    /// Writes `BENCH_<bench>.json` into `$MACHTLB_BENCH_DIR` (or the
    /// current directory when unset) and returns the path.
    pub fn write(&self) -> std::io::Result<PathBuf> {
        let dir = std::env::var_os("MACHTLB_BENCH_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from("."));
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("BENCH_{}.json", self.bench));
        std::fs::write(&path, self.to_json())?;
        Ok(path)
    }
}

/// Parses a `BENCH_<name>.json` produced by [`BenchReport::to_json`].
/// Every field is required and unknown keys are rejected, so drift is
/// caught loudly; `cpus`, `fanout`, and the counters must be exact
/// non-negative integers.
pub fn parse_report(text: &str) -> Result<BenchReport, String> {
    Json::parse(text)
        .and_then(|doc| read_report(&doc))
        .map_err(|e| format!("bench json: {e}"))
}

fn read_report(doc: &Json) -> Result<BenchReport, String> {
    only_keys(doc, &["bench", "metrics"])?;
    let mut report = BenchReport::new(doc.str_field("bench")?);
    if report.bench.is_empty() {
        return Err("empty \"bench\" name".into());
    }
    for m in doc.array_field("metrics")? {
        only_keys(
            m,
            &[
                "name",
                "cpus",
                "strategy",
                "fanout",
                "median_us",
                "counters",
            ],
        )?;
        let Json::Obj(counters) = m.field("counters")? else {
            return Err("\"counters\" is not an object".into());
        };
        let mut metric = BenchMetric::new(
            m.str_field("name")?,
            m.u64_field("cpus")?,
            m.str_field("strategy")?,
            m.u64_field("fanout")?,
            m.f64_field("median_us")?,
        );
        for (k, v) in counters {
            let v = v
                .as_u64()
                .ok_or_else(|| format!("counter \"{k}\" is not a non-negative integer"))?;
            metric = metric.counter(k.as_str(), v);
        }
        report.push(metric);
    }
    Ok(report)
}

/// Rejects any key of object `v` outside `allowed`.
fn only_keys(v: &Json, allowed: &[&str]) -> Result<(), String> {
    let Json::Obj(fields) = v else {
        return Err("expected an object".into());
    };
    match fields.iter().find(|(k, _)| !allowed.contains(&k.as_str())) {
        Some((k, _)) => Err(format!("unknown key {k:?}")),
        None => Ok(()),
    }
}

/// One baseline metric held against the current run: the structured row
/// behind `machtlb bench-check`'s failure table.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricDiff {
    /// The metric name within the bench.
    pub name: String,
    /// The committed baseline value (µs).
    pub baseline_us: f64,
    /// The current run's value, or `None` when the metric disappeared.
    pub current_us: Option<f64>,
    /// Whether the metric stayed inside the noise envelope.
    pub within: bool,
}

impl MetricDiff {
    /// Current over baseline; `None` when the metric disappeared or the
    /// baseline is zero.
    pub fn ratio(&self) -> Option<f64> {
        let cur = self.current_us?;
        (self.baseline_us.abs() > 1e-9).then(|| cur / self.baseline_us)
    }
}

/// Diffs every baseline metric against `current` inside a relative noise
/// envelope of `tolerance` (e.g. `0.30` = ±30%): one [`MetricDiff`] per
/// baseline metric, in baseline order. A vanished metric is never
/// `within`; new metrics (in `current` only) produce no row — they are
/// the trajectory growing.
pub fn diff_reports(
    baseline: &BenchReport,
    current: &BenchReport,
    tolerance: f64,
) -> Vec<MetricDiff> {
    baseline
        .metrics
        .iter()
        .map(|b| {
            let cur = current
                .metrics
                .iter()
                .find(|m| m.name == b.name)
                .map(|m| m.median_us);
            let within = cur.is_some_and(|c| {
                (c - b.median_us).abs() / b.median_us.abs().max(1e-9) <= tolerance
            });
            MetricDiff {
                name: b.name.clone(),
                baseline_us: b.median_us,
                current_us: cur,
                within,
            }
        })
        .collect()
}

/// Holds `current` against `baseline` within a relative noise envelope
/// on every headline number: a metric regresses when its value drifts
/// more than `tolerance` (e.g. `0.30` = ±30%) from the baseline, or when
/// a baseline metric vanished. New metrics (in `current` only) pass —
/// they are the trajectory growing. Returns human-readable failure
/// lines; empty means green. See [`diff_reports`] for the structured
/// per-metric form these lines are rendered from.
pub fn compare_reports(
    baseline: &BenchReport,
    current: &BenchReport,
    tolerance: f64,
) -> Vec<String> {
    if baseline.bench != current.bench {
        return vec![format!(
            "bench name mismatch: baseline {:?} vs current {:?}",
            baseline.bench, current.bench
        )];
    }
    diff_reports(baseline, current, tolerance)
        .iter()
        .filter(|d| !d.within)
        .map(|d| match (d.current_us, d.ratio()) {
            (None, _) => format!("{}/{}: metric disappeared", baseline.bench, d.name),
            // A zero baseline admits no relative drift: the percentage
            // would be nonsense, so report the raw values instead.
            (Some(cur), None) => format!(
                "{}/{}: {:.1} us vs zero baseline (no ratio; ±{:.0}% envelope)",
                baseline.bench,
                d.name,
                cur,
                tolerance * 100.0,
            ),
            (Some(cur), Some(ratio)) => format!(
                "{}/{}: {:.1} us vs baseline {:.1} us ({:+.1}% > ±{:.0}% envelope)",
                baseline.bench,
                d.name,
                cur,
                d.baseline_us,
                (ratio - 1.0) * 100.0,
                tolerance * 100.0,
            ),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BenchReport {
        let mut r = BenchReport::new("sec8_scaling");
        r.push(
            BenchMetric::new("basic_cost/n256", 256, "shootdown", 1, 5012.25)
                .counter("ipis_sent", 255)
                .counter("multicast_rounds", 0),
        );
        r.push(BenchMetric::new(
            "basic_cost/n1024",
            1024,
            "shootdown",
            8,
            961.5,
        ));
        r
    }

    #[test]
    fn json_round_trips() {
        let r = sample();
        let parsed = parse_report(&r.to_json()).expect("round trip");
        assert_eq!(parsed, r);
    }

    #[test]
    fn empty_metrics_round_trip() {
        let r = BenchReport::new("empty");
        assert_eq!(parse_report(&r.to_json()).expect("round trip"), r);
    }

    #[test]
    fn envelope_catches_drift_and_vanished_metrics() {
        let base = sample();
        let mut cur = sample();
        assert!(compare_reports(&base, &cur, 0.25).is_empty());
        // 10% drift passes a 25% envelope, 40% drift does not.
        cur.metrics[0].median_us = base.metrics[0].median_us * 1.10;
        assert!(compare_reports(&base, &cur, 0.25).is_empty());
        cur.metrics[0].median_us = base.metrics[0].median_us * 1.40;
        assert_eq!(compare_reports(&base, &cur, 0.25).len(), 1);
        // A vanished metric always fails; a new one never does.
        cur.metrics.remove(0);
        assert_eq!(compare_reports(&base, &cur, 0.25).len(), 1);
        cur = sample();
        cur.push(BenchMetric::new("brand_new", 2, "shootdown", 1, 9.0));
        assert!(compare_reports(&base, &cur, 0.25).is_empty());
    }

    #[test]
    fn zero_baseline_has_no_ratio_but_still_judges() {
        // A committed baseline can legitimately hold a zero (e.g. an IPI
        // count a new strategy eliminated). The diff must not divide by
        // it: the ratio is `None`, a matching zero passes, and a nonzero
        // current fails with the raw values rather than an absurd
        // percentage.
        let mut base = BenchReport::new("zeroes");
        base.push(BenchMetric::new("filtered/ipis", 16, "shootdown", 1, 0.0));
        let mut cur = BenchReport::new("zeroes");
        cur.push(BenchMetric::new("filtered/ipis", 16, "shootdown", 1, 0.0));
        let diffs = diff_reports(&base, &cur, 0.25);
        assert!(diffs[0].within, "zero against zero is inside any envelope");
        assert_eq!(diffs[0].ratio(), None);
        assert!(compare_reports(&base, &cur, 0.25).is_empty());

        cur.metrics[0].median_us = 42.0;
        let diffs = diff_reports(&base, &cur, 0.25);
        assert!(!diffs[0].within, "regrowth from zero must fail the check");
        assert_eq!(diffs[0].ratio(), None);
        let failures = compare_reports(&base, &cur, 0.25);
        assert_eq!(failures.len(), 1);
        assert!(
            failures[0].contains("zero baseline"),
            "failure line must explain the zero baseline, got: {}",
            failures[0]
        );
        assert!(
            !failures[0].contains('%') || failures[0].contains("envelope"),
            "no runaway percentage: {}",
            failures[0]
        );
    }

    #[test]
    fn structured_diff_carries_values_and_ratios() {
        let base = sample();
        let mut cur = sample();
        cur.metrics[0].median_us = base.metrics[0].median_us * 1.40;
        cur.metrics.pop(); // second metric disappears
        let diffs = diff_reports(&base, &cur, 0.25);
        assert_eq!(diffs.len(), base.metrics.len());
        assert!(!diffs[0].within);
        assert!((diffs[0].ratio().expect("present") - 1.40).abs() < 1e-9);
        assert_eq!(diffs[0].baseline_us, base.metrics[0].median_us);
        assert!(!diffs[1].within);
        assert_eq!(diffs[1].current_us, None);
        assert_eq!(diffs[1].ratio(), None);
        // Inside the envelope: within, ratio near 1.
        let diffs = diff_reports(&base, &sample(), 0.25);
        assert!(diffs.iter().all(|d| d.within));
        assert!(diffs
            .iter()
            .all(|d| (d.ratio().expect("present") - 1.0).abs() < 1e-9));
    }
}
