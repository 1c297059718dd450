//! The metric tables (the single source `BENCHMARK.json` is rendered
//! from), the ledger that aggregates runs, and the statistics behind each
//! metric.

use std::collections::BTreeMap;

use machtlb::core::{KernelStats, Survival};
use machtlb::tlb::TlbStats;
use machtlb::vm::VmStats;
use machtlb::xpr::{percentile_nearest_rank, TracePhase};

#[cfg(test)]
use crate::workloads::Workload;
use crate::workloads::{RunRecord, SimOutcome, SpanKind};

/// Which direction of a metric is an improvement.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// An end-to-end metric: reported from untraced runs, with the share of
/// the parent's median by which it may worsen before a change counts as a
/// regression.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

/// A per-layer metric: reported from the traced run, no bound.
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

/// Seconds one invocation measures for: BENCHMARK.json's `run_seconds`
/// and the default of `--seconds`.
pub const RUN_SECONDS: u64 = 10;

pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "runs_per_s",
        unit: "runs/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_heap_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.1,
    },
    EndToEnd {
        name: "sim_makespan_ms",
        unit: "sim_ms",
        better: Better::Lower,
        bound: 0.1,
    },
    EndToEnd {
        name: "sim_ipis_per_shootdown",
        unit: "ratio",
        better: Better::Lower,
        bound: 0.1,
    },
];

macro_rules! layers {
    ($(($name:literal, $unit:literal, $better:ident)),* $(,)?) => {
        [$(Layer { name: $name, unit: $unit, better: Better::$better }),*]
    };
}

/// Every host time here (units `s` and `ns`) is measured on every
/// workload. Host times a workload's public API hides (per-step cost on
/// `scale1024`, report extraction and trace post-processing inside the
/// lab and chaos calls, schedule compilation outside `fuzz-band`) are
/// notes instead; see `host_notes`.
pub const PER_LAYER: [Layer; 51] = layers![
    ("sim.steps", "count", Lower),
    ("sim.run_host_s", "s", Lower),
    ("sim.sched_probe_ns_per_step", "ns", Lower),
    ("sim.bus.transactions", "count", Lower),
    ("sim.bus.held_us", "sim_us", Lower),
    ("sim.bus.queued_us", "sim_us", Lower),
    ("tlb.hits", "count", Higher),
    ("tlb.misses", "count", Lower),
    ("tlb.hit_ratio", "ratio", Higher),
    ("tlb.flushes", "count", Lower),
    ("tlb.invalidated", "count", Lower),
    ("tlb.probe_ns_per_op", "ns", Lower),
    ("pmap.cpuset_probe_ns_per_op", "ns", Lower),
    ("core.shootdowns", "count", Lower),
    ("core.lazy_skips", "count", Higher),
    ("core.ipis_sent", "count", Lower),
    ("core.ipis_filtered", "count", Higher),
    ("core.filter_ratio", "ratio", Higher),
    ("core.multicast_rounds", "count", Lower),
    ("core.initiators_batched", "count", Higher),
    ("core.actions_coalesced", "count", Higher),
    ("core.degraded_flushes", "count", Lower),
    ("core.ipi_retries", "count", Lower),
    ("core.evictions", "count", Lower),
    ("core.fenced_rejoins", "count", Lower),
    ("core.locks_stolen", "count", Lower),
    ("core.robbed_restarts", "count", Lower),
    ("core.checker_violations", "count", Lower),
    ("core.initiator_p50_us", "sim_us", Lower),
    ("core.initiator_tail_us", "sim_us", Lower),
    ("core.responder_p50_us", "sim_us", Lower),
    ("core.phase.initiate_p50_us", "sim_us", Lower),
    ("core.phase.queue_actions_p50_us", "sim_us", Lower),
    ("core.phase.ipi_send_p50_us", "sim_us", Lower),
    ("core.phase.sync_wait_p50_us", "sim_us", Lower),
    ("core.phase.pmap_update_p50_us", "sim_us", Lower),
    ("core.phase.unlock_p50_us", "sim_us", Lower),
    ("core.phase.quiesce_p50_us", "sim_us", Lower),
    ("core.phase.drain_p50_us", "sim_us", Lower),
    ("core.phase.full_flush_p50_us", "sim_us", Lower),
    ("core.queue_probe_ns_per_op", "ns", Lower),
    ("vm.faults_resolved", "count", Lower),
    ("vm.cow_copies", "count", Lower),
    ("vm.zero_fills", "count", Lower),
    ("workloads.setup_host_s", "s", Lower),
    ("workloads.runs", "count", Higher),
    ("xpr.trace_events", "count", Lower),
    ("xpr.trace_overhead_pct", "%", Lower),
    ("fault.events", "count", Higher),
    ("fault.tolerated", "count", Higher),
    ("fault.degraded", "count", Lower),
];

/// The command the benchmark is run with, from the repository root.
#[cfg(test)]
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--offline",
    "--manifest-path",
    "examples/benchmark/Cargo.toml",
    "--",
];

/// Renders `BENCHMARK.json` from the tables above.
#[cfg(test)]
pub fn manifest() -> String {
    let quoted = |xs: &[&str]| {
        xs.iter()
            .map(|x| json_str(x))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let rows = |rows: Vec<String>| rows.join(",\n");
    let workloads = rows(
        Workload::ALL
            .iter()
            .map(|w| {
                format!(
                    "    {{\"name\": {}, \"why\": {}}}",
                    json_str(w.name()),
                    json_str(w.why())
                )
            })
            .collect(),
    );
    let e2e = rows(
        END_TO_END
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                    json_str(m.name),
                    json_str(m.unit),
                    json_str(m.better.name()),
                    m.bound
                )
            })
            .collect(),
    );
    let layers = rows(
        PER_LAYER
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                    json_str(m.name),
                    json_str(m.unit),
                    json_str(m.better.name())
                )
            })
            .collect(),
    );
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [\"examples/benchmark\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{workloads}\n  ],\n  \
         \"end_to_end\": [\n{e2e}\n  ],\n  \"per_layer\": [\n{layers}\n  ]\n}}\n",
        quoted(&COMMAND)
    )
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

// ---------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------

/// The candidate tail percentiles, highest first.
const TAILS: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

/// The highest candidate percentile that leaves at least ten of `n`
/// samples strictly beyond its nearest-rank position (ranked as
/// `percentile_nearest_rank` ranks them).
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAILS.into_iter().find(|p| {
        let rank = (p / 100.0 * n as f64).ceil() as usize;
        n.saturating_sub(rank) >= 10
    })
}

/// Nearest-rank percentile of an unsorted sample.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(percentile_nearest_rank(&sorted, p))
}

pub fn median(xs: &[f64]) -> Option<f64> {
    percentile(xs, 50.0)
}

/// The tail of a sample under the ten-beyond rule: (percentile, value).
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    let p = tail_percentile(xs.len())?;
    percentile(xs, p).map(|v| (p, v))
}

/// The paper's Figure 2 line: 430 µs plus 55 µs per processor shot.
pub fn paper_fig2_us(k: u32) -> f64 {
    430.0 + 55.0 * f64::from(k)
}

/// Table 3: Camelot's user-pmap shootdowns take 588 µs.
pub const PAPER_TABLE3_US: f64 = 588.0;

/// Mean absolute error (%) of the per-k mean shootdown cost against the
/// paper's Figure 2 line over k = 1..=12, the region the paper fitted.
/// This is the model's calibration pair, so it is not a held-out check.
pub fn model_fit_err_pct(samples: &[(u32, f64)]) -> Option<f64> {
    let errs: Vec<f64> = (1..=12)
        .filter_map(|k| {
            let xs: Vec<f64> = samples
                .iter()
                .filter(|(kk, _)| *kk == k)
                .map(|(_, us)| *us)
                .collect();
            (!xs.is_empty()).then(|| {
                let mean = xs.iter().sum::<f64>() / xs.len() as f64;
                ((mean - paper_fig2_us(k)) / paper_fig2_us(k)).abs() * 100.0
            })
        })
        .collect();
    (!errs.is_empty()).then(|| errs.iter().sum::<f64>() / errs.len() as f64)
}

/// Error (%) of the median Camelot@16 user shootdown against Table 3's
/// 588 µs — data the cost model was not calibrated on.
pub fn model_heldout_err_pct(user_us: &[f64]) -> Option<f64> {
    median(user_us).map(|m| (m - PAPER_TABLE3_US).abs() / PAPER_TABLE3_US * 100.0)
}

// ---------------------------------------------------------------------
// The ledger
// ---------------------------------------------------------------------

/// Simulated outcomes and host times summed over a set of runs. Optional
/// parts stay `None` unless some run could observe them.
#[derive(Default)]
pub struct Ledger {
    /// Whether to keep every initiator and responder latency. Only the
    /// traced run needs them: half a million samples per `paper16` run
    /// would make the untraced run's peak RSS the benchmark's own and
    /// swing it by a third with the allocator's history.
    pub keep_latencies: bool,
    pub runs: usize,
    pub makespan_us: f64,
    pub steps: Option<u64>,
    pub stats: KernelStats,
    pub vm: Option<VmStats>,
    /// (transactions, held µs, queued µs).
    pub bus: Option<(u64, f64, f64)>,
    pub tlb: Option<TlbStats>,
    pub initiators_us: Vec<f64>,
    pub table3_us: Vec<f64>,
    pub responders_us: Vec<f64>,
    /// Section 7.3 overheads (%) by run kind.
    pub overhead_pct: BTreeMap<&'static str, Vec<f64>>,
    pub fig2: Vec<(u32, f64)>,
    pub trace_events: Option<u64>,
    pub phases: Vec<(TracePhase, Vec<f64>)>,
    pub faults_injected: Option<u64>,
    /// Fault schedules by outcome: (tolerated, degraded), when any ran.
    pub survival: Option<(u64, u64)>,
    pub violations: u64,
    pub setup_s: f64,
    pub run_s: f64,
    pub extract_s: f64,
    pub trace_post_s: f64,
    pub compile_s: f64,
}

fn add<T: Default>(acc: &mut Option<T>, v: Option<T>, f: impl FnOnce(&mut T, T)) {
    if let Some(v) = v {
        f(acc.get_or_insert_with(T::default), v);
    }
}

fn add_stats(acc: &mut KernelStats, s: &KernelStats) {
    acc.shootdowns_kernel += s.shootdowns_kernel;
    acc.shootdowns_user += s.shootdowns_user;
    acc.lazy_skips += s.lazy_skips;
    acc.ipis_sent += s.ipis_sent;
    acc.ipis_filtered += s.ipis_filtered;
    acc.multicast_rounds += s.multicast_rounds;
    acc.initiators_batched += s.initiators_batched;
    acc.actions_coalesced += s.actions_coalesced;
    acc.degraded_flushes += s.degraded_flushes;
    acc.ipi_retries += s.ipi_retries;
    acc.evictions += s.evictions;
    acc.fenced_rejoins += s.fenced_rejoins;
    acc.locks_stolen += s.locks_stolen;
    acc.robbed_restarts += s.robbed_restarts;
}

impl Ledger {
    /// Folds one run in.
    pub fn add(&mut self, r: &RunRecord) {
        self.runs += 1;
        self.setup_s += r.setup_secs();
        self.run_s += r.secs(SpanKind::Run);
        self.extract_s += r.secs(SpanKind::Extract);
        self.trace_post_s += r.secs(SpanKind::TracePost);
        self.compile_s += r.secs(SpanKind::Compile);
        if let Some(sim) = &r.sim {
            self.absorb(r.job.spec.label(), sim);
        }
    }

    fn absorb(&mut self, label: &'static str, s: &SimOutcome) {
        self.makespan_us += s.makespan_us;
        add(&mut self.steps, s.steps, |a, v| *a += v);
        add_stats(&mut self.stats, &s.stats);
        add(&mut self.vm, s.vm, |a, v| {
            a.faults_resolved += v.faults_resolved;
            a.cow_copies += v.cow_copies;
            a.zero_fills += v.zero_fills;
        });
        let bus = s.bus.map(|b| {
            (
                b.transactions,
                b.held.as_micros_f64(),
                b.queued.as_micros_f64(),
            )
        });
        add(&mut self.bus, bus, |a, v| {
            a.0 += v.0;
            a.1 += v.1;
            a.2 += v.2;
        });
        add(&mut self.tlb, s.tlb, |a, v| {
            a.hits += v.hits;
            a.misses += v.misses;
            a.insertions += v.insertions;
            a.invalidated += v.invalidated;
            a.flushes += v.flushes;
        });
        if self.keep_latencies {
            self.initiators_us.extend(&s.initiators_us);
            self.responders_us.extend(&s.responders_us);
        }
        self.table3_us.extend(&s.table3_us);
        if let Some(o) = s.overhead_pct {
            self.overhead_pct.entry(label).or_default().push(o);
        }
        self.fig2.extend(s.fig2);
        add(
            &mut self.trace_events,
            s.trace_events.map(|n| n as u64),
            |a, v| *a += v,
        );
        for (phase, xs) in &s.phases {
            match self.phases.iter_mut().find(|(p, _)| p == phase) {
                Some((_, acc)) => acc.extend(xs),
                None => self.phases.push((*phase, xs.clone())),
            }
        }
        add(&mut self.faults_injected, s.faults_injected, |a, v| *a += v);
        let survival = s.survival.map(|sv| {
            (
                u64::from(sv == Survival::Tolerated),
                u64::from(sv == Survival::Degraded),
            )
        });
        add(&mut self.survival, survival, |a, v| {
            a.0 += v.0;
            a.1 += v.1;
        });
        self.violations += s.violations;
    }

    pub fn shootdowns(&self) -> u64 {
        self.stats.shootdowns_kernel + self.stats.shootdowns_user
    }

    /// The simulated end-to-end metrics.
    pub fn sim_makespan_ms(&self) -> f64 {
        self.makespan_us / 1000.0
    }

    pub fn sim_ipis_per_shootdown(&self) -> Option<f64> {
        let shootdowns = self.shootdowns();
        (shootdowns > 0).then(|| self.stats.ipis_sent as f64 / shootdowns as f64)
    }

    fn phase_p50(&self, name: &str) -> Option<f64> {
        let (_, xs) = self
            .phases
            .iter()
            .find(|(p, _)| p.name().replace('-', "_") == name)?;
        median(xs)
    }
}

/// Host-side inputs of the per-layer metrics that do not come from the
/// traced run's ledger.
pub struct LayerInputs<'a> {
    /// The same work, untraced.
    pub untraced: &'a Ledger,
    pub probes: &'a crate::probes::Probes,
}

/// A per-layer metric's value; `None` where the layer is not observable
/// through the public API on this workload.
pub fn layer_value(name: &str, traced: &Ledger, inputs: &LayerInputs<'_>) -> Option<f64> {
    let u = inputs.untraced;
    let st = &traced.stats;
    let count = |v: u64| Some(v as f64);
    if let Some(phase) = name
        .strip_prefix("core.phase.")
        .and_then(|r| r.strip_suffix("_p50_us"))
    {
        return traced.phase_p50(phase);
    }
    match name {
        "sim.steps" => traced.steps.map(|s| s as f64),
        "sim.run_host_s" => Some(u.run_s),
        "sim.sched_probe_ns_per_step" => Some(inputs.probes.sched_ns_per_step),
        "sim.bus.transactions" => traced.bus.map(|b| b.0 as f64),
        "sim.bus.held_us" => traced.bus.map(|b| b.1),
        "sim.bus.queued_us" => traced.bus.map(|b| b.2),
        "tlb.hits" => traced.tlb.map(|t| t.hits as f64),
        "tlb.misses" => traced.tlb.map(|t| t.misses as f64),
        "tlb.hit_ratio" => traced
            .tlb
            .filter(|t| t.hits + t.misses > 0)
            .map(|t| t.hits as f64 / (t.hits + t.misses) as f64),
        "tlb.flushes" => traced.tlb.map(|t| t.flushes as f64),
        "tlb.invalidated" => traced.tlb.map(|t| t.invalidated as f64),
        "tlb.probe_ns_per_op" => Some(inputs.probes.tlb_ns_per_op),
        "pmap.cpuset_probe_ns_per_op" => Some(inputs.probes.cpuset_ns_per_op),
        "core.shootdowns" => count(traced.shootdowns()),
        "core.lazy_skips" => count(st.lazy_skips),
        "core.ipis_sent" => count(st.ipis_sent),
        "core.ipis_filtered" => count(st.ipis_filtered),
        "core.filter_ratio" => {
            let targets = st.ipis_sent + st.ipis_filtered;
            (targets > 0).then(|| st.ipis_filtered as f64 / targets as f64)
        }
        "core.multicast_rounds" => count(st.multicast_rounds),
        "core.initiators_batched" => count(st.initiators_batched),
        "core.actions_coalesced" => count(st.actions_coalesced),
        "core.degraded_flushes" => count(st.degraded_flushes),
        "core.ipi_retries" => count(st.ipi_retries),
        "core.evictions" => count(st.evictions),
        "core.fenced_rejoins" => count(st.fenced_rejoins),
        "core.locks_stolen" => count(st.locks_stolen),
        "core.robbed_restarts" => count(st.robbed_restarts),
        "core.checker_violations" => count(traced.violations),
        "core.initiator_p50_us" => median(&traced.initiators_us),
        "core.initiator_tail_us" => tail(&traced.initiators_us).map(|(_, v)| v),
        "core.responder_p50_us" => median(&traced.responders_us),
        "core.queue_probe_ns_per_op" => Some(inputs.probes.queue_ns_per_op),
        "vm.faults_resolved" => traced.vm.map(|v| v.faults_resolved as f64),
        "vm.cow_copies" => traced.vm.map(|v| v.cow_copies as f64),
        "vm.zero_fills" => traced.vm.map(|v| v.zero_fills as f64),
        "workloads.setup_host_s" => Some(u.setup_s),
        "workloads.runs" => count(u.runs as u64),
        "xpr.trace_events" => traced.trace_events.map(|n| n as f64),
        "xpr.trace_overhead_pct" => {
            (u.run_s > 0.0).then(|| (traced.run_s - u.run_s) / u.run_s * 100.0)
        }
        "fault.events" => traced.faults_injected.map(|n| n as f64),
        "fault.tolerated" => traced.survival.map(|s| s.0 as f64),
        "fault.degraded" => traced.survival.map(|s| s.1 as f64),
        other => panic!("no computation for per-layer metric {other}"),
    }
}

/// Host times of layers that only some workloads expose, as notes: host
/// ns per simulated step, `AppReport::extract` and `phase_latencies`
/// seconds, and fault-schedule compile seconds.
pub fn host_notes(untraced: &Ledger, traced: &Ledger) -> Vec<String> {
    let mut notes = Vec::new();
    if let Some(steps) = untraced.steps.filter(|&s| s > 0) {
        notes.push(format!(
            "sim.host_ns_per_step {} ns ({steps} steps)",
            untraced.run_s * 1e9 / steps as f64
        ));
    }
    for (name, secs) in [
        ("xpr.extract_host_s", untraced.extract_s),
        ("xpr.trace_post_host_s", traced.trace_post_s),
        ("fault.compile_host_s", untraced.compile_s),
    ] {
        if secs > 0.0 {
            notes.push(format!("{name} {secs} s"));
        }
    }
    notes
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_report_actual_samples() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(median(&xs), Some(5.0));
        assert_eq!(percentile(&xs, 90.0), Some(9.0));
        assert_eq!(percentile(&xs, 91.0), Some(10.0));
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), Some(2.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn the_tail_leaves_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(39), None);
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(20_000), Some(99.9));
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let (p, v) = tail(&xs).expect("enough samples");
        assert_eq!((p, v), (99.0, 990.0));
        assert_eq!(xs.iter().filter(|&&x| x > v).count(), 10);
    }

    #[test]
    fn model_errors_are_measured_against_the_paper() {
        let exact: Vec<(u32, f64)> = (1..=15).map(|k| (k, paper_fig2_us(k))).collect();
        assert_eq!(model_fit_err_pct(&exact), Some(0.0));
        let high: Vec<(u32, f64)> = (1..=12).map(|k| (k, paper_fig2_us(k) * 1.1)).collect();
        let err = model_fit_err_pct(&high).expect("samples");
        assert!((err - 10.0).abs() < 1e-9, "{err}");
        // Points beyond k = 12 (the bus knee) are outside the fit region.
        assert_eq!(model_fit_err_pct(&[(13, 5000.0)]), None);
        assert_eq!(model_heldout_err_pct(&[500.0, 588.0, 700.0]), Some(0.0));
        let err = model_heldout_err_pct(&[634.0]).expect("a sample");
        assert!((err - 46.0 / 588.0 * 100.0).abs() < 1e-9);
        assert_eq!(model_heldout_err_pct(&[]), None);
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
