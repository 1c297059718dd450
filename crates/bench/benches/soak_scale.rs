//! Soak at scale: what does surviving compound faults cost?
//!
//! The soak harness cycles halt, offline/revive, wrongful-eviction,
//! compound-halt, and FailOp fault shapes through the membership fence
//! with the consistency checker on. This harness runs one full shape
//! rotation per machine size and reports the simulated time the machine
//! spends riding the faults out, plus the recovery-machinery counters —
//! the trajectory CI holds against the committed baseline, so a change
//! that silently makes recovery slower (or stops exercising it) shows
//! up as baseline drift.
//!
//! Every run must *survive*: all cycles complete, zero checker
//! violations, zero unrecovered give-ups, zero exhausted retries. A
//! bench that fails that bar panics — recovery going wrong is not a
//! perf regression, it is a correctness bug.
//!
//! `MACHTLB_SMOKE` runs the CI subset: the 32-processor point. The full
//! run sweeps the whole 32–128 acceptance band.

use machtlb_bench::{BenchMetric, BenchReport};
use machtlb_core::{check_envelope, run_campaign, soak_schedules, CampaignTotals, SoakConfig};
use machtlb_xpr::TextTable;

fn main() {
    let smoke = std::env::var_os("MACHTLB_SMOKE").is_some();
    let mut report = BenchReport::new("soak_scale");

    println!("soak at scale: five fault shapes cycled through the fence");
    println!();

    let mut t = TextTable::new(vec![
        "cpus",
        "cycles",
        "ops",
        "evictions",
        "rejoins",
        "self-fences",
        "retried",
        "stolen",
        "sim time (ms)",
    ]);

    let sizes: &[usize] = if smoke { &[32] } else { &[32, 64, 128] };
    for &n in sizes {
        let outcomes = run_campaign(soak_schedules(&SoakConfig::new(n, 5, 7)));
        let failures = check_envelope(&outcomes);
        assert!(
            failures.is_empty(),
            "soak at {n} processors must survive a full rotation: {failures:?}"
        );
        let o = CampaignTotals::of(&outcomes);
        assert!(o.stats.evictions >= 4, "the halt shapes must evict: {o:?}");
        assert!(
            o.stats.ops_retried >= 1,
            "the failop shape must retry: {o:?}"
        );
        let sim_us: f64 = outcomes.iter().map(|c| c.end.as_micros_f64()).sum();
        t.add_row(vec![
            n.to_string(),
            outcomes.len().to_string(),
            o.ops.to_string(),
            o.stats.evictions.to_string(),
            o.stats.fenced_rejoins.to_string(),
            o.stats.self_fences.to_string(),
            o.stats.ops_retried.to_string(),
            o.stats.locks_stolen.to_string(),
            format!("{:.1}", sim_us / 1000.0),
        ]);
        report.push(
            BenchMetric::new(format!("soak/n{n}"), n as u64, "shootdown", 1, sim_us)
                .counter("ops", o.ops)
                .counter("evictions", o.stats.evictions)
                .counter("fenced_rejoins", o.stats.fenced_rejoins)
                .counter("self_fences", o.stats.self_fences)
                .counter("ops_retried", o.stats.ops_retried)
                .counter("locks_stolen", o.stats.locks_stolen),
        );
    }

    println!("{t}");
    println!("(sim time is the summed simulated end of all five cycles;");
    println!(" the machinery counters prove the faults actually fired)");

    let path = report.write().expect("bench report written");
    println!("wrote {}", path.display());
}
