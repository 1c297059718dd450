//! Fuzz throughput: how many adversarial schedules can a campaign burn
//! through, and what do they cost to simulate?
//!
//! The fuzzer's value scales with schedules per second: a campaign that
//! slows down explores fewer interleavings for the same CI budget. This
//! harness runs a seeded campaign per machine size, reports the host
//! throughput (schedules/sec — informational, machine-dependent) and
//! holds the *deterministic* half against the committed baseline: the
//! summed simulated end time of every run, plus the coverage counters
//! that prove the generator is still producing compound schedules (a
//! fuzzer that silently stops generating a fault class looks green for
//! the wrong reason).
//!
//! Every campaign must be green — schedules inside the tolerable
//! envelope with recovery enabled are survivable by contract, and a red
//! here is a correctness bug, not a perf regression.
//!
//! `MACHTLB_SMOKE` runs the CI subset: six schedules at 8 processors.
//! The full run fuzzes the 32/48/64 acceptance band.

use machtlb_bench::{BenchMetric, BenchReport};
use machtlb_core::{check_envelope, fuzz_schedules, run_campaign, Coverage, FuzzConfig};
use machtlb_xpr::TextTable;

fn main() {
    let smoke = std::env::var_os("MACHTLB_SMOKE").is_some();
    let mut report = BenchReport::new("fuzz_throughput");

    println!("fuzz throughput: seeded adversarial schedule campaigns");
    println!();

    let mut t = TextTable::new(vec![
        "cpus",
        "schedules",
        "events",
        "wrongful",
        "rejoiners",
        "sched/sec",
        "sim time (ms)",
    ]);

    // (label, n_cpus, budget): 0 cpus rotates the 32/48/64 band.
    let points: &[(&str, usize, u64)] = if smoke {
        &[("n8", 8, 6)]
    } else {
        &[("n8", 8, 24), ("band", 0, 12)]
    };
    for &(label, n_cpus, budget) in points {
        let cfg = FuzzConfig {
            seed: 1,
            budget,
            n_cpus,
            rounds: 2,
        };
        let started = std::time::Instant::now();
        let outcomes = run_campaign(fuzz_schedules(&cfg));
        let host = started.elapsed();
        let failures = check_envelope(&outcomes);
        assert!(
            failures.is_empty(),
            "a tolerable-envelope campaign must be green: {failures:?}"
        );
        let c = &Coverage::of(&outcomes);
        assert!(c.events > 0, "the generator stopped generating: {c:?}");
        assert!(
            c.wrongful_stalls + c.rejoiner_victims > 0,
            "no recovery-path coverage at {label}: {c:?}"
        );
        // Truncated per run to whole microseconds, as the baseline was.
        let sim_us: u64 = outcomes.iter().map(|o| o.end.as_micros_f64() as u64).sum();
        let per_sec = budget as f64 / host.as_secs_f64().max(1e-9);
        t.add_row(vec![
            if n_cpus == 0 {
                "32/48/64".into()
            } else {
                n_cpus.to_string()
            },
            budget.to_string(),
            c.events.to_string(),
            c.wrongful_stalls.to_string(),
            c.rejoiner_victims.to_string(),
            format!("{per_sec:.2}"),
            format!("{:.1}", sim_us as f64 / 1000.0),
        ]);
        report.push(
            BenchMetric::new(
                format!("fuzz/{label}"),
                n_cpus.max(1) as u64,
                "shootdown",
                1,
                sim_us as f64,
            )
            .counter("schedules", c.schedules)
            .counter("events", c.events)
            .counter("wrongful_stalls", c.wrongful_stalls)
            .counter("rejoiner_victims", c.rejoiner_victims)
            .counter("tolerated", c.survivals[0])
            .counter("degraded", c.survivals[1]),
        );
    }

    println!("{t}");
    println!("(sched/sec is host wall clock, informational only; the baseline");
    println!(" holds the summed simulated time and the coverage counters)");

    let path = report.write().expect("bench report written");
    println!("wrote {}", path.display());
}
