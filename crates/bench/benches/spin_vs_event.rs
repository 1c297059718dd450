//! Event-driven waiting vs stepped spinning — the wall-clock payoff.
//!
//! The paper's algorithm makes processors *wait*: responders spin on pmap
//! locks, initiators spin on the active set, kernel operations spin on the
//! queue lock. On a 16-processor machine the stepped simulation of those
//! loops is tolerable; at Section 8 scale (256 processors, 255 responders
//! per shootdown) the host spends almost all of its time stepping 2350 ns
//! spin iterations that do nothing. The default machine parks those
//! processors on wait channels and charges the skipped iterations
//! analytically, producing the *bit-identical* simulated run (the
//! `spin_event_equivalence` suite holds that bar) at a fraction of the
//! host cost.
//!
//! This harness measures that payoff directly on the Section 8 scaling
//! point, against the same machine with `Machine::set_stepped_waits` on,
//! and asserts the ≥5x bar the conversion was built to clear.
//! Set `MACHTLB_SMOKE=1` for a seconds-scale run (32 processors, report
//! only — the speedup bar is meaningful at full scale and is not asserted).

use std::time::Instant;

use machtlb_bench::{scaled_costs, BenchMetric, BenchReport};
use machtlb_sim::{Dur, Time};
use machtlb_workloads::{
    build_workload_machine, install_tester, run_app, AppReport, AppShared, RunConfig, TesterConfig,
};

/// Runs the basic-cost tester point on the Section 8 scaling
/// configuration (scalable-interconnect bus above 16 processors, no
/// device noise; mirrors `sec8_scaling`), with the machine stepping every
/// spin iteration or parking its waiters, and returns (report, host
/// seconds).
fn timed_point(n_cpus: usize, stepped: bool) -> (AppReport, f64) {
    let config = RunConfig {
        n_cpus,
        seed: 900 + n_cpus as u64,
        costs: scaled_costs(n_cpus),
        kconfig: Default::default(),
        timer_flush_period: Dur::millis(5),
        device_period: None,
        limit: Time::from_micros(120_000_000),
    };
    let tcfg = TesterConfig {
        children: (n_cpus - 1) as u32,
        warmup_increments: 20,
    };
    let start = Instant::now();
    let mut m = build_workload_machine(&config, AppShared::None);
    m.set_stepped_waits(stepped);
    install_tester(&mut m, &tcfg);
    let (report, _) = run_app(&mut m, config.limit);
    let host = start.elapsed().as_secs_f64();
    let frozen = m.shared().tester().mismatch == Some(false);
    assert!(frozen && report.consistent, "n={n_cpus}");
    (report, host)
}

fn main() {
    let smoke = std::env::var_os("MACHTLB_SMOKE").is_some();
    let n_cpus = if smoke { 32 } else { 256 };
    println!("spin-vs-event: Section 8 basic-cost point, {n_cpus} processors");
    println!();

    let (stepped, stepped_s) = timed_point(n_cpus, true);
    let (event, event_s) = timed_point(n_cpus, false);

    // The two modes must be the same simulation, not merely similar.
    assert_eq!(
        stepped.runtime, event.runtime,
        "simulated runtime must match"
    );
    assert_eq!(stepped.stats, event.stats, "kernel stats must match");
    let (sh_s, sh_e) = (
        *stepped.user_initiators.first().expect("stepped shot"),
        *event.user_initiators.first().expect("event shot"),
    );
    assert_eq!(sh_s, sh_e, "the measured shootdown must match");

    let speedup = stepped_s / event_s;
    println!(
        "  shootdown: {} responders, {} elapsed",
        sh_s.processors, sh_s.elapsed
    );
    println!("  stepped spin loops: {stepped_s:>8.3} s host time");
    println!("  event-driven waits: {event_s:>8.3} s host time");
    println!("  => speedup {speedup:.1}x (simulated results bit-identical)");

    if smoke {
        println!();
        println!("(smoke mode: speedup bar not asserted at this scale)");
    } else {
        assert!(
            speedup >= 5.0,
            "event mode must be at least 5x faster at 256 processors, got {speedup:.1}x"
        );
    }

    // The baseline-checked headline is the simulated shootdown cost (host
    // speedup is machine-dependent and lives in stdout only).
    let mut report = BenchReport::new("spin_vs_event");
    report.push(
        BenchMetric::new(
            format!("basic_cost/n{n_cpus}"),
            n_cpus as u64,
            "shootdown",
            1,
            sh_e.elapsed.as_micros_f64(),
        )
        .counter("responders", u64::from(sh_e.processors))
        .counter("ipis_sent", event.stats.ipis_sent),
    );
    let path = report.write().expect("bench report written");
    println!("wrote {}", path.display());
}
