//! The published-round watchdog, pinned run for run.
//!
//! At fan-out 4 every shootdown of the chaos workload is a multicast
//! round, so a lost or unanswered delivery is recovered by the round
//! watchdog rather than the unicast one. Three catalog runs cover its
//! branches: `ipi-drop` exercises the re-send (retry) branch and recovers
//! without giving up; `halt-resp-preack` exhausts the retries on a dead
//! responder and evicts it; the same plan with the health monitor off
//! takes the give-up branch that excuses the straggler from the round
//! instead. Each run's counters, scheduler steps and end instant are
//! pinned exactly, so any change to the timeline of those branches fails
//! here.

use machtlb::core::{plan_catalog, run_chaos, ChaosOutcome, FaultSchedule, Survival};
use machtlb::sim::Time;

/// The catalog's `name` plan on 8 processors at fan-out 4, run with the
/// health monitor on or off.
fn run(name: &str, health: bool) -> ChaosOutcome {
    let plan = plan_catalog(8)
        .into_iter()
        .find(|p| p.name == name)
        .expect("the catalog names the plan");
    let mut cfg = FaultSchedule { fanout: 4, ..plan }.compile();
    cfg.kconfig.health.enabled = health;
    run_chaos(&cfg)
}

#[test]
fn lost_multicast_deliveries_are_resent_by_the_round_watchdog() {
    let o = run("ipi-drop", true);
    assert_eq!(o.survival, Survival::Degraded, "{o:?}");
    assert!(o.completed, "{o:?}");
    assert_eq!(o.violations, 0);
    assert_eq!(o.stats.multicast_rounds, 6, "{o:?}");
    assert_eq!(o.stats.ipi_retries, 5, "{o:?}");
    assert_eq!(o.stats.watchdog_gaveup, 0, "{o:?}");
    assert_eq!(o.stats.evictions, 0, "{o:?}");
    assert_eq!(o.stats.round_excused, 0, "{o:?}");
    assert_eq!(o.steps, 26_577);
    assert_eq!(o.end, Time::from_nanos(50_218_488));
}

#[test]
fn a_dead_round_target_is_evicted_once_its_retries_run_out() {
    let o = run("halt-resp-preack", true);
    assert_eq!(o.survival, Survival::Degraded, "{o:?}");
    assert!(o.completed, "{o:?}");
    assert_eq!(o.violations, 0);
    assert_eq!(o.stats.multicast_rounds, 6, "{o:?}");
    assert_eq!(o.stats.ipi_retries, 3, "{o:?}");
    assert_eq!(o.stats.watchdog_gaveup, 1, "{o:?}");
    assert_eq!(o.stats.evictions, 1, "{o:?}");
    assert_eq!(o.stats.unrecovered(), 0, "{o:?}");
    assert_eq!(o.steps, 227_548);
    assert_eq!(o.end, Time::from_nanos(80_485_100));
}

#[test]
fn without_health_tracking_a_dead_round_target_is_excused() {
    let o = run("halt-resp-preack", false);
    // Excusing is not recovery: every later round gives up on the corpse
    // again, and the run is caught rather than survived.
    assert_eq!(o.survival, Survival::DetectedFatal, "{o:?}");
    assert!(!o.completed, "{o:?}");
    assert_eq!(o.violations, 0);
    assert_eq!(o.stats.evictions, 0, "{o:?}");
    assert!(o.stats.round_excused >= 1, "{o:?}");
    assert_eq!(o.stats.round_excused, 5, "{o:?}");
    assert_eq!(o.stats.watchdog_gaveup, 5, "{o:?}");
    assert_eq!(o.stats.ipi_retries, 18, "{o:?}");
    assert_eq!(o.steps, 1_139_019);
    assert_eq!(o.end, Time::from_nanos(437_800_050));
}
