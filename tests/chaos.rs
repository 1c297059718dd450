//! The chaos suite's end-to-end guarantees: the two-sided envelope holds
//! across seeds, fault campaigns replay bit for bit, and the naive
//! strategy is caught on every seed of a wide machine.

use machtlb::core::{
    chaos_kconfig, chaos_schedules, check_envelope, plan_catalog, run_campaign, run_chaos,
    run_schedule, ChaosConfig, FaultSchedule, KernelConfig, Strategy, Survival,
};
use machtlb::sim::Topology;

/// The fault-free run on `n_cpus` processors with no injector installed
/// at all.
fn bare(n_cpus: usize, seed: u64) -> ChaosConfig {
    let shape = FaultSchedule {
        seed,
        n_cpus,
        ..FaultSchedule::default()
    };
    ChaosConfig {
        plan: None,
        ..shape.compile()
    }
}

/// A responder halted mid-dispatch, with and without the health monitor:
/// the monitor's eviction turns an unrecovered watchdog give-up (caught,
/// but paid for again on every later shootdown) into a single eviction
/// after which the dead processor is out of every quorum. The same plan,
/// seed, and bounds separate the two kernels.
#[test]
fn eviction_recovers_what_a_dead_responder_costs_forever() {
    let plan = plan_catalog(4)
        .into_iter()
        .find(|p| p.name == "halt-resp-preack")
        .expect("catalog has the pre-ack halt plan");
    let plan = FaultSchedule { seed: 3, ..plan };

    let mut unhealthy = plan.compile();
    unhealthy.kconfig.health.enabled = false;
    let bare = run_chaos(&unhealthy);
    assert_eq!(bare.stats.evictions, 0);
    assert!(bare.stats.watchdog_gaveup >= 1, "{bare:?}");
    assert_eq!(
        bare.survival,
        Survival::DetectedFatal,
        "an unabsorbed give-up must be caught, not silently survived: {bare:?}"
    );

    let hardened = run_schedule(&plan);
    assert!(hardened.completed, "{hardened:?}");
    assert_eq!(hardened.survival, Survival::Degraded, "{hardened:?}");
    assert_eq!(hardened.violations, 0);
    assert_eq!(hardened.stats.evictions, 1, "{hardened:?}");
    // After the eviction the dead processor is no longer consulted, so
    // the hardened kernel pays the give-up horizon once, not per round.
    assert_eq!(hardened.stats.watchdog_gaveup, 1, "{hardened:?}");
}

/// The full catalog across several seeds: every tolerable plan survives
/// (possibly degraded), every beyond-envelope plan is caught. This is the
/// headline robustness claim — a silent pass on either side fails.
#[test]
fn chaos_matrix_is_two_sided_green() {
    let outcomes = run_campaign(chaos_schedules(4, &[1, 2, 3], 3, Topology::default()));
    let bad = check_envelope(&outcomes);
    assert!(bad.is_empty(), "envelope violated:\n{}", bad.join("\n"));
    // And the matrix genuinely exercised both sides.
    assert!(outcomes
        .iter()
        .any(|o| o.survival == Survival::Degraded && o.tolerable()));
    assert!(outcomes
        .iter()
        .any(|o| o.survival == Survival::DetectedFatal && !o.tolerable()));
}

/// Same seed + same fault plan => bit-identical clocks, statistics, bus
/// traffic, and verdict. Chaos runs keep the repo's replay guarantee.
#[test]
fn chaos_campaigns_replay_bit_identically() {
    for plan in chaos_schedules(4, &[13], 3, Topology::default()) {
        let a = run_schedule(&plan);
        let b = run_schedule(&plan);
        assert_eq!(a, b, "plan {} must replay exactly", plan.name);
    }
}

/// Injection disabled costs nothing: a machine with no injector installed
/// and one with an all-rules-off plan agree on every clock edge.
#[test]
fn disabled_injection_is_simulated_time_neutral() {
    let plan = plan_catalog(4)
        .into_iter()
        .find(|p| p.name == "none")
        .expect("catalog has the none plan");
    for seed in [1, 7, 23] {
        let bare = run_chaos(&bare(4, seed));
        let none = run_schedule(&FaultSchedule {
            seed,
            ..plan.clone()
        });
        assert_eq!(bare.clocks, none.clocks, "seed {seed}: clocks moved");
        assert_eq!(bare.stats, none.stats, "seed {seed}: counters moved");
        assert_eq!(bare.bus, none.bus, "seed {seed}: bus traffic moved");
        assert_eq!(bare.steps, none.steps, "seed {seed}: steps moved");
        assert_eq!(bare.end, none.end, "seed {seed}: end time moved");
    }
}

/// The oracle's teeth at scale: on a 32-processor machine the naive
/// strategy (flush locally, tell no one) must be caught using stale
/// translations on *every* seed — zero violations on any seed would mean
/// the checker can be dodged by luck.
#[test]
fn naive_strategy_violates_on_every_seed_at_32_cpus() {
    for seed in [1, 2, 3] {
        let cfg = ChaosConfig {
            kconfig: KernelConfig {
                strategy: Strategy::NaiveFlush,
                ..chaos_kconfig()
            },
            ..bare(32, seed)
        };
        let o = run_chaos(&cfg);
        assert!(
            o.violations >= 1,
            "seed {seed}: naive flush went uncaught ({o:?})"
        );
        assert_eq!(
            o.survival,
            Survival::DetectedFatal,
            "seed {seed}: violations must classify as caught"
        );
    }
}
