//! Section 3's technique 2 — timer-driven delayed flushing — implemented
//! and characterised. The technique is *correct* under its weaker
//! consistency model (a change takes effect only after every processor's
//! periodic flush), but the consistency tester observably sees counters
//! advance during the staleness window, and the background flushes pile up
//! TLB misses: exactly the trade-offs that made Mach choose shootdown.

use machtlb::core::{HasKernel, KernelConfig, Strategy};
use machtlb::sim::{Dur, Time};
use machtlb::workloads::{
    build_workload_machine, install_tester, run_machbuild, AppShared, MachBuildConfig, RunConfig,
    TesterConfig,
};

fn timer_config(seed: u64, period_ms: u64) -> RunConfig {
    RunConfig {
        n_cpus: 8,
        seed,
        kconfig: KernelConfig {
            strategy: Strategy::TimerDelayed,
            tlb: Strategy::TimerDelayed.multimax_tlb(),
            ..KernelConfig::default()
        },
        device_period: None,
        timer_flush_period: Dur::millis(period_ms),
        limit: Time::from_micros(60_000_000),
        ..RunConfig::multimax16(seed)
    }
}

#[test]
fn delayed_flush_is_consistent_under_its_own_model() {
    let config = timer_config(61, 2);
    let mut m = build_workload_machine(&config, AppShared::None);
    install_tester(
        &mut m,
        &TesterConfig {
            children: 4,
            warmup_increments: 30,
        },
    );
    let _ = m.run_bounded(Time::from_micros(20_000_000), 500_000_000);
    let s = m.shared();
    let t = s.tester();
    // The tester observes counters advancing after the reprotect returns:
    // that is the technique's staleness window, not a bug...
    assert_eq!(
        t.mismatch,
        Some(true),
        "the delayed technique must expose its staleness window to the tester"
    );
    // ...and the oracle (which models the deferred take-effect point)
    // records no violation.
    let kernel = HasKernel::kernel(s);
    assert!(
        kernel.checker.is_consistent(),
        "violations under the deferred model: {:?}",
        kernel
            .checker
            .violations()
            .iter()
            .take(3)
            .collect::<Vec<_>>()
    );
    // Every child eventually faults on a post-flush access and dies.
    assert_eq!(
        t.children_dead, 4,
        "children must die once their processor flushes"
    );
    // All deferred commits matured.
    assert!(
        kernel.pending_commits.is_empty(),
        "{} pending commits never matured",
        kernel.pending_commits.len()
    );
    assert!(kernel.stats.ipis_sent == 0, "the technique sends no IPIs");
}

#[test]
fn delayed_flush_runs_the_build_consistently_but_pays_in_flushes() {
    let cfg = MachBuildConfig {
        jobs: 8,
        compute_chunks: (4, 16),
        kernel_ops_per_job: (2, 5),
        ..MachBuildConfig::default()
    };
    let delayed = run_machbuild(&timer_config(71, 2), &cfg);
    assert!(delayed.consistent, "violations: {}", delayed.violations);

    let shootdown = {
        let mut c = timer_config(71, 2);
        c.kconfig = KernelConfig::default();
        run_machbuild(&c, &cfg)
    };
    assert!(shootdown.consistent);

    // The paper's reason for rejecting technique 2: "the additional buffer
    // flushes required ... can be expensive". Every processor flushes its
    // whole TLB every period, so flush counts and reload misses dwarf the
    // shootdown kernel's.
    assert!(
        delayed.tlb_flushes > shootdown.tlb_flushes * 5,
        "delayed flushing must flush far more ({} vs {})",
        delayed.tlb_flushes,
        shootdown.tlb_flushes
    );
    // (The extra reload *misses* only dominate once working sets stay hot
    // across flush periods; this short build's TLBs are mostly cold, so
    // the flush count is the robust signal here. The sec3 bench runs the
    // full-size build where the miss difference shows.)
    assert_eq!(delayed.stats.ipis_sent, 0);
}

#[test]
fn shorter_flush_period_shrinks_the_staleness_window() {
    // Children die when their processor flushes after the reprotect: the
    // time from reprotect to the last child's death is bounded by the
    // period. Compare quiescence times under 1 ms and 8 ms periods.
    let run_until_dead = |period_ms: u64| {
        let config = timer_config(91, period_ms);
        let mut m = build_workload_machine(&config, AppShared::None);
        install_tester(
            &mut m,
            &TesterConfig {
                children: 4,
                warmup_increments: 30,
            },
        );
        // Run until all children have died.
        let mut frontier = Time::ZERO;
        for _ in 0..10_000 {
            let r = m.run_bounded(Time::from_micros(60_000_000), 100_000);
            frontier = r.frontier;
            if m.shared().tester().children_dead == 4 {
                break;
            }
        }
        assert_eq!(
            m.shared().tester().children_dead,
            4,
            "period {period_ms} ms"
        );
        frontier
    };
    let fast = run_until_dead(1);
    let slow = run_until_dead(8);
    assert!(
        slow > fast,
        "a longer flush period must delay the take-effect point ({fast} !< {slow})"
    );
}
