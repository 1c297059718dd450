//! Every consistency-preserving strategy must keep every workload
//! consistent — the algorithm-level guarantee of Section 4, checked by the
//! oracle across the strategy matrix.

use machtlb::core::{KernelConfig, Strategy};
use machtlb::sim::Time;
use machtlb::workloads::{
    run_camelot, run_machbuild, run_tester, CamelotConfig, MachBuildConfig, RunConfig, TesterConfig,
};

fn kconfig_for(strategy: Strategy) -> KernelConfig {
    KernelConfig {
        strategy,
        tlb: strategy.multimax_tlb(),
        ..KernelConfig::default()
    }
}

fn config(strategy: Strategy, seed: u64) -> RunConfig {
    RunConfig {
        n_cpus: 8,
        seed,
        kconfig: kconfig_for(strategy),
        device_period: None,
        limit: Time::from_micros(60_000_000),
        ..RunConfig::multimax16(seed)
    }
}

const CORRECT_STRATEGIES: [Strategy; 4] = [
    Strategy::Shootdown,
    Strategy::BroadcastIpi,
    Strategy::NoStallSoftwareReload,
    Strategy::HardwareRemoteInvalidate,
];

#[test]
fn tester_is_consistent_under_every_correct_strategy() {
    for strategy in CORRECT_STRATEGIES {
        let out = run_tester(
            &config(strategy, 31),
            &TesterConfig {
                children: 5,
                warmup_increments: 30,
            },
        );
        assert!(
            !out.mismatch,
            "{strategy}: counters advanced after reprotect"
        );
        assert!(out.report.consistent, "{strategy}: oracle violations");
        assert_eq!(out.children_dead, 5, "{strategy}: children must die");
    }
}

#[test]
fn machbuild_is_consistent_under_every_correct_strategy() {
    let cfg = MachBuildConfig {
        jobs: 8,
        compute_chunks: (4, 16),
        kernel_ops_per_job: (2, 5),
        ..MachBuildConfig::default()
    };
    for strategy in CORRECT_STRATEGIES {
        let report = run_machbuild(&config(strategy, 33), &cfg);
        assert!(
            report.consistent,
            "{strategy}: {} violations during the build",
            report.violations
        );
    }
}

#[test]
fn camelot_is_consistent_under_every_correct_strategy() {
    let cfg = CamelotConfig {
        clients: 3,
        server_threads: 2,
        transactions_per_client: 5,
        db_pages: 48,
        ..CamelotConfig::default()
    };
    for strategy in CORRECT_STRATEGIES {
        let report = run_camelot(&config(strategy, 35), &cfg);
        assert!(
            report.consistent,
            "{strategy}: {} violations during transactions",
            report.violations
        );
        // Client writes to virtually-copied ranges resolve into private
        // pages — by chain copy when the snapshot holds data, by zero
        // fill otherwise.
        assert!(
            report.vm_stats.cow_copies + report.vm_stats.zero_fills > 0,
            "{strategy}: COW must exercise"
        );
    }
}

#[test]
fn naive_strategy_is_refuted_by_the_oracle() {
    // The strawman of Section 3 must fail, or the oracle is vacuous.
    use machtlb::workloads::{build_workload_machine, install_tester, AppShared};
    let mut c = config(Strategy::NaiveFlush, 37);
    c.kconfig = KernelConfig {
        strategy: Strategy::NaiveFlush,
        ..KernelConfig::default()
    };
    let mut m = build_workload_machine(&c, AppShared::None);
    install_tester(
        &mut m,
        &TesterConfig {
            children: 4,
            warmup_increments: 30,
        },
    );
    let _ = m.run_bounded(Time::from_micros(3_000_000), 200_000_000);
    let kernel = machtlb::core::HasKernel::kernel(m.shared());
    assert!(
        !kernel.checker.is_consistent(),
        "the oracle must catch the naive strategy"
    );
}
