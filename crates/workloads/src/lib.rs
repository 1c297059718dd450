//! # machtlb-workloads — the paper's evaluation programs
//!
//! The measurement workloads of *Translation Lookaside Buffer Consistency:
//! A Software Approach* (Black et al., ASPLOS 1989), as deterministic
//! models over the full kernel + VM simulation:
//!
//! - the Section 5.1 **consistency tester** — also the Figure 2 basic-cost
//!   instrument ([`run_tester`]);
//! - the four applications of Section 5.2, chosen to "typify the use of
//!   the Multimax": the **Mach kernel build** ([`run_machbuild`]),
//!   **Parthenon** ([`run_parthenon`]), **Agora** ([`run_agora`]), and
//!   **Camelot** ([`run_camelot`]), each reproducing the shootdown
//!   signature the paper reports for it (kernel-heavy, nearly none,
//!   bimodal, and user-pmap-heavy respectively).
//!
//! The common scheduler substrate ([`Dispatcher`], [`ThreadShell`]) binds
//! threads to processors, follows the kernel's idle protocol, and charges
//! context-switch costs; [`run_app`] runs any installed application on a
//! machine the caller built, and [`AppReport`] extracts the xpr
//! measurements every table is built from.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod agora;
pub mod camelot;
mod harness;
mod kernelops;
pub mod machbuild;
pub mod migrate;
pub mod pageout;
pub mod parthenon;
mod state;
pub mod tester;
mod thread;

pub use agora::{install_agora, run_agora, AgoraConfig, AgoraShared};
pub use camelot::{install_camelot, run_camelot, CamelotConfig, CamelotShared};
pub use harness::{
    build_workload_machine, run_app, run_until_done, AppReport, RunConfig, WlMachine,
};
pub use kernelops::KernelBufferOp;
pub use machbuild::{install_machbuild, run_machbuild, MachBuildConfig, MachBuildShared};
pub use migrate::{
    install_autonuma, install_migration_storm, run_migration_storm, AutoNumaConfig, AutoNumaDaemon,
    MigrationOutcome, MigrationStormConfig, MigrationWorker,
};
pub use pageout::{install_pageout, PageoutConfig, PageoutDaemon};
pub use parthenon::{install_parthenon, run_parthenon, ParthenonConfig, ParthenonShared};
pub use state::{AppShared, ThreadBox, WlState};
pub use tester::{install_tester, run_tester, TesterConfig, TesterOutcome, TesterShared};
pub use thread::{enqueue_thread, Dispatcher, ThreadShell};

#[cfg(test)]
mod tests {
    use super::*;
    use machtlb_core::Strategy;
    use machtlb_sim::{CostModel, Dur, Time};

    fn quick_config(n_cpus: usize, seed: u64) -> RunConfig {
        RunConfig {
            n_cpus,
            seed,
            costs: CostModel::multimax(),
            kconfig: Default::default(),
            timer_flush_period: machtlb_sim::Dur::millis(5),
            device_period: None,
            limit: Time::from_micros(60_000_000),
        }
    }

    #[test]
    fn tester_shoots_exactly_k_processors_and_stays_consistent() {
        for k in [1u32, 3, 7] {
            let out = run_tester(
                &quick_config(16, 100 + u64::from(k)),
                &TesterConfig {
                    children: k,
                    warmup_increments: 30,
                },
            );
            assert!(!out.mismatch, "k={k}: counters advanced after reprotect");
            assert!(out.report.consistent, "k={k}: oracle violations");
            assert_eq!(out.children_dead, k, "k={k}: all children die");
            let shot = out.shootdown.expect("one shootdown happened");
            assert_eq!(shot.processors, k, "exactly k processors shot");
            assert_eq!(out.report.user_initiators.len(), 1, "exactly one shootdown");
            assert_eq!(out.report.stats.shootdowns_user, 1);
        }
    }

    #[test]
    fn tester_under_naive_strategy_detects_the_inconsistency() {
        let mut config = quick_config(8, 42);
        config.kconfig.strategy = Strategy::NaiveFlush;
        // Under the naive strategy children never fault: they keep writing
        // through stale entries. Give the run a time bound and inspect.
        let mut m = build_workload_machine(&config, AppShared::None);
        install_tester(
            &mut m,
            &TesterConfig {
                children: 4,
                warmup_increments: 30,
            },
        );
        let _ = m.run_bounded(Time::from_micros(5_000_000), 200_000_000);
        let s = m.shared();
        let t = s.tester();
        assert_eq!(
            t.mismatch,
            Some(true),
            "the tester must observe counters advancing after the reprotect"
        );
        assert!(!s.sys.kernel.checker.is_consistent(), "the oracle agrees");
    }

    #[test]
    fn machbuild_produces_kernel_shootdowns_only() {
        let cfg = MachBuildConfig {
            jobs: 10,
            compute_chunks: (5, 20),
            kernel_ops_per_job: (3, 6),
            ..MachBuildConfig::default()
        };
        let report = run_machbuild(&quick_config(8, 7), &cfg);
        assert!(report.consistent, "violations: {}", report.violations);
        assert!(
            !report.kernel_initiators.is_empty(),
            "buffer deallocations must shoot"
        );
        assert!(
            report.user_initiators.is_empty(),
            "the build shares no user memory"
        );
    }

    #[test]
    fn machbuild_lazy_ablation_reduces_kernel_events() {
        let cfg = MachBuildConfig {
            jobs: 12,
            compute_chunks: (5, 20),
            kernel_ops_per_job: (4, 8),
            ..MachBuildConfig::default()
        };
        let lazy_on = run_machbuild(&quick_config(8, 11), &cfg);
        let mut config = quick_config(8, 11);
        config.kconfig.lazy_eval = false;
        let lazy_off = run_machbuild(&config, &cfg);
        assert!(lazy_on.consistent && lazy_off.consistent);
        assert!(
            lazy_off.kernel_initiators.len() > lazy_on.kernel_initiators.len(),
            "lazy evaluation must cut kernel shootdowns ({} !> {})",
            lazy_off.kernel_initiators.len(),
            lazy_on.kernel_initiators.len()
        );
    }

    #[test]
    fn parthenon_user_shootdowns_appear_only_without_lazy_eval() {
        let cfg = ParthenonConfig {
            workers: 6,
            runs: 2,
            initial_items: 15,
            compute_chunks: (2, 10),
            ..ParthenonConfig::default()
        };
        let lazy_on = run_parthenon(&quick_config(8, 5), &cfg);
        assert!(lazy_on.consistent);
        assert!(
            lazy_on.user_initiators.is_empty(),
            "stack guards are unmapped: lazy evaluation skips them"
        );
        let mut config = quick_config(8, 5);
        config.kconfig.lazy_eval = false;
        let lazy_off = run_parthenon(&config, &cfg);
        assert!(lazy_off.consistent);
        // Guard-page reprotects shoot whenever earlier workers of the run
        // are already attached: up to (workers - 1) per run, and at least
        // a solid majority once the startup gaps let workers land.
        let max = ((cfg.workers - 1) * cfg.runs) as usize;
        let got = lazy_off.user_initiators.len();
        assert!(
            got >= max / 2 && got <= max,
            "stack-guard reprotects become user shootdowns without lazy \
             evaluation (got {got}, expected within [{}, {max}])",
            max / 2
        );
    }

    #[test]
    fn agora_kernel_shootdowns_are_bimodal() {
        let cfg = AgoraConfig {
            workers: 6,
            runs: 3,
            setup_ops: 8,
            wave_steps: 10,
            ..AgoraConfig::default()
        };
        let report = run_agora(&quick_config(8, 9), &cfg);
        assert!(report.consistent, "violations: {}", report.violations);
        let procs: Vec<u32> = report
            .kernel_initiators
            .iter()
            .map(|r| r.processors)
            .collect();
        let big = procs.iter().filter(|&&p| p >= cfg.workers - 1).count();
        let small = procs.iter().filter(|&&p| p <= 2).count();
        assert!(
            big >= cfg.setup_ops as usize / 2,
            "setup shootdowns hit the spinning workers: {procs:?}"
        );
        assert!(small >= 1, "inter-run shootdowns are small: {procs:?}");
    }

    #[test]
    fn camelot_causes_user_shootdowns() {
        let cfg = CamelotConfig {
            clients: 3,
            server_threads: 2,
            transactions_per_client: 4,
            db_pages: 48,
            ..CamelotConfig::default()
        };
        let report = run_camelot(&quick_config(8, 13), &cfg);
        assert!(report.consistent, "violations: {}", report.violations);
        assert!(
            !report.user_initiators.is_empty(),
            "virtual copies must shoot the server's processors"
        );
        // The shootdowns hit at most the server's processors.
        for r in &report.user_initiators {
            assert!(r.processors <= cfg.server_threads);
        }
        assert!(report.vm_stats.cow_copies > 0, "transactions copy on write");
    }

    #[test]
    fn runs_are_deterministic() {
        let out1 = run_tester(&quick_config(8, 77), &TesterConfig::default());
        let out2 = run_tester(&quick_config(8, 77), &TesterConfig::default());
        let e1 = out1.shootdown.expect("shootdown").elapsed;
        let e2 = out2.shootdown.expect("shootdown").elapsed;
        assert_eq!(e1, e2, "same seed, same measurement");
        assert_eq!(out1.report.runtime, out2.report.runtime);
    }

    #[test]
    fn dispatcher_runs_queued_threads_and_idles_between() {
        use machtlb_core::HasKernel;
        use machtlb_sim::{Ctx, Process, Step};

        #[derive(Debug)]
        struct Tick(u32);
        impl Process<WlState, ()> for Tick {
            fn step(&mut self, ctx: &mut Ctx<'_, WlState, ()>) -> Step {
                if self.0 == 0 {
                    ctx.shared.scratch += 1;
                    Step::Done(Dur::micros(1))
                } else {
                    self.0 -= 1;
                    Step::Run(Dur::micros(5))
                }
            }
        }

        let config = quick_config(2, 1);
        let mut m = build_workload_machine(&config, AppShared::None);
        for _ in 0..3 {
            m.shared_mut()
                .push_thread(machtlb_sim::CpuId::new(1), Box::new(Tick(4)));
        }
        let r = m.run_bounded(Time::from_micros(100_000), 1_000_000);
        assert_eq!(r.status, machtlb_sim::RunStatus::Quiescent);
        let s = m.shared();
        assert_eq!(s.scratch, 3, "all queued threads ran");
        // The processor re-entered the idle set afterwards.
        assert!(s.kernel().idle.contains(machtlb_sim::CpuId::new(1)));
        assert!(!s.kernel().active.contains(machtlb_sim::CpuId::new(1)));
    }

    #[test]
    fn enqueue_thread_wakes_a_parked_dispatcher() {
        use machtlb_sim::{Ctx, Process, Step};

        #[derive(Debug)]
        struct Poker {
            sent: bool,
        }
        impl Process<WlState, ()> for Poker {
            fn step(&mut self, ctx: &mut Ctx<'_, WlState, ()>) -> Step {
                if self.sent {
                    return Step::Done(Dur::micros(1));
                }
                self.sent = true;
                #[derive(Debug)]
                struct Mark;
                impl Process<WlState, ()> for Mark {
                    fn step(&mut self, ctx: &mut Ctx<'_, WlState, ()>) -> Step {
                        ctx.shared.done_flag = true;
                        Step::Done(Dur::micros(1))
                    }
                }
                let cost = enqueue_thread(ctx, machtlb_sim::CpuId::new(1), Box::new(Mark));
                Step::Run(cost)
            }
        }

        let config = quick_config(2, 2);
        let mut m = build_workload_machine(&config, AppShared::None);
        // The target dispatcher parks long before the poke arrives.
        m.shared_mut()
            .push_thread(machtlb_sim::CpuId::new(0), Box::new(Poker { sent: false }));
        let r = m.run_bounded(Time::from_micros(100_000), 1_000_000);
        assert_eq!(r.status, machtlb_sim::RunStatus::Quiescent);
        assert!(
            m.shared().done_flag,
            "the resched poke must wake cpu1's dispatcher"
        );
    }

    #[test]
    fn device_interrupts_do_not_break_consistency() {
        let mut config = quick_config(8, 3);
        config.device_period = Some(Dur::millis(2));
        let out = run_tester(
            &config,
            &TesterConfig {
                children: 5,
                warmup_increments: 30,
            },
        );
        assert!(!out.mismatch);
        assert!(out.report.consistent);
    }
}
