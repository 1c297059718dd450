//! # machtlb-core — the Mach TLB shootdown algorithm
//!
//! The primary contribution of *Translation Lookaside Buffer Consistency: A
//! Software Approach* (Black, Rashid, Golub, Hill, Baron — ASPLOS 1989),
//! reproduced as executable state machines over the `machtlb-sim`
//! multiprocessor:
//!
//! - [`PmapOpProcess`] — the **initiator** (Figure 1): queue consistency
//!   actions, interrupt the processors using the pmap, synchronize, update
//!   the physical map, unlock;
//! - [`ResponderProcess`] — the **responder** interrupt service routine:
//!   acknowledge by leaving the active set, stall until the update
//!   completes, then invalidate the queued ranges;
//! - [`ExitIdleProcess`] / [`enter_idle`] — the idle-processor optimisation
//!   (idle processors get queued actions but no interrupts);
//! - [`try_access`] — the translated memory-access path with the Section 3
//!   hardware hazards (autonomous reload, non-interlocked
//!   referenced/modified writeback);
//! - [`Checker`] — the oracle that makes the Section 4 guarantee testable:
//!   *no inconsistent TLB entry is used after the operation completes*;
//! - [`Strategy`] — the paper's algorithm next to the naive strawman and
//!   the Section 9 hardware-assisted variants.
//!
//! # Examples
//!
//! A two-processor shootdown, end to end:
//!
//! ```
//! use machtlb_core::{
//!     build_kernel_machine, KernelConfig, PmapOp, PmapOpProcess,
//! };
//! use machtlb_pmap::{PageRange, Pfn, Prot, Vpn};
//! use machtlb_sim::{CostModel, CpuId, Time};
//!
//! let mut m = build_kernel_machine(2, 42, CostModel::multimax(), KernelConfig::default());
//! // Seed a user pmap with one read-write page, in use on cpu1.
//! let (pmap, vpn) = {
//!     let s = m.shared_mut();
//!     let pmap = s.pmaps.create();
//!     let vpn = Vpn::new(0x100);
//!     s.seed_mapping(pmap, vpn, Pfn::new(7), Prot::READ_WRITE);
//!     s.pmaps.get_mut(pmap).mark_in_use(CpuId::new(1));
//!     s.force_active(CpuId::new(0));
//!     s.force_active(CpuId::new(1));
//!     (pmap, vpn)
//! };
//! // cpu0 reprotects the page read-only: a shootdown reaches cpu1.
//! let op = PmapOpProcess::new(pmap, PmapOp::Protect {
//!     range: PageRange::single(vpn),
//!     prot: Prot::READ,
//! });
//! m.spawn_at(CpuId::new(0), Time::ZERO, Box::new(op));
//! m.run(Time::from_micros(100_000));
//! let s = m.shared();
//! assert_eq!(s.stats.shootdowns_user, 1);
//! assert_eq!(s.stats.ipis_sent, 1);
//! assert!(s.checker.is_consistent());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod access;
mod chaos;
mod checker;
mod diagnose;
mod fuzz;
mod health;
mod kernel;
mod op;
mod queue;
mod responder;
mod schedule;
mod soak;
mod state;
mod strategy;

pub use access::{try_access, AccessOutcome, MemOp};
pub use chaos::{
    campaign_json, chaos_kconfig, chaos_schedules, check_envelope, plan_catalog, run_chaos,
    run_chaos_with, CampaignTotals, ChaosConfig, ChaosOutcome, Survival,
};
pub use checker::{Checker, Violation};
pub use diagnose::stall_report;
pub use fuzz::{
    fuzz_schedules, generate_schedule, is_red, shrink, Coverage, FuzzConfig, ShrinkReport,
    SplitMix64,
};
pub use health::{
    evict, reclaim_dead_locks, EvictionReport, FencedRejoinProcess, HealthConfig, RecoveryPolicy,
};
pub use kernel::{
    build_kernel_machine, install_kernel_handlers, schedule_device_interrupts,
    schedule_timer_flushes, DeviceHandler, KernelMachine, NopHandler, SwitchUserPmapProcess,
    TimerFlushHandler, DEVICE_VECTOR, RESCHED_VECTOR, SHOOTDOWN_VECTOR, TIMER_FLUSH_VECTOR,
};
pub use op::{FailOpDriver, OpOutcome, PmapOp, PmapOpProcess};
pub use queue::{Action, ActionQueue, EnqueueOutcome};
pub use responder::{enter_idle, ExitIdleProcess, ResponderProcess};
pub use schedule::{
    offline_floor_us, parse_schedule, revive_floor_us, run_campaign, run_schedule,
    schedule_from_json, schedule_json, FaultSchedule, ScheduleEvent, MAX_SCHEDULE_CPUS,
    WRONGFUL_STALL_US,
};
pub use soak::{soak_cycle_schedule, soak_exhaustion_schedule, soak_schedules, SoakConfig};
pub use state::{
    queue_lock_channel, FrameAllocator, HasKernel, KernelConfig, KernelState, KernelStats,
    NodeCounters, PendingCommit, PhysMem, PmapRegistry, ShootdownRound, WatchdogConfig,
    WatchdogReport, SYNC_CHANNEL, WORDS_PER_PAGE,
};
pub use strategy::{Strategy, StrategyHardwareError};

use machtlb_sim::{Ctx, Dur, Process, Step};

/// Outcome of driving an embedded child state machine one step.
#[derive(Debug)]
pub enum Driven {
    /// The child yielded: return this step from the parent.
    Yield(Step),
    /// The child finished; its final action cost this much.
    Finished(Dur),
}

/// Drives an embedded child process one step — the composition idiom used
/// by threads that execute kernel operations (e.g. a user thread driving a
/// [`PmapOpProcess`] for a system call).
pub fn drive<S, P>(child: &mut P, ctx: &mut Ctx<'_, S, ()>) -> Driven
where
    P: Process<S, ()> + ?Sized,
{
    match child.step(ctx) {
        Step::Done(d) => Driven::Finished(d),
        other => Driven::Yield(other),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use machtlb_pmap::{PageRange, Pfn, PmapId, Prot, Vaddr, Vpn};
    use machtlb_sim::{CostModel, CpuId, RunStatus, Time};

    /// A thread bound to one processor: exits idle, attaches a user pmap,
    /// then increments a counter word in a tight loop until it takes an
    /// unrecoverable fault — the Section 5.1 consistency-test child in
    /// miniature.
    #[derive(Debug)]
    struct Toucher {
        pmap: PmapId,
        va: Vaddr,
        counter: u64,
        exit_idle: Option<ExitIdleProcess>,
        switch: Option<SwitchUserPmapProcess>,
    }

    impl Toucher {
        fn new(pmap: PmapId, va: Vaddr) -> Toucher {
            Toucher {
                pmap,
                va,
                counter: 0,
                exit_idle: Some(ExitIdleProcess::new()),
                switch: None,
            }
        }
    }

    impl Process<KernelState, ()> for Toucher {
        fn step(&mut self, ctx: &mut Ctx<'_, KernelState, ()>) -> Step {
            if let Some(exit) = self.exit_idle.as_mut() {
                return match drive(exit, ctx) {
                    Driven::Yield(s) => s,
                    Driven::Finished(d) => {
                        self.exit_idle = None;
                        self.switch = Some(SwitchUserPmapProcess::new(Some(self.pmap)));
                        Step::Run(d)
                    }
                };
            }
            if let Some(sw) = self.switch.as_mut() {
                return match drive(sw, ctx) {
                    Driven::Yield(s) => s,
                    Driven::Finished(d) => {
                        self.switch = None;
                        Step::Run(d)
                    }
                };
            }
            self.counter += 1;
            match try_access(ctx, self.pmap, self.va, MemOp::Write(self.counter)) {
                AccessOutcome::Ok { cost, .. } => Step::Run(cost),
                AccessOutcome::Stall { cost } => Step::Run(cost),
                AccessOutcome::Fault { cost } => Step::Done(cost),
            }
        }

        fn label(&self) -> &'static str {
            "toucher"
        }
    }

    /// Exits idle, waits for the target counter to reach a threshold, then
    /// runs a pmap operation.
    #[derive(Debug)]
    struct Operator {
        pmap: PmapId,
        op: Option<PmapOp>,
        watch_pfn: Pfn,
        threshold: u64,
        exit_idle: Option<ExitIdleProcess>,
        running: Option<PmapOpProcess>,
    }

    impl Operator {
        fn new(pmap: PmapId, op: PmapOp, watch_pfn: Pfn, threshold: u64) -> Operator {
            Operator {
                pmap,
                op: Some(op),
                watch_pfn,
                threshold,
                exit_idle: Some(ExitIdleProcess::new()),
                running: None,
            }
        }
    }

    impl Process<KernelState, ()> for Operator {
        fn step(&mut self, ctx: &mut Ctx<'_, KernelState, ()>) -> Step {
            if let Some(exit) = self.exit_idle.as_mut() {
                return match drive(exit, ctx) {
                    Driven::Yield(s) => s,
                    Driven::Finished(d) => {
                        self.exit_idle = None;
                        Step::Run(d)
                    }
                };
            }
            if self.running.is_none() {
                if ctx.shared.mem.read_word(self.watch_pfn, 0) < self.threshold {
                    return Step::Run(ctx.costs().spin_iter);
                }
                self.running = Some(PmapOpProcess::new(
                    self.pmap,
                    self.op.take().expect("op consumed once"),
                ));
            }
            let op = self.running.as_mut().expect("set above");
            match drive(op, ctx) {
                Driven::Yield(s) => s,
                Driven::Finished(d) => Step::Done(d),
            }
        }

        fn label(&self) -> &'static str {
            "operator"
        }
    }

    struct Scenario {
        m: KernelMachine,
        pmap: PmapId,
        vpn: Vpn,
        pfn: Pfn,
    }

    /// Builds an n-cpu machine with one user pmap holding a read-write
    /// counter page, touchers on cpus 1..n, and the operator on cpu0.
    fn scenario(n_cpus: usize, kconfig: KernelConfig, op: impl Fn(Vpn) -> PmapOp) -> Scenario {
        let mut m = build_kernel_machine(n_cpus, 7, CostModel::multimax(), kconfig);
        let vpn = Vpn::new(0x40);
        let (pmap, pfn) = {
            let s = m.shared_mut();
            let pmap = s.pmaps.create();
            let pfn = s.frames.alloc();
            s.seed_mapping(pmap, vpn, pfn, Prot::READ_WRITE);
            (pmap, pfn)
        };
        let va = vpn.base();
        for c in 1..n_cpus {
            m.spawn_at(
                CpuId::new(c as u32),
                Time::ZERO,
                Box::new(Toucher::new(pmap, va)),
            );
        }
        m.spawn_at(
            CpuId::new(0),
            Time::ZERO,
            Box::new(Operator::new(pmap, op(vpn), pfn, 20)),
        );
        Scenario { m, pmap, vpn, pfn }
    }

    #[test]
    fn shootdown_reprotect_is_consistent_and_fatal_to_writers() {
        let mut sc = scenario(4, KernelConfig::default(), |vpn| PmapOp::Protect {
            range: PageRange::single(vpn),
            prot: Prot::READ,
        });
        let r = sc.m.run_bounded(Time::from_micros(1_000_000), 5_000_000);
        assert_eq!(r.status, RunStatus::Quiescent, "all threads fault and stop");
        let s = sc.m.shared();
        assert!(
            s.checker.is_consistent(),
            "violations: {:?}",
            s.checker.violations()
        );
        assert!(
            s.checker.checks() > 0,
            "the oracle must have been exercised"
        );
        assert_eq!(s.stats.shootdowns_user, 1);
        assert_eq!(s.stats.ipis_sent, 3, "three touchers were shot at");
        let inits = s.initiator_records();
        assert_eq!(inits.len(), 1);
        assert_eq!(inits[0].processors, 3);
        assert_eq!(inits[0].pages, 1);
        let resps = s.responder_records();
        assert_eq!(resps.len(), 3);
        // The page table now says read-only.
        assert_eq!(s.pmaps.get(sc.pmap).table().get(sc.vpn).prot, Prot::READ);
        // Counters stopped advancing at some positive value.
        assert!(s.mem.read_word(sc.pfn, 0) >= 20);
    }

    #[test]
    fn multicast_shootdown_reprotect_is_consistent() {
        let kconfig = KernelConfig {
            fanout: 4,
            ..KernelConfig::default()
        };
        let mut sc = scenario(8, kconfig, |vpn| PmapOp::Protect {
            range: PageRange::single(vpn),
            prot: Prot::READ,
        });
        let r = sc.m.run_bounded(Time::from_micros(1_000_000), 5_000_000);
        assert_eq!(r.status, RunStatus::Quiescent, "all threads fault and stop");
        let s = sc.m.shared();
        assert!(
            s.checker.is_consistent(),
            "violations: {:?}",
            s.checker.violations()
        );
        assert_eq!(s.stats.shootdowns_user, 1);
        assert_eq!(s.stats.multicast_rounds, 1);
        assert_eq!(s.pmaps.get(sc.pmap).table().get(sc.vpn).prot, Prot::READ);
        assert!(s.mem.read_word(sc.pfn, 0) >= 20);
    }

    /// Builds an n-cpu machine where `n_ops` operators (cpus 0..n_ops)
    /// each reprotect a distinct page of the same pmap, triggered by the
    /// same toucher counter so they collide on the pmap lock.
    fn batched_scenario(n_cpus: usize, n_ops: usize, kconfig: KernelConfig) -> Scenario {
        let mut m = build_kernel_machine(n_cpus, 7, CostModel::multimax(), kconfig);
        let vpn = Vpn::new(0x40);
        let (pmap, pfn) = {
            let s = m.shared_mut();
            let pmap = s.pmaps.create();
            let pfn = s.frames.alloc();
            s.seed_mapping(pmap, vpn, pfn, Prot::READ_WRITE);
            for i in 1..n_ops {
                let extra = s.frames.alloc();
                s.seed_mapping(pmap, Vpn::new(0x40 + i as u64), extra, Prot::READ_WRITE);
            }
            (pmap, pfn)
        };
        for c in n_ops..n_cpus {
            // Touchers write page i%n_ops so every operator's page is hot
            // in some TLB when the round fires.
            let page = Vpn::new(0x40 + ((c - n_ops) % n_ops) as u64);
            m.spawn_at(
                CpuId::new(c as u32),
                Time::ZERO,
                Box::new(Toucher::new(pmap, page.base())),
            );
        }
        for i in 0..n_ops {
            let op = PmapOp::Protect {
                range: PageRange::single(Vpn::new(0x40 + i as u64)),
                prot: Prot::READ,
            };
            m.spawn_at(
                CpuId::new(i as u32),
                Time::ZERO,
                Box::new(Operator::new(pmap, op, pfn, 20)),
            );
        }
        Scenario { m, pmap, vpn, pfn }
    }

    #[test]
    fn two_concurrent_initiators_batch_into_one_round() {
        let kconfig = KernelConfig {
            fanout: 4,
            batch_initiators: true,
            ..KernelConfig::default()
        };
        let mut sc = batched_scenario(8, 2, kconfig);
        let r = sc.m.run_bounded(Time::from_micros(1_000_000), 5_000_000);
        assert_eq!(r.status, RunStatus::Quiescent);
        let s = sc.m.shared();
        assert!(
            s.checker.is_consistent(),
            "violations: {:?}",
            s.checker.violations()
        );
        assert_eq!(s.stats.initiators_batched, 1, "second initiator joined");
        assert_eq!(s.stats.multicast_rounds, 1, "one IPI round served both");
        assert_eq!(s.stats.shootdowns_user, 1);
        // Both operations were applied under the leader's lock.
        let table = s.pmaps.get(sc.pmap).table();
        assert_eq!(table.get(Vpn::new(0x40)).prot, Prot::READ);
        assert_eq!(table.get(Vpn::new(0x41)).prot, Prot::READ);
    }

    #[test]
    fn n_concurrent_initiators_batch_into_one_round() {
        let n_ops = 4;
        let kconfig = KernelConfig {
            fanout: 4,
            batch_initiators: true,
            ..KernelConfig::default()
        };
        let mut sc = batched_scenario(12, n_ops, kconfig);
        let r = sc.m.run_bounded(Time::from_micros(1_000_000), 5_000_000);
        assert_eq!(r.status, RunStatus::Quiescent);
        let s = sc.m.shared();
        assert!(
            s.checker.is_consistent(),
            "violations: {:?}",
            s.checker.violations()
        );
        assert_eq!(
            s.stats.initiators_batched,
            (n_ops - 1) as u64,
            "every follower joined the first round"
        );
        assert_eq!(s.stats.multicast_rounds, 1);
        assert_eq!(s.stats.shootdowns_user, 1);
        let table = s.pmaps.get(sc.pmap).table();
        for i in 0..n_ops {
            assert_eq!(
                table.get(Vpn::new(0x40 + i as u64)).prot,
                Prot::READ,
                "joiner {i}'s page was reprotected before it completed"
            );
        }
    }

    /// Chaos variant of the batched-initiator protocol: halt one of the
    /// two co-initiators at several instants spread across the healthy
    /// run. Whatever role the victim held — leader mid-round, joiner
    /// parked on the lock channel, or bystander — the survivor's
    /// operation must complete and the oracle must stay clean.
    #[test]
    fn halted_co_initiator_never_strands_the_survivor() {
        use machtlb_sim::{FaultPlan, Halt};
        let kconfig = || KernelConfig {
            fanout: 4,
            batch_initiators: true,
            watchdog: WatchdogConfig {
                timeout: machtlb_sim::Dur::millis(5),
                ..WatchdogConfig::default()
            },
            ..KernelConfig::default()
        };
        // Fault-free run to learn the timeline; halts land at fractions
        // of it so the sweep stays meaningful if costs change.
        let mut healthy = batched_scenario(8, 2, kconfig());
        let r = healthy
            .m
            .run_bounded(Time::from_micros(1_000_000), 5_000_000);
        assert_eq!(r.status, RunStatus::Quiescent);
        let t_end = r.frontier;
        let mut batched_runs = 0u64;
        for num in [1u32, 2, 3] {
            let halt_at = Time::from_nanos(t_end.as_nanos() * num as u64 / 4);
            let mut sc = batched_scenario(8, 2, kconfig());
            sc.m.install_fault_plan(FaultPlan {
                halts: vec![Halt {
                    cpu: CpuId::new(0),
                    at: halt_at,
                }],
                ..FaultPlan::none(SHOOTDOWN_VECTOR)
            });
            // A halted toucher's page may never fault its writers, so the
            // machine need not quiesce: bound by time, generously past the
            // watchdog horizon, and let the assertions carry the claim.
            let _ = sc.m.run_bounded(Time::from_micros(200_000), 2_000_000);
            let s = sc.m.shared();
            assert!(
                s.checker.is_consistent(),
                "halt at {halt_at:?}: violations {:?}",
                s.checker.violations()
            );
            // Cpu1's page was reprotected despite its co-initiator dying.
            assert_eq!(
                s.pmaps.get(sc.pmap).table().get(Vpn::new(0x41)).prot,
                Prot::READ,
                "halt at {halt_at:?}: survivor's op never landed"
            );
            batched_runs += s.stats.initiators_batched;
        }
        assert!(
            batched_runs >= 1,
            "the sweep must exercise the batched path at least once"
        );
    }

    #[test]
    fn batching_disabled_serializes_initiators() {
        let kconfig = KernelConfig {
            fanout: 4,
            batch_initiators: false,
            ..KernelConfig::default()
        };
        let mut sc = batched_scenario(8, 2, kconfig);
        let r = sc.m.run_bounded(Time::from_micros(1_000_000), 5_000_000);
        assert_eq!(r.status, RunStatus::Quiescent);
        let s = sc.m.shared();
        assert!(s.checker.is_consistent());
        assert_eq!(s.stats.initiators_batched, 0);
        assert_eq!(s.stats.multicast_rounds, 2, "two serialized rounds");
    }

    #[test]
    fn sharded_multicast_shootdown_is_consistent() {
        let kconfig = KernelConfig {
            fanout: 2,
            pmap_shards: 4,
            ..KernelConfig::default()
        };
        let mut sc = scenario(6, kconfig, |vpn| PmapOp::Remove {
            range: PageRange::single(vpn),
        });
        let r = sc.m.run_bounded(Time::from_micros(1_000_000), 5_000_000);
        assert_eq!(r.status, RunStatus::Quiescent);
        let s = sc.m.shared();
        assert!(
            s.checker.is_consistent(),
            "violations: {:?}",
            s.checker.violations()
        );
        assert!(!s.pmaps.get(sc.pmap).table().get(sc.vpn).valid);
        assert_eq!(s.stats.shootdowns_user, 1);
        assert_eq!(s.stats.multicast_rounds, 1);
    }

    #[test]
    fn naive_strategy_violates_consistency() {
        let kconfig = KernelConfig {
            strategy: Strategy::NaiveFlush,
            ..KernelConfig::default()
        };
        let mut sc = scenario(4, kconfig, |vpn| PmapOp::Protect {
            range: PageRange::single(vpn),
            prot: Prot::READ,
        });
        // Touchers keep writing through their stale read-write entries and
        // never fault, so bound the run by time, not quiescence.
        let _ = sc.m.run_bounded(Time::from_micros(200_000), 5_000_000);
        let s = sc.m.shared();
        assert!(
            !s.checker.is_consistent(),
            "the naive strategy must be caught using stale entries"
        );
        assert_eq!(s.stats.ipis_sent, 0);
    }

    #[test]
    fn remove_shootdown_unmaps_for_everyone() {
        let mut sc = scenario(3, KernelConfig::default(), |vpn| PmapOp::Remove {
            range: PageRange::single(vpn),
        });
        let r = sc.m.run_bounded(Time::from_micros(1_000_000), 5_000_000);
        assert_eq!(r.status, RunStatus::Quiescent);
        let s = sc.m.shared();
        assert!(
            s.checker.is_consistent(),
            "violations: {:?}",
            s.checker.violations()
        );
        assert!(!s.pmaps.get(sc.pmap).table().get(sc.vpn).valid);
        assert_eq!(s.stats.shootdowns_user, 1);
    }

    #[test]
    fn lazy_evaluation_skips_shootdowns_for_unmapped_pages() {
        let mut m = build_kernel_machine(2, 3, CostModel::multimax(), KernelConfig::default());
        let pmap = {
            let s = m.shared_mut();
            let pmap = s.pmaps.create();
            s.pmaps.get_mut(pmap).mark_in_use(CpuId::new(1));
            s.force_active(CpuId::new(0));
            s.force_active(CpuId::new(1));
            pmap
        };
        // Reprotect a page that was never entered: the cthreads stack-guard
        // case of Section 7.2.
        let op = PmapOpProcess::new(
            pmap,
            PmapOp::Protect {
                range: PageRange::new(Vpn::new(0x200), 1),
                prot: Prot::NONE,
            },
        );
        m.spawn_at(CpuId::new(0), Time::ZERO, Box::new(op));
        m.run(Time::from_micros(100_000));
        let s = m.shared();
        assert_eq!(s.stats.lazy_skips, 1);
        assert_eq!(s.stats.ipis_sent, 0);
        assert_eq!(s.stats.shootdowns_user, 0);
        assert!(s.initiator_records().is_empty());
    }

    #[test]
    fn without_lazy_evaluation_the_same_op_shoots() {
        let kconfig = KernelConfig {
            lazy_eval: false,
            ..KernelConfig::default()
        };
        let mut m = build_kernel_machine(2, 3, CostModel::multimax(), kconfig);
        let pmap = {
            let s = m.shared_mut();
            let pmap = s.pmaps.create();
            s.pmaps.get_mut(pmap).mark_in_use(CpuId::new(1));
            s.force_active(CpuId::new(0));
            s.force_active(CpuId::new(1));
            pmap
        };
        let op = PmapOpProcess::new(
            pmap,
            PmapOp::Protect {
                range: PageRange::new(Vpn::new(0x200), 1),
                prot: Prot::NONE,
            },
        );
        m.spawn_at(CpuId::new(0), Time::ZERO, Box::new(op));
        m.run(Time::from_micros(100_000));
        let s = m.shared();
        assert_eq!(s.stats.lazy_skips, 0);
        assert_eq!(s.stats.ipis_sent, 1);
        assert_eq!(s.stats.shootdowns_user, 1);
    }

    #[test]
    fn kernel_pmap_ops_queue_for_idle_cpus_without_interrupting() {
        let mut m = build_kernel_machine(4, 5, CostModel::multimax(), KernelConfig::default());
        {
            let s = m.shared_mut();
            let pfn = s.frames.alloc();
            s.seed_mapping(PmapId::KERNEL, Vpn::new(0x10), pfn, Prot::READ_WRITE);
            s.force_active(CpuId::new(0));
            // cpus 1..3 stay idle.
        }
        let op = PmapOpProcess::new(
            PmapId::KERNEL,
            PmapOp::Remove {
                range: PageRange::new(Vpn::new(0x10), 1),
            },
        );
        m.spawn_at(CpuId::new(0), Time::ZERO, Box::new(op));
        m.run(Time::from_micros(100_000));
        {
            let s = m.shared();
            assert_eq!(s.stats.ipis_sent, 0, "idle processors are not interrupted");
            assert_eq!(
                s.stats.shootdowns_kernel, 1,
                "but the shootdown still happened"
            );
            for c in 1..4 {
                assert!(s.action_needed[c], "action queued for idle cpu{c}");
                assert_eq!(s.queues[c].len(), 1);
            }
        }
        // An idle processor drains its queue on the way out of idle.
        m.spawn_at(
            CpuId::new(2),
            Time::from_micros(50_000),
            Box::new(ExitIdleProcess::new()),
        );
        m.run(Time::from_micros(200_000));
        let s = m.shared();
        assert!(!s.action_needed[2]);
        assert!(s.queues[2].is_empty());
        assert!(s.active.contains(CpuId::new(2)));
    }

    #[test]
    fn action_queue_overflow_forces_full_flush() {
        let kconfig = KernelConfig {
            action_queue_capacity: 2,
            ..KernelConfig::default()
        };
        let mut m = build_kernel_machine(2, 9, CostModel::multimax(), kconfig);
        let pmap = {
            let s = m.shared_mut();
            let pmap = s.pmaps.create();
            for i in 0..4 {
                let pfn = s.frames.alloc();
                // Stride 2 keeps the pages non-adjacent so the queue
                // cannot coalesce them away — the overflow path is the
                // thing under test.
                s.seed_mapping(pmap, Vpn::new(0x40 + 2 * i), pfn, Prot::READ_WRITE);
            }
            s.pmaps.get_mut(pmap).mark_in_use(CpuId::new(1));
            // cpu1 stays idle; cpu0 initiates.
            s.force_active(CpuId::new(0));
            pmap
        };
        // Actions pile up only on *idle* processors (the initiator
        // synchronizes with everyone else): leave cpu1 idle with the pmap
        // still marked in use, so four back-to-back non-adjacent
        // single-page removes from cpu0 overflow its capacity-2 queue into
        // the flush-everything flag.
        #[derive(Debug)]
        struct ManyOps {
            pmap: PmapId,
            next: u64,
            running: Option<PmapOpProcess>,
        }
        impl Process<KernelState, ()> for ManyOps {
            fn step(&mut self, ctx: &mut Ctx<'_, KernelState, ()>) -> Step {
                if self.running.is_none() {
                    if self.next == 4 {
                        return Step::Done(Dur::ZERO);
                    }
                    self.running = Some(PmapOpProcess::new(
                        self.pmap,
                        PmapOp::Remove {
                            range: PageRange::new(Vpn::new(0x40 + 2 * self.next), 1),
                        },
                    ));
                    self.next += 1;
                }
                match drive(self.running.as_mut().expect("set"), ctx) {
                    Driven::Yield(s) => s,
                    Driven::Finished(d) => {
                        self.running = None;
                        Step::Run(d)
                    }
                }
            }
        }
        m.spawn_at(
            CpuId::new(0),
            Time::from_micros(10),
            Box::new(ManyOps {
                pmap,
                next: 0,
                running: None,
            }),
        );
        let r = m.run_bounded(Time::from_micros(2_000_000), 5_000_000);
        assert_eq!(r.status, RunStatus::Quiescent);
        assert!(
            m.shared().queues[1].overflows() >= 1,
            "queue must have overflowed"
        );
        assert!(
            m.shared().queues[1].flush_all(),
            "overflow pends a full flush"
        );
        // The idle processor performs the flush on its way out of idle.
        m.spawn_at(
            CpuId::new(1),
            Time::from_micros(10_000),
            Box::new(ExitIdleProcess::new()),
        );
        let r = m.run_bounded(Time::from_micros(3_000_000), 5_000_000);
        assert_eq!(r.status, RunStatus::Quiescent);
        let s = m.shared();
        assert!(
            s.tlbs[1].stats().flushes >= 1,
            "overflow forced a full flush"
        );
        assert!(!s.action_needed[1]);
        assert!(
            s.checker.is_consistent(),
            "violations: {:?}",
            s.checker.violations()
        );
    }

    #[test]
    fn concurrent_shootdowns_on_different_pmaps_do_not_deadlock() {
        // Two initiators shoot at each other simultaneously: cpu0 operates
        // on pmap A (in use on cpu1), cpu1 operates on pmap B (in use on
        // cpu0). The active-set deadlock avoidance must let both finish.
        let mut m = build_kernel_machine(2, 11, CostModel::multimax(), KernelConfig::default());
        let (pa, pb) = {
            let s = m.shared_mut();
            let pa = s.pmaps.create();
            let pb = s.pmaps.create();
            let f1 = s.frames.alloc();
            let f2 = s.frames.alloc();
            s.seed_mapping(pa, Vpn::new(1), f1, Prot::READ_WRITE);
            s.seed_mapping(pb, Vpn::new(2), f2, Prot::READ_WRITE);
            s.pmaps.get_mut(pa).mark_in_use(CpuId::new(1));
            s.pmaps.get_mut(pb).mark_in_use(CpuId::new(0));
            s.force_active(CpuId::new(0));
            s.force_active(CpuId::new(1));
            (pa, pb)
        };
        m.spawn_at(
            CpuId::new(0),
            Time::ZERO,
            Box::new(PmapOpProcess::new(
                pa,
                PmapOp::Remove {
                    range: PageRange::new(Vpn::new(1), 1),
                },
            )),
        );
        m.spawn_at(
            CpuId::new(1),
            Time::ZERO,
            Box::new(PmapOpProcess::new(
                pb,
                PmapOp::Remove {
                    range: PageRange::new(Vpn::new(2), 1),
                },
            )),
        );
        let r = m.run_bounded(Time::from_micros(1_000_000), 2_000_000);
        assert_eq!(r.status, RunStatus::Quiescent, "no deadlock");
        let s = m.shared();
        assert_eq!(s.stats.shootdowns_user, 2);
        assert!(s.checker.is_consistent());
        assert!(!s.pmaps.get(pa).table().get(Vpn::new(1)).valid);
        assert!(!s.pmaps.get(pb).table().get(Vpn::new(2)).valid);
    }

    #[test]
    fn broadcast_strategy_is_consistent() {
        let kconfig = KernelConfig {
            strategy: Strategy::BroadcastIpi,
            ..KernelConfig::default()
        };
        let mut sc = scenario(4, kconfig, |vpn| PmapOp::Protect {
            range: PageRange::single(vpn),
            prot: Prot::READ,
        });
        let r = sc.m.run_bounded(Time::from_micros(1_000_000), 5_000_000);
        assert_eq!(r.status, RunStatus::Quiescent);
        let s = sc.m.shared();
        assert!(
            s.checker.is_consistent(),
            "violations: {:?}",
            s.checker.violations()
        );
        assert_eq!(
            s.stats.ipis_sent, 3,
            "broadcast reaches every other processor"
        );
        assert_eq!(s.stats.shootdowns_user, 1);
    }

    #[test]
    fn hardware_remote_invalidate_is_consistent_without_interrupts() {
        let kconfig = KernelConfig {
            strategy: Strategy::HardwareRemoteInvalidate,
            tlb: Strategy::HardwareRemoteInvalidate.multimax_tlb(),
            ..KernelConfig::default()
        };
        let mut sc = scenario(4, kconfig, |vpn| PmapOp::Protect {
            range: PageRange::single(vpn),
            prot: Prot::READ,
        });
        let r = sc.m.run_bounded(Time::from_micros(1_000_000), 5_000_000);
        assert_eq!(r.status, RunStatus::Quiescent);
        let s = sc.m.shared();
        assert!(
            s.checker.is_consistent(),
            "violations: {:?}",
            s.checker.violations()
        );
        assert_eq!(s.stats.ipis_sent, 0, "no interrupts at all");
        assert_eq!(s.responder_records().len(), 0, "no responder involvement");
    }

    #[test]
    fn no_stall_software_reload_is_consistent() {
        let kconfig = KernelConfig {
            strategy: Strategy::NoStallSoftwareReload,
            tlb: Strategy::NoStallSoftwareReload.multimax_tlb(),
            ..KernelConfig::default()
        };
        let mut sc = scenario(4, kconfig, |vpn| PmapOp::Protect {
            range: PageRange::single(vpn),
            prot: Prot::READ,
        });
        let r = sc.m.run_bounded(Time::from_micros(1_000_000), 5_000_000);
        assert_eq!(r.status, RunStatus::Quiescent);
        let s = sc.m.shared();
        assert!(
            s.checker.is_consistent(),
            "violations: {:?}",
            s.checker.violations()
        );
        assert_eq!(s.stats.shootdowns_user, 1);
    }

    #[test]
    fn protection_upgrade_needs_no_shootdown() {
        // Section 3 technique 3: temporary inconsistency is harmless when
        // protection increases.
        let mut m = build_kernel_machine(2, 13, CostModel::multimax(), KernelConfig::default());
        let pmap = {
            let s = m.shared_mut();
            let pmap = s.pmaps.create();
            let pfn = s.frames.alloc();
            s.seed_mapping(pmap, Vpn::new(5), pfn, Prot::READ);
            s.pmaps.get_mut(pmap).mark_in_use(CpuId::new(1));
            s.force_active(CpuId::new(0));
            s.force_active(CpuId::new(1));
            pmap
        };
        let op = PmapOpProcess::new(
            pmap,
            PmapOp::Protect {
                range: PageRange::new(Vpn::new(5), 1),
                prot: Prot::READ_WRITE, // upgrade
            },
        );
        m.spawn_at(CpuId::new(0), Time::ZERO, Box::new(op));
        m.run(Time::from_micros(100_000));
        let s = m.shared();
        assert_eq!(s.stats.ipis_sent, 0);
        assert_eq!(s.stats.shootdowns_user, 0);
        assert_eq!(
            s.pmaps.get(pmap).table().get(Vpn::new(5)).prot,
            Prot::READ_WRITE
        );
    }
}

#[cfg(test)]
mod proptests {
    #[allow(unused_imports)]
    use proptest::prelude::{prop_assert, prop_assert_eq, prop_oneof, proptest, ProptestConfig};
    use proptest::strategy::Strategy as _;

    use super::*;
    use machtlb_pmap::{PageRange, PmapId, Prot, Vpn};
    use machtlb_sim::{CostModel, CpuId, Ctx, Process, RunStatus, Step, Time};

    /// An initiator storm: one processor issuing a scripted sequence of
    /// pmap operations back to back (with exit-idle first).
    #[derive(Debug)]
    struct Storm {
        ops: Vec<(PmapId, PmapOp)>,
        idx: usize,
        exit_idle: Option<ExitIdleProcess>,
        attach: Option<SwitchUserPmapProcess>,
        attach_to: Option<PmapId>,
        running: Option<PmapOpProcess>,
    }

    impl Process<KernelState, ()> for Storm {
        fn step(&mut self, ctx: &mut Ctx<'_, KernelState, ()>) -> Step {
            if let Some(e) = self.exit_idle.as_mut() {
                return match drive(e, ctx) {
                    Driven::Yield(s) => s,
                    Driven::Finished(d) => {
                        self.exit_idle = None;
                        self.attach = Some(SwitchUserPmapProcess::new(self.attach_to));
                        Step::Run(d)
                    }
                };
            }
            if let Some(a) = self.attach.as_mut() {
                return match drive(a, ctx) {
                    Driven::Yield(s) => s,
                    Driven::Finished(d) => {
                        self.attach = None;
                        Step::Run(d)
                    }
                };
            }
            if self.running.is_none() {
                let Some((pmap, op)) = self.ops.get(self.idx).copied() else {
                    return Step::Done(machtlb_sim::Dur::micros(1));
                };
                self.idx += 1;
                self.running = Some(PmapOpProcess::new(pmap, op));
            }
            match drive(self.running.as_mut().expect("set above"), ctx) {
                Driven::Yield(s) => s,
                Driven::Finished(d) => {
                    self.running = None;
                    Step::Run(d)
                }
            }
        }
        fn label(&self) -> &'static str {
            "storm"
        }
    }

    #[derive(Debug, Clone, Copy)]
    enum StormOp {
        Enter(u64, u64),
        Remove(u64, u64),
        ProtectRo(u64, u64),
        ClearRef(u64, u64),
    }

    fn storm_op() -> impl proptest::strategy::Strategy<Value = (u8, StormOp)> {
        let vpn = 0u64..32;
        let len = 1u64..5;
        let pmap = 0u8..3; // kernel, user A, user B
        (
            pmap,
            prop_oneof![
                (vpn.clone(), 1u64..99).prop_map(|(v, f)| StormOp::Enter(v, f)),
                (vpn.clone(), len.clone()).prop_map(|(v, l)| StormOp::Remove(v, l)),
                (vpn.clone(), len.clone()).prop_map(|(v, l)| StormOp::ProtectRo(v, l)),
                (vpn, len).prop_map(|(v, l)| StormOp::ClearRef(v, l)),
            ],
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

        /// Concurrent initiators hammering the kernel pmap and two user
        /// pmaps from every processor: no deadlock, no lost completions,
        /// no consistency violations — the algorithm's refinements
        /// (deadlock avoidance, idle skipping, pending-interrupt
        /// suppression) under adversarial load.
        #[test]
        fn concurrent_initiator_storms_terminate_consistently(
            scripts in proptest::collection::vec(
                proptest::collection::vec(storm_op(), 1..14),
                2..5,
            ),
            seed in 0u64..1000,
        ) {
            let n_cpus = scripts.len();
            let mut m = build_kernel_machine(n_cpus, seed, CostModel::multimax(), KernelConfig::default());
            let (pa, pb) = {
                let s = m.shared_mut();
                let pa = s.pmaps.create();
                let pb = s.pmaps.create();
                // Seed a few mappings so removes and protects have teeth.
                for v in 0..8u64 {
                    let f = s.frames.alloc();
                    s.seed_mapping(PmapId::KERNEL, Vpn::new(v), f, Prot::READ_WRITE);
                    let f = s.frames.alloc();
                    s.seed_mapping(pa, Vpn::new(v), f, Prot::READ_WRITE);
                    let f = s.frames.alloc();
                    s.seed_mapping(pb, Vpn::new(v), f, Prot::READ_WRITE);
                }
                (pa, pb)
            };
            let resolve = |p: u8| match p {
                0 => PmapId::KERNEL,
                1 => pa,
                _ => pb,
            };
            for (i, script) in scripts.iter().enumerate() {
                let ops: Vec<(PmapId, PmapOp)> = script
                    .iter()
                    .map(|&(p, op)| {
                        let pmap = resolve(p);
                        let op = match op {
                            StormOp::Enter(v, f) => PmapOp::Enter {
                                vpn: Vpn::new(v),
                                pfn: machtlb_pmap::Pfn::new(1000 + f),
                                prot: Prot::READ_WRITE,
                            },
                            StormOp::Remove(v, l) => PmapOp::Remove {
                                range: PageRange::new(Vpn::new(v), l),
                            },
                            StormOp::ProtectRo(v, l) => PmapOp::Protect {
                                range: PageRange::new(Vpn::new(v), l),
                                prot: Prot::READ,
                            },
                            StormOp::ClearRef(v, l) => PmapOp::ClearRefBits {
                                range: PageRange::new(Vpn::new(v), l),
                            },
                        };
                        (pmap, op)
                    })
                    .collect();
                // Odd processors attach user pmap A, even ones B, so the
                // user-pmap shootdowns have real targets.
                let attach_to = Some(if i % 2 == 0 { pa } else { pb });
                m.spawn_at(
                    CpuId::new(i as u32),
                    Time::ZERO,
                    Box::new(Storm {
                        ops,
                        idx: 0,
                        exit_idle: Some(ExitIdleProcess::new()),
                        attach: None,
                        attach_to,
                        running: None,
                    }),
                );
            }
            let r = m.run_bounded(Time::from_micros(60_000_000), 20_000_000);
            prop_assert_eq!(r.status, RunStatus::Quiescent, "storms must terminate (no deadlock)");
            let s = m.shared();
            prop_assert!(
                s.checker.is_consistent(),
                "violations: {:?}",
                s.checker.violations().iter().take(3).collect::<Vec<_>>()
            );
            // Every queued consistency action was eventually drained.
            for c in 0..n_cpus {
                prop_assert!(!s.action_needed[c] || s.idle.contains(CpuId::new(c as u32)),
                    "cpu{c} left with undrained actions while active");
            }
        }

        /// The watchdog's retry schedule is bounded and monotone: each
        /// wait is no shorter than the previous one, the total time the
        /// initiator can spend retrying is a closed form of the config,
        /// and absurd retry counts saturate instead of overflowing.
        #[test]
        fn watchdog_backoff_is_bounded_and_monotone(
            timeout_us in 1u64..100_000,
            backoff in 1u32..8,
            max_retries in 0u32..12,
        ) {
            let wd = WatchdogConfig {
                enabled: true,
                timeout: machtlb_sim::Dur::micros(timeout_us),
                backoff,
                max_retries,
            };
            let mut prev = machtlb_sim::Dur::ZERO;
            let mut total = machtlb_sim::Dur::ZERO;
            for retry in 0..=max_retries {
                let t = wd.retry_timeout(retry);
                prop_assert!(t >= wd.timeout, "never shorter than the base timeout");
                prop_assert!(t >= prev, "monotone nondecreasing");
                prop_assert_eq!(
                    t.as_nanos(),
                    wd.timeout.as_nanos().saturating_mul(u64::from(backoff).saturating_pow(retry)),
                    "exact bounded-exponential schedule"
                );
                prev = t;
                total = machtlb_sim::Dur::nanos(
                    total.as_nanos().saturating_add(t.as_nanos()),
                );
            }
            // The give-up horizon is closed-form computable from the
            // config alone: sum of timeout * backoff^i for i..=max.
            let horizon: u64 = (0..=max_retries)
                .map(|i| {
                    wd.timeout
                        .as_nanos()
                        .saturating_mul(u64::from(backoff).saturating_pow(i))
                })
                .fold(0u64, u64::saturating_add);
            prop_assert_eq!(total.as_nanos(), horizon);
            // Saturation, not overflow, for out-of-range retry counts.
            let huge = wd.retry_timeout(u32::MAX);
            prop_assert!(huge.as_nanos() >= wd.timeout.as_nanos());
        }
    }
}
