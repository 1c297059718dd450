//! # machtlb-sim — deterministic multiprocessor simulator
//!
//! The machine substrate for the `machtlb` reproduction of *Translation
//! Lookaside Buffer Consistency: A Software Approach* (Black, Rashid, Golub,
//! Hill, Baron — ASPLOS 1989). The paper evaluates the Mach TLB shootdown
//! algorithm on a 16-processor NS32332 Encore Multimax; this crate provides
//! the equivalent substrate in simulation:
//!
//! - **per-processor logical clocks** with min-clock scheduling, giving a
//!   sequentially consistent, fully deterministic interleaving of
//!   shared-memory actions ([`Machine`]);
//! - a **shared bus** with FIFO queueing, whose saturation reproduces the
//!   Figure 2 contention knee above 12 processors ([`Bus`]);
//! - an **interrupt structure** with device and inter-processor classes and
//!   per-processor masks, including the Section 9 high-priority
//!   software-interrupt option ([`IntrMask`]);
//! - a calibrated **cost model** of Multimax-era primitive actions
//!   ([`CostModel`]);
//! - [`Process`], the state-machine abstraction every simulated activity
//!   (kernel operation, user thread, interrupt handler) is written against.
//!
//! # Examples
//!
//! Two processors racing on a shared counter, interleaved deterministically:
//!
//! ```
//! use machtlb_sim::{CpuId, Ctx, Dur, Machine, MachineConfig, Process, Step, Time};
//!
//! #[derive(Debug)]
//! struct Bump { left: u32 }
//! impl Process<u64, ()> for Bump {
//!     fn step(&mut self, ctx: &mut Ctx<'_, u64, ()>) -> Step {
//!         *ctx.shared += 1;
//!         self.left -= 1;
//!         let cost = Dur::micros(2) + ctx.bus_write();
//!         if self.left == 0 { Step::Done(cost) } else { Step::Run(cost) }
//!     }
//! }
//!
//! let mut m = Machine::new(MachineConfig::multimax16(7), 0u64, |_| ());
//! m.spawn_at(CpuId::new(0), Time::ZERO, Box::new(Bump { left: 10 }));
//! m.spawn_at(CpuId::new(1), Time::ZERO, Box::new(Bump { left: 10 }));
//! m.run(Time::from_micros(10_000));
//! assert_eq!(*m.shared(), 20);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bus;
mod cost;
mod cpu;
mod event;
mod fault;
pub mod fxhash;
mod intr;
mod lock;
mod machine;
mod process;
mod sched;
mod stream;
mod time;
mod topology;

pub use bus::{Bus, BusOp, BusOpStats, BusStats};
pub use cost::CostModel;
pub use cpu::{CpuCore, CpuId, CpuStats, ParkView};
pub use event::{BlockOn, WaitChannel};
pub use fault::{
    FaultInjector, FaultKind, FaultPlan, FaultRecord, FaultStats, Halt, IpiDelay, IpiDrop,
    IpiDuplicate, IpiReorder, IsrStretch, Offline, ResponderStall,
};
pub use intr::{FanoutTree, IntrClass, IntrMask, Vector};
pub use lock::SpinLock;
pub use machine::{Machine, MachineConfig, MulticastStats, RunReport, RunStatus};
pub use process::{Ctx, Process, Step};
pub use stream::StreamSpacing;
pub use time::{Dur, Time};
pub use topology::{BusFabric, FabricStats, Topology};

#[cfg(test)]
mod tests {
    use super::*;

    /// A process that runs `n` fixed-cost steps and records each step's
    /// (cpu, time) in the shared trace.
    #[derive(Debug)]
    struct Tracer {
        n: u32,
        cost: Dur,
    }

    type Trace = Vec<(CpuId, Time)>;

    impl Process<Trace, ()> for Tracer {
        fn step(&mut self, ctx: &mut Ctx<'_, Trace, ()>) -> Step {
            ctx.shared.push((ctx.cpu_id, ctx.now));
            self.n -= 1;
            if self.n == 0 {
                Step::Done(self.cost)
            } else {
                Step::Run(self.cost)
            }
        }
        fn label(&self) -> &'static str {
            "tracer"
        }
    }

    fn test_config(n_cpus: usize) -> MachineConfig {
        MachineConfig {
            n_cpus,
            seed: 1,
            costs: CostModel::uniform_test(),
            topology: Topology::flat(n_cpus),
        }
    }

    #[test]
    fn min_clock_scheduling_interleaves_in_time_order() {
        let mut m = Machine::new(test_config(2), Trace::new(), |_| ());
        m.spawn_at(
            CpuId::new(0),
            Time::ZERO,
            Box::new(Tracer {
                n: 3,
                cost: Dur::micros(10),
            }),
        );
        m.spawn_at(
            CpuId::new(1),
            Time::ZERO,
            Box::new(Tracer {
                n: 3,
                cost: Dur::micros(10),
            }),
        );
        let r = m.run(Time::from_micros(1_000));
        assert_eq!(r.status, RunStatus::Quiescent);
        let times: Vec<u64> = m.shared().iter().map(|(_, t)| t.as_nanos()).collect();
        let mut sorted = times.clone();
        sorted.sort_unstable();
        assert_eq!(times, sorted, "steps must execute in global time order");
        assert_eq!(m.shared().len(), 6);
    }

    #[test]
    fn same_seed_same_trace() {
        let run = || {
            let mut m = Machine::new(test_config(4), Trace::new(), |_| ());
            for i in 0..4 {
                m.spawn_at(
                    CpuId::new(i),
                    Time::from_micros(u64::from(i)),
                    Box::new(Tracer {
                        n: 5,
                        cost: Dur::micros(3 + u64::from(i)),
                    }),
                );
            }
            m.run(Time::from_micros(10_000));
            m.into_shared()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn time_limit_stops_before_future_events() {
        let mut m = Machine::new(test_config(1), Trace::new(), |_| ());
        m.spawn_at(
            CpuId::new(0),
            Time::from_micros(500),
            Box::new(Tracer {
                n: 1,
                cost: Dur::micros(1),
            }),
        );
        let r = m.run(Time::from_micros(100));
        assert_eq!(r.status, RunStatus::TimeLimit);
        assert!(m.shared().is_empty());
        let r = m.run(Time::from_micros(1_000));
        assert_eq!(r.status, RunStatus::Quiescent);
        assert_eq!(m.shared().len(), 1);
    }

    #[test]
    fn step_limit_catches_runaway_spins() {
        #[derive(Debug)]
        struct Spin;
        impl Process<Trace, ()> for Spin {
            fn step(&mut self, _ctx: &mut Ctx<'_, Trace, ()>) -> Step {
                Step::Run(Dur::micros(1))
            }
        }
        let mut m = Machine::new(test_config(1), Trace::new(), |_| ());
        m.spawn_at(CpuId::new(0), Time::ZERO, Box::new(Spin));
        let r = m.run_bounded(Time::MAX, 100);
        assert_eq!(r.status, RunStatus::StepLimit);
        assert_eq!(r.steps, 100);
    }

    /// Interrupt delivery: a handler runs with all interrupts blocked and the
    /// mask is restored afterwards.
    #[derive(Debug, Default)]
    struct IntrLog {
        dispatched: Vec<(CpuId, Time)>,
        masks_seen: Vec<IntrMask>,
    }

    #[derive(Debug)]
    struct NoteMask;
    impl Process<IntrLog, ()> for NoteMask {
        fn step(&mut self, ctx: &mut Ctx<'_, IntrLog, ()>) -> Step {
            let mask = ctx.mask();
            ctx.shared.masks_seen.push(mask);
            ctx.shared.dispatched.push((ctx.cpu_id, ctx.now));
            Step::Done(Dur::micros(5))
        }
        fn label(&self) -> &'static str {
            "note-mask"
        }
    }

    #[derive(Debug)]
    struct SendThenIdle {
        target: CpuId,
        vector: Vector,
        sent: bool,
    }
    impl Process<IntrLog, ()> for SendThenIdle {
        fn step(&mut self, ctx: &mut Ctx<'_, IntrLog, ()>) -> Step {
            if !self.sent {
                self.sent = true;
                let v = self.vector;
                ctx.send_ipi(self.target, v);
                Step::Run(ctx.costs().ipi_send)
            } else {
                Step::Done(Dur::micros(1))
            }
        }
        fn label(&self) -> &'static str {
            "sender"
        }
    }

    #[test]
    fn ipi_dispatches_handler_with_interrupts_blocked() {
        let v = Vector::new(1);
        let mut m = Machine::new(test_config(2), IntrLog::default(), |_| ());
        m.register_handler(v, IntrClass::Ipi, |_, _, _| Box::new(NoteMask));
        m.spawn_at(
            CpuId::new(0),
            Time::ZERO,
            Box::new(SendThenIdle {
                target: CpuId::new(1),
                vector: v,
                sent: false,
            }),
        );
        let r = m.run(Time::from_micros(1_000));
        assert_eq!(r.status, RunStatus::Quiescent);
        let log = m.shared();
        assert_eq!(log.dispatched.len(), 1);
        assert_eq!(log.dispatched[0].0, CpuId::new(1));
        assert_eq!(log.masks_seen, vec![IntrMask::ALL_BLOCKED]);
        // Mask restored after the handler completed.
        assert_eq!(m.cpu(CpuId::new(1)).mask(), IntrMask::OPEN);
        assert_eq!(m.cpu(CpuId::new(1)).stats().interrupts, 1);
    }

    #[test]
    fn masked_ipi_stays_pending_until_unmasked() {
        let v = Vector::new(1);

        /// Masks IPIs for a while, then opens the mask and parks.
        #[derive(Debug)]
        struct MaskedSection {
            phase: u8,
        }
        impl Process<IntrLog, ()> for MaskedSection {
            fn step(&mut self, ctx: &mut Ctx<'_, IntrLog, ()>) -> Step {
                match self.phase {
                    0 => {
                        ctx.set_mask(IntrMask::ALL_BLOCKED);
                        self.phase = 1;
                        Step::Run(Dur::micros(200))
                    }
                    1 => {
                        ctx.set_mask(IntrMask::OPEN);
                        self.phase = 2;
                        Step::Run(Dur::micros(1))
                    }
                    _ => Step::Done(Dur::micros(1)),
                }
            }
        }

        let mut m = Machine::new(test_config(2), IntrLog::default(), |_| ());
        m.register_handler(v, IntrClass::Ipi, |_, _, _| Box::new(NoteMask));
        m.spawn_at(
            CpuId::new(1),
            Time::ZERO,
            Box::new(MaskedSection { phase: 0 }),
        );
        m.spawn_at(
            CpuId::new(0),
            Time::from_micros(10),
            Box::new(SendThenIdle {
                target: CpuId::new(1),
                vector: v,
                sent: false,
            }),
        );
        m.run(Time::from_micros(10_000));
        let log = m.shared();
        assert_eq!(log.dispatched.len(), 1, "handler must eventually run");
        // Dispatched only after the masked section ended (~201us), not at
        // delivery (~11us + latency).
        assert!(
            log.dispatched[0].1 >= Time::from_micros(200),
            "dispatched at {} while masked",
            log.dispatched[0].1
        );
    }

    #[test]
    fn device_blocked_mask_still_delivers_ipi() {
        // Section 9 high-priority software interrupt: device-blocked kernel
        // sections do not delay shootdown IPIs.
        let v = Vector::new(1);

        /// A 500us device-masked section, computed in 25us chunks so
        /// unmasked interrupts can preempt at chunk boundaries.
        #[derive(Debug)]
        struct DeviceCritical {
            chunks_left: u32,
            masked: bool,
        }
        impl Process<IntrLog, ()> for DeviceCritical {
            fn step(&mut self, ctx: &mut Ctx<'_, IntrLog, ()>) -> Step {
                if !self.masked {
                    self.masked = true;
                    ctx.set_mask(IntrMask::DEVICE_BLOCKED);
                    return Step::Run(Dur::micros(1));
                }
                if self.chunks_left > 0 {
                    self.chunks_left -= 1;
                    return Step::Run(Dur::micros(25));
                }
                ctx.set_mask(IntrMask::OPEN);
                Step::Done(Dur::micros(1))
            }
        }

        let mut m = Machine::new(test_config(2), IntrLog::default(), |_| ());
        m.register_handler(v, IntrClass::Ipi, |_, _, _| Box::new(NoteMask));
        m.spawn_at(
            CpuId::new(1),
            Time::ZERO,
            Box::new(DeviceCritical {
                chunks_left: 20,
                masked: false,
            }),
        );
        m.spawn_at(
            CpuId::new(0),
            Time::from_micros(10),
            Box::new(SendThenIdle {
                target: CpuId::new(1),
                vector: v,
                sent: false,
            }),
        );
        m.run(Time::from_micros(10_000));
        let log = m.shared();
        assert_eq!(log.dispatched.len(), 1);
        assert!(
            log.dispatched[0].1 < Time::from_micros(200),
            "IPI should preempt a device-blocked section, dispatched at {}",
            log.dispatched[0].1
        );
    }

    #[test]
    fn park_with_deadline_wakes_at_deadline() {
        #[derive(Debug)]
        struct Napper {
            slept: bool,
        }
        impl Process<Trace, ()> for Napper {
            fn step(&mut self, ctx: &mut Ctx<'_, Trace, ()>) -> Step {
                if !self.slept {
                    self.slept = true;
                    Step::Park(Some(Time::from_micros(777)))
                } else {
                    ctx.shared.push((ctx.cpu_id, ctx.now));
                    Step::Done(Dur::micros(1))
                }
            }
        }
        let mut m = Machine::new(test_config(1), Trace::new(), |_| ());
        m.spawn_at(CpuId::new(0), Time::ZERO, Box::new(Napper { slept: false }));
        let r = m.run(Time::from_micros(10_000));
        assert_eq!(r.status, RunStatus::Quiescent);
        assert_eq!(m.shared().len(), 1);
        assert_eq!(m.shared()[0].1, Time::from_micros(777));
    }

    #[test]
    fn park_without_deadline_wakes_on_delivery() {
        #[derive(Debug)]
        struct WaitForWork;
        impl Process<Trace, ()> for WaitForWork {
            fn step(&mut self, ctx: &mut Ctx<'_, Trace, ()>) -> Step {
                if ctx.shared.is_empty() {
                    Step::Park(None)
                } else {
                    Step::Done(Dur::micros(1))
                }
            }
        }
        #[derive(Debug)]
        struct Producer;
        impl Process<Trace, ()> for Producer {
            fn step(&mut self, ctx: &mut Ctx<'_, Trace, ()>) -> Step {
                ctx.shared.push((ctx.cpu_id, ctx.now));
                // Poke the sleeper with a spawn so it re-checks.
                ctx.spawn(CpuId::new(0), Box::new(Nop));
                Step::Done(Dur::micros(1))
            }
        }
        #[derive(Debug)]
        struct Nop;
        impl Process<Trace, ()> for Nop {
            fn step(&mut self, _: &mut Ctx<'_, Trace, ()>) -> Step {
                Step::Done(Dur::ZERO)
            }
        }
        let mut m = Machine::new(test_config(2), Trace::new(), |_| ());
        m.spawn_at(CpuId::new(0), Time::ZERO, Box::new(WaitForWork));
        m.spawn_at(CpuId::new(1), Time::from_micros(300), Box::new(Producer));
        let r = m.run(Time::from_micros(10_000));
        assert_eq!(r.status, RunStatus::Quiescent);
        assert_eq!(m.shared().len(), 1);
    }

    #[test]
    fn trap_runs_before_trapping_process_resumes() {
        #[derive(Debug)]
        struct Faulting {
            phase: u8,
        }
        impl Process<Trace, ()> for Faulting {
            fn step(&mut self, ctx: &mut Ctx<'_, Trace, ()>) -> Step {
                match self.phase {
                    0 => {
                        self.phase = 1;
                        ctx.trap(Box::new(FaultHandler));
                        Step::Run(Dur::micros(1))
                    }
                    _ => {
                        // The handler must have recorded itself first.
                        assert_eq!(ctx.shared.len(), 1);
                        ctx.shared.push((ctx.cpu_id, ctx.now));
                        Step::Done(Dur::micros(1))
                    }
                }
            }
        }
        #[derive(Debug)]
        struct FaultHandler;
        impl Process<Trace, ()> for FaultHandler {
            fn step(&mut self, ctx: &mut Ctx<'_, Trace, ()>) -> Step {
                ctx.shared.push((ctx.cpu_id, ctx.now));
                Step::Done(Dur::micros(50))
            }
        }
        let mut m = Machine::new(test_config(1), Trace::new(), |_| ());
        m.spawn_at(CpuId::new(0), Time::ZERO, Box::new(Faulting { phase: 0 }));
        let r = m.run(Time::from_micros(10_000));
        assert_eq!(r.status, RunStatus::Quiescent);
        assert_eq!(m.shared().len(), 2);
    }

    #[test]
    fn broadcast_reaches_all_but_sender() {
        let v = Vector::new(2);
        #[derive(Debug)]
        struct Caster {
            sent: bool,
        }
        impl Process<IntrLog, ()> for Caster {
            fn step(&mut self, ctx: &mut Ctx<'_, IntrLog, ()>) -> Step {
                if !self.sent {
                    self.sent = true;
                    ctx.broadcast_ipi(Vector::new(2));
                    Step::Run(ctx.costs().ipi_broadcast)
                } else {
                    Step::Done(Dur::micros(1))
                }
            }
        }
        let mut m = Machine::new(test_config(4), IntrLog::default(), |_| ());
        m.register_handler(v, IntrClass::Ipi, |_, _, _| Box::new(NoteMask));
        m.spawn_at(CpuId::new(2), Time::ZERO, Box::new(Caster { sent: false }));
        m.run(Time::from_micros(10_000));
        let mut who: Vec<CpuId> = m.shared().dispatched.iter().map(|(c, _)| *c).collect();
        who.sort_unstable();
        assert_eq!(who, vec![CpuId::new(0), CpuId::new(1), CpuId::new(3)]);
    }

    #[test]
    fn quiescent_when_nothing_scheduled() {
        let mut m: Machine<Trace, ()> = Machine::new(test_config(3), Trace::new(), |_| ());
        let r = m.run(Time::from_micros(100));
        assert_eq!(r.status, RunStatus::Quiescent);
        assert_eq!(r.steps, 0);
    }

    #[test]
    #[should_panic(expected = "at least one processor")]
    fn zero_cpus_rejected() {
        let _ = Machine::new(
            MachineConfig {
                n_cpus: 0,
                seed: 0,
                costs: CostModel::uniform_test(),
                topology: Topology::flat(1),
            },
            Trace::new(),
            |_| (),
        );
    }

    #[test]
    fn busy_time_accumulates() {
        let mut m = Machine::new(test_config(1), Trace::new(), |_| ());
        m.spawn_at(
            CpuId::new(0),
            Time::ZERO,
            Box::new(Tracer {
                n: 4,
                cost: Dur::micros(25),
            }),
        );
        m.run(Time::from_micros(1_000));
        assert_eq!(m.cpu(CpuId::new(0)).stats().busy, Dur::micros(100));
        assert_eq!(m.total_busy(), Dur::micros(100));
    }

    // ---- Event-driven waiting: equivalence with stepped spinning ----

    /// Shared state for the spin-vs-block tests: a flag guarded by a wait
    /// channel, plus a trace of (cpu, time) observation records.
    #[derive(Debug, Default)]
    struct FlagWorld {
        flag: bool,
        trace: Trace,
    }

    const FLAG_CHAN: WaitChannel = WaitChannel::new(0xF1A6);
    const SPIN_COST: Dur = Dur::nanos(2_350);

    /// Waits for the flag either by stepped spinning or by event-blocking,
    /// then records the instant it observed the flag set.
    #[derive(Debug)]
    struct FlagWaiter {
        event: bool,
    }
    impl Process<FlagWorld, ()> for FlagWaiter {
        fn step(&mut self, ctx: &mut Ctx<'_, FlagWorld, ()>) -> Step {
            if ctx.shared.flag {
                ctx.shared.trace.push((ctx.cpu_id, ctx.now));
                Step::Done(Dur::micros(1))
            } else if self.event {
                Step::Block(BlockOn::one(FLAG_CHAN, SPIN_COST))
            } else {
                Step::Run(SPIN_COST)
            }
        }
        fn label(&self) -> &'static str {
            "flag-waiter"
        }
    }

    /// Idles until `at`, then sets the flag and notifies in the same step.
    #[derive(Debug)]
    struct FlagSetter {
        at: Time,
        done: bool,
    }
    impl Process<FlagWorld, ()> for FlagSetter {
        fn step(&mut self, ctx: &mut Ctx<'_, FlagWorld, ()>) -> Step {
            if !self.done {
                self.done = true;
                Step::Park(Some(self.at))
            } else {
                ctx.shared.flag = true;
                ctx.notify(FLAG_CHAN);
                Step::Done(Dur::micros(1))
            }
        }
        fn label(&self) -> &'static str {
            "flag-setter"
        }
    }

    /// Runs a waiter on cpu `waiter` and a setter on cpu `setter` firing at
    /// `set_at`, returning (observation trace, waiter stats, total steps).
    fn flag_run(event: bool, waiter: u32, setter: u32, set_at: Time) -> (Trace, CpuStats, u64) {
        let mut m = Machine::new(test_config(4), FlagWorld::default(), |_| ());
        m.spawn_at(
            CpuId::new(waiter),
            Time::ZERO,
            Box::new(FlagWaiter { event }),
        );
        m.spawn_at(
            CpuId::new(setter),
            Time::ZERO,
            Box::new(FlagSetter {
                at: set_at,
                done: false,
            }),
        );
        let r = m.run_bounded(Time::from_micros(100_000), 100_000_000);
        assert_eq!(r.status, RunStatus::Quiescent);
        let stats = m.cpu(CpuId::new(waiter)).stats();
        (m.into_shared().trace, stats, r.steps)
    }

    #[test]
    fn blocking_wakes_at_the_same_instant_as_spinning() {
        // Sweep writer instants across lattice phases and both tie-break
        // directions (writer cpu below and above the waiter's).
        for &(waiter, setter) in &[(0u32, 3u32), (3, 0)] {
            for off in [0u64, 1, 2_349, 2_350, 2_351, 7_777, 23_500] {
                let at = Time::from_micros(50) + Dur::nanos(off);
                let spun = flag_run(false, waiter, setter, at);
                let blocked = flag_run(true, waiter, setter, at);
                assert_eq!(
                    spun, blocked,
                    "waiter {waiter}, setter {setter}, set at {at}: stepped and \
                     event runs must agree on trace, stats, and step counts"
                );
            }
        }
    }

    #[test]
    fn notify_in_the_parking_instant_is_not_lost() {
        // The hazard case: the writer's step executes at the very instant
        // the waiter blocks, but on a higher-indexed cpu — its write is
        // invisible to the waiter's parking check, and the notify arrives
        // while the park is being applied. The waiter must still wake.
        let spun = flag_run(false, 0, 3, Time::ZERO);
        let blocked = flag_run(true, 0, 3, Time::ZERO);
        assert_eq!(spun, blocked);
        assert_eq!(blocked.0.len(), 1, "the waiter must observe the flag");
    }

    #[test]
    fn spurious_notify_reblocks_without_double_charging() {
        /// Notifies the channel *without* satisfying the condition, then
        /// sets the flag later.
        #[derive(Debug)]
        struct Teaser {
            phase: u8,
        }
        impl Process<FlagWorld, ()> for Teaser {
            fn step(&mut self, ctx: &mut Ctx<'_, FlagWorld, ()>) -> Step {
                match self.phase {
                    0 => {
                        self.phase = 1;
                        Step::Park(Some(Time::from_micros(30)))
                    }
                    1 => {
                        self.phase = 2;
                        ctx.notify(FLAG_CHAN); // spurious: flag still false
                        Step::Park(Some(Time::from_micros(90)))
                    }
                    _ => {
                        ctx.shared.flag = true;
                        ctx.notify(FLAG_CHAN);
                        Step::Done(Dur::micros(1))
                    }
                }
            }
            fn label(&self) -> &'static str {
                "teaser"
            }
        }

        let run = |event: bool| {
            let mut m = Machine::new(test_config(2), FlagWorld::default(), |_| ());
            m.spawn_at(CpuId::new(0), Time::ZERO, Box::new(FlagWaiter { event }));
            m.spawn_at(CpuId::new(1), Time::ZERO, Box::new(Teaser { phase: 0 }));
            let r = m.run_bounded(Time::from_micros(100_000), 100_000_000);
            assert_eq!(r.status, RunStatus::Quiescent);
            let stats = m.cpu(CpuId::new(0)).stats();
            (m.into_shared().trace, stats, r.steps)
        };
        let spun = run(false);
        let blocked = run(true);
        assert_eq!(
            spun, blocked,
            "a spurious wake must re-block on a fresh anchor with the \
             skipped iterations charged exactly once"
        );
    }

    #[test]
    fn delivery_wakes_a_blocked_processor_at_a_lattice_point() {
        let v = Vector::new(1);

        #[derive(Debug)]
        struct HandlerSetsFlag;
        impl Process<FlagWorld, ()> for HandlerSetsFlag {
            fn step(&mut self, ctx: &mut Ctx<'_, FlagWorld, ()>) -> Step {
                ctx.shared.flag = true;
                ctx.notify(FLAG_CHAN);
                Step::Done(Dur::micros(5))
            }
            fn label(&self) -> &'static str {
                "handler-sets-flag"
            }
        }

        #[derive(Debug)]
        struct IpiAt {
            at: Time,
            target: CpuId,
            phase: u8,
        }
        impl Process<FlagWorld, ()> for IpiAt {
            fn step(&mut self, ctx: &mut Ctx<'_, FlagWorld, ()>) -> Step {
                match self.phase {
                    0 => {
                        self.phase = 1;
                        Step::Park(Some(self.at))
                    }
                    _ => {
                        ctx.send_ipi(self.target, Vector::new(1));
                        Step::Done(ctx.costs().ipi_send)
                    }
                }
            }
            fn label(&self) -> &'static str {
                "ipi-at"
            }
        }

        let run = |event: bool| {
            let mut m = Machine::new(test_config(2), FlagWorld::default(), |_| ());
            m.register_handler(v, IntrClass::Ipi, |_, _, _| Box::new(HandlerSetsFlag));
            m.spawn_at(CpuId::new(0), Time::ZERO, Box::new(FlagWaiter { event }));
            m.spawn_at(
                CpuId::new(1),
                Time::ZERO,
                Box::new(IpiAt {
                    at: Time::from_micros(40) + Dur::nanos(123),
                    target: CpuId::new(0),
                    phase: 0,
                }),
            );
            let r = m.run_bounded(Time::from_micros(100_000), 100_000_000);
            assert_eq!(r.status, RunStatus::Quiescent);
            let stats = m.cpu(CpuId::new(0)).stats();
            (m.into_shared().trace, stats, r.steps)
        };
        let spun = run(false);
        let blocked = run(true);
        assert_eq!(
            spun, blocked,
            "an interrupt must preempt a blocked spinner exactly when it \
             would preempt the stepped loop"
        );
        assert_eq!(blocked.1.interrupts, 1);
    }

    #[test]
    fn forever_blocked_machine_reports_time_limit() {
        // A spinner whose condition is never satisfied spins to the time
        // limit in stepped mode; a blocked one must report the same status
        // rather than claiming quiescence.
        let mut m = Machine::new(test_config(1), FlagWorld::default(), |_| ());
        m.spawn_at(
            CpuId::new(0),
            Time::ZERO,
            Box::new(FlagWaiter { event: true }),
        );
        let r = m.run(Time::from_micros(1_000));
        assert_eq!(r.status, RunStatus::TimeLimit);
        assert!(m.shared().trace.is_empty());
        let diag = m.frames_diagnostic();
        assert!(
            diag.contains("cpu0") && diag.contains("flag-waiter") && diag.contains("blocked"),
            "diagnostic must name the blocked cpu and frame: {diag}"
        );
    }

    #[test]
    fn deadline_wakes_at_the_same_instant_as_a_stepped_timeout() {
        // A waiter whose loop body also tests a timeout: the event run must
        // observe the expiry at exactly the stepped loop's first check at
        // or after it (the deadline is deliberately off-lattice).
        const DEADLINE: Time = Time::from_micros(50);

        #[derive(Debug)]
        struct TimeoutWaiter {
            event: bool,
        }
        impl Process<FlagWorld, ()> for TimeoutWaiter {
            fn step(&mut self, ctx: &mut Ctx<'_, FlagWorld, ()>) -> Step {
                if ctx.shared.flag || ctx.now >= DEADLINE {
                    ctx.shared.trace.push((ctx.cpu_id, ctx.now));
                    Step::Done(Dur::micros(1))
                } else if self.event {
                    Step::Block(BlockOn::one(FLAG_CHAN, SPIN_COST).with_deadline(DEADLINE))
                } else {
                    Step::Run(SPIN_COST)
                }
            }
            fn label(&self) -> &'static str {
                "timeout-waiter"
            }
        }

        let run = |event: bool| {
            let mut m = Machine::new(test_config(1), FlagWorld::default(), |_| ());
            m.spawn_at(CpuId::new(0), Time::ZERO, Box::new(TimeoutWaiter { event }));
            let r = m.run_bounded(Time::from_micros(100_000), 100_000_000);
            assert_eq!(r.status, RunStatus::Quiescent);
            let stats = m.cpu(CpuId::new(0)).stats();
            (m.into_shared().trace, stats, r.steps)
        };
        let spun = run(false);
        let blocked = run(true);
        assert_eq!(
            spun, blocked,
            "a deadline wake must match the stepped timeout check exactly"
        );
        assert_eq!(blocked.0.len(), 1, "the timeout must fire");
        assert!(blocked.0[0].1 >= DEADLINE);
    }

    #[test]
    fn stepped_waits_run_every_block_as_its_spin_iteration() {
        /// Only ever blocks (optionally until a deadline): whether it spins
        /// or parks is the machine's decision. `checks` counts the times
        /// its condition is really evaluated.
        #[derive(Debug)]
        struct BlockingWaiter {
            deadline: Option<Time>,
            checks: std::rc::Rc<std::cell::Cell<u64>>,
        }
        impl Process<FlagWorld, ()> for BlockingWaiter {
            fn step(&mut self, ctx: &mut Ctx<'_, FlagWorld, ()>) -> Step {
                self.checks.set(self.checks.get() + 1);
                if ctx.shared.flag || self.deadline.is_some_and(|d| ctx.now >= d) {
                    ctx.shared.trace.push((ctx.cpu_id, ctx.now));
                    return Step::Done(Dur::micros(1));
                }
                let on = BlockOn::one(FLAG_CHAN, SPIN_COST);
                Step::Block(match self.deadline {
                    Some(d) => on.with_deadline(d),
                    None => on,
                })
            }
            fn label(&self) -> &'static str {
                "blocking-waiter"
            }
        }

        let run = |stepped: bool, deadline: Option<Time>| {
            let mut m = Machine::new(test_config(2), FlagWorld::default(), |_| ());
            m.set_stepped_waits(stepped);
            let checks = std::rc::Rc::new(std::cell::Cell::new(0));
            m.spawn_at(
                CpuId::new(1),
                Time::ZERO,
                Box::new(BlockingWaiter {
                    deadline,
                    checks: checks.clone(),
                }),
            );
            m.spawn_at(
                CpuId::new(0),
                Time::ZERO,
                Box::new(FlagSetter {
                    at: Time::from_micros(80) + Dur::nanos(7),
                    done: false,
                }),
            );
            let r = m.run_bounded(Time::from_micros(100_000), 100_000_000);
            assert_eq!(r.status, RunStatus::Quiescent);
            let cpus: Vec<(Time, CpuStats)> = m.cpus().map(|c| (c.clock(), c.stats())).collect();
            let fingerprint = (cpus, m.total_steps(), m.into_shared().trace);
            (fingerprint, checks.get())
        };
        // Without a deadline the setter's notify wakes the waiter; with an
        // off-lattice deadline before the set, the expiry does.
        for deadline in [None, Some(Time::from_micros(50) + Dur::nanos(1))] {
            let (event, event_checks) = run(false, deadline);
            let (stepped, stepped_checks) = run(true, deadline);
            assert_eq!(
                stepped, event,
                "deadline {deadline:?}: clocks, stats, steps and wake instants"
            );
            assert_eq!(event.2.len(), 1, "the waiter observes exactly once");
            // The event run checks at the block and at the wake; the
            // stepped run checks at every lattice point in between.
            assert_eq!(event_checks, 2, "deadline {deadline:?}");
            assert!(
                stepped_checks > 20,
                "deadline {deadline:?}: the stepped run checked only {stepped_checks} times"
            );
        }
    }

    #[test]
    fn installing_an_empty_fault_plan_is_invisible() {
        let run = |plan: Option<FaultPlan>| {
            let mut m = Machine::new(test_config(2), IntrLog::default(), |_| ());
            if let Some(p) = plan {
                m.install_fault_plan(p);
            }
            let v = Vector::new(1);
            m.register_handler(v, IntrClass::Ipi, |_, _, _| Box::new(NoteMask));
            m.spawn_at(
                CpuId::new(0),
                Time::ZERO,
                Box::new(SendThenIdle {
                    target: CpuId::new(1),
                    vector: v,
                    sent: false,
                }),
            );
            let r = m.run(Time::from_micros(10_000));
            assert_eq!(r.status, RunStatus::Quiescent);
            let stats = m.cpu(CpuId::new(1)).stats();
            (m.into_shared().dispatched, stats, r.steps)
        };
        assert_eq!(
            run(None),
            run(Some(FaultPlan::none(Vector::new(1)))),
            "an all-off plan must be bit-identical to no plan at all"
        );
    }

    #[test]
    fn dropped_ipi_never_dispatches() {
        let v = Vector::new(1);
        let mut m = Machine::new(test_config(2), IntrLog::default(), |_| ());
        m.install_fault_plan(FaultPlan {
            drop: Some(IpiDrop {
                every_nth: 1,
                max_drops: u64::MAX,
            }),
            ..FaultPlan::none(v)
        });
        m.register_handler(v, IntrClass::Ipi, |_, _, _| Box::new(NoteMask));
        m.spawn_at(
            CpuId::new(0),
            Time::ZERO,
            Box::new(SendThenIdle {
                target: CpuId::new(1),
                vector: v,
                sent: false,
            }),
        );
        let r = m.run(Time::from_micros(10_000));
        assert_eq!(r.status, RunStatus::Quiescent);
        assert!(m.shared().dispatched.is_empty(), "the IPI was dropped");
        assert_eq!(m.fault_stats().expect("plan installed").dropped, 1);
        assert_eq!(m.fault_events().len(), 1);
    }

    #[test]
    fn woken_spins_reaches_only_the_blocked_frame() {
        /// Blocks until woken, then records how many spins were skipped.
        #[derive(Debug)]
        struct CountingWaiter;
        impl Process<SpinCount, ()> for CountingWaiter {
            fn step(&mut self, ctx: &mut Ctx<'_, SpinCount, ()>) -> Step {
                if ctx.shared.flag {
                    ctx.shared.woken.push(ctx.woken_spins());
                    Step::Done(Dur::micros(1))
                } else {
                    Step::Block(BlockOn::one(FLAG_CHAN, SPIN_COST))
                }
            }
            fn label(&self) -> &'static str {
                "counting-waiter"
            }
        }
        #[derive(Debug)]
        struct HandlerCounts;
        impl Process<SpinCount, ()> for HandlerCounts {
            fn step(&mut self, ctx: &mut Ctx<'_, SpinCount, ()>) -> Step {
                // An interrupt handler dispatched over the blocked frame
                // must not inherit its backfill.
                ctx.shared.handler_saw.push(ctx.woken_spins());
                ctx.shared.flag = true;
                ctx.notify(FLAG_CHAN);
                Step::Done(Dur::micros(5))
            }
            fn label(&self) -> &'static str {
                "handler-counts"
            }
        }
        #[derive(Debug, Default)]
        struct SpinCount {
            flag: bool,
            woken: Vec<u64>,
            handler_saw: Vec<u64>,
        }
        #[derive(Debug)]
        struct LateIpi {
            phase: u8,
        }
        impl Process<SpinCount, ()> for LateIpi {
            fn step(&mut self, ctx: &mut Ctx<'_, SpinCount, ()>) -> Step {
                match self.phase {
                    0 => {
                        self.phase = 1;
                        Step::Park(Some(Time::from_micros(100)))
                    }
                    _ => {
                        ctx.send_ipi(CpuId::new(0), Vector::new(1));
                        Step::Done(ctx.costs().ipi_send)
                    }
                }
            }
        }
        let mut m = Machine::new(test_config(2), SpinCount::default(), |_| ());
        m.register_handler(Vector::new(1), IntrClass::Ipi, |_, _, _| {
            Box::new(HandlerCounts)
        });
        m.spawn_at(CpuId::new(0), Time::ZERO, Box::new(CountingWaiter));
        m.spawn_at(CpuId::new(1), Time::ZERO, Box::new(LateIpi { phase: 0 }));
        let r = m.run(Time::from_micros(100_000));
        assert_eq!(r.status, RunStatus::Quiescent);
        let s = m.shared();
        assert_eq!(s.handler_saw, vec![0], "handler frames carry no backfill");
        assert_eq!(s.woken.len(), 1);
        assert!(
            s.woken[0] > 0,
            "the woken frame must see the skipped iterations exactly once"
        );
    }

    #[test]
    fn halted_cpu_never_dispatches_a_latched_ipi() {
        let v = Vector::new(1);
        let mut m = Machine::new(test_config(2), IntrLog::default(), |_| ());
        m.install_fault_plan(FaultPlan {
            halts: vec![Halt {
                cpu: CpuId::new(1),
                at: Time::ZERO,
            }],
            ..FaultPlan::none(v)
        });
        m.register_handler(v, IntrClass::Ipi, |_, _, _| Box::new(NoteMask));
        m.spawn_at(
            CpuId::new(0),
            Time::ZERO,
            Box::new(SendThenIdle {
                target: CpuId::new(1),
                vector: v,
                sent: false,
            }),
        );
        let r = m.run(Time::from_micros(10_000));
        assert_eq!(r.status, RunStatus::Quiescent, "{r:?}");
        assert!(
            m.shared().dispatched.is_empty(),
            "a fail-stop processor must not run the handler"
        );
        assert!(m.is_halted(CpuId::new(1)));
        assert!(!m.is_halted(CpuId::new(0)));
        let stats = m.fault_stats().expect("plan installed");
        assert_eq!(stats.halted, 1);
        assert_eq!(stats.revived, 0);
        assert_eq!(m.fault_events().len(), 1);
        assert_eq!(m.fault_events()[0].kind, FaultKind::Halted);
    }

    #[test]
    fn offline_cpu_freezes_then_finishes_its_work_after_revival() {
        let mut m = Machine::new(test_config(2), Trace::new(), |_| ());
        m.install_fault_plan(FaultPlan {
            offlines: vec![Offline {
                cpu: CpuId::new(1),
                at: Time::from_micros(15),
                revive_at: Time::from_micros(500),
            }],
            ..FaultPlan::none(Vector::new(1))
        });
        for cpu in 0..2 {
            m.spawn_at(
                CpuId::new(cpu),
                Time::ZERO,
                Box::new(Tracer {
                    n: 5,
                    cost: Dur::micros(10),
                }),
            );
        }
        let r = m.run(Time::from_micros(100_000));
        assert_eq!(r.status, RunStatus::Quiescent, "{r:?}");
        assert!(!m.is_halted(CpuId::new(1)), "revived by the end");
        let stats = m.fault_stats().expect("plan installed");
        assert_eq!((stats.halted, stats.revived), (1, 1));
        let one: Vec<Time> = m
            .shared()
            .iter()
            .filter(|(c, _)| *c == CpuId::new(1))
            .map(|(_, t)| *t)
            .collect();
        assert_eq!(one.len(), 5, "the frozen process completes after revival");
        assert_eq!(one[0], Time::ZERO);
        assert_eq!(one[1], Time::from_micros(10));
        assert!(
            one[2] >= Time::from_micros(500),
            "no step may run inside the dead window: {one:?}"
        );
    }

    #[test]
    fn halt_and_revive_runs_replay_bit_identically() {
        let run = || {
            let mut m = Machine::new(test_config(3), Trace::new(), |_| ());
            m.install_fault_plan(FaultPlan {
                offlines: vec![Offline {
                    cpu: CpuId::new(2),
                    at: Time::from_micros(7),
                    revive_at: Time::from_micros(220),
                }],
                ..FaultPlan::none(Vector::new(1))
            });
            for cpu in 0..3 {
                m.spawn_at(
                    CpuId::new(cpu),
                    Time::ZERO,
                    Box::new(Tracer {
                        n: 8,
                        cost: Dur::micros(3),
                    }),
                );
            }
            let r = m.run(Time::from_micros(100_000));
            assert_eq!(r.status, RunStatus::Quiescent);
            let events = m.fault_events().to_vec();
            (m.into_shared(), events, r.steps)
        };
        assert_eq!(run(), run(), "fail-stop faults must replay bit-identically");
    }

    /// Posts one multicast descriptor for `targets` with the given fanout
    /// degree, then finishes.
    #[derive(Debug)]
    struct MulticastThenIdle {
        targets: Vec<CpuId>,
        vector: Vector,
        degree: usize,
        sent: bool,
    }
    impl Process<Trace, ()> for MulticastThenIdle {
        fn step(&mut self, ctx: &mut Ctx<'_, Trace, ()>) -> Step {
            if !self.sent {
                self.sent = true;
                let v = self.vector;
                let d = self.degree;
                ctx.multicast_ipi(self.targets.clone(), v, d);
                Step::Run(ctx.costs().ipi_send)
            } else {
                Step::Done(Dur::micros(1))
            }
        }
        fn label(&self) -> &'static str {
            "multicaster"
        }
    }

    /// Unicasts to each target in order, one send per step (the seed
    /// initiator's send loop), then finishes.
    #[derive(Debug)]
    struct UnicastLoop {
        targets: Vec<CpuId>,
        vector: Vector,
        next: usize,
    }
    impl Process<Trace, ()> for UnicastLoop {
        fn step(&mut self, ctx: &mut Ctx<'_, Trace, ()>) -> Step {
            if self.next < self.targets.len() {
                let t = self.targets[self.next];
                self.next += 1;
                let v = self.vector;
                ctx.send_ipi(t, v);
                Step::Run(ctx.costs().ipi_send)
            } else {
                Step::Done(Dur::micros(1))
            }
        }
        fn label(&self) -> &'static str {
            "unicaster"
        }
    }

    /// Runs a machine where the handler factory logs the vectoring instant
    /// (≈ delivery instant on an idle target) into the shared trace.
    fn run_delivery_log(
        n_cpus: usize,
        plan: Option<FaultPlan>,
        sender: Box<dyn Process<Trace, ()>>,
    ) -> (Trace, MulticastStats) {
        let v = Vector::new(1);
        let mut m = Machine::new(test_config(n_cpus), Trace::new(), |_| ());
        if let Some(p) = plan {
            m.install_fault_plan(p);
        }
        #[derive(Debug)]
        struct Quiet;
        impl Process<Trace, ()> for Quiet {
            fn step(&mut self, _ctx: &mut Ctx<'_, Trace, ()>) -> Step {
                Step::Done(Dur::micros(1))
            }
            fn label(&self) -> &'static str {
                "quiet"
            }
        }
        m.register_handler(v, IntrClass::Ipi, |log, cpu, at| {
            log.push((cpu, at));
            Box::new(Quiet)
        });
        m.spawn_at(CpuId::new(0), Time::ZERO, sender);
        let r = m.run(Time::from_micros(1_000_000));
        assert_eq!(r.status, RunStatus::Quiescent);
        let stats = m.multicast_stats();
        (m.into_shared(), stats)
    }

    #[test]
    fn multicast_dispatches_every_target_exactly_once() {
        for degree in [1usize, 2, 3, 7, 16] {
            let targets: Vec<CpuId> = (1..16).map(CpuId::new).collect();
            let (log, stats) = run_delivery_log(
                16,
                None,
                Box::new(MulticastThenIdle {
                    targets: targets.clone(),
                    vector: Vector::new(1),
                    degree,
                    sent: false,
                }),
            );
            let mut seen: Vec<CpuId> = log.iter().map(|(c, _)| *c).collect();
            seen.sort_unstable();
            assert_eq!(seen, targets, "degree {degree}: each target once");
            assert_eq!(stats.posts, 1);
            assert_eq!(stats.forwards, targets.len() as u64);
            assert_eq!(stats.pruned, 0);
        }
    }

    #[test]
    fn multicast_delivery_times_follow_the_fanout_tree() {
        let costs = CostModel::uniform_test();
        let targets: Vec<CpuId> = (1..8).map(CpuId::new).collect();
        let degree = 2;
        let (log, _) = run_delivery_log(
            8,
            None,
            Box::new(MulticastThenIdle {
                targets: targets.clone(),
                vector: Vector::new(1),
                degree,
                sent: false,
            }),
        );
        // Reconstruct the expected per-slot delivery instants: the j-th
        // forward of any hop leaves (j+1)·ipi_send after its parent's
        // delivery (or the post at t=0) and flies ipi_latency.
        let tree = FanoutTree::new(degree, targets.len());
        let mut expect = vec![Time::ZERO; targets.len()];
        for (j, s) in tree.root_children().enumerate() {
            expect[s] = Time::ZERO + costs.ipi_send * (j as u64 + 1) + costs.ipi_latency;
        }
        for relay in 0..targets.len() {
            for (j, s) in tree.children(relay).enumerate() {
                expect[s] = expect[relay] + costs.ipi_send * (j as u64 + 1) + costs.ipi_latency;
            }
        }
        let mut got: Vec<(CpuId, Time)> = log.clone();
        got.sort_unstable_by_key(|&(c, _)| c);
        let want: Vec<(CpuId, Time)> = targets
            .iter()
            .enumerate()
            .map(|(s, &c)| (c, expect[s]))
            .collect();
        assert_eq!(got, want);
        // Depth-bounded: the last delivery beats a serialized unicast loop.
        let deepest = expect.iter().max().copied().unwrap();
        let unicast_last = Time::ZERO + costs.ipi_send * (targets.len() as u64) + costs.ipi_latency;
        assert!(
            deepest < unicast_last || targets.len() < 4,
            "tree delivery ({deepest}) should beat serialized sends ({unicast_last})"
        );
    }

    #[test]
    fn multicast_and_unicast_reach_the_same_set() {
        let targets: Vec<CpuId> = [1u32, 3, 4, 6, 9, 10, 11].map(CpuId::new).to_vec();
        let (uni_log, uni_stats) = run_delivery_log(
            12,
            None,
            Box::new(UnicastLoop {
                targets: targets.clone(),
                vector: Vector::new(1),
                next: 0,
            }),
        );
        assert_eq!(uni_stats, MulticastStats::default());
        let mut uni: Vec<CpuId> = uni_log.iter().map(|(c, _)| *c).collect();
        uni.sort_unstable();
        for degree in 1..=8 {
            let (mc_log, _) = run_delivery_log(
                12,
                None,
                Box::new(MulticastThenIdle {
                    targets: targets.clone(),
                    vector: Vector::new(1),
                    degree,
                    sent: false,
                }),
            );
            let mut mc: Vec<CpuId> = mc_log.iter().map(|(c, _)| *c).collect();
            mc.sort_unstable();
            assert_eq!(mc, uni, "degree {degree}");
        }
    }

    #[test]
    fn halted_relay_latches_but_prunes_its_subtree() {
        // Degree 2 over targets 1..8: slot 0 (cpu 1) relays to slots 2,3
        // (cpus 3,4), which relay to slots 6 (cpu 7) and beyond. Halting
        // cpu 1 before the post must lose exactly its subtree.
        let targets: Vec<CpuId> = (1..8).map(CpuId::new).collect();
        let tree = FanoutTree::new(2, targets.len());
        let mut lost = vec![false; targets.len()];
        lost[0] = true;
        for s in 0..targets.len() {
            if let Some(p) = tree.parent(s) {
                lost[s] = lost[p];
            }
        }
        let (log, stats) = run_delivery_log(
            8,
            Some(FaultPlan {
                halts: vec![Halt {
                    cpu: CpuId::new(1),
                    at: Time::ZERO,
                }],
                ..FaultPlan::none(Vector::new(1))
            }),
            Box::new(MulticastThenIdle {
                targets: targets.clone(),
                vector: Vector::new(1),
                degree: 2,
                sent: false,
            }),
        );
        let mut got: Vec<CpuId> = log.iter().map(|(c, _)| *c).collect();
        got.sort_unstable();
        let want: Vec<CpuId> = targets
            .iter()
            .enumerate()
            .filter(|&(s, _)| !lost[s])
            .map(|(_, &c)| c)
            .collect();
        assert_eq!(got, want, "exactly the halted relay's subtree is lost");
        assert_eq!(stats.pruned, 1, "one hop landed on the halted relay");
    }
}

#[cfg(test)]
mod proptests {
    use proptest::prelude::*;

    use super::*;

    /// A process with a scripted sequence of actions.
    #[derive(Debug, Clone)]
    enum Act {
        Run(u64),
        ParkFor(u64),
        BusWrite,
        SendIpi(u32),
    }

    #[derive(Debug)]
    struct Scripted {
        acts: Vec<Act>,
        idx: usize,
    }

    type Trace = Vec<(u32, u64)>;

    impl Process<Trace, ()> for Scripted {
        fn step(&mut self, ctx: &mut Ctx<'_, Trace, ()>) -> Step {
            ctx.shared
                .push((ctx.cpu_id.index() as u32, ctx.now.as_nanos()));
            let Some(act) = self.acts.get(self.idx).cloned() else {
                return Step::Done(Dur::micros(1));
            };
            self.idx += 1;
            match act {
                Act::Run(us) => Step::Run(Dur::micros(us)),
                Act::ParkFor(us) => Step::Park(Some(ctx.now + Dur::micros(us))),
                Act::BusWrite => {
                    let d = ctx.bus_write();
                    Step::Run(d)
                }
                Act::SendIpi(t) => {
                    let target = CpuId::new(t % ctx.n_cpus() as u32);
                    if target != ctx.cpu_id {
                        ctx.send_ipi(target, Vector::new(1));
                    }
                    Step::Run(ctx.costs().ipi_send)
                }
            }
        }
        fn label(&self) -> &'static str {
            "scripted"
        }
    }

    #[derive(Debug)]
    struct Handler;
    impl Process<Trace, ()> for Handler {
        fn step(&mut self, ctx: &mut Ctx<'_, Trace, ()>) -> Step {
            ctx.shared
                .push((ctx.cpu_id.index() as u32, ctx.now.as_nanos()));
            Step::Done(Dur::micros(3))
        }
    }

    fn act_strategy() -> impl Strategy<Value = Act> {
        prop_oneof![
            (1u64..200).prop_map(Act::Run),
            (1u64..500).prop_map(Act::ParkFor),
            Just(Act::BusWrite),
            (0u32..8).prop_map(Act::SendIpi),
        ]
    }

    proptest! {
        /// Under any random mix of computation, parking, bus traffic, and
        /// IPIs: shared-state accesses happen in non-decreasing global
        /// time order, and the run is deterministic.
        #[test]
        fn scheduler_orders_and_reproduces(
            scripts in proptest::collection::vec(
                proptest::collection::vec(act_strategy(), 1..30),
                1..5,
            ),
            seed in 0u64..1000,
        ) {
            let run = |scripts: &[Vec<Act>]| {
                let mut m = Machine::new(
                    MachineConfig {
                        n_cpus: 4,
                        seed,
                        costs: CostModel::uniform_test(),
                        topology: Topology::flat(4),
                    },
                    Trace::new(),
                    |_| (),
                );
                m.register_handler(Vector::new(1), IntrClass::Ipi, |_, _, _| Box::new(Handler));
                for (i, acts) in scripts.iter().enumerate() {
                    m.spawn_at(
                        CpuId::new(i as u32),
                        Time::ZERO,
                        Box::new(Scripted { acts: acts.clone(), idx: 0 }),
                    );
                }
                let r = m.run_bounded(Time::from_micros(10_000_000), 10_000_000);
                prop_assert_eq!(r.status, RunStatus::Quiescent);
                Ok(m.into_shared())
            };
            let a = run(&scripts)?;
            let b = run(&scripts)?;
            prop_assert_eq!(&a, &b, "same seed must reproduce the trace");
            let times: Vec<u64> = a.iter().map(|&(_, t)| t).collect();
            let mut sorted = times.clone();
            sorted.sort_unstable();
            prop_assert_eq!(times, sorted, "steps must be globally time-ordered");
        }
    }
}
