//! Machine assembly: interrupt vectors, handlers, device-interrupt
//! background activity, and the context-switch path.

use machtlb_pmap::PmapId;
use machtlb_sim::{
    CostModel, CpuId, Ctx, Dur, IntrClass, IntrMask, Machine, MachineConfig, Process, Step,
    StreamSpacing, Time, Vector,
};
use machtlb_xpr::{TraceEdge, TracePhase};
use rand::Rng;

use crate::op::lock_wait;
use crate::responder::ResponderProcess;
use crate::state::{HasKernel, KernelConfig, KernelState, SpinMode, SYNC_CHANNEL};

/// The device-interrupt vector (disk/network/clock background activity).
pub const DEVICE_VECTOR: Vector = Vector::new(0);
/// The shootdown inter-processor interrupt.
pub const SHOOTDOWN_VECTOR: Vector = Vector::new(1);
/// The reschedule poke used to wake idle dispatchers.
pub const RESCHED_VECTOR: Vector = Vector::new(2);
/// The periodic timer driving whole-TLB flushes under the
/// [`Strategy::TimerDelayed`](crate::Strategy::TimerDelayed) technique.
pub const TIMER_FLUSH_VECTOR: Vector = Vector::new(3);

/// A simulated machine running the kernel model.
pub type KernelMachine = Machine<KernelState, ()>;

/// Builds a machine with the kernel image installed and the interrupt
/// handlers registered.
///
/// With [`KernelConfig::high_prio_ipi`] set, device handlers run with only
/// device interrupts blocked, so shootdown IPIs preempt them — the first
/// hardware feature Section 9 recommends.
pub fn build_kernel_machine(
    n_cpus: usize,
    seed: u64,
    costs: CostModel,
    kconfig: KernelConfig,
) -> KernelMachine {
    let state = KernelState::new(n_cpus, kconfig);
    let mconfig = MachineConfig {
        n_cpus,
        seed,
        costs,
        topology: state.topology,
    };
    let mut m = Machine::new(mconfig, state, |_| ());
    install_kernel_handlers(&mut m);
    m
}

/// Registers the kernel's interrupt handlers on a machine whose shared
/// state embeds a kernel image (used by higher layers that wrap
/// [`KernelState`] in their own state type), configured from that image.
/// It is the one reader of [`KernelConfig::spin_mode`]: every spin site
/// returns `Step::Block`, and the machine decides how it waits.
pub fn install_kernel_handlers<S: HasKernel + 'static>(m: &mut Machine<S, ()>) {
    let config = &m.shared().kernel().config;
    let device_mask = if config.high_prio_ipi {
        IntrMask::DEVICE_BLOCKED
    } else {
        IntrMask::ALL_BLOCKED
    };
    m.set_stepped_waits(config.spin_mode == SpinMode::Stepped);
    m.register_handler(SHOOTDOWN_VECTOR, IntrClass::Ipi, |s, cpu, at| {
        // The delivery instant belongs to the trace, not the handler body:
        // by the time the responder first steps, the interrupt-entry and
        // state-save costs have already elapsed.
        let k = s.kernel_mut();
        if k.trace.is_enabled() {
            if let Some(span) = k.trace.pending(cpu) {
                k.trace
                    .record(cpu, span, TracePhase::IpiDelivery, TraceEdge::Mark, at);
            }
        }
        Box::new(ResponderProcess::new())
    });
    m.register_handler_with_mask(DEVICE_VECTOR, IntrClass::Device, device_mask, |_, _, _| {
        Box::new(DeviceHandler::new())
    });
    m.register_handler(RESCHED_VECTOR, IntrClass::Ipi, |_, _, _| {
        Box::new(NopHandler)
    });
    m.register_handler(TIMER_FLUSH_VECTOR, IntrClass::Device, |_, _, _| {
        Box::new(TimerFlushHandler)
    });
}

/// The timer-flush service routine of the timer-delayed technique: flush
/// this processor's whole TLB, stamp the epoch clock, and commit any
/// change every processor has now flushed past.
#[derive(Debug)]
pub struct TimerFlushHandler;

impl<S: HasKernel> Process<S, ()> for TimerFlushHandler {
    fn step(&mut self, ctx: &mut Ctx<'_, S, ()>) -> Step {
        let me = ctx.cpu_id;
        let now = ctx.now;
        let kernel = ctx.shared.kernel_mut();
        kernel.tlbs[me.index()].flush_all();
        kernel.tlb_flush_stamp[me.index()] = now;
        kernel.mature_pending_commits(now);
        Step::Done(ctx.costs().tlb_flush_all + ctx.bus_write())
    }

    fn label(&self) -> &'static str {
        "timer-flush"
    }
}

/// Starts the timer-delayed technique's periodic flush on every
/// processor, one clocked interrupt stream each, with per-processor phase
/// offsets; the last flush lands at or before `until`. Unlike device
/// activity this is clocked, not jittered: the flush period is the
/// technique's staleness bound.
pub fn schedule_timer_flushes<S, P>(m: &mut Machine<S, P>, period: Dur, until: Time) {
    assert!(!period.is_zero(), "flush period must be positive");
    let n = m.n_cpus();
    let spacing = StreamSpacing::Every(period);
    for c in 0..n {
        let first = Time::ZERO + period.mul_f64((c + 1) as f64 / (n + 1) as f64);
        let cpu = CpuId::new(c as u32);
        m.schedule_interrupt_stream(cpu, TIMER_FLUSH_VECTOR, first, until, spacing);
    }
}

/// A device interrupt service routine of random duration: mostly short,
/// occasionally long. The long tail is what skews kernel-pmap shootdown
/// times on stock hardware ("there are many short intervals, but few long
/// ones", Section 8), because the handler runs with shootdown IPIs blocked
/// unless the high-priority software interrupt is present.
#[derive(Debug)]
pub struct DeviceHandler {
    chunks_left: Option<u32>,
}

impl DeviceHandler {
    /// Creates the handler; its duration is sampled on first step.
    pub fn new() -> DeviceHandler {
        DeviceHandler { chunks_left: None }
    }
}

impl Default for DeviceHandler {
    fn default() -> DeviceHandler {
        DeviceHandler::new()
    }
}

/// Device handler work proceeds in chunks of this many microseconds.
const DEVICE_CHUNK_US: u64 = 10;

impl<S: HasKernel> Process<S, ()> for DeviceHandler {
    fn step(&mut self, ctx: &mut Ctx<'_, S, ()>) -> Step {
        let chunks = match self.chunks_left {
            Some(c) => c,
            None => {
                let rng = ctx.rng();
                let total_us: u64 = if rng.gen_bool(0.03) {
                    rng.gen_range(80..250)
                } else {
                    rng.gen_range(5..25)
                };
                let c = (total_us / DEVICE_CHUNK_US).max(1) as u32;
                self.chunks_left = Some(c);
                c
            }
        };
        if chunks <= 1 {
            Step::Done(Dur::micros(DEVICE_CHUNK_US))
        } else {
            self.chunks_left = Some(chunks - 1);
            Step::Run(Dur::micros(DEVICE_CHUNK_US))
        }
    }

    fn label(&self) -> &'static str {
        "device-isr"
    }
}

/// A handler that does nothing (the reschedule poke: its purpose is the
/// wakeup, not the body).
#[derive(Debug)]
pub struct NopHandler;

impl<S: HasKernel> Process<S, ()> for NopHandler {
    fn step(&mut self, ctx: &mut Ctx<'_, S, ()>) -> Step {
        Step::Done(ctx.costs().local_op)
    }

    fn label(&self) -> &'static str {
        "resched"
    }
}

/// Starts device interrupts on every processor, one background stream
/// each, until `until`, with the given mean period and full jitter (the
/// first arrival is uniform in `(0, 2*period)`, each later gap in
/// `(0.05, 1.95) * period`): device arrivals are bursty, not clocked, so
/// they do not synchronize with the measured workloads.
pub fn schedule_device_interrupts<S, P>(m: &mut Machine<S, P>, period: Dur, until: Time) {
    assert!(
        !period.is_zero(),
        "device interrupt period must be positive"
    );
    let spacing = StreamSpacing::Jittered {
        mean: period,
        lo: 0.05,
        hi: 1.95,
    };
    for c in 0..m.n_cpus() {
        let first = Time::ZERO + period.mul_f64(m.rng_mut().gen_range(0.0..2.0));
        m.schedule_interrupt_stream(CpuId::new(c as u32), DEVICE_VECTOR, first, until, spacing);
    }
}

#[derive(Debug)]
enum SwitchPhase {
    DetachOld,
    SpinNewLock,
    AttachNew,
}

/// The context-switch path of the pmap module: detach the old user pmap
/// (flushing the untagged TLB; ASID-tagged buffers keep entries and the
/// pmap stays "in use" until they are explicitly flushed, Section 10),
/// then attach the new one.
///
/// Attaching spins while the target pmap is locked: a processor must not
/// start caching translations of a pmap whose update (and shootdown) is in
/// flight, because the initiator has already decided whom to synchronize
/// with.
#[derive(Debug)]
pub struct SwitchUserPmapProcess {
    new: Option<PmapId>,
    phase: SwitchPhase,
}

impl SwitchUserPmapProcess {
    /// Creates a switch to `new` (or to no user pmap).
    pub fn new(new: Option<PmapId>) -> SwitchUserPmapProcess {
        SwitchUserPmapProcess {
            new,
            phase: SwitchPhase::DetachOld,
        }
    }
}

impl<S: HasKernel> Process<S, ()> for SwitchUserPmapProcess {
    fn step(&mut self, ctx: &mut Ctx<'_, S, ()>) -> Step {
        let me = ctx.cpu_id;
        match self.phase {
            SwitchPhase::DetachOld => {
                let mut cost = ctx.costs().local_op;
                if ctx.shared.kernel_mut().cur_user_pmap[me.index()] == self.new {
                    // Same address space (or staying detached): a thread
                    // switch with no pmap work.
                    return Step::Done(ctx.costs().context_switch);
                }
                if let Some(old) = ctx.shared.kernel_mut().cur_user_pmap[me.index()].take() {
                    let flushed = ctx.shared.kernel_mut().tlbs[me.index()].on_context_switch(old);
                    if flushed > 0 {
                        cost += ctx.costs().tlb_flush_all;
                    }
                    if !ctx.shared.kernel_mut().config.tlb.asid_tagged {
                        ctx.shared
                            .kernel_mut()
                            .pmaps
                            .get_mut(old)
                            .mark_not_in_use(me);
                        // Dropping out of the user set can satisfy an
                        // initiator's wait or change its queue scan.
                        ctx.notify(SYNC_CHANNEL);
                        cost += ctx.bus_write();
                    }
                }
                self.phase = SwitchPhase::SpinNewLock;
                Step::Run(cost)
            }
            SwitchPhase::SpinNewLock => {
                if let Some(new) = self.new {
                    let (contended, live_holder, chan) = {
                        let pmap = ctx.shared.kernel().pmaps.get(new);
                        let contended = pmap.locked_by_other(me);
                        // Every shard shares the umbrella channel, so any
                        // blocking holder can be waited for on shard 0's.
                        let chan = pmap.lock().channel();
                        // A holder that is still alive (or health tracking is
                        // off, in which case every holder counts as alive).
                        let health = ctx.shared.kernel().config.health;
                        let live = pmap.shards().any(|l| {
                            l.holder().is_some_and(|h| {
                                h != me && !(health.enabled && ctx.is_cpu_halted(h))
                            })
                        });
                        (contended, live, chan)
                    };
                    if contended {
                        let health = ctx.shared.kernel().config.health;
                        if health.enabled && !live_holder {
                            // A fail-stop holder never releases. The switch
                            // only waits for the in-flight update to settle,
                            // and a dead updater's half-staged work is redone
                            // by the next (lock-stealing) operation anyway,
                            // so proceeding is as sound as the steal itself.
                            self.phase = SwitchPhase::AttachNew;
                            return Step::Run(ctx.costs().local_op + ctx.bus_read());
                        }
                        return lock_wait(ctx, chan.as_slice());
                    }
                }
                self.phase = SwitchPhase::AttachNew;
                Step::Run(ctx.costs().local_op)
            }
            SwitchPhase::AttachNew => {
                let mut cost = ctx.costs().context_switch;
                if let Some(new) = self.new {
                    // Recheck the lock in the SAME atomic step as the
                    // attach. An interrupt can delay this step long enough
                    // for an initiator to lock the pmap and scan the user
                    // set without us; attaching anyway would let this
                    // processor demand-load soon-to-be-stale translations
                    // that no shootdown will ever flush. A fail-stop holder
                    // is excused exactly as in SpinNewLock.
                    let health = ctx.shared.kernel().config.health;
                    let relocked = {
                        let pmap = ctx.shared.kernel().pmaps.get(new);
                        pmap.locked_by_other(me)
                            && (!health.enabled
                                || pmap.shards().any(|l| {
                                    l.holder().is_some_and(|h| h != me && !ctx.is_cpu_halted(h))
                                }))
                    };
                    if relocked {
                        ctx.shared.kernel_mut().stats.attach_rechecks += 1;
                        self.phase = SwitchPhase::SpinNewLock;
                        return Step::Run(ctx.costs().spin_check());
                    }
                    ctx.shared.kernel_mut().pmaps.get_mut(new).mark_in_use(me);
                    ctx.shared.kernel_mut().cur_user_pmap[me.index()] = Some(new);
                    // Joining the user set can redirect a blocked
                    // initiator's queue scan to this processor.
                    ctx.notify(SYNC_CHANNEL);
                    cost += ctx.bus_write();
                }
                Step::Done(cost)
            }
        }
    }

    fn label(&self) -> &'static str {
        "switch-pmap"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::KernelConfig;
    use machtlb_pmap::{Pfn, Prot, Vpn};
    use machtlb_sim::RunStatus;

    #[test]
    fn switch_to_same_pmap_skips_the_flush() {
        let mut m = build_kernel_machine(1, 1, CostModel::multimax(), KernelConfig::default());
        let pmap = {
            let s = m.shared_mut();
            let pmap = s.pmaps.create();
            s.force_active(CpuId::new(0));
            pmap
        };
        m.spawn_at(
            CpuId::new(0),
            Time::ZERO,
            Box::new(SwitchUserPmapProcess::new(Some(pmap))),
        );
        m.run(Time::from_micros(10_000));
        let flushes_after_first = m.shared().tlbs[0].stats().flushes;
        // Load an entry, switch to the same pmap again: it must survive.
        {
            let s = m.shared_mut();
            let pfn = Pfn::new(9);
            s.seed_mapping(pmap, Vpn::new(1), pfn, Prot::READ);
            s.tlbs[0].insert(
                pmap,
                Vpn::new(1),
                machtlb_pmap::Pte::valid(pfn, Prot::READ),
                Time::ZERO,
            );
        }
        m.spawn_at(
            CpuId::new(0),
            Time::from_micros(20_000),
            Box::new(SwitchUserPmapProcess::new(Some(pmap))),
        );
        let r = m.run(Time::from_micros(50_000));
        assert_eq!(r.status, RunStatus::Quiescent);
        let s = m.shared();
        assert_eq!(
            s.tlbs[0].stats().flushes,
            flushes_after_first,
            "no flush on same-pmap switch"
        );
        assert!(
            s.tlbs[0].peek(pmap, Vpn::new(1)).is_some(),
            "entry survived"
        );
        assert_eq!(s.cur_user_pmap[0], Some(pmap));
    }

    #[test]
    fn timer_flush_handler_stamps_and_flushes() {
        let kconfig = KernelConfig {
            strategy: crate::Strategy::TimerDelayed,
            tlb: machtlb_tlb::TlbConfig {
                writeback: machtlb_tlb::WritebackPolicy::Interlocked,
                ..machtlb_tlb::TlbConfig::multimax()
            },
            ..KernelConfig::default()
        };
        let mut m = build_kernel_machine(2, 3, CostModel::multimax(), kconfig);
        {
            let s = m.shared_mut();
            let pmap = s.pmaps.create();
            let pfn = s.frames.alloc();
            s.tlbs[1].insert(
                pmap,
                Vpn::new(4),
                machtlb_pmap::Pte::valid(pfn, Prot::READ),
                Time::ZERO,
            );
        }
        m.schedule_interrupt(CpuId::new(1), TIMER_FLUSH_VECTOR, Time::from_micros(100));
        m.run(Time::from_micros(10_000));
        let s = m.shared();
        assert!(s.tlbs[1].is_empty(), "the handler flushed the buffer");
        assert!(
            s.tlb_flush_stamp[1] >= Time::from_micros(100),
            "and stamped the epoch clock"
        );
        assert_eq!(s.tlb_flush_stamp[0], Time::ZERO, "cpu0 untouched");
    }

    #[test]
    fn device_handler_durations_are_bounded() {
        // Dispatch many device interrupts and check every handler finished
        // within the configured bounds (5us..250us bodies).
        let mut m = build_kernel_machine(1, 9, CostModel::multimax(), KernelConfig::default());
        for i in 0..50u64 {
            m.schedule_interrupt(CpuId::new(0), DEVICE_VECTOR, Time::from_micros(i * 5_000));
        }
        let r = m.run(Time::from_micros(300_000_000));
        assert_eq!(r.status, RunStatus::Quiescent);
        assert_eq!(m.cpu(CpuId::new(0)).stats().interrupts, 50);
    }

    #[test]
    fn pending_commits_mature_only_after_every_processor_flushes() {
        let kconfig = KernelConfig {
            strategy: crate::Strategy::TimerDelayed,
            tlb: machtlb_tlb::TlbConfig {
                writeback: machtlb_tlb::WritebackPolicy::Interlocked,
                ..machtlb_tlb::TlbConfig::multimax()
            },
            ..KernelConfig::default()
        };
        let mut m = build_kernel_machine(2, 5, CostModel::multimax(), kconfig);
        {
            let s = m.shared_mut();
            let pmap = s.pmaps.create();
            s.pending_commits.push(crate::PendingCommit {
                pmap,
                changes: vec![(Vpn::new(1), machtlb_pmap::Pte::INVALID)],
                applied_at: Time::from_micros(50),
            });
        }
        // Only cpu0 flushes: the commit must not mature.
        m.schedule_interrupt(CpuId::new(0), TIMER_FLUSH_VECTOR, Time::from_micros(100));
        m.run(Time::from_micros(5_000));
        assert_eq!(m.shared().pending_commits.len(), 1);
        // cpu1 flushes too: now it matures.
        m.schedule_interrupt(CpuId::new(1), TIMER_FLUSH_VECTOR, Time::from_micros(10_000));
        m.run(Time::from_micros(50_000));
        assert!(m.shared().pending_commits.is_empty());
    }
}
