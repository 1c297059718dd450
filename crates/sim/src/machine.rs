//! The machine: processors, shared memory image, bus, interrupt controller,
//! and the deterministic scheduler.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::fmt;
use std::rc::Rc;

use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::bus::{BusOp, BusStats};
use crate::cost::CostModel;
use crate::cpu::{CpuCore, CpuId, Frame, ParkState};
use crate::event::{skipped_iterations, wake_for_delivery, wake_for_notify, WaitChannel};
use crate::fault::{FaultInjector, FaultKind, FaultPlan, FaultRecord, FaultStats};
use crate::intr::{FanoutTree, IntrClass, IntrMask, Vector};
use crate::process::{Command, Ctx, Process};
use crate::time::{Dur, Time};
use crate::topology::{BusFabric, FabricStats, Topology};

/// Static configuration of a simulated machine.
#[derive(Clone, Debug)]
pub struct MachineConfig {
    /// Number of processors. The paper's evaluation machine has 16; the
    /// Section 8 extrapolation runs hundreds.
    pub n_cpus: usize,
    /// Seed for the machine's deterministic random number generator. Equal
    /// seeds and equal programs produce identical executions.
    pub seed: u64,
    /// The cost model charged for primitive actions.
    pub costs: CostModel,
    /// The node layout. [`Topology::flat`] reproduces the paper's single
    /// shared bus bit-identically; a multi-node topology gives every node
    /// its own bus and routes cross-node traffic over the interconnect.
    pub topology: Topology,
}

impl MachineConfig {
    /// A 16-processor Multimax-like machine, the paper's platform.
    pub fn multimax16(seed: u64) -> MachineConfig {
        MachineConfig {
            n_cpus: 16,
            seed,
            costs: CostModel::multimax(),
            topology: Topology::flat(16),
        }
    }
}

impl Default for MachineConfig {
    fn default() -> MachineConfig {
        MachineConfig::multimax16(0)
    }
}

/// Why [`Machine::run`] returned.
///
/// A `StepLimit` return usually means a runaway spin; call
/// [`Machine::frames_diagnostic`] for the still-running frames behind it.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum RunStatus {
    /// No processor is runnable and no event is scheduled: the machine has
    /// nothing left to do (every processor is idle or parked indefinitely).
    Quiescent,
    /// The next event lies beyond the time limit. Also reported when the
    /// only processors left are event-blocked with no wake in sight: the
    /// equivalent stepped spinners would burn simulated time to the limit.
    TimeLimit,
    /// The step budget was exhausted (a guard against runaway spins).
    StepLimit,
}

/// Summary of a [`Machine::run`] call.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct RunReport {
    /// Why the run stopped.
    pub status: RunStatus,
    /// Process steps plus interrupt dispatches executed during this call.
    pub steps: u64,
    /// The latest event time processed.
    pub frontier: Time,
}

enum QueuedKind<S, P> {
    Interrupt(Vector),
    /// One hop of a tree-fanout multicast: latches like an interrupt at the
    /// target, and (unless the target is halted) forwards the descriptor to
    /// the target's children in the [`FanoutTree`] laid over the group.
    Multicast {
        vector: Vector,
        group: Rc<MulticastGroup>,
        slot: usize,
    },
    Spawn(Box<dyn Process<S, P>>),
    /// A fail-stop halt of the target processor (from the fault plan).
    Halt,
    /// Revival of a previously halted processor (from the fault plan).
    Revive,
}

/// The immutable payload of a posted multicast descriptor, shared by every
/// in-flight hop of the same round.
struct MulticastGroup {
    targets: Vec<CpuId>,
    degree: usize,
}

/// Counters for the tree-fanout multicast fabric.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct MulticastStats {
    /// Multicast descriptors posted by processors.
    pub posts: u64,
    /// Controller-to-controller hop sends scheduled (the poster's root
    /// sends plus every relay forward).
    pub forwards: u64,
    /// Hops that landed on a halted relay, pruning its whole subtree.
    pub pruned: u64,
}

struct QueuedDelivery<S, P> {
    at: Time,
    seq: u64,
    target: CpuId,
    kind: QueuedKind<S, P>,
}

impl<S, P> PartialEq for QueuedDelivery<S, P> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<S, P> Eq for QueuedDelivery<S, P> {}
impl<S, P> PartialOrd for QueuedDelivery<S, P> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<S, P> Ord for QueuedDelivery<S, P> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

type HandlerFactory<S, P> = Box<dyn Fn(&mut S, CpuId, Time) -> Box<dyn Process<S, P>>>;

struct HandlerEntry<S, P> {
    class: IntrClass,
    handler_mask: IntrMask,
    factory: HandlerFactory<S, P>,
}

/// A simulated shared-memory multiprocessor.
///
/// `S` is the shared memory image (the kernel's data structures); `P` is the
/// per-processor hardware payload (e.g. the TLB). The scheduler always steps
/// the processor with the smallest local clock, so every shared-state access
/// happens at a single, globally ordered instant and runs are deterministic
/// for a given seed.
///
/// # Examples
///
/// ```
/// use machtlb_sim::{Ctx, Dur, Machine, MachineConfig, Process, Step, Time};
///
/// #[derive(Debug)]
/// struct Incr(u32);
/// impl Process<u32, ()> for Incr {
///     fn step(&mut self, ctx: &mut Ctx<'_, u32, ()>) -> Step {
///         *ctx.shared += self.0;
///         Step::Done(Dur::micros(1))
///     }
/// }
///
/// let mut m = Machine::new(MachineConfig::multimax16(42), 0u32, |_| ());
/// m.spawn_at(machtlb_sim::CpuId::new(3), Time::ZERO, Box::new(Incr(5)));
/// let report = m.run(Time::from_micros(1_000));
/// assert_eq!(*m.shared(), 5);
/// assert_eq!(report.status, machtlb_sim::RunStatus::Quiescent);
/// ```
pub struct Machine<S, P> {
    cpus: Vec<CpuCore<S, P>>,
    shared: S,
    fabric: BusFabric,
    costs: CostModel,
    rng: SmallRng,
    handlers: BTreeMap<Vector, HandlerEntry<S, P>>,
    deliveries: BinaryHeap<Reverse<QueuedDelivery<S, P>>>,
    faults: Option<FaultInjector>,
    /// Per-processor fail-stop flags: a halted processor is never stepped,
    /// woken, or notified until (and unless) a revive delivery clears it.
    halted: Vec<bool>,
    multicast_stats: MulticastStats,
    /// The stepped-wait oracle: see [`Machine::set_stepped_waits`].
    stepped_waits: bool,
    seq: u64,
    total_steps: u64,
    frontier: Time,
}

impl<S, P> Machine<S, P> {
    /// Builds a machine with `config.n_cpus` processors, the given shared
    /// memory image, and a per-processor payload produced by `payload`.
    ///
    /// # Panics
    ///
    /// Panics if `config.n_cpus` is zero.
    pub fn new(
        config: MachineConfig,
        shared: S,
        mut payload: impl FnMut(CpuId) -> P,
    ) -> Machine<S, P> {
        assert!(config.n_cpus > 0, "a machine needs at least one processor");
        let cpus = (0..config.n_cpus)
            .map(|i| {
                let id = CpuId::new(i as u32);
                CpuCore::new(id, payload(id))
            })
            .collect();
        Machine {
            cpus,
            shared,
            fabric: BusFabric::new(
                config.topology,
                config.costs.bus_occupancy,
                config.costs.interconnect_occupancy,
            ),
            costs: config.costs,
            rng: SmallRng::seed_from_u64(config.seed),
            handlers: BTreeMap::new(),
            deliveries: BinaryHeap::new(),
            faults: None,
            halted: vec![false; config.n_cpus],
            multicast_stats: MulticastStats::default(),
            stepped_waits: false,
            seq: 0,
            total_steps: 0,
            frontier: Time::ZERO,
        }
    }

    /// Registers the handler process spawned when `vector` is dispatched.
    /// Dispatch blocks all interrupts for the handler's duration and
    /// restores the previous mask when it completes, as most hardware does
    /// by default (Section 4). Use [`Machine::register_handler_with_mask`]
    /// to model hardware that leaves some classes deliverable during the
    /// handler (the Section 9 high-priority software interrupt).
    ///
    /// The factory receives the dispatching processor's clock at the
    /// vectoring instant, so handlers can timestamp the delivery itself
    /// (instrumentation needs the moment the interrupt landed, not the
    /// moment the handler body first runs after the entry cost).
    pub fn register_handler(
        &mut self,
        vector: Vector,
        class: IntrClass,
        factory: impl Fn(&mut S, CpuId, Time) -> Box<dyn Process<S, P>> + 'static,
    ) {
        self.register_handler_with_mask(vector, class, IntrMask::ALL_BLOCKED, factory);
    }

    /// Like [`Machine::register_handler`], but dispatch applies
    /// `handler_mask` instead of blocking everything, so e.g. a device
    /// handler can stay preemptible by shootdown IPIs.
    pub fn register_handler_with_mask(
        &mut self,
        vector: Vector,
        class: IntrClass,
        handler_mask: IntrMask,
        factory: impl Fn(&mut S, CpuId, Time) -> Box<dyn Process<S, P>> + 'static,
    ) {
        self.handlers.insert(
            vector,
            HandlerEntry {
                class,
                handler_mask,
                factory: Box::new(factory),
            },
        );
    }

    /// The interrupt class `vector` was registered with, if any.
    pub fn class_of(&self, vector: Vector) -> Option<IntrClass> {
        self.handlers.get(&vector).map(|h| h.class)
    }

    /// Turns the stepped-wait test oracle on or off (off by default).
    /// While on, every [`Step::Block`](crate::Step::Block) runs exactly
    /// like `Step::Run(on.interval)`, ignoring channels and deadline: the
    /// stepped spin loop (see the `event` module docs).
    pub fn set_stepped_waits(&mut self, on: bool) {
        self.stepped_waits = on;
    }

    /// Schedules `proc` to start on `target` at `at`. Spawned processes are
    /// pushed on top of the target's frame stack when delivered; use this to
    /// install base processes (dispatchers, idle loops) on otherwise idle
    /// processors.
    ///
    /// # Panics
    ///
    /// Panics if `target` is out of range.
    pub fn spawn_at(&mut self, target: CpuId, at: Time, proc: Box<dyn Process<S, P>>) {
        assert!(
            target.index() < self.cpus.len(),
            "spawn_at: bad target {target}"
        );
        self.push_delivery(at, target, QueuedKind::Spawn(proc));
    }

    /// Latches `vector` pending on `target` at `at` (an externally generated
    /// interrupt, e.g. a device or timer).
    ///
    /// # Panics
    ///
    /// Panics if `target` is out of range.
    pub fn schedule_interrupt(&mut self, target: CpuId, vector: Vector, at: Time) {
        assert!(
            target.index() < self.cpus.len(),
            "schedule_interrupt: bad target {target}"
        );
        self.push_delivery(at, target, QueuedKind::Interrupt(vector));
    }

    /// Enqueues an IPI delivery, routed through the fault injector when one
    /// is installed (which may drop, delay, or duplicate it).
    fn inject_ipi(&mut self, target: CpuId, vector: Vector, at: Time) {
        match self.faults.as_mut() {
            None => self.push_delivery(at, target, QueuedKind::Interrupt(vector)),
            Some(inj) => {
                let sends = inj.filter_ipi(target, vector, at);
                for (tgt, when) in sends {
                    self.push_delivery(when, tgt, QueuedKind::Interrupt(vector));
                }
            }
        }
    }

    fn push_delivery(&mut self, at: Time, target: CpuId, kind: QueuedKind<S, P>) {
        let seq = self.seq;
        self.seq += 1;
        self.deliveries.push(Reverse(QueuedDelivery {
            at,
            seq,
            target,
            kind,
        }));
    }

    /// Runs until quiescence or until the next event would lie past `limit`.
    pub fn run(&mut self, limit: Time) -> RunReport {
        self.run_bounded(limit, u64::MAX)
    }

    /// Runs like [`Machine::run`] but also stops after `max_steps` scheduler
    /// steps, guarding tests against runaway spin loops.
    pub fn run_bounded(&mut self, limit: Time, max_steps: u64) -> RunReport {
        let mut steps = 0u64;
        let status =
            loop {
                if steps >= max_steps {
                    break RunStatus::StepLimit;
                }
                let Some(t) = self.next_event_time() else {
                    // An event-blocked processor with nothing left to wake it
                    // is the stepped mode's eternal spinner: time, not work,
                    // is what ran out. A halted processor contributes nothing:
                    // the machine is quiescent once everything alive is done.
                    if self.cpus.iter().enumerate().any(|(i, c)| {
                        !self.halted[i] && matches!(c.park, ParkState::Blocked { .. })
                    }) {
                        break RunStatus::TimeLimit;
                    }
                    break RunStatus::Quiescent;
                };
                if t > limit {
                    break RunStatus::TimeLimit;
                }
                self.frontier = self.frontier.max(t);
                self.apply_due_deliveries(t);
                steps += self.wake_expired_parks(t);
                let Some(i) = self.min_clock_runnable() else {
                    // Deliveries were all in the future relative to a parked
                    // processor that did not wake; recompute.
                    continue;
                };
                // A delivery latched at `t` can set a blocked processor's wake
                // instant between `t` and the earliest runnable clock. Stepping
                // the runnable processor first would run the machine out of
                // global time order — its bus traffic would land ahead of the
                // woken processor's — so recompute and handle the wake first.
                if self
                    .next_event_time()
                    .is_some_and(|t2| t2 < self.cpus[i].clock)
                {
                    continue;
                }
                self.step_cpu(i);
                steps += 1;
                self.total_steps += 1;
            };
        RunReport {
            status,
            steps,
            frontier: self.frontier,
        }
    }

    /// The earliest instant at which anything can happen: a runnable
    /// processor's clock, a park deadline, or a queued delivery.
    fn next_event_time(&self) -> Option<Time> {
        let mut next: Option<Time> = None;
        let mut consider = |t: Time| next = Some(next.map_or(t, |n: Time| n.min(t)));
        for (i, cpu) in self.cpus.iter().enumerate() {
            // A halted processor has no next event of its own; its revival
            // (if any) sits in the delivery heap.
            if self.halted[i] {
                continue;
            }
            match cpu.park {
                ParkState::Running => consider(cpu.clock),
                ParkState::Parked { until: Some(d) } => consider(d.max(cpu.clock)),
                ParkState::Parked { until: None } => {}
                // A computed wake instant is always >= the blocked clock.
                ParkState::Blocked {
                    wake_at: Some(w), ..
                } => consider(w),
                ParkState::Blocked { wake_at: None, .. } => {}
            }
        }
        if let Some(Reverse(d)) = self.deliveries.peek() {
            consider(d.at);
        }
        next
    }

    fn apply_due_deliveries(&mut self, t: Time) {
        while let Some(Reverse(head)) = self.deliveries.peek() {
            if head.at > t {
                break;
            }
            let Reverse(d) = self.deliveries.pop().expect("peeked delivery vanished");
            let QueuedDelivery {
                at, target, kind, ..
            } = d;
            // A multicast hop forwards to its children before latching; a
            // halted relay forwards nothing, pruning its subtree.
            let kind = match kind {
                QueuedKind::Multicast {
                    vector,
                    group,
                    slot,
                } => {
                    self.forward_multicast(&group, slot, vector, at, target);
                    QueuedKind::Interrupt(vector)
                }
                k => k,
            };
            let cpu = &mut self.cpus[target.index()];
            match kind {
                QueuedKind::Interrupt(v) => {
                    cpu.pending.insert(v);
                }
                QueuedKind::Multicast { .. } => unreachable!("multicast hop latches as interrupt"),
                QueuedKind::Spawn(proc) => {
                    cpu.stack.push(Frame {
                        proc,
                        restore_mask: None,
                        wake_skipped: 0,
                    });
                }
                QueuedKind::Halt => {
                    // Fail-stop: freeze the processor exactly as it stands
                    // (park state, stacked frames, latched interrupts).
                    self.halted[target.index()] = true;
                    if let Some(inj) = self.faults.as_mut() {
                        inj.record(at, target, FaultKind::Halted);
                    }
                    continue;
                }
                QueuedKind::Revive => {
                    // Resume dispatching at the revival instant. The wake is
                    // deliberately spurious — whatever the processor was
                    // blocked on gets a live re-check, so no notification
                    // missed during the dead window is ever load-bearing.
                    self.halted[target.index()] = false;
                    cpu.park = ParkState::Running;
                    cpu.clock = cpu.clock.max(at);
                    if let Some(inj) = self.faults.as_mut() {
                        inj.record(at, target, FaultKind::Revived);
                    }
                    continue;
                }
            }
            // A delivery to a halted processor latches (the wire does not
            // know the target is dead) but wakes nothing.
            if self.halted[target.index()] {
                continue;
            }
            // Any arrival wakes a parked processor (wakeups may be spurious).
            match &mut cpu.park {
                ParkState::Parked { .. } => {
                    cpu.park = ParkState::Running;
                    cpu.clock = cpu.clock.max(at);
                }
                // A blocked spinner is preempted at its first check at or
                // after the latch — exactly where the stepped loop's next
                // scheduler step would dispatch the interrupt or run the
                // spawned frame instead of the failed check.
                ParkState::Blocked {
                    anchor,
                    on,
                    wake_at,
                    ..
                } => {
                    let cand = wake_for_delivery(*anchor, on.interval, at);
                    *wake_at = Some(wake_at.map_or(cand, |w| w.min(cand)));
                }
                ParkState::Running => {}
            }
        }
    }

    /// Schedules the child hops of the multicast hop that just landed on
    /// `relay` at `at`. The j-th forward leaves the relay's controller after
    /// `(j+1) · ipi_send` and lands `ipi_latency` later; each hop is routed
    /// through the fault injector like any other IPI. A halted relay still
    /// latches its own interrupt (the wire does not know) but forwards
    /// nothing — the subtree below it is lost until software repairs it.
    fn forward_multicast(
        &mut self,
        group: &Rc<MulticastGroup>,
        slot: usize,
        vector: Vector,
        at: Time,
        relay: CpuId,
    ) {
        if self.halted[relay.index()] {
            self.multicast_stats.pruned += 1;
            return;
        }
        let tree = FanoutTree::new(group.degree, group.targets.len());
        let topology = self.fabric.topology();
        for (j, child) in tree.children(slot).enumerate() {
            // A cross-node forward pays the interconnect's delivery latency
            // on top of the controller hop (zero on a flat topology).
            let when = at
                + self.costs.ipi_send * (j as u64 + 1)
                + self.costs.ipi_latency
                + topology.ipi_extra(relay, group.targets[child]);
            self.multicast_stats.forwards += 1;
            self.send_multicast_hop(group.clone(), child, vector, when);
        }
    }

    /// Enqueues one multicast hop delivery, routed through the fault
    /// injector when one is installed.
    fn send_multicast_hop(
        &mut self,
        group: Rc<MulticastGroup>,
        slot: usize,
        vector: Vector,
        at: Time,
    ) {
        let target = group.targets[slot];
        match self.faults.as_mut() {
            None => self.push_delivery(
                at,
                target,
                QueuedKind::Multicast {
                    vector,
                    group,
                    slot,
                },
            ),
            Some(inj) => {
                let sends = inj.filter_ipi(target, vector, at);
                for (tgt, when) in sends {
                    self.push_delivery(
                        when,
                        tgt,
                        QueuedKind::Multicast {
                            vector,
                            group: group.clone(),
                            slot,
                        },
                    );
                }
            }
        }
    }

    /// Returns the number of analytically backfilled spin iterations, which
    /// count as scheduler steps for both the lifetime total and the running
    /// [`RunReport::steps`] / step-budget accounting.
    fn wake_expired_parks(&mut self, t: Time) -> u64 {
        let mut backfilled = 0u64;
        for (i, cpu) in self.cpus.iter_mut().enumerate() {
            if self.halted[i] {
                continue;
            }
            match cpu.park {
                ParkState::Parked { until: Some(d) } if d.max(cpu.clock) <= t => {
                    cpu.park = ParkState::Running;
                    cpu.clock = cpu.clock.max(d);
                }
                ParkState::Blocked {
                    anchor,
                    on,
                    wake_at: Some(w),
                    frame,
                } if w <= t => {
                    // Charge the spin iterations the stepped loop would
                    // have executed between the parking check and the wake
                    // instant, then resume for the live re-check (or the
                    // interrupt dispatch that preempts it).
                    let skipped = skipped_iterations(anchor, on.interval, w);
                    cpu.stats.steps += skipped;
                    cpu.stats.busy += on.interval * skipped;
                    cpu.stack[frame].wake_skipped = skipped;
                    backfilled += skipped;
                    cpu.clock = w;
                    cpu.park = ParkState::Running;
                }
                _ => {}
            }
        }
        self.total_steps += backfilled;
        backfilled
    }

    /// Schedules wakeups for processors blocked on `chan` after a write at
    /// instant `now` by processor `writer`.
    fn apply_notify(&mut self, chan: WaitChannel, now: Time, writer: usize) {
        for (idx, cpu) in self.cpus.iter_mut().enumerate() {
            // A halted listener misses the notification; if it revives, the
            // revival itself is a spurious wake and live re-check.
            if self.halted[idx] {
                continue;
            }
            let ParkState::Blocked {
                anchor,
                on,
                wake_at,
                ..
            } = &mut cpu.park
            else {
                continue;
            };
            if !on.listens_to(chan) {
                continue;
            }
            let cand = wake_for_notify(*anchor, on.interval, now, writer < idx);
            *wake_at = Some(wake_at.map_or(cand, |w| w.min(cand)));
        }
    }

    fn min_clock_runnable(&self) -> Option<usize> {
        self.cpus
            .iter()
            .enumerate()
            .filter(|(i, c)| !self.halted[*i] && c.park == ParkState::Running)
            .min_by_key(|(i, c)| (c.clock, *i))
            .map(|(i, _)| i)
    }

    /// Executes one scheduler step on processor `i`: either dispatches a
    /// deliverable pending interrupt or steps the top process frame.
    fn step_cpu(&mut self, i: usize) {
        let Machine {
            cpus,
            shared,
            fabric,
            costs,
            rng,
            handlers,
            faults,
            halted,
            stepped_waits,
            ..
        } = self;
        let n_cpus = cpus.len();
        let cpu = &mut cpus[i];
        let cpu_id = cpu.id();
        let node = fabric.topology().node_of(cpu_id);

        // Interrupt dispatch takes priority over the current frame.
        if let Some(v) = cpu.deliverable(|v| handlers.get(&v).map(|h| h.class)) {
            cpu.pending.remove(&v);
            let prev_mask = cpu.mask;
            cpu.mask = handlers
                .get(&v)
                .map(|h| h.handler_mask)
                .unwrap_or(IntrMask::ALL_BLOCKED);
            // Vectoring plus saving register state through the write-through
            // cache: each saved word is a bus write. With many processors
            // interrupted at once these writes queue — the Figure 2 knee.
            let mut cost = costs.intr_entry;
            for _ in 0..costs.state_save_words {
                // State saves go to the dispatching processor's own node.
                cost += fabric.access_local(cpu.clock, node, BusOp::Write, costs.bus_write_latency);
            }
            let handler = handlers
                .get(&v)
                .expect("deliverable vector lost its handler");
            if let Some(inj) = faults.as_mut() {
                cost += inj.dispatch_extra(cpu_id, v, handler.class, cpu.clock);
            }
            let proc = (handler.factory)(shared, cpu_id, cpu.clock);
            cpu.stack.push(Frame {
                proc,
                restore_mask: Some(prev_mask),
                wake_skipped: 0,
            });
            cpu.clock += cost;
            cpu.stats.interrupts += 1;
            cpu.stats.busy += cost;
            return;
        }

        let Some(mut frame) = cpu.stack.pop() else {
            // Nothing to run: idle until something arrives.
            cpu.park = ParkState::Parked { until: None };
            return;
        };

        let mut commands: Vec<Command<S, P>> = Vec::new();
        let now = cpu.clock;
        let step = {
            let mut ctx = Ctx {
                now,
                cpu_id,
                shared,
                payload: &mut cpu.payload,
                mask: &mut cpu.mask,
                pending: &cpu.pending,
                fabric,
                node,
                costs,
                rng,
                commands: &mut commands,
                n_cpus,
                halted: &*halted,
                woken_spins: std::mem::take(&mut frame.wake_skipped),
            };
            frame.proc.step(&mut ctx)
        };

        cpu.stats.steps += 1;
        match step {
            crate::Step::Run(d) => {
                cpu.clock += d;
                cpu.stats.busy += d;
                cpu.stack.push(frame);
            }
            crate::Step::Done(d) => {
                let mut cost = d;
                if let Some(m) = frame.restore_mask {
                    cpu.mask = m;
                    cost += costs.intr_exit;
                }
                cpu.clock += cost;
                cpu.stats.busy += cost;
            }
            crate::Step::Park(until) => {
                cpu.stack.push(frame);
                cpu.park = ParkState::Parked { until };
            }
            crate::Step::Block(on) => {
                // The blocking step is the spin loop's live failed check:
                // charged exactly like `Run(on.interval)`, then parked on
                // the channels with the check instant as lattice anchor.
                // The stepped-wait oracle stops short of the park: the
                // frame stays runnable and re-checks one interval later.
                assert!(
                    on.interval > Dur::ZERO,
                    "a blocking process must name its per-iteration cost"
                );
                cpu.clock += on.interval;
                cpu.stats.busy += on.interval;
                cpu.stack.push(frame);
                if !*stepped_waits {
                    cpu.park = ParkState::Blocked {
                        anchor: now,
                        on,
                        // A deadline seeds the wake instant up front: the
                        // stepped loop's first check at or after the expiry.
                        wake_at: on.deadline.map(|d| wake_for_delivery(now, on.interval, d)),
                        frame: cpu.stack.len() - 1,
                    };
                }
            }
        }

        // Apply staged commands. Traps push onto this processor's stack so
        // they run before the trapping process resumes.
        let topology = self.fabric.topology();
        let sender = CpuId::new(i as u32);
        for cmd in commands {
            match cmd {
                Command::SendIpi { target, vector, at } => {
                    let when = at + topology.ipi_extra(sender, target);
                    self.inject_ipi(target, vector, when);
                }
                Command::BroadcastIpi { vector, at } => {
                    for t in 0..n_cpus {
                        if t == i {
                            continue;
                        }
                        let target = CpuId::new(t as u32);
                        let when = at + topology.ipi_extra(sender, target);
                        self.inject_ipi(target, vector, when);
                    }
                }
                Command::MulticastIpi {
                    targets,
                    vector,
                    degree,
                    at,
                } => {
                    self.multicast_stats.posts += 1;
                    let tree = FanoutTree::new(degree, targets.len());
                    let group = Rc::new(MulticastGroup { targets, degree });
                    for (j, slot) in tree.root_children().enumerate() {
                        let when = at
                            + self.costs.ipi_send * (j as u64 + 1)
                            + self.costs.ipi_latency
                            + topology.ipi_extra(sender, group.targets[slot]);
                        self.multicast_stats.forwards += 1;
                        self.send_multicast_hop(group.clone(), slot, vector, when);
                    }
                }
                Command::Spawn { target, at, proc } => {
                    let seq = self.seq;
                    self.seq += 1;
                    self.deliveries.push(Reverse(QueuedDelivery {
                        at,
                        seq,
                        target,
                        kind: QueuedKind::Spawn(proc),
                    }));
                }
                Command::Trap { proc } => {
                    self.cpus[i].stack.push(Frame {
                        proc,
                        restore_mask: None,
                        wake_skipped: 0,
                    });
                }
                Command::Notify { chan } => {
                    self.apply_notify(chan, now, i);
                }
            }
        }
    }

    /// The shared memory image.
    pub fn shared(&self) -> &S {
        &self.shared
    }

    /// Mutable access to the shared memory image (between runs).
    pub fn shared_mut(&mut self) -> &mut S {
        &mut self.shared
    }

    /// Consumes the machine, returning the shared memory image.
    pub fn into_shared(self) -> S {
        self.shared
    }

    /// The processor with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn cpu(&self, id: CpuId) -> &CpuCore<S, P> {
        &self.cpus[id.index()]
    }

    /// Mutable access to a processor (between runs).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn cpu_mut(&mut self, id: CpuId) -> &mut CpuCore<S, P> {
        &mut self.cpus[id.index()]
    }

    /// Iterates over all processors.
    pub fn cpus(&self) -> impl Iterator<Item = &CpuCore<S, P>> {
        self.cpus.iter()
    }

    /// Number of processors.
    pub fn n_cpus(&self) -> usize {
        self.cpus.len()
    }

    /// Cumulative bus statistics, aggregated over every node bus and the
    /// interconnect (on a flat topology this is exactly the single bus's
    /// statistics). Use [`Machine::fabric_stats`] for the per-node split.
    pub fn bus_stats(&self) -> BusStats {
        self.fabric.stats().total
    }

    /// Cumulative fabric statistics: the aggregate plus the per-node and
    /// interconnect splits.
    pub fn fabric_stats(&self) -> FabricStats {
        self.fabric.stats()
    }

    /// The machine's node layout.
    pub fn topology(&self) -> Topology {
        self.fabric.topology()
    }

    /// Counters of the tree-fanout multicast fabric (all zero when nothing
    /// ever posted a multicast).
    pub fn multicast_stats(&self) -> MulticastStats {
        self.multicast_stats
    }

    /// Installs a deterministic fault plan. Subsequent IPI sends of the
    /// plan's vector and interrupt dispatches are routed through the
    /// injector; everything else is untouched. A halt or offline rule
    /// schedules its fail-stop instants as ordinary deliveries, so they
    /// replay bit-identically. Installing [`FaultPlan::none`] leaves the
    /// simulated timeline bit-identical to not installing a plan at all.
    ///
    /// # Panics
    ///
    /// Panics if a halt/offline rule names an out-of-range processor or an
    /// offline rule revives at or before its halt instant.
    pub fn install_fault_plan(&mut self, plan: FaultPlan) {
        for h in &plan.halts {
            assert!(h.cpu.index() < self.cpus.len(), "halt: bad cpu {}", h.cpu);
            self.push_delivery(h.at, h.cpu, QueuedKind::Halt);
        }
        for o in &plan.offlines {
            assert!(
                o.cpu.index() < self.cpus.len(),
                "offline: bad cpu {}",
                o.cpu
            );
            assert!(
                o.revive_at > o.at,
                "offline: revive_at must be after the halt instant"
            );
            self.push_delivery(o.at, o.cpu, QueuedKind::Halt);
            self.push_delivery(o.revive_at, o.cpu, QueuedKind::Revive);
        }
        self.faults = Some(FaultInjector::new(plan));
    }

    /// Whether `cpu` is currently halted by a fail-stop fault.
    ///
    /// # Panics
    ///
    /// Panics if `cpu` is out of range.
    pub fn is_halted(&self, cpu: CpuId) -> bool {
        self.halted[cpu.index()]
    }

    /// Statistics of injected faults, if a plan is installed.
    pub fn fault_stats(&self) -> Option<FaultStats> {
        self.faults.as_ref().map(FaultInjector::stats)
    }

    /// Every injected fault so far, in injection order (empty when no plan
    /// is installed).
    pub fn fault_events(&self) -> &[FaultRecord] {
        self.faults.as_ref().map_or(&[], FaultInjector::log)
    }

    /// The interrupts queued for delivery but not yet latched, as
    /// `(delivery instant, target, vector)` triples sorted by instant —
    /// the "which IPIs are in flight" line of a stall report.
    pub fn pending_interrupts(&self) -> Vec<(Time, CpuId, Vector)> {
        let mut out: Vec<(Time, CpuId, Vector)> = self
            .deliveries
            .iter()
            .filter_map(|Reverse(d)| match d.kind {
                QueuedKind::Interrupt(v) => Some((d.at, d.target, v)),
                QueuedKind::Multicast { vector, .. } => Some((d.at, d.target, vector)),
                QueuedKind::Spawn(_) | QueuedKind::Halt | QueuedKind::Revive => None,
            })
            .collect();
        out.sort_unstable_by_key(|&(at, cpu, v)| (at, cpu, v));
        out
    }

    /// The machine's deterministic random number generator (for seeding
    /// randomized schedules outside process steps).
    pub fn rng_mut(&mut self) -> &mut SmallRng {
        &mut self.rng
    }

    /// The latest event time processed so far.
    pub fn frontier(&self) -> Time {
        self.frontier
    }

    /// Total scheduler steps executed over the machine's lifetime.
    pub fn total_steps(&self) -> u64 {
        self.total_steps
    }

    /// Sum of busy time across processors (for overhead accounting).
    pub fn total_busy(&self) -> Dur {
        self.cpus.iter().map(|c| c.stats().busy).sum()
    }

    /// The processors that still have process frames, with the frame
    /// labels innermost-last — the raw material of
    /// [`Machine::frames_diagnostic`].
    pub fn running_frames(&self) -> Vec<(CpuId, Vec<&'static str>)> {
        self.cpus
            .iter()
            .filter(|c| c.depth() > 0)
            .map(|c| (c.id(), c.stack_labels()))
            .collect()
    }

    /// A one-line-per-processor description of every still-running frame
    /// stack, with each processor's clock and park state. Use it when a
    /// run returns [`RunStatus::StepLimit`] to see at a glance which
    /// processes were spinning the budget away.
    pub fn frames_diagnostic(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (i, cpu) in self.cpus.iter().enumerate() {
            if cpu.depth() == 0 {
                continue;
            }
            let state = if self.halted[i] {
                "HALTED"
            } else {
                match cpu.park {
                    ParkState::Running => "running",
                    ParkState::Parked { .. } => "parked",
                    ParkState::Blocked { .. } => "blocked",
                }
            };
            let _ = write!(out, "  {} at {} ({state}):", cpu.id(), cpu.clock());
            for label in cpu.stack_labels() {
                let _ = write!(out, " {label}");
            }
            out.push('\n');
        }
        if out.is_empty() {
            out.push_str("  (no process frames)\n");
        }
        out
    }
}

impl<S: fmt::Debug, P: fmt::Debug> fmt::Debug for Machine<S, P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Machine")
            .field("n_cpus", &self.cpus.len())
            .field("frontier", &self.frontier)
            .field("total_steps", &self.total_steps)
            .field("pending_deliveries", &self.deliveries.len())
            .finish_non_exhaustive()
    }
}
