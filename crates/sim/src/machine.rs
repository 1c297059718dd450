//! The machine: processors, shared memory image, bus, interrupt controller,
//! and the deterministic scheduler.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
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
use crate::sched::{SchedOrder, WaitLists};
use crate::stream::{Jitter, StreamSpacing, GAP_LIMIT_NS};
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
    /// Scheduler steps during this call: the executed ones plus the spin
    /// iterations backfilled analytically when event-blocked processors
    /// woke. Step budgets count these.
    pub steps: u64,
    /// Of `steps`, the ones actually executed: process steps plus
    /// interrupt dispatches.
    pub executed_steps: u64,
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
    /// The next arrival of a background interrupt stream (an index into
    /// `Machine::streams`): latches like an interrupt and queues the
    /// stream's following arrival.
    Stream(usize),
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

/// A background interrupt stream with its arrivals not yet queued. At
/// most one arrival of a stream sits in the delivery heap at a time.
struct IntrStream {
    target: CpuId,
    vector: Vector,
    spacing: StreamSpacing,
    /// Replays the gap draws setup already made on the machine RNG.
    rng: SmallRng,
    /// The heap sequence number reserved for the next unqueued arrival.
    next_seq: u64,
    /// Arrivals left after the queued one.
    remaining: u64,
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

/// The handler registered for `vector`, if any.
fn handler<S, P>(
    handlers: &[Option<HandlerEntry<S, P>>],
    vector: Vector,
) -> Option<&HandlerEntry<S, P>> {
    handlers.get(usize::from(vector.number()))?.as_ref()
}

/// A simulated shared-memory multiprocessor.
///
/// `S` is the shared memory image (the kernel's data structures); `P` is the
/// per-processor hardware payload (e.g. the TLB). The scheduler always steps
/// the processor with the smallest local clock, so every shared-state access
/// happens at a single, globally ordered instant and runs are deterministic
/// for a given seed.
///
/// The scheduler never walks every processor per step. It keeps an index
/// (the `sched` module): runnable processors ordered by `(clock, cpu)`,
/// sleepers ordered by `(wake instant, cpu)`, and each wait channel's
/// event-blocked listeners. Every change to a processor's clock, park
/// state or halt flag refiles that processor, so picking the next step,
/// waking due sleepers and delivering a notify cost O(log n) per
/// processor touched. Among runnable processors at one clock the lower
/// index steps first. A sleeper due at exactly the runnable minimum is
/// woken in time to take part in that tie only when the loop iteration's
/// instant is that minimum, not when it came from an earlier event; the
/// `equal_instant_tie` tests in this module pin both cases.
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
    /// The registered handlers, indexed by vector number.
    handlers: Vec<Option<HandlerEntry<S, P>>>,
    deliveries: BinaryHeap<Reverse<QueuedDelivery<S, P>>>,
    streams: Vec<IntrStream>,
    faults: Option<FaultInjector>,
    /// Per-processor fail-stop flags: a halted processor is never stepped,
    /// woken, or notified until (and unless) a revive delivery clears it.
    halted: Vec<bool>,
    multicast_stats: MulticastStats,
    /// The stepped-wait oracle: see [`Machine::set_stepped_waits`].
    stepped_waits: bool,
    /// The scheduler index (runnable and sleeping orders, channel
    /// listeners); see [`Machine::refile`].
    order: SchedOrder,
    waits: WaitLists,
    /// The commands the current step stages, kept between steps so
    /// staging allocates nothing once the buffer has grown.
    commands: Vec<Command<S, P>>,
    seq: u64,
    total_steps: u64,
    executed_steps: u64,
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
            handlers: Vec::new(),
            deliveries: BinaryHeap::new(),
            streams: Vec::new(),
            faults: None,
            halted: vec![false; config.n_cpus],
            multicast_stats: MulticastStats::default(),
            stepped_waits: false,
            order: SchedOrder::new(config.n_cpus),
            waits: WaitLists::new(config.n_cpus),
            commands: Vec::new(),
            seq: 0,
            total_steps: 0,
            executed_steps: 0,
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
        let slot = usize::from(vector.number());
        if self.handlers.len() <= slot {
            self.handlers.resize_with(slot + 1, || None);
        }
        self.handlers[slot] = Some(HandlerEntry {
            class,
            handler_mask,
            factory: Box::new(factory),
        });
    }

    /// The interrupt class `vector` was registered with, if any.
    pub fn class_of(&self, vector: Vector) -> Option<IntrClass> {
        handler(&self.handlers, vector).map(|h| h.class)
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

    /// Latches `vector` on `target` at `first` and then once per gap of
    /// `spacing` while the arrival instant stays at or before `until` —
    /// a background stream such as a device or a clocked timer.
    ///
    /// The stream is generated lazily: only its next arrival is queued.
    /// The run is nevertheless bit-identical to calling
    /// [`Machine::schedule_interrupt`] for every arrival up front. Setup
    /// draws every jittered gap from the machine RNG once (counting the
    /// arrivals in exact batches, and leaving the RNG exactly where the
    /// up-front loop would), and reserves one delivery sequence number per
    /// arrival, so same-instant ties with other deliveries break as they
    /// would have.
    ///
    /// # Panics
    ///
    /// Panics if `target` is out of range or a clocked period is zero, and
    /// for a jittered stream unless `0 <= lo < hi` (both finite),
    /// `0.5 < mean * hi < 2^51` ns and `until < Time::MAX`. At
    /// `mean * hi <= 0.5` ns every gap rounds to 0 ns, so the arrivals
    /// would never pass `until`.
    pub fn schedule_interrupt_stream(
        &mut self,
        target: CpuId,
        vector: Vector,
        first: Time,
        until: Time,
        spacing: StreamSpacing,
    ) {
        assert!(
            target.index() < self.cpus.len(),
            "schedule_interrupt_stream: bad target {target}"
        );
        match spacing {
            StreamSpacing::Every(period) => {
                assert!(!period.is_zero(), "stream period must be positive");
            }
            StreamSpacing::Jittered { mean, lo, hi } => {
                assert!(
                    lo.is_finite() && hi.is_finite(),
                    "jittered stream factors must be finite, got {lo}..{hi}"
                );
                assert!(
                    0.0 <= lo && lo < hi,
                    "jittered stream factors need 0 <= lo < hi, got {lo}..{hi}"
                );
                assert!(
                    (mean.as_nanos() as f64) * hi < GAP_LIMIT_NS,
                    "jittered stream gaps must stay below 2^51 ns, got {mean} * {hi}"
                );
                assert!(
                    (mean.as_nanos() as f64) * hi > 0.5,
                    "jittered stream gaps must be able to round up to 1 ns, got {mean} * {hi}"
                );
                assert!(
                    until < Time::MAX,
                    "jittered stream must end before Time::MAX"
                );
            }
        }
        let rng = self.rng.clone();
        let arrivals = match spacing {
            _ if first > until => 0,
            StreamSpacing::Every(period) => {
                until.duration_since(first).as_nanos() / period.as_nanos() + 1
            }
            StreamSpacing::Jittered { mean, lo, hi } => {
                Jitter::new(mean, lo, hi).count(&mut self.rng, first, until)
            }
        };
        if arrivals == 0 {
            return;
        }
        let seq = self.seq;
        self.seq += arrivals;
        self.streams.push(IntrStream {
            target,
            vector,
            spacing,
            rng,
            next_seq: seq + 1,
            remaining: arrivals - 1,
        });
        let kind = QueuedKind::Stream(self.streams.len() - 1);
        self.deliveries.push(Reverse(QueuedDelivery {
            at: first,
            seq,
            target,
            kind,
        }));
    }

    /// Queues the arrival after the one of stream `s` that landed at `at`,
    /// under the sequence number setup reserved for it, and returns the
    /// stream's vector.
    fn advance_stream(&mut self, s: usize, at: Time) -> Vector {
        let stream = &mut self.streams[s];
        if stream.remaining > 0 {
            stream.remaining -= 1;
            let seq = stream.next_seq;
            stream.next_seq += 1;
            let next = QueuedDelivery {
                at: at + stream.spacing.gap(&mut stream.rng),
                seq,
                target: stream.target,
                kind: QueuedKind::Stream(s),
            };
            self.deliveries.push(Reverse(next));
        }
        self.streams[s].vector
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
        let executed_before = self.executed_steps;
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
                let Some(next) = self.order.next_runnable() else {
                    // Deliveries were all in the future relative to a parked
                    // processor that did not wake; recompute.
                    continue;
                };
                // A delivery latched at `t` can set a blocked processor's wake
                // instant between `t` and the earliest runnable clock. Stepping
                // the runnable processor first would run the machine out of
                // global time order — its bus traffic would land ahead of the
                // woken processor's — so recompute and handle the wake first.
                // `next` is the runnable root, so only a sleeper or a
                // delivery can fall strictly before it.
                if self.order.sleeper_due_before(next.at)
                    || self
                        .deliveries
                        .peek()
                        .is_some_and(|Reverse(d)| d.at < next.at)
                {
                    continue;
                }
                self.step_cpu(next.cpu);
                steps += 1;
                self.total_steps += 1;
                self.executed_steps += 1;
            };
        debug_assert!(self.index_is_current(), "scheduler index out of date");
        RunReport {
            status,
            steps,
            executed_steps: self.executed_steps - executed_before,
            frontier: self.frontier,
        }
    }

    /// The earliest instant at which anything can happen: a runnable
    /// processor's clock, a sleeper's wake instant, or a queued delivery.
    /// A halted processor has no next event of its own; its revival (if
    /// any) sits in the delivery heap.
    fn next_event_time(&self) -> Option<Time> {
        let due = self.order.next_due();
        match self.deliveries.peek() {
            Some(Reverse(d)) => Some(due.map_or(d.at, |t| t.min(d.at))),
            None => due,
        }
    }

    /// Files processor `i` in the scheduler index where its clock, park
    /// state and halt flag now say it belongs. Every change to one of
    /// those is followed by a refile; `index_is_current` checks it.
    fn refile(&mut self, i: usize) {
        let cpu = &self.cpus[i];
        self.order.refile(i, cpu.clock, &cpu.park, self.halted[i]);
        self.waits.refile(i, &cpu.park);
    }

    /// Whether the scheduler index matches every processor's state.
    fn index_is_current(&self) -> bool {
        self.cpus.iter().enumerate().all(|(i, cpu)| {
            self.order
                .is_current(i, cpu.clock, &cpu.park, self.halted[i])
                && self.waits.is_current(i, &cpu.park)
        }) && self.order.is_well_formed()
            && self.waits.holds_only_listed()
    }

    /// Pops the earliest delivery due at or before `t`. A multicast hop
    /// or stream arrival comes back as the interrupt it latches, after
    /// queuing what follows it: the hop's children (a halted relay
    /// forwards nothing, pruning its subtree) or the stream's next
    /// arrival (queued whether or not the target is halted).
    fn pop_due(&mut self, t: Time) -> Option<QueuedDelivery<S, P>> {
        if self.deliveries.peek()?.0.at > t {
            return None;
        }
        let Reverse(mut d) = self.deliveries.pop().expect("peeked delivery vanished");
        d.kind = match d.kind {
            QueuedKind::Multicast {
                vector,
                group,
                slot,
            } => {
                self.forward_multicast(&group, slot, vector, d.at, d.target);
                QueuedKind::Interrupt(vector)
            }
            QueuedKind::Stream(s) => QueuedKind::Interrupt(self.advance_stream(s, d.at)),
            k => k,
        };
        Some(d)
    }

    fn apply_due_deliveries(&mut self, t: Time) {
        while let Some(d) = self.pop_due(t) {
            let target = d.target.index();
            self.apply_delivery(d);
            self.refile(target);
        }
    }

    /// Latches one delivery on its target: an interrupt, a spawned frame,
    /// a halt or a revival, waking the target if it sleeps.
    fn apply_delivery(&mut self, d: QueuedDelivery<S, P>) {
        let QueuedDelivery {
            at, target, kind, ..
        } = d;
        let cpu = &mut self.cpus[target.index()];
        match kind {
            QueuedKind::Interrupt(v) => {
                cpu.pending.insert(v);
            }
            QueuedKind::Multicast { .. } | QueuedKind::Stream(_) => {
                unreachable!("pop_due turns hops and stream arrivals into interrupts")
            }
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
                return;
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
                return;
            }
        }
        // A delivery to a halted processor latches (the wire does not
        // know the target is dead) but wakes nothing.
        if self.halted[target.index()] {
            return;
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

    /// Wakes every sleeper due at or before `t`. Returns the number of
    /// analytically backfilled spin iterations, which count as scheduler
    /// steps for both the lifetime total and the running
    /// [`RunReport::steps`] / step-budget accounting.
    fn wake_expired_parks(&mut self, t: Time) -> u64 {
        let mut backfilled = 0u64;
        while let Some(due) = self.order.next_sleeper().filter(|k| k.at <= t) {
            let cpu = &mut self.cpus[due.cpu];
            match cpu.park {
                ParkState::Parked { until: Some(d) } => {
                    cpu.park = ParkState::Running;
                    cpu.clock = cpu.clock.max(d);
                }
                ParkState::Blocked {
                    anchor,
                    on,
                    wake_at: Some(w),
                    frame,
                } => {
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
                _ => unreachable!("only sleepers with a wake instant are filed as sleeping"),
            }
            self.refile(due.cpu);
        }
        self.total_steps += backfilled;
        backfilled
    }

    /// Schedules wakeups for processors blocked on `chan` after a write at
    /// instant `now` by processor `writer`. Only a listener's wake instant
    /// changes, so it stays listed on its channels.
    fn apply_notify(&mut self, chan: WaitChannel, now: Time, writer: usize) {
        for idx in self.waits.waiters(chan) {
            // A halted listener misses the notification; if it revives, the
            // revival itself is a spurious wake and live re-check.
            if self.halted[idx] {
                continue;
            }
            let cpu = &mut self.cpus[idx];
            let ParkState::Blocked {
                anchor,
                on,
                wake_at,
                ..
            } = &mut cpu.park
            else {
                unreachable!("only blocked processors are listed on a channel")
            };
            let cand = wake_for_notify(*anchor, on.interval, now, writer < idx);
            *wake_at = Some(wake_at.map_or(cand, |w| w.min(cand)));
            self.order.refile(idx, cpu.clock, &cpu.park, false);
        }
    }

    /// The step itself: changes processor `i`'s clock, park state and
    /// stack, stages the step's commands in `self.commands`, and returns
    /// the step's start instant.
    fn execute(&mut self, i: usize) -> Time {
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
            commands,
            ..
        } = self;
        let n_cpus = cpus.len();
        let cpu = &mut cpus[i];
        let cpu_id = cpu.id();
        let node = fabric.topology().node_of(cpu_id);
        let now = cpu.clock;

        // Interrupt dispatch takes priority over the current frame.
        if let Some(v) = cpu.deliverable(|v| handler(handlers, v).map(|h| h.class)) {
            let entry = handler(handlers, v).expect("deliverable vector lost its handler");
            cpu.pending.remove(v);
            let prev_mask = cpu.mask;
            cpu.mask = entry.handler_mask;
            // Vectoring plus saving register state through the write-through
            // cache: each saved word is a bus write. With many processors
            // interrupted at once these writes queue — the Figure 2 knee.
            let mut cost = costs.intr_entry;
            for _ in 0..costs.state_save_words {
                // State saves go to the dispatching processor's own node.
                cost += fabric.access_local(cpu.clock, node, BusOp::Write, costs.bus_write_latency);
            }
            if let Some(inj) = faults.as_mut() {
                cost += inj.dispatch_extra(cpu_id, v, entry.class, cpu.clock);
            }
            let proc = (entry.factory)(shared, cpu_id, cpu.clock);
            cpu.stack.push(Frame {
                proc,
                restore_mask: Some(prev_mask),
                wake_skipped: 0,
            });
            cpu.clock += cost;
            cpu.stats.interrupts += 1;
            cpu.stats.busy += cost;
            return now;
        }

        // The top frame steps in place; only a finished one leaves the
        // stack.
        let Some(frame) = cpu.stack.last_mut() else {
            // Nothing to run: idle until something arrives.
            cpu.park = ParkState::Parked { until: None };
            return now;
        };

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
                commands,
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
            }
            crate::Step::Done(d) => {
                let frame = cpu.stack.pop().expect("the stepped frame");
                let mut cost = d;
                if let Some(m) = frame.restore_mask {
                    cpu.mask = m;
                    cost += costs.intr_exit;
                }
                cpu.clock += cost;
                cpu.stats.busy += cost;
            }
            crate::Step::Park(until) => {
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
        now
    }

    /// Executes one scheduler step on processor `i`: either dispatches a
    /// deliverable pending interrupt or steps the top process frame, then
    /// applies the commands the step staged.
    fn step_cpu(&mut self, i: usize) {
        let now = self.execute(i);
        // Refile before the commands: a step that blocks and then notifies
        // a channel it listens on wakes itself.
        self.refile(i);

        // Apply staged commands. Traps push onto this processor's stack so
        // they run before the trapping process resumes.
        let n_cpus = self.cpus.len();
        let topology = self.fabric.topology();
        let sender = CpuId::new(i as u32);
        let mut commands = std::mem::take(&mut self.commands);
        for cmd in commands.drain(..) {
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
        self.commands = commands;
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
    /// the "which IPIs are in flight" line of a stall report. A
    /// background stream contributes only its next arrival.
    pub fn pending_interrupts(&self) -> Vec<(Time, CpuId, Vector)> {
        let mut out: Vec<(Time, CpuId, Vector)> = self
            .deliveries
            .iter()
            .filter_map(|Reverse(d)| match d.kind {
                QueuedKind::Interrupt(v) => Some((d.at, d.target, v)),
                QueuedKind::Multicast { vector, .. } => Some((d.at, d.target, vector)),
                QueuedKind::Stream(s) => Some((d.at, d.target, self.streams[s].vector)),
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

    /// Total scheduler steps over the machine's lifetime: the executed
    /// ones plus the spin iterations backfilled at event-blocked wakeups
    /// (the stepped-wait oracle executes those instead).
    pub fn total_steps(&self) -> u64 {
        self.total_steps
    }

    /// Scheduler steps actually executed over the machine's lifetime:
    /// process steps plus interrupt dispatches, without the backfilled
    /// spin iterations [`Machine::total_steps`] also counts. Host cost per
    /// simulated event is host time over this count.
    pub fn executed_steps(&self) -> u64 {
        self.executed_steps
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
            .field("executed_steps", &self.executed_steps)
            .field("pending_deliveries", &self.deliveries.len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{Halt, Offline};
    use crate::process::Step;

    /// Pops every queued delivery, naming each as `(instant, seq, what)`.
    fn drain(m: &mut Machine<(), ()>) -> Vec<(Time, u64, String)> {
        std::iter::from_fn(|| m.pop_due(Time::MAX))
            .map(|d| {
                let what = match d.kind {
                    QueuedKind::Interrupt(v) => format!("{v}"),
                    QueuedKind::Halt => "halt".to_string(),
                    _ => "other".to_string(),
                };
                (d.at, d.seq, what)
            })
            .collect()
    }

    #[test]
    fn stream_arrivals_pop_in_eager_order_on_same_instant_ties() {
        let (cpu, tick, other) = (CpuId::new(0), Vector::new(3), Vector::new(4));
        let us = Time::from_micros;
        // Arrivals at 1..=5 us; the third ties with a one-off interrupt
        // and a halt queued after the stream was started.
        let build = |lazy: bool| {
            let mut m = Machine::new(MachineConfig::multimax16(1), (), |_| ());
            if lazy {
                m.schedule_interrupt_stream(
                    cpu,
                    tick,
                    us(1),
                    us(5),
                    StreamSpacing::Every(Dur::micros(1)),
                );
            } else {
                for t in 1..=5 {
                    m.schedule_interrupt(cpu, tick, us(t));
                }
            }
            m.schedule_interrupt(cpu, other, us(3));
            m.install_fault_plan(FaultPlan {
                halts: vec![Halt { cpu, at: us(3) }],
                ..FaultPlan::none(other)
            });
            m
        };
        let (mut lazy, mut eager) = (build(true), build(false));
        assert_eq!(lazy.pending_interrupts().len(), 2, "one queued arrival");
        let order = drain(&mut lazy);
        assert_eq!(order, drain(&mut eager));
        let at3: Vec<&str> = order
            .iter()
            .filter(|(at, ..)| *at == us(3))
            .map(|(_, _, what)| what.as_str())
            .collect();
        assert_eq!(at3, [format!("{tick}"), format!("{other}"), "halt".into()]);
    }

    /// Logs each dispatch as `(cpu, instant)`.
    #[derive(Debug)]
    struct Note;
    impl Process<Vec<(CpuId, Time)>, ()> for Note {
        fn step(&mut self, ctx: &mut Ctx<'_, Vec<(CpuId, Time)>, ()>) -> Step {
            ctx.shared.push((ctx.cpu_id, ctx.now));
            Step::Done(Dur::micros(1))
        }
    }

    /// Parks until `wake` on its first step, then logs like [`Note`].
    #[derive(Debug)]
    struct Sleeper {
        wake: Time,
        slept: bool,
    }
    impl Process<Vec<(CpuId, Time)>, ()> for Sleeper {
        fn step(&mut self, ctx: &mut Ctx<'_, Vec<(CpuId, Time)>, ()>) -> Step {
            if !std::mem::replace(&mut self.slept, true) {
                return Step::Park(Some(self.wake));
            }
            Note.step(ctx)
        }
    }

    /// Computes for `busy` on its first step, then logs like [`Note`].
    #[derive(Debug)]
    struct Busy {
        busy: Option<Dur>,
    }
    impl Process<Vec<(CpuId, Time)>, ()> for Busy {
        fn step(&mut self, ctx: &mut Ctx<'_, Vec<(CpuId, Time)>, ()>) -> Step {
            match self.busy.take() {
                Some(d) => Step::Run(d),
                None => Note.step(ctx),
            }
        }
    }

    /// cpu 0 parks until 10 us while cpu 1 computes until 10 us, so both
    /// fall due at the same instant; `stray` latches an interrupt on an
    /// unregistered vector on cpu 1 first. Returns who logged when.
    fn equal_instant_tie(stray: Option<Time>) -> Vec<(CpuId, Time)> {
        let (sleeper, runner) = (CpuId::new(0), CpuId::new(1));
        let mut m = Machine::new(MachineConfig::multimax16(1), Vec::new(), |_| ());
        let wake = Time::from_micros(10);
        let slept = false;
        m.spawn_at(sleeper, Time::ZERO, Box::new(Sleeper { wake, slept }));
        let busy = Some(Dur::micros(10));
        m.spawn_at(runner, Time::ZERO, Box::new(Busy { busy }));
        if let Some(at) = stray {
            m.schedule_interrupt(runner, Vector::new(9), at);
        }
        m.run(Time::from_micros(100));
        m.into_shared()
    }

    #[test]
    fn a_sleeper_due_at_the_runnable_minimum_steps_first_on_a_tie() {
        let us = Time::from_micros;
        assert_eq!(
            equal_instant_tie(None),
            [(CpuId::new(0), us(10)), (CpuId::new(1), us(10))]
        );
    }

    /// The pinned quirk: a loop iteration whose instant comes from an
    /// earlier event (the stray latch at 5 us) wakes only the sleepers due
    /// by then, and the strict `next_event_time() < clock` re-check lets
    /// the runnable processor at 10 us step before the sleeper due at
    /// exactly 10 us.
    #[test]
    fn an_earlier_event_lets_the_runnable_processor_win_the_tie() {
        let us = Time::from_micros;
        assert_eq!(
            equal_instant_tie(Some(us(5))),
            [(CpuId::new(1), us(10)), (CpuId::new(0), us(10))]
        );
    }

    const FLAG: WaitChannel = WaitChannel::new(0x5_0000_0000);

    /// Spins on the shared flag, one check per microsecond.
    #[derive(Debug)]
    struct FlagSpinner;
    impl Process<bool, ()> for FlagSpinner {
        fn step(&mut self, ctx: &mut Ctx<'_, bool, ()>) -> Step {
            if *ctx.shared {
                Step::Done(Dur::micros(1))
            } else {
                Step::Block(crate::BlockOn::one(FLAG, Dur::micros(1)))
            }
        }
    }

    /// Computes until `at`, then raises the flag and notifies its channel.
    #[derive(Debug)]
    struct FlagWriter {
        at: Option<Dur>,
    }
    impl Process<bool, ()> for FlagWriter {
        fn step(&mut self, ctx: &mut Ctx<'_, bool, ()>) -> Step {
            if let Some(d) = self.at.take() {
                return Step::Run(d);
            }
            *ctx.shared = true;
            ctx.notify(FLAG);
            Step::Done(Dur::micros(1))
        }
    }

    /// cpu 1 blocks on the flag at 0 us, checking every 1 us; cpu 0 raises
    /// it at 4.5 us, so the spinner wakes at the k = 5th lattice point.
    fn flag_run(stepped: bool) -> (Machine<bool, ()>, RunReport) {
        let mut m = Machine::new(MachineConfig::multimax16(1), false, |_| ());
        m.set_stepped_waits(stepped);
        let at = Some(Dur::nanos(4_500));
        m.spawn_at(CpuId::new(0), Time::ZERO, Box::new(FlagWriter { at }));
        m.spawn_at(CpuId::new(1), Time::ZERO, Box::new(FlagSpinner));
        let r = m.run(Time::from_micros(100));
        assert!(*m.shared());
        (m, r)
    }

    #[test]
    fn a_woken_spinner_counts_one_executed_step_and_backfills_the_rest() {
        let k = 5;
        let (event, er) = flag_run(false);
        let (stepped, sr) = flag_run(true);
        // The stepped oracle executes every check: the failed one at the
        // anchor, k - 1 failed re-checks, and the successful one at the
        // k-th lattice point. The event run executes the first and the
        // last, and backfills the k - 1 in between.
        assert_eq!(event.total_steps() - event.executed_steps(), k - 1);
        assert_eq!(stepped.total_steps(), stepped.executed_steps());
        assert_eq!(event.executed_steps() + k - 1, stepped.executed_steps());
        assert_eq!(event.total_steps(), stepped.total_steps());
        assert_eq!(
            (er.steps, er.executed_steps),
            (event.total_steps(), event.executed_steps())
        );
        assert_eq!(
            (sr.steps, sr.executed_steps),
            (stepped.total_steps(), stepped.executed_steps())
        );
        assert_eq!(
            event.cpu(CpuId::new(1)).stats(),
            stepped.cpu(CpuId::new(1)).stats()
        );
    }

    #[test]
    fn stream_keeps_arriving_across_an_offline_window() {
        let (cpu, tick) = (CpuId::new(1), Vector::new(3));
        let us = Time::from_micros;
        let run = |lazy: bool| {
            let mut m = Machine::new(MachineConfig::multimax16(1), Vec::new(), |_| ());
            m.register_handler(tick, IntrClass::Device, |_, _, _| Box::new(Note));
            if lazy {
                let spacing = StreamSpacing::Every(Dur::micros(50));
                m.schedule_interrupt_stream(cpu, tick, us(50), us(1_000), spacing);
            } else {
                for t in 1..=20 {
                    m.schedule_interrupt(cpu, tick, us(50 * t));
                }
            }
            // Arrivals land on the dead processor from 120 to 420 us.
            m.install_fault_plan(FaultPlan {
                offlines: vec![Offline {
                    cpu,
                    at: us(120),
                    revive_at: us(420),
                }],
                ..FaultPlan::none(tick)
            });
            m.run(us(2_000));
            m.into_shared()
        };
        let dispatched = run(true);
        assert_eq!(dispatched, run(false));
        assert!(
            dispatched.iter().any(|&(_, t)| t > us(500)),
            "the stream must go on after the revival: {dispatched:?}"
        );
    }

    /// Starts a jittered stream on cpu 0 of a 16-cpu machine from 0 to
    /// `until`: the setup checks under test run before any draw.
    fn jittered(mean: Dur, lo: f64, hi: f64, until: Time) -> Machine<(), ()> {
        let mut m = Machine::new(MachineConfig::multimax16(1), (), |_| ());
        let spacing = StreamSpacing::Jittered { mean, lo, hi };
        m.schedule_interrupt_stream(CpuId::new(0), Vector::new(3), Time::ZERO, until, spacing);
        m
    }

    #[test]
    #[should_panic(expected = "jittered stream factors must be finite")]
    fn jittered_stream_rejects_a_non_finite_factor() {
        jittered(Dur::micros(1), 0.05, f64::INFINITY, Time::from_micros(10));
    }

    #[test]
    #[should_panic(expected = "jittered stream factors need 0 <= lo < hi")]
    fn jittered_stream_rejects_a_negative_lo() {
        jittered(Dur::micros(1), -0.5, 1.0, Time::from_micros(10));
    }

    #[test]
    #[should_panic(expected = "jittered stream factors need 0 <= lo < hi")]
    fn jittered_stream_rejects_an_empty_factor_range() {
        jittered(Dur::micros(1), 1.0, 1.0, Time::from_micros(10));
    }

    #[test]
    #[should_panic(expected = "jittered stream gaps must stay below 2^51 ns")]
    fn jittered_stream_rejects_gaps_past_the_rounding_limit() {
        jittered(Dur::nanos(1 << 51), 0.05, 1.0, Time::from_micros(10));
    }

    #[test]
    #[should_panic(expected = "jittered stream must end before Time::MAX")]
    fn jittered_stream_rejects_an_endless_until() {
        jittered(Dur::micros(1), 0.05, 1.95, Time::MAX);
    }

    /// At `mean * hi <= 0.5` ns every gap rounds to 0 ns: setup would
    /// count arrivals at one instant forever.
    #[test]
    #[should_panic(expected = "jittered stream gaps must be able to round up to 1 ns")]
    fn jittered_stream_rejects_gaps_that_all_round_to_zero() {
        jittered(Dur::nanos(1), 0.05, 0.4, Time::from_micros(10));
    }

    /// Just past the boundary some gaps round up to 1 ns (factors in
    /// `0.5..0.6`), so the stream ends: at least one arrival per
    /// nanosecond up to `until`, one of them queued.
    #[test]
    fn jittered_stream_with_gaps_reaching_one_ns_ends() {
        let m = jittered(Dur::nanos(1), 0.05, 0.6, Time::from_micros(10));
        assert_eq!(m.pending_interrupts().len(), 1);
        assert!(m.streams[0].remaining >= 10_000);
    }
}
