//! Processes: the unit of simulated execution.
//!
//! Everything that runs on a simulated processor — a user thread, a kernel
//! operation, an interrupt handler, the idle loop — is a [`Process`]: an
//! explicit state machine whose [`step`](Process::step) performs **one
//! atomic action** against shared state and returns its simulated-time cost.
//! The scheduler always steps the processor with the smallest local clock,
//! so the interleaving of shared-state accesses is sequentially consistent
//! and fully deterministic for a given seed.
//!
//! This granularity is exactly the granularity at which the paper's
//! algorithm synchronizes: flag writes, spin-loop reads, queue operations,
//! and interrupt deliveries each happen at a single, ordered instant.

use std::fmt;

use rand::rngs::SmallRng;

use crate::bus::BusOp;
use crate::cost::CostModel;
use crate::cpu::CpuId;
use crate::event::{BlockOn, WaitChannel};
use crate::intr::{IntrMask, Vector, VectorSet};
use crate::time::{Dur, Time};
use crate::topology::{BusFabric, Topology};

/// The outcome of one [`Process::step`].
#[derive(Debug)]
pub enum Step {
    /// The process performed an action costing the given duration and wants
    /// to be stepped again.
    ///
    /// Interrupts are checked at step boundaries only, so a step's cost is
    /// also the worst-case interrupt latency it adds. Break long
    /// computations into bounded chunks (tens of microseconds) rather than
    /// returning one large cost; spin loops and kernel actions are naturally
    /// fine-grained.
    Run(Dur),
    /// The process performed a final action costing the given duration and
    /// is finished; its frame is popped.
    Done(Dur),
    /// The process has nothing to do. The processor sleeps until an
    /// interrupt, spawn, or trap arrives, or until the deadline if one is
    /// given. Wakeups may be spurious: the process must re-check its
    /// condition and may park again.
    Park(Option<Time>),
    /// The process's condition check failed and it waits for the named
    /// channels to be notified, as the event-driven equivalent of a
    /// stepped spin loop. The step that returns `Block` *is* the failed
    /// check: it is charged [`BlockOn::interval`] like any `Run` step.
    /// The machine wakes the process at the exact instant the stepped
    /// loop would have observed the change (or a delivery), charging the
    /// skipped iterations analytically; see
    /// [`event`](crate::event). Wakeups may be spurious: the process
    /// must re-check its condition and may block again.
    Block(BlockOn),
}

/// A unit of simulated execution: see the module docs.
///
/// `S` is the machine's shared memory image (kernel data structures); `P` is
/// the per-processor hardware state (e.g. the TLB).
pub trait Process<S, P>: fmt::Debug {
    /// Performs one atomic action and reports its cost.
    fn step(&mut self, ctx: &mut Ctx<'_, S, P>) -> Step;

    /// A short label for traces and debugging.
    fn label(&self) -> &'static str {
        "process"
    }
}

/// A command staged by a process during a step, applied by the machine after
/// the step completes.
pub(crate) enum Command<S, P> {
    SendIpi {
        target: CpuId,
        vector: Vector,
        at: Time,
    },
    BroadcastIpi {
        vector: Vector,
        at: Time,
    },
    MulticastIpi {
        targets: Vec<CpuId>,
        vector: Vector,
        degree: usize,
        at: Time,
    },
    Spawn {
        target: CpuId,
        at: Time,
        proc: Box<dyn Process<S, P>>,
    },
    Trap {
        proc: Box<dyn Process<S, P>>,
    },
    Notify {
        chan: WaitChannel,
    },
}

impl<S, P> fmt::Debug for Command<S, P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Command::SendIpi { target, vector, at } => f
                .debug_struct("SendIpi")
                .field("target", target)
                .field("vector", vector)
                .field("at", at)
                .finish(),
            Command::BroadcastIpi { vector, at } => f
                .debug_struct("BroadcastIpi")
                .field("vector", vector)
                .field("at", at)
                .finish(),
            Command::MulticastIpi {
                targets,
                vector,
                degree,
                at,
            } => f
                .debug_struct("MulticastIpi")
                .field("targets", &targets.len())
                .field("vector", vector)
                .field("degree", degree)
                .field("at", at)
                .finish(),
            Command::Spawn { target, at, proc } => f
                .debug_struct("Spawn")
                .field("target", target)
                .field("at", at)
                .field("proc", &proc.label())
                .finish(),
            Command::Trap { proc } => f.debug_struct("Trap").field("proc", &proc.label()).finish(),
            Command::Notify { chan } => f.debug_struct("Notify").field("chan", chan).finish(),
        }
    }
}

/// The execution context handed to [`Process::step`]: the shared memory
/// image, this processor's hardware state, and the machine services
/// (bus, interrupt controller, RNG, cost model).
pub struct Ctx<'a, S, P> {
    /// The current instant on this processor's clock.
    pub now: Time,
    /// The processor executing the step.
    pub cpu_id: CpuId,
    /// The machine's shared memory image.
    pub shared: &'a mut S,
    /// This processor's hardware state (e.g. its TLB).
    pub payload: &'a mut P,
    pub(crate) mask: &'a mut IntrMask,
    pub(crate) pending: &'a VectorSet,
    pub(crate) fabric: &'a mut BusFabric,
    /// The node this processor lives on (precomputed by the scheduler).
    pub(crate) node: usize,
    pub(crate) costs: &'a CostModel,
    pub(crate) rng: &'a mut SmallRng,
    pub(crate) commands: &'a mut Vec<Command<S, P>>,
    pub(crate) n_cpus: usize,
    pub(crate) halted: &'a [bool],
    pub(crate) woken_spins: u64,
}

impl<'a, S, P> Ctx<'a, S, P> {
    /// The machine's cost model.
    pub fn costs(&self) -> &CostModel {
        self.costs
    }

    /// The deterministic per-machine random number generator.
    pub fn rng(&mut self) -> &mut SmallRng {
        self.rng
    }

    /// Number of processors in the machine.
    pub fn n_cpus(&self) -> usize {
        self.n_cpus
    }

    /// Whether `cpu` is halted by a fail-stop fault. This is the holder
    /// liveness probe behind dead-lock-holder detection: reading another
    /// processor's run state costs a bus read, which the caller charges.
    ///
    /// # Panics
    ///
    /// Panics if `cpu` is out of range for this machine.
    pub fn is_cpu_halted(&self, cpu: CpuId) -> bool {
        self.halted[cpu.index()]
    }

    /// The machine's node layout.
    pub fn topology(&self) -> Topology {
        self.fabric.topology()
    }

    /// The node this processor lives on.
    pub fn node(&self) -> usize {
        self.node
    }

    /// The node `cpu` lives on.
    pub fn node_of(&self, cpu: CpuId) -> usize {
        self.fabric.topology().node_of(cpu)
    }

    /// Issues a bus read (cache miss) against this processor's own node at
    /// the current instant and returns its total delay including queueing.
    /// Add the result to the step's cost.
    pub fn bus_read(&mut self) -> Dur {
        self.fabric.access_local(
            self.now,
            self.node,
            BusOp::Read,
            self.costs.bus_read_latency,
        )
    }

    /// Issues a bus write (write-through) against this processor's own node
    /// and returns its total delay.
    pub fn bus_write(&mut self) -> Dur {
        self.fabric.access_local(
            self.now,
            self.node,
            BusOp::Write,
            self.costs.bus_write_latency,
        )
    }

    /// Issues an interlocked read-modify-write bus transaction against this
    /// processor's own node and returns its total delay.
    pub fn bus_interlocked(&mut self) -> Dur {
        self.fabric.access_local(
            self.now,
            self.node,
            BusOp::Interlocked,
            self.costs.bus_read_latency + self.costs.bus_write_latency,
        )
    }

    /// Issues a bus read against memory homed on `home` node, crossing the
    /// interconnect when that is not this processor's node. Identical to
    /// [`Ctx::bus_read`] on a flat topology.
    pub fn bus_read_at(&mut self, home: usize) -> Dur {
        self.fabric.access(
            self.now,
            self.node,
            home,
            BusOp::Read,
            self.costs.bus_read_latency,
        )
    }

    /// Issues a bus write against memory homed on `home` node. Identical to
    /// [`Ctx::bus_write`] on a flat topology.
    pub fn bus_write_at(&mut self, home: usize) -> Dur {
        self.fabric.access(
            self.now,
            self.node,
            home,
            BusOp::Write,
            self.costs.bus_write_latency,
        )
    }

    /// Issues an interlocked read-modify-write against memory homed on
    /// `home` node. Identical to [`Ctx::bus_interlocked`] on a flat
    /// topology.
    pub fn bus_interlocked_at(&mut self, home: usize) -> Dur {
        self.fabric.access(
            self.now,
            self.node,
            home,
            BusOp::Interlocked,
            self.costs.bus_read_latency + self.costs.bus_write_latency,
        )
    }

    /// This processor's current interrupt mask.
    pub fn mask(&self) -> IntrMask {
        *self.mask
    }

    /// Replaces the interrupt mask, returning the previous one (the paper's
    /// `disable_interrupts()` idiom).
    pub fn set_mask(&mut self, mask: IntrMask) -> IntrMask {
        std::mem::replace(self.mask, mask)
    }

    /// Whether `vector` is pending (latched but not yet dispatched) on this
    /// processor.
    pub fn is_pending(&self, vector: Vector) -> bool {
        self.pending.contains(vector)
    }

    /// Sends an inter-processor interrupt to `target`. The interrupt is
    /// latched at the target after the controller's delivery latency; the
    /// *sender* should additionally charge [`CostModel::ipi_send`] in its
    /// step cost.
    ///
    /// # Panics
    ///
    /// Panics if `target` is out of range for this machine.
    pub fn send_ipi(&mut self, target: CpuId, vector: Vector) {
        assert!(
            target.index() < self.n_cpus,
            "send_ipi: target {target} out of range ({} cpus)",
            self.n_cpus
        );
        self.commands.push(Command::SendIpi {
            target,
            vector,
            at: self.now + self.costs.ipi_latency,
        });
    }

    /// Sends `vector` to every processor except this one (the Section 9
    /// broadcast-interrupt hardware option). The sender should charge
    /// [`CostModel::ipi_broadcast`] once.
    pub fn broadcast_ipi(&mut self, vector: Vector) {
        self.commands.push(Command::BroadcastIpi {
            vector,
            at: self.now + self.costs.ipi_latency,
        });
    }

    /// Posts one tree-fanout multicast descriptor for `vector` to `targets`
    /// (the Section 9 multicast hardware option). The poster's controller
    /// sends to the first `degree` targets; each recipient's controller
    /// forwards to its `degree` children in the [`FanoutTree`]
    /// (crate::FanoutTree) laid over the list — the j-th forward of any hop
    /// leaves its controller after `(j+1) ·` [`CostModel::ipi_send`] and
    /// lands [`CostModel::ipi_latency`] later. A halted relay latches its
    /// interrupt but forwards nothing, losing its whole subtree; recovering
    /// that is software's job (the shootdown watchdog). The *poster* should
    /// charge [`CostModel::ipi_send`] once — the descriptor write — not once
    /// per target.
    ///
    /// # Panics
    ///
    /// Panics if `degree` is zero or any target is out of range.
    pub fn multicast_ipi(&mut self, targets: Vec<CpuId>, vector: Vector, degree: usize) {
        assert!(degree >= 1, "multicast_ipi: fanout degree must be >= 1");
        for t in &targets {
            assert!(
                t.index() < self.n_cpus,
                "multicast_ipi: target {t} out of range ({} cpus)",
                self.n_cpus
            );
        }
        self.commands.push(Command::MulticastIpi {
            targets,
            vector,
            degree,
            at: self.now,
        });
    }

    /// Schedules `proc` to start on `target` at the current instant (plus
    /// delivery as a cross-processor event). Used for thread placement by
    /// the workloads.
    ///
    /// # Panics
    ///
    /// Panics if `target` is out of range for this machine.
    pub fn spawn(&mut self, target: CpuId, proc: Box<dyn Process<S, P>>) {
        assert!(
            target.index() < self.n_cpus,
            "spawn: target {target} out of range ({} cpus)",
            self.n_cpus
        );
        self.commands.push(Command::Spawn {
            target,
            at: self.now,
            proc,
        });
    }

    /// Pushes `proc` as a trap frame on this processor: it runs to
    /// completion before the current process resumes (the page-fault path).
    /// The interrupt mask is left unchanged.
    pub fn trap(&mut self, proc: Box<dyn Process<S, P>>) {
        self.commands.push(Command::Trap { proc });
    }

    /// Notifies `chan`: every processor blocked on it is scheduled to wake
    /// at the first check-lattice instant at which this step's writes are
    /// visible to it (see [`event`](crate::event)). A no-op when nothing
    /// is blocked on the channel, so writers notify unconditionally.
    ///
    /// Call this *in the same step* as the shared-state write that can
    /// satisfy a waiter's condition; the wake computation uses this step's
    /// order instant.
    pub fn notify(&mut self, chan: WaitChannel) {
        self.commands.push(Command::Notify { chan });
    }

    /// Spin iterations the stepped loop would have executed while this
    /// process was event-blocked — non-zero only during the first step
    /// after an event wakeup. The processor's clock and step statistics
    /// were already charged by the machine; spin sites whose iterations
    /// have *side effects* (a failed [`SpinLock::try_acquire`]
    /// (crate::SpinLock::try_acquire) counts a contention per iteration)
    /// use this to replicate them exactly, via
    /// [`SpinLock::charge_spins`](crate::SpinLock::charge_spins).
    pub fn woken_spins(&self) -> u64 {
        self.woken_spins
    }
}

impl<S, P> fmt::Debug for Ctx<'_, S, P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Ctx")
            .field("now", &self.now)
            .field("cpu_id", &self.cpu_id)
            .field("mask", &self.mask)
            .finish_non_exhaustive()
    }
}
