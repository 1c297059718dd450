//! Per-processor state: identity, clock, interrupt latch, and frame stack.

use std::fmt;

use crate::event::{BlockOn, WaitChannel};
use crate::intr::{IntrMask, Vector, VectorSet};
use crate::process::Process;
use crate::time::{Dur, Time};

/// A processor identifier, `0..n_cpus`.
///
/// # Examples
///
/// ```
/// use machtlb_sim::CpuId;
///
/// let boot = CpuId::new(0);
/// assert_eq!(boot.index(), 0);
/// assert_eq!(boot.to_string(), "cpu0");
/// ```
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CpuId(u32);

impl CpuId {
    /// Creates a processor id.
    pub const fn new(index: u32) -> CpuId {
        CpuId(index)
    }

    /// The id as a `usize` index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for CpuId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cpu{}", self.0)
    }
}

impl From<u32> for CpuId {
    fn from(index: u32) -> CpuId {
        CpuId(index)
    }
}

/// Whether and how a processor is parked.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) enum ParkState {
    /// Eligible for scheduling.
    Running,
    /// Sleeping until an event arrives, or until the deadline if present.
    Parked { until: Option<Time> },
    /// Event-blocked in place of a stepped spin loop: the top frame's last
    /// live check failed at `anchor` and would re-check every `on.interval`.
    Blocked {
        /// Instant of the last live failed check (the step that blocked).
        anchor: Time,
        /// What the process waits on, and the per-iteration cost.
        on: BlockOn,
        /// The earliest check-lattice instant a notify or delivery so far
        /// can be observed at; `None` while nothing has arrived.
        wake_at: Option<Time>,
        /// Stack index of the blocked frame (spawn deliveries may push
        /// frames above it while it sleeps).
        frame: usize,
    },
}

/// A read-only view of a processor's park state, for diagnostics (the
/// deadlock/livelock reports need to say *what* a stuck processor waits
/// on without exposing the scheduler's internal bookkeeping).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ParkView {
    /// Eligible for scheduling.
    Running,
    /// Sleeping until an event arrives, or until the deadline if present.
    Parked {
        /// The park deadline, if any.
        until: Option<Time>,
    },
    /// Event-blocked in place of a stepped spin loop.
    Blocked {
        /// Instant of the last live failed check.
        anchor: Time,
        /// The channels the process waits on.
        chans: [Option<WaitChannel>; 2],
        /// The earliest wake instant scheduled so far, if any.
        wake_at: Option<Time>,
    },
}

/// Cumulative per-processor statistics.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct CpuStats {
    /// Process steps executed.
    pub steps: u64,
    /// Interrupts dispatched.
    pub interrupts: u64,
    /// Total time charged to steps (busy time).
    pub busy: Dur,
}

/// A stack frame: a process plus the interrupt mask to restore when it
/// completes (present for interrupt handler frames).
pub(crate) struct Frame<S, P> {
    pub(crate) proc: Box<dyn Process<S, P>>,
    pub(crate) restore_mask: Option<IntrMask>,
    /// Spin iterations skipped while this frame was event-blocked, handed
    /// to the process (as [`Ctx::woken_spins`](crate::Ctx::woken_spins))
    /// on its first step after the wakeup.
    pub(crate) wake_skipped: u64,
}

impl<S, P> fmt::Debug for Frame<S, P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Frame")
            .field("proc", &self.proc.label())
            .field("restore_mask", &self.restore_mask)
            .finish()
    }
}

/// One simulated processor.
///
/// `S` is the machine's shared memory image; `P` is this processor's
/// hardware payload (e.g. its TLB), accessible to processes through
/// [`Ctx::payload`](crate::Ctx::payload) and to the embedding program via
/// [`CpuCore::payload`].
pub struct CpuCore<S, P> {
    id: CpuId,
    pub(crate) clock: Time,
    pub(crate) mask: IntrMask,
    pub(crate) pending: VectorSet,
    pub(crate) stack: Vec<Frame<S, P>>,
    pub(crate) park: ParkState,
    pub(crate) stats: CpuStats,
    pub(crate) payload: P,
}

impl<S, P> CpuCore<S, P> {
    pub(crate) fn new(id: CpuId, payload: P) -> CpuCore<S, P> {
        CpuCore {
            id,
            clock: Time::ZERO,
            mask: IntrMask::OPEN,
            pending: VectorSet::default(),
            stack: Vec::new(),
            park: ParkState::Parked { until: None },
            stats: CpuStats::default(),
            payload,
        }
    }

    /// This processor's id.
    pub fn id(&self) -> CpuId {
        self.id
    }

    /// This processor's local clock.
    pub fn clock(&self) -> Time {
        self.clock
    }

    /// The current interrupt mask.
    pub fn mask(&self) -> IntrMask {
        self.mask
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> CpuStats {
        self.stats
    }

    /// The hardware payload (e.g. the TLB).
    pub fn payload(&self) -> &P {
        &self.payload
    }

    /// Mutable access to the hardware payload.
    pub fn payload_mut(&mut self) -> &mut P {
        &mut self.payload
    }

    /// Number of frames on the execution stack.
    pub fn depth(&self) -> usize {
        self.stack.len()
    }

    /// Labels of the stacked processes, innermost last (for diagnostics).
    pub fn stack_labels(&self) -> Vec<&'static str> {
        self.stack.iter().map(|f| f.proc.label()).collect()
    }

    /// True if the processor has no frames and nothing pending: it is idle.
    pub fn is_idle(&self) -> bool {
        self.stack.is_empty() && self.pending.is_empty()
    }

    /// True if an interrupt is latched but not yet dispatched.
    pub fn has_pending(&self, vector: Vector) -> bool {
        self.pending.contains(vector)
    }

    /// Every interrupt latched but not yet dispatched, lowest vector first.
    pub fn pending_vectors(&self) -> Vec<Vector> {
        self.pending.iter().collect()
    }

    /// A diagnostic view of the park state (see [`ParkView`]).
    pub fn park_view(&self) -> ParkView {
        match self.park {
            ParkState::Running => ParkView::Running,
            ParkState::Parked { until } => ParkView::Parked { until },
            ParkState::Blocked {
                anchor,
                on,
                wake_at,
                ..
            } => ParkView::Blocked {
                anchor,
                chans: on.chans,
                wake_at,
            },
        }
    }

    /// The lowest-numbered pending vector deliverable under the current
    /// mask, given the vector's class as reported by `class_of`.
    pub(crate) fn deliverable(
        &self,
        class_of: impl Fn(Vector) -> Option<crate::intr::IntrClass>,
    ) -> Option<Vector> {
        self.pending
            .iter()
            .find(|&v| class_of(v).is_some_and(|c| !self.mask.blocks(c)))
    }
}

impl<S, P: fmt::Debug> fmt::Debug for CpuCore<S, P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CpuCore")
            .field("id", &self.id)
            .field("clock", &self.clock)
            .field("mask", &self.mask)
            .field("pending", &self.pending)
            .field("stack", &self.stack_labels())
            .field("park", &self.park)
            .field("payload", &self.payload)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_id_round_trips() {
        let id = CpuId::from(7u32);
        assert_eq!(id.index(), 7);
        assert_eq!(id, CpuId::new(7));
    }

    #[test]
    fn new_core_starts_idle_and_parked() {
        let core: CpuCore<(), ()> = CpuCore::new(CpuId::new(0), ());
        assert!(core.is_idle());
        assert_eq!(core.park, ParkState::Parked { until: None });
        assert_eq!(core.clock(), Time::ZERO);
        assert_eq!(core.depth(), 0);
    }
}
