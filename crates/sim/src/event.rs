//! Wait channels: event-driven parking that stays bit-identical to
//! spinning.
//!
//! A stepped spin loop re-checks its condition every
//! `spin_iter + cache_read`; host work is proportional to simulated spin
//! time. The event layer removes that cost without changing a single
//! simulated observable: a waiting process returns
//! [`Step::Block`](crate::Step::Block) naming the [`WaitChannel`]s whose
//! state its condition reads, and every writer of that state calls
//! [`Ctx::notify`](crate::Ctx::notify) after the write. The machine then
//! computes — analytically — the exact instant at which the stepped loop
//! would have observed the change, charges the skipped iterations to the
//! processor's clock and statistics in one addition, and resumes the
//! process for a live re-check.
//!
//! # The check lattice
//!
//! A spinner whose last live failed check happened at anchor `A` with
//! per-iteration cost `c` re-checks at `A + k*c` for `k >= 1`. The
//! scheduler executes steps in globally non-decreasing `(time, cpu)`
//! order, so a write performed by a step at `(T_w, cpu_w)` is visible to
//! the waiter's check at `(T_j, cpu_s)` exactly when
//! `(T_w, cpu_w) < (T_j, cpu_s)` lexicographically. The wake instant is
//! therefore the smallest lattice point at which the write is visible —
//! computed by [`wake_for_notify`]. Interrupt and spawn deliveries latched
//! at an absolute instant preempt the spinner at its first check at or
//! after that instant ([`wake_for_delivery`]).
//!
//! Because notifies are processed in the same global order as every other
//! shared-state access, a waiter can never park *after* missing its
//! wakeup: any notify ordered before the park was visible to the live
//! check the process performed in the very step that parked it. There is
//! no lost-wakeup window by construction.
//!
//! # The stepped interpretation
//!
//! `Step::Block` also has a literal reading: one failed iteration of the
//! spin loop. With [`Machine::set_stepped_waits`](crate::Machine::set_stepped_waits)
//! on, the scheduler executes every `Block(on)` exactly like
//! `Run(on.interval)` — it charges the interval, keeps the frame
//! runnable, and ignores the channels and the deadline — so the process
//! re-checks its condition at every lattice point. That is the stepped
//! loop by definition, and the oracle the event layer is tested against.
//! Processes never choose between the two readings; the machine does.
//!
//! # Channel key registry
//!
//! Channels are pure 64-bit keys; no registration exists. Layers carve the
//! key space by high bits to stay collision-free:
//!
//! | bits 32.. | owner      | meaning                         |
//! |-----------|------------|---------------------------------|
//! | `0x1`     | pmap       | per-pmap lock release           |
//! | `0x2`     | core       | per-processor action-queue lock |
//! | `0x3`     | core       | the global sync channel         |
//! | `0x4`     | vm         | per-task map lock               |
//! | `0x5`     | workloads  | workload-private flags          |

use crate::time::{Dur, Time};

/// A wait-channel key: an opaque identity processes block on and writers
/// notify. See the module docs for the key registry.
///
/// # Examples
///
/// ```
/// use machtlb_sim::WaitChannel;
///
/// let chan = WaitChannel::new(0x1_0000_0000 | 7);
/// assert_eq!(chan.key(), 0x1_0000_0007);
/// ```
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct WaitChannel(u64);

impl WaitChannel {
    /// Creates a channel from its key.
    pub const fn new(key: u64) -> WaitChannel {
        WaitChannel(key)
    }

    /// The channel's key.
    pub const fn key(self) -> u64 {
        self.0
    }
}

/// What a blocking process waits on: up to two channels (a responder waits
/// on the kernel pmap's lock *and* its current user pmap's lock) and the
/// exact per-iteration cost the stepped loop would have charged.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct BlockOn {
    /// The channels whose notification can change the awaited condition.
    pub chans: [Option<WaitChannel>; 2],
    /// Cost of one spin iteration of the equivalent stepped loop
    /// (`spin_iter + cache_read` at every kernel spin site). Must be
    /// non-zero.
    pub interval: Dur,
    /// If set, the process also wakes (spuriously, to re-check) at the
    /// first check-lattice instant at or after this deadline — the
    /// event-driven equivalent of a stepped spinner whose loop body tests
    /// a timeout against its clock. The stepped loop observes the expiry
    /// at exactly that lattice point, so equivalence is preserved.
    pub deadline: Option<Time>,
}

impl BlockOn {
    /// Blocks on a single channel.
    pub fn one(chan: WaitChannel, interval: Dur) -> BlockOn {
        BlockOn {
            chans: [Some(chan), None],
            interval,
            deadline: None,
        }
    }

    /// Blocks on either of two channels.
    pub fn two(a: WaitChannel, b: WaitChannel, interval: Dur) -> BlockOn {
        BlockOn {
            chans: [Some(a), Some(b)],
            interval,
            deadline: None,
        }
    }

    /// Adds a wake deadline (see [`BlockOn::deadline`]).
    pub fn with_deadline(mut self, deadline: Time) -> BlockOn {
        self.deadline = Some(deadline);
        self
    }

    /// Whether `chan` is one of the awaited channels.
    pub(crate) fn listens_to(&self, chan: WaitChannel) -> bool {
        self.chans.contains(&Some(chan))
    }
}

/// The first check-lattice instant `anchor + k*interval` (`k >= 1`) at
/// which a write performed at `t_w` is visible to the waiter. At an exact
/// lattice point visibility follows the `(time, cpu)` tie-break:
/// `writer_orders_first` is whether the writer's cpu index is below the
/// waiter's.
pub(crate) fn wake_for_notify(
    anchor: Time,
    interval: Dur,
    t_w: Time,
    writer_orders_first: bool,
) -> Time {
    debug_assert!(interval > Dur::ZERO, "a spin iteration costs time");
    // The notify was executed after the step that parked the waiter, so
    // t_w >= anchor; saturate anyway for robustness.
    let delta = t_w.saturating_duration_since(anchor).as_nanos();
    let c = interval.as_nanos();
    let (q, r) = (delta / c, delta % c);
    let k = if r > 0 {
        q + 1
    } else if writer_orders_first {
        q.max(1)
    } else {
        q + 1
    };
    anchor + Dur::nanos(c * k)
}

/// The first check-lattice instant `anchor + k*interval` (`k >= 1`) at or
/// after a delivery latched at `t_d`: the stepped spinner's first
/// scheduler step at which a pending interrupt dispatches or a spawned
/// frame runs instead of the failed check.
pub(crate) fn wake_for_delivery(anchor: Time, interval: Dur, t_d: Time) -> Time {
    debug_assert!(interval > Dur::ZERO, "a spin iteration costs time");
    let delta = t_d.saturating_duration_since(anchor).as_nanos();
    let c = interval.as_nanos();
    let (q, r) = (delta / c, delta % c);
    let k = if r > 0 { q + 1 } else { q.max(1) };
    anchor + Dur::nanos(c * k)
}

/// Spin iterations the stepped loop would have executed strictly between
/// the parking check at `anchor` and the wake check at `wake_at` — the
/// count charged analytically at wakeup. The wake instant is always a
/// lattice point, so the division is exact.
pub(crate) fn skipped_iterations(anchor: Time, interval: Dur, wake_at: Time) -> u64 {
    let delta = wake_at.duration_since(anchor).as_nanos();
    let c = interval.as_nanos();
    debug_assert_eq!(delta % c, 0, "wake instants lie on the check lattice");
    debug_assert!(
        delta >= c,
        "the first re-check is one interval after the anchor"
    );
    delta / c - 1
}

#[cfg(test)]
mod tests {
    use super::*;

    const C: Dur = Dur::nanos(2_350);

    #[test]
    fn channel_round_trips_its_key() {
        let chan = WaitChannel::new(0x2_0000_0000 | 13);
        assert_eq!(chan.key(), 0x2_0000_000d);
        assert_eq!(chan, WaitChannel::new(chan.key()));
    }

    #[test]
    fn block_on_listens_to_its_channels() {
        let a = WaitChannel::new(1);
        let b = WaitChannel::new(2);
        assert!(BlockOn::one(a, C).listens_to(a));
        assert!(!BlockOn::one(a, C).listens_to(b));
        assert!(BlockOn::two(a, b, C).listens_to(b));
    }

    #[test]
    fn notify_between_lattice_points_wakes_at_the_next() {
        let a = Time::from_nanos(1_000);
        // Write lands strictly between checks k=2 and k=3.
        let t_w = a + Dur::nanos(2 * 2_350 + 1);
        let woke = wake_for_notify(a, C, t_w, true);
        assert_eq!(woke, a + Dur::nanos(3 * 2_350));
        assert_eq!(skipped_iterations(a, C, woke), 2);
    }

    #[test]
    fn notify_on_a_lattice_point_respects_the_cpu_tie_break() {
        let a = Time::from_nanos(0);
        let t_w = a + Dur::nanos(4 * 2_350);
        // A lower-indexed writer's step at the same instant orders before
        // the waiter's check: visible at that very check.
        assert_eq!(wake_for_notify(a, C, t_w, true), t_w);
        // A higher-indexed writer orders after: the next check sees it.
        assert_eq!(wake_for_notify(a, C, t_w, false), a + Dur::nanos(5 * 2_350));
    }

    #[test]
    fn notify_at_the_anchor_instant_wakes_at_the_first_check() {
        // A same-instant notify can only come from a cpu ordered after the
        // waiter (the waiter's own step parked it), so the first check at
        // anchor + c is the earliest that can see it.
        let a = Time::from_nanos(500);
        assert_eq!(wake_for_notify(a, C, a, false), a + C);
        // Even the impossible-by-ordering earlier-writer case never wakes
        // before the first lattice point.
        assert_eq!(wake_for_notify(a, C, a, true), a + C);
        assert_eq!(skipped_iterations(a, C, a + C), 0);
    }

    #[test]
    fn delivery_wakes_at_the_first_point_at_or_after_the_latch() {
        let a = Time::from_nanos(0);
        assert_eq!(wake_for_delivery(a, C, a + Dur::nanos(1)), a + C);
        assert_eq!(
            wake_for_delivery(a, C, a + Dur::nanos(2_350)),
            a + Dur::nanos(2_350)
        );
        assert_eq!(
            wake_for_delivery(a, C, a + Dur::nanos(2_351)),
            a + Dur::nanos(4_700)
        );
        // A delivery from before the park (applied late) still wakes no
        // earlier than the first re-check.
        assert_eq!(wake_for_delivery(a, C, a), a + C);
    }
}
