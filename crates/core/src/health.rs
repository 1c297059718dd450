//! The health monitor: fail-stop processor eviction and the fenced
//! rejoin protocol.
//!
//! The paper's algorithm assumes every notified responder eventually
//! answers; a fail-stop processor (halted by hardware fault or taken
//! offline) breaks that assumption and, untreated, wedges every initiator
//! that synchronizes with it and orphans every lock it held. This module
//! adds the recovery layer:
//!
//! - **Eviction** ([`evict`]): after the initiator watchdog exhausts its
//!   bounded IPI retries, the responder is declared *suspect* and removed
//!   from the kernel's active and idle sets and from every pmap's in-use
//!   set. The shootdown then completes against the reduced quorum. A dead
//!   processor's stale TLB entries are harmless precisely because it is
//!   dead: fail-stop means it performs no further translations.
//! - **Dead-holder lock recovery**: a spinning lock acquirer probes the
//!   holder's liveness; a halted holder is handled per the configured
//!   [`RecoveryPolicy`] — fence-and-steal for the pmap lock (whose
//!   critical section is a pure page-table update the thief redoes from
//!   scratch), or failing the operation with a decoded dead-holder error.
//! - **Fenced rejoin** ([`FencedRejoinProcess`]): a revived processor may
//!   not touch any pmap until it (1) flushes its whole TLB — every
//!   pre-offline translation is suspect, (2) drains its action queue
//!   *discarding* the stale generations (the flush already covered them),
//!   and (3) passes a generation-number handshake proving no newer
//!   eviction superseded the fence. Only then does it rejoin the active
//!   set. The consistency checker is the oracle that a revived processor
//!   never uses a pre-offline translation: disable the fence and the
//!   checker flags the stale use.

use machtlb_sim::{BlockOn, CpuId, Ctx, Dur, Process, Step, Time};
use machtlb_xpr::{SpanId, TraceEdge, TracePhase};

use crate::state::{queue_lock_channel, round_channel, HasKernel, KernelState, SYNC_CHANNEL};

/// What a lock acquirer does upon finding the holder fail-stop halted.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub enum RecoveryPolicy {
    /// Forcibly transfer the lock to the prober and proceed. Sound for
    /// the pmap lock: its critical section only stages page-table and
    /// TLB updates that the thief's own operation recomputes under the
    /// stolen lock.
    #[default]
    FenceAndSteal,
    /// Abort the operation, reporting the dead holder in the outcome
    /// ([`OpOutcome::dead_lock_holder`](crate::OpOutcome::dead_lock_holder))
    /// so the caller can decide.
    FailOp,
}

/// Health-monitor configuration, embedded in
/// [`KernelConfig`](crate::KernelConfig).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct HealthConfig {
    /// Whether the monitor acts at all. Off, a watchdog give-up only
    /// files a report (the PR-4 behaviour) and dead lock holders wedge
    /// their waiters.
    pub enabled: bool,
    /// Whether a revived processor runs the full fence before rejoining.
    /// Turned off only by beyond-envelope chaos plans, to prove the
    /// checker catches an unfenced rejoin rather than the kernel
    /// silently surviving it.
    pub fencing: bool,
    /// What lock acquirers do about halted holders.
    pub policy: RecoveryPolicy,
}

impl Default for HealthConfig {
    fn default() -> HealthConfig {
        HealthConfig {
            enabled: true,
            fencing: true,
            policy: RecoveryPolicy::default(),
        }
    }
}

/// One eviction, as recorded in [`KernelState::eviction_reports`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct EvictionReport {
    /// When the responder was declared dead.
    pub at: Time,
    /// The initiator whose watchdog gave up.
    pub initiator: CpuId,
    /// The evicted processor.
    pub target: CpuId,
}

/// Declares `target` dead and removes it from every set a shootdown
/// consults: the kernel active and idle sets, every pmap's in-use set,
/// and every in-flight multicast round's pending and cleanup sets. Bumps
/// the target's health generation (the fenced rejoin's handshake token),
/// marks it evicted, files an [`EvictionReport`], and counts the
/// eviction. The caller notifies [`SYNC_CHANNEL`](crate::SYNC_CHANNEL) in
/// the same step — leaving the active set and the in-use sets can satisfy
/// other initiators' waits — and owes a
/// [`round_channel`](crate::round_channel) notification for each returned
/// pmap, whose round's acknowledgement count the excusal drove to zero.
pub fn evict(
    k: &mut KernelState,
    initiator: CpuId,
    target: CpuId,
    now: Time,
) -> Vec<machtlb_pmap::PmapId> {
    k.active.remove(target);
    k.idle.remove(target);
    for i in 0..k.pmaps.len() {
        k.pmaps
            .get_mut(machtlb_pmap::PmapId::new(i as u32))
            .mark_not_in_use(target);
    }
    k.evicted[target.index()] = true;
    k.health_gen[target.index()] += 1;
    k.eviction_reports.push(EvictionReport {
        at: now,
        initiator,
        target,
    });
    k.stats.evictions += 1;
    k.excuse_from_rounds(target)
}

/// Evicts `target` on behalf of the processor stepping `ctx` (see
/// [`evict`]) and, in the same step, wakes every waiter the eviction can
/// satisfy: the [`SYNC_CHANNEL`] listeners, and the leader of each round
/// whose acknowledgement count the excusal drove to zero — the wake the
/// dead responder would have sent. Returns the cost of the eviction's
/// bus write. Kernel code evicts only through here, so no path can evict
/// without waking round leaders.
pub(crate) fn evict_and_wake<S: HasKernel>(ctx: &mut Ctx<'_, S, ()>, target: CpuId) -> Dur {
    let (me, now) = (ctx.cpu_id, ctx.now);
    let completed = evict(ctx.shared.kernel_mut(), me, target, now);
    ctx.notify(SYNC_CHANNEL);
    for pmap in completed {
        ctx.notify(round_channel(pmap));
    }
    ctx.bus_write()
}

/// Forcibly releases every lock a fail-stop processor still holds — its
/// pmap lock shards and any per-processor queue locks — and scrubs the
/// rounds it led. Sound for the same reason fence-and-steal is: a dead
/// holder's critical section only staged page-table and TLB updates that
/// the next acquirer recomputes from scratch under a fresh acquisition,
/// and the steal-generation bump tells any process that sampled the lock
/// mid-section to restart. The FailOp retry driver calls this after
/// evicting the dead holder, so the re-dispatched operation finds the
/// lock free instead of aborting on the same corpse forever. Each freed
/// lock counts into [`KernelStats::locks_stolen`](crate::KernelStats::locks_stolen).
/// Returns the wait channels the caller must notify in the same step (a
/// release can satisfy event-blocked waiters).
///
/// # Panics
///
/// Panics if `rescuer == dead` (a processor cannot reclaim from itself).
pub fn reclaim_dead_locks(
    k: &mut KernelState,
    rescuer: CpuId,
    dead: CpuId,
) -> Vec<machtlb_sim::WaitChannel> {
    assert_ne!(rescuer, dead, "a processor cannot reclaim its own locks");
    let mut chans = Vec::new();
    for i in 0..k.pmaps.len() {
        let id = machtlb_pmap::PmapId::new(i as u32);
        let shards = k.pmaps.get(id).shards().count();
        for s in 0..shards {
            let lock = k.pmaps.get_mut(id).shard_mut(s);
            if lock.is_held_by(dead) {
                lock.steal(dead, rescuer);
                lock.release(rescuer);
                k.stats.locks_stolen += 1;
                if let Some(c) = k.pmaps.get(id).lock().channel() {
                    chans.push(c);
                }
            }
        }
    }
    for (i, lock) in k.queue_locks.iter_mut().enumerate() {
        if lock.is_held_by(dead) {
            lock.steal(dead, rescuer);
            lock.release(rescuer);
            k.stats.locks_stolen += 1;
            chans.push(queue_lock_channel(CpuId::new(i as u32)));
        }
    }
    // A dead leader's published rounds will never complete or be
    // reclaimed; scrub them so stalled responders find nothing.
    k.rounds.retain(|r| r.initiator != dead);
    chans
}

#[derive(Debug)]
enum FencePhase {
    FlushTlb,
    LockQueue,
    Discard,
    Handshake,
    Rejoin,
}

/// The fenced rejoin protocol a revived processor runs before touching
/// any pmap (see the module docs). Spawned on the revived processor at
/// its revival instant; the spawned frame lands on top of whatever was
/// frozen, so the fence completes before the interrupted work resumes.
///
/// With [`HealthConfig::fencing`] off the process skips the flush,
/// discard, and handshake and rejoins immediately — the unsound shortcut
/// the chaos suite's beyond-envelope plan exists to have the checker
/// catch.
#[derive(Debug)]
pub struct FencedRejoinProcess {
    phase: FencePhase,
    /// The health generation observed when the fence began; the
    /// handshake re-reads it to detect a superseding eviction.
    observed_gen: Option<u64>,
    /// The fence's flight-recorder span, when tracing.
    span: Option<SpanId>,
    /// The queue lock's steal generation, sampled when
    /// [`FencePhase::LockQueue`] acquires it. [`FencePhase::Discard`]
    /// rechecks it: a mismatch means the processor was fail-stopped
    /// *again* mid-fence and the FailOp reclaimer freed the lock, so the
    /// fence restarts from the flush instead of releasing a lock it no
    /// longer holds.
    lock_gen: u64,
}

impl FencedRejoinProcess {
    /// Creates the rejoin sequence for the processor it is spawned on.
    pub fn new() -> FencedRejoinProcess {
        FencedRejoinProcess {
            phase: FencePhase::FlushTlb,
            observed_gen: None,
            span: None,
            lock_gen: 0,
        }
    }
}

impl Default for FencedRejoinProcess {
    fn default() -> FencedRejoinProcess {
        FencedRejoinProcess::new()
    }
}

impl<S: HasKernel> Process<S, ()> for FencedRejoinProcess {
    fn step(&mut self, ctx: &mut Ctx<'_, S, ()>) -> Step {
        let me = ctx.cpu_id;
        match self.phase {
            FencePhase::FlushTlb => {
                if !ctx.shared.kernel().config.health.fencing {
                    // The unsound shortcut: rejoin with the pre-offline
                    // TLB contents intact.
                    self.phase = FencePhase::Rejoin;
                    return Step::Run(ctx.costs().local_op);
                }
                self.observed_gen = Some(ctx.shared.kernel().health_gen[me.index()]);
                if ctx.shared.kernel().trace.is_enabled() {
                    let now = ctx.now;
                    let k = ctx.shared.kernel_mut();
                    let span = k.trace.begin_span();
                    k.trace
                        .record(me, span, TracePhase::Fence, TraceEdge::Begin, now);
                    self.span = Some(span);
                }
                let now = ctx.now;
                let k = ctx.shared.kernel_mut();
                k.tlbs[me.index()].flush_all();
                k.tlb_flush_stamp[me.index()] = now;
                self.phase = FencePhase::LockQueue;
                Step::Run(ctx.costs().tlb_flush_all)
            }
            FencePhase::LockQueue => {
                let woken = ctx.woken_spins();
                let lock = &mut ctx.shared.kernel_mut().queue_locks[me.index()];
                lock.charge_spins(woken);
                if !lock.try_acquire(me) {
                    let spin = ctx.costs().spin_check();
                    return Step::Block(BlockOn::one(queue_lock_channel(me), spin));
                }
                self.lock_gen = lock.steal_gen();
                self.phase = FencePhase::Discard;
                Step::Run(ctx.costs().lock_acquire + ctx.bus_interlocked())
            }
            FencePhase::Discard => {
                // Steal-generation check: fail-stopped again between the
                // acquisition and this step, lock reclaimed. The claim is
                // gone; restart the fence from the flush (the handshake's
                // generation test alone cannot save us — it runs after
                // the release below would have panicked).
                if ctx.shared.kernel().queue_locks[me.index()].steal_gen() != self.lock_gen {
                    ctx.shared.kernel_mut().stats.robbed_restarts += 1;
                    self.phase = FencePhase::FlushTlb;
                    return Step::Run(ctx.costs().local_op + ctx.bus_read());
                }
                // Drain and *discard*: every queued action predates the
                // full flush, so its invalidations are already done — and
                // its generation is stale by definition.
                let k = ctx.shared.kernel_mut();
                let (actions, _flush_all) = k.queues[me.index()].drain();
                drop(actions);
                k.action_needed[me.index()] = false;
                k.ipi_pending[me.index()] = false;
                k.queue_locks[me.index()].release(me);
                ctx.notify(SYNC_CHANNEL);
                ctx.notify(queue_lock_channel(me));
                self.phase = FencePhase::Handshake;
                Step::Run(ctx.costs().lock_release + ctx.bus_write() + ctx.bus_write())
            }
            FencePhase::Handshake => {
                // The generation handshake: the fence is valid only if no
                // eviction superseded it since the flush. A mismatch means
                // this processor was declared dead *again* mid-fence;
                // restart from the flush so the fence covers the newest
                // generation.
                let current = ctx.shared.kernel().health_gen[me.index()];
                if self.observed_gen != Some(current) {
                    self.phase = FencePhase::FlushTlb;
                    return Step::Run(ctx.costs().local_op + ctx.bus_read());
                }
                ctx.shared.kernel_mut().evicted[me.index()] = false;
                self.phase = FencePhase::Rejoin;
                Step::Run(ctx.costs().local_op + ctx.bus_read())
            }
            FencePhase::Rejoin => {
                // The attach rule (see SwitchUserPmapProcess): a processor
                // must not re-enter a pmap's in-use set while an update on
                // it is in flight, because the initiator already decided
                // whom to synchronize with when it scanned the set — a
                // mid-scan rejoin would re-cache entries the updater never
                // shoots down. Spin until no live holder is mid-update on
                // the pmaps being re-attached (a fail-stop holder never
                // releases; its half-staged work is redone under a fresh
                // acquisition, so proceeding past a corpse is sound).
                let (contended, chan) = {
                    let k = ctx.shared.kernel();
                    let health = k.config.health;
                    let user = k.cur_user_pmap[me.index()];
                    let mut contended = false;
                    let mut chan = None;
                    for id in [Some(machtlb_pmap::PmapId::KERNEL), user]
                        .into_iter()
                        .flatten()
                    {
                        let pmap = k.pmaps.get(id);
                        let live = pmap.shards().any(|l| {
                            l.holder().is_some_and(|h| {
                                h != me && !(health.enabled && ctx.is_cpu_halted(h))
                            })
                        });
                        if live {
                            contended = true;
                            if chan.is_none() {
                                chan = pmap.lock().channel();
                            }
                        }
                    }
                    (contended, chan)
                };
                if contended {
                    let spin = ctx.costs().spin_check();
                    let Some(chan) = chan else {
                        return Step::Run(spin);
                    };
                    // A holder that halts mid-update never notifies: wake
                    // at the watchdog timeout so the liveness probe above
                    // runs even without a release.
                    let deadline = ctx.now + ctx.shared.kernel().config.watchdog.timeout;
                    return Step::Block(BlockOn::one(chan, spin).with_deadline(deadline));
                }
                let now = ctx.now;
                let k = ctx.shared.kernel_mut();
                // Re-enter the sets eviction removed this processor from:
                // the kernel pmap is in use wherever translations happen,
                // and the current user pmap (if the frozen work was
                // executing in one) becomes visible to shootdowns again.
                k.pmaps
                    .get_mut(machtlb_pmap::PmapId::KERNEL)
                    .mark_in_use(me);
                if let Some(user) = k.cur_user_pmap[me.index()] {
                    k.pmaps.get_mut(user).mark_in_use(me);
                }
                k.active.insert(me);
                k.stats.fenced_rejoins += 1;
                if let Some(span) = self.span.take() {
                    k.trace
                        .record(me, span, TracePhase::Fence, TraceEdge::End, now);
                    k.trace
                        .record(me, span, TracePhase::Rejoin, TraceEdge::Mark, now);
                }
                ctx.notify(SYNC_CHANNEL);
                Step::Done(ctx.costs().local_op + ctx.bus_write())
            }
        }
    }

    fn label(&self) -> &'static str {
        "fenced-rejoin"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::{KernelConfig, KernelState};
    use machtlb_pmap::PmapId;

    #[test]
    fn evict_removes_every_membership_and_books_the_report() {
        let mut k = KernelState::new(4, KernelConfig::default());
        let target = CpuId::new(2);
        k.force_active(target);
        let user = k.pmaps.create();
        k.pmaps.get_mut(user).mark_in_use(target);
        assert!(k.pmaps.kernel().in_use().contains(target));

        evict(&mut k, CpuId::new(0), target, Time::from_micros(77));

        assert!(!k.active.contains(target));
        assert!(!k.idle.contains(target));
        assert!(!k.pmaps.kernel().in_use().contains(target));
        assert!(!k.pmaps.get(user).in_use().contains(target));
        assert!(k.evicted[2]);
        assert_eq!(k.health_gen[2], 1);
        assert_eq!(k.stats.evictions, 1);
        assert_eq!(
            k.eviction_reports,
            vec![EvictionReport {
                at: Time::from_micros(77),
                initiator: CpuId::new(0),
                target,
            }]
        );
        // Other processors untouched.
        assert!(k.idle.contains(CpuId::new(1)));
        assert!(k.pmaps.get(PmapId::KERNEL).in_use().contains(CpuId::new(1)));
    }

    #[test]
    fn repeated_evictions_advance_the_generation() {
        let mut k = KernelState::new(2, KernelConfig::default());
        evict(&mut k, CpuId::new(0), CpuId::new(1), Time::from_micros(1));
        evict(&mut k, CpuId::new(0), CpuId::new(1), Time::from_micros(2));
        assert_eq!(k.health_gen[1], 2);
        assert_eq!(k.stats.evictions, 2);
        assert_eq!(k.eviction_reports.len(), 2);
    }
}
