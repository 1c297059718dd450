//! The responder: the shootdown interrupt service routine, and the shared
//! queue-drain machinery the exit-idle path reuses.

use machtlb_pmap::{PageRange, PmapId};
use machtlb_sim::{BlockOn, Ctx, Dur, Process, Step, Time};
use machtlb_tlb::InvalidationPlan;
use machtlb_xpr::{ResponderRecord, ShootdownEvent, SpanId, TraceEdge, TracePhase};

use crate::health::FencedRejoinProcess;
use crate::op::lock_wait;
use crate::queue::Action;
use crate::state::{queue_lock_channel, round_channel, HasKernel, KernelState, SYNC_CHANNEL};

/// Result of stepping an embedded [`DrainQueue`].
#[derive(Debug)]
pub(crate) enum DrainStatus {
    /// Still working; yield with this step.
    Running(Step),
    /// Finished; the final action cost this much.
    Finished(Dur),
}

#[derive(Debug)]
enum DrainPhase {
    SpinPmaps,
    LockQueue,
    Drain,
    Finish,
}

/// Waits for the pmaps this processor could be caching entries of to be
/// unlocked (phase 2 of the algorithm), then drains the processor's action
/// queue under its lock and clears the action-needed flag (phase 4).
///
/// Figure 1 writes the spin condition as
/// `pmap_is_locked(kernel_pmap) && pmap_is_locked(user_pmap(mycpu))`; the
/// prose ("the responders then spin until the initiator completes its
/// changes") requires waiting while *either* pmap is being updated, so the
/// reproduction spins on the disjunction.
#[derive(Debug)]
pub(crate) struct DrainQueue {
    phase: DrainPhase,
    actions: Vec<Action>,
    flush_all: bool,
    idx: usize,
    /// The shootdown span that queued this processor's work, looked up
    /// from the recorder's pending table on the first step.
    span: Option<SpanId>,
    looked: bool,
    /// The trace phase currently open on this responder's track.
    open: Option<TracePhase>,
    /// The queue lock's steal generation, sampled when
    /// [`DrainPhase::LockQueue`] acquires it. A mismatch in a later phase
    /// means the FailOp reclaimer freed the lock while this processor was
    /// fail-stopped mid-drain: its claim (and its drained actions) are
    /// stale, and it must not release a lock it no longer holds.
    lock_gen: u64,
}

impl DrainQueue {
    /// `stall` selects whether to spin on the pmap locks first (false for
    /// the Section 9 no-stall software-reload variant).
    pub(crate) fn new(stall: bool) -> DrainQueue {
        DrainQueue {
            phase: if stall {
                DrainPhase::SpinPmaps
            } else {
                DrainPhase::LockQueue
            },
            actions: Vec::new(),
            flush_all: false,
            idx: 0,
            span: None,
            looked: false,
            open: None,
            lock_gen: 0,
        }
    }

    /// The span this drain was linked to (meaningful after the first
    /// step; kept so the embedding process can record the rejoin mark
    /// after the drain is dropped).
    pub(crate) fn span(&self) -> Option<SpanId> {
        self.span
    }

    /// First-step trace setup: link to the pending span and, if this
    /// drain stalls on the pmap locks, open the quiesce slice.
    fn trace_link<S: HasKernel>(&mut self, ctx: &mut Ctx<'_, S, ()>) {
        if self.looked {
            return;
        }
        self.looked = true;
        if !ctx.shared.kernel().trace.is_enabled() {
            return;
        }
        let me = ctx.cpu_id;
        self.span = ctx.shared.kernel().trace.pending(me);
        if let (Some(span), DrainPhase::SpinPmaps) = (self.span, &self.phase) {
            let now = ctx.now;
            ctx.shared.kernel_mut().trace.record(
                me,
                span,
                TracePhase::Quiesce,
                TraceEdge::Begin,
                now,
            );
            self.open = Some(TracePhase::Quiesce);
        }
    }

    /// Whether any pmap this processor might hold entries for is being
    /// updated by *another* processor (any shard of either lock suffices:
    /// the responder cannot know which ranges the updates touch).
    fn must_spin<S: HasKernel>(ctx: &Ctx<'_, S, ()>) -> bool {
        let me = ctx.cpu_id;
        if ctx.shared.kernel().pmaps.kernel().locked_by_other(me) {
            return true;
        }
        if let Some(user) = ctx.shared.kernel().cur_user_pmap[me.index()] {
            if ctx.shared.kernel().pmaps.get(user).locked_by_other(me) {
                return true;
            }
        }
        false
    }

    pub(crate) fn step<S: HasKernel>(&mut self, ctx: &mut Ctx<'_, S, ()>) -> DrainStatus {
        self.trace_link(ctx);
        let me = ctx.cpu_id;
        // Steal-generation check: if the queue lock was reclaimed while
        // this processor was fail-stopped mid-drain, the drained actions
        // are stale (the processor was evicted, and the fenced rejoin's
        // full flush supersedes every one of them) and the lock belongs
        // to someone else — abandon the drain without releasing.
        if matches!(self.phase, DrainPhase::Drain | DrainPhase::Finish)
            && ctx.shared.kernel().queue_locks[me.index()].steal_gen() != self.lock_gen
        {
            self.actions.clear();
            self.flush_all = false;
            let now = ctx.now;
            let k = ctx.shared.kernel_mut();
            k.stats.robbed_restarts += 1;
            if let (Some(span), Some(open)) = (self.span, self.open.take()) {
                k.trace.record(me, span, open, TraceEdge::End, now);
                k.trace.clear_pending(me);
            }
            return DrainStatus::Finished(ctx.costs().local_op + ctx.bus_read());
        }
        match self.phase {
            DrainPhase::SpinPmaps => {
                if Self::must_spin(ctx) {
                    let spin = ctx.costs().spin_check();
                    let kernel = ctx.shared.kernel();
                    // Listen on both pmaps the condition reads: either
                    // lock's release can clear it, and a pmap unlocked at
                    // this check may be locked by the time the other is
                    // released.
                    let kchan = kernel.pmaps.kernel().lock().channel();
                    let uchan = kernel.cur_user_pmap[me.index()]
                        .and_then(|u| kernel.pmaps.get(u).lock().channel());
                    DrainStatus::Running(match (kchan, uchan) {
                        (Some(k), Some(u)) => Step::Block(BlockOn::two(k, u, spin)),
                        (Some(k), None) => Step::Block(BlockOn::one(k, spin)),
                        (None, _) => Step::Run(spin),
                    })
                } else {
                    if let (Some(span), Some(open)) = (self.span, self.open.take()) {
                        let now = ctx.now;
                        ctx.shared
                            .kernel_mut()
                            .trace
                            .record(me, span, open, TraceEdge::End, now);
                    }
                    self.phase = DrainPhase::LockQueue;
                    DrainStatus::Running(Step::Run(ctx.costs().local_op))
                }
            }
            DrainPhase::LockQueue => {
                let woken = ctx.woken_spins();
                let lock = &mut ctx.shared.kernel_mut().queue_locks[me.index()];
                lock.charge_spins(woken);
                if !lock.try_acquire(me) {
                    let on = BlockOn::one(queue_lock_channel(me), ctx.costs().spin_check());
                    return DrainStatus::Running(Step::Block(on));
                }
                self.lock_gen = lock.steal_gen();
                let (actions, flush_all) = ctx.shared.kernel_mut().queues[me.index()].drain();
                self.actions = actions;
                self.flush_all = flush_all;
                self.idx = 0;
                if let Some(span) = self.span {
                    // Only now is it known whether the queue overflowed
                    // into a whole-TLB flush.
                    let phase = if flush_all {
                        TracePhase::FullFlush
                    } else {
                        TracePhase::Drain
                    };
                    let now = ctx.now;
                    ctx.shared
                        .kernel_mut()
                        .trace
                        .record(me, span, phase, TraceEdge::Begin, now);
                    self.open = Some(phase);
                }
                self.phase = DrainPhase::Drain;
                DrainStatus::Running(Step::Run(ctx.costs().lock_acquire + ctx.bus_interlocked()))
            }
            DrainPhase::Drain => {
                if self.flush_all {
                    self.flush_all = false;
                    self.actions.clear();
                    let k = ctx.shared.kernel_mut();
                    k.stats.degraded_flushes += 1;
                    k.tlbs[me.index()].flush_all();
                    self.phase = DrainPhase::Finish;
                    return DrainStatus::Running(Step::Run(ctx.costs().tlb_flush_all));
                }
                let Some(&action) = self.actions.get(self.idx) else {
                    self.phase = DrainPhase::Finish;
                    return DrainStatus::Running(Step::Run(ctx.costs().local_op));
                };
                self.idx += 1;
                let cost = retire_address_space(ctx, action.pmap)
                    .unwrap_or_else(|| invalidate(ctx, action.pmap, action.range));
                DrainStatus::Running(Step::Run(cost))
            }
            DrainPhase::Finish => {
                if let Some(span) = self.span {
                    let now = ctx.now;
                    let k = ctx.shared.kernel_mut();
                    if let Some(open) = self.open.take() {
                        k.trace.record(me, span, open, TraceEdge::End, now);
                    }
                    k.trace.clear_pending(me);
                }
                ctx.shared.kernel_mut().action_needed[me.index()] = false;
                ctx.shared.kernel_mut().queue_locks[me.index()].release(me);
                // The cleared flag satisfies no-stall initiators; the
                // released lock satisfies queue-scanning ones.
                ctx.notify(SYNC_CHANNEL);
                ctx.notify(queue_lock_channel(me));
                let cost = ctx.costs().lock_release + ctx.bus_write() + ctx.bus_write();
                DrainStatus::Finished(cost)
            }
        }
    }
}

/// Invalidates `range` of `pmap` from this processor's TLB — entry by
/// entry, or by one whole flush past the buffer's threshold — and returns
/// the cost. Every ranged invalidation goes through here: the initiator's
/// own, the queue drain's, and the round acknowledgement and cleanup
/// passes.
pub(crate) fn invalidate<S: HasKernel>(
    ctx: &mut Ctx<'_, S, ()>,
    pmap: PmapId,
    range: PageRange,
) -> Dur {
    let me = ctx.cpu_id;
    let (single, flush) = (ctx.costs().tlb_invalidate_single, ctx.costs().tlb_flush_all);
    let tlb = &mut ctx.shared.kernel_mut().tlbs[me.index()];
    match tlb.plan_invalidation(range) {
        InvalidationPlan::Individual(n) => {
            tlb.invalidate_range(pmap, range);
            single * n
        }
        InvalidationPlan::FullFlush => {
            tlb.flush_all();
            flush
        }
    }
}

/// Section 10 extension for ASID-tagged buffers: an address space that
/// requires an invalidation but is not the one this processor is
/// executing in is dropped whole, and the pmap stops counting as in use
/// here. Returns the cost, or `None` — invalidate the ranges instead —
/// when `pmap` is not such an address space.
fn retire_address_space<S: HasKernel>(ctx: &mut Ctx<'_, S, ()>, pmap: PmapId) -> Option<Dur> {
    let me = ctx.cpu_id;
    let k = ctx.shared.kernel();
    if !k.config.tlb.asid_tagged || pmap.is_kernel() || k.cur_user_pmap[me.index()] == Some(pmap) {
        return None;
    }
    let single = ctx.costs().tlb_invalidate_single;
    let cost = if k.config.residency {
        // ASID-generation recycling: retire the whole address space in
        // one generation bump instead of walking its entries — the
        // per-entry invalidations become lazy.
        let k = ctx.shared.kernel_mut();
        k.tlbs[me.index()].recycle_pmap(pmap);
        k.stats.asid_recycles += 1;
        single
    } else {
        let n = ctx.shared.kernel_mut().tlbs[me.index()].flush_pmap(pmap);
        single * n.max(1)
    };
    ctx.shared
        .kernel_mut()
        .pmaps
        .get_mut(pmap)
        .mark_not_in_use(me);
    // Dropping out of the user set can satisfy an initiator's wait.
    ctx.notify(SYNC_CHANNEL);
    Some(cost)
}

#[derive(Debug)]
enum RPhase {
    Enter,
    Deactivate,
    // Multicast-round mode: acknowledge each round naming this processor
    // (invalidate its ranges, decrement its counter), stall until the
    // leaders unlock, then run the post-unlock cleanup pass.
    RoundAck,
    RoundStall,
    RoundCleanup,
    Draining,
    Reactivate,
    // Wrongful-eviction recovery: this processor discovered it was
    // declared dead while servicing the interrupt. Its acknowledgements
    // are stale-generation (rejected above); it must flush, discard its
    // queue, and handshake back in before touching another translation.
    SelfFence,
    Exit,
}

/// The shootdown interrupt service routine (phases 2 and 4 of Section 4).
///
/// A single dispatch "responds to all shootdowns in progress": the routine
/// loops while its action-needed flag is set, so concurrent initiators on
/// different pmaps are serviced by one interrupt. The elapsed time recorded
/// excludes interrupt dispatch and return, as the paper's instrumentation
/// does.
#[derive(Debug)]
pub struct ResponderProcess {
    phase: RPhase,
    t_start: Option<Time>,
    drain: Option<DrainQueue>,
    /// The span of the drain just completed, carried to the reactivation
    /// step so the rejoin mark lands on the right shootdown.
    span: Option<SpanId>,
    /// Round ids this responder acknowledged and still owes a post-unlock
    /// cleanup pass.
    acked: Vec<u64>,
    /// The health generation sampled at entry — the token every
    /// acknowledgement below is validated against. A mismatch at an
    /// acknowledgement point means the watchdog evicted this processor
    /// mid-service (a wrongful eviction: it is slow, not dead).
    entry_gen: Option<u64>,
    /// The embedded rejoin protocol, driven by [`RPhase::SelfFence`].
    fence: Option<FencedRejoinProcess>,
    /// Whether the reactivation gate is currently holding this processor
    /// (counts one [`KernelStats::activation_stalls`] per episode).
    gated: bool,
}

impl ResponderProcess {
    /// Creates the ISR body (spawned by the interrupt dispatch).
    pub fn new() -> ResponderProcess {
        ResponderProcess {
            phase: RPhase::Enter,
            t_start: None,
            drain: None,
            span: None,
            acked: Vec::new(),
            entry_gen: None,
            fence: None,
            gated: false,
        }
    }

    /// Whether this processor was evicted since it entered the routine:
    /// either the evicted flag is up, or the watchdog evicted and revived
    /// it (or advanced its generation) since `entry_gen` was sampled, and
    /// the fence has not run yet.
    fn must_self_fence(&self, shared: &KernelState, me: machtlb_sim::CpuId) -> bool {
        let health = shared.config.health;
        if !(health.enabled && health.fencing) {
            return false;
        }
        shared.evicted[me.index()] || self.entry_gen != Some(shared.health_gen[me.index()])
    }

    /// Switches into [`RPhase::SelfFence`], booking the detection.
    fn begin_self_fence(&mut self, shared: &mut KernelState) {
        shared.stats.self_fences += 1;
        self.fence = Some(FencedRejoinProcess::new());
        self.phase = RPhase::SelfFence;
    }
}

impl Default for ResponderProcess {
    fn default() -> ResponderProcess {
        ResponderProcess::new()
    }
}

impl<S: HasKernel> Process<S, ()> for ResponderProcess {
    fn step(&mut self, ctx: &mut Ctx<'_, S, ()>) -> Step {
        let me = ctx.cpu_id;
        match self.phase {
            RPhase::Enter => {
                if self.t_start.is_none() {
                    self.t_start = Some(ctx.now);
                    ctx.shared.kernel_mut().ipi_pending[me.index()] = false;
                }
                // Every loop pass is a fresh entry: sample the health
                // generation the acknowledgements below are validated
                // against, then check for an eviction that already
                // happened — a wrongly evicted (slow-but-alive) processor
                // detects its own eviction here, on its next interrupt.
                self.entry_gen = Some(ctx.shared.kernel().health_gen[me.index()]);
                if self.must_self_fence(ctx.shared.kernel(), me) {
                    self.begin_self_fence(ctx.shared.kernel_mut());
                    return Step::Run(ctx.costs().local_op + ctx.costs().cache_read);
                }
                if ctx.shared.kernel_mut().action_needed[me.index()]
                    || ctx.shared.kernel().round_pending_for(me)
                {
                    self.phase = RPhase::Deactivate;
                } else {
                    self.phase = RPhase::Exit;
                }
                Step::Run(ctx.costs().local_op + ctx.costs().cache_read)
            }
            RPhase::Deactivate => {
                ctx.shared.kernel_mut().active.remove(me);
                ctx.notify(SYNC_CHANNEL);
                let stall = ctx.shared.kernel_mut().config.strategy.responders_stall();
                self.drain = Some(DrainQueue::new(stall));
                self.phase = if ctx.shared.kernel().round_pending_for(me) {
                    RPhase::RoundAck
                } else {
                    RPhase::Draining
                };
                Step::Run(ctx.costs().local_op + ctx.bus_write())
            }
            RPhase::RoundAck => {
                // The generation handshake: an acknowledgement is valid
                // only under the generation sampled at entry. A mismatch
                // means the watchdog evicted this processor mid-service —
                // the excusal already completed the round, and this late
                // ack must be rejected rather than touch any round state.
                if self.must_self_fence(ctx.shared.kernel(), me) {
                    let k = ctx.shared.kernel_mut();
                    k.stats.late_acks_rejected += 1;
                    self.begin_self_fence(k);
                    return Step::Run(ctx.costs().local_op + ctx.costs().cache_read);
                }
                // Acknowledge the next round naming this processor, one a
                // step: invalidate its ranges from the local TLB, then
                // decrement the counter the leader waits on.
                let found = {
                    let k = ctx.shared.kernel();
                    k.rounds
                        .iter()
                        .find(|r| r.pending.contains(me))
                        .map(|r| (r.id, r.pmap, r.ranges.clone()))
                };
                let Some((id, pmap, ranges)) = found else {
                    self.phase = RPhase::RoundStall;
                    return Step::Run(ctx.costs().local_op);
                };
                // A retired address space cannot re-cache anything, so
                // the post-unlock cleanup pass is unnecessary too.
                let retired = retire_address_space(ctx, pmap);
                let leave_cleanup = retired.is_some();
                let mut cost = retired.unwrap_or_else(|| {
                    ranges
                        .into_iter()
                        .map(|range| invalidate(ctx, pmap, range))
                        .sum()
                });
                let completed = {
                    let r = ctx
                        .shared
                        .kernel_mut()
                        .round_mut(Some(id))
                        .expect("round cannot vanish within a step");
                    let mut completed = false;
                    if r.pending.remove(me) {
                        r.remaining -= 1;
                        completed = r.remaining == 0;
                    }
                    if leave_cleanup && r.cleanup.remove(me) {
                        r.cleanup_remaining -= 1;
                    }
                    completed
                };
                if !leave_cleanup {
                    self.acked.push(id);
                }
                if completed {
                    // The acknowledgement that drives the count to zero
                    // wakes the leader — the round protocol's only
                    // notification, however many responders it spans.
                    ctx.notify(round_channel(pmap));
                }
                // The round descriptor's counter lives in the pmap's
                // home-node memory.
                let home = ctx.shared.kernel().pmaps.get(pmap).home();
                cost += ctx.bus_interlocked_at(home);
                crate::op::note_lock_ref(ctx, home);
                Step::Run(cost)
            }
            RPhase::RoundStall => {
                // Figure 1's responder stall, held against the rounds'
                // pmaps: spin until every acknowledged leader unlocks (and
                // its extras list is final).
                let (stalled, chans) = {
                    let k = ctx.shared.kernel();
                    let mut chans = Vec::new();
                    let mut stalled = false;
                    for &id in &self.acked {
                        if let Some(r) = k.round(Some(id)) {
                            if !r.unlocked {
                                stalled = true;
                                if let Some(c) = k.pmaps.get(r.pmap).lock().channel() {
                                    chans.push(c);
                                }
                            }
                        }
                    }
                    (stalled, chans)
                };
                if !stalled {
                    self.phase = RPhase::RoundCleanup;
                    return Step::Run(ctx.costs().local_op);
                }
                // A dead leader never unlocks; the watchdog deadline lets a
                // stolen (scrubbed) round be noticed.
                lock_wait(ctx, &chans)
            }
            RPhase::RoundCleanup => {
                let Some(&id) = self.acked.first() else {
                    // Every acknowledged round cleaned: continue with the
                    // ordinary queue drain (unicast-path work may also be
                    // pending).
                    self.phase = RPhase::Draining;
                    return Step::Run(ctx.costs().local_op);
                };
                let Some(i) = ctx.shared.kernel().round_index(Some(id)) else {
                    // Scrubbed by a lock stealer; nothing left to clean.
                    self.acked.remove(0);
                    return Step::Run(ctx.costs().local_op);
                };
                if !ctx.shared.kernel().rounds[i].unlocked {
                    // Another acknowledged round unlocked first: stall
                    // until this one does too.
                    self.phase = RPhase::RoundStall;
                    return Step::Run(ctx.costs().spin_check());
                }
                let (pmap, extras) = {
                    let r = &ctx.shared.kernel().rounds[i];
                    (r.pmap, r.extras.clone())
                };
                let mut cost = ctx.costs().local_op;
                for range in extras {
                    cost += invalidate(ctx, pmap, range);
                }
                {
                    let k = ctx.shared.kernel_mut();
                    let r = &mut k.rounds[i];
                    if r.cleanup.remove(me) {
                        r.cleanup_remaining -= 1;
                        if r.cleanup_remaining == 0 {
                            // Last responder out reclaims the round.
                            k.rounds.swap_remove(i);
                        }
                    }
                }
                self.acked.remove(0);
                let home = ctx.shared.kernel().pmaps.get(pmap).home();
                cost += ctx.bus_interlocked_at(home);
                crate::op::note_lock_ref(ctx, home);
                Step::Run(cost)
            }
            RPhase::Draining => {
                let drain = self.drain.as_mut().expect("drain set in Deactivate");
                match drain.step(ctx) {
                    DrainStatus::Running(step) => step,
                    DrainStatus::Finished(cost) => {
                        self.span = drain.span();
                        self.drain = None;
                        self.phase = RPhase::Reactivate;
                        Step::Run(cost)
                    }
                }
            }
            RPhase::Reactivate => {
                // A processor evicted mid-drain must not rejoin the active
                // set by the ordinary path: the fence's handshake is the
                // only sanctioned re-entry.
                if self.must_self_fence(ctx.shared.kernel(), me) {
                    self.begin_self_fence(ctx.shared.kernel_mut());
                    return Step::Run(ctx.costs().local_op);
                }
                // A round published while this processor was deactivated
                // names it neither pending nor cleanup; its only coverage
                // is the fallback queue action the leader enqueues before
                // unlocking. Hold the reactivation until every such round
                // unlocks — the Enter loop then finds the queued action
                // and drains it before user code resumes.
                if let Some(stall) = activation_gate(ctx, &mut self.gated) {
                    return stall;
                }
                ctx.shared.kernel_mut().active.insert(me);
                mark_rejoin(ctx, self.span.take());
                // Loop: a concurrent shootdown may have queued more work.
                self.phase = RPhase::Enter;
                Step::Run(ctx.costs().local_op + ctx.bus_write())
            }
            RPhase::SelfFence => {
                let fence = self.fence.as_mut().expect("fence set at detection");
                match crate::drive(fence, ctx) {
                    crate::Driven::Yield(s) => s,
                    crate::Driven::Finished(d) => {
                        self.fence = None;
                        // Loop: re-enter with a fresh generation sample so
                        // work queued behind the rejoin is serviced before
                        // the interrupt returns.
                        self.phase = RPhase::Enter;
                        Step::Run(d)
                    }
                }
            }
            RPhase::Exit => {
                let mut cost = ctx.costs().local_op;
                if ctx.shared.kernel_mut().config.instrumentation
                    && ctx.shared.kernel_mut().responder_sampled(me)
                {
                    let t0 = self.t_start.expect("Enter ran first");
                    ctx.shared
                        .kernel_mut()
                        .xpr
                        .record(ShootdownEvent::Responder(ResponderRecord {
                            at: t0,
                            cpu: me,
                            elapsed: ctx.now.duration_since(t0),
                        }));
                    cost += ctx.costs().local_op * 4;
                }
                Step::Done(cost)
            }
        }
    }

    fn label(&self) -> &'static str {
        "shootdown-responder"
    }
}

/// Marks `cpu` idle. Called by a dispatcher when it runs out of work; the
/// caller charges the (two bus writes of) cost and — because leaving the
/// active set can satisfy an initiator's wait — notifies
/// [`SYNC_CHANNEL`](crate::SYNC_CHANNEL) in the same step.
pub fn enter_idle(shared: &mut KernelState, cpu: machtlb_sim::CpuId) {
    shared.idle.insert(cpu);
    shared.active.remove(cpu);
}

/// The activation gate (see [`KernelState::activation_blocked_by_round`]):
/// while an open round holds this processor back, one stall step on the
/// lock channels of those rounds' pmaps, counting one
/// [`KernelStats::activation_stalls`](crate::KernelStats::activation_stalls)
/// per episode (`gated` tracks the episode). The caller re-runs its
/// activation step on wake, which re-checks the predicate; under health
/// monitoring a deadline bounds the wait so a scrubbed round (dead
/// leader, lock stolen) is noticed. `None` once the processor may
/// activate.
fn activation_gate<S: HasKernel>(ctx: &mut Ctx<'_, S, ()>, gated: &mut bool) -> Option<Step> {
    let me = ctx.cpu_id;
    if !ctx.shared.kernel().activation_blocked_by_round(me) {
        *gated = false;
        return None;
    }
    if !*gated {
        *gated = true;
        ctx.shared.kernel_mut().stats.activation_stalls += 1;
    }
    let chans: Vec<_> = {
        let k = ctx.shared.kernel();
        k.rounds_blocking(me)
            .filter_map(|r| k.pmaps.get(r.pmap).lock().channel())
            .collect()
    };
    Some(lock_wait(ctx, &chans))
}

/// Marks this processor's return to the active set on the span of the
/// shootdown whose work it just drained.
fn mark_rejoin<S: HasKernel>(ctx: &mut Ctx<'_, S, ()>, span: Option<SpanId>) {
    if let Some(span) = span {
        let (me, now) = (ctx.cpu_id, ctx.now);
        ctx.shared
            .kernel_mut()
            .trace
            .record(me, span, TracePhase::Rejoin, TraceEdge::Mark, now);
    }
}

#[derive(Debug)]
enum ExitPhase {
    MarkNotIdle,
    CheckActions,
    Draining,
    Activate,
}

/// The exit-idle protocol: "idle processors must check for queued
/// consistency actions and execute them before becoming active"
/// (Section 4). Ordering matters: the processor leaves the idle set
/// *first*, so an initiator that still saw it idle has already queued the
/// action this path will drain, and an initiator that sees it non-idle
/// sends an interrupt.
#[derive(Debug)]
pub struct ExitIdleProcess {
    phase: ExitPhase,
    drain: Option<DrainQueue>,
    /// As in [`ResponderProcess`]: the drained span, for the rejoin mark.
    span: Option<SpanId>,
    /// Whether the activation gate is currently holding this processor
    /// (counts one [`KernelStats::activation_stalls`] per episode).
    gated: bool,
}

impl ExitIdleProcess {
    /// Creates the exit-idle step sequence. The embedding dispatcher drives
    /// it to completion before running any thread.
    pub fn new() -> ExitIdleProcess {
        ExitIdleProcess {
            phase: ExitPhase::MarkNotIdle,
            drain: None,
            span: None,
            gated: false,
        }
    }
}

impl Default for ExitIdleProcess {
    fn default() -> ExitIdleProcess {
        ExitIdleProcess::new()
    }
}

impl<S: HasKernel> Process<S, ()> for ExitIdleProcess {
    fn step(&mut self, ctx: &mut Ctx<'_, S, ()>) -> Step {
        let me = ctx.cpu_id;
        match self.phase {
            ExitPhase::MarkNotIdle => {
                ctx.shared.kernel_mut().idle.remove(me);
                self.phase = ExitPhase::CheckActions;
                Step::Run(ctx.costs().local_op + ctx.bus_write())
            }
            ExitPhase::CheckActions => {
                if ctx.shared.kernel_mut().action_needed[me.index()] {
                    self.drain = Some(DrainQueue::new(true));
                    self.phase = ExitPhase::Draining;
                } else {
                    self.phase = ExitPhase::Activate;
                }
                Step::Run(ctx.costs().cache_read)
            }
            ExitPhase::Draining => {
                let drain = self.drain.as_mut().expect("drain set in CheckActions");
                match drain.step(ctx) {
                    DrainStatus::Running(step) => step,
                    DrainStatus::Finished(cost) => {
                        self.span = drain.span();
                        self.drain = None;
                        self.phase = ExitPhase::Activate;
                        Step::Run(cost)
                    }
                }
            }
            ExitPhase::Activate => {
                // Same gate as the responder's reactivation: an idle
                // processor is excluded from round target sets, and its
                // fallback queue action lands only after the leader's
                // apply. Exiting idle under an open round would let user
                // code run through entries the round invalidates, so hold
                // here until every such round unlocks.
                if let Some(stall) = activation_gate(ctx, &mut self.gated) {
                    return stall;
                }
                // The gate may have held across the leader's enqueue pass:
                // loop back and drain the action before activating, in the
                // same step as this check so no new round sneaks between.
                if ctx.shared.kernel_mut().action_needed[me.index()] {
                    self.phase = ExitPhase::CheckActions;
                    return Step::Run(ctx.costs().cache_read);
                }
                ctx.shared.kernel_mut().active.insert(me);
                mark_rejoin(ctx, self.span.take());
                Step::Done(ctx.costs().local_op + ctx.bus_write())
            }
        }
    }

    fn label(&self) -> &'static str {
        "exit-idle"
    }
}
