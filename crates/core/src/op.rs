//! The initiator: pmap operations executed under the configured
//! consistency strategy.
//!
//! [`PmapOpProcess`] is the paper's Figure 1 initiator as an explicit state
//! machine, including the refinements the pseudo-code encodes:
//!
//! - the initiator disables interrupts and **removes itself from the active
//!   set** before taking the pmap lock, breaking initiator/initiator
//!   deadlocks across different pmaps;
//! - the lazy-evaluation check skips the shootdown entirely when the pages
//!   concerned were never entered in the pmap;
//! - actions are queued for *every* processor using the pmap (including
//!   idle ones), but interrupts are sent — and synchronization performed —
//!   only for non-idle processors;
//! - a processor with a shootdown interrupt already in flight is not
//!   interrupted again (but is still synchronized with, which the paper's
//!   prose requires even though Figure 1's single `shoot_list` conflates
//!   the two sets);
//! - the wait condition is "the responder became inactive **or** stopped
//!   using the pmap".
//!
//! The same state machine also implements the alternative strategies of
//! [`Strategy`](crate::Strategy), which differ in the notification and
//! synchronization phases but share locking and application.
//!
//! With a fan-out of 2 or more the shootdown runs as a published round
//! instead of the paper's unicast path. The two paths keep their own send
//! and wait phases (`QueueScan`/`SendIpis`/`Wait` against
//! `PublishRound`/`MulticastSend`/`RoundWait`/`ApplyJoiners`/`RoundEnqueue`),
//! and share every per-target step: the watchdog's re-send and give-up
//! (`watchdog_expired`, evicting through `health::evict_and_wake`), the
//! residency-filter skip, the queue-action post, the page-table write,
//! the span marks, and the TLB invalidation (`responder::invalidate`).

use machtlb_pmap::{PageRange, Pfn, PmapId, PmapStats, Prot, Pte, Vpn};
use machtlb_sim::{BlockOn, CpuId, Ctx, Dur, IntrMask, Process, Step, Time, WaitChannel};
use machtlb_xpr::{InitiatorRecord, PmapKind, ShootdownEvent, SpanId, TraceEdge, TracePhase};

use crate::health::{evict_and_wake, reclaim_dead_locks, RecoveryPolicy};
use crate::queue::Action;
use crate::responder::invalidate;
use crate::state::{
    queue_lock_channel, round_channel, HasKernel, KernelState, ShootdownRound, WatchdogReport,
    SYNC_CHANNEL,
};
use crate::strategy::Strategy;
use crate::SHOOTDOWN_VECTOR;

/// Pages applied to the page table per simulation step while the pmap lock
/// is held (bounds event counts for large operations while keeping hold
/// times proportional to operation size).
const APPLY_CHUNK: usize = 16;

/// Counts a lock-word reference against the node whose memory holds the
/// word (`home`), and as remote traffic if the toucher sits elsewhere. On a
/// flat topology everything is node 0 and the remote branch never runs.
pub(crate) fn note_lock_ref<S: HasKernel>(ctx: &mut Ctx<'_, S, ()>, home: usize) {
    let node = ctx.node();
    let k = ctx.shared.kernel_mut();
    let home = home.min(k.node_stats.len() - 1);
    k.node_stats[home].lock_refs += 1;
    if node != home {
        k.stats.remote_lock_refs += 1;
        k.node_stats[node].remote_lock_refs += 1;
    }
}

/// One failed check of a spin on pmap locks: blocks on the lock channels
/// in `chans` (at most the first two are listened to), or steps when
/// there is none. Under health monitoring the wait also ends at the
/// watchdog timeout: a fail-stop holder never notifies, and the caller's
/// liveness probe must still run.
pub(crate) fn lock_wait<S: HasKernel>(ctx: &Ctx<'_, S, ()>, chans: &[WaitChannel]) -> Step {
    let spin = ctx.costs().spin_check();
    let block = match *chans {
        [] => return Step::Run(spin),
        [a] => BlockOn::one(a, spin),
        [a, b, ..] => BlockOn::two(a, b, spin),
    };
    let config = &ctx.shared.kernel().config;
    if config.health.enabled {
        Step::Block(block.with_deadline(ctx.now + config.watchdog.timeout))
    } else {
        Step::Block(block)
    }
}

/// Counts a shootdown IPI in the sender's per-node counters, and as remote
/// if the target lives on another node.
pub(crate) fn note_ipi<S: HasKernel>(ctx: &mut Ctx<'_, S, ()>, to: CpuId) {
    let from = ctx.node();
    let to = ctx.node_of(to);
    let k = ctx.shared.kernel_mut();
    k.node_stats[from].ipis_sent += 1;
    if from != to {
        k.stats.ipis_remote += 1;
        k.node_stats[from].ipis_remote += 1;
    }
}

/// Sends `to` a shootdown IPI and counts it, marking it pending so that
/// other initiators suppress their own sends.
fn send_shootdown_ipi<S: HasKernel>(ctx: &mut Ctx<'_, S, ()>, to: CpuId) {
    ctx.shared.kernel_mut().ipi_pending[to.index()] = true;
    ctx.send_ipi(to, SHOOTDOWN_VECTOR);
    ctx.shared.kernel_mut().stats.ipis_sent += 1;
    note_ipi(ctx, to);
}

/// The range `op` invalidates from TLBs: its own range, or for destroys
/// the whole space.
fn tlb_range(op: PmapOp) -> PageRange {
    op.range()
        .unwrap_or_else(|| PageRange::new(Vpn::new(0), machtlb_pmap::VPN_SPAN))
}

/// Counts `op` in its pmap's per-operation statistics.
fn count_op(stats: &mut PmapStats, op: PmapOp) {
    match op {
        PmapOp::Enter { .. } => stats.enters += 1,
        PmapOp::Remove { .. } => stats.removes += 1,
        PmapOp::Protect { .. } => stats.protects += 1,
        PmapOp::Destroy => stats.destroys += 1,
        PmapOp::ClearRefBits { .. } => stats.ref_clears += 1,
    }
}

/// Why a leader's lookup of its own round cannot fail: a round is removed
/// only after its leader unlocks, or by a thief that stole the leader's
/// lock, and a leader robbed that way restarts before its next lookup.
const LEADER_ROUND: &str = "the leader's round lives until it unlocks";

/// A machine-dependent physical-map operation.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum PmapOp {
    /// Enter (validate) a mapping. Never requires consistency actions:
    /// adding rights can at worst cause a spurious fault elsewhere.
    Enter {
        /// The page to map.
        vpn: Vpn,
        /// The frame to map it to.
        pfn: Pfn,
        /// The rights to grant.
        prot: Prot,
    },
    /// Invalidate every mapping in a range.
    Remove {
        /// The pages to unmap.
        range: PageRange,
    },
    /// Set the protection of every valid mapping in a range.
    Protect {
        /// The pages to reprotect.
        range: PageRange,
        /// The new rights.
        prot: Prot,
    },
    /// Invalidate every mapping in the pmap (pmap destruction).
    Destroy,
    /// Clear the referenced bits of every valid mapping in a range (the
    /// pageout daemon's aging pass). Removes no rights, so no shootdown:
    /// stale referenced bits in remote TLBs merely make pages look more
    /// recently used than they are — the same laziness real kernels
    /// accept.
    ClearRefBits {
        /// The pages to age.
        range: PageRange,
    },
}

impl PmapOp {
    /// Whether this operation *could* leave dangerous stale entries in a
    /// TLB, judged by operation type alone (the non-lazy check).
    pub fn may_reduce_rights(self) -> bool {
        match self {
            PmapOp::Enter { .. } | PmapOp::ClearRefBits { .. } => false,
            // A protect could be an upgrade, but without looking at the
            // page table the kernel must assume it reduces rights.
            PmapOp::Remove { .. } | PmapOp::Protect { .. } | PmapOp::Destroy => true,
        }
    }

    /// The page range the operation names, if it names one.
    pub fn range(self) -> Option<PageRange> {
        match self {
            PmapOp::Enter { vpn, .. } => Some(PageRange::single(vpn)),
            PmapOp::Remove { range }
            | PmapOp::Protect { range, .. }
            | PmapOp::ClearRefBits { range } => Some(range),
            PmapOp::Destroy => None,
        }
    }
}

#[derive(Debug)]
enum Phase {
    Begin,
    Lock,
    Check,
    LocalInvalidate,
    QueueScan { next: u32 },
    SendIpis { idx: usize },
    Wait { idx: usize },
    // Invalidate the page-table entries first, so a hardware reload
    // cannot re-cache the old mapping. HardwareRemoteInvalidate then
    // shoots the remote buffers directly; the residency-filtered
    // shootdown path uses the same barrier before consulting the
    // per-cpu possibly-cached sets (a fill racing the filter decision
    // either precedes this write and is visible in residency, or
    // follows it and loads an invalid entry).
    PreInvalidatePt { applied: usize },
    RemoteInvalidate { next: u32 },
    // Multicast-round mode (Shootdown strategy with fanout >= 2): publish
    // the round descriptor, post one tree-fanout IPI, and wait on the
    // acknowledgement counter instead of walking per-responder queues.
    PublishRound,
    MulticastSend,
    RoundWait,
    // Leader-side application of batched co-initiators' operations, one
    // joiner a step (round mode, after the leader's own Apply).
    ApplyJoiners { idx: usize },
    // Post-sync queue actions for pmap users outside the round's
    // acknowledgement set: idle processors and concurrent initiators,
    // exactly the processors the seed queue scan covers without waiting.
    RoundEnqueue { idx: usize },
    // This operation merged into another initiator's open round; wait for
    // the leader to apply it and report back.
    Joined,
    Apply,
    Unlock,
}

/// The outcome the operation left behind, for the caller (readable after
/// the process completes if the caller retains the process).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct OpOutcome {
    /// Pages whose page-table entries changed.
    pub pages_changed: u64,
    /// Whether consistency actions were required.
    pub shootdown: bool,
    /// Processors sent a shootdown interrupt.
    pub processors_shot: u32,
    /// Set when the operation aborted because the pmap lock was held by a
    /// fail-stop halted processor under [`RecoveryPolicy::FailOp`]: the
    /// decoded dead-holder error, for the caller to act on.
    pub dead_lock_holder: Option<CpuId>,
    /// Whether this operation merged into another initiator's multicast
    /// round (batched initiators): the leader applied it and this process
    /// only waited for the result.
    pub joined: bool,
}

/// The initiator state machine. See the module docs.
#[derive(Debug)]
pub struct PmapOpProcess {
    pmap_id: PmapId,
    op: PmapOp,
    phase: Phase,
    saved_mask: Option<IntrMask>,
    t_start: Option<Time>,
    t_sync_done: Option<Time>,
    /// Processors to synchronize with (non-idle users of the pmap).
    wait_list: Vec<CpuId>,
    /// Processors to actually interrupt (wait_list minus already-pending).
    send_list: Vec<CpuId>,
    needed: bool,
    /// Planned page-table changes: (page, new entry).
    changes: Vec<(Vpn, Pte)>,
    /// Changes whose consistency commit is deferred to the flush epoch
    /// (timer-delayed strategy only).
    deferred: Vec<(Vpn, Pte)>,
    changes_planned: bool,
    applied: usize,
    outcome: OpOutcome,
    /// The queue lock this process blocked on, so the wakeup's
    /// backfilled spin iterations are charged to the right lock even if
    /// the pmap's user set changed while it slept.
    spun_on_queue: Option<CpuId>,
    /// When the watchdog next fires for the responder currently waited on
    /// (armed on the first pending check, pushed out by each retry).
    wait_deadline: Option<Time>,
    /// IPIs re-sent to the responder currently waited on.
    wait_retries: u32,
    /// This operation's flight-recorder span (allocated lazily, once the
    /// operation turns out to need consistency actions).
    span: Option<SpanId>,
    /// The trace phase currently open on the initiator's track.
    open: Option<TracePhase>,
    /// The pmap lock shards this operation's range maps to (ascending;
    /// `[0]` on an unsharded pmap — the seed whole-pmap lock).
    shards_needed: Vec<usize>,
    /// How many of `shards_needed` are currently held (a prefix).
    shards_held: usize,
    /// Each held shard's steal generation, sampled at acquisition
    /// (parallel to the held prefix of `shards_needed`). Steals only
    /// target fail-stop holders, so a later mismatch means this processor
    /// was halted mid-section, fence-and-steal reclaimed the shard, and
    /// it has since revived: its claim is gone and the operation must
    /// restart instead of touching state it no longer owns — or releasing
    /// a lock the thief now holds.
    shard_gens: Vec<u64>,
    /// The multicast round this operation leads — or, in
    /// [`Phase::Joined`], the round it merged into.
    round_id: Option<u64>,
    /// Round mode: the post-sync queue-action targets (pmap users outside
    /// the acknowledgement set), computed once entering
    /// [`Phase::RoundEnqueue`].
    fallback_list: Vec<CpuId>,
    fallback_built: bool,
    /// The ranges those fallback queue actions must cover: the operation's
    /// own invalidation range plus every rights-reducing joiner's.
    fallback_ranges: Vec<PageRange>,
    /// Per-joiner pages-changed counts, published to
    /// [`KernelState::join_results`] in the unlock step.
    joiner_pages: Vec<(CpuId, u64)>,
    /// The leader's own pages-changed count, snapshotted before joiner
    /// changes are appended to `changes`.
    own_pages: Option<u64>,
    /// Set once [`Phase::PreInvalidatePt`] has written the planned
    /// entries invalid on the residency-filtered shootdown path: the
    /// license to consult the possibly-cached sets and skip targets.
    pre_invalidated: bool,
}

impl PmapOpProcess {
    /// Creates an initiator for `op` on `pmap_id`.
    pub fn new(pmap_id: PmapId, op: PmapOp) -> PmapOpProcess {
        PmapOpProcess {
            pmap_id,
            op,
            phase: Phase::Begin,
            saved_mask: None,
            t_start: None,
            t_sync_done: None,
            wait_list: Vec::new(),
            send_list: Vec::new(),
            needed: false,
            changes: Vec::new(),
            deferred: Vec::new(),
            changes_planned: false,
            applied: 0,
            outcome: OpOutcome::default(),
            spun_on_queue: None,
            wait_deadline: None,
            wait_retries: 0,
            span: None,
            open: None,
            shards_needed: Vec::new(),
            shards_held: 0,
            shard_gens: Vec::new(),
            round_id: None,
            fallback_list: Vec::new(),
            fallback_built: false,
            fallback_ranges: Vec::new(),
            joiner_pages: Vec::new(),
            own_pages: None,
            pre_invalidated: false,
        }
    }

    /// The operation being executed.
    pub fn op(&self) -> PmapOp {
        self.op
    }

    /// The outcome (meaningful once the process has completed).
    pub fn outcome(&self) -> OpOutcome {
        self.outcome
    }

    /// Whether the configured strategy requires the active-set handshake.
    fn strategy(&self, shared: &KernelState) -> Strategy {
        shared.config.strategy
    }

    /// Decides whether consistency actions are required, mirroring the
    /// "check for potential inconsistencies" with and without the lazy
    /// valid-mapping check.
    fn consistency_needed(&self, shared: &KernelState) -> bool {
        if !self.op.may_reduce_rights() {
            return false;
        }
        if !shared.config.lazy_eval {
            return true;
        }
        let table = shared.pmaps.get(self.pmap_id).table();
        match self.op {
            PmapOp::Enter { .. } | PmapOp::ClearRefBits { .. } => false,
            PmapOp::Remove { range } => table.any_valid_in(range),
            PmapOp::Destroy => table.valid_count() > 0,
            PmapOp::Protect { range, prot } => table
                .valid_in(range)
                .any(|(_, pte)| prot.is_downgrade_from(pte.prot)),
        }
    }

    /// Plans the page-table changes an operation implies against the
    /// current table (also used by the round leader for batched joiners'
    /// operations).
    fn plan_for(op: PmapOp, table: &machtlb_pmap::PageTable) -> Vec<(Vpn, Pte)> {
        match op {
            PmapOp::Enter { vpn, pfn, prot } => vec![(vpn, Pte::valid(pfn, prot))],
            PmapOp::Remove { range } => table
                .valid_in(range)
                .map(|(vpn, _)| (vpn, Pte::INVALID))
                .collect(),
            PmapOp::Protect { range, prot } => table
                .valid_in(range)
                .filter(|(_, pte)| pte.prot != prot)
                .map(|(vpn, mut pte)| {
                    pte.prot = prot;
                    (vpn, pte)
                })
                .collect(),
            PmapOp::Destroy => table
                .valid_in(PageRange::new(Vpn::new(0), machtlb_pmap::VPN_SPAN))
                .map(|(vpn, _)| (vpn, Pte::INVALID))
                .collect(),
            PmapOp::ClearRefBits { range } => table
                .valid_in(range)
                .filter(|(_, pte)| pte.referenced)
                .map(|(vpn, mut pte)| {
                    pte.referenced = false;
                    (vpn, pte)
                })
                .collect(),
        }
    }

    /// Plans this operation's page-table changes (computed once, under the
    /// lock).
    fn plan_changes(&mut self, shared: &KernelState) {
        if self.changes_planned {
            return;
        }
        self.changes_planned = true;
        self.changes = Self::plan_for(self.op, shared.pmaps.get(self.pmap_id).table());
    }

    /// Records the initiator xpr event.
    fn record_event<S: HasKernel>(&self, ctx: &mut Ctx<'_, S, ()>) -> Dur {
        if !ctx.shared.kernel_mut().config.instrumentation {
            return Dur::ZERO;
        }
        let (Some(t0), Some(t1)) = (self.t_start, self.t_sync_done) else {
            return Dur::ZERO;
        };
        let record = InitiatorRecord {
            at: t0,
            cpu: ctx.cpu_id,
            kind: if self.pmap_id.is_kernel() {
                PmapKind::Kernel
            } else {
                PmapKind::User
            },
            // "Number of Mach VM pages involved in the shootdown": the
            // operation's range (destroys report the mappings dropped).
            pages: self
                .op
                .range()
                .map(machtlb_pmap::PageRange::count)
                .unwrap_or(self.changes.len() as u64)
                .max(1),
            processors: self.send_list.len() as u32,
            elapsed: t1.duration_since(t0),
        };
        ctx.shared
            .kernel_mut()
            .xpr
            .record(ShootdownEvent::Initiator(record));
        // Gathering the arguments and calling the xpr package costs a few
        // instructions (the Section 6.1 perturbation).
        ctx.costs().local_op * 4
    }

    /// Allocates this operation's flight-recorder span on first use and
    /// opens `first` as the current phase. The Initiate slice is recorded
    /// retroactively over `[t_start, now]`: safe, because the initiator
    /// has had interrupts blocked since [`Phase::Begin`], so nothing else
    /// recorded on this processor's track in between.
    fn trace_begin_span<S: HasKernel>(&mut self, ctx: &mut Ctx<'_, S, ()>, first: TracePhase) {
        if self.span.is_some() || !ctx.shared.kernel().trace.is_enabled() {
            return;
        }
        let me = ctx.cpu_id;
        let now = ctx.now;
        let t0 = self.t_start.unwrap_or(now);
        let k = ctx.shared.kernel_mut();
        let span = k.trace.begin_span();
        k.trace
            .record(me, span, TracePhase::Initiate, TraceEdge::Begin, t0);
        k.trace
            .record(me, span, TracePhase::Initiate, TraceEdge::End, now);
        k.trace.record(me, span, first, TraceEdge::Begin, now);
        self.span = Some(span);
        self.open = Some(first);
    }

    /// Moves the initiator's track to `phase`: closes the open slice and
    /// begins the new one at the current instant. A no-op without a span
    /// (tracing off, or no consistency actions needed) or when `phase`
    /// is already open.
    fn trace_enter<S: HasKernel>(&mut self, ctx: &mut Ctx<'_, S, ()>, phase: TracePhase) {
        let Some(span) = self.span else { return };
        if self.open == Some(phase) {
            return;
        }
        let me = ctx.cpu_id;
        let now = ctx.now;
        let k = ctx.shared.kernel_mut();
        if let Some(open) = self.open.take() {
            k.trace.record(me, span, open, TraceEdge::End, now);
        }
        k.trace.record(me, span, phase, TraceEdge::Begin, now);
        self.open = Some(phase);
    }

    /// A synchronization wait outlived the armed deadline with `targets`
    /// still pending: the responder a unicast wait is on, or a round's
    /// live stragglers. While retries remain, re-send each a unicast
    /// shootdown IPI — the original, or its multicast relay, may have been
    /// lost — and push the deadline out by the backed-off timeout. Once
    /// exhausted, file a [`WatchdogReport`] per target and, with health
    /// tracking, evict it, so this and every other initiator completes
    /// against the reduced quorum; without, excuse it from this
    /// operation's round (a unicast wait just moves on to the next
    /// responder). Degrading beats hanging, and a skipped responder's
    /// stale TLB is the checker's to catch.
    fn watchdog_expired<S: HasKernel>(
        &mut self,
        ctx: &mut Ctx<'_, S, ()>,
        targets: &[CpuId],
        wd: crate::state::WatchdogConfig,
    ) -> Step {
        let me = ctx.cpu_id;
        let now = ctx.now;
        if self.wait_retries < wd.max_retries {
            self.wait_retries += 1;
            // timeout, then timeout*backoff, then timeout*backoff^2, ...
            self.wait_deadline = Some(now + wd.retry_timeout(self.wait_retries));
            let mut cost = Dur::ZERO;
            for &cpu in targets {
                // Re-send regardless of ipi_pending: the flag still set is
                // exactly the symptom of a lost delivery. Keep it set so
                // healthy initiators continue to suppress their own sends.
                send_shootdown_ipi(ctx, cpu);
                ctx.shared.kernel_mut().stats.ipi_retries += 1;
                self.mark(ctx, TracePhase::Retry, cpu.index() as u32);
                cost += ctx.costs().ipi_send;
            }
            return Step::Run(cost);
        }
        let health = ctx.shared.kernel().config.health;
        let retries = self.wait_retries;
        let mut cost = ctx.costs().local_op;
        for &cpu in targets {
            let k = ctx.shared.kernel_mut();
            k.stats.watchdog_gaveup += 1;
            k.watchdog_reports.push(WatchdogReport {
                at: now,
                initiator: me,
                target: cpu,
                retries,
            });
            if health.enabled {
                // The responder is declared fail-stop dead.
                cost += evict_and_wake(ctx, cpu);
                self.mark(ctx, TracePhase::Evict, cpu.index() as u32);
            } else if let Some(r) = k.round_mut(self.round_id) {
                // Skip the straggler exactly as the unicast wait would:
                // excuse it and let Phase::RoundEnqueue hand it a
                // fallback queue action.
                r.excuse(cpu);
                k.stats.round_excused += 1;
            }
        }
        self.wait_deadline = None;
        self.wait_retries = 0;
        if let Phase::Wait { idx } = self.phase {
            self.phase = Phase::Wait { idx: idx + 1 };
        }
        Step::Run(cost)
    }

    /// Records a `phase` mark carrying `arg` (a processor index, or a
    /// target count) on this operation's span, if it has one.
    fn mark<S: HasKernel>(&self, ctx: &mut Ctx<'_, S, ()>, phase: TracePhase, arg: u32) {
        if let Some(span) = self.span {
            let (me, now) = (ctx.cpu_id, ctx.now);
            ctx.shared
                .kernel_mut()
                .trace
                .record_arg(me, span, phase, TraceEdge::Mark, now, arg);
        }
    }
}

impl<S: HasKernel> Process<S, ()> for PmapOpProcess {
    fn step(&mut self, ctx: &mut Ctx<'_, S, ()>) -> Step {
        let me = ctx.cpu_id;
        // Steal-generation check, before anything else: if a shard this
        // processor believes it holds was fenced away while it was
        // fail-stopped (offline, then revived), every staged decision is
        // stale and the locks belong to someone else — restart the
        // operation instead of continuing the critical section.
        if self.shards_held > 0 && self.robbed(ctx.shared.kernel()) {
            return self.restart_robbed(ctx);
        }
        match self.phase {
            Phase::Begin => {
                // s = disable_interrupts(); active[mycpu] = FALSE;
                self.saved_mask = Some(ctx.set_mask(IntrMask::ALL_BLOCKED));
                self.t_start = Some(ctx.now);
                self.shards_needed = ctx
                    .shared
                    .kernel()
                    .pmaps
                    .get(self.pmap_id)
                    .shards_for(self.op.range());
                let strategy = self.strategy(ctx.shared.kernel());
                let mut cost = ctx.costs().local_op;
                if strategy.uses_interrupts() {
                    ctx.shared.kernel_mut().active.remove(me);
                    ctx.notify(SYNC_CHANNEL);
                    cost += ctx.bus_write();
                }
                self.phase = Phase::Lock;
                Step::Run(cost)
            }
            Phase::Lock => {
                let woken = ctx.woken_spins();
                let health = ctx.shared.kernel().config.health;
                // Shards are taken in ascending order (a prefix of
                // `shards_needed`), so concurrent multi-shard operations
                // cannot deadlock against each other.
                let shard = self.shards_needed[self.shards_held];
                let (acquired, holder, chan, gen) = {
                    let lock = ctx
                        .shared
                        .kernel_mut()
                        .pmaps
                        .get_mut(self.pmap_id)
                        .shard_mut(shard);
                    lock.charge_spins(woken);
                    (
                        lock.try_acquire(me),
                        lock.holder(),
                        lock.channel(),
                        lock.steal_gen(),
                    )
                };
                if acquired {
                    return self.took_shard(ctx, gen, Dur::ZERO);
                }
                // Contended: probe the holder's liveness before waiting. A
                // fail-stop holder will never release; recover per policy
                // instead of spinning on a dead processor forever.
                if let Some(h) = holder.filter(|&h| health.enabled && ctx.is_cpu_halted(h)) {
                    let probe = ctx.bus_read();
                    match health.policy {
                        RecoveryPolicy::FenceAndSteal => {
                            // Sound for the pmap lock: the dead holder's
                            // critical section only staged page-table and
                            // TLB updates this operation recomputes from
                            // scratch under the stolen lock.
                            let k = ctx.shared.kernel_mut();
                            let lock = k.pmaps.get_mut(self.pmap_id).shard_mut(shard);
                            lock.steal(h, me);
                            // Sample *after* our own steal so our own bump
                            // does not read back as a robbery.
                            let gen = lock.steal_gen();
                            k.stats.locks_stolen += 1;
                            // A dead leader's published round will never be
                            // completed or reclaimed: scrub it, so stalled
                            // responders find nothing and its joiners (woken
                            // by their watchdog deadline) retry the lock.
                            k.rounds
                                .retain(|r| !(r.pmap == self.pmap_id && r.initiator == h));
                            return self.took_shard(ctx, gen, probe);
                        }
                        RecoveryPolicy::FailOp => {
                            self.outcome.dead_lock_holder = Some(h);
                            let strategy = self.strategy(ctx.shared.kernel());
                            let mut cost = ctx.costs().local_op + probe;
                            // Release any shards already taken before
                            // aborting (none on an unsharded pmap: the seed
                            // path).
                            if self.shards_held > 0 {
                                let pmap = ctx.shared.kernel_mut().pmaps.get_mut(self.pmap_id);
                                for i in 0..self.shards_held {
                                    let s = self.shards_needed[i];
                                    pmap.shard_mut(s).release(me);
                                }
                                let chan = pmap.lock().channel();
                                let home = pmap.home();
                                self.shards_held = 0;
                                self.shard_gens.clear();
                                if let Some(chan) = chan {
                                    ctx.notify(chan);
                                }
                                cost += ctx.costs().lock_release + ctx.bus_write_at(home);
                            }
                            if strategy.uses_interrupts() {
                                // Undo Phase::Begin: rejoin the active set
                                // before aborting.
                                ctx.shared.kernel_mut().active.insert(me);
                                ctx.notify(SYNC_CHANNEL);
                                cost += ctx.bus_write();
                            }
                            if let Some(mask) = self.saved_mask.take() {
                                ctx.set_mask(mask);
                            }
                            return Step::Done(cost);
                        }
                    }
                }
                // Batched initiators: a second same-pmap operation arriving
                // while a multicast round is open merges into it instead of
                // serializing behind the lock — one IPI round serves both.
                let joinable = {
                    let k = ctx.shared.kernel();
                    if k.config.batch_initiators
                        && k.config.fanout >= 2
                        && k.config.strategy == Strategy::Shootdown
                    {
                        k.rounds.iter().position(|r| {
                            r.pmap == self.pmap_id
                                && !r.frozen
                                && self.shards_needed.iter().all(|s| r.shards.contains(s))
                        })
                    } else {
                        None
                    }
                };
                let joinable = joinable.filter(|&i| {
                    let leader = ctx.shared.kernel().rounds[i].initiator;
                    !(health.enabled && ctx.is_cpu_halted(leader))
                });
                if let Some(i) = joinable {
                    debug_assert_eq!(
                        self.shards_held, 0,
                        "a joiner holding shards would deadlock its leader"
                    );
                    let op = self.op;
                    let k = ctx.shared.kernel_mut();
                    k.join_results[me.index()] = None;
                    let r = &mut k.rounds[i];
                    r.joiners.push((me, op));
                    self.round_id = Some(r.id);
                    k.stats.initiators_batched += 1;
                    self.phase = Phase::Joined;
                    // Wait for the leader's unlock, which publishes the
                    // result and notifies the pmap lock channel.
                    let jchan = ctx.shared.kernel().pmaps.get(self.pmap_id).lock().channel();
                    return lock_wait(ctx, jchan.as_slice());
                }
                lock_wait(ctx, chan.as_slice())
            }
            Phase::Check => {
                self.needed = self.consistency_needed(ctx.shared.kernel());
                ctx.shared.kernel_mut().stats.pmap_ops += 1;
                if !self.needed {
                    if self.op.may_reduce_rights() && ctx.shared.kernel_mut().config.lazy_eval {
                        ctx.shared.kernel_mut().stats.lazy_skips += 1;
                    }
                    self.phase = Phase::Apply;
                } else if ctx
                    .shared
                    .kernel_mut()
                    .pmaps
                    .get(self.pmap_id)
                    .in_use()
                    .contains(me)
                {
                    self.phase = Phase::LocalInvalidate;
                } else {
                    self.phase = self.after_local_phase(ctx.shared.kernel(), me);
                }
                // "approximately 2 instructions per check"
                Step::Run(ctx.costs().local_op * 2)
            }
            Phase::LocalInvalidate => {
                let cost = invalidate(ctx, self.pmap_id, tlb_range(self.op));
                self.phase = self.after_local_phase(ctx.shared.kernel(), me);
                Step::Run(cost)
            }
            Phase::QueueScan { next } => {
                self.trace_begin_span(ctx, TracePhase::QueueActions);
                self.charge_queue_spins(ctx);
                let Some(cpu) = self.next_user(ctx.shared.kernel(), me, next) else {
                    self.phase = if self.wait_list.is_empty() {
                        // Nothing to interrupt or wait for (all users
                        // idle): proceed straight to the update.
                        Phase::Apply
                    } else {
                        Phase::SendIpis { idx: 0 }
                    };
                    return Step::Run(ctx.costs().local_op);
                };
                // Residency filter: the page-table entries are already
                // invalid (Phase::PreInvalidatePt), so a target whose
                // possibly-cached set excludes the whole range holds no
                // stale translation and cannot acquire one — skip its
                // queue action, IPI, and synchronization entirely.
                if self.filtered_out(ctx.shared.kernel(), cpu, &[tlb_range(self.op)]) {
                    self.note_filtered(ctx, cpu);
                    self.phase = Phase::QueueScan {
                        next: cpu.index() as u32 + 1,
                    };
                    return Step::Run(ctx.costs().cache_read);
                }
                let Some(cost) = self.post_actions(ctx, cpu, &[tlb_range(self.op)]) else {
                    return self.block_on_queue(ctx, cpu);
                };
                self.outcome.shootdown = true;
                // Idle processors get queued actions but no interrupt and
                // no synchronization.
                if !ctx.shared.kernel_mut().idle.contains(cpu) {
                    self.wait_list.push(cpu);
                    if !ctx.shared.kernel_mut().ipi_pending[cpu.index()] {
                        ctx.shared.kernel_mut().ipi_pending[cpu.index()] = true;
                        self.send_list.push(cpu);
                    }
                }
                self.phase = Phase::QueueScan {
                    next: cpu.index() as u32 + 1,
                };
                Step::Run(cost)
            }
            Phase::SendIpis { idx } => {
                self.trace_enter(ctx, TracePhase::IpiSend);
                let strategy = self.strategy(ctx.shared.kernel());
                if strategy == Strategy::BroadcastIpi {
                    // One poke interrupts every other processor.
                    ctx.broadcast_ipi(SHOOTDOWN_VECTOR);
                    ctx.shared.kernel_mut().stats.ipis_sent += ctx.n_cpus() as u64 - 1;
                    for c in 0..ctx.shared.kernel_mut().n_cpus {
                        if c != me.index() {
                            ctx.shared.kernel_mut().ipi_pending[c] = true;
                            note_ipi(ctx, CpuId::new(c as u32));
                            self.mark(ctx, TracePhase::IpiSend, c as u32);
                        }
                    }
                    self.phase = Phase::Wait { idx: 0 };
                    return Step::Run(ctx.costs().ipi_broadcast);
                }
                let Some(&target) = self.send_list.get(idx) else {
                    self.phase = Phase::Wait { idx: 0 };
                    return Step::Run(ctx.costs().local_op);
                };
                ctx.send_ipi(target, SHOOTDOWN_VECTOR);
                ctx.shared.kernel_mut().stats.ipis_sent += 1;
                note_ipi(ctx, target);
                self.mark(ctx, TracePhase::IpiSend, target.index() as u32);
                self.phase = Phase::SendIpis { idx: idx + 1 };
                Step::Run(ctx.costs().ipi_send)
            }
            Phase::Wait { idx } => {
                self.trace_enter(ctx, TracePhase::SyncWait);
                let Some(&cpu) = self.wait_list.get(idx) else {
                    self.t_sync_done = Some(ctx.now);
                    self.phase = Phase::Apply;
                    return Step::Run(ctx.costs().local_op);
                };
                let strategy = self.strategy(ctx.shared.kernel());
                let still_using = ctx
                    .shared
                    .kernel_mut()
                    .pmaps
                    .get(self.pmap_id)
                    .in_use()
                    .contains(cpu);
                let pending = if strategy.responders_stall() {
                    // Spin while the responder is active and still using
                    // the pmap.
                    ctx.shared.kernel_mut().active.contains(cpu) && still_using
                } else {
                    // No-stall responders: wait only until the queued
                    // actions have been consumed. A processor that left
                    // the active set (a concurrent initiator) is skipped
                    // exactly as in the stalling variant: it acts on its
                    // queue before touching user memory again.
                    ctx.shared.kernel_mut().action_needed[cpu.index()]
                        && still_using
                        && ctx.shared.kernel_mut().active.contains(cpu)
                };
                if pending {
                    // Every write that can clear the condition (leaving the
                    // active set, clearing an action-needed flag, dropping
                    // a pmap from a user set) notifies the sync channel.
                    let block = BlockOn::one(SYNC_CHANNEL, ctx.costs().spin_check());
                    let wd = ctx.shared.kernel().config.watchdog;
                    if !wd.enabled {
                        return Step::Block(block);
                    }
                    let now = ctx.now;
                    let deadline = *self.wait_deadline.get_or_insert(now + wd.timeout);
                    if now >= deadline {
                        return self.watchdog_expired(ctx, &[cpu], wd);
                    }
                    // Also wake spuriously at the deadline so the expiry
                    // check above runs on time.
                    Step::Block(block.with_deadline(deadline))
                } else {
                    self.wait_deadline = None;
                    self.wait_retries = 0;
                    self.phase = Phase::Wait { idx: idx + 1 };
                    Step::Run(ctx.costs().local_op)
                }
            }
            Phase::PreInvalidatePt { applied } => {
                self.trace_begin_span(ctx, TracePhase::PmapUpdate);
                // Write the page-table entries invalid before touching the
                // remote buffers: a concurrent hardware reload then loads
                // an invalid entry (a spurious fault the paper calls
                // "minor overhead") instead of re-caching the old mapping.
                self.plan_changes(ctx.shared.kernel());
                let remaining = self.changes.len() - applied;
                if remaining == 0 {
                    self.phase = match self.strategy(ctx.shared.kernel()) {
                        Strategy::HardwareRemoteInvalidate => Phase::RemoteInvalidate { next: 0 },
                        _ => {
                            // Residency-filtered shootdown: the barrier is
                            // in place, so the scan (or round) below may
                            // skip any target whose possibly-cached set
                            // excludes the whole invalidation range. The
                            // protocol ran even if every target filters
                            // out, so this counts as a shootdown.
                            self.pre_invalidated = true;
                            self.outcome.shootdown = true;
                            if ctx.shared.kernel().config.fanout >= 2 {
                                Phase::PublishRound
                            } else {
                                Phase::QueueScan { next: 0 }
                            }
                        }
                    };
                    return Step::Run(ctx.costs().local_op);
                }
                let chunk = remaining.min(APPLY_CHUNK);
                let mut cost = Dur::ZERO;
                for i in 0..chunk {
                    let (vpn, _) = self.changes[applied + i];
                    cost += self.write_pte(ctx, vpn, Pte::INVALID);
                }
                self.phase = Phase::PreInvalidatePt {
                    applied: applied + chunk,
                };
                Step::Run(cost)
            }
            Phase::RemoteInvalidate { next } => {
                self.trace_enter(ctx, TracePhase::RemoteInvalidate);
                // Section 9: "the initiator can shoot the entries directly
                // out of the responders' TLBs without involving the
                // responders." Each remote entry invalidation is a bus
                // transaction.
                let Some(cpu) = self.next_user(ctx.shared.kernel(), me, next) else {
                    self.t_sync_done = Some(ctx.now);
                    self.outcome.shootdown = true;
                    self.phase = Phase::Apply;
                    return Step::Run(ctx.costs().local_op);
                };
                let range = tlb_range(self.op);
                let single = ctx.costs().tlb_invalidate_single;
                let bus = ctx.bus_write();
                let n =
                    ctx.shared.kernel_mut().tlbs[cpu.index()].invalidate_range(self.pmap_id, range);
                self.send_list.push(cpu); // counted as "processors shot"
                self.phase = Phase::RemoteInvalidate {
                    next: cpu.index() as u32 + 1,
                };
                Step::Run(single * n.max(1) + bus)
            }
            Phase::PublishRound => {
                self.trace_begin_span(ctx, TracePhase::QueueActions);
                // The acknowledgement set: every other active, non-idle
                // user of the pmap — exactly the processors the seed scan
                // would wait on. Idle users and concurrent initiators get
                // queue actions after the sync (Phase::RoundEnqueue).
                let (mut targets, words) = {
                    let k = ctx.shared.kernel();
                    let mut users = k.pmaps.get(self.pmap_id).in_use().clone();
                    users.remove(me);
                    let words = users.word_count() as u32;
                    (users.intersection(&k.active).difference(&k.idle), words)
                };
                let range = tlb_range(self.op);
                // Residency filter (see Phase::QueueScan): drop targets
                // that cannot hold the translation from the round's
                // acknowledgement set before it is published. A dropped
                // target also leaves the cleanup set, so Phase::RoundEnqueue
                // re-checks it against the final fallback ranges.
                let mut filter_cost = Dur::ZERO;
                if self.pre_invalidated {
                    let dropped: Vec<CpuId> = targets
                        .iter()
                        .filter(|&c| self.filtered_out(ctx.shared.kernel(), c, &[range]))
                        .collect();
                    filter_cost = ctx.costs().cache_read * targets.len() as u64;
                    for c in dropped {
                        targets.remove(c);
                        self.note_filtered(ctx, c);
                    }
                }
                let shards = self.shards_needed.clone();
                let n = targets.len() as u64;
                let k = ctx.shared.kernel_mut();
                k.next_round_id += 1;
                let id = k.next_round_id;
                k.rounds.push(ShootdownRound {
                    id,
                    pmap: self.pmap_id,
                    initiator: me,
                    ranges: vec![range],
                    extras: Vec::new(),
                    pending: targets.clone(),
                    remaining: n,
                    cleanup: targets.clone(),
                    cleanup_remaining: n,
                    frozen: false,
                    unlocked: false,
                    shards,
                    joiners: Vec::new(),
                });
                k.stats.multicast_rounds += 1;
                self.round_id = Some(id);
                self.outcome.shootdown = true;
                let join_chan = if k.config.batch_initiators {
                    // Wake initiators parked on the pmap lock: the round
                    // just opened is joinable, and nothing else notifies
                    // the lock channel before the unlock.
                    k.pmaps.get(self.pmap_id).lock().channel()
                } else {
                    None
                };
                if let Some(span) = self.span {
                    // Link every target's eventual responder work back to
                    // this shootdown, as the queue scan does per enqueue.
                    for c in targets.iter() {
                        k.trace.set_pending(c, span);
                    }
                }
                self.phase = Phase::MulticastSend;
                if let Some(chan) = join_chan {
                    ctx.notify(chan);
                }
                // Three whole-set reads form the target set; the descriptor
                // itself is one composite write of queue-action size; the
                // residency consults cost one read per candidate target.
                let cost = ctx.costs().cache_read * (3 * words as u64)
                    + ctx.costs().queue_action
                    + ctx.bus_write()
                    + filter_cost;
                Step::Run(cost)
            }
            Phase::MulticastSend => {
                self.trace_enter(ctx, TracePhase::IpiSend);
                // Skip targets with a shootdown IPI already in flight: the
                // pending interrupt's service routine sees the round and
                // acknowledges it, so a second delivery is redundant.
                let mut send: Vec<CpuId> = {
                    let k = ctx.shared.kernel();
                    self.round(k)
                        .pending
                        .iter()
                        .filter(|c| !k.ipi_pending[c.index()])
                        .collect()
                };
                self.phase = Phase::RoundWait;
                if send.is_empty() {
                    return Step::Run(ctx.costs().local_op);
                }
                // Same-node targets go first in the fanout tree, so relays
                // prefer same-node children and cross-node hops cluster at
                // the tree's fringe. On a flat topology this is the plain
                // ascending order the pre-topology kernel used.
                ctx.topology().order_node_first(me, &mut send);
                for &c in &send {
                    ctx.shared.kernel_mut().ipi_pending[c.index()] = true;
                    note_ipi(ctx, c);
                }
                let degree = ctx.shared.kernel().config.fanout;
                let n = send.len();
                ctx.multicast_ipi(send.clone(), SHOOTDOWN_VECTOR, degree);
                ctx.shared.kernel_mut().stats.ipis_sent += n as u64;
                self.send_list.extend(send);
                self.mark(ctx, TracePhase::IpiSend, n as u32);
                // One descriptor post, regardless of the target count: the
                // relay tree does the rest off this processor.
                Step::Run(ctx.costs().ipi_send)
            }
            Phase::RoundWait => {
                self.trace_enter(ctx, TracePhase::SyncWait);
                let now = ctx.now;
                let (ridx, remaining) = {
                    let k = ctx.shared.kernel();
                    let i = k.round_index(self.round_id).expect(LEADER_ROUND);
                    (i, k.rounds[i].remaining)
                };
                if remaining == 0 {
                    ctx.shared.kernel_mut().rounds[ridx].frozen = true;
                    self.t_sync_done = Some(now);
                    self.wait_deadline = None;
                    self.wait_retries = 0;
                    self.phase = Phase::Apply;
                    return Step::Run(ctx.costs().local_op);
                }
                // Re-read the sets the wait condition depends on: a pending
                // target that left the active set (a concurrent initiator),
                // went idle, or stopped using the pmap no longer owes an
                // acknowledgement — the seed wait skips such processors
                // dynamically, and so must the round.
                let (live, words) = {
                    let k = ctx.shared.kernel();
                    let r = &k.rounds[ridx];
                    let words = k.active.word_count() as u32;
                    let live = r
                        .pending
                        .intersection(&k.active)
                        .difference(&k.idle)
                        .intersection(k.pmaps.get(self.pmap_id).in_use());
                    (live, words)
                };
                let scan = ctx.costs().cache_read * (4 * words as u64);
                if live.is_empty() {
                    let k = ctx.shared.kernel_mut();
                    let stragglers: Vec<CpuId> = k.rounds[ridx].pending.iter().collect();
                    for c in stragglers {
                        k.rounds[ridx].excuse(c);
                        k.stats.round_excused += 1;
                    }
                    // `remaining` is now zero: the next step freezes the
                    // round and proceeds to Apply. The excused processors
                    // are handed queue actions in Phase::RoundEnqueue.
                    return Step::Run(scan + ctx.costs().local_op);
                }
                let wd = ctx.shared.kernel().config.watchdog;
                if wd.enabled {
                    let deadline = *self.wait_deadline.get_or_insert(now + wd.timeout);
                    if now >= deadline {
                        let live: Vec<CpuId> = live.iter().collect();
                        return self.watchdog_expired(ctx, &live, wd);
                    }
                }
                // The round channel fires exactly once, when the last
                // acknowledgement lands. The deadline is a poll: it bounds
                // how long an excusable straggler (a processor that
                // deactivated after the publish, e.g. a concurrent
                // initiator whose latched IPI cannot be serviced while it
                // masks interrupts) can hold the round open.
                let poll = now + ctx.costs().intr_entry + ctx.costs().ipi_latency * 8;
                let deadline = self.wait_deadline.map_or(poll, |wd| wd.min(poll));
                let on = BlockOn::one(round_channel(self.pmap_id), ctx.costs().spin_check());
                Step::Block(on.with_deadline(deadline))
            }
            Phase::ApplyJoiners { idx } => {
                if self.own_pages.is_none() {
                    self.own_pages = Some(self.changes.len() as u64);
                }
                let joiner = self.round(ctx.shared.kernel()).joiners.get(idx).copied();
                let Some((cpu, jop)) = joiner else {
                    self.phase = Phase::RoundEnqueue { idx: 0 };
                    return Step::Run(ctx.costs().local_op);
                };
                // Plan against the *current* table: the leader's own
                // changes are already in, so the joiner observes them.
                let jchanges =
                    Self::plan_for(jop, ctx.shared.kernel().pmaps.get(self.pmap_id).table());
                let n = jchanges.len();
                let mut cost = ctx.costs().local_op;
                for &(vpn, pte) in &jchanges {
                    cost += self.write_pte(ctx, vpn, pte);
                }
                if jop.may_reduce_rights() && n > 0 {
                    // The joiner's rights reductions ride the round's
                    // post-unlock cleanup pass (for acknowledged
                    // responders) and the fallback queue actions (for
                    // everyone else).
                    let jrange = tlb_range(jop);
                    ctx.shared
                        .kernel_mut()
                        .round_mut(self.round_id)
                        .expect(LEADER_ROUND)
                        .extras
                        .push(jrange);
                    self.fallback_ranges.push(jrange);
                    cost += ctx.bus_write();
                }
                {
                    let k = ctx.shared.kernel_mut();
                    k.stats.pmap_ops += 1;
                    count_op(k.pmaps.get_mut(self.pmap_id).stats_mut(), jop);
                }
                // The joiner's changes commit with the leader's at Unlock.
                self.changes.extend(jchanges);
                self.joiner_pages.push((cpu, n as u64));
                self.phase = Phase::ApplyJoiners { idx: idx + 1 };
                Step::Run(cost)
            }
            Phase::RoundEnqueue { idx } => {
                self.trace_enter(ctx, TracePhase::QueueActions);
                if !self.fallback_built {
                    self.fallback_built = true;
                    let k = ctx.shared.kernel();
                    let r = self.round(k);
                    self.fallback_list = k
                        .pmaps
                        .get(self.pmap_id)
                        .in_use()
                        .iter()
                        .filter(|&c| c != me && !r.cleanup.contains(c))
                        .collect();
                    self.fallback_ranges.insert(0, tlb_range(self.op));
                }
                self.charge_queue_spins(ctx);
                let Some(&cpu) = self.fallback_list.get(idx) else {
                    self.phase = Phase::Unlock;
                    return Step::Run(ctx.costs().local_op);
                };
                // Residency filter: by this point the leader's own changes
                // and every joiner's final entries are in the page table
                // (Apply and ApplyJoiners both precede this phase), so a
                // fallback target whose possibly-cached set excludes every
                // fallback range holds no stale translation and any later
                // reload reads the final values — skip its queue action
                // and poke.
                if self.filtered_out(ctx.shared.kernel(), cpu, &self.fallback_ranges) {
                    self.note_filtered(ctx, cpu);
                    self.phase = Phase::RoundEnqueue { idx: idx + 1 };
                    return Step::Run(ctx.costs().cache_read);
                }
                let Some(mut cost) = self.post_actions(ctx, cpu, &self.fallback_ranges) else {
                    return self.block_on_queue(ctx, cpu);
                };
                // Idle processors drain at exit-idle; everyone else (a
                // concurrent initiator with no interrupt latched) must be
                // poked or the queued action would never be consumed.
                if !ctx.shared.kernel_mut().idle.contains(cpu)
                    && !ctx.shared.kernel_mut().ipi_pending[cpu.index()]
                {
                    send_shootdown_ipi(ctx, cpu);
                    self.send_list.push(cpu);
                    cost += ctx.costs().ipi_send;
                }
                self.phase = Phase::RoundEnqueue { idx: idx + 1 };
                Step::Run(cost)
            }
            Phase::Joined => {
                if let Some(pages) = ctx.shared.kernel_mut().join_results[me.index()].take() {
                    // The leader applied our operation under its locks. Our
                    // own TLB is covered by the fallback queue action and
                    // the latched IPI the leader left us: the service
                    // routine drains it the moment interrupts re-enable.
                    self.outcome.pages_changed = pages;
                    self.outcome.shootdown = true;
                    self.outcome.joined = true;
                    ctx.shared.kernel_mut().active.insert(me);
                    ctx.notify(SYNC_CHANNEL);
                    if let Some(mask) = self.saved_mask.take() {
                        ctx.set_mask(mask);
                    }
                    return Step::Done(ctx.costs().local_op + ctx.bus_write());
                }
                let spin = ctx.costs().spin_check();
                let health = ctx.shared.kernel().config.health;
                let leader = ctx
                    .shared
                    .kernel()
                    .round(self.round_id)
                    .map(|r| r.initiator);
                let Some(leader) = leader else {
                    // The round vanished (its leader died and the lock was
                    // stolen): fall back to ordinary lock contention.
                    self.round_id = None;
                    self.phase = Phase::Lock;
                    return Step::Run(spin);
                };
                if health.enabled && ctx.is_cpu_halted(leader) {
                    // Withdraw the staged join and take the normal
                    // dead-holder recovery in Phase::Lock.
                    if let Some(r) = ctx.shared.kernel_mut().round_mut(self.round_id) {
                        r.joiners.retain(|&(c, _)| c != me);
                    }
                    self.round_id = None;
                    self.phase = Phase::Lock;
                    return Step::Run(spin + ctx.bus_read());
                }
                let chan = ctx.shared.kernel().pmaps.get(self.pmap_id).lock().channel();
                lock_wait(ctx, chan.as_slice())
            }
            Phase::Apply => {
                self.trace_enter(ctx, TracePhase::PmapUpdate);
                self.plan_changes(ctx.shared.kernel());
                if self.t_sync_done.is_none() {
                    self.t_sync_done = Some(ctx.now);
                }
                let remaining = self.changes.len() - self.applied;
                if remaining == 0 {
                    // A round leader applies its batched joiners' operations
                    // before unlocking; joiners themselves never get here.
                    self.phase = if self.round_id.is_some() {
                        Phase::ApplyJoiners { idx: 0 }
                    } else {
                        Phase::Unlock
                    };
                    return Step::Run(ctx.costs().local_op);
                }
                let chunk = remaining.min(APPLY_CHUNK);
                let mut cost = Dur::ZERO;
                for i in 0..chunk {
                    let (vpn, pte) = self.changes[self.applied + i];
                    cost += self.write_pte(ctx, vpn, pte);
                }
                self.applied += chunk;
                Step::Run(cost)
            }
            Phase::Unlock => {
                let now = ctx.now;
                if self.strategy(ctx.shared.kernel()) == Strategy::TimerDelayed {
                    // Section 3 technique 2: the change takes effect only
                    // once every processor's TLB has been flushed after
                    // it. Park the rights-removing commits on the epoch.
                    if !self.deferred.is_empty() {
                        let pc = crate::state::PendingCommit {
                            pmap: self.pmap_id,
                            changes: std::mem::take(&mut self.deferred),
                            applied_at: now,
                        };
                        ctx.shared.kernel_mut().pending_commits.push(pc);
                    }
                } else {
                    // Commit the new translations: from this instant on,
                    // no stale entry may be used (the Section 4
                    // guarantee).
                    for &(vpn, pte) in &self.changes {
                        ctx.shared
                            .kernel_mut()
                            .checker
                            .commit(self.pmap_id, vpn, pte, now);
                    }
                }
                self.outcome.pages_changed = self.own_pages.unwrap_or(self.changes.len() as u64);
                self.outcome.processors_shot = self.send_list.len() as u32;
                if let Some(id) = self.round_id {
                    // Publish the round's completion *before* the lock
                    // release below: the notification wakes the stalled
                    // responders, who must find the extras list final and
                    // the unlocked flag set — and the joiners, who must
                    // find their results.
                    let k = ctx.shared.kernel_mut();
                    if let Some(i) = k.round_index(Some(id)) {
                        k.rounds[i].unlocked = true;
                        if k.rounds[i].cleanup_remaining == 0 {
                            // Every acknowledged responder was excused or
                            // evicted: nobody is left to reclaim the round.
                            k.rounds.swap_remove(i);
                        }
                    }
                    for &(cpu, pages) in &self.joiner_pages {
                        k.join_results[cpu.index()] = Some(pages);
                    }
                }
                let (lock_chan, home) = {
                    let pmap = ctx.shared.kernel_mut().pmaps.get_mut(self.pmap_id);
                    for i in 0..self.shards_held {
                        let s = self.shards_needed[i];
                        pmap.shard_mut(s).release(me);
                    }
                    count_op(pmap.stats_mut(), self.op);
                    (pmap.lock().channel(), pmap.home())
                };
                if let Some(chan) = lock_chan {
                    ctx.notify(chan);
                }
                let strategy = self.strategy(ctx.shared.kernel());
                let mut cost = Dur::ZERO;
                for _ in 0..self.shards_held {
                    cost += ctx.costs().lock_release + ctx.bus_write_at(home);
                }
                self.shards_held = 0;
                self.shard_gens.clear();
                if strategy.uses_interrupts() {
                    ctx.shared.kernel_mut().active.insert(me);
                    cost += ctx.bus_write();
                }
                if self.outcome.shootdown {
                    if self.pmap_id.is_kernel() {
                        ctx.shared.kernel_mut().stats.shootdowns_kernel += 1;
                    } else {
                        ctx.shared.kernel_mut().stats.shootdowns_user += 1;
                    }
                    cost += self.record_event(ctx);
                }
                if let Some(mask) = self.saved_mask.take() {
                    ctx.set_mask(mask);
                }
                let total = cost + ctx.costs().local_op;
                if let Some(span) = self.span {
                    // The lock was released above, at this step's instant;
                    // the unlock slice covers the remaining cleanup, whose
                    // cost is now known. Nothing later lands on this track
                    // before `now + total` — the step charge advances this
                    // processor's clock past it.
                    let k = ctx.shared.kernel_mut();
                    if let Some(open) = self.open.take() {
                        k.trace.record(me, span, open, TraceEdge::End, now);
                    }
                    k.trace
                        .record(me, span, TracePhase::Unlock, TraceEdge::Begin, now);
                    k.trace
                        .record(me, span, TracePhase::Unlock, TraceEdge::End, now + total);
                }
                Step::Done(total)
            }
        }
    }

    fn label(&self) -> &'static str {
        "pmap-op"
    }
}

impl PmapOpProcess {
    /// Whether any shard this processor believes it holds was forcibly
    /// transferred away since it was acquired. Steals only target
    /// fail-stop holders, so — because the holder of a lock is the only
    /// processor a steal can rob — a generation mismatch on a held shard
    /// means exactly one thing: this processor was halted mid-section,
    /// fence-and-steal (or the FailOp reclaimer) took the shard, and it
    /// has since revived.
    fn robbed(&self, shared: &KernelState) -> bool {
        let pmap = shared.pmaps.get(self.pmap_id);
        (0..self.shards_held)
            .any(|i| pmap.shard(self.shards_needed[i]).steal_gen() != self.shard_gens[i])
    }

    /// Abandons a critical section whose locks were fenced away while
    /// this processor was fail-stopped. The thief recomputed the staged
    /// page-table and TLB work under a fresh acquisition and scrubbed
    /// this initiator's round, so every in-flight decision here is stale:
    /// drop the claim *without releasing* (the locks belong to the thief
    /// now), discard the staged state, restore the interrupt mask, and
    /// redo the operation from [`Phase::Begin`].
    fn restart_robbed<S: HasKernel>(&mut self, ctx: &mut Ctx<'_, S, ()>) -> Step {
        let me = ctx.cpu_id;
        let now = ctx.now;
        let k = ctx.shared.kernel_mut();
        k.stats.robbed_restarts += 1;
        // Both steal paths scrub the robbed initiator's round; scrub
        // again here so the restart never races a future steal site
        // that forgets to.
        if let Some(i) = k.round_index(self.round_id) {
            k.rounds.remove(i);
        }
        if let (Some(span), Some(open)) = (self.span, self.open) {
            k.trace.record(me, span, open, TraceEdge::End, now);
        }
        // Begin re-saves the mask; restore the pre-op one first so the
        // original is not lost to the re-save.
        if let Some(mask) = self.saved_mask {
            ctx.set_mask(mask);
        }
        // Everything else restarts from scratch at Phase::Begin; only the
        // flight-recorder span carries over, so the retried work stays on
        // the same shootdown's track.
        *self = PmapOpProcess {
            span: self.span,
            ..PmapOpProcess::new(self.pmap_id, self.op)
        };
        Step::Run(ctx.costs().local_op + ctx.bus_read())
    }

    /// Books one more acquired lock shard (`gen` is its steal generation
    /// at acquisition; `extra` any liveness probe paid first) and moves on
    /// to the check once every needed shard is held. The lock word lives
    /// in the pmap's home-node memory: the interlocked access pays the
    /// interconnect when the toucher sits on another node.
    fn took_shard<S: HasKernel>(&mut self, ctx: &mut Ctx<'_, S, ()>, gen: u64, extra: Dur) -> Step {
        self.shard_gens.push(gen);
        self.shards_held += 1;
        if self.shards_held == self.shards_needed.len() {
            self.phase = Phase::Check;
        }
        let home = ctx.shared.kernel().pmaps.get(self.pmap_id).home();
        let cost = ctx.costs().lock_acquire + extra + ctx.bus_interlocked_at(home);
        note_lock_ref(ctx, home);
        Step::Run(cost)
    }

    /// The round this operation leads.
    fn round<'k>(&self, k: &'k KernelState) -> &'k ShootdownRound {
        k.round(self.round_id).expect(LEADER_ROUND)
    }

    /// The first processor other than `me`, numbered `from` or above,
    /// that uses this operation's pmap.
    fn next_user(&self, k: &KernelState, me: CpuId, from: u32) -> Option<CpuId> {
        let users = k.pmaps.get(self.pmap_id).in_use();
        (from..k.n_cpus as u32)
            .map(CpuId::new)
            .find(|&c| c != me && users.contains(c))
    }

    /// Writes one page-table entry and returns the cost. Rights-adding
    /// changes are legal to use the instant they land in the page table:
    /// a concurrent hardware walk (which honours no locks) may cache them
    /// before this operation completes, and that is fine — only rights
    /// *removal* needs the completion barrier, which the timer-delayed
    /// strategy defers to the flush epoch. An invalid entry is never an
    /// upgrade.
    fn write_pte<S: HasKernel>(&mut self, ctx: &mut Ctx<'_, S, ()>, vpn: Vpn, pte: Pte) -> Dur {
        let cost = ctx.costs().pmap_update_per_page + ctx.bus_write();
        let now = ctx.now;
        let kernel = ctx.shared.kernel_mut();
        let old = kernel.pmaps.get(self.pmap_id).table().get(vpn);
        kernel.pmaps.get_mut(self.pmap_id).table_mut().set(vpn, pte);
        let upgrade =
            pte.valid && (!old.valid || (old.pfn == pte.pfn && old.prot.is_subset_of(pte.prot)));
        if upgrade {
            kernel.checker.commit(self.pmap_id, vpn, pte, now);
        } else if kernel.config.strategy == Strategy::TimerDelayed {
            self.deferred.push((vpn, pte));
        }
        cost
    }

    /// Whether the residency filter may skip `cpu`: only once
    /// [`Phase::PreInvalidatePt`] has written the entries invalid, and
    /// only if its possibly-cached set excludes every one of `ranges`.
    fn filtered_out(&self, k: &KernelState, cpu: CpuId, ranges: &[PageRange]) -> bool {
        self.pre_invalidated && !k.tlbs[cpu.index()].possibly_caches(self.pmap_id, ranges)
    }

    /// Books a target the residency filter skipped: an IPI saved, when
    /// one would have been sent (the target is neither idle nor already
    /// interrupted), and a filter mark on the span.
    fn note_filtered<S: HasKernel>(&self, ctx: &mut Ctx<'_, S, ()>, cpu: CpuId) {
        let k = ctx.shared.kernel_mut();
        if !k.idle.contains(cpu) && !k.ipi_pending[cpu.index()] {
            k.stats.ipis_filtered += 1;
        }
        self.mark(ctx, TracePhase::Filter, cpu.index() as u32);
    }

    /// Charges a queue-lock wakeup's backfilled spin iterations to the
    /// lock the process blocked on (the wake instant is the first check
    /// at which anything it read could have changed), which is not
    /// necessarily the lock the next post finds.
    fn charge_queue_spins<S: HasKernel>(&mut self, ctx: &mut Ctx<'_, S, ()>) {
        if let Some(spun) = self.spun_on_queue.take() {
            let woken = ctx.woken_spins();
            ctx.shared.kernel_mut().queue_locks[spun.index()].charge_spins(woken);
        }
    }

    /// Posts queue actions covering `ranges` to `cpu`:
    /// `lock_action_structure(cpu); queue_action; action_needed[cpu] =
    /// TRUE; unlock`, linking the responder's eventual drain to this
    /// shootdown. Returns the cost, or `None` when the queue lock is held
    /// (see [`PmapOpProcess::block_on_queue`]).
    fn post_actions<S: HasKernel>(
        &self,
        ctx: &mut Ctx<'_, S, ()>,
        cpu: CpuId,
        ranges: &[PageRange],
    ) -> Option<Dur> {
        let me = ctx.cpu_id;
        let k = ctx.shared.kernel_mut();
        if !k.queue_locks[cpu.index()].try_acquire(me) {
            return None;
        }
        for &range in ranges {
            let outcome = k.queues[cpu.index()].enqueue(Action {
                pmap: self.pmap_id,
                range,
            });
            if let crate::queue::EnqueueOutcome::Coalesced { avoided_overflow } = outcome {
                k.stats.actions_coalesced += 1;
                if avoided_overflow {
                    k.stats.queue_overflows_avoided += 1;
                }
            }
        }
        k.action_needed[cpu.index()] = true;
        k.queue_locks[cpu.index()].release(me);
        if let Some(span) = self.span {
            k.trace.set_pending(cpu, span);
        }
        ctx.notify(queue_lock_channel(cpu));
        // The queue and its lock live in the target's node memory.
        let qhome = ctx.node_of(cpu);
        let cost = ctx.costs().lock_acquire
            + ctx.costs().queue_action * ranges.len() as u64
            + ctx.costs().lock_release
            + ctx.bus_interlocked_at(qhome)
            + ctx.bus_write_at(qhome)
            + ctx.bus_write_at(qhome);
        note_lock_ref(ctx, qhome);
        Some(cost)
    }

    /// One failed check of `cpu`'s queue lock. The retried check re-reads
    /// the pmap's user set as well as the lock, so listen for membership
    /// changes (the sync channel) alongside the lock's releases.
    ///
    /// Like the pmap lock, the check first probes the holder's liveness: a
    /// responder that fail-stops mid-drain holds its own queue lock
    /// forever. A halted holder is evicted (unless the watchdog already
    /// did) and its locks are reclaimed, under either recovery policy —
    /// this operation already holds the pmap lock and cannot abort — and
    /// the retried check finds the lock free or the holder out of the user
    /// set. The wait ends at the watchdog deadline too (see [`lock_wait`]),
    /// so a holder that halts while this processor is blocked is probed.
    fn block_on_queue<S: HasKernel>(&mut self, ctx: &mut Ctx<'_, S, ()>, cpu: CpuId) -> Step {
        let k = ctx.shared.kernel();
        let holder = k.queue_locks[cpu.index()].holder();
        if let Some(dead) = holder.filter(|&h| k.config.health.enabled && ctx.is_cpu_halted(h)) {
            let mut cost = ctx.bus_read();
            if !ctx.shared.kernel().evicted[dead.index()] {
                cost += evict_and_wake(ctx, dead);
            }
            let me = ctx.cpu_id;
            for c in reclaim_dead_locks(ctx.shared.kernel_mut(), me, dead) {
                ctx.notify(c);
            }
            return Step::Run(cost);
        }
        self.spun_on_queue = Some(cpu);
        lock_wait(ctx, &[queue_lock_channel(cpu), SYNC_CHANNEL])
    }

    /// The phase that follows the consistency check / local invalidate,
    /// by strategy.
    fn after_local_phase(&self, shared: &KernelState, me: CpuId) -> Phase {
        let others_using = shared.pmaps.get(self.pmap_id).in_use().any_other_than(me);
        match shared.config.strategy {
            Strategy::NaiveFlush | Strategy::TimerDelayed => Phase::Apply,
            Strategy::HardwareRemoteInvalidate => {
                if others_using {
                    Phase::PreInvalidatePt { applied: 0 }
                } else {
                    Phase::Apply
                }
            }
            // Fanout mode: one published round descriptor and a single
            // multicast post replace the per-responder queue walk.
            Strategy::Shootdown if shared.config.fanout >= 2 => {
                if !others_using {
                    Phase::Apply
                } else if shared.config.residency {
                    // Residency filtering needs the invalid-first barrier
                    // before the possibly-cached sets may be trusted.
                    Phase::PreInvalidatePt { applied: 0 }
                } else {
                    Phase::PublishRound
                }
            }
            Strategy::Shootdown | Strategy::BroadcastIpi | Strategy::NoStallSoftwareReload => {
                if !others_using {
                    Phase::Apply
                } else if shared.config.residency && shared.config.strategy == Strategy::Shootdown {
                    Phase::PreInvalidatePt { applied: 0 }
                } else {
                    Phase::QueueScan { next: 0 }
                }
            }
        }
    }
}

/// The `FailOp` policy closed end to end: a retry driver above
/// [`PmapOpProcess`].
///
/// Under [`RecoveryPolicy::FailOp`] an operation that finds its lock held
/// by a fail-stop processor *aborts* with
/// [`OpOutcome::dead_lock_holder`] set — the policy's contract is that
/// the layer above decides what to do with the corpse. This driver is
/// that layer: it evicts the dead holder (if the health monitor has not
/// already), forcibly reclaims every lock the corpse still holds, and
/// re-dispatches the operation after an exponential backoff on the
/// watchdog's retry schedule. Each re-dispatch counts into
/// [`KernelStats::ops_retried`](crate::KernelStats::ops_retried); a
/// driver that exhausts its budget gives up with the dead-holder outcome
/// intact and counts into
/// [`KernelStats::retries_exhausted`](crate::KernelStats::retries_exhausted) —
/// an abandoned operation is a caught failure, never a silent pass.
#[derive(Debug)]
pub struct FailOpDriver {
    pmap_id: PmapId,
    op: PmapOp,
    inner: PmapOpProcess,
    retries: u32,
    max_retries: u32,
    backing_off: bool,
    outcome: OpOutcome,
}

impl FailOpDriver {
    /// Creates a driver that will re-dispatch `op` against `pmap_id` at
    /// most `max_retries` times past dead lock holders.
    pub fn new(pmap_id: PmapId, op: PmapOp, max_retries: u32) -> FailOpDriver {
        FailOpDriver {
            pmap_id,
            op,
            inner: PmapOpProcess::new(pmap_id, op),
            retries: 0,
            max_retries,
            backing_off: false,
            outcome: OpOutcome::default(),
        }
    }

    /// The operation being driven.
    pub fn op(&self) -> PmapOp {
        self.op
    }

    /// The final outcome (meaningful once the driver has finished). A
    /// set [`OpOutcome::dead_lock_holder`] here means the retry budget
    /// ran out.
    pub fn outcome(&self) -> OpOutcome {
        self.outcome
    }

    /// Re-dispatches performed so far.
    pub fn retries(&self) -> u32 {
        self.retries
    }
}

impl<S: HasKernel> Process<S, ()> for FailOpDriver {
    fn step(&mut self, ctx: &mut Ctx<'_, S, ()>) -> Step {
        let me = ctx.cpu_id;
        if self.backing_off {
            // The backoff elapsed: re-dispatch against a fresh process so
            // the retried operation re-acquires from scratch.
            self.backing_off = false;
            self.inner = PmapOpProcess::new(self.pmap_id, self.op);
            return Step::Run(ctx.costs().local_op);
        }
        match crate::drive(&mut self.inner, ctx) {
            crate::Driven::Yield(s) => s,
            crate::Driven::Finished(d) => {
                let outcome = self.inner.outcome();
                let Some(dead) = outcome.dead_lock_holder else {
                    self.outcome = outcome;
                    return Step::Done(d);
                };
                if self.retries >= self.max_retries {
                    ctx.shared.kernel_mut().stats.retries_exhausted += 1;
                    self.outcome = outcome;
                    return Step::Done(d);
                }
                self.retries += 1;
                let mut cost = d + ctx.costs().local_op;
                // Declare the corpse dead if the watchdog has not already:
                // retrying against a holder that never releases would only
                // reproduce the abort.
                let k = ctx.shared.kernel();
                if k.config.health.enabled && !k.evicted[dead.index()] {
                    cost += evict_and_wake(ctx, dead);
                }
                // Reclaim every lock the corpse still holds, so the
                // re-dispatched operation finds them free.
                let chans = reclaim_dead_locks(ctx.shared.kernel_mut(), me, dead);
                for c in chans {
                    ctx.notify(c);
                }
                ctx.shared.kernel_mut().stats.ops_retried += 1;
                // Exponential backoff on the watchdog's retry schedule —
                // deterministic, and scaled to the machine's notion of
                // "how long a slow responder may take".
                let wd = ctx.shared.kernel().config.watchdog;
                self.backing_off = true;
                Step::Run(cost + wd.retry_timeout(self.retries))
            }
        }
    }

    fn label(&self) -> &'static str {
        "failop-driver"
    }
}
