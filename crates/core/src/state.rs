//! The kernel's shared memory image: every structure the shootdown
//! algorithm and its clients manipulate.

use std::collections::HashMap;
use std::fmt;

use machtlb_pmap::{CpuSet, PageRange, Pfn, Pmap, PmapId};
use machtlb_sim::{CpuId, SpinLock, Topology, WaitChannel};
use machtlb_tlb::{Tlb, TlbConfig};
use machtlb_xpr::{FlightRecorder, ShootdownEvent, XprBuffer};

use crate::checker::Checker;
use crate::health::{EvictionReport, HealthConfig};
use crate::queue::ActionQueue;
use crate::strategy::Strategy;

/// A pmap change whose consistency commit is deferred until every
/// processor's TLB has been flushed after the change was applied — the
/// epoch mechanism of the [`Strategy::TimerDelayed`] technique.
#[derive(Clone, Debug)]
pub struct PendingCommit {
    /// The pmap changed.
    pub pmap: machtlb_pmap::PmapId,
    /// The new translations (applied to the page table already).
    pub changes: Vec<(machtlb_pmap::Vpn, machtlb_pmap::Pte)>,
    /// When the change was applied.
    pub applied_at: machtlb_sim::Time,
}

/// 64-bit words per 4 KiB page.
pub const WORDS_PER_PAGE: u64 = 512;

/// The wait channel guarding processor `cpu`'s action-queue lock (`0x2`
/// key space; see `machtlb_sim::event`'s channel registry).
pub fn queue_lock_channel(cpu: CpuId) -> WaitChannel {
    WaitChannel::new(0x2_0000_0000 | cpu.index() as u64)
}

/// The global synchronization channel (`0x3` key space): notified whenever
/// a processor leaves the active set, clears an action-needed flag, or
/// drops a pmap from its in-use set — the writes the initiator-side
/// `Phase::Wait` and responder-side drain loops re-check on.
pub const SYNC_CHANNEL: WaitChannel = WaitChannel::new(0x3_0000_0000);

/// The wait channel a multicast shootdown round on `pmap` completes on
/// (`0x4` key space): notified exactly once, by the responder whose
/// acknowledgement drives the round's remaining-count to zero — so the
/// initiator parked on it wakes O(1) times regardless of the round's size.
pub fn round_channel(pmap: PmapId) -> WaitChannel {
    WaitChannel::new(0x4_0000_0000 | u64::from(pmap.raw()))
}

/// One in-flight multicast shootdown round: the descriptor a fanout-mode
/// initiator publishes instead of walking every responder's action queue.
/// Responders named in [`ShootdownRound::pending`] invalidate
/// [`ShootdownRound::ranges`] from their own TLBs, acknowledge by
/// decrementing [`ShootdownRound::remaining`], and stall on the pmap lock;
/// after the leader unlocks they invalidate any [`ShootdownRound::extras`]
/// merged in by batched co-initiators, and the last one reclaims the round.
#[derive(Clone, Debug)]
pub struct ShootdownRound {
    /// Round identity (monotone across the run; responders re-find the
    /// round by id after their stall).
    pub id: u64,
    /// The pmap under shootdown.
    pub pmap: PmapId,
    /// The leading initiator.
    pub initiator: CpuId,
    /// Ranges every responder must invalidate before acknowledging.
    pub ranges: Vec<PageRange>,
    /// Ranges merged by batched joiners at the freeze point; responders
    /// invalidate them after the leader unlocks, before resuming.
    pub extras: Vec<PageRange>,
    /// Responders whose acknowledgement the leader still awaits.
    pub pending: CpuSet,
    /// Unacknowledged responder count (the leader's wait condition).
    pub remaining: u64,
    /// Responders that still owe their post-unlock cleanup pass.
    pub cleanup: CpuSet,
    /// Outstanding cleanup count; the responder that drives it to zero
    /// removes the round from the registry.
    pub cleanup_remaining: u64,
    /// Once frozen, late same-pmap initiators can no longer join the
    /// round and fall back to ordinary lock contention.
    pub frozen: bool,
    /// Set by the leader in its unlock step, before the lock-channel
    /// notification wakes the stalled responders: tells them the extras
    /// list is final and cleanup may proceed.
    pub unlocked: bool,
    /// The pmap lock shards the leader holds for the round's duration. A
    /// joiner may merge only if its own shard set is a subset: the leader
    /// applies the joiner's update under these locks.
    pub shards: Vec<usize>,
    /// Batched co-initiators: who joined, and the operation the leader
    /// applies on their behalf.
    pub joiners: Vec<(CpuId, crate::op::PmapOp)>,
}

impl ShootdownRound {
    /// Excuses `cpu` from the round: clears its pending and cleanup
    /// memberships and adjusts the counters. Returns whether the
    /// acknowledgement count reached zero *by this excusal* (the caller
    /// then owes the round-channel notification the responder would have
    /// sent).
    pub fn excuse(&mut self, cpu: CpuId) -> bool {
        let mut completed = false;
        if self.pending.remove(cpu) {
            self.remaining -= 1;
            completed = self.remaining == 0;
        }
        if self.cleanup.remove(cpu) {
            self.cleanup_remaining -= 1;
        }
        completed
    }
}

/// Initiator-side watchdog parameters: how long `Phase::Wait` waits for a
/// responder to leave the active set before re-sending its IPI, and how
/// many bounded-exponential-backoff retries it attempts before reporting
/// the responder lost.
///
/// The timeout must sit far above any healthy synchronization wait (the
/// paper's worst case is ~1 ms under long interrupt-masked windows) so
/// the watchdog never fires on a fault-free run.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct WatchdogConfig {
    /// Whether the watchdog arms at all. Off, a lost IPI hangs the
    /// initiator until the run's time limit — the negative polarity the
    /// chaos suite must *catch*, not survive.
    pub enabled: bool,
    /// Wait this long for a responder before the first retry.
    pub timeout: machtlb_sim::Dur,
    /// Each retry multiplies the next timeout by this factor.
    pub backoff: u32,
    /// Retries before giving up and filing a [`WatchdogReport`].
    pub max_retries: u32,
}

impl WatchdogConfig {
    /// The wait deadline armed for retry number `retry` (zero-based): the
    /// base timeout stretched by `backoff^retry`, saturating rather than
    /// overflowing for absurd configurations. Bounded by construction —
    /// the watchdog never arms more than [`WatchdogConfig::max_retries`]
    /// of these, so the total wait is a finite geometric sum.
    pub fn retry_timeout(&self, retry: u32) -> machtlb_sim::Dur {
        self.timeout * u64::from(self.backoff).saturating_pow(retry)
    }
}

impl Default for WatchdogConfig {
    fn default() -> WatchdogConfig {
        WatchdogConfig {
            enabled: true,
            timeout: machtlb_sim::Dur::millis(50),
            backoff: 2,
            max_retries: 3,
        }
    }
}

/// A responder that failed to acknowledge a shootdown despite every
/// watchdog retry: the initiator skipped it and degraded rather than
/// hanging. One of the chaos suite's "caught, not silent" signals.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct WatchdogReport {
    /// When the watchdog gave up.
    pub at: machtlb_sim::Time,
    /// The initiating processor.
    pub initiator: CpuId,
    /// The unresponsive responder.
    pub target: CpuId,
    /// Retries attempted before giving up.
    pub retries: u32,
}

/// Kernel configuration: the algorithm and hardware variant under test.
///
/// # Examples
///
/// ```
/// use machtlb_core::{KernelConfig, Strategy};
///
/// // The Table 1 ablation: same kernel, lazy evaluation off.
/// let ablated = KernelConfig { lazy_eval: false, ..KernelConfig::default() };
/// assert_eq!(ablated.strategy, Strategy::Shootdown);
/// assert!(!ablated.lazy_eval);
/// ```
#[derive(Clone, Debug)]
pub struct KernelConfig {
    /// The consistency strategy.
    pub strategy: Strategy,
    /// Whether the lazy-evaluation check for valid mappings is enabled
    /// (disabled for the Table 1 ablation).
    pub lazy_eval: bool,
    /// Whether the machine has the Section 9 high-priority software
    /// interrupt: device handlers and kernel device-critical sections then
    /// leave shootdown IPIs deliverable.
    pub high_prio_ipi: bool,
    /// The TLB hardware on every processor.
    pub tlb: TlbConfig,
    /// Capacity of each per-processor action queue (small by design).
    pub action_queue_capacity: usize,
    /// Capacity of the xpr trace buffer ("sized so that it would never
    /// overflow during our test runs").
    pub xpr_capacity: usize,
    /// Whether instrumentation records events at all (the Section 6.1
    /// perturbation experiment turns it off).
    pub instrumentation: bool,
    /// If set, responder events are recorded only on these processors (the
    /// paper records on 5 of 16 "to avoid lock contention effects in the
    /// xpr package").
    pub responder_sample: Option<Vec<CpuId>>,
    /// Whether the shootdown flight recorder traces per-phase spans. Off by
    /// default: when off, every trace site reduces to one branch on this
    /// flag and no trace buffers are allocated.
    pub trace_shootdowns: bool,
    /// Per-processor flight-recorder buffer capacity, in events.
    pub trace_capacity: usize,
    /// The initiator-side IPI-retry watchdog.
    pub watchdog: WatchdogConfig,
    /// The fail-stop health monitor: dead-responder eviction, dead-holder
    /// lock recovery, and the fenced rejoin protocol.
    pub health: HealthConfig,
    /// Shootdown IPI fan-out degree. `1` (the default) is the seed unicast
    /// loop, bit-identical to the pre-fanout kernel; `k >= 2` posts one
    /// multicast descriptor whose `k`-ary relay tree delivers in
    /// O(k·log_k n) hops, and switches the initiator to the published
    /// round protocol (descriptor + counter acknowledgement) so its own
    /// work stays sub-linear too. Only [`Strategy::Shootdown`] uses it.
    pub fanout: usize,
    /// Whether a second initiator arriving on an already-shooting pmap
    /// merges its operation into the open round (leader applies it and
    /// reports back through the pmap lock channel) instead of queueing
    /// behind the lock. Requires `fanout >= 2` to have any effect.
    pub batch_initiators: bool,
    /// Number of range shards each pmap lock is split into. `1` (the
    /// default) is the seed whole-pmap lock; more shards let operations on
    /// disjoint ranges of one pmap update concurrently, each shard with
    /// its own steal generation for per-shard fence-and-steal recovery.
    pub pmap_shards: usize,
    /// The machine's processor/memory topology. Flat (the default) is one
    /// bus shared by every processor, bit-identical to the pre-topology
    /// kernel; [`KernelState::new`] sizes a flat topology's one node to
    /// the machine. A multi-node topology splits processors into nodes
    /// with per-node buses and an inter-node interconnect; pmaps acquire
    /// a home node and remote references pay the crossing.
    pub topology: Topology,
    /// Whether shootdown initiators consult the per-cpu TLB residency
    /// tracker to filter the IPI target set below the in-use set, and
    /// responders satisfy full pmap flushes by ASID-generation recycling.
    /// Off by default: the kernel then replays bit-identically to the
    /// pre-residency tree (the golden-fingerprint proof), because the
    /// tracker is pure bookkeeping until this flag reads it. On, the
    /// filter extends lazy evaluation from "never entered the pmap" to
    /// "entered but since evicted" — it may keep a processor that holds
    /// nothing, but never drops one that could hold a stale translation.
    pub residency: bool,
}

impl Default for KernelConfig {
    fn default() -> KernelConfig {
        KernelConfig {
            strategy: Strategy::Shootdown,
            lazy_eval: true,
            high_prio_ipi: false,
            tlb: TlbConfig::multimax(),
            action_queue_capacity: 4,
            xpr_capacity: 1 << 16,
            instrumentation: true,
            responder_sample: None,
            trace_shootdowns: false,
            trace_capacity: 1 << 16,
            watchdog: WatchdogConfig::default(),
            health: HealthConfig::default(),
            fanout: 1,
            batch_initiators: false,
            pmap_shards: 1,
            topology: Topology::default(),
            residency: false,
        }
    }
}

/// The one declaration of the kernel counters: a doc comment and a name
/// each, in two groups. A new counter is declared here and nowhere else;
/// every fault-campaign report enumerates [`KernelStats::hardening`].
macro_rules! kernel_stats {
    (
        hardening { $($(#[$hm:meta])* $h:ident,)* }
        others { $($(#[$om:meta])* $o:ident,)* }
    ) => {
        /// Cumulative kernel counters.
        #[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
        pub struct KernelStats {
            $($(#[$om])* pub $o: u64,)*
            $($(#[$hm])* pub $h: u64,)*
        }

        impl KernelStats {
            /// The recovery counters the hardened kernel adds to the
            /// paper's, as `(name, value)` pairs in registry order.
            pub fn hardening(&self) -> [(&'static str, u64); [$(stringify!($h)),*].len()] {
                [$((stringify!($h), self.$h)),*]
            }
        }

        impl std::ops::AddAssign for KernelStats {
            fn add_assign(&mut self, rhs: KernelStats) {
                $(self.$o += rhs.$o;)*
                $(self.$h += rhs.$h;)*
            }
        }
    };
}

kernel_stats! {
    hardening {
        /// Shootdown IPIs re-sent by the initiator watchdog (a subset of
        /// [`KernelStats::ipis_sent`] was healthy traffic; these were retries).
        ipi_retries,
        /// Responders the watchdog gave up on after exhausting its retries
        /// (each also files a [`WatchdogReport`]).
        watchdog_gaveup,
        /// Responder drains that degraded to a whole-TLB flush because the
        /// queue had overflowed or was poisoned.
        degraded_flushes,
        /// Fail-stop responders the health monitor evicted from the active,
        /// idle, and pmap in-use sets (each also files an
        /// [`EvictionReport`](crate::EvictionReport)).
        evictions,
        /// Revived processors that completed the fenced rejoin protocol and
        /// re-entered the active set.
        fenced_rejoins,
        /// Locks forcibly transferred away from fail-stop holders under
        /// [`RecoveryPolicy::FenceAndSteal`](crate::RecoveryPolicy::FenceAndSteal).
        locks_stolen,
        /// Critical sections abandoned because a steal-generation check found
        /// the lock had been fenced away while the holder was fail-stopped: a
        /// revived processor detected that fence-and-steal (or the FailOp
        /// reclaimer) took its lock mid-section, so it dropped its stale claim
        /// and restarted instead of releasing a lock the thief now holds.
        robbed_restarts,
        /// Acknowledgements a responder abandoned because its health
        /// generation advanced since the interrupt entered — a wrongly
        /// evicted (slow-but-alive) processor's late ack, rejected by the
        /// generation handshake instead of completing a quiescence round it
        /// was already excused from.
        late_acks_rejected,
        /// Evictions a live processor *detected on its own* (generation
        /// mismatch on its next interrupt or acknowledgement) and answered by
        /// running the fenced rejoin before touching another translation.
        /// Each also counts a [`KernelStats::fenced_rejoins`] when the fence
        /// completes.
        self_fences,
        /// Operations the FailOp retry driver re-dispatched after an abort on
        /// a dead lock holder ([`OpOutcome::dead_lock_holder`](crate::OpOutcome::dead_lock_holder)).
        ops_retried,
        /// Operations the FailOp retry driver gave up on after exhausting its
        /// bounded retries — the red flag a soak run must never raise.
        retries_exhausted,
    }
    others {
        /// Pmap operations executed.
        pmap_ops,
        /// Shootdowns initiated on the kernel pmap.
        shootdowns_kernel,
        /// Shootdowns initiated on user pmaps.
        shootdowns_user,
        /// Operations where the lazy-evaluation check skipped the shootdown.
        lazy_skips,
        /// Page faults taken.
        faults,
        /// Unrecoverable faults (no valid VM mapping permits the access).
        unrecoverable_faults,
        /// Shootdown IPIs sent.
        ipis_sent,
        /// Pages evicted by the pageout daemon.
        pageouts,
        /// Dirty pages the pageout daemon wrote before evicting.
        pageout_writes,
        /// Consistency actions that merged into an already-queued action for
        /// the same pmap instead of taking a queue slot.
        actions_coalesced,
        /// Coalesces that happened with the target queue full — enqueues that
        /// would have overflowed into a whole-TLB flush without merging.
        queue_overflows_avoided,
        /// Multicast shootdown rounds published (fanout mode only).
        multicast_rounds,
        /// Initiators whose operation merged into another initiator's open
        /// round instead of serializing behind the pmap lock.
        initiators_batched,
        /// Round targets excused mid-wait because they had left the active set
        /// (concurrent initiators, processors going idle); each was handed a
        /// fallback queue action instead.
        round_excused,
        /// Shootdown IPIs whose target sat on a different node than the sender
        /// (a subset of [`KernelStats::ipis_sent`]; zero on a flat topology).
        ipis_remote,
        /// Pmap-lock and queue-lock references that crossed the interconnect
        /// because the lock word's home node differed from the toucher's node.
        remote_lock_refs,
        /// Pages rehomed between nodes by the migration workloads (the
        /// balancing daemon and the storm generator both count here).
        page_migrations,
        /// In-use processors the residency filter excluded from a shootdown's
        /// IPI target set because their TLB could not hold a stale entry for
        /// the affected range (each is an IPI the pre-filter kernel would have
        /// sent; zero unless [`KernelConfig::residency`] is on).
        ipis_filtered,
        /// Full pmap flushes satisfied by an ASID-generation bump instead of
        /// a per-entry walk (zero unless [`KernelConfig::residency`] is on).
        asid_recycles,
        /// Inactive→active transitions (responder reactivation, idle exit)
        /// held back because a multicast round the processor was not party to
        /// was still locked on a pmap it uses (see
        /// [`KernelState::activation_blocked_by_round`]).
        activation_stalls,
        /// Pmap attaches that found the lock re-taken between the spin check
        /// and the attach step (interrupt-delay TOCTOU) and went back to
        /// spinning instead of joining the user set mid-shootdown.
        attach_rechecks,
    }
}

impl KernelStats {
    /// Watchdog give-ups the health monitor did not absorb into an
    /// eviction: a dead responder still wedging its initiators.
    pub fn unrecovered(&self) -> u64 {
        self.watchdog_gaveup.saturating_sub(self.evictions)
    }

    /// The hardening counters as space-separated `name=value` pairs, in
    /// registry order: the line the stall report and the CLI print.
    pub fn hardening_line(&self) -> String {
        self.hardening()
            .map(|(name, v)| format!("{name}={v}"))
            .join(" ")
    }
}

/// Per-node kernel counters, kept alongside the aggregate
/// [`KernelStats`] when the machine has a multi-node
/// [`Topology`]. Index `n` of [`KernelState::node_stats`] describes node
/// `n`. All zeros on a flat machine until traffic occurs on node 0.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct NodeCounters {
    /// Shootdown IPIs sent *by* processors on this node.
    pub ipis_sent: u64,
    /// Shootdown IPIs sent from this node to a different node.
    pub ipis_remote: u64,
    /// Pmap-lock acquisitions charged against this node's memory (the
    /// pmap's home node, not the toucher's).
    pub lock_refs: u64,
    /// Lock references this node's processors made to *other* nodes'
    /// memory.
    pub remote_lock_refs: u64,
    /// Pages migrated *into* this node.
    pub page_migrations_in: u64,
}

/// Physical memory contents: 64-bit words, allocated per frame on first
/// touch. Gives workloads (notably the Section 5.1 consistency tester)
/// real data to read and write through translations.
#[derive(Clone, Debug, Default)]
pub struct PhysMem {
    pages: HashMap<u64, Vec<u64>>,
}

impl PhysMem {
    /// Reads the `word`-th 64-bit word of frame `pfn` (0 if never written).
    ///
    /// # Panics
    ///
    /// Panics if `word` is out of page bounds.
    pub fn read_word(&self, pfn: Pfn, word: u64) -> u64 {
        assert!(word < WORDS_PER_PAGE, "word index {word} out of page");
        self.pages.get(&pfn.raw()).map_or(0, |p| p[word as usize])
    }

    /// Writes the `word`-th 64-bit word of frame `pfn`.
    ///
    /// # Panics
    ///
    /// Panics if `word` is out of page bounds.
    pub fn write_word(&mut self, pfn: Pfn, word: u64, value: u64) {
        assert!(word < WORDS_PER_PAGE, "word index {word} out of page");
        self.pages
            .entry(pfn.raw())
            .or_insert_with(|| vec![0; WORDS_PER_PAGE as usize])[word as usize] = value;
    }

    /// Copies the contents of frame `src` to frame `dst` (COW resolution).
    pub fn copy_page(&mut self, src: Pfn, dst: Pfn) {
        let data = self.pages.get(&src.raw()).cloned();
        match data {
            Some(d) => {
                self.pages.insert(dst.raw(), d);
            }
            None => {
                self.pages.remove(&dst.raw());
            }
        }
    }
}

/// A bump allocator of physical frames.
#[derive(Clone, Debug)]
pub struct FrameAllocator {
    next: u64,
    allocated: u64,
}

impl FrameAllocator {
    /// Creates an allocator starting above the (notional) kernel image.
    pub fn new() -> FrameAllocator {
        FrameAllocator {
            next: 0x1000,
            allocated: 0,
        }
    }

    /// Allocates a fresh frame.
    pub fn alloc(&mut self) -> Pfn {
        let pfn = Pfn::new(self.next);
        self.next += 1;
        self.allocated += 1;
        pfn
    }

    /// Frames handed out so far.
    pub fn allocated(&self) -> u64 {
        self.allocated
    }
}

impl Default for FrameAllocator {
    fn default() -> FrameAllocator {
        FrameAllocator::new()
    }
}

/// The registry of pmaps: index 0 is the kernel pmap.
pub struct PmapRegistry {
    pmaps: Vec<Pmap>,
    n_cpus: usize,
    n_shards: usize,
}

impl PmapRegistry {
    fn new(n_cpus: usize, n_shards: usize) -> PmapRegistry {
        let mut kernel = Pmap::with_shards(PmapId::KERNEL, n_cpus, n_shards);
        // The kernel is "a multi-threaded task that is potentially
        // executing on all processors" (Section 2): its pmap is always in
        // use everywhere.
        for i in 0..n_cpus {
            kernel.mark_in_use(CpuId::new(i as u32));
        }
        PmapRegistry {
            pmaps: vec![kernel],
            n_cpus,
            n_shards,
        }
    }

    /// Creates a new user pmap and returns its id.
    pub fn create(&mut self) -> PmapId {
        let id = PmapId::new(self.pmaps.len() as u32);
        self.pmaps
            .push(Pmap::with_shards(id, self.n_cpus, self.n_shards));
        id
    }

    /// Creates a new user pmap homed on `node`: its page tables and lock
    /// words live in that node's memory, so processors elsewhere pay the
    /// interconnect to touch them. On a flat topology this is
    /// [`PmapRegistry::create`] (everything is home).
    pub fn create_on(&mut self, node: usize) -> PmapId {
        let id = self.create();
        self.get_mut(id).set_home(node);
        id
    }

    /// The pmap with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` was never created.
    pub fn get(&self, id: PmapId) -> &Pmap {
        &self.pmaps[id.raw() as usize]
    }

    /// Mutable access to a pmap.
    ///
    /// # Panics
    ///
    /// Panics if `id` was never created.
    pub fn get_mut(&mut self, id: PmapId) -> &mut Pmap {
        &mut self.pmaps[id.raw() as usize]
    }

    /// The kernel pmap.
    pub fn kernel(&self) -> &Pmap {
        &self.pmaps[0]
    }

    /// Number of pmaps (including the kernel pmap).
    pub fn len(&self) -> usize {
        self.pmaps.len()
    }

    /// Always false: the kernel pmap exists from boot.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Iterates over all pmaps.
    pub fn iter(&self) -> impl Iterator<Item = &Pmap> {
        self.pmaps.iter()
    }
}

impl fmt::Debug for PmapRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PmapRegistry")
            .field("len", &self.pmaps.len())
            .finish()
    }
}

/// Access to the kernel image from a larger shared-state composition.
///
/// The kernel's processes ([`PmapOpProcess`](crate::PmapOpProcess),
/// [`ResponderProcess`](crate::ResponderProcess), …) are generic over any
/// shared state that exposes a [`KernelState`], so higher layers (the VM
/// system, the workloads) can embed the kernel image in their own machine
/// state.
pub trait HasKernel {
    /// The kernel image.
    fn kernel(&self) -> &KernelState;
    /// Mutable access to the kernel image.
    fn kernel_mut(&mut self) -> &mut KernelState;
}

impl HasKernel for KernelState {
    fn kernel(&self) -> &KernelState {
        self
    }
    fn kernel_mut(&mut self) -> &mut KernelState {
        self
    }
}

/// The kernel's shared memory image — the `S` parameter of the simulated
/// [`Machine`](machtlb_sim::Machine). Everything in here is "memory": the
/// time cost of touching it is charged by the processes that do.
pub struct KernelState {
    /// Number of processors.
    pub n_cpus: usize,
    /// The configuration under test, with its topology sized to the
    /// machine.
    pub config: KernelConfig,
    /// Per-node counters (always at least one node).
    pub node_stats: Vec<NodeCounters>,
    /// All pmaps.
    pub pmaps: PmapRegistry,
    /// Per-processor TLBs (hardware state, held centrally so the checker
    /// and the remote-invalidation strategy can reach every buffer).
    pub tlbs: Vec<Tlb>,
    /// The set of processors actively performing translations.
    pub active: CpuSet,
    /// The set of idle processors (not sent shootdown interrupts).
    pub idle: CpuSet,
    /// Per-processor "a consistency action is needed" flags.
    pub action_needed: Vec<bool>,
    /// Per-processor action queues.
    pub queues: Vec<ActionQueue>,
    /// Per-processor locks protecting the action queues.
    pub queue_locks: Vec<SpinLock>,
    /// Per-processor "a shootdown interrupt is already in flight" flags
    /// (omitted detail 3 of Section 4).
    pub ipi_pending: Vec<bool>,
    /// The user pmap each processor is currently executing in, if any.
    pub cur_user_pmap: Vec<Option<PmapId>>,
    /// The trace buffer.
    pub xpr: XprBuffer<ShootdownEvent>,
    /// The shootdown flight recorder (disabled unless
    /// [`KernelConfig::trace_shootdowns`]).
    pub trace: FlightRecorder,
    /// The consistency oracle.
    pub checker: Checker,
    /// Kernel counters.
    pub stats: KernelStats,
    /// Physical memory words.
    pub mem: PhysMem,
    /// Frame allocator.
    pub frames: FrameAllocator,
    /// Per-processor time of the last whole-TLB timer flush (the
    /// timer-delayed technique's epoch clock).
    pub tlb_flush_stamp: Vec<machtlb_sim::Time>,
    /// Changes applied but not yet consistency-committed (timer-delayed
    /// technique only).
    pub pending_commits: Vec<PendingCommit>,
    /// Responders the initiator watchdog gave up on, in filing order.
    pub watchdog_reports: Vec<WatchdogReport>,
    /// Per-processor "evicted by the health monitor and not yet rejoined"
    /// flags. A set flag means the processor is fail-stop dead as far as
    /// the kernel is concerned; only a completed fenced rejoin clears it.
    pub evicted: Vec<bool>,
    /// Per-processor health generation numbers: bumped by each eviction,
    /// checked by the fenced rejoin's handshake so a fence superseded by a
    /// newer eviction restarts instead of rejoining stale.
    pub health_gen: Vec<u64>,
    /// Evictions performed by the health monitor, in filing order.
    pub eviction_reports: Vec<EvictionReport>,
    /// In-flight multicast shootdown rounds (fanout mode). Small by
    /// construction: at most one open round per contended pmap, reclaimed
    /// by the last responder's cleanup pass.
    pub rounds: Vec<ShootdownRound>,
    /// Round id allocator.
    pub next_round_id: u64,
    /// Per-processor batched-join results: the leader stores the joiner's
    /// pages-changed count here before notifying the pmap lock channel;
    /// the joiner takes it as its completion signal.
    pub join_results: Vec<Option<u64>>,
}

impl KernelState {
    /// Builds the boot-time kernel image for an `n_cpus` machine. This is
    /// where a flat [`KernelConfig::topology`] is sized to the machine.
    ///
    /// All processors start *idle*: a processor must pass through the
    /// exit-idle protocol (draining any queued consistency actions) before
    /// performing translations.
    ///
    /// # Panics
    ///
    /// Panics if the configured strategy is unsupportable on the configured
    /// TLB hardware (see [`Strategy::check_hardware`]).
    pub fn new(n_cpus: usize, mut config: KernelConfig) -> KernelState {
        if let Err(e) = config.strategy.check_hardware(&config.tlb) {
            panic!("invalid kernel configuration: {e}");
        }
        assert!(config.fanout >= 1, "fanout degree must be at least 1");
        assert!(config.pmap_shards >= 1, "pmap_shards must be at least 1");
        if config.topology.is_flat() {
            config.topology = Topology::flat(n_cpus);
        }
        KernelState {
            n_cpus,
            node_stats: vec![NodeCounters::default(); config.topology.nodes()],
            pmaps: PmapRegistry::new(n_cpus, config.pmap_shards),
            tlbs: (0..n_cpus).map(|_| Tlb::new(config.tlb)).collect(),
            active: CpuSet::new(n_cpus),
            idle: CpuSet::full(n_cpus),
            action_needed: vec![false; n_cpus],
            queues: (0..n_cpus)
                .map(|_| ActionQueue::new(config.action_queue_capacity))
                .collect(),
            queue_locks: (0..n_cpus)
                .map(|i| SpinLock::new().on_channel(queue_lock_channel(CpuId::new(i as u32))))
                .collect(),
            ipi_pending: vec![false; n_cpus],
            cur_user_pmap: vec![None; n_cpus],
            xpr: XprBuffer::new(config.xpr_capacity),
            trace: if config.trace_shootdowns {
                FlightRecorder::new(n_cpus, config.trace_capacity)
            } else {
                FlightRecorder::disabled(n_cpus)
            },
            checker: Checker::new(),
            stats: KernelStats::default(),
            mem: PhysMem::default(),
            frames: FrameAllocator::new(),
            tlb_flush_stamp: vec![machtlb_sim::Time::ZERO; n_cpus],
            pending_commits: Vec::new(),
            watchdog_reports: Vec::new(),
            evicted: vec![false; n_cpus],
            health_gen: vec![0; n_cpus],
            eviction_reports: Vec::new(),
            rounds: Vec::new(),
            next_round_id: 0,
            join_results: vec![None; n_cpus],
            config,
        }
    }

    /// The node processor `cpu` lives on.
    pub fn node_of(&self, cpu: CpuId) -> usize {
        self.config.topology.node_of(cpu)
    }

    /// Whether any in-flight multicast round still awaits `cpu`'s
    /// acknowledgement (the responder's "work for me?" test alongside the
    /// action-needed flag).
    pub fn round_pending_for(&self, cpu: CpuId) -> bool {
        self.rounds.iter().any(|r| r.pending.contains(cpu))
    }

    /// Where the round with id `id` sits in [`KernelState::rounds`]
    /// (`None` once it was reclaimed or scrubbed, or for no id).
    pub(crate) fn round_index(&self, id: Option<u64>) -> Option<usize> {
        self.rounds.iter().position(|r| Some(r.id) == id)
    }

    /// The round with id `id`, while it is registered.
    pub(crate) fn round(&self, id: Option<u64>) -> Option<&ShootdownRound> {
        self.round_index(id).map(|i| &self.rounds[i])
    }

    /// The round with id `id`, mutably.
    pub(crate) fn round_mut(&mut self, id: Option<u64>) -> Option<&mut ShootdownRound> {
        self.round_index(id).map(|i| &mut self.rounds[i])
    }

    /// The rounds that hold `cpu` out of the active set (see
    /// [`KernelState::activation_blocked_by_round`]).
    pub(crate) fn rounds_blocking(&self, cpu: CpuId) -> impl Iterator<Item = &ShootdownRound> {
        self.rounds.iter().filter(move |r| {
            !r.unlocked
                && r.initiator != cpu
                && !r.pending.contains(cpu)
                && self.pmaps.get(r.pmap).in_use().contains(cpu)
        })
    }

    /// Whether `cpu` may not (re)enter the active set yet: some multicast
    /// round on a pmap `cpu` uses is still locked, and `cpu` is neither
    /// the round's initiator nor among its pending responders.
    ///
    /// A round's target set is computed from the active set in the same
    /// atomic step that publishes the descriptor, and the fallback queue
    /// actions for everyone else land only after the leader's apply.
    /// A processor that was inactive at publish time (deactivated for a
    /// previous round's service, or idle) is therefore covered by nothing
    /// until the post-apply enqueue — if it activated before the unlock
    /// it could run user code through the very entries the round
    /// invalidates. The caller must stall the activation until every such
    /// round unlocks: by then the fallback action sits in its queue and
    /// the ordinary drain flushes it before the first translation.
    pub fn activation_blocked_by_round(&self, cpu: CpuId) -> bool {
        self.rounds_blocking(cpu).next().is_some()
    }

    /// Excuses `cpu` from every in-flight round (eviction, or a target
    /// that left the active set). Returns the pmaps of rounds whose
    /// acknowledgement count this drove to zero — the caller owes each a
    /// [`round_channel`] notification — and reclaims rounds whose cleanup
    /// count emptied.
    pub fn excuse_from_rounds(&mut self, cpu: CpuId) -> Vec<PmapId> {
        let mut completed = Vec::new();
        let mut i = 0;
        while i < self.rounds.len() {
            let r = &mut self.rounds[i];
            if r.excuse(cpu) {
                completed.push(r.pmap);
            }
            if r.unlocked && r.cleanup_remaining == 0 {
                self.rounds.swap_remove(i);
            } else {
                i += 1;
            }
        }
        completed
    }

    /// Commits every pending change all processors have flushed past
    /// (timer-delayed technique). Returns how many commits matured.
    pub fn mature_pending_commits(&mut self, now: machtlb_sim::Time) -> usize {
        let oldest_flush = self
            .tlb_flush_stamp
            .iter()
            .copied()
            .min()
            .unwrap_or(machtlb_sim::Time::ZERO);
        let mut matured = 0;
        let mut i = 0;
        while i < self.pending_commits.len() {
            if self.pending_commits[i].applied_at < oldest_flush {
                let pc = self.pending_commits.swap_remove(i);
                for (vpn, pte) in pc.changes {
                    self.checker.commit(pc.pmap, vpn, pte, now);
                }
                matured += 1;
            } else {
                i += 1;
            }
        }
        matured
    }

    /// The TLB of processor `cpu`.
    ///
    /// # Panics
    ///
    /// Panics if `cpu` is out of range.
    pub fn tlb(&self, cpu: CpuId) -> &Tlb {
        &self.tlbs[cpu.index()]
    }

    /// Whether a responder event on `cpu` should be recorded, per the
    /// sampling configuration.
    pub fn responder_sampled(&self, cpu: CpuId) -> bool {
        match &self.config.responder_sample {
            None => true,
            Some(sample) => sample.contains(&cpu),
        }
    }

    /// Test and bring-up helper: marks `cpu` active without the exit-idle
    /// protocol. Only valid when no shootdown can be in flight.
    pub fn force_active(&mut self, cpu: CpuId) {
        self.idle.remove(cpu);
        self.active.insert(cpu);
    }

    /// Bring-up helper: installs a mapping directly in a pmap's page table
    /// and commits it to the consistency oracle at boot time, as if an
    /// operation had entered it before the measured run began.
    pub fn seed_mapping(
        &mut self,
        pmap: PmapId,
        vpn: machtlb_pmap::Vpn,
        pfn: Pfn,
        prot: machtlb_pmap::Prot,
    ) {
        let pte = machtlb_pmap::Pte::valid(pfn, prot);
        self.pmaps.get_mut(pmap).table_mut().set(vpn, pte);
        self.checker.commit(pmap, vpn, pte, machtlb_sim::Time::ZERO);
    }

    /// All initiator records currently in the trace buffer.
    pub fn initiator_records(&self) -> Vec<machtlb_xpr::InitiatorRecord> {
        self.xpr
            .iter()
            .filter_map(|e| e.as_initiator().copied())
            .collect()
    }

    /// All responder records currently in the trace buffer.
    pub fn responder_records(&self) -> Vec<machtlb_xpr::ResponderRecord> {
        self.xpr
            .iter()
            .filter_map(|e| e.as_responder().copied())
            .collect()
    }
}

impl fmt::Debug for KernelState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("KernelState")
            .field("n_cpus", &self.n_cpus)
            .field("strategy", &self.config.strategy)
            .field("pmaps", &self.pmaps.len())
            .field("active", &self.active)
            .field("idle", &self.idle)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boot_state_is_all_idle() {
        let s = KernelState::new(4, KernelConfig::default());
        assert_eq!(s.idle.len(), 4);
        assert!(s.active.is_empty());
        assert_eq!(s.pmaps.len(), 1);
        assert_eq!(
            s.pmaps.kernel().in_use().len(),
            4,
            "kernel pmap in use everywhere"
        );
    }

    #[test]
    fn create_pmap_assigns_sequential_ids() {
        let mut s = KernelState::new(2, KernelConfig::default());
        let a = s.pmaps.create();
        let b = s.pmaps.create();
        assert_eq!(a, PmapId::new(1));
        assert_eq!(b, PmapId::new(2));
        assert!(s.pmaps.get(a).in_use().is_empty());
    }

    #[test]
    fn phys_mem_round_trips_and_copies() {
        let mut m = PhysMem::default();
        let a = Pfn::new(1);
        let b = Pfn::new(2);
        assert_eq!(m.read_word(a, 0), 0);
        m.write_word(a, 7, 42);
        assert_eq!(m.read_word(a, 7), 42);
        m.copy_page(a, b);
        assert_eq!(m.read_word(b, 7), 42);
        m.write_word(b, 7, 1);
        assert_eq!(m.read_word(a, 7), 42, "copy is by value");
    }

    #[test]
    fn frame_allocator_is_monotonic() {
        let mut f = FrameAllocator::new();
        let a = f.alloc();
        let b = f.alloc();
        assert_ne!(a, b);
        assert_eq!(f.allocated(), 2);
    }

    #[test]
    fn responder_sampling_filters() {
        let cfg = KernelConfig {
            responder_sample: Some(vec![CpuId::new(1), CpuId::new(3)]),
            ..KernelConfig::default()
        };
        let s = KernelState::new(4, cfg);
        assert!(s.responder_sampled(CpuId::new(1)));
        assert!(!s.responder_sampled(CpuId::new(2)));
    }

    #[test]
    #[should_panic(expected = "invalid kernel configuration")]
    fn invalid_strategy_hardware_combo_rejected() {
        let cfg = KernelConfig {
            strategy: Strategy::HardwareRemoteInvalidate,
            ..KernelConfig::default()
        };
        let _ = KernelState::new(2, cfg);
    }

    #[test]
    #[should_panic(expected = "out of page")]
    fn phys_mem_bounds_checked() {
        let m = PhysMem::default();
        let _ = m.read_word(Pfn::new(1), WORDS_PER_PAGE);
    }
}
