//! Membership safety under wrongful eviction: the generation handshake.
//!
//! When the watchdog evicts a responder that is merely slow, two things
//! must hold. The evicted processor's *late acknowledgement* must be
//! rejected — the eviction's excusal already completed the round, and a
//! stale-generation ack touching round state would double-count it. And
//! the evicted processor must *detect* its own eviction and run the
//! fenced rejoin before touching another translation.
//!
//! The first test stages the race deterministically: a hand-published
//! round, a responder mid-service, and an eviction landing in the window
//! between the responder's generation sample and its acknowledgement
//! step. The property test then sweeps fanout and topology with the
//! wrongful-eviction chaos plan, asserting a stale ack never completes a
//! quiescence round (no violations, no unrecovered give-ups) anywhere in
//! the space.

use machtlb::core::{
    build_kernel_machine, chaos_kconfig, evict, plan_catalog, run_schedule, FaultSchedule,
    KernelState, ResponderProcess, ShootdownRound, Survival,
};
use machtlb::pmap::{CpuSet, PageRange, Vpn};
use machtlb::sim::{CostModel, CpuId, Ctx, Dur, Process, Step, Time, Topology};
use proptest::prelude::*;

/// Declares `target` dead exactly once, at the instant this process was
/// spawned for — the watchdog's eviction, detached from its usual
/// initiator so the test controls the timing to the nanosecond.
#[derive(Debug)]
struct Evictor {
    target: CpuId,
    fired: bool,
}

impl Process<KernelState, ()> for Evictor {
    fn step(&mut self, ctx: &mut Ctx<'_, KernelState, ()>) -> Step {
        if self.fired {
            return Step::Done(Dur::nanos(1));
        }
        self.fired = true;
        let me = ctx.cpu_id;
        let now = ctx.now;
        let _completed = evict(ctx.shared, me, self.target, now);
        Step::Run(Dur::nanos(1))
    }

    fn label(&self) -> &'static str {
        "test-evictor"
    }
}

/// The deterministic race: the eviction lands after the responder's
/// entry-generation sample but before its acknowledgement step. The ack
/// must be rejected by the handshake (`late_acks_rejected`), the round
/// must be untouched by it (the excusal already completed it — a stale
/// decrement would underflow `remaining` and panic), and the responder
/// must self-fence and rejoin.
#[test]
fn a_late_ack_is_rejected_and_the_evicted_cpu_self_fences() {
    let costs = CostModel::multimax();
    let mut m = build_kernel_machine(2, 0, costs, chaos_kconfig());
    let responder = CpuId::new(1);
    let t0 = Time::from_micros(10);

    let pmap = {
        let s = m.shared_mut();
        let pmap = s.pmaps.create();
        s.pmaps.get_mut(pmap).mark_in_use(responder);
        let mut pending = CpuSet::new(2);
        pending.insert(responder);
        let mut cleanup = CpuSet::new(2);
        cleanup.insert(responder);
        s.rounds.push(ShootdownRound {
            id: 1,
            pmap,
            initiator: CpuId::new(0),
            ranges: vec![PageRange::single(Vpn::new(0x40))],
            extras: Vec::new(),
            pending,
            remaining: 1,
            cleanup,
            cleanup_remaining: 1,
            frozen: true,
            unlocked: true,
            shards: vec![0],
            joiners: Vec::new(),
        });
        pmap
    };

    m.spawn_at(responder, t0, Box::new(ResponderProcess::new()));
    // The responder's Enter step runs at t0 and samples the generation
    // (850ns under multimax); its Deactivate step runs at t0+850ns and —
    // the round still being pending — routes to the acknowledgement
    // phase, which executes one bus write later. An eviction at t0+900ns
    // lands squarely between the routing decision and the ack: the
    // excusal completes the round, and the responder arrives at RoundAck
    // holding a stale generation.
    m.spawn_at(
        CpuId::new(0),
        t0 + Dur::nanos(900),
        Box::new(Evictor {
            target: responder,
            fired: false,
        }),
    );

    m.run_bounded(Time::from_micros(50_000), 1_000_000);
    let s = m.shared();
    assert_eq!(
        s.stats.late_acks_rejected, 1,
        "the stale-generation ack must be rejected: {:?}",
        s.stats
    );
    assert_eq!(s.stats.self_fences, 1, "{:?}", s.stats);
    assert_eq!(s.stats.fenced_rejoins, 1, "{:?}", s.stats);
    assert_eq!(s.stats.evictions, 1, "{:?}", s.stats);
    assert!(
        !s.evicted[responder.index()],
        "the self-fence ends with a rejoin"
    );
    // The excusal completed and reclaimed the round; the rejected ack
    // left no trace on round state.
    assert!(s.rounds.is_empty(), "rounds: {:?}", s.rounds);
    assert!(s.active.contains(responder), "rejoined the active set");
    let _ = pmap;
}

/// With fencing disabled the same race resumes unsoundly on purpose —
/// that polarity is covered by the `wrongful-evict-no-fence` chaos plan;
/// here the hardened configuration must hold everywhere in the sweep.
fn wrongful_eviction_holds(n_cpus: usize, seed: u64, fanout: usize, numa: bool) {
    let plan = plan_catalog(n_cpus)
        .into_iter()
        .find(|p| p.name == "wrongful-evict")
        .expect("catalog has the wrongful-eviction plan");
    let topology = if numa {
        Topology::numa(2, n_cpus / 2, Dur::micros(6))
    } else {
        Topology::default()
    };
    let plan = FaultSchedule {
        seed,
        fanout,
        ..plan
    };
    let o = run_schedule(&plan.with_topology(topology));
    assert_eq!(
        o.violations, 0,
        "fanout {fanout} numa {numa} seed {seed}: a stale ack or stale \
         translation escaped: {o:?}"
    );
    assert!(
        o.completed,
        "fanout {fanout} numa {numa} seed {seed}: {o:?}"
    );
    assert_ne!(o.survival, Survival::DetectedFatal, "{o:?}");
    assert!(
        o.stats.evictions >= 1,
        "the stall must trigger eviction: {o:?}"
    );
    assert_eq!(
        o.stats.watchdog_gaveup, o.stats.evictions,
        "every give-up absorbed — no round completed by a stale ack: {o:?}"
    );
    assert!(
        o.stats.self_fences >= 1,
        "the evicted-but-alive processor must detect its eviction: {o:?}"
    );
    assert!(o.stats.fenced_rejoins >= 1, "{o:?}");
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        ..ProptestConfig::default()
    })]

    /// An evicted processor's stale-generation acknowledgement can never
    /// complete a quiescence round, across fanout 1/4/8, flat and NUMA
    /// topologies, and seeds.
    #[test]
    fn stale_acks_never_complete_rounds(
        seed in 1u64..64,
        fanout in prop_oneof![Just(1usize), Just(4usize), Just(8usize)],
        numa in any::<bool>(),
    ) {
        wrongful_eviction_holds(8, seed, fanout, numa);
    }
}
