//! Multicast fan-out must be a pure delivery optimization: degree 1 is
//! the unicast seed path (and non-shootdown strategies never consult the
//! degree at all — checked bit for bit here), while higher degrees may
//! reshape the timeline but must quiesce exactly the same responder set
//! and leave exactly the same final machine state.

use machtlb::core::{
    build_kernel_machine, drive, try_access, AccessOutcome, Driven, ExitIdleProcess, KernelConfig,
    MemOp, PmapOp, PmapOpProcess, Strategy, SwitchUserPmapProcess,
};
use machtlb::pmap::{PageRange, Pfn, PmapId, Prot, Vaddr, Vpn};
use machtlb::sim::{CostModel, CpuId, Ctx, Dur, Process, RunStatus, Step, Time, Topology};
use machtlb::workloads::{run_tester, RunConfig, TesterConfig};
use proptest::prelude::*;
use std::collections::BTreeSet;

fn kconfig_for(strategy: Strategy, fanout: usize) -> KernelConfig {
    KernelConfig {
        strategy,
        tlb: strategy.multimax_tlb(),
        fanout,
        ..KernelConfig::default()
    }
}

fn config(strategy: Strategy, fanout: usize, seed: u64) -> RunConfig {
    RunConfig {
        n_cpus: 8,
        seed,
        kconfig: kconfig_for(strategy, fanout),
        device_period: None,
        limit: Time::from_micros(60_000_000),
        ..RunConfig::multimax16(seed)
    }
}

/// Strategies that never publish a multicast round: the fan-out degree
/// must be completely inert for them — identical runtime, counters,
/// verdict, and trace records at any setting.
const FANOUT_BLIND_STRATEGIES: [Strategy; 3] = [
    Strategy::BroadcastIpi,
    Strategy::NoStallSoftwareReload,
    Strategy::HardwareRemoteInvalidate,
];

#[test]
fn fanout_degree_is_inert_for_non_shootdown_strategies() {
    let tcfg = TesterConfig {
        children: 5,
        warmup_increments: 30,
    };
    for strategy in FANOUT_BLIND_STRATEGIES {
        let unicast = run_tester(&config(strategy, 1, 31), &tcfg);
        let fanned = run_tester(&config(strategy, 8, 31), &tcfg);
        let label = format!("tester/{strategy}");
        assert_eq!(unicast.mismatch, fanned.mismatch, "{label}: mismatch");
        assert_eq!(
            unicast.report.runtime, fanned.report.runtime,
            "{label}: runtime"
        );
        assert_eq!(
            unicast.report.stats, fanned.report.stats,
            "{label}: kernel stats"
        );
        assert_eq!(
            unicast.report.responders, fanned.report.responders,
            "{label}: responder records"
        );
        assert_eq!(
            unicast.report.user_initiators, fanned.report.user_initiators,
            "{label}: initiator records"
        );
    }
}

#[test]
fn shootdown_multicast_keeps_the_tester_consistent_at_every_degree() {
    let tcfg = TesterConfig {
        children: 5,
        warmup_increments: 30,
    };
    let unicast = run_tester(&config(Strategy::Shootdown, 1, 31), &tcfg);
    assert!(!unicast.mismatch);
    for degree in [2usize, 4, 8] {
        let fanned = run_tester(&config(Strategy::Shootdown, degree, 31), &tcfg);
        let label = format!("tester/shootdown/degree-{degree}");
        assert!(!fanned.mismatch, "{label}: mismatch");
        assert!(fanned.report.consistent, "{label}: verdict");
        assert_eq!(
            unicast.children_dead, fanned.children_dead,
            "{label}: children"
        );
        assert_eq!(
            unicast.report.stats.shootdowns_user, fanned.report.stats.shootdowns_user,
            "{label}: shootdown count"
        );
    }
}

/// A NUMA topology reorders the relay tree (same-node targets first) and
/// reprices every cross-node hop, but the degree must stay a pure
/// delivery knob there too: fanout-blind strategies are bit-identical at
/// any setting, and at degree 1 the shootdown takes the unicast seed
/// path — no multicast round is ever published.
#[test]
fn fanout_degree_stays_inert_under_a_numa_topology() {
    let tcfg = TesterConfig {
        children: 5,
        warmup_increments: 30,
    };
    let numa = |fanout: usize| {
        let mut c = config(Strategy::BroadcastIpi, fanout, 31);
        c.kconfig.topology = Topology::numa(2, 4, Dur::micros(6));
        c
    };
    let unicast = run_tester(&numa(1), &tcfg);
    let fanned = run_tester(&numa(8), &tcfg);
    assert_eq!(unicast.report.runtime, fanned.report.runtime, "runtime");
    assert_eq!(unicast.report.stats, fanned.report.stats, "kernel stats");
    assert_eq!(
        unicast.report.responders, fanned.report.responders,
        "responder records"
    );
    assert_eq!(
        unicast.report.user_initiators, fanned.report.user_initiators,
        "initiator records"
    );
}

#[test]
fn degree_one_on_numa_takes_the_unicast_path() {
    let tcfg = TesterConfig {
        children: 5,
        warmup_increments: 30,
    };
    let mut cfg = config(Strategy::Shootdown, 1, 31);
    cfg.kconfig.topology = Topology::numa(2, 4, Dur::micros(6));
    let out = run_tester(&cfg, &tcfg);
    assert!(!out.mismatch);
    assert!(out.report.consistent);
    assert!(out.report.stats.shootdowns_user > 0, "rounds happened");
    assert_eq!(
        out.report.stats.multicast_rounds, 0,
        "degree 1 must never publish a multicast descriptor"
    );
    // And the cross-node traffic the topology implies is still there —
    // the unicast loop pays the interconnect, it doesn't dodge it.
    assert!(
        out.report.stats.ipis_remote > 0,
        "half the machine is a node away; some IPIs must cross"
    );
}

// --- proptest: responder-set equivalence on a direct kernel machine ---

/// A thread that exits idle, attaches the pmap, and hammers one page
/// until reprotection kills it (the Section 5.1 child in miniature).
#[derive(Debug)]
struct Toucher {
    pmap: PmapId,
    va: Vaddr,
    counter: u64,
    exit_idle: Option<ExitIdleProcess>,
    switch: Option<SwitchUserPmapProcess>,
}

impl Toucher {
    fn new(pmap: PmapId, va: Vaddr) -> Toucher {
        Toucher {
            pmap,
            va,
            counter: 0,
            exit_idle: Some(ExitIdleProcess::new()),
            switch: None,
        }
    }
}

impl Process<machtlb::core::KernelState, ()> for Toucher {
    fn step(&mut self, ctx: &mut Ctx<'_, machtlb::core::KernelState, ()>) -> Step {
        if let Some(exit) = self.exit_idle.as_mut() {
            return match drive(exit, ctx) {
                Driven::Yield(s) => s,
                Driven::Finished(d) => {
                    self.exit_idle = None;
                    self.switch = Some(SwitchUserPmapProcess::new(Some(self.pmap)));
                    Step::Run(d)
                }
            };
        }
        if let Some(sw) = self.switch.as_mut() {
            return match drive(sw, ctx) {
                Driven::Yield(s) => s,
                Driven::Finished(d) => {
                    self.switch = None;
                    Step::Run(d)
                }
            };
        }
        self.counter += 1;
        match try_access(ctx, self.pmap, self.va, MemOp::Write(self.counter)) {
            AccessOutcome::Ok { cost, .. } => Step::Run(cost),
            AccessOutcome::Stall { cost } => Step::Run(cost),
            AccessOutcome::Fault { cost } => Step::Done(cost),
        }
    }

    fn label(&self) -> &'static str {
        "toucher"
    }
}

/// Waits for the counter page to prove the touchers are live, then runs
/// one reprotect under the configured fan-out.
#[derive(Debug)]
struct Operator {
    pmap: PmapId,
    op: Option<PmapOp>,
    watch_pfn: Pfn,
    threshold: u64,
    exit_idle: Option<ExitIdleProcess>,
    running: Option<PmapOpProcess>,
}

impl Process<machtlb::core::KernelState, ()> for Operator {
    fn step(&mut self, ctx: &mut Ctx<'_, machtlb::core::KernelState, ()>) -> Step {
        if let Some(exit) = self.exit_idle.as_mut() {
            return match drive(exit, ctx) {
                Driven::Yield(s) => s,
                Driven::Finished(d) => {
                    self.exit_idle = None;
                    Step::Run(d)
                }
            };
        }
        if self.running.is_none() {
            if ctx.shared.mem.read_word(self.watch_pfn, 0) < self.threshold {
                return Step::Run(ctx.costs().spin_iter);
            }
            self.running = Some(PmapOpProcess::new(
                self.pmap,
                self.op.take().expect("op consumed once"),
            ));
        }
        let op = self.running.as_mut().expect("set above");
        match drive(op, ctx) {
            Driven::Yield(s) => s,
            Driven::Finished(d) => Step::Done(d),
        }
    }

    fn label(&self) -> &'static str {
        "operator"
    }
}

/// Runs one shootdown against the given in-use subset at the given
/// degree on the given topology; returns (responder cpu set,
/// consistent, page prot).
fn quiesce_set(
    n_cpus: usize,
    users: &[usize],
    fanout: usize,
    topology: Topology,
) -> (BTreeSet<u32>, bool, Prot) {
    let kconfig = KernelConfig {
        fanout,
        topology,
        ..KernelConfig::default()
    };
    let mut m = build_kernel_machine(n_cpus, 7, CostModel::multimax(), kconfig);
    let vpn = Vpn::new(0x40);
    let (pmap, pfn) = {
        let s = m.shared_mut();
        let pmap = s.pmaps.create();
        let pfn = s.frames.alloc();
        s.seed_mapping(pmap, vpn, pfn, Prot::READ_WRITE);
        (pmap, pfn)
    };
    for &c in users {
        m.spawn_at(
            CpuId::new(c as u32),
            Time::ZERO,
            Box::new(Toucher::new(pmap, vpn.base())),
        );
    }
    m.spawn_at(
        CpuId::new(0),
        Time::ZERO,
        Box::new(Operator {
            pmap,
            op: Some(PmapOp::Protect {
                range: PageRange::single(vpn),
                prot: Prot::READ,
            }),
            watch_pfn: pfn,
            threshold: 20,
            exit_idle: Some(ExitIdleProcess::new()),
            running: None,
        }),
    );
    let r = m.run_bounded(Time::from_micros(2_000_000), 5_000_000);
    assert_eq!(r.status, RunStatus::Quiescent, "degree {fanout} must drain");
    let s = m.shared();
    let responders: BTreeSet<u32> = s
        .responder_records()
        .iter()
        .map(|r| r.cpu.index() as u32)
        .collect();
    let prot = s.pmaps.get(pmap).table().get(vpn).prot;
    (responders, s.checker.is_consistent(), prot)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// For a random in-use set and a random fan-out degree, the multicast
    /// round acknowledges exactly the processors the unicast scan would
    /// have waited on — same responder set, same verdict, same table.
    #[test]
    fn multicast_quiesces_the_same_responder_set_as_unicast(
        n_cpus in 4usize..12,
        degree in 2usize..8,
        mask in 1u32..2048,
    ) {
        // Cpus 1..n with a bit set in `mask` run touchers; cpu0 operates.
        let mut users: Vec<usize> =
            (1..n_cpus).filter(|c| mask & (1 << (c - 1)) != 0).collect();
        if users.is_empty() {
            // The mask missed every slot; keep the round non-trivial.
            users.push(1);
        }
        let (uni, uni_ok, uni_prot) = quiesce_set(n_cpus, &users, 1, Topology::default());
        let (multi, multi_ok, multi_prot) = quiesce_set(n_cpus, &users, degree, Topology::default());
        prop_assert!(uni_ok);
        prop_assert!(multi_ok);
        prop_assert_eq!(uni_prot, Prot::READ);
        prop_assert_eq!(multi_prot, Prot::READ);
        prop_assert_eq!(&uni, &multi,
            "degree {} must quiesce the same responders as unicast", degree);
    }

    /// Same equivalence on a NUMA machine: the node-first relay order and
    /// interconnect pricing reshape the timeline, never the responder set.
    #[test]
    fn numa_multicast_quiesces_the_same_responder_set(
        degree in 2usize..8,
        mask in 1u32..2048,
    ) {
        let n_cpus = 12;
        let topo = Topology::numa(3, 4, Dur::micros(6));
        let mut users: Vec<usize> =
            (1..n_cpus).filter(|c| mask & (1 << (c - 1)) != 0).collect();
        if users.is_empty() {
            users.push(1);
        }
        let (uni, uni_ok, uni_prot) = quiesce_set(n_cpus, &users, 1, topo);
        let (multi, multi_ok, multi_prot) = quiesce_set(n_cpus, &users, degree, topo);
        prop_assert!(uni_ok);
        prop_assert!(multi_ok);
        prop_assert_eq!(uni_prot, Prot::READ);
        prop_assert_eq!(multi_prot, Prot::READ);
        prop_assert_eq!(&uni, &multi,
            "degree {} must quiesce the same responders as unicast", degree);
    }
}
