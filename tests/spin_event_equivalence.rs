//! Event-driven waiting must be invisible: a machine whose spinners park
//! on wait channels ([`SpinMode::Event`]) must produce bit-identical
//! results to the stepped oracle ([`SpinMode::Stepped`]) that actually
//! executes every spin iteration — same simulated runtime, same kernel and
//! VM counters, same consistency verdict, same xpr event stream, same bus
//! traffic, same per-processor clocks and step counts.

use machtlb::core::{HasKernel, KernelConfig, SpinMode, Strategy};
use machtlb::sim::{CostModel, CpuId, CpuStats, Time};
use machtlb::tlb::{ReloadPolicy, TlbConfig, WritebackPolicy};
use machtlb::workloads::{
    build_workload_machine, install_tester, run_camelot, run_machbuild, run_tester, AppReport,
    AppShared, CamelotConfig, MachBuildConfig, RunConfig, TesterConfig, WlMachine,
};

fn kconfig_for(strategy: Strategy, mode: SpinMode) -> KernelConfig {
    let tlb = match strategy {
        Strategy::HardwareRemoteInvalidate => TlbConfig {
            writeback: WritebackPolicy::Interlocked,
            ..TlbConfig::multimax()
        },
        Strategy::NoStallSoftwareReload => TlbConfig {
            reload: ReloadPolicy::Software,
            writeback: WritebackPolicy::None,
            ..TlbConfig::multimax()
        },
        _ => TlbConfig::multimax(),
    };
    KernelConfig {
        strategy,
        tlb,
        spin_mode: mode,
        ..KernelConfig::default()
    }
}

fn config(strategy: Strategy, mode: SpinMode, seed: u64) -> RunConfig {
    RunConfig {
        n_cpus: 8,
        seed,
        kconfig: kconfig_for(strategy, mode),
        device_period: None,
        limit: Time::from_micros(60_000_000),
        ..RunConfig::multimax16(seed)
    }
}

const CORRECT_STRATEGIES: [Strategy; 4] = [
    Strategy::Shootdown,
    Strategy::BroadcastIpi,
    Strategy::NoStallSoftwareReload,
    Strategy::HardwareRemoteInvalidate,
];

/// Every observable an [`AppReport`] carries must match across modes.
fn assert_reports_equal(label: &str, stepped: &AppReport, event: &AppReport) {
    assert_eq!(stepped.runtime, event.runtime, "{label}: runtime");
    assert_eq!(stepped.stats, event.stats, "{label}: kernel stats");
    assert_eq!(stepped.vm_stats, event.vm_stats, "{label}: vm stats");
    assert_eq!(stepped.consistent, event.consistent, "{label}: verdict");
    assert_eq!(stepped.violations, event.violations, "{label}: violations");
    assert_eq!(
        stepped.kernel_initiators, event.kernel_initiators,
        "{label}: kernel-pmap initiator records"
    );
    assert_eq!(
        stepped.user_initiators, event.user_initiators,
        "{label}: user-pmap initiator records"
    );
    assert_eq!(
        stepped.responders, event.responders,
        "{label}: responder records"
    );
    assert_eq!(stepped.tlb_flushes, event.tlb_flushes, "{label}: flushes");
    assert_eq!(
        stepped.tlb_epoch_flushes, event.tlb_epoch_flushes,
        "{label}: epoch flushes"
    );
    assert_eq!(stepped.tlb_misses, event.tlb_misses, "{label}: tlb misses");
}

#[test]
fn tester_is_identical_under_both_modes_for_every_strategy() {
    for strategy in CORRECT_STRATEGIES {
        let tcfg = TesterConfig {
            children: 5,
            warmup_increments: 30,
        };
        let stepped = run_tester(&config(strategy, SpinMode::Stepped, 31), &tcfg);
        let event = run_tester(&config(strategy, SpinMode::Event, 31), &tcfg);
        let label = format!("tester/{strategy}");
        assert_eq!(stepped.mismatch, event.mismatch, "{label}: mismatch");
        assert_eq!(
            stepped.children_dead, event.children_dead,
            "{label}: children"
        );
        assert_eq!(
            stepped.shootdown, event.shootdown,
            "{label}: measured shootdown"
        );
        assert_reports_equal(&label, &stepped.report, &event.report);
    }
}

#[test]
fn machbuild_is_identical_under_both_modes_for_every_strategy() {
    let cfg = MachBuildConfig {
        jobs: 8,
        compute_chunks: (4, 16),
        kernel_ops_per_job: (2, 5),
        ..MachBuildConfig::default()
    };
    for strategy in CORRECT_STRATEGIES {
        let stepped = run_machbuild(&config(strategy, SpinMode::Stepped, 33), &cfg);
        let event = run_machbuild(&config(strategy, SpinMode::Event, 33), &cfg);
        assert_reports_equal(&format!("machbuild/{strategy}"), &stepped, &event);
    }
}

#[test]
fn camelot_is_identical_under_both_modes_for_every_strategy() {
    let cfg = CamelotConfig {
        clients: 3,
        server_threads: 2,
        transactions_per_client: 5,
        db_pages: 48,
        ..CamelotConfig::default()
    };
    for strategy in CORRECT_STRATEGIES {
        let stepped = run_camelot(&config(strategy, SpinMode::Stepped, 35), &cfg);
        let event = run_camelot(&config(strategy, SpinMode::Event, 35), &cfg);
        assert_reports_equal(&format!("camelot/{strategy}"), &stepped, &event);
    }
}

/// Everything the machine itself can report, beyond the workload reports:
/// per-processor clocks, step counts, busy time, and the exact bus
/// transaction history.
fn machine_fingerprint(m: &WlMachine) -> (Vec<(Time, CpuStats)>, u64, machtlb::sim::BusStats) {
    let per_cpu = m.cpus().map(|c| (c.clock(), c.stats())).collect();
    (per_cpu, m.total_steps(), m.bus_stats())
}

#[test]
fn machine_state_is_identical_down_to_clocks_and_bus_traffic() {
    let run = |mode: SpinMode| {
        let c = config(Strategy::Shootdown, mode, 31);
        let mut m = build_workload_machine(&c, AppShared::None);
        install_tester(
            &mut m,
            &TesterConfig {
                children: 5,
                warmup_increments: 30,
            },
        );
        let status = machtlb::workloads::run_until_done(&mut m, c.limit, |s| {
            let t = s.tester();
            t.mismatch.is_some() && t.children_dead == 5
        });
        (status, machine_fingerprint(&m))
    };
    let (s_status, s_fp) = run(SpinMode::Stepped);
    let (e_status, e_fp) = run(SpinMode::Event);
    assert_eq!(s_status, e_status, "run status");
    assert_eq!(s_fp.1, e_fp.1, "total steps (backfill must count)");
    assert_eq!(s_fp.2, e_fp.2, "bus transaction history");
    for (i, (s, e)) in s_fp.0.iter().zip(&e_fp.0).enumerate() {
        assert_eq!(s, e, "cpu{i} clock/steps/busy");
    }
}

/// The scaled-up point the tentpole targets: with many processors spinning
/// through a kernel-pmap shootdown storm, event mode must still be
/// bit-identical — and must get there executing far fewer host steps.
#[test]
fn wide_machine_is_identical_and_cheaper_to_simulate() {
    let run = |mode: SpinMode| {
        let mut c = config(Strategy::Shootdown, mode, 41);
        c.n_cpus = 32;
        c.costs = CostModel::multimax();
        let tcfg = TesterConfig {
            children: 31,
            warmup_increments: 10,
        };
        let out = run_tester(&c, &tcfg);
        out.report
    };
    let stepped = run(SpinMode::Stepped);
    let event = run(SpinMode::Event);
    assert_reports_equal("tester/32cpu", &stepped, &event);
}

/// The published-round path (fanout 8): the leader's RoundWait, the
/// responders' RoundStall and, with batching, the joiners' wait on the
/// leader's unlock all block, so the stepped oracle charges each failed
/// check exactly like the event waiter's blocking step.
#[test]
fn published_rounds_are_identical_under_both_modes() {
    for n_cpus in [8usize, 32] {
        for batch in [false, true] {
            let run = |mode: SpinMode| {
                let mut c = config(Strategy::Shootdown, mode, 43);
                c.n_cpus = n_cpus;
                c.kconfig.fanout = 8;
                c.kconfig.batch_initiators = batch;
                c.kconfig.pmap_shards = if batch { 4 } else { 1 };
                let tcfg = TesterConfig {
                    children: n_cpus as u32 - 1,
                    warmup_increments: 10,
                };
                run_tester(&c, &tcfg)
            };
            let stepped = run(SpinMode::Stepped);
            let event = run(SpinMode::Event);
            let label = format!("tester/fanout8/{n_cpus}cpu/batch={batch}");
            assert_eq!(stepped.mismatch, event.mismatch, "{label}: mismatch");
            assert_eq!(
                stepped.shootdown, event.shootdown,
                "{label}: measured shootdown"
            );
            assert_reports_equal(&label, &stepped.report, &event.report);
        }
    }
}

/// A stress mix that drives the op-layer Lock/QueueScan/Wait spins, the
/// responder spins, and the VM map-lock spins at once, then diffs the two
/// modes' complete machine state.
#[test]
fn system_machine_scripts_are_identical_under_both_modes() {
    use machtlb::pmap::{PageRange, Prot, Vpn};
    use machtlb::vm::{build_system_machine, Inheritance, SystemState, VmEntry};

    const BASE: u64 = machtlb::vm::USER_SPAN_START + 0x80;
    const WINDOW: u64 = 24;

    let run = |mode: SpinMode, seed: u64| {
        let kconfig = KernelConfig {
            spin_mode: mode,
            ..KernelConfig::default()
        };
        let mut m = build_system_machine(4, seed, CostModel::multimax(), kconfig);
        let task = {
            let s = m.shared_mut();
            let SystemState { kernel, vm } = s;
            let task = vm.create_task(kernel);
            let obj = vm.objects.create();
            vm.task_mut(task)
                .map_mut()
                .insert(VmEntry {
                    range: PageRange::new(Vpn::new(BASE), WINDOW),
                    prot: Prot::READ_WRITE,
                    object: obj,
                    offset: 0,
                    cow: false,
                    inheritance: Inheritance::Copy,
                })
                .expect("window fits");
            task
        };
        for cpu in 1..4u32 {
            m.spawn_at(
                CpuId::new(cpu),
                Time::ZERO,
                Box::new(equiv_script::ScriptThread::new(task, cpu, seed)),
            );
        }
        let r = m.run_bounded(Time::from_micros(60_000_000), 100_000_000);
        assert_eq!(r.status, machtlb::sim::RunStatus::Quiescent, "must finish");
        let per_cpu: Vec<(Time, CpuStats)> = m.cpus().map(|c| (c.clock(), c.stats())).collect();
        let k = m.shared().kernel();
        (
            per_cpu,
            r.steps,
            m.bus_stats(),
            k.stats,
            k.checker.is_consistent(),
            k.checker.checks(),
        )
    };

    for seed in [7u64, 19, 101] {
        let stepped = run(SpinMode::Stepped, seed);
        let event = run(SpinMode::Event, seed);
        assert_eq!(stepped, event, "seed {seed}: full machine state");
    }
}

/// The script body for the system-machine equivalence test: a fixed
/// per-cpu mix of writes, reprotections, deallocations, and forks over a
/// shared task, deterministically derived from (cpu, seed).
mod equiv_script {
    use machtlb::core::{drive, Driven, ExitIdleProcess, MemOp, SwitchUserPmapProcess};
    use machtlb::pmap::{PageRange, Prot, Vaddr, Vpn};
    use machtlb::sim::{Ctx, Dur, Process, Step};
    use machtlb::vm::{
        SystemState, TaskId, UserAccess, UserAccessResult, UserAccessStep, VmOp, VmOpProcess,
    };

    const BASE: u64 = machtlb::vm::USER_SPAN_START + 0x80;
    const WINDOW: u64 = 24;

    #[derive(Debug)]
    pub struct ScriptThread {
        task: TaskId,
        mix: u64,
        idx: usize,
        exit_idle: Option<ExitIdleProcess>,
        switch: Option<SwitchUserPmapProcess>,
        op: Option<VmOpProcess>,
        access: Option<UserAccess>,
    }

    impl ScriptThread {
        pub fn new(task: TaskId, cpu: u32, seed: u64) -> ScriptThread {
            ScriptThread {
                task,
                mix: seed
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(u64::from(cpu)),
                idx: 0,
                exit_idle: Some(ExitIdleProcess::new()),
                switch: None,
                op: None,
                access: None,
            }
        }

        fn next_word(&mut self) -> u64 {
            // SplitMix64: deterministic, identical across modes.
            self.mix = self.mix.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.mix;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    impl Process<SystemState, ()> for ScriptThread {
        fn step(&mut self, ctx: &mut Ctx<'_, SystemState, ()>) -> Step {
            if let Some(e) = self.exit_idle.as_mut() {
                return match drive(e, ctx) {
                    Driven::Yield(s) => s,
                    Driven::Finished(d) => {
                        self.exit_idle = None;
                        let pmap = ctx.shared.vm.pmap_of(self.task);
                        self.switch = Some(SwitchUserPmapProcess::new(Some(pmap)));
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
            if let Some(op) = self.op.as_mut() {
                return match drive(op, ctx) {
                    Driven::Yield(s) => s,
                    Driven::Finished(d) => {
                        self.op = None;
                        self.idx += 1;
                        Step::Run(d)
                    }
                };
            }
            if let Some(acc) = self.access.as_mut() {
                return match acc.step(ctx) {
                    UserAccessStep::Yield(s) => s,
                    UserAccessStep::Finished(result, d) => {
                        self.access = None;
                        self.idx += 1;
                        let _ = matches!(result, UserAccessResult::Killed);
                        Step::Run(d)
                    }
                };
            }
            if self.idx >= 20 {
                return Step::Done(Dur::micros(1));
            }
            let w = self.next_word();
            let page = w % WINDOW;
            let len = 1 + (w >> 8) % 4;
            match (w >> 16) % 6 {
                0 | 1 => {
                    let va = Vaddr::new((BASE + page) * 4096 + 16);
                    self.access = Some(UserAccess::new(self.task, va, MemOp::Write(w % 1000)));
                }
                2 => {
                    let va = Vaddr::new((BASE + page) * 4096 + 16);
                    self.access = Some(UserAccess::new(self.task, va, MemOp::Read));
                }
                3 => {
                    let len = len.min(WINDOW - page);
                    let prot = if w & 1 == 0 {
                        Prot::READ_WRITE
                    } else {
                        Prot::READ
                    };
                    self.op = Some(VmOpProcess::new(VmOp::Protect {
                        task: self.task,
                        range: PageRange::new(Vpn::new(BASE + page), len),
                        prot,
                    }));
                }
                4 => {
                    self.op = Some(VmOpProcess::new(VmOp::Fork { parent: self.task }));
                }
                _ => {
                    self.idx += 1;
                    return Step::Run(Dur::micros(10 + w % 200));
                }
            }
            Step::Run(Dur::micros(1))
        }

        fn label(&self) -> &'static str {
            "equiv-script"
        }
    }
}
