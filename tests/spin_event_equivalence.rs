//! Event-driven waiting must be invisible: a machine whose spinners park
//! on wait channels (the default) must produce bit-identical results to
//! the stepped oracle (`Machine::set_stepped_waits(true)`) that actually
//! executes every spin iteration — same simulated runtime, same kernel and
//! VM counters, same consistency verdict, same xpr event stream, same bus
//! traffic, same per-processor clocks and step counts.

use machtlb::core::{HasKernel, KernelConfig, Strategy};
use machtlb::sim::{CostModel, CpuId, CpuStats, RunStatus, Time};
use machtlb::workloads::{
    build_workload_machine, install_camelot, install_machbuild, install_tester, run_app, AppReport,
    AppShared, CamelotConfig, MachBuildConfig, RunConfig, TesterConfig, WlMachine,
};

fn config(strategy: Strategy, seed: u64) -> RunConfig {
    RunConfig {
        n_cpus: 8,
        seed,
        kconfig: KernelConfig {
            strategy,
            tlb: strategy.multimax_tlb(),
            ..KernelConfig::default()
        },
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

/// Runs the application `install` puts on `config`'s machine to
/// completion, stepping every spin iteration (the oracle) or parking the
/// waiters (the default), and returns the report, how the run stopped,
/// and the finished machine.
fn run(
    config: &RunConfig,
    stepped: bool,
    install: impl FnOnce(&mut WlMachine),
) -> (AppReport, RunStatus, WlMachine) {
    let mut m = build_workload_machine(config, AppShared::None);
    m.set_stepped_waits(stepped);
    install(&mut m);
    let (report, status) = run_app(&mut m, config.limit);
    assert!(
        m.shared().app.is_done(),
        "{} did not finish (stepped={stepped}, status {status:?})",
        report.name
    );
    (report, status, m)
}

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
        "{label}: user-pmap initiator records (the measured shootdown)"
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

/// Runs the tester on `config`'s machine in both modes and requires the
/// tester's own verdict and every report observable to match.
fn assert_tester_identical(label: &str, config: &RunConfig, tcfg: &TesterConfig) {
    let (stepped, _, sm) = run(config, true, |m| install_tester(m, tcfg));
    let (event, _, em) = run(config, false, |m| install_tester(m, tcfg));
    let (st, et) = (sm.shared().tester(), em.shared().tester());
    assert_eq!(st.mismatch, et.mismatch, "{label}: mismatch");
    assert_eq!(st.children_dead, et.children_dead, "{label}: children");
    assert_reports_equal(label, &stepped, &event);
}

#[test]
fn tester_is_identical_under_both_modes_for_every_strategy() {
    let tcfg = TesterConfig {
        children: 5,
        warmup_increments: 30,
    };
    for strategy in CORRECT_STRATEGIES {
        assert_tester_identical(&format!("tester/{strategy}"), &config(strategy, 31), &tcfg);
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
        let c = config(strategy, 33);
        let (stepped, _, _) = run(&c, true, |m| install_machbuild(m, &cfg));
        let (event, _, _) = run(&c, false, |m| install_machbuild(m, &cfg));
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
        let c = config(strategy, 35);
        let (stepped, _, _) = run(&c, true, |m| install_camelot(m, &cfg));
        let (event, _, _) = run(&c, false, |m| install_camelot(m, &cfg));
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
    let c = config(Strategy::Shootdown, 31);
    let tcfg = TesterConfig {
        children: 5,
        warmup_increments: 30,
    };
    let (_, s_status, sm) = run(&c, true, |m| install_tester(m, &tcfg));
    let (_, e_status, em) = run(&c, false, |m| install_tester(m, &tcfg));
    let (s_fp, e_fp) = (machine_fingerprint(&sm), machine_fingerprint(&em));
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
    let mut c = config(Strategy::Shootdown, 41);
    c.n_cpus = 32;
    c.costs = CostModel::multimax();
    let tcfg = TesterConfig {
        children: 31,
        warmup_increments: 10,
    };
    assert_tester_identical("tester/32cpu", &c, &tcfg);
}

/// The published-round path (fanout 8): the leader's RoundWait, the
/// responders' RoundStall and, with batching, the joiners' wait on the
/// leader's unlock all block, so the stepped oracle charges each failed
/// check exactly like the event waiter's blocking step.
#[test]
fn published_rounds_are_identical_under_both_modes() {
    for n_cpus in [8usize, 32] {
        for batch in [false, true] {
            let mut c = config(Strategy::Shootdown, 43);
            c.n_cpus = n_cpus;
            c.kconfig.fanout = 8;
            c.kconfig.batch_initiators = batch;
            c.kconfig.pmap_shards = if batch { 4 } else { 1 };
            let tcfg = TesterConfig {
                children: n_cpus as u32 - 1,
                warmup_increments: 10,
            };
            let label = format!("tester/fanout8/{n_cpus}cpu/batch={batch}");
            assert_tester_identical(&label, &c, &tcfg);
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

    let run = |stepped: bool, seed: u64| {
        let mut m = build_system_machine(4, seed, CostModel::multimax(), KernelConfig::default());
        m.set_stepped_waits(stepped);
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
        let stepped = run(true, seed);
        let event = run(false, seed);
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
