//! Background interrupt streams against the eager schedule they replaced.
//!
//! Device activity and the timer-delayed technique's periodic flush run
//! as lazily generated interrupt streams: one queued arrival per
//! processor, the next generated when it lands. Before streams, every
//! arrival up to the run limit was queued at setup (about 384,600 heap
//! entries for 120 simulated seconds on 16 processors at 5 ms). The
//! oracle below is that eager loop, re-implemented over the public
//! `schedule_interrupt` and `rng_mut`. Every case runs both ways and must
//! agree on the kernel counters, runtime, bus statistics, scheduler steps
//! and the machine RNG, at setup and at the end.

use machtlb::bench::scaled_costs;
use machtlb::core::{
    install_kernel_handlers, plan_catalog, run_chaos_with, stall_report, FaultSchedule,
    KernelMachine, KernelStats, Strategy, DEVICE_VECTOR, TIMER_FLUSH_VECTOR,
};
use machtlb::sim::{BusStats, CpuId, Dur, Machine, MachineConfig, Time, Vector};
use machtlb::vm::SystemState;
use machtlb::workloads::{
    build_workload_machine, install_camelot, install_machbuild, install_tester, run_app, AppShared,
    CamelotConfig, Dispatcher, MachBuildConfig, RunConfig, TesterConfig, WlMachine, WlState,
};
use rand::rngs::SmallRng;
use rand::Rng;

/// The eager device schedule: every arrival up to `until` queued now.
fn eager_device_interrupts<S, P>(m: &mut Machine<S, P>, period: Dur, until: Time) {
    for c in 0..m.n_cpus() {
        let mut t = Time::ZERO + period.mul_f64(m.rng_mut().gen_range(0.0..2.0));
        while t <= until {
            m.schedule_interrupt(CpuId::new(c as u32), DEVICE_VECTOR, t);
            t += period.mul_f64(m.rng_mut().gen_range(0.05..1.95));
        }
    }
}

/// The eager timer-flush schedule: clocked, phase-offset per processor.
fn eager_timer_flushes<S, P>(m: &mut Machine<S, P>, period: Dur, until: Time) {
    let n = m.n_cpus();
    for c in 0..n {
        let mut t = Time::ZERO + period.mul_f64((c + 1) as f64 / (n + 1) as f64);
        while t <= until {
            m.schedule_interrupt(CpuId::new(c as u32), TIMER_FLUSH_VECTOR, t);
            t += period;
        }
    }
}

/// `build_workload_machine` with the eager schedules in place of the
/// streams, in the same order.
fn eager_workload_machine(config: &RunConfig) -> WlMachine {
    let state = WlState::new(
        SystemState::new(config.n_cpus, config.kconfig.clone()),
        AppShared::None,
    );
    let mconfig = MachineConfig {
        n_cpus: config.n_cpus,
        seed: config.seed,
        costs: config.costs.clone(),
        topology: state.sys.kernel.config.topology,
    };
    let mut m = Machine::new(mconfig, state, |_| ());
    install_kernel_handlers(&mut m);
    for c in 0..config.n_cpus {
        m.spawn_at(
            CpuId::new(c as u32),
            Time::ZERO,
            Box::new(Dispatcher::new()),
        );
    }
    if let Some(period) = config.device_period {
        eager_device_interrupts(&mut m, period, config.limit);
    }
    if config.kconfig.strategy == Strategy::TimerDelayed {
        eager_timer_flushes(&mut m, config.timer_flush_period, config.limit);
    }
    m
}

/// Everything a run must reproduce bit-identically.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    setup_rng: SmallRng,
    stats: KernelStats,
    runtime: Dur,
    bus: BusStats,
    steps: u64,
    clocks: Vec<Time>,
    rng: SmallRng,
}

/// Background arrivals queued per processor for `vector`, at most.
fn max_queued(pending: &[(Time, CpuId, Vector)], n_cpus: usize, vector: Vector) -> usize {
    (0..n_cpus)
        .map(|c| {
            pending
                .iter()
                .filter(|&&(_, cpu, v)| cpu.index() == c && v == vector)
                .count()
        })
        .max()
        .unwrap_or(0)
}

fn fingerprint(config: &RunConfig, eager: bool, install: &dyn Fn(&mut WlMachine)) -> Fingerprint {
    let mut m = if eager {
        eager_workload_machine(config)
    } else {
        build_workload_machine(config, AppShared::None)
    };
    let queued = max_queued(&m.pending_interrupts(), config.n_cpus, DEVICE_VECTOR);
    assert!(
        eager || queued <= 1,
        "{queued} device arrivals queued on one cpu"
    );
    let setup_rng = m.rng_mut().clone();
    install(&mut m);
    let (report, status) = run_app(&mut m, config.limit);
    assert!(m.shared().app.is_done(), "did not finish ({status:?})");
    assert!(report.consistent, "consistency violations");
    Fingerprint {
        setup_rng,
        stats: report.stats,
        runtime: report.runtime,
        bus: report.bus,
        steps: m.total_steps(),
        clocks: m.cpus().map(|c| c.clock()).collect(),
        rng: m.rng_mut().clone(),
    }
}

fn assert_equivalent(what: &str, config: &RunConfig, install: &dyn Fn(&mut WlMachine)) {
    let lazy = fingerprint(config, false, install);
    let eager = fingerprint(config, true, install);
    assert!(lazy.steps > 0, "{what}: nothing ran");
    assert_eq!(
        lazy, eager,
        "{what}: streams diverged from the eager oracle"
    );
}

/// The Table 2/3 harness: 16 processors, 5 ms devices, 120 s limit.
fn paper_config(seed: u64) -> RunConfig {
    RunConfig {
        device_period: Some(Dur::millis(5)),
        limit: Time::from_micros(120_000_000),
        ..RunConfig::multimax16(seed)
    }
}

#[test]
fn machbuild_matches_the_eager_schedule() {
    let cfg = MachBuildConfig::default();
    assert_equivalent("machbuild@16", &paper_config(1), &|m| {
        install_machbuild(m, &cfg)
    });
}

#[test]
fn camelot_matches_the_eager_schedule() {
    let cfg = CamelotConfig::default();
    assert_equivalent("camelot@16", &paper_config(2), &|m| {
        install_camelot(m, &cfg)
    });
}

#[test]
fn camelot64_with_residency_matches_the_eager_schedule() {
    let mut config = RunConfig {
        n_cpus: 64,
        costs: scaled_costs(64),
        ..RunConfig::multimax16(3)
    };
    config.kconfig.residency = true;
    let cfg = CamelotConfig {
        clients: 12,
        server_threads: 6,
        transactions_per_client: 4,
        db_pages: 96,
        ..CamelotConfig::default()
    };
    assert_equivalent("camelot@64", &config, &|m| install_camelot(m, &cfg));
}

#[test]
fn tester_matches_the_eager_schedule() {
    let config = RunConfig {
        limit: Time::from_micros(30_000_000),
        ..RunConfig::multimax16(4)
    };
    let tcfg = TesterConfig {
        children: 8,
        warmup_increments: 40,
    };
    assert_equivalent("tester k=8", &config, &|m| install_tester(m, &tcfg));
}

#[test]
fn timer_delayed_flush_stream_matches_the_eager_schedule() {
    // Device and timer streams together: the two reserved seq blocks
    // interleave with each other and with the workload's deliveries.
    let mut config = RunConfig {
        n_cpus: 8,
        device_period: Some(Dur::millis(5)),
        timer_flush_period: Dur::millis(2),
        limit: Time::from_micros(60_000_000),
        ..RunConfig::multimax16(61)
    };
    config.kconfig.strategy = Strategy::TimerDelayed;
    config.kconfig.tlb = Strategy::TimerDelayed.multimax_tlb();
    let tcfg = TesterConfig {
        children: 4,
        warmup_increments: 30,
    };
    assert_equivalent("timer-delayed tester", &config, &|m| {
        install_tester(m, &tcfg)
    });
}

/// A catalog plan run both ways: device arrivals keep latching on (and
/// generating successors for) a halted or offline processor.
fn assert_chaos_equivalent(plan_name: &str) {
    let n_cpus = 8;
    let plan = plan_catalog(n_cpus)
        .into_iter()
        .find(|p| p.name == plan_name)
        .unwrap_or_else(|| panic!("no catalog plan {plan_name}"));
    let cfg = FaultSchedule { seed: 1, ..plan }.compile();
    let run = |background: fn(&mut KernelMachine, Dur, Time)| {
        let mut setup_rng = None;
        let (outcome, mut m) = run_chaos_with(&cfg, |m, period, until| {
            background(m, period, until);
            setup_rng = Some(m.rng_mut().clone());
        });
        let halted = m.fault_stats().map_or(0, |f| f.halted);
        assert!(halted > 0, "{plan_name}: no processor halted");
        (outcome, setup_rng, m.total_steps(), m.rng_mut().clone())
    };
    let lazy = run(machtlb::core::schedule_device_interrupts);
    let eager = run(eager_device_interrupts);
    assert_eq!(lazy, eager, "{plan_name}: streams diverged from the oracle");
}

#[test]
fn chaos_halt_plan_matches_the_eager_schedule() {
    assert_chaos_equivalent("halt-resp-preack");
}

#[test]
fn chaos_offline_revive_plan_matches_the_eager_schedule() {
    assert_chaos_equivalent("offline-revive");
}

#[test]
fn stall_report_lists_one_device_arrival_per_cpu() {
    let config = RunConfig {
        device_period: Some(Dur::millis(5)),
        ..RunConfig::multimax16(1)
    };
    let m = build_workload_machine(&config, AppShared::None);
    let pending = m.pending_interrupts();
    assert!(
        max_queued(&pending, config.n_cpus, DEVICE_VECTOR) <= 1,
        "{} interrupts in flight before the run",
        pending.len()
    );
    let report = stall_report(&m);
    let in_flight = report
        .lines()
        .filter(|l| l.starts_with("in-flight:"))
        .count();
    assert!(in_flight <= config.n_cpus, "{in_flight} in-flight lines");
}
