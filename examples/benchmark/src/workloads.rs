//! The four workloads and the single runs they are made of.
//!
//! Every run goes through machtlb's public API only, builds its simulated
//! machine from scratch (so TLBs start empty, as in the paper's runs), and
//! comes back as a [`RunRecord`]: the host-time spans the benchmark
//! recorded around each call into the library, the simulated outcome, and
//! a failure reason when the run did not check out.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use machtlb::bench::{concurrent_round_cost, scaled_costs};
use machtlb::core::{
    build_kernel_machine, generate_schedule, is_red, run_chaos, KernelConfig, KernelStats,
    SplitMix64, Survival,
};
use machtlb::sim::{BusStats, CostModel, Dur, RunStatus, Time};
use machtlb::tlb::TlbStats;
use machtlb::vm::VmStats;
use machtlb::workloads::{
    build_workload_machine, install_camelot, install_machbuild, install_tester, run_until_done,
    AppReport, AppShared, CamelotConfig, MachBuildConfig, RunConfig, TesterConfig, WlMachine,
    WlState,
};
use machtlb::xpr::{phase_latencies, TracePhase};

/// A benchmark workload: a fixed pass of runs, repeated.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Workload {
    Paper16,
    Camelot64,
    Scale1024,
    FuzzBand,
}

/// How much work a workload does: `passes` passes are always measured
/// (the simulated metrics cover exactly these), each with `per_pass` runs
/// of the workload's main kind.
#[derive(Copy, Clone, Debug)]
pub struct Size {
    pub passes: usize,
    pub per_pass: usize,
}

/// The processor counts of the fuzz band (the CI fuzz campaign's band).
const FUZZ_BAND: [usize; 3] = [32, 48, 64];
/// The generator seed of the fuzz band's schedule shapes, as in the CI
/// campaign. Schedule costs are heavy-tailed (one schedule in a few
/// hundred costs twenty times the mean), so fresh shapes per seed would
/// move host throughput by ~10% from seed to seed; `--seed` draws each
/// run's machine seed instead.
const FUZZ_SHAPES_SEED: u64 = 1;
/// Concurrent initiators drawn per `scale1024` run.
const SCALE_INITIATORS: std::ops::RangeInclusive<usize> = 8..=32;
/// Figure 2 runs k = 1..=15 children on 16 processors; a pass runs every
/// third k, so three passes sweep the figure once.
const FIG2_STRIDE: u32 = 3;

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Paper16,
        Workload::Camelot64,
        Workload::Scale1024,
        Workload::FuzzBand,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Paper16 => "paper16",
            Workload::Camelot64 => "camelot64",
            Workload::Scale1024 => "scale1024",
            Workload::FuzzBand => "fuzz-band",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists (one line; also written to BENCHMARK.json).
    pub fn why(self) -> &'static str {
        match self {
            Workload::Paper16 => {
                "the paper's 16-cpu Multimax on its unicast path: Figure 2 tester sweep, \
                 Mach build and Camelot; bus contended, scheduler scan cheap"
            }
            Workload::Camelot64 => {
                "Camelot on 64 cpus with the residency filter: user-pmap shootdowns, \
                 copy-on-write faults, filtered IPIs; construction-heavy"
            }
            Workload::Scale1024 => {
                "the published-round multicast protocol at 1024 cpus (fanout 8, batching, \
                 4 shards); host time dominated by the scheduler"
            }
            Workload::FuzzBand => {
                "generated fault schedules over 32/48/64 cpus: the fault, health and \
                 recovery layers on many small machines"
            }
        }
    }

    /// The processor count the layer probes run at.
    pub fn cpus(self) -> usize {
        match self {
            Workload::Paper16 => 16,
            Workload::Camelot64 => 64,
            Workload::Scale1024 => SCALE_CPUS,
            Workload::FuzzBand => 48,
        }
    }

    /// The measured size: 120 Mach builds, 120 Camelots and ten Figure 2
    /// sweeps; 400 Camelots at 64 cpus; 14 rounds at 1024 cpus; 300
    /// schedules. Each is 5-9 s of runs on a 2-core x86-64 host.
    pub fn full_size(self) -> Size {
        let (passes, per_pass) = match self {
            Workload::Paper16 => (30, 4),
            Workload::Camelot64 => (40, 10),
            Workload::Scale1024 => (14, 1),
            Workload::FuzzBand => (50, 6),
        };
        Size { passes, per_pass }
    }

    /// The jobs of pass `index`, drawing their seeds from `rng`. Passes
    /// are small so the host metrics can take a median over many; the
    /// main kind of run comes first, so the warm-up and the determinism
    /// guard exercise it.
    pub fn pass(self, size: Size, index: usize, rng: &mut SplitMix64) -> Vec<Job> {
        let mut specs = Vec::new();
        match self {
            Workload::Paper16 => {
                specs.extend(std::iter::repeat_n(RunSpec::MachBuild, size.per_pass));
                specs.extend(std::iter::repeat_n(RunSpec::Camelot16, size.per_pass));
                let first = 1 + index as u32 % FIG2_STRIDE;
                specs.extend(
                    (first..=15)
                        .step_by(FIG2_STRIDE as usize)
                        .map(|k| RunSpec::Tester { k }),
                );
            }
            Workload::Camelot64 => {
                specs.extend(std::iter::repeat_n(RunSpec::Camelot64, size.per_pass));
            }
            Workload::Scale1024 => {
                // Stratified draws: the fixed passes take their initiator
                // counts from successive slices of 8..=32, so the
                // simulated totals cover the range instead of swinging
                // with a lucky run of small counts.
                let lo = *SCALE_INITIATORS.start();
                let width = SCALE_INITIATORS.end() - lo + 1;
                let slice = index % size.passes;
                let a = lo + width * slice / size.passes;
                let b = lo + width * (slice + 1) / size.passes;
                for _ in 0..size.per_pass {
                    let initiators = a + rng.below((b - a).max(1) as u64) as usize;
                    specs.push(RunSpec::Round { initiators });
                }
            }
            Workload::FuzzBand => {
                let mut shapes = SplitMix64::new(FUZZ_SHAPES_SEED);
                for _ in 0..(index % size.passes) * size.per_pass {
                    shapes.next_u64();
                }
                for i in 0..size.per_pass {
                    specs.push(RunSpec::Fuzz {
                        n_cpus: FUZZ_BAND[i % FUZZ_BAND.len()],
                        shape: shapes.next_u64(),
                    });
                }
            }
        }
        specs
            .into_iter()
            .map(|spec| Job {
                spec,
                seed: rng.next_u64(),
            })
            .collect()
    }
}

/// One kind of run.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum RunSpec {
    /// The Section 5.1 tester with `k` children on the 16-cpu Multimax:
    /// one Figure 2 sample.
    Tester { k: u32 },
    /// The Mach kernel build on the 16-cpu Multimax (Table 2's setup).
    MachBuild,
    /// Camelot on the 16-cpu Multimax (Table 3's setup).
    Camelot16,
    /// Camelot on 64 cpus, scaled bus, residency filter on.
    Camelot64,
    /// One `concurrent_round_cost` round on 1024 cpus.
    Round { initiators: usize },
    /// One generated fault schedule, two rounds: `shape` seeds the
    /// generator, the job's seed is the machine seed.
    Fuzz { n_cpus: usize, shape: u64 },
}

impl RunSpec {
    pub fn label(self) -> &'static str {
        match self {
            RunSpec::Tester { .. } => "tester",
            RunSpec::MachBuild => "machbuild",
            RunSpec::Camelot16 => "camelot16",
            RunSpec::Camelot64 => "camelot64",
            RunSpec::Round { .. } => "round",
            RunSpec::Fuzz { .. } => "fuzz",
        }
    }
}

/// A run and its seed.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Job {
    pub spec: RunSpec,
    pub seed: u64,
}

/// The host-time span kinds the benchmark records around library calls.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum SpanKind {
    /// Building the simulated machine and installing the workload.
    Setup,
    /// Generating a fault schedule and compiling it (part of setup).
    Compile,
    /// Building a machine identical to the one the measured call builds
    /// internally, timed on its own so construction cost is visible
    /// (`scale1024`, `fuzz-band`); not part of the run's time.
    Construct,
    /// Running the simulation.
    Run,
    /// Extracting the report.
    Extract,
    /// Post-processing the flight-recorder trace (traced runs only).
    TracePost,
}

impl SpanKind {
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Setup => "setup",
            SpanKind::Compile => "compile",
            SpanKind::Construct => "construct",
            SpanKind::Run => "run",
            SpanKind::Extract => "extract",
            SpanKind::TracePost => "trace_post",
        }
    }
}

/// One host-time span.
#[derive(Copy, Clone, Debug)]
pub struct HostSpan {
    pub kind: SpanKind,
    pub start: Instant,
    pub end: Instant,
}

impl HostSpan {
    pub fn secs(&self) -> f64 {
        self.end.duration_since(self.start).as_secs_f64()
    }
}

/// What a run simulated. `None` fields are not observable through the
/// public API for that kind of run.
#[derive(Clone, Debug, Default)]
pub struct SimOutcome {
    /// Simulated runtime (µs): the application's completion, the slowest
    /// initiator of a lab round, or a fault campaign's end.
    pub makespan_us: f64,
    pub steps: Option<u64>,
    pub stats: KernelStats,
    pub vm: Option<VmStats>,
    pub bus: Option<BusStats>,
    pub tlb: Option<TlbStats>,
    /// Initiator elapsed times (µs), kernel and user pmaps pooled.
    pub initiators_us: Vec<f64>,
    /// User-pmap initiator elapsed times (µs) of a 16-cpu Camelot run
    /// (the Table 3 held-out check).
    pub table3_us: Vec<f64>,
    pub responders_us: Vec<f64>,
    /// The Section 7.3 shootdown overhead of an application run (%).
    pub overhead_pct: Option<f64>,
    /// A Figure 2 sample: (children, shootdown µs).
    pub fig2: Option<(u32, f64)>,
    pub trace_events: Option<usize>,
    pub phases: Vec<(TracePhase, Vec<f64>)>,
    pub faults_injected: Option<u64>,
    pub survival: Option<Survival>,
    /// Consistency violations the oracle reported.
    pub violations: u64,
    /// The deterministic outputs the determinism guard compares.
    pub fingerprint: String,
}

/// One executed run.
#[derive(Clone, Debug)]
pub struct RunRecord {
    pub job: Job,
    pub spans: Vec<HostSpan>,
    /// Present unless the run panicked.
    pub sim: Option<SimOutcome>,
    /// Why the run counts as failed, if it does.
    pub failure: Option<String>,
}

impl RunRecord {
    /// Host seconds in spans of `kind`.
    pub fn secs(&self, kind: SpanKind) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.kind == kind)
            .map(HostSpan::secs)
            .sum()
    }

    /// Host seconds the benchmark spends on this run (construction
    /// replicas excluded: they are measurement, not workload).
    pub fn workload_secs(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.kind != SpanKind::Construct)
            .map(HostSpan::secs)
            .sum()
    }

    /// Host seconds of construction: machine build and install, schedule
    /// generation and compilation, and construction replicas.
    pub fn setup_secs(&self) -> f64 {
        self.secs(SpanKind::Setup) + self.secs(SpanKind::Compile) + self.secs(SpanKind::Construct)
    }
}

/// Records host-time spans around calls into the library.
#[derive(Default)]
struct Spans(Vec<HostSpan>);

impl Spans {
    fn time<T>(&mut self, kind: SpanKind, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.0.push(HostSpan {
            kind,
            start,
            end: Instant::now(),
        });
        out
    }
}

/// Knobs a run is executed with besides its job.
#[derive(Clone, Debug)]
pub struct Exec {
    /// Turn on `KernelConfig::trace_shootdowns` and post-process the trace.
    pub traced: bool,
    /// Replace the consistency strategy of the 16-cpu tester (the
    /// failure-accounting test runs a broken one).
    pub tester_kconfig: KernelConfig,
    /// Simulated-time limit of a tester run.
    pub tester_limit: Time,
}

impl Exec {
    pub fn new(traced: bool) -> Exec {
        Exec {
            traced,
            tester_kconfig: KernelConfig::default(),
            tester_limit: Time::from_micros(30_000_000),
        }
    }
}

/// Executes one run, counting a panic or a failed check as a failure.
pub fn execute(job: Job, exec: &Exec) -> RunRecord {
    let mut spans = Spans::default();
    let result = catch_unwind(AssertUnwindSafe(|| dispatch(job, exec, &mut spans)));
    let (sim, failure) = match result {
        Ok((sim, failure)) => (Some(sim), failure),
        Err(panic) => {
            let msg = panic
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| panic.downcast_ref::<&str>().copied())
                .unwrap_or("non-string panic payload");
            (None, Some(format!("panicked: {msg}")))
        }
    };
    RunRecord {
        job,
        spans: spans.0,
        sim,
        failure,
    }
}

fn dispatch(job: Job, exec: &Exec, spans: &mut Spans) -> (SimOutcome, Option<String>) {
    match job.spec {
        RunSpec::Tester { k } => tester(k, job.seed, exec, spans),
        RunSpec::MachBuild => {
            let cfg = MachBuildConfig::default();
            let jobs = cfg.jobs;
            app_run(
                paper_app_config(job.seed, exec.traced),
                |m| install_machbuild(m, &cfg),
                |s| s.machbuild().completed_at.is_some(),
                |m, r| {
                    let b = m.shared().machbuild();
                    if let Some(t) = b.completed_at {
                        r.runtime = t.duration_since(Time::ZERO);
                    }
                    let overhead = r.overhead_percent(&r.kernel_initiators);
                    (b.jobs_done != jobs)
                        .then(|| format!("build finished {} of {jobs} jobs", b.jobs_done))
                        .map_or(Ok(overhead), Err)
                },
                exec.traced,
                spans,
            )
        }
        RunSpec::Camelot16 => camelot(
            paper_app_config(job.seed, exec.traced),
            &CamelotConfig::default(),
            true,
            exec.traced,
            spans,
        ),
        RunSpec::Camelot64 => camelot(
            camelot64_config(job.seed, exec.traced),
            &camelot64_app(),
            false,
            exec.traced,
            spans,
        ),
        RunSpec::Round { initiators } => round(initiators, job.seed, exec.traced, spans),
        RunSpec::Fuzz { n_cpus, shape } => fuzz(n_cpus, shape, job.seed, exec.traced, spans),
    }
}

/// The Table 2/3 harness configuration: the 16-cpu Multimax with 5 ms
/// device interrupts.
fn paper_app_config(seed: u64, traced: bool) -> RunConfig {
    let mut c = RunConfig::multimax16(seed);
    c.device_period = Some(Dur::millis(5));
    c.limit = Time::from_micros(120_000_000);
    c.kconfig.trace_shootdowns = traced;
    c
}

fn camelot64_config(seed: u64, traced: bool) -> RunConfig {
    let n_cpus = 64;
    let mut c = RunConfig {
        n_cpus,
        costs: scaled_costs(n_cpus),
        ..RunConfig::multimax16(seed)
    };
    c.kconfig.residency = true;
    c.kconfig.trace_shootdowns = traced;
    c
}

fn camelot64_app() -> CamelotConfig {
    CamelotConfig {
        clients: 12,
        server_threads: 6,
        transactions_per_client: 4,
        db_pages: 96,
        ..CamelotConfig::default()
    }
}

const SCALE_CPUS: usize = 1024;

/// The `scale1024` kernel: degree-8 fan-out, batched initiators, 4 pmap
/// lock shards. Traced runs keep small per-cpu buffers: the lab does not
/// hand its trace back, so tracing there only shows its host cost.
fn scale_kconfig(traced: bool) -> KernelConfig {
    KernelConfig {
        fanout: 8,
        batch_initiators: true,
        pmap_shards: 4,
        trace_shootdowns: traced,
        trace_capacity: 1 << 10,
        ..KernelConfig::default()
    }
}

/// Runs one application to completion and extracts its report.
/// `finish` checks the application finished, fixes up the runtime, and
/// returns its Section 7.3 overhead.
fn app_run(
    config: RunConfig,
    install: impl FnOnce(&mut WlMachine),
    done: impl FnMut(&WlState) -> bool,
    finish: impl FnOnce(&WlMachine, &mut AppReport) -> Result<f64, String>,
    traced: bool,
    spans: &mut Spans,
) -> (SimOutcome, Option<String>) {
    let mut m = spans.time(SpanKind::Setup, || {
        let mut m = build_workload_machine(&config, AppShared::None);
        install(&mut m);
        m
    });
    let status = spans.time(SpanKind::Run, || run_until_done(&mut m, config.limit, done));
    let (report, finished, tlb) = spans.time(SpanKind::Extract, || {
        let mut report = AppReport::extract("benchmark", &m);
        let finished = finish(&m, &mut report);
        (report, finished, tlb_totals(&m))
    });
    let phases = if traced {
        spans.time(SpanKind::TracePost, || phase_latencies(&report.trace))
    } else {
        Vec::new()
    };
    let mut failure = match &finished {
        Err(why) => Some(why.clone()),
        Ok(_) if status == RunStatus::StepLimit => Some("hit the step guard".into()),
        Ok(_) => None,
    };
    if !report.consistent {
        failure = Some(format!("{} consistency violations", report.violations));
    }
    let elapsed = |rs: &[machtlb::xpr::InitiatorRecord]| {
        rs.iter()
            .map(|r| r.elapsed.as_micros_f64())
            .collect::<Vec<_>>()
    };
    let mut initiators_us = elapsed(&report.kernel_initiators);
    initiators_us.extend(elapsed(&report.user_initiators));
    let sim = SimOutcome {
        makespan_us: report.runtime.as_micros_f64(),
        steps: Some(m.total_steps()),
        stats: report.stats,
        vm: Some(report.vm_stats),
        bus: Some(report.bus),
        tlb: Some(tlb),
        initiators_us,
        responders_us: report
            .responders
            .iter()
            .map(|r| r.elapsed.as_micros_f64())
            .collect(),
        overhead_pct: finished.ok(),
        violations: report.violations as u64,
        trace_events: traced.then_some(report.trace.len()),
        phases,
        fingerprint: format!(
            "{:?}|{:?}|{}|{:?}",
            report.stats,
            report.runtime,
            m.total_steps(),
            report.bus
        ),
        table3_us: Vec::new(),
        ..SimOutcome::default()
    };
    (sim, failure)
}

fn tlb_totals(m: &WlMachine) -> TlbStats {
    let mut t = TlbStats::default();
    for s in m.shared().sys.kernel.tlbs.iter().map(|t| t.stats()) {
        t.hits += s.hits;
        t.misses += s.misses;
        t.insertions += s.insertions;
        t.invalidated += s.invalidated;
        t.flushes += s.flushes;
    }
    t
}

/// One Figure 2 sample, checked like `fig2_sweep` checks it.
fn tester(k: u32, seed: u64, exec: &Exec, spans: &mut Spans) -> (SimOutcome, Option<String>) {
    let mut config = RunConfig {
        limit: exec.tester_limit,
        ..RunConfig::multimax16(seed)
    };
    config.kconfig = exec.tester_kconfig.clone();
    config.kconfig.trace_shootdowns = exec.traced;
    let tcfg = TesterConfig {
        children: k,
        warmup_increments: 40,
    };
    let mut shot = None;
    let (mut sim, failure) = app_run(
        config,
        |m| install_tester(m, &tcfg),
        |s| {
            let t = s.tester();
            t.mismatch.is_some() && t.children_dead == k
        },
        |m, r| {
            let t = m.shared().tester();
            shot = r.user_initiators.first().copied();
            match (t.mismatch, shot) {
                (None, _) => Err("tester did not conclude".into()),
                (Some(true), _) => Err("tester saw a counter advance after the reprotect".into()),
                (_, None) => Err("the reprotect caused no shootdown".into()),
                (_, Some(s)) if s.processors != k => Err(format!(
                    "shootdown hit {} processors, not {k}",
                    s.processors
                )),
                _ if t.children_dead != k => {
                    Err(format!("{} of {k} children died", t.children_dead))
                }
                _ => Ok(0.0),
            }
        },
        exec.traced,
        spans,
    );
    sim.overhead_pct = None;
    sim.fig2 = shot.map(|s| (k, s.elapsed.as_micros_f64()));
    (sim, failure)
}

fn camelot(
    config: RunConfig,
    cfg: &CamelotConfig,
    table3: bool,
    traced: bool,
    spans: &mut Spans,
) -> (SimOutcome, Option<String>) {
    let want = cfg.clients * cfg.transactions_per_client;
    let mut user_us = Vec::new();
    let (mut sim, failure) = app_run(
        config,
        |m| install_camelot(m, cfg),
        |s| s.camelot().completed_at.is_some(),
        |m, r| {
            let c = m.shared().camelot();
            if let Some(t) = c.completed_at {
                r.runtime = t.duration_since(Time::ZERO);
            }
            user_us = r
                .user_initiators
                .iter()
                .map(|i| i.elapsed.as_micros_f64())
                .collect();
            let overhead = r.overhead_percent(&r.user_initiators);
            (c.tx_done != want)
                .then(|| format!("camelot committed {} of {want} transactions", c.tx_done))
                .map_or(Ok(overhead), Err)
        },
        traced,
        spans,
    );
    if table3 {
        sim.table3_us = user_us;
    }
    (sim, failure)
}

/// One 1024-cpu lab round. The lab builds its machine inside the call, so
/// an identical machine is built first, on its own span, to show
/// construction cost.
fn round(
    initiators: usize,
    seed: u64,
    traced: bool,
    spans: &mut Spans,
) -> (SimOutcome, Option<String>) {
    let replica = spans.time(SpanKind::Construct, || {
        build_kernel_machine(
            SCALE_CPUS,
            seed,
            scaled_costs(SCALE_CPUS),
            scale_kconfig(traced),
        )
    });
    drop(replica);
    let rc = spans.time(SpanKind::Run, || {
        concurrent_round_cost(
            SCALE_CPUS,
            initiators,
            scale_kconfig(traced),
            scaled_costs(SCALE_CPUS),
            seed,
        )
    });
    let failure = (rc.initiator_us.len() != initiators).then(|| {
        format!(
            "{} of {initiators} initiators reported",
            rc.initiator_us.len()
        )
    });
    let sim = SimOutcome {
        makespan_us: rc.initiator_us.iter().copied().fold(0.0, f64::max),
        stats: rc.stats,
        fingerprint: format!("{:?}|{:?}", rc.stats, rc.initiator_us),
        initiators_us: rc.initiator_us,
        ..SimOutcome::default()
    };
    (sim, failure)
}

/// One generated fault schedule. Like the lab, `run_chaos` builds its
/// machine internally; the replica on its own span shows that cost.
fn fuzz(
    n_cpus: usize,
    shape: u64,
    seed: u64,
    traced: bool,
    spans: &mut Spans,
) -> (SimOutcome, Option<String>) {
    let schedule = spans.time(SpanKind::Setup, || {
        let mut s = generate_schedule(&mut SplitMix64::new(shape), n_cpus, 2);
        s.seed = seed;
        s
    });
    let mut cfg = spans.time(SpanKind::Compile, || schedule.compile());
    cfg.kconfig.trace_shootdowns = traced;
    cfg.kconfig.trace_capacity = 1 << 10;
    let replica = spans.time(SpanKind::Construct, || {
        build_kernel_machine(
            cfg.n_cpus,
            cfg.seed,
            CostModel::multimax(),
            cfg.kconfig.clone(),
        )
    });
    drop(replica);
    let o = spans.time(SpanKind::Run, || run_chaos(&cfg));
    let failure = if !schedule.tolerable {
        Some("the generator produced a schedule outside the tolerable envelope".into())
    } else if is_red(&o) {
        Some(format!(
            "red: {} ({} violations, completed {})",
            o.survival.name(),
            o.violations,
            o.completed
        ))
    } else {
        None
    };
    let sim = SimOutcome {
        makespan_us: o.end.as_micros_f64(),
        steps: Some(o.steps),
        stats: o.stats,
        bus: Some(o.bus),
        faults_injected: Some(o.faults.map_or(0, |f| f.total())),
        survival: Some(o.survival),
        violations: o.violations as u64,
        fingerprint: format!("{:?}|{:?}|{}|{:?}", o.stats, o.end, o.steps, o.clocks),
        ..SimOutcome::default()
    };
    (sim, failure)
}

#[cfg(test)]
mod tests {
    use super::*;
    use machtlb::core::Strategy;

    #[test]
    fn a_broken_strategy_counts_as_a_failure() {
        let exec = Exec {
            tester_kconfig: KernelConfig {
                strategy: Strategy::NaiveFlush,
                ..KernelConfig::default()
            },
            tester_limit: Time::from_micros(50_000),
            ..Exec::new(false)
        };
        let r = execute(
            Job {
                spec: RunSpec::Tester { k: 4 },
                seed: 42,
            },
            &exec,
        );
        assert!(r.failure.is_some(), "a naive flush must not pass the gate");
    }

    #[test]
    fn a_stock_tester_run_passes_the_gate() {
        let r = execute(
            Job {
                spec: RunSpec::Tester { k: 4 },
                seed: 42,
            },
            &Exec::new(false),
        );
        assert_eq!(r.failure, None);
        let (k, us) = r.sim.expect("no panic").fig2.expect("a Figure 2 sample");
        assert_eq!(k, 4);
        assert!(us > 0.0);
    }

    #[test]
    fn scale_passes_cover_the_initiator_range() {
        let size = Workload::Scale1024.full_size();
        let mut rng = SplitMix64::new(3);
        let counts: Vec<usize> = (0..size.passes)
            .flat_map(|i| Workload::Scale1024.pass(size, i, &mut rng))
            .map(|j| match j.spec {
                RunSpec::Round { initiators } => initiators,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(counts.len(), 14);
        for (i, c) in counts.iter().enumerate() {
            let lo = 8 + 25 * i / 14;
            let hi = 8 + 25 * (i + 1) / 14;
            assert!((lo..hi).contains(c), "run {i}: {c} outside {lo}..{hi}");
        }
    }

    #[test]
    fn three_paper_passes_sweep_figure_2_once() {
        let size = Workload::Paper16.full_size();
        let mut rng = SplitMix64::new(3);
        let mut ks: Vec<u32> = (0..3)
            .flat_map(|i| Workload::Paper16.pass(size, i, &mut rng))
            .filter_map(|j| match j.spec {
                RunSpec::Tester { k } => Some(k),
                _ => None,
            })
            .collect();
        ks.sort_unstable();
        assert_eq!(ks, (1..=15).collect::<Vec<_>>());
    }
}
