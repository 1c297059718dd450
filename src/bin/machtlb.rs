//! The `machtlb` command-line runner: drive the reproduction's
//! experiments without writing a harness.
//!
//! ```sh
//! machtlb tester --children 7 --cpus 16 --seed 3 --strategy shootdown
//! machtlb app camelot --seed 9 --lazy off
//! machtlb fig2 --max-k 12 --runs 5
//! machtlb scaling
//! ```

use std::io::Write as _;
use std::process::ExitCode;

use machtlb::bench::{compare_reports, diff_reports, parse_report};
use machtlb::core::{
    campaign_json, chaos_schedules, check_envelope, fuzz_schedules, is_red, parse_schedule,
    run_campaign, run_schedule, schedule_json, shrink, soak_schedules, CampaignTotals,
    ChaosOutcome, Coverage, FaultSchedule, FuzzConfig, KernelConfig, SoakConfig, Strategy,
    Survival, MAX_SCHEDULE_CPUS,
};
use machtlb::pmap::{SHARD_GRANULE, VPN_SPAN};
use machtlb::sim::{BusOp, CostModel, Dur, Time, Topology};
use machtlb::tlb::{ReloadPolicy, TlbConfig, WritebackPolicy};
use machtlb::workloads::{
    run_agora, run_camelot, run_machbuild, run_migration_storm, run_parthenon, run_tester,
    AgoraConfig, AppReport, CamelotConfig, MachBuildConfig, MigrationStormConfig, ParthenonConfig,
    RunConfig, TesterConfig,
};
use machtlb::xpr::{
    assemble_spans, check_monotone_per_cpu, chrome_trace_json, counters_table, linear_fit,
    phase_latencies, phase_latencies_by_node, recovery_latencies, validate_chrome_trace,
    validate_spans, Histogram, Summary, TextTable,
};

const USAGE: &str = "\
machtlb — the Mach TLB shootdown reproduction (Black et al., ASPLOS 1989)

USAGE:
    machtlb tester  [--children N] [--cpus N] [--seed N] [--strategy S]
                    [--fanout N] [--shards N] [--batch on|off]
                    [--residency on|off] [TOPOLOGY]
    machtlb app     <mach|parthenon|agora|camelot> [--cpus N] [--seed N]
                    [--lazy on|off] [--residency on|off]
    machtlb fig2    [--cpus N] [--max-k N] [--runs N]
    machtlb scaling [--upto N] [--fanout N] [--shards N] [--batch on|off]
                    [--residency on|off] [TOPOLOGY]
    machtlb trace   [--workload machbuild|parthenon|agora|camelot|tester]
                    [--strategy S] [--cpus N] [--seed N] [--out FILE]
                    [--fanout N] [--shards N] [--batch on|off]
                    [--residency on|off] [TOPOLOGY]
    machtlb storm   [--cpus N] [--seed N] [--workers N] [--pages N]
                    [--migrations N] [--cross on|off]
                    [--residency on|off] [TOPOLOGY]
    machtlb bench-check --baseline DIR [--current DIR] [--tolerance PCT]
    machtlb chaos   [--cpus N] [--seeds N] [--rounds N] [--out FILE]
                    [--json FILE] [TOPOLOGY]
    machtlb soak    [--cpus N] [--cycles N] [--duration DUR] [--seed N]
                    [--rounds N] [--smoke on|off]
                    [--inject-exhaustion on|off] [--out FILE] [--json FILE]
    machtlb fuzz    [--seed N] [--budget N] [--cpus N] [--rounds N]
                    [--shrink on|off] [--max-replays N] [--smoke on|off]
                    [--json FILE] [--repro FILE]
    machtlb replay  --schedule FILE

STRATEGIES:
    shootdown (default), broadcast, no-stall, hw-remote, timer-delayed, naive

DELIVERY FLAGS (shootdown strategy):
    --fanout N      multicast IPI tree degree (default 1 = the paper's
                    unicast send loop; degree 1 is bit-identical to it)
    --shards N      pmap lock shard count (default 1 = one lock per pmap)
    --batch on|off  merge concurrent same-pmap initiators into one round

PRECISE TARGETING (shootdown strategy):
    --residency on|off  consult the per-processor possibly-cached sets to
                        skip IPI targets that cannot hold the stale
                        translation, and recycle ASID generations on
                        tagged-TLB pmap retirement (default off = the
                        paper's exact protocol, bit-identical traces)

TOPOLOGY FLAGS (omit them all for the paper's flat single-bus machine):
    --nodes N            NUMA nodes (default 1 = flat, bit-identical to
                         the pre-topology simulator)
    --node-cpus N        processors per node (default cpus / nodes; the
                         last node absorbs any surplus)
    --remote-latency US  microseconds added to every interconnect
                         crossing (default 4)

`storm` runs the page-migration workload: workers on every node
repeatedly unmap a page and re-enter it on a fresh frame, hammering the
shootdown path; `--cross on` targets the next node's pmap so every lock
word and page table is remote.

`bench-check` holds every BENCH_<name>.json under --current (default .)
against the committed file of the same name under --baseline, failing if
a headline number drifts more than --tolerance percent (default 30).

`chaos`, `soak` and `fuzz` are campaigns: each only generates fault
schedules, and all three run them through the `replay` runner and
report them the same way — one outcome table, one `--json` schema
whose every row carries its schedule, and one exit rule (below).

`soak` cycles halt, offline/revive, wrongful-eviction, compound-halt,
and FailOp dead-holder shapes through the membership fence with the
consistency checker on throughout; `--smoke on` clamps the run to a CI
time budget, and `--inject-exhaustion on` appends a planted cycle with
a zero FailOp restart budget, declared tolerable, which must turn the
exit red. `--duration DUR` (500ms, 30s, 5m, 1h) keeps rotating cycles
until the wall-clock budget is spent instead of counting to `--cycles`.

`fuzz` runs a seeded campaign of generated fault schedules (timed
halts, offline/revive, responder stalls, IPI delay/drop/duplicate/
reorder, ISR stretch) against the hardened kernel with recovery on;
the whole campaign is a pure function of `--seed`. `--cpus 0` (the
default) rotates machines through 32/48/64 processors. On a red run
the first caught schedule is minimized by delta debugging
(`--shrink on`, the default, bounded by `--max-replays`) and written
to `--repro` (default repro.json) ready for `machtlb replay
--schedule FILE`, which re-runs one serialized schedule bit-identically
and exits 1 if it is caught. `--smoke on` is the CI preset (a small
budget on a small machine).

EXIT CODES:
    0  the command succeeded; for a campaign (`chaos`, `soak`, `fuzz`),
       every run landed on its side of the envelope: each tolerable
       schedule survived and each beyond-envelope schedule was caught;
       for `replay`, the schedule survived
    1  bad arguments (printed with this text); an inconsistency; a
       campaign run on the wrong side of its envelope; or a `replay`
       that was caught. `--json FILE` (and `fuzz`'s `--repro FILE`)
       are still written, so CI can archive the red run it fails on

Every run prints its consistency verdict: the oracle checks the paper's
guarantee on every translated access.";

/// Every `println!` in this binary is this one: `std`'s, except that a
/// closed stdout is ignored instead of panicking, so a reader that stops
/// early (`machtlb chaos | head -1`) ends the run quietly and the exit
/// code still reports the verdict.
macro_rules! println {
    ($($arg:tt)*) => {{
        let _ = writeln!(std::io::stdout(), $($arg)*);
    }};
}

/// Why a command failed. Only bad arguments are answered with the usage
/// text; a run that fails its own check prints just its error.
enum Failure {
    /// Bad arguments or unusable input.
    Usage(String),
    /// The run itself failed: a red verdict or an inconsistency.
    Run(String),
}

impl From<String> for Failure {
    fn from(e: String) -> Failure {
        Failure::Usage(e)
    }
}

/// A minimal flag parser: `--name value` pairs after the positionals.
struct Args {
    positional: Vec<String>,
    flags: Vec<(String, String)>,
}

impl Args {
    fn parse(raw: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut positional = Vec::new();
        let mut flags = Vec::new();
        let mut it = raw.peekable();
        while let Some(a) = it.next() {
            if let Some(name) = a.strip_prefix("--") {
                let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
                flags.push((name.to_string(), value));
            } else {
                positional.push(a);
            }
        }
        Ok(Args { positional, flags })
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn num(&self, name: &str, default: u64) -> Result<u64, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{name}: bad number {v}")),
        }
    }

    /// A 32-bit flag: a value that does not fit is refused instead of
    /// truncated (`4294967297` would otherwise run as 1).
    fn num_u32(&self, name: &str, default: u32) -> Result<u32, String> {
        let v = self.num(name, u64::from(default))?;
        u32::try_from(v).map_err(|_| format!("--{name}: {v} is out of range"))
    }

    /// A count that must be at least 1: zero seeds, rounds or cycles
    /// would report a vacuous green verdict.
    fn count(&self, name: &str, default: u64) -> Result<u64, String> {
        match self.num(name, default)? {
            0 => Err(format!("--{name}: need at least 1")),
            n => Ok(n),
        }
    }

    /// A machine size, refused above [`MAX_SCHEDULE_CPUS`]: the machine
    /// is allocated before it runs, so a huge value would abort in the
    /// allocator or run until killed.
    fn machine_size(&self, name: &str, default: u64) -> Result<usize, String> {
        match self.num(name, default)? {
            n if n > MAX_SCHEDULE_CPUS as u64 => Err(format!(
                "--{name}: at most {MAX_SCHEDULE_CPUS} processors, not {n}"
            )),
            n => Ok(n as usize),
        }
    }

    /// An `on|off` flag; any other value is refused.
    fn on_off(&self, name: &str, default: bool) -> Result<bool, String> {
        match self.get(name) {
            None => Ok(default),
            Some("on") => Ok(true),
            Some("off") => Ok(false),
            Some(other) => Err(format!("--{name}: on or off, not {other}")),
        }
    }
}

/// The `--cpus` flag, refused below `min` so an undersized machine is a
/// usage error rather than a panic deep inside a workload.
fn cpus_flag(args: &Args, default: u64, min: usize, what: &str) -> Result<usize, String> {
    let cpus = args.machine_size("cpus", default)?;
    if cpus < min {
        return Err(format!(
            "{what} needs at least {min} processors, not {cpus}"
        ));
    }
    Ok(cpus)
}

/// The fewest processors an application workload runs on: one to drive
/// it plus one to run it, and Camelot's coordinator, servers, and a
/// client each get their own.
fn app_min_cpus(name: &str) -> usize {
    match name {
        "camelot" => 2 + CamelotConfig::default().server_threads as usize,
        _ => 2,
    }
}

fn strategy_config(name: &str) -> Result<KernelConfig, String> {
    let stock = KernelConfig::default();
    Ok(match name {
        "shootdown" => stock,
        "broadcast" => KernelConfig {
            strategy: Strategy::BroadcastIpi,
            ..stock
        },
        "naive" => KernelConfig {
            strategy: Strategy::NaiveFlush,
            ..stock
        },
        "no-stall" => KernelConfig {
            strategy: Strategy::NoStallSoftwareReload,
            tlb: TlbConfig {
                reload: ReloadPolicy::Software,
                writeback: WritebackPolicy::None,
                ..TlbConfig::multimax()
            },
            ..stock
        },
        "hw-remote" => KernelConfig {
            strategy: Strategy::HardwareRemoteInvalidate,
            tlb: TlbConfig {
                writeback: WritebackPolicy::Interlocked,
                ..TlbConfig::multimax()
            },
            ..stock
        },
        "timer-delayed" => KernelConfig {
            strategy: Strategy::TimerDelayed,
            tlb: TlbConfig {
                writeback: WritebackPolicy::Interlocked,
                ..TlbConfig::multimax()
            },
            ..stock
        },
        other => return Err(format!("unknown strategy: {other}")),
    })
}

/// Applies the `--fanout`, `--shards`, and `--batch` delivery flags to a
/// kernel configuration.
fn apply_delivery_flags(args: &Args, mut kconfig: KernelConfig) -> Result<KernelConfig, String> {
    let fanout = args.num("fanout", kconfig.fanout as u64)? as usize;
    if fanout == 0 {
        return Err("--fanout: degree must be at least 1".into());
    }
    kconfig.fanout = fanout;
    // A shard covers whole granules, so more shards than granules would
    // only allocate locks no range can ever map to.
    let max_shards = VPN_SPAN / SHARD_GRANULE;
    let shards = args.num("shards", kconfig.pmap_shards as u64)?;
    if !(1..=max_shards).contains(&shards) {
        return Err(format!("--shards: need 1 to {max_shards}, not {shards}"));
    }
    kconfig.pmap_shards = shards as usize;
    kconfig.batch_initiators = args.on_off("batch", kconfig.batch_initiators)?;
    Ok(kconfig)
}

/// Applies the `--residency on|off` flag (default off = the paper's
/// exact protocol). On, the initiator consults the per-processor
/// possibly-cached sets to skip shootdown targets that cannot hold the
/// stale translation, and tagged-TLB pmap retirement recycles the ASID
/// generation instead of walking entries.
fn apply_residency_flag(args: &Args, mut kconfig: KernelConfig) -> Result<KernelConfig, String> {
    kconfig.residency = args.on_off("residency", kconfig.residency)?;
    Ok(kconfig)
}

/// Applies the `--nodes`, `--node-cpus`, and `--remote-latency` topology
/// flags. With none of them present the configuration stays flat
/// (`topology: None`), which is bit-identical to the pre-topology
/// single-bus simulator.
fn apply_topology_flags(
    args: &Args,
    cpus: usize,
    mut kconfig: KernelConfig,
) -> Result<KernelConfig, String> {
    if args.get("nodes").is_none()
        && args.get("node-cpus").is_none()
        && args.get("remote-latency").is_none()
    {
        return Ok(kconfig);
    }
    let nodes = args.num("nodes", 1)? as usize;
    if nodes == 0 {
        return Err("--nodes: need at least 1 node".into());
    }
    let node_cpus = args.num("node-cpus", cpus.div_ceil(nodes).max(1) as u64)? as usize;
    if node_cpus == 0 {
        return Err("--node-cpus: need at least 1 processor per node".into());
    }
    if nodes > 1 && node_cpus * (nodes - 1) >= cpus {
        return Err(format!(
            "--nodes {nodes} x --node-cpus {node_cpus} leaves no processor \
             for the last node on a {cpus}-cpu machine"
        ));
    }
    let remote = Dur::micros(args.num("remote-latency", 4)?);
    kconfig.topology = Some(Topology::numa(nodes, node_cpus, remote));
    Ok(kconfig)
}

/// One line describing the machine topology, printed when a run is NUMA
/// so output is self-describing (flat runs stay silent: nothing changed).
fn topology_line(kconfig: &KernelConfig) -> Option<String> {
    let t = kconfig.topology?;
    if t.is_flat() {
        return None;
    }
    Some(format!(
        "topology: {} nodes x {} processors, {:.1} us interconnect crossing",
        t.nodes(),
        t.node_cpus(),
        t.remote_latency().as_micros_f64(),
    ))
}

/// One line describing the delivery configuration, printed whenever the
/// flags are live so runs are self-describing.
fn delivery_line(kconfig: &KernelConfig) -> String {
    format!(
        "delivery: fanout {}, {} pmap lock shard{}, initiator batching {}",
        kconfig.fanout,
        kconfig.pmap_shards,
        if kconfig.pmap_shards == 1 { "" } else { "s" },
        if kconfig.batch_initiators {
            "on"
        } else {
            "off"
        },
    )
}

fn base_config(cpus: usize, seed: u64, kconfig: KernelConfig) -> RunConfig {
    RunConfig {
        n_cpus: cpus,
        seed,
        costs: CostModel::multimax(),
        kconfig,
        device_period: Some(Dur::millis(20)),
        timer_flush_period: Dur::millis(5),
        limit: Time::from_micros(120_000_000),
    }
}

fn cmd_tester(args: &Args) -> Result<(), String> {
    let children = args.num_u32("children", 7)?;
    let cpus = cpus_flag(args, 16, 2, "tester")?;
    let seed = args.num("seed", 1)?;
    let strategy = args.get("strategy").unwrap_or("shootdown");
    if children == 0 {
        return Err("--children: need at least 1 child".into());
    }
    if children as usize >= cpus {
        return Err("tester needs children + 1 processors".into());
    }
    if strategy == "naive" {
        return Err(
            "the naive strategy never kills the children; see `cargo run \
                    --example quickstart` for its bounded demonstration"
                .into(),
        );
    }
    let kconfig = apply_topology_flags(
        args,
        cpus,
        apply_residency_flag(
            args,
            apply_delivery_flags(args, strategy_config(strategy)?)?,
        )?,
    )?;
    let config = base_config(cpus, seed, kconfig);
    let out = run_tester(
        &config,
        &TesterConfig {
            children,
            warmup_increments: 40,
        },
    );
    println!("consistency tester: {children} children, {cpus} processors, strategy {strategy}");
    println!("  {}", delivery_line(&config.kconfig));
    if let Some(line) = topology_line(&config.kconfig) {
        println!("  {line}");
        println!(
            "  remote traffic: {} of {} IPIs crossed nodes, {} remote lock references",
            out.report.stats.ipis_remote,
            out.report.stats.ipis_sent,
            out.report.stats.remote_lock_refs
        );
    }
    if out.report.stats.multicast_rounds > 0 || out.report.stats.initiators_batched > 0 {
        println!(
            "  multicast rounds: {}, initiators batched: {}",
            out.report.stats.multicast_rounds, out.report.stats.initiators_batched
        );
    }
    if let Some(line) = residency_line(&config.kconfig, &out.report.stats) {
        println!("  {line}");
    }
    match out.shootdown {
        Some(shot) => println!(
            "  consistency action: {} processors, {:.1} us ({} pages)",
            shot.processors,
            shot.elapsed.as_micros_f64(),
            shot.pages
        ),
        None => println!("  consistency maintained without a recorded shootdown event"),
    }
    println!("  counters frozen after reprotect: {}", !out.mismatch);
    println!("  children killed by their faults: {}", out.children_dead);
    println!("  {}", hot_paths(&out.report));
    println!("  oracle: {}", verdict(&out.report));
    Ok(())
}

/// One line on the residency filter's work, printed only when it is live.
fn residency_line(kconfig: &KernelConfig, stats: &machtlb::core::KernelStats) -> Option<String> {
    kconfig.residency.then(|| {
        format!(
            "residency filter: {} IPIs filtered, {} ASID generations recycled",
            stats.ipis_filtered, stats.asid_recycles
        )
    })
}

fn verdict(report: &AppReport) -> String {
    if report.consistent {
        "consistent".to_string()
    } else {
        format!("VIOLATED ({} stale uses)", report.violations)
    }
}

/// One line on the simulator's fast paths: how much work the coalescing
/// action queues and epoch-based flushes absorbed during the run.
fn hot_paths(report: &AppReport) -> String {
    format!(
        "hot paths: {} actions coalesced ({} queue overflows avoided), \
         {}/{} TLB flushes were epoch bumps",
        report.stats.actions_coalesced,
        report.stats.queue_overflows_avoided,
        report.tlb_epoch_flushes,
        report.tlb_flushes,
    )
}

fn cmd_app(args: &Args) -> Result<(), String> {
    let name = args
        .positional
        .get(1)
        .ok_or("app: which one? mach|parthenon|agora|camelot")?
        .as_str();
    let cpus = cpus_flag(args, 16, app_min_cpus(name), name)?;
    let seed = args.num("seed", 1)?;
    let lazy = args.on_off("lazy", true)?;
    let mut config = base_config(
        cpus,
        seed,
        apply_residency_flag(
            args,
            KernelConfig {
                lazy_eval: lazy,
                ..Default::default()
            },
        )?,
    );
    config.device_period = Some(Dur::millis(5));
    let report = match name {
        "mach" => run_machbuild(&config, &MachBuildConfig::default()),
        "parthenon" => run_parthenon(&config, &ParthenonConfig::default()),
        "agora" => run_agora(&config, &AgoraConfig::default()),
        "camelot" => run_camelot(&config, &CamelotConfig::default()),
        other => return Err(format!("unknown app: {other}")),
    };
    println!(
        "{}: {:.0} ms simulated, lazy evaluation {}",
        report.name,
        report.runtime.as_micros_f64() / 1000.0,
        if lazy { "on" } else { "off" }
    );
    let mut t = TextTable::new(vec![
        "pmap",
        "events",
        "time mean\u{b1}sd (us)",
        "median",
        "overhead %",
    ]);
    for (kind, records) in [
        ("kernel", &report.kernel_initiators),
        ("user", &report.user_initiators),
    ] {
        let s = AppReport::elapsed_summary(records);
        t.add_row(vec![
            kind.into(),
            records.len().to_string(),
            s.as_ref().map_or("-".into(), |s| s.mean_pm_std()),
            s.map_or("-".into(), |s| format!("{:.0}", s.median)),
            format!("{:.2}", report.overhead_percent(records)),
        ]);
    }
    println!("{t}");
    if let Some(s) = report.responder_summary() {
        println!(
            "responders: {} events, mean {:.0} us",
            report.responders.len(),
            s.mean
        );
    }
    println!(
        "{}",
        counters_table(&[
            ("actions coalesced", report.stats.actions_coalesced),
            (
                "queue overflows avoided",
                report.stats.queue_overflows_avoided
            ),
            ("TLB flushes (total)", report.tlb_flushes),
            ("TLB flushes as epoch bumps", report.tlb_epoch_flushes),
            ("TLB misses", report.tlb_misses),
            ("IPIs sent", report.stats.ipis_sent),
            ("IPI watchdog retries", report.stats.ipi_retries),
        ])
    );
    if let Some(line) = residency_line(&config.kconfig, &report.stats) {
        println!("{line}");
    }
    println!("{}", bus_table(&report.bus));
    println!("oracle: {}", verdict(&report));
    Ok(())
}

/// The interconnect split: one row per bus transaction kind (IPIs travel
/// the interrupt fabric, not the memory bus, so they appear in the kernel
/// counters above rather than here).
fn bus_table(bus: &machtlb::sim::BusStats) -> TextTable {
    let mut t = TextTable::new(vec!["bus op", "transactions", "held (us)", "queued (us)"]);
    for op in BusOp::ALL {
        let row = bus.of(op);
        t.add_row(vec![
            op.name().into(),
            row.transactions.to_string(),
            format!("{:.0}", row.held.as_micros_f64()),
            format!("{:.0}", row.queued.as_micros_f64()),
        ]);
    }
    t
}

fn cmd_fig2(args: &Args) -> Result<(), Failure> {
    let cpus = cpus_flag(args, 16, 2, "fig2")?;
    let max_k = args.num_u32("max-k", (cpus - 1).min(15) as u32)?;
    if max_k == 0 || max_k as usize >= cpus {
        return Err(format!("--max-k: need 1 to {} on {cpus} processors", cpus - 1).into());
    }
    let runs = args.count("runs", 5)?;
    println!("basic shootdown cost, k = 1..={max_k} on {cpus} processors, {runs} runs each");
    let mut pts = Vec::new();
    for k in 1..=max_k {
        let mut samples = Vec::new();
        for seed in 0..runs {
            let config = base_config(cpus, 3000 + seed, KernelConfig::default());
            let out = run_tester(
                &config,
                &TesterConfig {
                    children: k,
                    warmup_increments: 40,
                },
            );
            if out.mismatch || !out.report.consistent {
                return Err(Failure::Run(format!("k={k} seed={seed}: inconsistency!")));
            }
            samples.push(out.shootdown.expect("shootdown").elapsed.as_micros_f64());
        }
        let s = Summary::of(&samples).expect("non-empty");
        println!("  k={k:<3} {:>7.1} \u{b1} {:>5.1} us", s.mean, s.std);
        if k <= 12 {
            pts.push((f64::from(k), s.mean));
        }
    }
    if let Some(fit) = linear_fit(&pts) {
        println!(
            "fit (k<=12): {:.0} us + {:.0} us/processor (paper: 430 + 55)",
            fit.intercept, fit.slope
        );
    }
    Ok(())
}

fn cmd_scaling(args: &Args) -> Result<(), Failure> {
    let upto = args.machine_size("upto", 128)?;
    let base_kconfig =
        apply_residency_flag(args, apply_delivery_flags(args, KernelConfig::default())?)?;
    let mut n = 16usize;
    println!("machine-wide shootdown cost vs machine size (scalable interconnect):");
    println!("  {}", delivery_line(&base_kconfig));
    while n <= upto {
        // Topology defaults derive from the machine size, so resolve the
        // flags at each point on the curve (--node-cpus tracks n/nodes).
        let kconfig = apply_topology_flags(args, n, base_kconfig.clone())?;
        if n == 16 {
            if let Some(line) = topology_line(&kconfig) {
                println!("  {line} (resolved per machine size)");
            }
        }
        let mut costs = CostModel::multimax();
        if n > 16 {
            costs.bus_occupancy = costs.bus_occupancy.mul_f64(16.0 / n as f64);
        }
        let config = RunConfig {
            n_cpus: n,
            seed: 7,
            costs,
            kconfig: kconfig.clone(),
            device_period: None,
            timer_flush_period: Dur::millis(5),
            limit: Time::from_micros(120_000_000),
        };
        let k = (n - 1) as u32;
        let out = run_tester(
            &config,
            &TesterConfig {
                children: k,
                warmup_increments: 20,
            },
        );
        if out.mismatch || !out.report.consistent {
            return Err(Failure::Run(format!("n={n}: inconsistency!")));
        }
        println!(
            "  {n:>4} processors: {:>8.0} us  (paper line: {:>6.0})",
            out.shootdown.expect("shootdown").elapsed.as_micros_f64(),
            430.0 + 55.0 * f64::from(k)
        );
        println!("       {}", hot_paths(&out.report));
        n *= 2;
    }
    Ok(())
}

/// Runs a workload with the flight recorder on, writes the Chrome
/// trace-event JSON, and prints the per-phase latency table.
fn cmd_trace(args: &Args) -> Result<(), Failure> {
    let workload = args.get("workload").unwrap_or("machbuild");
    let strategy = args.get("strategy").unwrap_or("shootdown");
    let cpus = cpus_flag(args, 16, app_min_cpus(workload), workload)?;
    let seed = args.num("seed", 1)?;
    let out_path = args.get("out").unwrap_or("machtlb-trace.json").to_string();
    let kconfig = apply_topology_flags(
        args,
        cpus,
        apply_residency_flag(
            args,
            apply_delivery_flags(
                args,
                KernelConfig {
                    trace_shootdowns: true,
                    ..strategy_config(strategy)?
                },
            )?,
        )?,
    )?;
    let mut config = base_config(cpus, seed, kconfig);
    config.device_period = Some(Dur::millis(5));
    let report = match workload {
        "mach" | "machbuild" => run_machbuild(&config, &MachBuildConfig::default()),
        "parthenon" => run_parthenon(&config, &ParthenonConfig::default()),
        "agora" => run_agora(&config, &AgoraConfig::default()),
        "camelot" => run_camelot(&config, &CamelotConfig::default()),
        "tester" => {
            let children = (cpus - 1).min(7) as u32;
            run_tester(
                &config,
                &TesterConfig {
                    children,
                    warmup_increments: 40,
                },
            )
            .report
        }
        other => return Err(format!("unknown workload: {other}").into()),
    };
    let events = &report.trace;
    let failed = |what: &str, e| Failure::Run(format!("{what}: {e}"));
    check_monotone_per_cpu(events).map_err(|e| failed("trace not monotone", e))?;
    let validated = validate_spans(events).map_err(|e| failed("span validation failed", e))?;
    let json = chrome_trace_json(events, report.n_cpus);
    validate_chrome_trace(&json).map_err(|e| failed("exporter produced bad JSON", e))?;
    std::fs::write(&out_path, &json).map_err(|e| format!("write {out_path}: {e}"))?;
    let spans = assemble_spans(events);
    println!(
        "{workload} under {strategy}: {} trace events across {} shootdown spans ({validated} validated)",
        events.len(),
        spans.len()
    );
    println!("{}", delivery_line(&config.kconfig));
    if let Some(line) = topology_line(&config.kconfig) {
        println!("{line}");
    }
    println!("wrote {out_path} — open it at https://ui.perfetto.dev or chrome://tracing");
    // On a NUMA machine the table carries a node column, attributing
    // each slice to the node it ran on; flat runs keep the plain table.
    match config.kconfig.topology.filter(|t| !t.is_flat()) {
        Some(topo) => {
            let mut t = TextTable::new(vec![
                "phase", "node", "slices", "p10 (us)", "median", "p90", "mean",
            ]);
            for (phase, node, samples) in phase_latencies_by_node(events, topo) {
                let s = Summary::of(&samples).expect("empty rows are omitted");
                t.add_row(vec![
                    phase.name().into(),
                    node.to_string(),
                    samples.len().to_string(),
                    format!("{:.1}", s.p10),
                    format!("{:.1}", s.median),
                    format!("{:.1}", s.p90),
                    format!("{:.1}", s.mean),
                ]);
            }
            println!("{t}");
        }
        None => {
            let mut t =
                TextTable::new(vec!["phase", "slices", "p10 (us)", "median", "p90", "mean"]);
            for (phase, samples) in phase_latencies(events) {
                let s = Summary::of(&samples).expect("phase_latencies omits empty phases");
                t.add_row(vec![
                    phase.name().into(),
                    samples.len().to_string(),
                    format!("{:.1}", s.p10),
                    format!("{:.1}", s.median),
                    format!("{:.1}", s.p90),
                    format!("{:.1}", s.mean),
                ]);
            }
            println!("{t}");
        }
    }
    // The fail-stop recovery path, when the run exercised it: how long
    // eviction detection, the rejoin fence, and the rejoin itself took.
    let recovery = recovery_latencies(events);
    if !recovery.is_empty() {
        let mut rt = TextTable::new(vec!["recovery", "events", "p10 (us)", "median", "p90"]);
        for (name, samples) in recovery {
            let s = Summary::of(&samples).expect("recovery_latencies omits empty rows");
            rt.add_row(vec![
                name.into(),
                samples.len().to_string(),
                format!("{:.1}", s.p10),
                format!("{:.1}", s.median),
                format!("{:.1}", s.p90),
            ]);
        }
        println!("{rt}");
    }
    let totals: Vec<machtlb::sim::Dur> = spans
        .iter()
        .filter_map(|sp| {
            let begin = sp.slices.iter().map(|s| s.begin).min()?;
            let end = sp.slices.iter().map(|s| s.end).max()?;
            Some(end.duration_since(begin))
        })
        .collect();
    let h = Histogram::of(&totals);
    if h.count() > 0 {
        println!("whole-span latency distribution ({} spans):", h.count());
        let _ = write!(std::io::stdout(), "{}", h.render(40));
    }
    println!("oracle: {}", verdict(&report));
    Ok(())
}

/// Runs the page-migration storm, printing the per-node traffic split —
/// the workload that makes topology placement visible.
fn cmd_storm(args: &Args) -> Result<(), String> {
    let cpus = cpus_flag(args, 16, 1, "storm")?;
    let seed = args.num("seed", 1)?;
    let cross = args.on_off("cross", false)?;
    let storm = MigrationStormConfig {
        workers_per_node: args.num("workers", 2)? as usize,
        pages_per_worker: args.num("pages", 4)?,
        migrations_per_worker: args.num("migrations", 8)?,
        cross_node: cross,
    };
    let kconfig = apply_topology_flags(
        args,
        cpus,
        apply_residency_flag(args, KernelConfig::default())?,
    )?;
    // `--cross on` targets `(node + 1) % nodes`, which on a single-node
    // (or flat) machine silently wraps back to the same node and measures
    // node-local traffic while claiming cross-node. Refuse instead.
    let nodes = kconfig.topology.map_or(1, |t| t.nodes());
    if cross && nodes <= 1 {
        return Err(format!(
            "--cross on needs at least 2 nodes (got {nodes}): cross-node \
             migration would wrap back to the same node; pass --nodes 2 \
             or more"
        ));
    }
    let mut config = base_config(cpus, seed, kconfig);
    config.device_period = None;
    let out = run_migration_storm(&config, &storm);
    let r = &out.report;
    println!(
        "migration storm: {} workers/node x {} migrations, {} traffic, {cpus} processors",
        storm.workers_per_node,
        storm.migrations_per_worker,
        if cross { "cross-node" } else { "node-local" },
    );
    if let Some(line) = topology_line(&config.kconfig) {
        println!("{line}");
    }
    println!(
        "{:.1} ms simulated, {} pages migrated by {} workers",
        r.runtime.as_micros_f64() / 1000.0,
        out.migrations,
        out.workers_done
    );
    println!(
        "{}",
        counters_table(&[
            ("IPIs sent", r.stats.ipis_sent),
            ("IPIs crossing nodes", r.stats.ipis_remote),
            ("pmap lock refs crossing nodes", r.stats.remote_lock_refs),
            ("user-pmap shootdowns", r.stats.shootdowns_user),
            ("TLB flushes", r.tlb_flushes),
        ])
    );
    if let Some(line) = residency_line(&config.kconfig, &r.stats) {
        println!("{line}");
    }
    let mut t = TextTable::new(vec![
        "node",
        "IPIs out",
        "remote IPIs",
        "lock refs",
        "remote refs",
        "pages in",
    ]);
    for (node, c) in r.node_stats.iter().enumerate() {
        t.add_row(vec![
            node.to_string(),
            c.ipis_sent.to_string(),
            c.ipis_remote.to_string(),
            c.lock_refs.to_string(),
            c.remote_lock_refs.to_string(),
            c.page_migrations_in.to_string(),
        ]);
    }
    println!("{t}");
    println!("oracle: {}", verdict(r));
    Ok(())
}

/// Holds every `BENCH_<name>.json` under `--current` against the file of
/// the same name under `--baseline`, inside a relative noise envelope on
/// each headline number. Baseline files with no current counterpart are
/// reported (the bench stopped emitting); current files with no baseline
/// pass (the trajectory growing).
fn cmd_bench_check(args: &Args) -> Result<(), Failure> {
    let baseline_dir = args
        .get("baseline")
        .ok_or_else(|| "bench-check needs --baseline DIR".to_string())?;
    let current_dir = args.get("current").unwrap_or(".");
    let tolerance = args.num("tolerance", 30)? as f64 / 100.0;
    let mut names: Vec<String> = std::fs::read_dir(baseline_dir)
        .map_err(|e| format!("read {baseline_dir}: {e}"))?
        .filter_map(|e| e.ok())
        .filter_map(|e| e.file_name().into_string().ok())
        .filter(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
        .collect();
    names.sort();
    if names.is_empty() {
        return Err(format!("no BENCH_*.json baselines under {baseline_dir}").into());
    }
    let mut bad = Vec::new();
    let mut checked = 0usize;
    for name in &names {
        let base_text = std::fs::read_to_string(format!("{baseline_dir}/{name}"))
            .map_err(|e| format!("read {baseline_dir}/{name}: {e}"))?;
        let baseline = parse_report(&base_text).map_err(|e| format!("{name} (baseline): {e}"))?;
        let cur_path = format!("{current_dir}/{name}");
        let Ok(cur_text) = std::fs::read_to_string(&cur_path) else {
            bad.push(format!("{name}: no current result at {cur_path}"));
            continue;
        };
        let current = parse_report(&cur_text).map_err(|e| format!("{name} (current): {e}"))?;
        let failures = compare_reports(&baseline, &current, tolerance);
        println!(
            "  {name}: {} metrics vs baseline, {} outside the envelope",
            baseline.metrics.len(),
            failures.len()
        );
        if !failures.is_empty() {
            // The per-metric diff, so a red run says exactly which
            // numbers moved and by how much without rerunning anything.
            let mut t = TextTable::new(vec![
                "metric",
                "baseline (us)",
                "current (us)",
                "ratio",
                "verdict",
            ]);
            for d in diff_reports(&baseline, &current, tolerance) {
                t.add_row(vec![
                    d.name.clone(),
                    format!("{:.1}", d.baseline_us),
                    d.current_us.map_or("gone".into(), |c| format!("{c:.1}")),
                    d.ratio().map_or("n/a".into(), |r| format!("{r:.3}")),
                    if d.within { "ok" } else { "OUTSIDE" }.into(),
                ]);
            }
            println!("{t}");
        }
        checked += baseline.metrics.len();
        bad.extend(failures);
    }
    if !bad.is_empty() {
        return Err(Failure::Run(format!(
            "bench envelope (±{:.0}%) violated:\n  {}",
            tolerance * 100.0,
            bad.join("\n  ")
        )));
    }
    println!(
        "bench envelope green: {checked} metrics across {} benches within ±{:.0}%",
        names.len(),
        tolerance * 100.0
    );
    Ok(())
}

/// Runs a campaign's schedules through the one engine and reports them
/// the same way for every preset: the outcome table (`--out` writes it),
/// the totals, recovery counters and coverage, a diagnosis of the first
/// incomplete run, and the campaign JSON (`--json`, written in both
/// verdicts so CI can archive the red run it is about to fail on).
/// Returns the outcomes and the envelope failures for [`envelope_verdict`].
fn campaign(
    args: &Args,
    name: &str,
    schedules: impl IntoIterator<Item = FaultSchedule>,
) -> Result<(Vec<ChaosOutcome>, Vec<String>), String> {
    let outcomes = run_campaign(schedules);
    let mut t = TextTable::new(vec![
        "run",
        "plan",
        "envelope",
        "cpus",
        "seed",
        "survival",
        "violations",
        "retries",
        "degraded",
        "recovered",
        "faults",
        "end (ms)",
    ]);
    // A long campaign (a 200-schedule fuzz, an hour of soak) keeps every
    // row on the wrong side of its envelope and a sample of the rest.
    let sampled = outcomes.len() > 64;
    for (i, o) in outcomes.iter().enumerate() {
        if sampled && !o.off_envelope() && i % 25 != 0 {
            continue;
        }
        let recovered = o.stats.evictions + o.stats.fenced_rejoins + o.stats.locks_stolen;
        t.add_row(vec![
            i.to_string(),
            if o.plan().is_empty() { "-" } else { o.plan() }.into(),
            if o.tolerable() { "tolerable" } else { "beyond" }.into(),
            o.n_cpus.to_string(),
            o.seed.to_string(),
            o.survival.name().into(),
            o.violations.to_string(),
            o.stats.ipi_retries.to_string(),
            o.stats.degraded_flushes.to_string(),
            recovered.to_string(),
            o.faults.map_or(0, |f| f.total()).to_string(),
            format!("{:.1}", o.end.as_millis_f64()),
        ]);
    }
    let table = t.to_string();
    println!("{table}");
    if let Some(path) = args.get("out") {
        std::fs::write(path, &table).map_err(|e| format!("write {path}: {e}"))?;
        println!("wrote {path}");
    }
    let totals = CampaignTotals::of(&outcomes);
    println!(
        "totals: {} runs, {} completed, {} pmap operations, {} violations, {} unrecovered give-ups",
        outcomes.len(),
        totals.completed,
        totals.ops,
        totals.violations,
        totals.unrecovered
    );
    println!("recovery: {}", totals.stats.hardening_line());
    let c = Coverage::of(&outcomes);
    println!(
        "coverage: {} schedules, {} events ({} wrongful stalls); victims \
         relay={} holder={} initiator={} rejoiner={}; survivals \
         tolerated={} degraded={} detected-fatal={}",
        c.schedules,
        c.events,
        c.wrongful_stalls,
        c.relay_victims,
        c.holder_victims,
        c.initiator_victims,
        c.rejoiner_victims,
        c.survivals[0],
        c.survivals[1],
        c.survivals[2],
    );
    if let Some(o) = outcomes.iter().find(|o| !o.completed) {
        if let Some(r) = &o.report {
            println!(
                "diagnosis of the first incomplete run ({} seed {}):",
                o.plan(),
                o.seed
            );
            println!("{r}");
        }
    }
    let failures = check_envelope(&outcomes);
    if let Some(path) = args.get("json") {
        let json = campaign_json(name, &outcomes, &failures);
        std::fs::write(path, &json).map_err(|e| format!("write {path}: {e}"))?;
        println!("wrote {path}");
    }
    Ok((outcomes, failures))
}

/// The one exit rule of every campaign: green iff no row landed on the
/// wrong side of its envelope — a tolerable schedule caught fatal, or a
/// beyond-envelope schedule passing silently.
fn envelope_verdict(
    name: &str,
    outcomes: &[ChaosOutcome],
    failures: &[String],
) -> Result<(), Failure> {
    if !failures.is_empty() {
        return Err(Failure::Run(format!(
            "{name} envelope violated:\n  {}",
            failures.join("\n  ")
        )));
    }
    let fatal = outcomes
        .iter()
        .filter(|o| o.survival == Survival::DetectedFatal)
        .count();
    println!(
        "envelope: two-sided check green — {} runs, {fatal} beyond-envelope runs caught",
        outcomes.len()
    );
    Ok(())
}

/// The chaos preset: the catalog across seeds, with the rounds and the
/// topology flags stamped into every schedule.
fn cmd_chaos(args: &Args) -> Result<(), Failure> {
    let cpus = cpus_flag(args, 8, 4, "chaos")?;
    let n_seeds = args.count("seeds", 3)?;
    let rounds = args.count("rounds", 3)?;
    let seeds: Vec<u64> = (1..=n_seeds).collect();
    let kconfig = apply_topology_flags(args, cpus, KernelConfig::default())?;
    let schedules = chaos_schedules(cpus, &seeds, rounds, kconfig.topology);
    println!(
        "chaos: {} plans x {} seeds on {cpus} processors, {rounds} shootdown rounds each",
        schedules.len() / seeds.len(),
        seeds.len()
    );
    if let Some(line) = topology_line(&kconfig) {
        println!("{line}");
    }
    let (outcomes, failures) = campaign(args, "chaos", schedules)?;
    envelope_verdict("chaos", &outcomes, &failures)
}

/// Parses a wall-clock duration flag: a bare number is seconds, and the
/// suffixes `ms`, `s`, `m`, `h` select the unit (`500ms`, `30s`, `5m`,
/// `1h`).
fn parse_duration(v: &str) -> Result<std::time::Duration, String> {
    let bad = || format!("bad duration {v} (want e.g. 500ms, 30s, 5m, 1h)");
    let (digits, unit) = match v.find(|c: char| !c.is_ascii_digit()) {
        Some(i) => v.split_at(i),
        None => (v, "s"),
    };
    let n: u64 = digits.parse().map_err(|_| bad())?;
    let millis = match unit {
        "ms" => n,
        "s" => n * 1_000,
        "m" => n * 60_000,
        "h" => n * 3_600_000,
        _ => return Err(bad()),
    };
    Ok(std::time::Duration::from_millis(millis))
}

/// The soak preset: rotating fault shapes cycled through the membership
/// fence with the consistency checker on, by count or by wall clock.
fn cmd_soak(args: &Args) -> Result<(), Failure> {
    let smoke = args.on_off("smoke", false)?;
    let mut cpus = cpus_flag(args, 32, 4, "soak")?;
    let mut cycles = args.num("cycles", 5)?;
    let seed = args.num("seed", 7)?;
    let mut rounds = args.count("rounds", 3)?;
    let duration = args.get("duration").map(parse_duration).transpose()?;
    if cycles == 0 && duration.is_none() {
        return Err("--cycles: need at least 1 (or a --duration)"
            .to_string()
            .into());
    }
    if smoke {
        // The CI-budget preset: one full shape rotation on the smallest
        // machine in the 32–128 acceptance band, two rounds a cycle.
        cpus = cpus.min(32);
        cycles = cycles.min(5);
        rounds = rounds.min(2);
    }
    let mut cfg = SoakConfig::new(cpus, cycles, seed);
    cfg.rounds = rounds;
    cfg.inject_exhaustion = args.on_off("inject-exhaustion", false)?;
    cfg.duration = duration;
    let span = match duration {
        Some(d) => format!("{d:?} of fault cycles"),
        None => format!("{cycles} fault cycles"),
    };
    println!(
        "soak: {span} on {cpus} processors, {rounds} rounds each{}",
        if cfg.inject_exhaustion {
            " + one planted exhaustion cycle"
        } else {
            ""
        }
    );
    let (outcomes, failures) = campaign(args, "soak", soak_schedules(&cfg))?;
    envelope_verdict("soak", &outcomes, &failures)
}

/// The fuzz preset: a seeded campaign of generated schedules. A red run
/// is shrunk and written to `--repro` before the verdict fails.
fn cmd_fuzz(args: &Args) -> Result<(), Failure> {
    let smoke = args.on_off("smoke", false)?;
    let seed = args.num("seed", 1)?;
    let mut budget = args.count("budget", 200)?;
    let mut cpus = args.machine_size("cpus", 0)?;
    let mut rounds = args.count("rounds", 3)?;
    let do_shrink = args.on_off("shrink", true)?;
    let max_replays = args.num("max-replays", 500)?;
    if smoke {
        // The CI-budget preset: a handful of schedules on a small
        // machine, still seed-deterministic.
        budget = budget.min(8);
        if cpus == 0 {
            cpus = 8;
        }
        rounds = rounds.min(2);
    }
    if cpus != 0 && cpus < 6 {
        return Err("fuzz needs at least 6 processors (or --cpus 0 to rotate)"
            .to_string()
            .into());
    }
    let cfg = FuzzConfig {
        seed,
        budget,
        n_cpus: cpus,
        rounds,
    };
    println!(
        "fuzz: {budget} schedules from seed {seed} on {} processors, {rounds} rounds each",
        if cpus == 0 {
            "32/48/64".to_string()
        } else {
            cpus.to_string()
        }
    );
    let (outcomes, failures) = campaign(args, "fuzz", fuzz_schedules(&cfg))?;
    // A finding: minimize the first caught schedule and leave a repro
    // behind before failing the exit code.
    let first_red = outcomes
        .iter()
        .find(|o| o.off_envelope() && is_red(o))
        .and_then(|o| o.schedule.as_ref());
    if let Some(first) = first_red {
        let repro_path = args.get("repro").unwrap_or("repro.json");
        let repro = if do_shrink {
            let sr = shrink(first, max_replays).map_err(Failure::Run)?;
            println!(
                "shrink: {} events -> {} in {} replays",
                sr.original_events, sr.minimal_events, sr.replays
            );
            for step in &sr.steps {
                println!("  - {step}");
            }
            sr.schedule
        } else {
            first.clone()
        };
        std::fs::write(repro_path, schedule_json(&repro))
            .map_err(|e| format!("write {repro_path}: {e}"))?;
        println!("wrote {repro_path}");
        println!("replay with: machtlb replay --schedule {repro_path}");
    }
    envelope_verdict("fuzz", &outcomes, &failures)
}

/// Replays one serialized schedule. Not a campaign: it reproduces a
/// single run, and exits 1 while the failure lives.
fn cmd_replay(args: &Args) -> Result<(), Failure> {
    let path = args
        .get("schedule")
        .ok_or_else(|| "replay needs --schedule FILE".to_string())?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let s = parse_schedule(&text)?;
    println!(
        "replay: {} on {} processors ({} node(s), fanout {}), {} event(s), machine seed {}",
        path,
        s.n_cpus,
        s.nodes,
        s.fanout,
        s.events.len(),
        s.seed
    );
    let o = run_schedule(&s);
    println!(
        "survival={} completed={} violations={} {} activation_stalls={} steps={} end={:?}",
        o.survival.name(),
        o.completed,
        o.violations,
        o.stats.hardening_line(),
        o.stats.activation_stalls,
        o.steps,
        o.end
    );
    if let Some(rep) = &o.report {
        println!("{rep}");
    }
    if is_red(&o) {
        return Err(Failure::Run(format!(
            "replay caught: {} ({} violations, completed={})",
            o.survival.name(),
            o.violations,
            o.completed
        )));
    }
    println!("replay survived (schedule is green under recovery)");
    Ok(())
}

/// The shared flag groups several subcommands take, space-separated.
const DELIVERY: &str = "fanout shards batch";
const RESIDENCY: &str = "residency";
const TOPOLOGY: &str = "nodes node-cpus remote-latency";

/// The flags each subcommand takes; `main` refuses any other, so a
/// misspelt flag is an error instead of a silent default.
const FLAGS: &[(&str, &[&str])] = &[
    (
        "tester",
        &["children cpus seed strategy", DELIVERY, RESIDENCY, TOPOLOGY],
    ),
    ("app", &["cpus seed lazy", RESIDENCY]),
    ("fig2", &["cpus max-k runs"]),
    ("scaling", &["upto", DELIVERY, RESIDENCY, TOPOLOGY]),
    (
        "trace",
        &[
            "workload strategy cpus seed out",
            DELIVERY,
            RESIDENCY,
            TOPOLOGY,
        ],
    ),
    (
        "storm",
        &[
            "cpus seed workers pages migrations cross",
            RESIDENCY,
            TOPOLOGY,
        ],
    ),
    ("bench-check", &["baseline current tolerance"]),
    ("chaos", &["cpus seeds rounds out json", TOPOLOGY]),
    (
        "soak",
        &["cpus cycles duration seed rounds smoke inject-exhaustion out json"],
    ),
    (
        "fuzz",
        &["seed budget cpus rounds shrink max-replays smoke json repro"],
    ),
    ("replay", &["schedule"]),
];

/// Refuses a flag the subcommand `cmd` does not take.
fn check_flags(cmd: &str, args: &Args) -> Result<(), String> {
    let Some((_, groups)) = FLAGS.iter().find(|(c, _)| *c == cmd) else {
        return Ok(());
    };
    for (flag, _) in &args.flags {
        if !groups.iter().flat_map(|g| g.split(' ')).any(|f| f == flag) {
            return Err(format!("{cmd} does not take --{flag}"));
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let cmd = args.positional.first().map_or("help", String::as_str);
    let run = || -> Result<(), Failure> {
        check_flags(cmd, &args)?;
        match cmd {
            "tester" => Ok(cmd_tester(&args)?),
            "app" => Ok(cmd_app(&args)?),
            "fig2" => cmd_fig2(&args),
            "scaling" => cmd_scaling(&args),
            "trace" => cmd_trace(&args),
            "storm" => Ok(cmd_storm(&args)?),
            "bench-check" => cmd_bench_check(&args),
            "chaos" => cmd_chaos(&args),
            "soak" => cmd_soak(&args),
            "fuzz" => cmd_fuzz(&args),
            "replay" => cmd_replay(&args),
            "help" => {
                println!("{USAGE}");
                Ok(())
            }
            other => Err(format!("unknown command: {other}").into()),
        }
    };
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(Failure::Usage(e)) => {
            eprintln!("error: {e}\n\n{USAGE}");
            ExitCode::FAILURE
        }
        Err(Failure::Run(e)) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
