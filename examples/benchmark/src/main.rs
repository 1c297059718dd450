//! The repository benchmark: four workloads, host and simulated end-to-end
//! metrics, and a per-layer ledger measured from outside the library.
//!
//! ```sh
//! cargo run --release --manifest-path examples/benchmark/Cargo.toml -- \
//!     --workload <paper16|camelot64|scale1024|fuzz-band|all> --seed N \
//!     [--seconds S] [--trace 0|1] [--out DIR]
//! ```
//!
//! The load is a closed loop on one thread: runs back to back, each on a
//! fresh simulated machine. A workload's fixed passes always run, then
//! the passes repeat (with fresh seeds) until S host seconds have passed
//! (default 10; 0 runs the fixed passes only). Host metrics are medians
//! over all passes; simulated metrics cover exactly the fixed passes, so
//! they depend on the seed alone. `--trace 1` runs the fixed passes
//! untraced, then again with the flight recorder on, then the layer
//! probes, and reports the per-layer metrics. See README.md.

mod heap;
mod metrics;
mod probes;
mod workloads;

#[global_allocator]
static ALLOCATOR: heap::Counting = heap::Counting;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

use machtlb::core::SplitMix64;

use metrics::{
    json_str, layer_value, Better, LayerInputs, Ledger, END_TO_END, PER_LAYER, RUN_SECONDS,
};
use workloads::{execute, Exec, Job, RunRecord, Size, Workload};

const USAGE: &str = "usage: benchmark --workload <paper16|camelot64|scale1024|fuzz-band|all> \
                     --seed N [--seconds S] [--trace 0|1] [--out DIR]";

/// Parsed command line.
#[derive(Clone, Debug, PartialEq)]
struct Args {
    /// `None` means every workload, each in its own process.
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = RUN_SECONDS as f64;
    let mut trace = false;
    let mut out = PathBuf::from("target/benchmark");
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(if v == "all" {
                    None
                } else {
                    Some(Workload::parse(v).ok_or_else(|| format!("unknown workload {v:?}"))?)
                });
            }
            "--seed" => {
                let v = value()?;
                seed = Some(v.parse().map_err(|_| format!("bad seed {v:?}"))?);
            }
            "--seconds" => {
                let v = value()?;
                seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0 && *s <= 3600.0)
                    .ok_or_else(|| format!("bad seconds {v:?} (0..=3600)"))?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("bad trace {v:?} (0 or 1)")),
                };
            }
            "--out" => out = PathBuf::from(value()?),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        out,
    })
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match args.workload {
        Some(w) => run_one(w, &args),
        None => run_all(&raw),
    }
}

/// Re-executes this program once per workload, so each has its own
/// process and its own peak memory.
fn run_all(raw: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("error: cannot locate the benchmark executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for w in Workload::ALL {
        let mut args = raw.to_vec();
        let at = args
            .iter()
            .position(|a| a == "--workload")
            .expect("parsed args hold --workload");
        args[at + 1] = w.name().to_string();
        match Command::new(&exe).args(&args).status() {
            Ok(status) => ok &= status.success(),
            Err(e) => {
                eprintln!("error: cannot run {}: {e}", w.name());
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One measurement: every run's host spans and verdict, and the fixed
/// passes' simulated outcomes folded into a ledger as they complete (a
/// run's samples are dropped once folded, so the benchmark's own memory
/// stays small next to the simulator's).
struct Measured {
    records: Vec<RunRecord>,
    ledger: Ledger,
    /// The first run's fingerprint, for the determinism guard.
    first: Option<String>,
    /// Peak heap (MB) when the fixed passes ended: the warm-up and the
    /// fixed passes only, so it depends on the seed alone.
    peak_heap_mb: f64,
    /// (runs, host seconds of workload, host seconds of setup) per pass.
    passes: Vec<(usize, f64, f64)>,
}

impl Measured {
    fn failed(&self) -> usize {
        self.records.iter().filter(|r| r.failure.is_some()).count()
    }
}

/// The closed loop: the fixed passes, then further passes (the same
/// shapes, fresh seeds) until `seconds` host seconds have passed.
fn measure(w: Workload, size: Size, seed: u64, seconds: f64, exec: &Exec) -> Measured {
    let mut rng = SplitMix64::new(seed);
    let started = Instant::now();
    let mut m = Measured {
        records: Vec::new(),
        ledger: Ledger {
            keep_latencies: exec.traced,
            ..Ledger::default()
        },
        first: None,
        peak_heap_mb: 0.0,
        passes: Vec::new(),
    };
    while m.passes.len() < size.passes || started.elapsed().as_secs_f64() < seconds {
        let fixed = m.passes.len() < size.passes;
        let (mut runs, mut secs, mut setup) = (0, 0.0, 0.0);
        for job in w.pass(size, m.passes.len(), &mut rng) {
            let mut r = execute(job, exec);
            if m.records.is_empty() {
                m.first = fingerprint(&r).map(str::to_string);
            }
            if fixed {
                m.ledger.add(&r);
            }
            r.sim = None;
            runs += 1;
            secs += r.workload_secs();
            setup += r.setup_secs();
            m.records.push(r);
        }
        m.passes.push((runs, secs, setup));
        if m.passes.len() == size.passes {
            m.peak_heap_mb = heap::peak_mb();
        }
    }
    m
}

/// A seed for the untimed warm-up run, outside the timed set's stream.
fn warmup_job(w: Workload, size: Size, seed: u64) -> Job {
    w.pass(size, 0, &mut SplitMix64::new(!seed))[0]
}

/// Peak resident set size (MB) of this process, from `VmHWM`: printed as a
/// note, since it swings with the allocator's fragmentation (see `heap`).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// A metric's value (`None` where not observable) with its table entry.
struct Value {
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: Option<f64>,
    value: Option<f64>,
}

/// One workload's report.
struct Report {
    workload: Workload,
    trace: bool,
    attempted: usize,
    failed: usize,
    /// Metric values in table order.
    metrics: Vec<Value>,
    /// Human-readable notes (simulated distributions, paper fidelity).
    notes: Vec<String>,
    failures: Vec<String>,
    deterministic: bool,
}

fn run_one(w: Workload, args: &Args) -> ExitCode {
    let report = if args.trace {
        layer_report(w, w.full_size(), args.seed, Some(&args.out))
    } else {
        end_to_end_report(w, w.full_size(), args.seed, args.seconds)
    };
    emit(&report, &args.out, args.seed)
}

/// The end-to-end metrics of `w`, from untraced runs.
fn end_to_end_report(w: Workload, size: Size, seed: u64, seconds: f64) -> Report {
    let exec = Exec::new(false);
    execute(warmup_job(w, size, seed), &exec);
    let m = measure(w, size, seed, seconds, &exec);
    // A bound on a simulated metric is only sound if a replay is
    // bit-identical: run the first job again and compare.
    let replay = execute(m.records[0].job, &exec);
    let deterministic = m.first.is_some() && m.first.as_deref() == fingerprint(&replay);
    let ledger = &m.ledger;
    let rates: Vec<f64> = m.passes.iter().map(|&(n, s, _)| n as f64 / s).collect();
    let setups: Vec<f64> = m.passes.iter().map(|&(n, _, s)| s / n as f64).collect();
    let value = |name: &str| -> Option<f64> {
        match name {
            "runs_per_s" => metrics::median(&rates),
            "setup_s" => metrics::median(&setups),
            "peak_heap_mb" => Some(m.peak_heap_mb),
            "sim_makespan_ms" => deterministic.then(|| ledger.sim_makespan_ms()),
            "sim_ipis_per_shootdown" => ledger.sim_ipis_per_shootdown().filter(|_| deterministic),
            other => panic!("no computation for end-to-end metric {other}"),
        }
    };
    let metrics = END_TO_END
        .iter()
        .map(|e| Value {
            name: e.name,
            unit: e.unit,
            better: e.better,
            bound: Some(e.bound),
            value: value(e.name),
        })
        .collect();
    Report {
        workload: w,
        trace: false,
        attempted: m.records.len(),
        failed: m.failed(),
        metrics,
        notes: [
            sim_notes(w, ledger, m.passes.len(), size.passes),
            peak_rss_mb()
                .map(|mb| format!("peak RSS (VmHWM) {mb} MB"))
                .into_iter()
                .collect(),
        ]
        .concat(),
        failures: failure_lines(&m.records),
        deterministic,
    }
}

/// The per-layer metrics of `w`: the fixed passes untraced, then traced,
/// then the layer probes. Writes the benchmark's spans to `out` when set.
fn layer_report(w: Workload, size: Size, seed: u64, out: Option<&Path>) -> Report {
    execute(warmup_job(w, size, seed), &Exec::new(false));
    let plain = measure(w, size, seed, 0.0, &Exec::new(false));
    let traced = measure(w, size, seed, 0.0, &Exec::new(true));
    // Recording must observe the simulation, never steer it.
    let deterministic = plain.first.is_some() && plain.first == traced.first;
    let ledger = &traced.ledger;
    let probes = probes::run(w.cpus(), ledger.tlb);
    let inputs = LayerInputs {
        untraced: &plain.ledger,
        probes: &probes,
    };
    let metrics = PER_LAYER
        .iter()
        .map(|l| Value {
            name: l.name,
            unit: l.unit,
            better: l.better,
            bound: None,
            value: layer_value(l.name, ledger, &inputs),
        })
        .collect();
    if let Some(dir) = out {
        let path = dir.join(format!("{}.trace.json", w.name()));
        if let Err(e) = write_file(&path, &chrome_trace(&traced.records)) {
            eprintln!("warning: cannot write {}: {e}", path.display());
        }
    }
    let mut records = plain.records;
    records.extend(traced.records);
    Report {
        workload: w,
        trace: true,
        attempted: records.len(),
        failed: records.iter().filter(|r| r.failure.is_some()).count(),
        metrics,
        notes: [
            sim_notes(w, ledger, size.passes, size.passes),
            metrics::host_notes(&plain.ledger, ledger),
        ]
        .concat(),
        failures: failure_lines(&records),
        deterministic,
    }
}

fn fingerprint(r: &RunRecord) -> Option<&str> {
    r.sim.as_ref().map(|s| s.fingerprint.as_str())
}

fn failure_lines(records: &[RunRecord]) -> Vec<String> {
    records
        .iter()
        .filter_map(|r| {
            r.failure
                .as_ref()
                .map(|f| format!("{:?} seed {}: {f}", r.job.spec, r.job.seed))
        })
        .collect()
}

/// Simulated distributions and the paper-fidelity checks, which are not
/// benchmark metrics: they are printed as notes and kept in the report.
fn sim_notes(w: Workload, l: &Ledger, passes: usize, fixed: usize) -> Vec<String> {
    let mut notes = vec![format!(
        "{passes} passes run; simulated figures cover the {fixed} fixed passes ({} runs)",
        l.runs
    )];
    if let Some(p50) = metrics::median(&l.initiators_us) {
        let tail = metrics::tail(&l.initiators_us)
            .map_or("no tail (too few samples)".into(), |(p, v)| {
                format!("p{p} {v} sim_us")
            });
        notes.push(format!(
            "initiator shootdowns: n={} p50 {p50} sim_us, {tail}",
            l.initiators_us.len()
        ));
    }
    if let Some(p50) = metrics::median(&l.responders_us) {
        notes.push(format!(
            "responders: n={} p50 {p50} sim_us",
            l.responders_us.len()
        ));
    }
    for (kind, xs) in &l.overhead_pct {
        if let Some(p50) = metrics::median(xs) {
            notes.push(format!("section 7.3 overhead ({kind}): median {p50} %"));
        }
    }
    if w == Workload::Paper16 {
        let means: Vec<String> = (1..=15)
            .filter_map(|k| {
                let xs: Vec<f64> = l.fig2.iter().filter(|s| s.0 == k).map(|s| s.1).collect();
                (!xs.is_empty()).then(|| format!("{:.0}", xs.iter().sum::<f64>() / xs.len() as f64))
            })
            .collect();
        notes.push(format!(
            "figure 2 mean sim_us for k=1..: {}",
            means.join(" ")
        ));
        if let Some(e) = metrics::model_fit_err_pct(&l.fig2) {
            notes.push(format!(
                "model_fit_err_pct {e} % (Figure 2, k=1..12 vs 430+55k us; calibration pair)"
            ));
        }
        if let Some(e) = metrics::model_heldout_err_pct(&l.table3_us) {
            notes.push(format!(
                "model_heldout_err_pct {e} % (Camelot@16 median of {} user shootdowns vs Table 3's 588 us)",
                l.table3_us.len()
            ));
        }
    }
    notes
}

/// A report as text: what goes to stdout (metric lines, `#` notes, and
/// the JSON summary as the last line) and the `<workload>.json` file.
struct Rendered {
    stdout: String,
    detail: String,
    correct: bool,
}

fn render(r: &Report, seed: u64) -> Rendered {
    let name = r.workload.name();
    let mut out = String::new();
    for m in &r.metrics {
        out += &format!("{name} {} {} {}\n", m.name, m.value.unwrap_or(0.0), m.unit);
    }
    out += &format!("# {name} {}\n", r.workload.why());
    for n in &r.notes {
        out += &format!("# {name} {n}\n");
    }
    let unobserved: Vec<String> = r
        .metrics
        .iter()
        .filter(|m| m.value.is_none())
        .map(|m| m.name.to_string())
        .collect();
    if !unobserved.is_empty() {
        out += &format!(
            "# {name} not observable here (printed as 0): {}\n",
            unobserved.join(" ")
        );
    }
    let error_rate = r.failed as f64 / r.attempted.max(1) as f64;
    out += &format!(
        "# {name} error_rate {error_rate} ({} of {} runs failed)\n",
        r.failed, r.attempted
    );
    // End-to-end metrics must all be present and non-zero; layer metrics
    // may be unobservable.
    let complete = r.trace || r.metrics.iter().all(|m| m.value.is_some_and(|v| v > 0.0));
    let finite = r.metrics.iter().all(|m| m.value.is_none_or(f64::is_finite));
    let correct = r.failed == 0 && r.deterministic && complete && finite;
    let num = |v: Option<f64>| {
        v.filter(|v| v.is_finite())
            .map_or("null".into(), |v| v.to_string())
    };
    let metrics_json = r
        .metrics
        .iter()
        .filter_map(|m| {
            let v = if r.trace {
                m.value.or(Some(0.0))
            } else {
                m.value
            };
            v.filter(|v| v.is_finite()).map(|v| {
                format!(
                    "{}: {{\"value\": {v}, \"unit\": {}}}",
                    json_str(m.name),
                    json_str(m.unit)
                )
            })
        })
        .collect::<Vec<_>>()
        .join(", ");
    let summary = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics_json}}}}}",
        r.attempted.max(1),
        r.failed
    );
    out += &summary;
    out.push('\n');
    let list = |xs: &[String]| {
        xs.iter()
            .map(|x| json_str(x))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let table = r
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                json_str(m.name),
                num(m.value),
                json_str(m.unit),
                json_str(m.better.name()),
                num(m.bound)
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    let detail = format!(
        "{{\"workload\": {}, \"why\": {}, \"seed\": {seed}, \"trace\": {}, \
         \"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{table}}}, \
         \"unobserved\": [{}], \"notes\": [{}], \"failures\": [{}]}}\n",
        json_str(name),
        json_str(r.workload.why()),
        r.trace,
        r.attempted,
        r.failed,
        list(&unobserved),
        list(&r.notes),
        list(&r.failures),
    );
    Rendered {
        stdout: out,
        detail,
        correct,
    }
}

/// Prints the report and writes `<out>/<workload>.json`: every metric
/// first, then a failing exit code if any run failed or the simulation
/// did not replay.
fn emit(r: &Report, out: &Path, seed: u64) -> ExitCode {
    let rendered = render(r, seed);
    for f in r.failures.iter().take(5) {
        eprintln!("failed: {f}");
    }
    if !r.deterministic {
        eprintln!(
            "error: {}: the first run did not replay bit-identically; \
             simulated metrics are withheld",
            r.workload.name()
        );
    }
    let path = out.join(format!("{}.json", r.workload.name()));
    if let Err(e) = write_file(&path, &rendered.detail) {
        eprintln!("warning: cannot write {}: {e}", path.display());
    }
    print!("{}", rendered.stdout);
    if rendered.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn write_file(path: &Path, contents: &str) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, contents)
}

/// The benchmark's spans as a Chrome trace: one `job` span per run (its
/// id shared by its children), and a child span per library call.
fn chrome_trace(records: &[RunRecord]) -> String {
    let Some(origin) = records
        .iter()
        .flat_map(|r| r.spans.first())
        .map(|s| s.start)
        .min()
    else {
        return "{\"traceEvents\": []}\n".into();
    };
    let us = |t: Instant| t.duration_since(origin).as_secs_f64() * 1e6;
    let mut events = Vec::new();
    for (id, r) in records.iter().enumerate() {
        let (Some(first), Some(last)) = (r.spans.first(), r.spans.last()) else {
            continue;
        };
        let args = format!(
            "{{\"run\": {id}, \"spec\": {}, \"seed\": {}}}",
            json_str(&format!("{:?}", r.job.spec)),
            r.job.seed
        );
        events.push(format!(
            "{{\"name\": \"job\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": {}, \"dur\": {}, \"args\": {args}}}",
            us(first.start),
            us(last.end) - us(first.start)
        ));
        for s in &r.spans {
            events.push(format!(
                "{{\"name\": {}, \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": {}, \"dur\": {}, \
                 \"args\": {{\"run\": {id}, \"parent\": \"job\"}}}}",
                json_str(s.kind.name()),
                us(s.start),
                s.secs() * 1e6
            ));
        }
    }
    format!("{{\"traceEvents\": [\n{}\n]}}\n", events.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Sizes small enough for a test, large enough to exercise each
    /// workload's run kinds.
    fn tiny(w: Workload) -> Size {
        let per_pass = match w {
            Workload::Paper16 => 1,
            Workload::Camelot64 => 2,
            Workload::Scale1024 => 1,
            Workload::FuzzBand => 3,
        };
        Size {
            passes: 1,
            per_pass,
        }
    }

    /// The metric names of a rendered report: its `<workload> <metric>
    /// <value> <unit>` lines, and the keys of its last (JSON) line.
    fn printed(stdout: &str) -> (Vec<String>, String) {
        let lines: Vec<&str> = stdout.lines().collect();
        let (last, body) = lines.split_last().expect("output");
        let names = body
            .iter()
            .filter(|l| !l.starts_with('#'))
            .map(|l| {
                let t: Vec<&str> = l.split(' ').collect();
                assert_eq!(t.len(), 4, "metric line {l:?}");
                t[2].parse::<f64>().expect("a numeric value");
                t[1].to_string()
            })
            .collect();
        (names, last.to_string())
    }

    fn sim_value(r: &Report, metric: &str) -> f64 {
        r.metrics
            .iter()
            .find(|m| m.name == metric)
            .and_then(|m| m.value)
            .expect("a simulated metric")
    }

    #[test]
    fn benchmark_json_is_rendered_from_the_metric_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(on_disk, metrics::manifest());
        for w in Workload::ALL {
            assert!(
                w.why().len() <= 200 && !w.why().contains('\n'),
                "{}",
                w.name()
            );
        }
    }

    #[test]
    fn every_listed_metric_is_printed_and_no_other() {
        for w in Workload::ALL {
            for trace in [false, true] {
                let r = if trace {
                    layer_report(w, tiny(w), 5, None)
                } else {
                    end_to_end_report(w, tiny(w), 5, 0.0)
                };
                let rendered = render(&r, 5);
                assert!(
                    rendered.correct,
                    "{} trace={trace}:\n{}",
                    w.name(),
                    rendered.stdout
                );
                // A host time is measured on every workload, never a
                // stand-in 0.
                for m in r.metrics.iter().filter(|m| matches!(m.unit, "s" | "ns")) {
                    assert!(
                        m.value.is_some_and(|v| v > 0.0),
                        "{} {}: {:?}",
                        w.name(),
                        m.name,
                        m.value
                    );
                }
                let (names, last) = printed(&rendered.stdout);
                let listed: Vec<String> = if trace {
                    PER_LAYER.iter().map(|m| m.name.to_string()).collect()
                } else {
                    END_TO_END.iter().map(|m| m.name.to_string()).collect()
                };
                assert_eq!(names, listed, "{} trace={trace}", w.name());
                assert!(last.starts_with("{\"correct\": true"), "{last}");
                for name in &listed {
                    assert!(
                        last.contains(&format!("\"{name}\": {{\"value\": ")),
                        "{name} in {last}"
                    );
                }
                assert_eq!(last.matches("\"value\"").count(), listed.len());
            }
        }
    }

    #[test]
    fn the_same_seed_replays_and_another_seed_moves_the_simulation() {
        for w in Workload::ALL {
            let size = tiny(w);
            let a = end_to_end_report(w, size, 11, 0.0);
            let b = end_to_end_report(w, size, 11, 0.0);
            let c = end_to_end_report(w, size, 12, 0.0);
            assert!(a.deterministic && b.deterministic && c.deterministic);
            for metric in ["sim_makespan_ms", "sim_ipis_per_shootdown"] {
                assert_eq!(
                    sim_value(&a, metric).to_bits(),
                    sim_value(&b, metric).to_bits(),
                    "{} {metric}",
                    w.name()
                );
            }
            assert_ne!(
                sim_value(&a, "sim_makespan_ms"),
                sim_value(&c, "sim_makespan_ms"),
                "{}: a new seed must draw new inputs",
                w.name()
            );
        }
    }

    #[test]
    fn malformed_command_lines_are_errors() {
        let args = |xs: &[&str]| parse_args(&xs.iter().map(|x| x.to_string()).collect::<Vec<_>>());
        let ok = args(&[
            "--workload",
            "paper16",
            "--seed",
            "3",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .expect("a valid command line");
        assert_eq!(ok.workload, Some(Workload::Paper16));
        assert!(ok.trace);
        assert_eq!(
            args(&["--workload", "all", "--seed", "1"])
                .expect("all")
                .workload,
            None
        );
        for bad in [
            &["--seed", "1"][..],
            &["--workload", "paper16"],
            &["--workload", "nope", "--seed", "1"],
            &["--workload", "paper16", "--seed", "x"],
            &["--workload", "paper16", "--seed", "1", "--trace", "2"],
            &["--workload", "paper16", "--seed", "1", "--seconds", "-1"],
            &["--workload", "paper16", "--seed"],
            &["--workload", "paper16", "--seed", "1", "--bogus"],
        ] {
            assert!(args(bad).is_err(), "{bad:?}");
        }
    }
}
