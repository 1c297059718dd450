//! The flight recorder must be free when it is off.
//!
//! Every instrumentation site in the shootdown hot path guards on a single
//! `FlightRecorder::is_enabled()` (or `span.is_none()`) branch, and a
//! disabled recorder allocates no buffers. This harness makes that
//! contract observable: it runs the same tester point with the recorder
//! off and on, asserts the two simulations are bit-identical (recording
//! observes, never perturbs), asserts the disabled run left zero events
//! behind, and reports the host-time cost of each so a regression that
//! sneaks real work onto the disabled path shows up as a wall-clock delta
//! against the checked-in baseline.
//!
//! Set `MACHTLB_SMOKE=1` for a seconds-scale run (fewer repetitions at a
//! smaller machine size).

use std::time::Instant;

use machtlb_bench::{scaled_costs, BenchMetric, BenchReport};
use machtlb_sim::Time;
use machtlb_workloads::{run_tester, RunConfig, TesterConfig, TesterOutcome};

fn config(n_cpus: usize, seed: u64, traced: bool) -> RunConfig {
    let kconfig = machtlb_core::KernelConfig {
        trace_shootdowns: traced,
        trace_capacity: 1 << 18,
        ..Default::default()
    };
    RunConfig {
        n_cpus,
        seed,
        costs: scaled_costs(n_cpus),
        kconfig,
        timer_flush_period: machtlb_sim::Dur::millis(5),
        device_period: None,
        limit: Time::from_micros(120_000_000),
    }
}

/// Runs the tester point `reps` times and returns (last outcome, best host
/// seconds per run). Best-of-n is the standard defence against scheduler
/// noise when the quantity of interest is the code's own cost.
fn timed(n_cpus: usize, reps: usize, traced: bool) -> (TesterOutcome, f64) {
    let tcfg = TesterConfig {
        children: (n_cpus - 1) as u32,
        warmup_increments: 20,
    };
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..reps {
        let config = config(n_cpus, 900 + n_cpus as u64, traced);
        let start = Instant::now();
        let out = run_tester(&config, &tcfg);
        best = best.min(start.elapsed().as_secs_f64());
        assert!(!out.mismatch && out.report.consistent, "n={n_cpus}");
        last = Some(out);
    }
    (last.expect("reps >= 1"), best)
}

fn main() {
    let smoke = std::env::var_os("MACHTLB_SMOKE").is_some();
    let (n_cpus, reps) = if smoke { (32, 3) } else { (64, 10) };
    println!("trace-overhead: tester point, {n_cpus} processors, best of {reps}");
    println!();

    let (off, off_s) = timed(n_cpus, reps, false);
    let (on, on_s) = timed(n_cpus, reps, true);

    // Recording must observe the simulation, never steer it.
    assert_eq!(
        off.report.runtime, on.report.runtime,
        "simulated runtime must not depend on tracing"
    );
    assert_eq!(
        off.report.stats, on.report.stats,
        "kernel stats must not depend on tracing"
    );
    assert_eq!(
        off.shootdown, on.shootdown,
        "the measured shootdown must not depend on tracing"
    );

    // Off means off: nothing recorded, nothing retained.
    assert!(
        off.report.trace.is_empty(),
        "a disabled recorder must hold no events"
    );
    assert!(
        !on.report.trace.is_empty(),
        "an enabled recorder must have captured the shootdown"
    );

    let overhead = (on_s / off_s - 1.0) * 100.0;
    println!("  recorder off: {off_s:>8.4} s host time");
    println!(
        "  recorder on:  {on_s:>8.4} s host time ({} events)",
        on.report.trace.len()
    );
    println!("  => enabled-recording overhead {overhead:+.1}% (simulated results bit-identical)");
    println!();
    println!(
        "(compare the recorder-off time against the pre-instrumentation \
         baseline of this harness's sibling benches; the disabled path is \
         one predicted branch per site)"
    );

    // The baseline-checked headline is simulated (host overhead is noisy
    // and machine-dependent; it stays in stdout).
    let mut report = BenchReport::new("trace_overhead");
    report.push(
        BenchMetric::new(
            format!("tester_runtime/n{n_cpus}"),
            n_cpus as u64,
            "shootdown",
            1,
            on.report.runtime.as_micros_f64(),
        )
        .counter("trace_events", on.report.trace.len() as u64),
    );
    let path = report.write().expect("bench report written");
    println!("wrote {}", path.display());
}
