//! The Section 8 question: does software TLB consistency block machines
//! with hundreds of processors?
//!
//! Measures the basic shootdown cost as the machine grows, then shows the
//! paper's proposed remedy — pool-confined kernel shootdowns — on a large
//! machine.
//!
//! ```sh
//! cargo run --release --example scaling_study
//! ```

use machtlb::bench::scaled_costs;
use machtlb::sim::Time;
use machtlb::workloads::{run_tester, RunConfig, TesterConfig};

fn cost_at(n_cpus: usize, responders: u32, seed: u64) -> f64 {
    let config = RunConfig {
        n_cpus,
        seed,
        // Large machines are not uniform-bus designs (Section 8): scale
        // the interconnect with the machine.
        costs: scaled_costs(n_cpus),
        kconfig: Default::default(),
        timer_flush_period: machtlb_sim::Dur::millis(5),
        device_period: None,
        limit: Time::from_micros(120_000_000),
    };
    let out = run_tester(
        &config,
        &TesterConfig {
            children: responders,
            warmup_increments: 20,
        },
    );
    assert!(!out.mismatch && out.report.consistent);
    out.shootdown.expect("shootdown").elapsed.as_micros_f64()
}

fn main() {
    println!("machine-wide shootdown cost as the machine grows:");
    println!(
        "  {:<12} {:<14} {:<12}",
        "processors", "measured (us)", "paper line"
    );
    for &n in &[16usize, 32, 64, 128] {
        let k = (n - 1) as u32;
        let us = cost_at(n, k, 30 + n as u64);
        println!(
            "  {:<12} {:<14.0} {:<12.0}",
            n,
            us,
            430.0 + 55.0 * f64::from(k)
        );
    }
    println!();
    println!("\"the algorithm as presented here will scale badly to larger machines");
    println!(" (e.g. 6ms basic shootdown time for 100 processors)\" — Section 11");
    println!(
        "  measured at 100 responders: {:.0} us",
        cost_at(101, 100, 77)
    );
    println!();
    println!("the remedy — restructure kernel memory into per-pool regions so most");
    println!("kernel shootdowns stay inside a pool (Section 8):");
    let wide = cost_at(128, 127, 81);
    let pooled = cost_at(128, 15, 82);
    println!("  128-processor machine, machine-wide: {wide:.0} us");
    println!(
        "  128-processor machine, 16-cpu pool:  {pooled:.0} us  ({:.1}x cheaper)",
        wide / pooled
    );
}
