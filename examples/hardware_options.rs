//! The Section 9 design space: how much does each proposed hardware
//! feature buy?
//!
//! ```sh
//! cargo run --release --example hardware_options
//! ```

use machtlb::core::{KernelConfig, Strategy};
use machtlb::sim::{Dur, Time};
use machtlb::workloads::{run_tester, RunConfig, TesterConfig};

fn measure(name: &str, kconfig: KernelConfig) {
    let config = RunConfig {
        kconfig,
        device_period: Some(Dur::millis(2)),
        limit: Time::from_micros(30_000_000),
        ..RunConfig::multimax16(5)
    };
    let out = run_tester(
        &config,
        &TesterConfig {
            children: 10,
            warmup_increments: 30,
        },
    );
    assert!(
        !out.mismatch && out.report.consistent,
        "{name}: inconsistency!"
    );
    let shot = out.shootdown.expect("consistency action");
    println!(
        "  {:<38} {:>7.0} us   {:>3} IPIs   {:>3} responder events",
        name,
        shot.elapsed.as_micros_f64(),
        out.report.stats.ipis_sent,
        out.report.responders.len()
    );
}

fn main() {
    println!("one 10-responder consistency action under each Section 9 option:");
    println!();
    let stock = KernelConfig::default();
    measure("software shootdown (baseline)", stock.clone());
    measure(
        "high-priority software interrupt",
        KernelConfig {
            high_prio_ipi: true,
            ..stock.clone()
        },
    );
    measure(
        "broadcast interrupt",
        KernelConfig {
            strategy: Strategy::BroadcastIpi,
            ..stock.clone()
        },
    );
    measure(
        "software reload (no responder stall)",
        KernelConfig {
            strategy: Strategy::NoStallSoftwareReload,
            tlb: Strategy::NoStallSoftwareReload.multimax_tlb(),
            ..stock.clone()
        },
    );
    measure(
        "remote TLB invalidation (MC88200)",
        KernelConfig {
            strategy: Strategy::HardwareRemoteInvalidate,
            tlb: Strategy::HardwareRemoteInvalidate.multimax_tlb(),
            ..stock
        },
    );
    println!();
    println!("every option maintains consistency; they differ in who pays, and how much.");
    println!("See crates/bench/benches/sec9_hardware_options.rs for the full ablation.");
}
