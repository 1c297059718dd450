//! Section 3 — the three candidate techniques, compared.
//!
//! The paper lists three ways to handle TLB consistency without remote
//! hardware invalidation and explains Mach's choice:
//!
//! 1. **notify processors to carry out consistency actions** — the
//!    shootdown algorithm the paper adopts;
//! 2. **delay use of changed mappings until all buffers have been
//!    flushed** (timer-driven) — rejected "because the additional buffer
//!    flushes required ... can be expensive on some architectures";
//! 3. **allow temporary inconsistency where it does not cause problems**
//!    (protection increases) — "not a complete solution — it is an
//!    optimization that can be applied to any TLB consistency technique",
//!    and it is inherent in the reproduction's check for potential
//!    inconsistencies (upgrades never shoot; see
//!    `protection_upgrade_needs_no_shootdown` in `machtlb-core`).
//!
//! This harness quantifies the 1-vs-2 trade on the Mach build: the
//! delayed technique eliminates every IPI and synchronization stall but
//! pays in whole-TLB flushes, reload misses, and a consistency latency
//! bounded only by the flush period.

use machtlb_bench::{BenchMetric, BenchReport};
use machtlb_core::{KernelConfig, Strategy};
use machtlb_sim::{Dur, Time};
use machtlb_workloads::{run_machbuild, MachBuildConfig, RunConfig};
use machtlb_xpr::TextTable;

fn run(
    name: &str,
    slug: &str,
    strategy: Strategy,
    flush_ms: u64,
    t: &mut TextTable,
    out: &mut BenchReport,
) {
    let kconfig = KernelConfig {
        strategy,
        tlb: strategy.multimax_tlb(),
        ..KernelConfig::default()
    };
    let config = RunConfig {
        kconfig,
        device_period: Some(Dur::millis(5)),
        timer_flush_period: Dur::millis(flush_ms),
        limit: Time::from_micros(120_000_000),
        ..RunConfig::multimax16(21)
    };
    let report = run_machbuild(&config, &MachBuildConfig::default());
    assert!(report.consistent, "{name}: violations");
    out.push(
        BenchMetric::new(
            format!("build/{slug}"),
            16,
            format!("{strategy:?}").to_lowercase(),
            1,
            report.runtime.as_micros_f64(),
        )
        .counter("ipis_sent", report.stats.ipis_sent)
        .counter("tlb_flushes", report.tlb_flushes)
        .counter("tlb_misses", report.tlb_misses),
    );
    t.add_row(vec![
        name.to_string(),
        format!("{:.0}", report.runtime.as_micros_f64() / 1000.0),
        report.stats.ipis_sent.to_string(),
        report.tlb_flushes.to_string(),
        report.tlb_misses.to_string(),
        if strategy == Strategy::TimerDelayed {
            format!("~{flush_ms} ms (flush period)")
        } else {
            "immediate (op completion)".to_string()
        },
    ]);
}

fn main() {
    println!("Section 3: notification (shootdown) vs timer-delayed flushing,");
    println!("full Mach kernel build on 16 processors");
    println!();
    let mut t = TextTable::new(vec![
        "technique",
        "build time (ms)",
        "IPIs",
        "TLB flushes",
        "TLB misses",
        "consistency latency",
    ]);
    let mut report = BenchReport::new("sec3_techniques");
    run(
        "shootdown (technique 1)",
        "shootdown",
        Strategy::Shootdown,
        5,
        &mut t,
        &mut report,
    );
    run(
        "delayed flush, 2 ms",
        "delayed_2ms",
        Strategy::TimerDelayed,
        2,
        &mut t,
        &mut report,
    );
    run(
        "delayed flush, 10 ms",
        "delayed_10ms",
        Strategy::TimerDelayed,
        10,
        &mut t,
        &mut report,
    );
    println!("{t}");
    println!("technique 3 (tolerate upgrades) is active in every row: protection");
    println!("increases never trigger consistency actions in the first place.");
    println!();
    println!("the paper's verdict holds: delayed flushing trades bounded-staleness");
    println!("consistency and a flood of whole-TLB flushes for the IPIs it saves.");
    let path = report.write().expect("bench report written");
    println!("wrote {}", path.display());
}
