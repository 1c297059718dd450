//! Section 9 — Hardware design implications.
//!
//! Ablations over the hardware-support options the paper proposes, each a
//! configuration switch on the same kernel:
//!
//! 1. **high-priority software interrupt** — shootdown IPIs deliverable
//!    inside device-masked sections: cuts the long tail of shootdown
//!    times ("reduce the time for kernel shootdowns to more closely match
//!    user shootdowns, and eliminate the skew");
//! 2. **broadcast interrupts** — one controller poke instead of a
//!    per-processor send loop ("beyond some number of processors it is
//!    faster to use a broadcast interrupt");
//! 3. **no-stall software reload** (MIPS-style) — responders invalidate
//!    and return instead of spinning;
//! 4. **remote TLB invalidation** (MC88200-style, with interlocked
//!    referenced/modified updates) — "eliminates shootdown interrupts
//!    entirely ... initiator overhead is greatly reduced because it is no
//!    longer necessary to synchronize with the responders".

use machtlb_bench::{BenchMetric, BenchReport};
use machtlb_core::{KernelConfig, Strategy};
use machtlb_sim::{Dur, Time};
use machtlb_workloads::{run_tester, RunConfig, TesterConfig};
use machtlb_xpr::{Summary, TextTable};

struct Option9 {
    name: &'static str,
    slug: &'static str,
    kconfig: KernelConfig,
}

fn options() -> Vec<Option9> {
    let stock = KernelConfig::default();
    vec![
        Option9 {
            name: "software shootdown (baseline)",
            slug: "baseline",
            kconfig: stock.clone(),
        },
        Option9 {
            name: "high-priority software interrupt",
            slug: "high_prio_ipi",
            kconfig: KernelConfig {
                high_prio_ipi: true,
                ..stock.clone()
            },
        },
        Option9 {
            name: "broadcast interrupt",
            slug: "broadcast",
            kconfig: KernelConfig {
                strategy: Strategy::BroadcastIpi,
                ..stock.clone()
            },
        },
        Option9 {
            name: "software reload, no responder stall",
            slug: "no_stall_reload",
            kconfig: KernelConfig {
                strategy: Strategy::NoStallSoftwareReload,
                tlb: Strategy::NoStallSoftwareReload.multimax_tlb(),
                ..stock.clone()
            },
        },
        Option9 {
            name: "remote TLB invalidation (MC88200)",
            slug: "remote_invalidate",
            kconfig: KernelConfig {
                strategy: Strategy::HardwareRemoteInvalidate,
                tlb: Strategy::HardwareRemoteInvalidate.multimax_tlb(),
                ..stock
            },
        },
    ]
}

fn main() {
    println!("Section 9: hardware-support options, consistency tester with 12 responders");
    println!("(heavy device-interrupt load, 2 ms mean period, to expose the masked-section tail)");
    println!();
    let seeds: Vec<u64> = (0..8).map(|i| 800 + i).collect();
    let mut report = BenchReport::new("sec9_hardware_options");

    let mut t = TextTable::new(vec![
        "option",
        "initiator mean (us)",
        "p90 (us)",
        "max (us)",
        "IPIs",
        "responder events",
        "resp mean (us)",
    ]);
    for opt in options() {
        let mut elapsed = Vec::new();
        let mut resp_elapsed = Vec::new();
        let mut ipis = 0;
        let mut responder_events = 0;
        for &seed in &seeds {
            let config = RunConfig {
                kconfig: opt.kconfig.clone(),
                device_period: Some(Dur::millis(2)),
                limit: Time::from_micros(60_000_000),
                ..RunConfig::multimax16(seed)
            };
            let out = run_tester(
                &config,
                &TesterConfig {
                    children: 12,
                    warmup_increments: 30,
                },
            );
            assert!(!out.mismatch, "{}: tester detected inconsistency", opt.name);
            assert!(out.report.consistent, "{}: oracle violations", opt.name);
            let shot = out.shootdown.expect("one consistency action");
            elapsed.push(shot.elapsed.as_micros_f64());
            ipis += out.report.stats.ipis_sent;
            responder_events += out.report.responders.len();
            resp_elapsed.extend(
                out.report
                    .responders
                    .iter()
                    .map(|r| r.elapsed.as_micros_f64()),
            );
        }
        let s = Summary::of(&elapsed).expect("runs");
        report.push(
            BenchMetric::new(
                format!("initiator/{}", opt.slug),
                16,
                format!("{:?}", opt.kconfig.strategy).to_lowercase(),
                1,
                s.median,
            )
            .counter("ipis_sent", ipis)
            .counter("responder_events", responder_events as u64),
        );
        t.add_row(vec![
            opt.name.to_string(),
            format!("{:.0}", s.mean),
            format!("{:.0}", s.p90),
            format!("{:.0}", s.max),
            ipis.to_string(),
            responder_events.to_string(),
            Summary::of(&resp_elapsed).map_or("-".into(), |s| format!("{:.0}", s.mean)),
        ]);
    }
    println!("{t}");
    println!("expected shape (paper): the high-priority interrupt trims the tail (p90/max);");
    println!("broadcast trims the per-processor send loop; no-stall returns responders early;");
    println!("remote invalidation uses no interrupts and involves no responders at all.");
    let path = report.write().expect("bench report written");
    println!("wrote {}", path.display());
}
