//! The residency filter's headline claims (ISSUE 8).
//!
//! With `KernelConfig::residency` on, the initiator consults the per-cpu
//! possibly-cached sets and skips shootdown targets that cannot hold the
//! stale translation — extending the paper's lazy evaluation from "never
//! entered the pmap" to "entered but since evicted". The claims under
//! test:
//!
//! - the workloads stay consistent (the checker oracle is silent), so
//!   the filter never dropped a processor that held a stale entry;
//! - `ipis_sent` drops measurably (≥20% on Camelot at 64 processors);
//! - the filter composes with fail-stop eviction and the fenced rejoin
//!   (the PR 5 chaos catalog replays green with residency on).

use machtlb::bench::scaled_costs;
use machtlb::core::{chaos_schedules, check_envelope, run_chaos, KernelConfig, Strategy};
use machtlb::sim::{Time, Topology};
use machtlb::tlb::TlbConfig;
use machtlb::workloads::{
    run_camelot, run_machbuild, AppReport, CamelotConfig, MachBuildConfig, RunConfig,
};

/// Camelot on a 64-processor machine (scalable interconnect, as the
/// Section 8 extrapolation benches assume for n > 16).
fn camelot64(residency: bool, seed: u64) -> AppReport {
    let config = RunConfig {
        n_cpus: 64,
        seed,
        costs: scaled_costs(64),
        kconfig: KernelConfig {
            residency,
            tlb: TlbConfig::multimax(),
            ..KernelConfig::default()
        },
        device_period: None,
        limit: Time::from_micros(120_000_000),
        ..RunConfig::multimax16(seed)
    };
    let cfg = CamelotConfig {
        clients: 12,
        server_threads: 6,
        transactions_per_client: 4,
        db_pages: 96,
        ..CamelotConfig::default()
    };
    run_camelot(&config, &cfg)
}

fn machbuild16(residency: bool, seed: u64) -> AppReport {
    let mut config = RunConfig::multimax16(seed);
    config.kconfig.residency = residency;
    config.device_period = None;
    config.limit = Time::from_micros(120_000_000);
    let cfg = MachBuildConfig {
        jobs: 10,
        ..MachBuildConfig::default()
    };
    run_machbuild(&config, &cfg)
}

#[test]
fn camelot_64cpu_filter_cuts_ipis_by_a_fifth() {
    let off = camelot64(false, 35);
    let on = camelot64(true, 35);
    assert!(off.consistent, "baseline violations: {}", off.violations);
    assert!(
        on.consistent,
        "residency filtering dropped a stale processor: {} violations",
        on.violations
    );
    assert!(
        off.stats.ipis_sent > 0,
        "workload produced no shootdown IPIs"
    );
    assert_eq!(off.stats.ipis_filtered, 0, "filter must be off by default");
    assert!(on.stats.ipis_filtered > 0, "filter never fired");
    let reduction = 1.0 - on.stats.ipis_sent as f64 / off.stats.ipis_sent as f64;
    println!(
        "camelot@64: ipis_sent {} -> {} ({:.1}% reduction), ipis_filtered {}",
        off.stats.ipis_sent,
        on.stats.ipis_sent,
        reduction * 100.0,
        on.stats.ipis_filtered
    );
    assert!(
        reduction >= 0.20,
        "expected >=20% IPI reduction on camelot at 64 cpus, got {:.1}% \
         ({} -> {})",
        reduction * 100.0,
        off.stats.ipis_sent,
        on.stats.ipis_sent
    );
}

#[test]
fn machbuild_filter_reduces_ipis_and_stays_consistent() {
    let off = machbuild16(false, 36);
    let on = machbuild16(true, 36);
    assert!(off.consistent && on.consistent);
    assert!(on.stats.ipis_filtered > 0, "filter never fired");
    println!(
        "machbuild@16: ipis_sent {} -> {}, ipis_filtered {}",
        off.stats.ipis_sent, on.stats.ipis_sent, on.stats.ipis_filtered
    );
    assert!(
        on.stats.ipis_sent < off.stats.ipis_sent,
        "filtering must not increase IPI traffic: {} -> {}",
        off.stats.ipis_sent,
        on.stats.ipis_sent
    );
}

/// The filter must hold up under multicast rounds + batched initiators
/// (the fanout path goes through PublishRound/RoundEnqueue instead of the
/// queue scan).
#[test]
fn camelot_fanout_rounds_filter_and_stay_consistent() {
    let run = |residency: bool| {
        let config = RunConfig {
            n_cpus: 64,
            seed: 77,
            costs: scaled_costs(64),
            kconfig: KernelConfig {
                residency,
                fanout: 4,
                batch_initiators: true,
                strategy: Strategy::Shootdown,
                tlb: TlbConfig::multimax(),
                ..KernelConfig::default()
            },
            device_period: None,
            limit: Time::from_micros(120_000_000),
            ..RunConfig::multimax16(77)
        };
        let cfg = CamelotConfig {
            clients: 12,
            server_threads: 6,
            transactions_per_client: 4,
            db_pages: 96,
            ..CamelotConfig::default()
        };
        run_camelot(&config, &cfg)
    };
    let off = run(false);
    let on = run(true);
    assert!(off.consistent && on.consistent);
    assert!(on.stats.ipis_filtered > 0, "round-mode filter never fired");
    println!(
        "camelot@64 fanout=4: ipis_sent {} -> {}, filtered {}",
        off.stats.ipis_sent, on.stats.ipis_sent, on.stats.ipis_filtered
    );
    assert!(on.stats.ipis_sent <= off.stats.ipis_sent);
}

/// Satellite: the chaos catalog (IPI loss, fail-stop responders and
/// holders, offline/revive with fenced rejoin) replays green with
/// residency filtering on — the filter composes with eviction and
/// rejoin rather than resurrecting their hazards.
#[test]
fn chaos_catalog_survives_with_residency_on() {
    let mut outcomes = Vec::new();
    for plan in chaos_schedules(8, &[1], 3, Topology::default()) {
        let mut cfg = plan.compile();
        cfg.kconfig.residency = true;
        let out = run_chaos(&cfg);
        if plan.tolerable {
            assert_eq!(
                out.violations, 0,
                "plan {} violated consistency with residency on",
                plan.name
            );
        }
        outcomes.push(out);
    }
    let failures = check_envelope(&outcomes);
    assert!(
        failures.is_empty(),
        "chaos envelope broke with residency on:\n{}",
        failures.join("\n")
    );
}
