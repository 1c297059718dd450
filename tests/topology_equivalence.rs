//! The topology refactor's bit-identity proof.
//!
//! PR 7 replaces the single shared bus with a `Topology`-routed fabric.
//! The contract is that `Topology::flat(n)` — one node, zero remote
//! latency — replays **bit-identically** to the pre-topology single bus:
//! same per-cpu clocks, same bus statistics, same xpr measurements,
//! across the strategy matrix and the fault-injection catalog.
//!
//! The golden constants below were captured by running the
//! `dump_fingerprints` test against the pre-refactor tree (the commit
//! before the topology layer landed), so any drift the refactor
//! introduces — a reordered bus transaction, an extra nanosecond on an
//! IPI — fails this test loudly. Re-capture with:
//!
//! ```sh
//! cargo test --test topology_equivalence -- --ignored --nocapture
//! ```

use machtlb::core::{
    plan_catalog, run_chaos, ChaosConfig, FaultSchedule, KernelConfig, KernelStats, Strategy,
};
use machtlb::sim::{BusStats, Time, Topology};
use machtlb::workloads::{run_tester, RunConfig, TesterConfig};

/// FNV-1a over little-endian u64 words: stable, dependency-free, and
/// sensitive to ordering — exactly what a replay fingerprint needs.
fn fnv(h: &mut u64, v: u64) {
    for b in v.to_le_bytes() {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x100_0000_01b3);
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn hash_bus(h: &mut u64, b: &BusStats) {
    fnv(h, b.transactions);
    fnv(h, b.queued.as_nanos());
    fnv(h, b.held.as_nanos());
    for op in &b.per_op {
        fnv(h, op.transactions);
        fnv(h, op.queued.as_nanos());
        fnv(h, op.held.as_nanos());
    }
}

/// Hashes the counters that existed before the topology layer (the
/// refactor adds node-aware counters, which are legitimately new and
/// must not perturb the pre-refactor fingerprint).
fn hash_stats(h: &mut u64, s: &KernelStats) {
    for v in [
        s.pmap_ops,
        s.shootdowns_kernel,
        s.shootdowns_user,
        s.lazy_skips,
        s.faults,
        s.unrecoverable_faults,
        s.ipis_sent,
        s.pageouts,
        s.pageout_writes,
        s.actions_coalesced,
        s.queue_overflows_avoided,
        s.ipi_retries,
        s.watchdog_gaveup,
        s.degraded_flushes,
        s.evictions,
        s.fenced_rejoins,
        s.locks_stolen,
        s.multicast_rounds,
        s.initiators_batched,
        s.round_excused,
    ] {
        fnv(h, v);
    }
}

fn kconfig_for(strategy: Strategy, topology: Topology) -> KernelConfig {
    KernelConfig {
        strategy,
        tlb: strategy.multimax_tlb(),
        topology,
        ..KernelConfig::default()
    }
}

const STRATEGIES: [Strategy; 4] = [
    Strategy::Shootdown,
    Strategy::BroadcastIpi,
    Strategy::NoStallSoftwareReload,
    Strategy::HardwareRemoteInvalidate,
];

/// One full consistency-tester run under `strategy`, reduced to a replay
/// fingerprint: simulated runtime, every xpr initiator measurement, the
/// kernel counters, and the bus statistics.
fn tester_fingerprint(strategy: Strategy, seed: u64, topology: Topology) -> u64 {
    let config = RunConfig {
        n_cpus: 8,
        seed,
        kconfig: kconfig_for(strategy, topology),
        device_period: None,
        limit: Time::from_micros(60_000_000),
        ..RunConfig::multimax16(seed)
    };
    let out = run_tester(
        &config,
        &TesterConfig {
            children: 5,
            warmup_increments: 30,
        },
    );
    assert!(out.report.consistent, "{strategy}: oracle violations");
    let mut h = FNV_OFFSET;
    fnv(&mut h, out.report.runtime.as_nanos());
    for r in out
        .report
        .kernel_initiators
        .iter()
        .chain(&out.report.user_initiators)
    {
        fnv(&mut h, r.elapsed.as_nanos());
        fnv(&mut h, u64::from(r.processors));
    }
    for r in &out.report.responders {
        fnv(&mut h, r.elapsed.as_nanos());
    }
    if let Some(shot) = &out.shootdown {
        fnv(&mut h, shot.elapsed.as_nanos());
        fnv(&mut h, u64::from(shot.processors));
    }
    hash_stats(&mut h, &out.report.stats);
    hash_bus(&mut h, &out.report.bus);
    h
}

/// The fault-injection catalog on a 4-processor machine, reduced to
/// one fingerprint over final per-cpu clocks, counters, and bus stats.
///
/// Pinned to the first sixteen plans: the goldens below were captured
/// over that catalog, and later PRs append new plans without disturbing
/// the prefix. Recapturing instead would erase what the goldens prove
/// (that the topology layer did not move the pre-existing timelines).
/// For the same reason the runs keep the bounds the goldens were
/// captured under (200 ms, 5 M steps), which are where the
/// beyond-envelope plans stop.
fn chaos_fingerprint(seed: u64, topology: Topology) -> u64 {
    let mut h = FNV_OFFSET;
    for plan in plan_catalog(4).into_iter().take(16) {
        let mut cfg = ChaosConfig {
            limit: Time::from_micros(200_000),
            max_steps: 5_000_000,
            ..FaultSchedule { seed, ..plan }.compile()
        };
        cfg.kconfig.topology = topology;
        let o = run_chaos(&cfg);
        for name in o.plan().bytes() {
            fnv(&mut h, u64::from(name));
        }
        for c in &o.clocks {
            fnv(&mut h, c.as_nanos());
        }
        fnv(&mut h, o.end.as_nanos());
        fnv(&mut h, o.steps);
        fnv(&mut h, o.violations as u64);
        fnv(&mut h, u64::from(o.completed));
        fnv(&mut h, o.faults.map_or(0, |f| f.total()));
        hash_stats(&mut h, &o.stats);
        hash_bus(&mut h, &o.bus);
    }
    h
}

/// Golden fingerprints captured on the pre-topology tree (single shared
/// `Bus`, no `Topology` type). Order: the four correct strategies of the
/// strategy matrix, then the chaos catalog.
const GOLDEN_TESTER: [u64; 4] = [
    0x43a2_b98e_0661_98f3,
    0xc66e_d8a6_a66f_f000,
    0x2690_d99b_778d_6087,
    0x60f8_717f_a9e4_4e25,
];
const GOLDEN_CHAOS: u64 = 0x7dcf_3318_c066_2f79;

#[test]
fn flat_topology_replays_the_pre_topology_tree_bit_identically() {
    for (i, strategy) in STRATEGIES.into_iter().enumerate() {
        let got = tester_fingerprint(strategy, 31, Topology::default());
        assert_eq!(
            got, GOLDEN_TESTER[i],
            "{strategy}: replay diverged from the pre-topology golden \
             fingerprint (got {got:#018x})"
        );
    }
    let got = chaos_fingerprint(1, Topology::default());
    assert_eq!(
        got, GOLDEN_CHAOS,
        "chaos catalog: replay diverged from the pre-topology golden \
         fingerprint (got {got:#018x})"
    );
}

/// `topology: Topology::flat(n)` is spelled differently from the default
/// flat topology, which the kernel sizes to the machine, but must mean
/// the same machine: the explicit one-node topology replays the
/// pre-topology goldens bit for bit, across the strategy matrix and the
/// fault catalog.
#[test]
fn explicit_flat_topology_matches_the_default_goldens() {
    for (i, strategy) in STRATEGIES.into_iter().enumerate() {
        let got = tester_fingerprint(strategy, 31, Topology::flat(8));
        assert_eq!(
            got, GOLDEN_TESTER[i],
            "{strategy}: flat(8) diverged from the golden \
             fingerprint (got {got:#018x})"
        );
    }
    let got = chaos_fingerprint(1, Topology::flat(4));
    assert_eq!(
        got, GOLDEN_CHAOS,
        "chaos catalog: flat(4) diverged from the golden \
         fingerprint (got {got:#018x})"
    );
}

/// Prints the constants above. Run against a tree whose behaviour is the
/// new baseline, then paste the output over the `GOLDEN_*` constants.
#[test]
#[ignore = "fingerprint capture tool, not a check"]
fn dump_fingerprints() {
    println!("const GOLDEN_TESTER: [u64; 4] = [");
    for strategy in STRATEGIES {
        println!(
            "    {:#018x},",
            tester_fingerprint(strategy, 31, Topology::default())
        );
    }
    println!("];");
    println!(
        "const GOLDEN_CHAOS: u64 = {:#018x};",
        chaos_fingerprint(1, Topology::default())
    );
}
