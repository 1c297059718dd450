//! Section 8 — NUMA topology: does carving the machine into nodes keep
//! shootdown traffic local?
//!
//! Section 8 proposes restructuring large machines so "most kernel pmap
//! shootdowns occur within pools of processors instead of across the
//! entire machine". The topology layer makes that restructuring concrete:
//! per-node buses, an interconnect with a crossing latency, and pmaps
//! homed on a node. This harness drives the page-migration storm — the
//! workload with the densest shootdown traffic per instruction — in two
//! placements on a fixed 64-processor machine:
//!
//! * **local**: every node's workers share a pmap homed on their own
//!   node. Each node is an independent island; carving the machine into
//!   more nodes must not slow the islands down (runtime flat within
//!   ±10% from 1 node to 8), while aggregate throughput scales with the
//!   node count.
//! * **cross**: each node's workers attack the *next* node's pmap, so
//!   every lock word and page-table reference crosses the interconnect.
//!   This placement must pay a visible remote penalty.
//!
//! The penalty is measured on *solo* workers (one per node): with no lock
//! contention, runtime is a deterministic sum of the charged costs, so
//! the cross-vs-local delta is exactly the interconnect crossings. The
//! contended runs' latencies are reported but not asserted on — lock
//! waiting dominates them and shifts non-monotonically with the crossing
//! latency as interleavings change.
//!
//! `MACHTLB_SMOKE` runs the CI subset: flat plus the 4-node point
//! (4 nodes x 16 processors) in both placements.

use machtlb_bench::{BenchMetric, BenchReport};
use machtlb_sim::{CostModel, Dur, Time, Topology};
use machtlb_workloads::{
    run_migration_storm, AppReport, MigrationOutcome, MigrationStormConfig, RunConfig,
};
use machtlb_xpr::TextTable;

const N_CPUS: usize = 64;

/// Workers per node is held constant, so every node is the same 2-worker
/// island regardless of how many nodes the machine is carved into — the
/// comparison across node counts is then per-island latency, which must
/// stay flat when traffic is local.
const WORKERS_PER_NODE: usize = 2;

fn storm_config(workers: usize, cross: bool) -> MigrationStormConfig {
    MigrationStormConfig {
        workers_per_node: workers,
        pages_per_worker: 4,
        migrations_per_worker: 12,
        cross_node: cross,
    }
}

fn run_placement(nodes: usize, workers: usize, cross: bool, seed: u64) -> MigrationOutcome {
    let kconfig = machtlb_core::KernelConfig {
        topology: Topology::numa(nodes, N_CPUS / nodes, Dur::micros(20)),
        ..Default::default()
    };
    let config = RunConfig {
        n_cpus: N_CPUS,
        seed,
        costs: CostModel::multimax(),
        kconfig,
        device_period: None, // isolate the storm's own traffic
        timer_flush_period: Dur::millis(5),
        limit: Time::from_micros(120_000_000),
    };
    let out = run_migration_storm(&config, &storm_config(workers, cross));
    assert!(out.report.consistent, "nodes={nodes} cross={cross}");
    out
}

fn main() {
    let smoke = std::env::var_os("MACHTLB_SMOKE").is_some();
    let mut report = BenchReport::new("sec8_numa");
    let node_counts: &[usize] = if smoke { &[1, 4] } else { &[1, 2, 4, 8] };

    println!("Section 8: NUMA placement on a {N_CPUS}-processor machine");
    println!(
        "(page-migration storm, {WORKERS_PER_NODE} workers per node, \
         20 us interconnect crossing)"
    );
    println!();

    let mut t = TextTable::new(vec![
        "nodes",
        "placement",
        "runtime (ms)",
        "migrations",
        "shootdown (us)",
        "interconnect",
        "remote lock refs",
    ]);
    let mut local_runtimes = Vec::new();
    for &nodes in node_counts {
        let placements: &[bool] = if nodes == 1 { &[false] } else { &[false, true] };
        for &cross in placements {
            let out = run_placement(nodes, WORKERS_PER_NODE, cross, 42);
            let r = &out.report;
            let ms = r.runtime.as_micros_f64() / 1000.0;
            let shot_us = AppReport::elapsed_summary(&r.user_initiators)
                .expect("the storm shoots down on every migration")
                .mean;
            let crossings = r.fabric.interconnect.transactions;
            let name = format!("{}/n{nodes}", if cross { "cross" } else { "local" });
            report.push(
                BenchMetric::new(
                    &name,
                    N_CPUS as u64,
                    "shootdown",
                    1,
                    r.runtime.as_micros_f64(),
                )
                .counter("migrations", out.migrations)
                .counter("interconnect_transactions", crossings)
                .counter("remote_lock_refs", r.stats.remote_lock_refs),
            );
            t.add_row(vec![
                nodes.to_string(),
                if cross { "cross" } else { "local" }.into(),
                format!("{ms:.2}"),
                out.migrations.to_string(),
                format!("{shot_us:.1}"),
                crossings.to_string(),
                r.stats.remote_lock_refs.to_string(),
            ]);
            if cross {
                assert!(
                    r.stats.remote_lock_refs > 0,
                    "cross placement on {nodes} nodes generated no remote lock traffic"
                );
                assert!(
                    crossings > 0,
                    "cross placement on {nodes} nodes never touched the interconnect"
                );
            } else {
                local_runtimes.push((nodes, ms));
                assert_eq!(
                    r.stats.remote_lock_refs, 0,
                    "local placement on {nodes} nodes leaked lock traffic off-node"
                );
                assert_eq!(
                    r.stats.ipis_remote, 0,
                    "local placement on {nodes} nodes sent IPIs across the interconnect"
                );
                assert_eq!(
                    crossings, 0,
                    "local placement on {nodes} nodes paid interconnect crossings"
                );
            }
        }
    }
    println!("{t}");
    println!();

    // The remote-latency penalty, measured without contention: one solo
    // worker per node pays every charged cost serially, so cross minus
    // local is exactly the interconnect crossings.
    println!("remote penalty (solo worker per node, no lock contention):");
    for &nodes in &node_counts[1..] {
        let local = run_placement(nodes, 1, false, 7);
        let cross = run_placement(nodes, 1, true, 7);
        let local_ms = local.report.runtime.as_micros_f64() / 1000.0;
        let cross_ms = cross.report.runtime.as_micros_f64() / 1000.0;
        assert!(
            cross_ms > local_ms,
            "solo cross placement on {nodes} nodes must pay the interconnect: \
             {cross_ms:.3} ms vs local {local_ms:.3} ms"
        );
        let pct = (cross_ms / local_ms - 1.0) * 100.0;
        println!("  {nodes} nodes: local {local_ms:.2} ms, cross {cross_ms:.2} ms (+{pct:.1}%)");
        report.push(
            BenchMetric::new(
                format!("penalty/n{nodes}"),
                N_CPUS as u64,
                "shootdown",
                1,
                (cross_ms - local_ms) * 1000.0, // us added by remoteness
            )
            .counter(
                "interconnect_transactions",
                cross.report.fabric.interconnect.transactions,
            ),
        );
    }

    // The acceptance bar: carving the machine into more nodes must not
    // slow down node-local work — per-island runtime flat within ±10%.
    let (_, flat_ms) = local_runtimes[0];
    for &(nodes, ms) in &local_runtimes[1..] {
        let rel = (ms - flat_ms).abs() / flat_ms;
        assert!(
            rel <= 0.10,
            "local runtime drifted {:.1}% on {nodes} nodes (flat {flat_ms:.2} ms, \
             got {ms:.2} ms); node-local traffic must not degrade with node count",
            rel * 100.0
        );
        println!(
            "  local {nodes}-node runtime within {:.1}% of flat \
             (throughput scaled {:.1}x)",
            rel * 100.0,
            nodes as f64 * flat_ms / ms,
        );
    }
    println!("  cross-node placement pays the interconnect penalty; local stays flat");

    let path = report.write().expect("bench report written");
    println!("wrote {}", path.display());
}
