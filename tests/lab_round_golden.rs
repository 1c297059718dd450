//! The Section 8 lab round at 1024 processors, pinned exactly.
//!
//! The `scale1024` benchmark workload and the `sec8_scaling` bench run
//! this round: 16 concurrent initiators reprotect pages of one pmap in
//! use machine-wide, under degree-8 multicast fan-out, batched
//! initiators and 4 pmap shards, on the scaled-bus cost model. No other
//! test drives the round protocol above 128 processors, so this one
//! holds the scheduler to the same simulated run at that scale: every
//! kernel counter, every initiator's completion time, and the number of
//! steps the scheduler executed.

use machtlb_bench::{concurrent_round_cost, scaled_costs};
use machtlb_core::KernelConfig;

#[test]
fn lab_round_at_1024_cpus_is_bit_identical() {
    let n_cpus = 1024;
    let kconfig = KernelConfig {
        fanout: 8,
        batch_initiators: true,
        pmap_shards: 4,
        ..KernelConfig::default()
    };
    let rc = concurrent_round_cost(n_cpus, 16, kconfig, scaled_costs(n_cpus), 1);
    assert_eq!(format!("{:?}", rc.stats), GOLDEN_STATS);
    assert_eq!(rc.initiator_us, GOLDEN_INITIATOR_US);
    assert_eq!(rc.executed_steps, 82_901);
}

/// `KernelStats` of the round, as `Debug` prints it.
const GOLDEN_STATS: &str = "KernelStats { pmap_ops: 16, shootdowns_kernel: 0, \
    shootdowns_user: 1, lazy_skips: 0, faults: 0, unrecoverable_faults: 0, \
    ipis_sent: 1008, pageouts: 0, pageout_writes: 0, actions_coalesced: 0, \
    queue_overflows_avoided: 0, multicast_rounds: 1, initiators_batched: 15, \
    round_excused: 0, ipis_remote: 0, remote_lock_refs: 0, page_migrations: 0, \
    ipis_filtered: 0, asid_recycles: 0, activation_stalls: 0, attach_rechecks: 0, \
    ipi_retries: 0, watchdog_gaveup: 0, degraded_flushes: 0, evictions: 0, \
    fenced_rejoins: 0, locks_stolen: 0, robbed_restarts: 0, late_acks_rejected: 0, \
    self_fences: 0, ops_retried: 0, retries_exhausted: 0 }";

/// Each initiator's completion time (µs), in cpu order.
const GOLDEN_INITIATOR_US: [f64; 16] = [
    1203.0, 1199.0, 1199.0, 1199.0, 1199.0, 1200.0, 1200.0, 1200.0, 1200.0, 1200.0, 1200.0, 1200.0,
    1199.0, 1199.0, 1199.0, 1199.0,
];
