//! The multi-fault soak harness at scale.
//!
//! `run_soak` cycles halt, offline/revive, wrongful-eviction, two-halt,
//! and FailOp shapes through the fence, with the consistency checker on
//! throughout. These tests run the harness at the machine sizes the
//! chaos catalog targets — 32 through 128 processors — and assert the
//! acceptance bar: every cycle completes, zero checker violations, zero
//! unrecovered give-ups, and the survival verdict holds bit-identically
//! on replay.

use machtlb::core::{run_soak, soak_json, SoakConfig};
use machtlb::xpr::json::Json;

/// One full rotation of all five fault shapes at 32 processors.
#[test]
fn a_32_cpu_soak_survives_a_full_shape_rotation() {
    let o = run_soak(&SoakConfig::new(32, 5, 11));
    assert!(o.survived, "{o:?}");
    assert_eq!(o.completed_cycles, 5, "{o:?}");
    assert_eq!(o.violations, 0, "{o:?}");
    assert_eq!(o.unrecovered, 0, "{o:?}");
    assert_eq!(o.stats.retries_exhausted, 0, "{o:?}");
    assert!(o.stats.evictions >= 4, "halt shapes must evict: {o:?}");
    assert!(
        o.stats.self_fences >= 1,
        "the wrongful cycle self-fences: {o:?}"
    );
    assert!(o.stats.ops_retried >= 1, "the failop cycle retries: {o:?}");
}

/// The acceptance gate: at 128 processors a full cycle rotation
/// completes with zero unrecovered ops and zero checker violations.
#[test]
fn a_128_cpu_soak_completes_with_zero_unrecovered_and_zero_violations() {
    let o = run_soak(&SoakConfig::new(128, 5, 7));
    assert!(o.survived, "{o:?}");
    assert_eq!(o.completed_cycles, 5, "{o:?}");
    assert_eq!(o.violations, 0, "checker violations at 128 cpus: {o:?}");
    assert_eq!(o.unrecovered, 0, "unrecovered give-ups at 128 cpus: {o:?}");
    assert!(o.stats.evictions >= 4, "{o:?}");
    let json = soak_json(&o);
    assert!(json.contains("\"cpus\": 128"), "{json}");
    assert!(json.contains("\"survived\": true"), "{json}");
    // The summed counters are the registry's hardening group, in order.
    const OUTER: [&str; 9] = [
        "cpus",
        "cycles",
        "seed",
        "ops",
        "completed_cycles",
        "violations",
        "unrecovered",
        "cycle_log",
        "survived",
    ];
    let Json::Obj(fields) = Json::parse(&json).expect("valid json") else {
        panic!("the soak artifact is an object: {json}")
    };
    let counters: Vec<(&str, u64)> = fields
        .iter()
        .filter(|(k, _)| !OUTER.contains(&k.as_str()))
        .map(|(k, v)| (k.as_str(), v.as_u64().expect("a count")))
        .collect();
    assert_eq!(counters, o.stats.hardening(), "{json}");
}

/// Victim rotation must not depend on machine size for determinism:
/// the same config replays to the same outcome at 64 processors too.
#[test]
fn a_64_cpu_soak_replays_bit_identically() {
    let a = run_soak(&SoakConfig::new(64, 5, 13));
    let b = run_soak(&SoakConfig::new(64, 5, 13));
    assert_eq!(a, b, "soak must replay exactly at 64 cpus");
    assert!(a.survived, "{a:?}");
}
