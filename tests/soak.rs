//! The multi-fault soak preset at scale.
//!
//! `soak_schedules` cycles halt, offline/revive, wrongful-eviction,
//! two-halt, and FailOp shapes through the fence, with the consistency
//! checker on throughout. These tests run the rotation at the machine
//! sizes the chaos catalog targets — 32 through 128 processors — and
//! assert the acceptance bar: every cycle completes, zero checker
//! violations, zero unrecovered give-ups, and the survival verdict holds
//! bit-identically on replay.

use machtlb::core::{
    campaign_json, check_envelope, run_campaign, soak_schedules, CampaignTotals, ChaosOutcome,
    SoakConfig,
};
use machtlb::xpr::json::Json;

fn soak(n_cpus: usize, seed: u64) -> Vec<ChaosOutcome> {
    run_campaign(soak_schedules(&SoakConfig::new(n_cpus, 5, seed)))
}

/// One full rotation of all five fault shapes at 32 processors.
#[test]
fn a_32_cpu_soak_survives_a_full_shape_rotation() {
    let outcomes = soak(32, 11);
    assert!(check_envelope(&outcomes).is_empty(), "{outcomes:?}");
    let t = CampaignTotals::of(&outcomes);
    assert_eq!(t.completed, 5, "{t:?}");
    assert_eq!(t.violations, 0, "{t:?}");
    assert_eq!(t.unrecovered, 0, "{t:?}");
    assert_eq!(t.stats.retries_exhausted, 0, "{t:?}");
    assert!(t.stats.evictions >= 4, "halt shapes must evict: {t:?}");
    assert!(
        t.stats.self_fences >= 1,
        "the wrongful cycle self-fences: {t:?}"
    );
    assert!(t.stats.ops_retried >= 1, "the failop cycle retries: {t:?}");
}

/// The acceptance gate: at 128 processors a full cycle rotation
/// completes with zero unrecovered ops and zero checker violations.
#[test]
fn a_128_cpu_soak_completes_with_zero_unrecovered_and_zero_violations() {
    let outcomes = soak(128, 7);
    let failures = check_envelope(&outcomes);
    assert!(failures.is_empty(), "{failures:?}");
    let t = CampaignTotals::of(&outcomes);
    assert_eq!(t.completed, 5, "{t:?}");
    assert_eq!(t.violations, 0, "checker violations at 128 cpus: {t:?}");
    assert_eq!(t.unrecovered, 0, "unrecovered give-ups at 128 cpus: {t:?}");
    assert!(t.stats.evictions >= 4, "{t:?}");
    let json = campaign_json("soak", &outcomes, &failures);
    assert!(json.contains("\"cpus\": 128"), "{json}");
    assert!(json.contains("\"green\": true"), "{json}");
    // The summed counters are the registry's hardening group, in order.
    const OUTER: [&str; 5] = ["runs", "ops", "completed", "violations", "unrecovered"];
    let doc = Json::parse(&json).expect("valid json");
    let Ok(Json::Obj(fields)) = doc.field("totals") else {
        panic!("the soak artifact carries a totals object: {json}")
    };
    let counters: Vec<(&str, u64)> = fields
        .iter()
        .filter(|(k, _)| !OUTER.contains(&k.as_str()))
        .map(|(k, v)| (k.as_str(), v.as_u64().expect("a count")))
        .collect();
    assert_eq!(counters, t.stats.hardening(), "{json}");
}

/// Victim rotation must not depend on machine size for determinism:
/// the same config replays to the same outcome at 64 processors too.
#[test]
fn a_64_cpu_soak_replays_bit_identically() {
    let a = soak(64, 13);
    let b = soak(64, 13);
    assert_eq!(a, b, "soak must replay exactly at 64 cpus");
    assert!(check_envelope(&a).is_empty(), "{a:?}");
}
