//! Property tests for the fault-schedule layer: serialization is
//! lossless, generation is a pure function of the seed, a schedule that
//! has been through the JSON round trip replays bit-identically, and the
//! chaos catalog and soak shapes are schedules like any other — one fault
//! language.

use machtlb::core::{
    generate_schedule, is_red, offline_floor_us, parse_schedule, plan_catalog, revive_floor_us,
    run_chaos, run_fuzz, run_schedule, schedule_from_json, schedule_json, soak_cycle_schedule,
    soak_exhaustion_schedule, survival_json, ChaosConfig, FaultSchedule, FuzzConfig, KernelStats,
    ScheduleEvent, SoakConfig, SplitMix64,
};
use machtlb::xpr::json::Json;
use proptest::collection::vec as vec_of;
use proptest::prelude::*;
use proptest::strategy::BoxedStrategy;
use proptest::test_runner::TestCaseError;

/// The faults one victim processor can carry, before a concrete cpu is
/// assigned: at most one fail-stop, instants as offsets from the floors
/// so the assembled schedule is valid by construction.
#[derive(Clone, Debug)]
enum Bundle {
    Nothing,
    Stall { extra_us: u64, times: u64 },
    Halt { at_us: u64 },
    Offline { at_off: u64, rev_off: u64 },
    StallThenHalt { extra_us: u64, at_us: u64 },
}

fn bundle_strategy() -> impl Strategy<Value = Bundle> {
    prop_oneof![
        Just(Bundle::Nothing),
        (1u64..150_000, 1u64..3).prop_map(|(extra_us, times)| Bundle::Stall { extra_us, times }),
        (500u64..20_000).prop_map(|at_us| Bundle::Halt { at_us }),
        (0u64..2_000, 1u64..4_000)
            .prop_map(|(at_off, rev_off)| Bundle::Offline { at_off, rev_off }),
        (1u64..10_000, 500u64..20_000)
            .prop_map(|(extra_us, at_us)| Bundle::StallThenHalt { extra_us, at_us }),
    ]
}

fn maybe(s: BoxedStrategy<ScheduleEvent>) -> BoxedStrategy<Option<ScheduleEvent>> {
    prop_oneof![Just(None::<ScheduleEvent>), s.prop_map(Some)].boxed()
}

/// The five singleton IPI/dispatch perturbation rules, each present at
/// most once (duplicates fail validation by design).
fn singletons_strategy() -> impl Strategy<Value = Vec<ScheduleEvent>> {
    let delay = (1u64..4, 50u64..2_000)
        .prop_map(|(every_nth, extra_us)| ScheduleEvent::Delay {
            every_nth,
            extra_us,
        })
        .boxed();
    let dup = (1u64..4, 50u64..1_000)
        .prop_map(|(every_nth, extra_us)| ScheduleEvent::Duplicate {
            every_nth,
            extra_us,
        })
        .boxed();
    let reorder = (1u64..4, 50u64..1_000)
        .prop_map(|(every_nth, hold_us)| ScheduleEvent::Reorder { every_nth, hold_us })
        .boxed();
    let stretch = (100u64..1_000)
        .prop_map(|extra_us| ScheduleEvent::IsrStretch { extra_us })
        .boxed();
    let drop = (1u64..3, 1u64..3)
        .prop_map(|(every_nth, max_drops)| ScheduleEvent::Drop {
            every_nth,
            max_drops,
        })
        .boxed();
    (
        maybe(delay),
        maybe(dup),
        maybe(reorder),
        maybe(stretch),
        maybe(drop),
    )
        .prop_map(|(a, b, c, d, e)| [a, b, c, d, e].into_iter().flatten().collect())
}

/// Names that exercise the string escaping, the empty one included.
const NAMES: [&str; 3] = ["", "a \"quoted\" name", "tab\tand back\\slash, é"];

/// An arbitrary valid schedule, assembled rather than filtered: one
/// bundle per victim slot (cpus 1..n-2), plus the singleton rules, plus
/// the optional sabotage fields (0 draws their default).
fn schedule_strategy() -> impl Strategy<Value = FaultSchedule> {
    (
        (4usize..=12, 1u64..4, any::<u64>()),
        vec_of(bundle_strategy(), 0..=10),
        singletons_strategy(),
        (any::<bool>(), any::<bool>(), any::<bool>()),
        (0usize..3, any::<bool>(), 0usize..3, 0u32..4, 0u32..6),
    )
        .prop_map(
            |(
                (n_cpus, rounds, seed),
                bundles,
                singletons,
                (fencing, final_ro, co_initiator),
                (name, watchdog, capacity, poison, failop_retries),
            )| {
                let off = offline_floor_us(n_cpus);
                let rev = revive_floor_us(n_cpus);
                let mut events: Vec<ScheduleEvent> = Vec::new();
                for (i, b) in bundles.iter().enumerate() {
                    let cpu = 1 + i as u32;
                    if cpu >= n_cpus as u32 - 1 {
                        break; // one bundle per victim slot, last cpu spare
                    }
                    match *b {
                        Bundle::Nothing => {}
                        Bundle::Stall { extra_us, times } => events.push(ScheduleEvent::Stall {
                            cpu,
                            extra_us,
                            times,
                        }),
                        Bundle::Halt { at_us } => events.push(ScheduleEvent::Halt { cpu, at_us }),
                        Bundle::Offline { at_off, rev_off } => {
                            events.push(ScheduleEvent::Offline {
                                cpu,
                                at_us: off + at_off,
                                revive_at_us: rev + rev_off,
                            })
                        }
                        Bundle::StallThenHalt { extra_us, at_us } => {
                            events.push(ScheduleEvent::Stall {
                                cpu,
                                extra_us,
                                times: 1,
                            });
                            events.push(ScheduleEvent::Halt { cpu, at_us });
                        }
                    }
                }
                events.extend(singletons);
                FaultSchedule {
                    seed,
                    n_cpus,
                    rounds,
                    nodes: 1,
                    fanout: if n_cpus % 2 == 0 { 4 } else { 1 },
                    fencing,
                    final_ro,
                    grab_lock: false,
                    co_initiator,
                    failop: false,
                    tolerable: fencing,
                    name: NAMES[name].into(),
                    watchdog,
                    queue_capacity: (capacity > 0).then_some(capacity),
                    poison: (poison > 0).then_some(poison),
                    failop_retries,
                    events,
                }
            },
        )
}

proptest! {
    /// parse ∘ render is the identity on every valid schedule — all
    /// instants are integral microseconds, so nothing is rounded away.
    #[test]
    fn schedule_json_round_trips_losslessly(s in schedule_strategy()) {
        prop_assert!(s.validate().is_ok(), "{:?}", s.validate());
        let text = schedule_json(&s);
        let back = parse_schedule(&text).map_err(TestCaseError::fail)?;
        prop_assert_eq!(back, s, "{}", text);
    }

    /// The generator is a pure function of its stream: the same seed
    /// yields the same schedule, and what it emits survives the round
    /// trip too (generated instants are also integral).
    #[test]
    fn generator_is_deterministic_and_round_trips(
        seed in any::<u64>(),
        n_cpus in 6usize..16,
        rounds in 1u64..4,
    ) {
        let a = generate_schedule(&mut SplitMix64::new(seed), n_cpus, rounds);
        let b = generate_schedule(&mut SplitMix64::new(seed), n_cpus, rounds);
        prop_assert_eq!(&a, &b);
        prop_assert!(a.validate().is_ok(), "{:?}", a.validate());
        let back = parse_schedule(&schedule_json(&a)).map_err(TestCaseError::fail)?;
        prop_assert_eq!(back, a);
    }
}

proptest! {
    // Replays cost real wall clock (each is a full chaos campaign), so
    // this property runs few cases on a small machine — the claim is
    // structural, not statistical.
    #![proptest_config(ProptestConfig { cases: 3, ..ProptestConfig::default() })]

    /// A schedule that has been serialized and parsed back drives the
    /// simulator to the bit-identical outcome: replay artifacts lose
    /// nothing that affects execution.
    #[test]
    fn round_tripped_schedules_replay_bit_identically(seed in any::<u64>()) {
        let s = generate_schedule(&mut SplitMix64::new(seed), 6, 1);
        let back = parse_schedule(&schedule_json(&s)).map_err(TestCaseError::fail)?;
        let a = run_schedule(&s);
        let b = run_schedule(&back);
        prop_assert_eq!(a, b);
    }
}

/// A small seeded campaign inside the tolerable envelope stays green —
/// the integration-level smoke twin of the `machtlb fuzz --smoke` CI
/// step, kept independent of the CLI.
#[test]
fn small_campaign_is_green() {
    let r = run_fuzz(&FuzzConfig {
        seed: 9,
        budget: 5,
        n_cpus: 8,
        rounds: 2,
    });
    assert_eq!(r.reds, 0, "{:?}", r.first_red);
    assert_eq!(r.runs.len(), 5);
    assert!(r.coverage.events > 0);
    assert_eq!(r.coverage.survivals.iter().sum::<u64>(), 5);
}

/// Every schedule the soak runs for `soak`: one full rotation of the
/// five shapes, then the injected-exhaustion cycle.
fn soak_shapes(soak: &SoakConfig) -> Vec<FaultSchedule> {
    (0..5)
        .map(|cycle| soak_cycle_schedule(soak, cycle))
        .chain([soak_exhaustion_schedule(soak, 5)])
        .collect()
}

/// One fault language: every chaos catalog entry and every soak shape
/// (the injected-exhaustion cycle included) is a valid schedule that
/// survives the JSON round trip without loss, at every machine size the
/// catalog scales its timing for.
#[test]
fn catalog_and_soak_shapes_round_trip_and_validate() {
    for n in [4, 8, 32] {
        let catalog = plan_catalog(n);
        assert_eq!(catalog.len(), 21);
        for s in catalog
            .into_iter()
            .chain(soak_shapes(&SoakConfig::new(n, 5, 7)))
        {
            s.validate()
                .unwrap_or_else(|e| panic!("{} at {n} cpus: {e}", s.name));
            let text = schedule_json(&s);
            let back = parse_schedule(&text).unwrap_or_else(|e| panic!("{}: {e}", s.name));
            assert_eq!(back, s, "{text}");
        }
    }
}

/// A tolerable catalog entry replayed from its JSON (under the replay
/// runner's bounds) drives the machine exactly as the chaos harness does
/// from the in-memory catalog: same verdict, counters, and clocks.
#[test]
fn round_tripped_catalog_plans_replay_like_the_chaos_harness() {
    for plan in plan_catalog(4).into_iter().filter(|p| p.tolerable) {
        let chaos = run_chaos(&ChaosConfig::new(4, 3, Some(plan.clone())));
        let text = schedule_json(&FaultSchedule { seed: 3, ..plan });
        let replayed = run_schedule(&parse_schedule(&text).expect("round trip"));
        let name = replayed.plan();
        assert_eq!(replayed.survival, chaos.survival, "{name}");
        assert_eq!(replayed.stats, chaos.stats, "{name}");
        assert_eq!(replayed.clocks, chaos.clocks, "{name}");
        assert_eq!(replayed.schedule, chaos.schedule, "{name}");
    }
}

/// Every beyond-envelope catalog row of a chaos survival artifact carries
/// its schedule, and that schedule, read back out of the artifact, still
/// replays red — any red chaos row is a `machtlb replay` input.
#[test]
fn beyond_envelope_rows_replay_red_from_the_survival_json() {
    let outcomes: Vec<_> = plan_catalog(4)
        .into_iter()
        .filter(|p| !p.tolerable)
        .map(|p| run_chaos(&ChaosConfig::new(4, 3, Some(p))))
        .collect();
    assert_eq!(outcomes.len(), 4);
    assert!(outcomes.iter().all(is_red));
    let doc = Json::parse(&survival_json(&outcomes, &[])).expect("valid json");
    for row in doc.array_field("outcomes").expect("outcomes") {
        let s = schedule_from_json(row.field("schedule").expect("schedule")).expect("valid");
        assert!(is_red(&run_schedule(&s)), "{} replayed green", s.name);
    }
}

/// The counters a chaos artifact reports are the registry's hardening
/// group: every survival row carries exactly those names, in registry
/// order, with the run's values, and the stall report's `hardening:`
/// line lists the same names in the same order.
#[test]
fn survival_rows_and_the_stall_report_enumerate_the_hardening_registry() {
    const ROW: [&str; 10] = [
        "plan",
        "cpus",
        "seed",
        "tolerable",
        "survival",
        "completed",
        "violations",
        "steps",
        "end_ns",
        "schedule",
    ];
    let outcomes: Vec<_> = plan_catalog(4)
        .into_iter()
        .filter(|p| !p.tolerable)
        .map(|p| run_chaos(&ChaosConfig::new(4, 3, Some(p))))
        .collect();
    let doc = Json::parse(&survival_json(&outcomes, &[])).expect("valid json");
    let rows = doc.array_field("outcomes").expect("outcomes");
    for (row, o) in rows.iter().zip(&outcomes) {
        let Json::Obj(fields) = row else {
            panic!("a row is an object: {row:?}")
        };
        let counters: Vec<(&str, u64)> = fields
            .iter()
            .filter(|(k, _)| !ROW.contains(&k.as_str()))
            .map(|(k, v)| (k.as_str(), v.as_u64().expect("a count")))
            .collect();
        assert_eq!(counters, o.stats.hardening(), "{}", o.plan());
    }
    let report = outcomes
        .iter()
        .find_map(|o| o.report.as_ref())
        .expect("an incomplete run files a stall report");
    let line = report
        .lines()
        .find_map(|l| l.strip_prefix("hardening: "))
        .expect("a hardening line");
    let listed: Vec<&str> = line
        .split(' ')
        .map(|pair| pair.split_once('=').expect("name=value").0)
        .collect();
    let names: Vec<&str> = KernelStats::default()
        .hardening()
        .iter()
        .map(|(name, _)| *name)
        .collect();
    assert_eq!(listed, names);
}
