//! Property tests for the fault-schedule layer: serialization is
//! lossless, generation is a pure function of the seed, a schedule that
//! has been through the JSON round trip replays bit-identically, and the
//! chaos catalog and soak shapes are schedules like any other — one fault
//! language.

use std::process::{Command, Stdio};

use machtlb::core::{
    campaign_json, chaos_schedules, check_envelope, fuzz_schedules, generate_schedule, is_red,
    offline_floor_us, parse_schedule, plan_catalog, revive_floor_us, run_campaign, run_chaos,
    run_schedule, schedule_from_json, schedule_json, soak_schedules, ChaosOutcome, Coverage,
    FaultSchedule, FuzzConfig, KernelStats, ScheduleEvent, SoakConfig, SplitMix64,
};
use machtlb::sim::{Dur, Topology};
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
/// the optional sabotage and topology fields (0 draws their default).
fn schedule_strategy() -> impl Strategy<Value = FaultSchedule> {
    (
        (
            4usize..=12,
            1u64..4,
            any::<u64>(),
            1usize..3,
            0usize..3,
            1u64..40,
        ),
        vec_of(bundle_strategy(), 0..=10),
        singletons_strategy(),
        (any::<bool>(), any::<bool>(), any::<bool>()),
        (0usize..3, any::<bool>(), 0usize..3, 0u32..4, 0u32..6),
    )
        .prop_map(
            |(
                (n_cpus, rounds, seed, nodes, node_cpus, remote_latency_us),
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
                    nodes,
                    node_cpus: (node_cpus > 0).then_some(node_cpus),
                    remote_latency_us,
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
    let outcomes = run_campaign(fuzz_schedules(&FuzzConfig {
        seed: 9,
        budget: 5,
        n_cpus: 8,
        rounds: 2,
    }));
    assert!(check_envelope(&outcomes).is_empty(), "{outcomes:?}");
    assert_eq!(outcomes.len(), 5);
    let coverage = Coverage::of(&outcomes);
    assert!(coverage.events > 0);
    assert_eq!(coverage.survivals.iter().sum::<u64>(), 5);
}

/// The 2-node machine with an uneven node size and a slow interconnect
/// that `machtlb chaos --nodes 2 --node-cpus 3 --remote-latency 20`
/// builds.
fn numa_2x3() -> Option<Topology> {
    Some(Topology::numa(2, 3, Dur::micros(20)))
}

/// One fault language: every chaos catalog entry (on a flat and on an
/// uneven NUMA machine) and every soak shape (the planted exhaustion
/// cycle included) is a valid schedule that survives the JSON round trip
/// without loss, at every machine size the catalog scales its timing
/// for.
#[test]
fn catalog_and_soak_shapes_round_trip_and_validate() {
    for n in [4, 8, 32] {
        assert_eq!(plan_catalog(n).len(), 21);
        let soak = SoakConfig {
            inject_exhaustion: true,
            ..SoakConfig::new(n, 5, 7)
        };
        for s in plan_catalog(n)
            .into_iter()
            .chain(chaos_schedules(n, &[1], 3, numa_2x3()))
            .chain(soak_schedules(&soak))
        {
            s.validate()
                .unwrap_or_else(|e| panic!("{} at {n} cpus: {e}", s.name));
            let text = schedule_json(&s);
            let back = parse_schedule(&text).unwrap_or_else(|e| panic!("{}: {e}", s.name));
            assert_eq!(back, s, "{text}");
        }
    }
}

/// A tolerable catalog entry replayed from its JSON drives the machine
/// exactly as the chaos harness does from the in-memory catalog: same
/// verdict, counters, and clocks.
#[test]
fn round_tripped_catalog_plans_replay_like_the_chaos_harness() {
    for plan in chaos_schedules(4, &[3], 3, None)
        .into_iter()
        .filter(|p| p.tolerable)
    {
        let chaos = run_chaos(&plan.compile());
        let replayed = run_schedule(&parse_schedule(&schedule_json(&plan)).expect("round trip"));
        let name = replayed.plan();
        assert_eq!(replayed.survival, chaos.survival, "{name}");
        assert_eq!(replayed.stats, chaos.stats, "{name}");
        assert_eq!(replayed.clocks, chaos.clocks, "{name}");
        assert_eq!(replayed.schedule, chaos.schedule, "{name}");
    }
}

/// Every row of the campaign JSON that `machtlb ARGS --json FILE`
/// writes replays: its `schedule`, read back and run by `run_schedule`,
/// reproduces the row's survival, counters, steps and end, and the whole
/// outcome (KernelStats, clocks, bus) of the preset run in-process. The
/// CLI's JSON is that in-process campaign's, byte for byte.
fn assert_rows_replay(
    campaign: &str,
    args: &[&str],
    schedules: Vec<FaultSchedule>,
) -> Vec<ChaosOutcome> {
    let path = std::env::temp_dir().join(format!(
        "machtlb-rows-{}-{}.json",
        std::process::id(),
        args.join("_")
    ));
    // The CLI runs while the same campaign runs in-process.
    let cli = Command::new(env!("CARGO_BIN_EXE_machtlb"))
        .args(args)
        .arg("--json")
        .arg(&path)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("the machtlb binary runs");
    let original = run_campaign(schedules);
    let out = cli.wait_with_output().expect("the machtlb binary exits");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    let text = std::fs::read_to_string(&path).expect("the campaign JSON is written");
    let _ = std::fs::remove_file(&path);
    let doc = Json::parse(&text).expect("valid json");
    let rows = doc.array_field("outcomes").expect("outcomes");
    assert_eq!(rows.len(), original.len(), "{args:?}");
    for (row, o) in rows.iter().zip(&original) {
        let s = schedule_from_json(row.field("schedule").expect("schedule")).expect("valid");
        let at = format!("{args:?}: {} seed {}", s.name, s.seed);
        let replayed = run_schedule(&s);
        assert_eq!(
            row.str_field("survival"),
            Ok(replayed.survival.name()),
            "{at}"
        );
        assert_eq!(row.u64_field("steps"), Ok(replayed.steps), "{at}");
        assert_eq!(row.u64_field("end_ns"), Ok(replayed.end.as_nanos()), "{at}");
        for (name, v) in replayed.stats.hardening() {
            assert_eq!(row.u64_field(name), Ok(v), "{at}: {name}");
        }
        assert_eq!(replayed.survival, o.survival, "{at}");
        assert_eq!(replayed.stats, o.stats, "{at}");
        assert_eq!(replayed.clocks, o.clocks, "{at}");
        assert_eq!(replayed.steps, o.steps, "{at}");
        assert_eq!(replayed.end, o.end, "{at}");
        assert_eq!(&replayed, o, "{at}");
    }
    let failures = check_envelope(&original);
    assert_eq!(
        text,
        campaign_json(campaign, &original, &failures),
        "{args:?}"
    );
    original
}

/// Every chaos row replays bit-identically from the campaign JSON — the
/// beyond-envelope rows, which stop at the bounds, and the rows of an
/// uneven NUMA machine included — and every beyond-envelope row still
/// replays red: any red chaos row is a `machtlb replay` input.
#[test]
fn beyond_envelope_rows_replay_red_from_the_survival_json() {
    for (cpus, topology) in [("4", None), ("8", None), ("8", numa_2x3())] {
        let mut args = vec!["chaos", "--cpus", cpus, "--seeds", "1"];
        if topology.is_some() {
            args.extend(["--nodes", "2", "--node-cpus", "3", "--remote-latency", "20"]);
        }
        let n = cpus.parse().expect("a size");
        let outcomes = assert_rows_replay("chaos", &args, chaos_schedules(n, &[1], 3, topology));
        assert_eq!(outcomes.len(), 21);
        let beyond: Vec<_> = outcomes.iter().filter(|o| !o.tolerable()).collect();
        assert_eq!(beyond.len(), 4);
        assert!(beyond.into_iter().all(is_red), "{args:?}");
    }
}

/// The soak rotation (the planted exhaustion cycle included, whose red
/// row fails the run) and the fuzz smoke campaign replay row for row
/// from their campaign JSON too.
#[test]
fn soak_and_fuzz_rows_replay_bit_identically() {
    let soak = SoakConfig {
        inject_exhaustion: true,
        ..SoakConfig::new(8, 5, 7)
    };
    let args = [
        "soak",
        "--cpus",
        "8",
        "--cycles",
        "5",
        "--inject-exhaustion",
        "on",
    ];
    let outcomes = assert_rows_replay("soak", &args, soak_schedules(&soak).collect());
    assert_eq!(outcomes.len(), 6);
    assert_eq!(check_envelope(&outcomes).len(), 1, "the planted cycle");
    let fuzz = FuzzConfig {
        seed: 1,
        budget: 8,
        n_cpus: 8,
        rounds: 2,
    };
    let args = ["fuzz", "--smoke", "on"];
    let outcomes = assert_rows_replay("fuzz", &args, fuzz_schedules(&fuzz).collect());
    assert_eq!(outcomes.len(), 8);
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
    let outcomes = run_campaign(
        chaos_schedules(4, &[3], 3, None)
            .into_iter()
            .filter(|p| !p.tolerable),
    );
    let doc = Json::parse(&campaign_json("chaos", &outcomes, &[])).expect("valid json");
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
