//! Adversarial fault-schedule fuzzing: randomized compound-fault
//! schedules and a delta-debugging shrinker.
//!
//! The chaos catalog and the soak harness are hand-written
//! [`FaultSchedule`]s — they explore the schedules we already thought of.
//! This module samples schedules nobody wrote: arbitrary numbers of timed
//! fault events (halts, offline/revive windows, dispatch stalls including
//! the 100 ms wrongful-eviction trigger, and the IPI perturbation rules)
//! against victim sets of three or more processors spanning NUMA nodes
//! and fanout-relay positions.
//!
//! Three properties make the fuzzer usable rather than merely noisy:
//!
//! - **Determinism.** A schedule's faults are counter- or time-triggered,
//!   never randomly drawn at run time, so the same schedule always
//!   replays bit-identically. The generator itself is a [`SplitMix64`]
//!   stream: the same generator seed always produces the same schedule
//!   sequence.
//! - **Serialization.** Every schedule round-trips through JSON
//!   ([`schedule_json`](crate::schedule_json) /
//!   [`parse_schedule`](crate::parse_schedule)) losslessly, so a failing
//!   schedule is a committable, replayable artifact:
//!   `machtlb replay --schedule repro.json`.
//! - **Shrinking.** On a red run, [`shrink`] removes events, normalizes
//!   sabotage flags toward their defaults, retimes what remains onto
//!   canonical instants, and shrinks the machine to the victims actually
//!   needed, until the failure is minimal. The shrinker is deterministic
//!   and counts its replays, so minimality claims are testable.
//!
//! Red classification matches the chaos harness: a run is red iff it
//! classifies [`Survival::DetectedFatal`] — a checker violation, an
//! unrecovered watchdog give-up, an exhausted FailOp budget, or a
//! campaign that never completed. A campaign ([`fuzz_schedules`]) runs
//! through [`run_campaign`](crate::run_campaign) like the chaos catalog
//! and the soak, and [`Coverage::of`] counts what its outcomes exercised.

use crate::chaos::{ChaosOutcome, Survival};
use crate::schedule::{
    offline_floor_us, revive_floor_us, run_schedule, FaultSchedule, ScheduleEvent,
    WRONGFUL_STALL_US,
};

// ---------------------------------------------------------------------
// The RNG
// ---------------------------------------------------------------------

/// The generator's random stream: SplitMix64, written out in full so
/// schedule generation never depends on an external crate's internals
/// staying stable. Same seed, same stream, forever.
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A stream seeded with `seed`.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    /// The next 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A draw in `0..n` (n > 0). The modulo bias is irrelevant for
    /// schedule sampling.
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        self.next_u64() % n
    }

    /// True with probability `pct`/100.
    pub fn chance(&mut self, pct: u64) -> bool {
        self.below(100) < pct
    }
}

/// The red predicate: a run that was caught rather than survived.
pub fn is_red(outcome: &ChaosOutcome) -> bool {
    outcome.survival == Survival::DetectedFatal
}

// ---------------------------------------------------------------------
// The generator
// ---------------------------------------------------------------------

/// Samples one schedule from the stream, with coverage-biased victim
/// selection: beyond the uniform pool, victims are preferentially drawn
/// from the roles the protocol's recovery machinery exists for —
/// fanout-relay positions (node-leader processors), the co-initiator,
/// the parked lock holder, and offline victims become rejoiners. Every
/// sampled schedule validates, stays inside the tolerable envelope
/// (fencing on, watchdog on, bounded drops), and arms at least three
/// victims with at most one fail-stop each.
pub fn generate_schedule(rng: &mut SplitMix64, n_cpus: usize, rounds: u64) -> FaultSchedule {
    assert!(n_cpus >= 6, "the generator needs room for 3+ victims");
    let n = n_cpus as u32;
    let last = n - 1;

    // Machine shape: NUMA nodes only where they divide the machine, so
    // node-leader arithmetic stays exact.
    let nodes = *pick(rng, &[1usize, 2, 4])
        .iter()
        .find(|&&k| k == 1 || (n_cpus.is_multiple_of(k) && n_cpus / k >= 2))
        .unwrap_or(&1);
    let fanout = pick(rng, &[1usize, 1, 4, 8])[0];

    let grab_lock = rng.chance(20);
    let co_initiator = rng.chance(25);
    let failop = grab_lock && rng.chance(50);

    // The victim pool: never cpu0 (the primary driver); the last
    // processor is reserved for the parked holder when grab_lock is
    // armed; cpu1 is in the pool only through the initiator role below.
    // The draw is clamped to the eligible pool so small machines (where
    // the reservations eat most of it) still terminate: at the 6-cpu
    // floor the pool bottoms out at exactly the 3-victim minimum.
    let mut victims: Vec<u32> = Vec::new();
    let pool = (n_cpus - 1) as u64 - u64::from(grab_lock) - u64::from(!co_initiator);
    let n_victims = (3 + rng.below(3)).min(pool); // 3..=5
    let node_cpus = (n_cpus / nodes) as u32;

    // Coverage-biased roles, tried first with 50% weight each draw.
    let mut roles: Vec<u32> = Vec::new();
    if nodes > 1 || fanout > 1 {
        // Node leaders / relay positions.
        for k in 1..nodes as u32 {
            roles.push(k * node_cpus);
        }
    }
    if co_initiator {
        roles.push(1); // the redundant initiator itself
    }
    if !grab_lock {
        roles.push(last); // the classic holder/victim position
    }
    while (victims.len() as u64) < n_victims {
        let pick_role = !roles.is_empty() && rng.chance(50);
        let c = if pick_role {
            roles[rng.below(roles.len() as u64) as usize]
        } else {
            1 + rng.below(u64::from(n - 1)) as u32
        };
        let reserved = c == 0 || (grab_lock && c == last) || (!co_initiator && c == 1);
        if !reserved && !victims.contains(&c) {
            victims.push(c);
        }
    }

    // Event bundles, one per victim, at most one fail-stop each. The
    // wrongful-eviction trigger is rationed: every armed 100 ms stall
    // extends the campaign's tail, and the compile bounds budget two.
    let mut events: Vec<ScheduleEvent> = Vec::new();
    let mut wrongful_budget = 2u64;
    let mut final_ro = false;
    for &cpu in &victims {
        let roll = rng.below(100);
        if roll < 30 {
            // Frozen mid-dispatch, then fail-stopped.
            events.push(ScheduleEvent::Stall {
                cpu,
                extra_us: 8_000,
                times: 1,
            });
            events.push(ScheduleEvent::Halt {
                cpu,
                at_us: 1_000 + 500 * rng.below(23),
            });
        } else if roll < 55 {
            // Offline mid-run, revived through the fence: a rejoiner.
            events.push(ScheduleEvent::Stall {
                cpu,
                extra_us: 8_000,
                times: 1,
            });
            events.push(ScheduleEvent::Offline {
                cpu,
                at_us: offline_floor_us(n_cpus) + 500 * rng.below(4),
                revive_at_us: revive_floor_us(n_cpus) + 500 * rng.below(8),
            });
            final_ro = true;
        } else if roll < 75 && wrongful_budget > 0 {
            // Slow but alive: the wrongful-eviction trigger.
            wrongful_budget -= 1;
            events.push(ScheduleEvent::Stall {
                cpu,
                extra_us: WRONGFUL_STALL_US,
                times: 1,
            });
            final_ro = true;
        } else {
            // A benign (sub-horizon) stall.
            events.push(ScheduleEvent::Stall {
                cpu,
                extra_us: 8_000,
                times: 1 + rng.below(2),
            });
        }
    }

    // Global IPI/dispatch perturbations, layered over the victims.
    if rng.chance(35) {
        events.push(ScheduleEvent::Delay {
            every_nth: 1 + rng.below(3),
            extra_us: 100 + 100 * rng.below(10),
        });
    }
    if rng.chance(25) {
        events.push(ScheduleEvent::Duplicate {
            every_nth: 1 + rng.below(3),
            extra_us: 100 + 100 * rng.below(5),
        });
    }
    if rng.chance(25) {
        events.push(ScheduleEvent::Reorder {
            every_nth: 1 + rng.below(3),
            hold_us: 100 + 100 * rng.below(5),
        });
    }
    if rng.chance(25) {
        events.push(ScheduleEvent::IsrStretch {
            extra_us: 200 + 100 * rng.below(9),
        });
    }
    if rng.chance(20) {
        // Bounded: the watchdog's retry budget absorbs up to a couple of
        // lost IPIs; unbounded loss is beyond the envelope by design.
        events.push(ScheduleEvent::Drop {
            every_nth: 1 + rng.below(2),
            max_drops: 1 + rng.below(2),
        });
    }
    if grab_lock {
        // The mandated fail-stop of the parked holder.
        events.push(ScheduleEvent::Halt {
            cpu: last,
            at_us: 1_000,
        });
    }
    if !final_ro {
        final_ro = rng.chance(40);
    }

    let s = FaultSchedule {
        seed: rng.below(1_000_000),
        n_cpus,
        rounds,
        nodes,
        fanout,
        final_ro,
        grab_lock,
        co_initiator,
        failop,
        events,
        ..FaultSchedule::default()
    };
    debug_assert!(s.validate().is_ok(), "{:?}", s.validate());
    s
}

fn pick<'a, T>(rng: &mut SplitMix64, options: &'a [T]) -> &'a [T] {
    let i = rng.below(options.len() as u64) as usize;
    &options[i..]
}

// ---------------------------------------------------------------------
// The campaign
// ---------------------------------------------------------------------

/// A fuzz campaign's inputs.
#[derive(Clone, Debug)]
pub struct FuzzConfig {
    /// The generator seed: the whole campaign is a pure function of it.
    pub seed: u64,
    /// Schedules to run.
    pub budget: u64,
    /// Machine size; 0 rotates through the 32/48/64 acceptance band.
    pub n_cpus: usize,
    /// Reprotect/restore rounds per schedule.
    pub rounds: u64,
}

/// The fuzz preset: `cfg.budget` generated schedules from one
/// [`SplitMix64`] stream seeded with `cfg.seed`, so the whole campaign is
/// a pure function of the config. Lazy, like the other presets.
pub fn fuzz_schedules(cfg: &FuzzConfig) -> impl Iterator<Item = FaultSchedule> + '_ {
    let mut rng = SplitMix64::new(cfg.seed);
    let sizes: &[usize] = &[32, 48, 64];
    (0..cfg.budget).map(move |i| {
        let n_cpus = if cfg.n_cpus == 0 {
            sizes[(i % sizes.len() as u64) as usize]
        } else {
            cfg.n_cpus
        };
        generate_schedule(&mut rng, n_cpus, cfg.rounds)
    })
}

/// What a campaign exercised, the campaign JSON's `coverage` block: a
/// fuzzer that silently stops generating a fault class looks green for
/// the wrong reason, so the counts are part of the contract.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Coverage {
    /// Schedules run.
    pub schedules: u64,
    /// Total events across all schedules.
    pub events: u64,
    /// Events by kind, in [`Coverage::KIND_NAMES`] order.
    pub by_kind: [u64; 8],
    /// Stalls at or beyond the wrongful-eviction horizon.
    pub wrongful_stalls: u64,
    /// Victims in relay (node-leader) positions.
    pub relay_victims: u64,
    /// Victims that were the parked lock holder.
    pub holder_victims: u64,
    /// Victims that were the co-initiator.
    pub initiator_victims: u64,
    /// Victims with an offline/revive window (rejoiners).
    pub rejoiner_victims: u64,
    /// Schedules on a multi-node machine.
    pub numa_schedules: u64,
    /// Schedules with multicast fanout > 1.
    pub fanout_schedules: u64,
    /// Schedules with a parked lock holder.
    pub grab_lock_schedules: u64,
    /// Schedules with a redundant co-initiator.
    pub co_initiator_schedules: u64,
    /// Schedules recovering under [`RecoveryPolicy::FailOp`].
    pub failop_schedules: u64,
    /// Schedules arming the final read-only probe.
    pub final_ro_schedules: u64,
    /// Outcomes by survival: tolerated, degraded, detected-fatal.
    pub survivals: [u64; 3],
}

impl Coverage {
    /// The `by_kind` axis labels.
    pub const KIND_NAMES: [&'static str; 8] = [
        "delay",
        "drop",
        "duplicate",
        "reorder",
        "isr-stretch",
        "stall",
        "halt",
        "offline",
    ];

    /// What `outcomes` exercised (bare runs, with no schedule, are
    /// skipped).
    pub fn of(outcomes: &[ChaosOutcome]) -> Coverage {
        let mut c = Coverage::default();
        for o in outcomes {
            if let Some(s) = &o.schedule {
                c.absorb(s, o.survival);
            }
        }
        c
    }

    fn absorb(&mut self, s: &FaultSchedule, survival: Survival) {
        self.schedules += 1;
        self.events += s.events.len() as u64;
        let node_cpus = s.topology().node_cpus() as u32;
        for e in &s.events {
            let kind = Coverage::KIND_NAMES.iter().position(|&k| k == e.kind());
            self.by_kind[kind.expect("every kind is named")] += 1;
            if let ScheduleEvent::Stall { extra_us, .. } = e {
                if *extra_us >= WRONGFUL_STALL_US {
                    self.wrongful_stalls += 1;
                }
            }
        }
        for cpu in s.victims() {
            if s.nodes > 1 && cpu % node_cpus == 0 {
                self.relay_victims += 1;
            }
            if s.grab_lock && cpu == s.n_cpus as u32 - 1 {
                self.holder_victims += 1;
            }
            if s.co_initiator && cpu == 1 {
                self.initiator_victims += 1;
            }
            if s.events
                .iter()
                .any(|e| matches!(e, ScheduleEvent::Offline { cpu: c, .. } if *c == cpu))
            {
                self.rejoiner_victims += 1;
            }
        }
        self.numa_schedules += u64::from(s.nodes > 1);
        self.fanout_schedules += u64::from(s.fanout > 1);
        self.grab_lock_schedules += u64::from(s.grab_lock);
        self.co_initiator_schedules += u64::from(s.co_initiator);
        self.failop_schedules += u64::from(s.failop);
        self.final_ro_schedules += u64::from(s.final_ro);
        self.survivals[survival as usize] += 1;
    }
}

// ---------------------------------------------------------------------
// The shrinker
// ---------------------------------------------------------------------

/// What the shrinker did, with the minimized schedule.
#[derive(Clone, Debug, PartialEq)]
pub struct ShrinkReport {
    /// Replays spent (every candidate costs one).
    pub replays: u64,
    /// Events in the input schedule.
    pub original_events: usize,
    /// Events surviving minimization.
    pub minimal_events: usize,
    /// A human-readable log of the accepted reductions.
    pub steps: Vec<String>,
    /// The minimized, still-red schedule.
    pub schedule: FaultSchedule,
}

struct Shrinker {
    replays: u64,
    max_replays: u64,
    steps: Vec<String>,
}

impl Shrinker {
    /// True iff the candidate validates, the replay budget allows, and
    /// the candidate still replays red.
    fn still_red(&mut self, candidate: &FaultSchedule) -> bool {
        if candidate.validate().is_err() || self.replays >= self.max_replays {
            return false;
        }
        self.replays += 1;
        is_red(&run_schedule(candidate))
    }

    fn try_adopt(
        &mut self,
        cur: &mut FaultSchedule,
        candidate: FaultSchedule,
        step: String,
    ) -> bool {
        if self.still_red(&candidate) {
            *cur = candidate;
            self.steps.push(step);
            true
        } else {
            false
        }
    }
}

/// Delta-debugs a red schedule to a minimal reproduction: greedy event
/// removal to a fixpoint, sabotage flags normalized toward their
/// defaults (a failure that survives `fencing: true` is a deeper finding
/// than one that needs the sabotage), canonical retiming of what
/// remains, and a machine shrunk to the victims actually used. Fully
/// deterministic; every candidate costs one counted replay, bounded by
/// `max_replays`.
///
/// Returns `Err` if the input schedule does not replay red in the first
/// place (nothing to shrink).
pub fn shrink(input: &FaultSchedule, max_replays: u64) -> Result<ShrinkReport, String> {
    let mut sh = Shrinker {
        replays: 1, // the confirmation replay below
        max_replays: max_replays.max(1),
        steps: Vec::new(),
    };
    if !is_red(&run_schedule(input)) {
        return Err("shrink: the input schedule replays green".into());
    }
    let mut cur = input.clone();
    loop {
        let mut changed = false;

        // Pass 1: greedy event removal, last to first so indices stay
        // stable across accepted removals.
        let mut i = cur.events.len();
        while i > 0 {
            i -= 1;
            let mut candidate = cur.clone();
            let removed = candidate.events.remove(i);
            if sh.try_adopt(&mut cur, candidate, format!("removed {}", removed.kind())) {
                changed = true;
            }
        }

        // Pass 2: normalize sabotage flags toward their defaults.
        type Reset = (&'static str, fn(&mut FaultSchedule, &FaultSchedule));
        let resets: [Reset; 13] = [
            ("fencing -> true", |s, d| s.fencing = d.fencing),
            ("final_ro -> false", |s, d| s.final_ro = d.final_ro),
            ("grab_lock -> false", |s, d| s.grab_lock = d.grab_lock),
            ("co_initiator -> false", |s, d| {
                s.co_initiator = d.co_initiator
            }),
            ("failop -> false", |s, d| s.failop = d.failop),
            ("nodes -> 1", |s, d| s.nodes = d.nodes),
            ("fanout -> 1", |s, d| s.fanout = d.fanout),
            ("node_cpus -> even split", |s, d| s.node_cpus = d.node_cpus),
            ("remote_latency_us -> 4", |s, d| {
                s.remote_latency_us = d.remote_latency_us
            }),
            ("watchdog -> true", |s, d| s.watchdog = d.watchdog),
            ("queue_capacity -> none", |s, d| {
                s.queue_capacity = d.queue_capacity
            }),
            ("poison -> none", |s, d| s.poison = d.poison),
            ("failop_retries -> 3", |s, d| {
                s.failop_retries = d.failop_retries
            }),
        ];
        let defaults = FaultSchedule::default();
        for (name, reset) in resets {
            let mut candidate = cur.clone();
            reset(&mut candidate, &defaults);
            if candidate != cur && sh.try_adopt(&mut cur, candidate, format!("normalized {name}")) {
                changed = true;
            }
        }

        // Pass 3: retime surviving events onto canonical instants.
        for i in 0..cur.events.len() {
            let retimed = match cur.events[i] {
                ScheduleEvent::Halt { cpu, at_us } if at_us != 2_000 => {
                    Some(ScheduleEvent::Halt { cpu, at_us: 2_000 })
                }
                ScheduleEvent::Offline {
                    cpu,
                    at_us,
                    revive_at_us,
                } if at_us != offline_floor_us(cur.n_cpus)
                    || revive_at_us != revive_floor_us(cur.n_cpus) =>
                {
                    Some(ScheduleEvent::Offline {
                        cpu,
                        at_us: offline_floor_us(cur.n_cpus),
                        revive_at_us: revive_floor_us(cur.n_cpus),
                    })
                }
                ScheduleEvent::Stall {
                    cpu,
                    extra_us,
                    times,
                } if times > 1 => Some(ScheduleEvent::Stall {
                    cpu,
                    extra_us,
                    times: 1,
                }),
                _ => None,
            };
            if let Some(e) = retimed {
                let mut candidate = cur.clone();
                let step = format!("retimed {}", e.kind());
                candidate.events[i] = e;
                if sh.try_adopt(&mut cur, candidate, step) {
                    changed = true;
                }
            }
        }

        // Pass 4: shrink the machine to the victims actually used.
        let needed = 1 + cur.events.iter().filter_map(|e| e.cpu()).max().unwrap_or(0) as usize;
        let target = needed.max(4);
        if target < cur.n_cpus {
            let mut candidate = cur.clone();
            candidate.n_cpus = target;
            if candidate.nodes > 1 && !target.is_multiple_of(candidate.nodes) {
                candidate.nodes = 1;
            }
            if sh.try_adopt(
                &mut cur,
                candidate,
                format!("shrank machine to {target} cpus"),
            ) {
                changed = true;
            }
        }

        if !changed || sh.replays >= sh.max_replays {
            break;
        }
    }
    Ok(ShrinkReport {
        replays: sh.replays,
        original_events: input.events.len(),
        minimal_events: cur.events.len(),
        steps: sh.steps,
        schedule: cur,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::{campaign_json, check_envelope};
    use crate::schedule::{parse_schedule, run_campaign, schedule_json};

    fn wrongful_no_fence(n_cpus: usize) -> FaultSchedule {
        FaultSchedule {
            seed: 3,
            n_cpus,
            fencing: false,
            final_ro: true,
            tolerable: false,
            events: vec![ScheduleEvent::Stall {
                cpu: n_cpus as u32 - 1,
                extra_us: WRONGFUL_STALL_US,
                times: 1,
            }],
            ..FaultSchedule::default()
        }
    }

    #[test]
    fn splitmix_is_deterministic_and_nontrivial() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
        assert!(xs.windows(2).any(|w| w[0] != w[1]));
        // The canonical SplitMix64 test vector for seed 0.
        assert_eq!(SplitMix64::new(0).next_u64(), 0xE220_A839_7B1D_CDAF);
    }

    #[test]
    fn generated_schedules_validate_and_replay_deterministically() {
        let mut rng = SplitMix64::new(7);
        let s = generate_schedule(&mut rng, 8, 2);
        s.validate().expect("generated schedule validates");
        assert!(s.victims().len() >= 3, "{s:?}");
        let a = run_schedule(&s);
        let b = run_schedule(&s);
        assert_eq!(a, b, "a schedule must replay bit-identically");
    }

    #[test]
    fn schedule_json_round_trips() {
        let mut rng = SplitMix64::new(11);
        for _ in 0..10 {
            let s = generate_schedule(&mut rng, 12, 2);
            let text = schedule_json(&s);
            let back = parse_schedule(&text).expect("round trip parses");
            assert_eq!(back, s, "{text}");
        }
    }

    #[test]
    fn parse_rejects_malformed_and_invalid_schedules() {
        assert!(parse_schedule("{").is_err());
        assert!(parse_schedule("[]").is_err());
        let s = wrongful_no_fence(8);
        let good = schedule_json(&s);
        assert!(parse_schedule(&good).is_ok());
        // A structurally valid document with a bogus victim must be
        // rejected by validation, not silently accepted.
        let bad = good.replace("\"cpu\": 7", "\"cpu\": 99");
        assert!(parse_schedule(&bad).is_err(), "{bad}");
        let dup = good.replace(
            "\"events\": [\n",
            "\"events\": [\n    {\"kind\": \"delay\", \"every_nth\": 1, \"extra_us\": 5},\n    \
             {\"kind\": \"delay\", \"every_nth\": 2, \"extra_us\": 9},\n",
        );
        assert!(parse_schedule(&dup).is_err(), "duplicate singleton: {dup}");
        // Out-of-range and non-integral numbers are rejected, never
        // truncated: cpu 2^32 + 7 would otherwise replay as a stall on
        // cpu7.
        let opt =
            |field: &str, value: &str| format!("\"tolerable\": false,\n  \"{field}\": {value},\n");
        for (from, to) in [
            ("\"cpu\": 7".to_string(), "\"cpu\": 4294967303".to_string()),
            ("\"cpus\": 8".into(), "\"cpus\": -8".into()),
            ("\"rounds\": 3".into(), "\"rounds\": 3.5".into()),
            ("\"cpus\": 8".into(), "\"cpus\": 1000000000".into()),
            (
                "\"extra_us\": 100000".into(),
                "\"extra_us\": 18446744073709552".into(),
            ),
            (
                "\"tolerable\": false,\n".into(),
                opt("poison", "4294967296"),
            ),
            (
                "\"tolerable\": false,\n".into(),
                opt("failop_retries", "4294967296"),
            ),
            (
                "\"tolerable\": false,\n".into(),
                opt("queue_capacity", "1e3"),
            ),
            ("\"tolerable\": false,\n".into(), opt("node_cpus", "0")),
            (
                "\"tolerable\": false,\n".into(),
                opt("remote_latency_us", "18446744073709552"),
            ),
            // Two nodes of eight leave nothing for the second node.
            (
                "\"nodes\": 1,".into(),
                "\"nodes\": 2,\n  \"node_cpus\": 8,".into(),
            ),
        ] {
            let text = good.replace(&from, &to);
            assert_ne!(text, good);
            assert!(parse_schedule(&text).is_err(), "{text}");
        }
    }

    #[test]
    fn known_bad_schedule_replays_red_and_tolerable_twin_green() {
        let bad = wrongful_no_fence(8);
        let o = run_schedule(&bad);
        assert!(is_red(&o), "{o:?}");
        assert!(o.violations >= 1, "{o:?}");
        let mut fenced = bad;
        fenced.fencing = true;
        fenced.tolerable = true;
        let o = run_schedule(&fenced);
        assert!(!is_red(&o), "the fence is load-bearing: {o:?}");
    }

    #[test]
    fn a_small_campaign_is_green_and_deterministic() {
        let cfg = FuzzConfig {
            seed: 5,
            budget: 4,
            n_cpus: 8,
            rounds: 2,
        };
        let a = run_campaign(fuzz_schedules(&cfg));
        assert!(check_envelope(&a).is_empty(), "{a:?}");
        assert_eq!(a.len(), 4);
        assert!(Coverage::of(&a).events > 0);
        let b = run_campaign(fuzz_schedules(&cfg));
        assert_eq!(a, b, "a campaign must replay bit-identically");
    }

    #[test]
    fn campaign_json_carries_coverage_and_verdict() {
        let outcomes = run_campaign(fuzz_schedules(&FuzzConfig {
            seed: 5,
            budget: 2,
            n_cpus: 8,
            rounds: 2,
        }));
        let json = campaign_json("fuzz", &outcomes, &[]);
        assert!(json.contains("\"by_kind\""), "{json}");
        assert!(json.contains("\"victim_roles\""), "{json}");
        assert!(json.contains("\"green\": true"), "{json}");
        assert!(json.contains("\"survival\": "), "{json}");
    }

    #[test]
    fn shrink_rejects_a_green_schedule() {
        let mut green = wrongful_no_fence(8);
        green.fencing = true;
        assert!(shrink(&green, 10).is_err());
    }
}
