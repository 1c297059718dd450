//! The multi-fault soak preset: halt, offline/revive, wrongful
//! eviction, compound halts, and FailOp dead-holder recovery cycled back
//! to back for hundreds of cycles (thousands of pmap operations) at
//! 32–128 processors, with the checker on throughout.
//!
//! Each cycle is one schedule under a rotating fault shape and a
//! rotating victim processor, so membership churn sweeps the whole
//! machine rather than hammering one processor. [`soak_schedules`]
//! generates the cycles lazily and [`run_campaign`](crate::run_campaign)
//! runs them; the soak *survives* iff
//! [`check_envelope`](crate::check_envelope) is empty — every cycle
//! completed with zero checker violations, zero unrecovered watchdog
//! give-ups, and zero exhausted FailOp retries, the "chaos at scale"
//! acceptance gate. [`CampaignTotals`](crate::CampaignTotals) sums the
//! cycles.
//!
//! Everything inherits the schedule runner's determinism: the same
//! [`SoakConfig`] (without a duration) always produces bit-identical
//! outcomes.

use std::time::{Duration, Instant};

use crate::schedule::{FaultSchedule, ScheduleEvent, WRONGFUL_STALL_US};

/// One soak run's inputs.
#[derive(Clone, Debug)]
pub struct SoakConfig {
    /// Processors in the machine (>= 4; the acceptance gate runs 32–128).
    pub n_cpus: usize,
    /// Fault cycles to run. The shape rotates through the five-entry
    /// family each cycle; `cycles` that is a multiple of five sweeps the
    /// whole family evenly.
    pub cycles: u64,
    /// Base machine seed; each cycle derives its own seed from it.
    pub seed: u64,
    /// Reprotect/restore rounds per cycle (4 pmap operations each, plus
    /// the finale's reprotects where the shape arms one).
    pub rounds: u64,
    /// Append the planted cycle ([`soak_exhaustion_schedule`]): the
    /// FailOp shape with a zero restart budget, declared tolerable, so
    /// the envelope check must flag it — the CI gate's positive control,
    /// proving a red soak actually exits red.
    pub inject_exhaustion: bool,
    /// Run cycles until this much wall-clock time has elapsed instead of
    /// counting to [`SoakConfig::cycles`] (at least one cycle always
    /// runs). Each cycle stays seed-deterministic; only *how many* run
    /// depends on the host's speed, so duration-bounded outcomes are not
    /// bit-reproducible across machines — use `cycles` for goldens.
    pub duration: Option<Duration>,
}

impl SoakConfig {
    /// A standard soak: `cycles` cycles at `n_cpus` processors, 3 rounds
    /// a cycle, no injected failure.
    pub fn new(n_cpus: usize, cycles: u64, seed: u64) -> SoakConfig {
        SoakConfig {
            n_cpus,
            cycles,
            seed,
            rounds: 3,
            inject_exhaustion: false,
            duration: None,
        }
    }
}

/// The schedule soak cycle `cycle` runs: the rotating fault-shape family
/// by cycle index, with the cycle's derived machine seed and the
/// configured rounds. Victims rotate through the writer processors so
/// churn sweeps the machine.
pub fn soak_cycle_schedule(cfg: &SoakConfig, cycle: u64) -> FaultSchedule {
    let n = cfg.n_cpus as u32;
    // Writers run on processors 1..n; rotate the victim among them but
    // keep clear of the driver on 0 (and of `last` only where a shape
    // pins its own process there).
    let victim = 1 + (cycle % u64::from(n - 2)) as u32;
    let victim2 = 1 + ((cycle + 1) % u64::from(n - 2)) as u32;
    let shape = |name: &str, events: Vec<ScheduleEvent>| FaultSchedule {
        name: name.into(),
        seed: cycle_seed(cfg, cycle),
        n_cpus: cfg.n_cpus,
        rounds: cfg.rounds,
        events,
        ..FaultSchedule::default()
    };
    let stall = |cpu, extra_us| ScheduleEvent::Stall {
        cpu,
        extra_us,
        times: 1,
    };
    let halt = |cpu, at_us| ScheduleEvent::Halt { cpu, at_us };
    match cycle % 5 {
        // Fail-stop halt: a responder frozen mid-dispatch, then dead.
        0 => shape("soak-halt", vec![stall(victim, 8_000), halt(victim, 2_000)]),
        // Offline mid-shootdown, revive through the fence.
        1 => FaultSchedule {
            final_ro: true,
            ..shape(
                "soak-offline-revive",
                vec![
                    stall(victim, 8_000),
                    ScheduleEvent::Offline {
                        cpu: victim,
                        at_us: 2_000,
                        revive_at_us: 120_000,
                    },
                ],
            )
        },
        // Wrongful eviction: slow-but-alive, self-fenced on resume.
        2 => FaultSchedule {
            final_ro: true,
            ..shape(
                "soak-wrongful-evict",
                vec![stall(victim, WRONGFUL_STALL_US)],
            )
        },
        // Two responders dead in one campaign.
        3 => shape(
            "soak-two-halt",
            vec![
                stall(victim, 8_000),
                stall(victim2, 8_000),
                halt(victim, 2_000),
                halt(victim2, 2_500),
            ],
        ),
        // FailOp end to end: a dead lock holder retried past.
        _ => FaultSchedule {
            grab_lock: true,
            failop: true,
            ..shape("soak-failop", vec![halt(n - 1, 1_000)])
        },
    }
}

/// The planted cycle, run as cycle `cycle`: the FailOp shape with a zero
/// restart budget, guaranteed to book `retries_exhausted`. It stays
/// declared tolerable — a planted finding the envelope check must flag.
pub fn soak_exhaustion_schedule(cfg: &SoakConfig, cycle: u64) -> FaultSchedule {
    FaultSchedule {
        name: "soak-failop-exhausted".into(),
        seed: cycle_seed(cfg, cycle),
        failop_retries: 0,
        ..soak_cycle_schedule(cfg, 4) // the FailOp shape
    }
}

/// A per-cycle machine seed; the multiplier just decorrelates the
/// device-interrupt jitter between consecutive cycles.
fn cycle_seed(cfg: &SoakConfig, cycle: u64) -> u64 {
    cfg.seed.wrapping_add(cycle.wrapping_mul(7919))
}

/// The soak preset: the rotating cycles, then the planted cycle when
/// armed. Lazy — a duration-bounded soak does not know its cycle count
/// up front; it keeps rotating the shape family until the wall-clock
/// budget (counted from this call) is spent, at least one cycle always.
///
/// # Panics
///
/// Panics if `n_cpus < 4`.
pub fn soak_schedules(cfg: &SoakConfig) -> impl Iterator<Item = FaultSchedule> + '_ {
    assert!(cfg.n_cpus >= 4, "soak needs at least 4 processors");
    let started = Instant::now();
    let mut cycle = 0u64;
    let mut planted = !cfg.inject_exhaustion;
    std::iter::from_fn(move || {
        let more = match cfg.duration {
            Some(budget) => cycle == 0 || started.elapsed() < budget,
            None => cycle < cfg.cycles,
        };
        let s = if more {
            soak_cycle_schedule(cfg, cycle)
        } else if !planted {
            planted = true;
            soak_exhaustion_schedule(cfg, cycle)
        } else {
            return None;
        };
        cycle += 1;
        Some(s)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::{campaign_json, check_envelope, CampaignTotals};
    use crate::schedule::run_campaign;

    #[test]
    fn a_small_soak_survives_every_shape() {
        // One full rotation of the five shapes at the smallest machine.
        let outcomes = run_campaign(soak_schedules(&SoakConfig::new(4, 5, 3)));
        assert!(check_envelope(&outcomes).is_empty(), "{outcomes:?}");
        let t = CampaignTotals::of(&outcomes);
        assert_eq!(t.completed, 5, "{t:?}");
        assert_eq!(t.violations, 0, "{t:?}");
        assert_eq!(t.unrecovered, 0, "{t:?}");
        assert!(t.stats.evictions >= 4, "every halt shape evicts: {t:?}");
        assert!(
            t.stats.self_fences >= 1,
            "the wrongful cycle self-fences: {t:?}"
        );
        assert!(t.stats.ops_retried >= 1, "the failop cycle retries: {t:?}");
        assert!(t.ops >= 5 * 12, "{t:?}");
    }

    #[test]
    fn soak_replays_bit_identically() {
        let cfg = SoakConfig::new(4, 5, 9);
        let a = run_campaign(soak_schedules(&cfg));
        let b = run_campaign(soak_schedules(&cfg));
        assert_eq!(a, b, "a soak must replay exactly");
    }

    #[test]
    fn injected_exhaustion_turns_the_soak_red() {
        let mut cfg = SoakConfig::new(4, 1, 3);
        cfg.inject_exhaustion = true;
        let outcomes = run_campaign(soak_schedules(&cfg));
        assert_eq!(outcomes.len(), 2);
        let failures = check_envelope(&outcomes);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(
            failures[0].contains("soak-failop-exhausted"),
            "{failures:?}"
        );
        assert!(CampaignTotals::of(&outcomes).stats.retries_exhausted >= 1);
        let json = campaign_json("soak", &outcomes, &failures);
        assert!(json.contains("\"green\": false"), "{json}");
    }

    #[test]
    fn a_spent_duration_runs_one_cycle_then_the_planted_one() {
        let cfg = SoakConfig {
            duration: Some(Duration::ZERO),
            inject_exhaustion: true,
            ..SoakConfig::new(8, 5, 3)
        };
        let names: Vec<String> = soak_schedules(&cfg).map(|s| s.name).collect();
        assert_eq!(names, ["soak-halt", "soak-failop-exhausted"]);
    }

    #[test]
    fn soak_rows_carry_the_rotation() {
        let outcomes = run_campaign(soak_schedules(&SoakConfig::new(4, 2, 3)));
        let json = campaign_json("soak", &outcomes, &check_envelope(&outcomes));
        assert!(json.contains("\"campaign\": \"soak\""), "{json}");
        assert!(json.contains("\"green\": true"), "{json}");
        assert!(json.contains("\"plan\": \"soak-halt\""), "{json}");
        assert!(json.contains("\"plan\": \"soak-offline-revive\""), "{json}");
    }
}
