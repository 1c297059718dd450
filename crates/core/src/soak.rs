//! The multi-fault soak harness: halt, offline/revive, wrongful
//! eviction, compound halts, and FailOp dead-holder recovery cycled back
//! to back for hundreds of cycles (thousands of pmap operations) at
//! 32–128 processors, with the checker on throughout.
//!
//! Each cycle is one [`run_chaos`] campaign under a rotating fault shape
//! and a rotating victim processor, so membership churn sweeps the whole
//! machine rather than hammering one processor. [`run_soak`] aggregates
//! the cycles into a [`SoakOutcome`]; [`soak_json`] renders it for CI
//! artifacts. The harness *survives* iff every cycle completed with zero
//! checker violations, zero unrecovered watchdog give-ups, and zero
//! exhausted FailOp retries — the "chaos at scale" acceptance gate.
//!
//! Everything inherits the chaos harness's determinism: the same
//! [`SoakConfig`] always produces a bit-identical [`SoakOutcome`].

use machtlb_sim::Time;
use machtlb_xpr::json::escape;

use crate::chaos::{run_chaos, ChaosConfig, Survival};
use crate::schedule::{FaultSchedule, ScheduleEvent, WRONGFUL_STALL_US};
use crate::state::KernelStats;

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
    /// Append one beyond-envelope cycle that runs the FailOp shape with a
    /// zero restart budget, forcing `retries_exhausted` — the CI gate's
    /// injected failure, proving a red soak actually exits red.
    pub inject_exhaustion: bool,
    /// Run cycles until this much wall-clock time has elapsed instead of
    /// counting to [`SoakConfig::cycles`] (at least one cycle always
    /// runs). Each cycle stays seed-deterministic; only *how many* run
    /// depends on the host's speed, so duration-bounded outcomes are not
    /// bit-reproducible across machines — use `cycles` for goldens.
    pub duration: Option<std::time::Duration>,
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

/// One cycle's result, kept compact for the JSON artifact.
#[derive(Clone, Debug, PartialEq)]
pub struct SoakCycle {
    /// Cycle index.
    pub cycle: u64,
    /// The fault shape's schedule name.
    pub plan: String,
    /// The derived machine seed.
    pub seed: u64,
    /// The cycle's verdict.
    pub survival: Survival,
    /// Whether the cycle's campaign ran to completion.
    pub completed: bool,
    /// Checker violations in this cycle.
    pub violations: usize,
    /// Watchdog give-ups the health monitor did not absorb.
    pub unrecovered: u64,
    /// The campaign's simulated end time.
    pub end: Time,
}

/// Everything a soak produced.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SoakOutcome {
    /// Processors in the machine.
    pub n_cpus: usize,
    /// Cycles run (including the injected-exhaustion cycle, if armed).
    pub cycles: u64,
    /// The base seed.
    pub seed: u64,
    /// Pmap operations driven across all cycles.
    pub ops: u64,
    /// Cycles whose campaign ran to completion.
    pub completed_cycles: u64,
    /// Checker violations across all cycles.
    pub violations: u64,
    /// Watchdog give-ups not absorbed into evictions, across all cycles.
    pub unrecovered: u64,
    /// Kernel counters summed across all cycles.
    pub stats: KernelStats,
    /// The acceptance verdict: every cycle completed, zero violations,
    /// zero unrecovered give-ups, zero exhausted retries.
    pub survived: bool,
    /// Per-cycle results, in order.
    pub log: Vec<SoakCycle>,
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

/// The beyond-envelope injected-failure cycle, run as cycle `cycle`: the
/// FailOp shape with a zero restart budget, guaranteed to book
/// `retries_exhausted`.
pub fn soak_exhaustion_schedule(cfg: &SoakConfig, cycle: u64) -> FaultSchedule {
    FaultSchedule {
        name: "soak-failop-exhausted".into(),
        seed: cycle_seed(cfg, cycle),
        failop_retries: 0,
        tolerable: false,
        ..soak_cycle_schedule(cfg, 4) // the FailOp shape
    }
}

/// A per-cycle machine seed; the multiplier just decorrelates the
/// device-interrupt jitter between consecutive cycles.
fn cycle_seed(cfg: &SoakConfig, cycle: u64) -> u64 {
    cfg.seed.wrapping_add(cycle.wrapping_mul(7919))
}

/// Runs the whole soak: `cycles` rotating-fault campaigns (plus the
/// injected-exhaustion cycle when armed), aggregated into one verdict.
///
/// # Panics
///
/// Panics if `n_cpus < 4`.
pub fn run_soak(cfg: &SoakConfig) -> SoakOutcome {
    assert!(cfg.n_cpus >= 4, "soak needs at least 4 processors");
    let mut out = SoakOutcome {
        n_cpus: cfg.n_cpus,
        seed: cfg.seed,
        ..SoakOutcome::default()
    };
    // Plans are generated lazily: a duration-bounded soak does not know
    // its cycle count up front, it keeps rotating the shape family until
    // the wall-clock budget is spent (at least one cycle always runs).
    let started = std::time::Instant::now();
    let mut cycle = 0u64;
    let mut exhaustion_done = false;
    loop {
        let more = match cfg.duration {
            Some(budget) => cycle == 0 || started.elapsed() < budget,
            None => cycle < cfg.cycles,
        };
        let plan = if more {
            soak_cycle_schedule(cfg, cycle)
        } else if cfg.inject_exhaustion && !exhaustion_done {
            exhaustion_done = true;
            soak_exhaustion_schedule(cfg, cycle)
        } else {
            break;
        };
        let ops = cfg.rounds * 4 + if plan.final_ro { 2 } else { 0 };
        let mut ccfg = ChaosConfig::scaled(cfg.n_cpus, plan.seed, Some(plan));
        ccfg.rounds = cfg.rounds;
        let o = run_chaos(&ccfg);
        let unrecovered = o.stats.unrecovered();
        out.cycles += 1;
        out.ops += ops;
        out.completed_cycles += u64::from(o.completed);
        out.violations += o.violations as u64;
        out.unrecovered += unrecovered;
        out.stats += o.stats;
        out.log.push(SoakCycle {
            cycle,
            plan: o.plan().to_string(),
            seed: o.seed,
            survival: o.survival,
            completed: o.completed,
            violations: o.violations,
            unrecovered,
            end: o.end,
        });
        cycle += 1;
    }
    out.survived = out.completed_cycles == out.cycles
        && out.violations == 0
        && out.unrecovered == 0
        && out.stats.retries_exhausted == 0;
    out
}

/// Renders a soak outcome as machine-readable JSON for CI artifacts.
/// `survived` mirrors the process exit code of `machtlb soak`.
pub fn soak_json(o: &SoakOutcome) -> String {
    let mut s = format!(
        "{{\n  \"cpus\": {}, \"cycles\": {}, \"seed\": {}, \"ops\": {},\n  \
         \"completed_cycles\": {}, \"violations\": {}, \"unrecovered\": {},\n ",
        o.n_cpus, o.cycles, o.seed, o.ops, o.completed_cycles, o.violations, o.unrecovered,
    );
    for (name, v) in o.stats.hardening() {
        s.push_str(&format!(" \"{name}\": {v},"));
    }
    s.push_str("\n  \"cycle_log\": [\n");
    for (i, c) in o.log.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"cycle\": {}, \"plan\": \"{}\", \"seed\": {}, \"survival\": \"{}\", \
             \"completed\": {}, \"violations\": {}, \"unrecovered\": {}, \
             \"end_ms\": {:.1}}}{}\n",
            c.cycle,
            escape(&c.plan),
            c.seed,
            c.survival.name(),
            c.completed,
            c.violations,
            c.unrecovered,
            c.end.as_millis_f64(),
            if i + 1 == o.log.len() { "" } else { "," },
        ));
    }
    s.push_str(&format!("  ],\n  \"survived\": {}\n}}\n", o.survived));
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_small_soak_survives_every_shape() {
        // One full rotation of the five shapes at the smallest machine.
        let o = run_soak(&SoakConfig::new(4, 5, 3));
        assert!(o.survived, "{o:?}");
        assert_eq!(o.completed_cycles, 5, "{o:?}");
        assert_eq!(o.violations, 0, "{o:?}");
        assert_eq!(o.unrecovered, 0, "{o:?}");
        assert!(o.stats.evictions >= 4, "every halt shape evicts: {o:?}");
        assert!(
            o.stats.self_fences >= 1,
            "the wrongful cycle self-fences: {o:?}"
        );
        assert!(o.stats.ops_retried >= 1, "the failop cycle retries: {o:?}");
        assert!(o.ops >= 5 * 12, "{o:?}");
    }

    #[test]
    fn soak_replays_bit_identically() {
        let a = run_soak(&SoakConfig::new(4, 5, 9));
        let b = run_soak(&SoakConfig::new(4, 5, 9));
        assert_eq!(a, b, "a soak must replay exactly");
    }

    #[test]
    fn injected_exhaustion_turns_the_soak_red() {
        let mut cfg = SoakConfig::new(4, 1, 3);
        cfg.inject_exhaustion = true;
        let o = run_soak(&cfg);
        assert!(!o.survived, "{o:?}");
        assert!(o.stats.retries_exhausted >= 1, "{o:?}");
        let json = soak_json(&o);
        assert!(json.contains("\"survived\": false"), "{json}");
        assert!(json.contains("soak-failop-exhausted"), "{json}");
    }

    #[test]
    fn soak_json_round_trips_the_verdict() {
        let o = run_soak(&SoakConfig::new(4, 2, 3));
        let json = soak_json(&o);
        assert!(json.contains("\"cpus\": 4"), "{json}");
        assert!(json.contains("\"survived\": true"), "{json}");
        assert!(json.contains("\"plan\": \"soak-halt\""), "{json}");
        assert!(json.contains("\"plan\": \"soak-offline-revive\""), "{json}");
    }
}
