//! The shrinker's contract: given a failing schedule buried in padding,
//! it converges to the known-minimal reproduction, deterministically,
//! within a bounded number of counted replays.

use machtlb::core::{
    is_red, run_schedule, shrink, FaultSchedule, ScheduleEvent, WRONGFUL_STALL_US,
};

/// The known-minimal failure: one wrongful-eviction stall on cpu7 with
/// fencing sabotaged off. Everything else in the padded schedule below
/// is noise the machinery tolerates.
fn minimal_event() -> ScheduleEvent {
    ScheduleEvent::Stall {
        cpu: 7,
        extra_us: WRONGFUL_STALL_US,
        times: 1,
    }
}

/// The minimal failure padded to 20 events: benign stalls on every other
/// processor and the full set of singleton IPI perturbations, none of
/// which are needed for the red.
fn padded_schedule() -> FaultSchedule {
    let mut events = vec![minimal_event()];
    for cpu in 1..=6u32 {
        events.push(ScheduleEvent::Stall {
            cpu,
            extra_us: 8_000,
            times: 1,
        });
        events.push(ScheduleEvent::Stall {
            cpu,
            extra_us: 3_000,
            times: 2,
        });
    }
    events.push(ScheduleEvent::Stall {
        cpu: 7,
        extra_us: 2_000,
        times: 1,
    });
    events.push(ScheduleEvent::Stall {
        cpu: 1,
        extra_us: 5_000,
        times: 1,
    });
    events.push(ScheduleEvent::Delay {
        every_nth: 2,
        extra_us: 300,
    });
    events.push(ScheduleEvent::Duplicate {
        every_nth: 2,
        extra_us: 200,
    });
    events.push(ScheduleEvent::Reorder {
        every_nth: 3,
        hold_us: 200,
    });
    events.push(ScheduleEvent::IsrStretch { extra_us: 250 });
    // The drop cadence is deliberately sparse: an early dropped IPI
    // perturbs the first shootdown's retry timing enough to mask the
    // wrongful-eviction failure, and padding must stay noise.
    events.push(ScheduleEvent::Drop {
        every_nth: 7,
        max_drops: 1,
    });
    let s = FaultSchedule {
        seed: 3,
        n_cpus: 8,
        fencing: false,
        final_ro: true,
        tolerable: false,
        events,
        ..FaultSchedule::default()
    };
    assert_eq!(s.events.len(), 20);
    s.validate().expect("padded schedule validates");
    s
}

#[test]
fn shrinker_converges_to_the_known_minimal_reproduction() {
    let padded = padded_schedule();
    assert!(
        is_red(&run_schedule(&padded)),
        "the padded schedule must fail before shrinking means anything"
    );

    let report = shrink(&padded, 200).expect("a red schedule shrinks");

    // Exactly minimal: the 19 padding events are gone, the wrongful
    // stall remains, and the load-bearing sabotage survived every
    // normalization attempt (fencing back on would go green).
    assert_eq!(report.original_events, 20);
    assert_eq!(report.minimal_events, 1, "steps: {:?}", report.steps);
    assert_eq!(report.schedule.events, vec![minimal_event()]);
    assert!(!report.schedule.fencing, "fencing is load-bearing");

    // Bounded: every candidate costs one counted replay, and the greedy
    // fixpoint on 20 events plus flag/retime/machine passes fits well
    // under the budget.
    assert!(
        report.replays <= 100,
        "shrinking spent {} replays",
        report.replays
    );

    // The minimized schedule is still a genuine reproduction.
    assert!(is_red(&run_schedule(&report.schedule)));
}

#[test]
fn shrinking_is_deterministic() {
    let padded = padded_schedule();
    let a = shrink(&padded, 200).expect("red input");
    let b = shrink(&padded, 200).expect("red input");
    assert_eq!(a, b, "same input, same reductions, same replay count");
}

#[test]
fn shrinker_respects_the_replay_budget() {
    let padded = padded_schedule();
    // A budget too small to finish still returns, still red, and never
    // exceeds its allowance.
    let report = shrink(&padded, 6).expect("red input");
    assert!(report.replays <= 6, "spent {}", report.replays);
    assert!(is_red(&run_schedule(&report.schedule)));
}
