//! Minimized fuzz reproductions, committed as replayable schedule
//! artifacts. Every schedule in `tests/data/` is exactly what
//! `machtlb replay --schedule <file>` accepts; the five `repro_*` files
//! are protocol holes the fuzzer found and this codebase fixed, kept
//! red-to-green as regression evidence.

use machtlb::core::{is_red, parse_schedule, run_schedule, schedule_json, ScheduleEvent};

const KNOWN_BAD: &str = include_str!("data/known_bad_schedule.json");
const MULTICAST_GATE: &str = include_str!("data/repro_multicast_activation_gate.json");
const ATTACH_RECHECK: &str = include_str!("data/repro_attach_recheck.json");
const ROBBED_RESTART: &str = include_str!("data/repro_robbed_restart.json");
const CO_INITIATOR_SENTINEL: &str = include_str!("data/repro_co_initiator_sentinel.json");
const DEAD_QUEUE_HOLDER: &str = include_str!("data/repro_dead_queue_holder.json");

/// The committed artifacts must stay in the serializer's own canonical
/// form, so a hand edit that drifts from `schedule_json` (and would make
/// "bit-identical round trip" claims vacuous) is caught here.
#[test]
fn committed_artifacts_are_canonical() {
    for (name, text) in [
        ("known_bad_schedule", KNOWN_BAD),
        ("repro_multicast_activation_gate", MULTICAST_GATE),
        ("repro_attach_recheck", ATTACH_RECHECK),
        ("repro_robbed_restart", ROBBED_RESTART),
        ("repro_co_initiator_sentinel", CO_INITIATOR_SENTINEL),
        ("repro_dead_queue_holder", DEAD_QUEUE_HOLDER),
    ] {
        let s = parse_schedule(text).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(schedule_json(&s), text, "{name} is not canonical");
    }
}

/// The beyond-envelope sabotage schedule (fencing disabled, wrongful
/// eviction armed) must keep replaying red: it is the CI assertion that
/// the fuzzer's red path — and the `machtlb replay` nonzero exit — still
/// work. If this goes green, the checker lost its teeth.
#[test]
fn known_bad_schedule_replays_red() {
    let s = parse_schedule(KNOWN_BAD).unwrap();
    assert!(!s.tolerable, "known-bad schedules are declared intolerable");
    assert!(!s.fencing, "the sabotage is the disabled fence");
    let o = run_schedule(&s);
    assert!(is_red(&o), "{o:?}");
    assert!(o.violations >= 1, "{o:?}");
}

/// Fuzzer finding #1 (multicast): a round published while every user was
/// transiently deactivated froze instantly, committed before the
/// fallback actions landed, and reactivated responders wrote through
/// stale translations. Fixed by the activation gate: an inactive→active
/// transition stalls while an open round on an in-use pmap neither
/// initiated by nor pending on this processor exists. The minimized
/// schedule (uniform 500 us IPI delay under fanout 4) must now survive,
/// and the gate must actually fire.
#[test]
fn multicast_activation_gate_repro_stays_green() {
    let s = parse_schedule(MULTICAST_GATE).unwrap();
    assert_eq!(s.fanout, 4, "the hole needs the multicast round path");
    assert_eq!(
        s.events,
        vec![ScheduleEvent::Delay {
            every_nth: 1,
            extra_us: 500
        }]
    );
    let o = run_schedule(&s);
    assert!(!is_red(&o), "{o:?}");
    assert_eq!(o.violations, 0, "{o:?}");
    assert!(
        o.stats.activation_stalls >= 1,
        "the activation gate never fired — the race window moved: {o:?}"
    );
}

/// Fuzzer finding #2 (unicast): a processor observed the pmap lock free
/// in its attach spin, was preempted by a device interrupt for ~500 us,
/// and attached after an initiator had locked the pmap and scanned the
/// user set — so it demand-loaded soon-to-be-stale translations no
/// shootdown would ever flush. Fixed by rechecking the lock in the same
/// atomic step as the attach. The minimized schedule (one wrongful
/// 100 ms stall on cpu6, machine seed 134630) must now survive, and the
/// recheck must actually fire.
#[test]
fn attach_recheck_repro_stays_green() {
    let s = parse_schedule(ATTACH_RECHECK).unwrap();
    assert_eq!(s.fanout, 1, "the hole is in the paper's unicast loop");
    let o = run_schedule(&s);
    assert!(!is_red(&o), "{o:?}");
    assert_eq!(o.violations, 0, "{o:?}");
    assert!(
        o.stats.attach_rechecks >= 1,
        "the attach recheck never fired — the race window moved: {o:?}"
    );
}

/// Fuzzer finding #3 (offline/revive at 64 processors): a co-initiator
/// went offline mid-critical-section holding a pmap shard,
/// fence-and-steal reclaimed the shard, and on revival the frozen
/// operation resumed where it stopped — releasing a lock the thief now
/// held (a simulator panic, worse than red). Fixed by sampling each
/// shard's steal generation at acquisition and, on any later mismatch,
/// abandoning the stale critical section without releasing and
/// restarting the operation from scratch. The minimized schedule (one
/// offline/revive on the co-initiator) must now survive, and the
/// robbery restart must actually fire.
#[test]
fn robbed_restart_repro_stays_green() {
    let s = parse_schedule(ROBBED_RESTART).unwrap();
    assert!(
        s.co_initiator,
        "the victim must be mid-operation when it dies"
    );
    assert_eq!(
        s.events,
        vec![ScheduleEvent::Offline {
            cpu: 1,
            at_us: 7900,
            revive_at_us: 211000
        }]
    );
    let o = run_schedule(&s);
    assert!(!is_red(&o), "{o:?}");
    assert_eq!(o.violations, 0, "{o:?}");
    assert!(
        o.stats.robbed_restarts >= 1,
        "the steal-generation check never fired — the race window moved: {o:?}"
    );
    assert!(o.stats.locks_stolen >= 1, "{o:?}");
}

/// Fuzzer finding #4 (redundant initiators): recovering from a halted
/// lock grabber starved the co-initiator long enough that the main
/// driver finished every round first and raised the sentinel — so the
/// writers exited, the shared counter froze, and the co-initiator's
/// pacing spin (`counter < threshold`) ran forever: a never-completed
/// run the checker flags as fatal. Fixed by having a pacing driver that
/// finds the sentinel already raised finish instead of waiting for
/// writer progress that will never come. The minimized schedule (one
/// halt on the lock grabber under fanout 8 at 64 processors) must now
/// complete.
#[test]
fn co_initiator_sentinel_repro_stays_green() {
    let s = parse_schedule(CO_INITIATOR_SENTINEL).unwrap();
    assert!(
        s.co_initiator && s.grab_lock,
        "the hole needs both drivers and a dead holder"
    );
    assert_eq!(
        s.events,
        vec![ScheduleEvent::Halt {
            cpu: 63,
            at_us: 1000
        }]
    );
    let o = run_schedule(&s);
    assert!(!is_red(&o), "{o:?}");
    assert!(o.completed, "the co-initiator wedged again: {o:?}");
    assert_eq!(o.violations, 0, "{o:?}");
    assert!(o.stats.locks_stolen >= 1, "{o:?}");
}

/// Fuzzer finding #5 (dead queue-lock holder): a responder fail-stopped
/// mid-drain while holding its own action-queue lock, and the initiator
/// posting it a queue action spun on that lock with no deadline and no
/// liveness probe — a run that never completed. Fixed by giving the
/// queue-lock wait the pmap lock's dead-holder recovery: the wait ends
/// at the watchdog deadline, the holder is probed, and a halted holder
/// is evicted and its locks reclaimed. The minimized schedule (a stall
/// and a halt on cpu32, a halt on the lock grabber, fanout 4 on 64
/// processors) must now complete, with no watchdog give-up: the queue
/// lock's probe did the eviction.
#[test]
fn dead_queue_holder_repro_stays_green() {
    let s = parse_schedule(DEAD_QUEUE_HOLDER).unwrap();
    assert!(
        s.events.contains(&ScheduleEvent::Halt {
            cpu: 32,
            at_us: 10000
        }),
        "the hole needs the queue-lock holder to die"
    );
    let o = run_schedule(&s);
    assert!(!is_red(&o), "{o:?}");
    assert!(o.completed, "the initiator wedged on the queue lock: {o:?}");
    assert_eq!(o.violations, 0, "{o:?}");
    assert_eq!(o.stats.watchdog_gaveup, 0, "{o:?}");
    assert!(
        o.stats.evictions >= 1,
        "the queue-lock probe never evicted the dead holder: {o:?}"
    );
}
