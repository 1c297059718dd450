//! A jittered interrupt stream's setup against the walk it batches.
//!
//! Setup counts a jittered stream's arrivals by drawing its gaps from the
//! machine RNG 64 at a time, and the lazy replay draws each gap again as
//! its arrival lands. The oracle here is the one-at-a-time walk over the
//! public `schedule_interrupt` and `rng_mut`: count an arrival, draw
//! `mean.mul_f64(rng.gen_range(lo..hi))`, stop past `until`. Each case
//! must leave the machine RNG in the same state after setup (the same
//! number of draws, so the same arrival count) and deliver the same
//! arrivals at the same instants.

use machtlb::sim::{
    CpuId, Ctx, Dur, IntrClass, Machine, MachineConfig, Process, Step, StreamSpacing, Time, Vector,
};
use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};

type Log = Vec<(CpuId, Time)>;

const TICK: Vector = Vector::new(3);

/// An interrupt service routine that does nothing: the factory logs.
#[derive(Debug)]
struct Isr;
impl Process<Log, ()> for Isr {
    fn step(&mut self, _: &mut Ctx<'_, Log, ()>) -> Step {
        Step::Done(Dur::nanos(100))
    }
}

/// One jittered stream on cpu 1, lazily or walked out eagerly: the
/// machine RNG right after setup, and every arrival's dispatch.
fn stream(
    seed: u64,
    lazy: bool,
    mean: Dur,
    lo: f64,
    hi: f64,
    first: Time,
    until: Time,
) -> (SmallRng, Log) {
    let config = MachineConfig::multimax16(seed);
    let mut m = Machine::new(config, Vec::new(), |_| ());
    m.register_handler(TICK, IntrClass::Device, |log: &mut Log, cpu, at| {
        log.push((cpu, at));
        Box::new(Isr)
    });
    let cpu = CpuId::new(1);
    if lazy {
        let spacing = StreamSpacing::Jittered { mean, lo, hi };
        m.schedule_interrupt_stream(cpu, TICK, first, until, spacing);
    } else {
        let mut t = first;
        while t <= until {
            m.schedule_interrupt(cpu, TICK, t);
            t += mean.mul_f64(m.rng_mut().gen_range(lo..hi));
        }
    }
    let after_setup = m.rng_mut().clone();
    m.run(until + Dur::millis(1));
    (after_setup, m.into_shared())
}

/// Runs a case both ways and returns the number of arrivals.
fn check(seed: u64, mean: Dur, lo: f64, hi: f64, first: Time, until: Time) -> usize {
    let (rng, log) = stream(seed, true, mean, lo, hi, first, until);
    let (eager_rng, eager_log) = stream(seed, false, mean, lo, hi, first, until);
    let case = format!("seed {seed} mean {mean} {lo}..{hi} {first:?}..={until:?}");
    assert_eq!(rng, eager_rng, "RNG after setup: {case}");
    assert_eq!(log, eager_log, "arrivals: {case}");
    log.len()
}

#[test]
fn batched_setup_matches_the_walk_over_random_streams() {
    let mut pick = SmallRng::seed_from_u64(40);
    for _ in 0..40 {
        let mean_ns = pick.gen_range(1_000_000..20_000_000u64);
        let lo = pick.gen_range(0.0..1.5);
        let hi = lo + pick.gen_range(0.05..2.0);
        let first = pick.gen_range(0..100_000_000u64);
        let until = pick.gen_range(first / 2..first + mean_ns * 400);
        let (first, until) = (Time::from_nanos(first), Time::from_nanos(until));
        check(pick.next_u64(), Dur::nanos(mean_ns), lo, hi, first, until);
    }
}

#[test]
fn batched_setup_matches_the_walk_at_the_edges() {
    // Gaps of 5 ms and more: every arrival is dispatched on its own, so
    // the log counts them.
    let us = Time::from_micros;
    let (mean, lo, hi) = (Dur::millis(10), 0.5, 1.5);
    // A stream that starts after its end has no arrivals.
    assert_eq!(check(1, mean, lo, hi, us(11), us(10)), 0);
    // One arrival, exactly at `until`.
    assert_eq!(check(1, mean, lo, hi, us(10), us(10)), 1);
    // `until` exactly on arrival k, for k around one and two batches.
    for k in [63u64, 64, 65, 128, 129] {
        // The machine RNG is seeded from the config seed, as here.
        let mut rng = SmallRng::seed_from_u64(1);
        let mut t = us(5);
        for _ in 1..k {
            t += mean.mul_f64(rng.gen_range(lo..hi));
        }
        assert_eq!(check(1, mean, lo, hi, us(5), t) as u64, k);
        assert_eq!(
            check(1, mean, lo, hi, us(5), Time::from_nanos(t.as_nanos() - 1)) as u64,
            k - 1
        );
    }
}
