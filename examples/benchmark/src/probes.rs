//! Layer probes: host time of single layers, called through their public
//! API only. Each probe asserts its own result, so it cannot time a
//! broken or optimised-away call.

use std::hint::black_box;
use std::time::Instant;

use machtlb::core::{Action, ActionQueue, SplitMix64};
use machtlb::pmap::{Access, CpuSet, PageRange, Pfn, PmapId, Prot, Pte, Vpn};
use machtlb::sim::{
    CostModel, CpuId, Ctx, Dur, Machine, MachineConfig, Process, RunStatus, Step, Time, Topology,
};
use machtlb::tlb::{Lookup, Tlb, TlbConfig, TlbStats};

use crate::metrics::median;

/// Probe results, host ns per operation.
#[derive(Clone, Debug)]
pub struct Probes {
    pub sched_ns_per_step: f64,
    pub tlb_ns_per_op: f64,
    pub cpuset_ns_per_op: f64,
    pub queue_ns_per_op: f64,
}

/// Repetitions per probe; the median is reported.
const REPS: usize = 5;

/// Runs every probe at `n_cpus`, the TLB probe in the operation mix of
/// `tlb` (a default mix when the workload's TLBs are not observable).
pub fn run(n_cpus: usize, tlb: Option<TlbStats>) -> Probes {
    Probes {
        sched_ns_per_step: sched_ns_per_step(n_cpus),
        tlb_ns_per_op: tlb_ns_per_op(&TlbMix::of(tlb)),
        cpuset_ns_per_op: cpuset_ns_per_op(n_cpus),
        queue_ns_per_op: queue_ns_per_op(),
    }
}

fn median_of(mut f: impl FnMut() -> f64) -> f64 {
    let xs: Vec<f64> = (0..REPS).map(|_| f()).collect();
    median(&xs).expect("REPS > 0")
}

/// A process that burns `left` one-microsecond steps and exits.
#[derive(Debug)]
struct Spin {
    left: u32,
}

impl Process<(), ()> for Spin {
    fn step(&mut self, _ctx: &mut Ctx<'_, (), ()>) -> Step {
        if self.left == 0 {
            return Step::Done(Dur::micros(1));
        }
        self.left -= 1;
        Step::Run(Dur::micros(1))
    }
}

/// Scheduler cost per step of a bare machine with one trivial process per
/// processor. The scheduler's per-step work grows with the processor
/// count, so the step budget shrinks with its square to keep the probe
/// near 0.1 s.
pub fn sched_ns_per_step(n_cpus: usize) -> f64 {
    let iters = (16_000_000 / (n_cpus * n_cpus)).max(4) as u32;
    median_of(|| {
        let config = MachineConfig {
            n_cpus,
            seed: 1,
            costs: CostModel::multimax(),
            topology: Topology::flat(n_cpus),
        };
        let mut m: Machine<(), ()> = Machine::new(config, (), |_| ());
        for c in 0..n_cpus {
            m.spawn_at(
                CpuId::new(c as u32),
                Time::ZERO,
                Box::new(Spin { left: iters }),
            );
        }
        let start = Instant::now();
        let r = m.run(Time::from_micros(u64::from(iters) * 10 + 1000));
        let secs = start.elapsed().as_secs_f64();
        // Per processor: the spawn delivery, one step per spin, the exit.
        let want = n_cpus as u64 * (u64::from(iters) + 2);
        assert_eq!(r.status, RunStatus::Quiescent, "the spinners must all exit");
        assert_eq!(m.total_steps(), want, "every spin was simulated");
        secs * 1e9 / want as f64
    })
}

/// Shares of TLB operations, from a workload's TLB counters.
#[derive(Clone, Debug, PartialEq)]
pub struct TlbMix {
    pub lookup: f64,
    pub insert: f64,
    pub invalidate: f64,
    pub flush: f64,
}

impl TlbMix {
    /// The mix a workload's TLBs saw; a lookup-dominated default where the
    /// workload's TLBs are not observable.
    pub fn of(stats: Option<TlbStats>) -> TlbMix {
        let (lookup, insert, invalidate, flush) = match stats {
            Some(s) if s.hits + s.misses > 0 => (
                (s.hits + s.misses) as f64,
                s.insertions as f64,
                s.invalidated as f64,
                s.flushes as f64,
            ),
            _ => (90.0, 8.0, 1.9, 0.1),
        };
        let total = lookup + insert + invalidate + flush;
        TlbMix {
            lookup: lookup / total,
            insert: insert / total,
            invalidate: invalidate / total,
            flush: flush / total,
        }
    }
}

const TLB_OPS: usize = 400_000;

/// Host time per TLB operation, drawn in `mix` over 4 pmaps × 128 pages
/// on the Multimax's 64-entry buffer.
pub fn tlb_ns_per_op(mix: &TlbMix) -> f64 {
    let mut rng = SplitMix64::new(7);
    let ops: Vec<(u8, PmapId, Vpn)> = (0..TLB_OPS)
        .map(|_| {
            let x = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
            let kind = if x < mix.lookup {
                0
            } else if x < mix.lookup + mix.insert {
                1
            } else if x < mix.lookup + mix.insert + mix.invalidate {
                2
            } else {
                3
            };
            let pmap = PmapId::new(rng.below(4) as u32);
            (kind, pmap, Vpn::new(rng.below(128)))
        })
        .collect();
    median_of(|| {
        let mut tlb = Tlb::new(TlbConfig::multimax());
        let (mut lookups, mut hits) = (0u64, 0u64);
        let start = Instant::now();
        for &(kind, pmap, vpn) in &ops {
            match kind {
                0 => {
                    lookups += 1;
                    let hit = matches!(
                        tlb.lookup(pmap, vpn, Access::Read, Time::ZERO),
                        Lookup::Hit { .. }
                    );
                    hits += u64::from(hit);
                }
                1 => {
                    black_box(tlb.insert(
                        pmap,
                        vpn,
                        Pte::valid(Pfn::new(vpn.raw()), Prot::READ_WRITE),
                        Time::ZERO,
                    ));
                }
                2 => {
                    black_box(tlb.invalidate(pmap, vpn));
                }
                _ => {
                    black_box(tlb.flush_all());
                }
            }
        }
        let secs = start.elapsed().as_secs_f64();
        let s = tlb.stats();
        assert_eq!(s.hits, hits, "the TLB's hit count matches the probe's");
        assert_eq!(s.hits + s.misses, lookups, "every lookup was counted");
        secs * 1e9 / TLB_OPS as f64
    })
}

/// Host time per processor-set operation at `n_cpus`: fill every third
/// processor, probe membership of all, iterate, then empty the set.
pub fn cpuset_ns_per_op(n_cpus: usize) -> f64 {
    let rounds = (2_000_000 / n_cpus).max(1);
    let members = n_cpus.div_ceil(3);
    median_of(|| {
        let mut set = CpuSet::new(n_cpus);
        let mut seen = 0usize;
        let mut ops = 0usize;
        let start = Instant::now();
        for _ in 0..rounds {
            for c in (0..n_cpus).step_by(3) {
                set.insert(CpuId::new(c as u32));
            }
            for c in 0..n_cpus {
                seen += usize::from(set.contains(black_box(CpuId::new(c as u32))));
            }
            seen += set.iter().count();
            for c in (0..n_cpus).step_by(3) {
                set.remove(CpuId::new(c as u32));
            }
            ops += 2 * members + n_cpus + 1;
        }
        let secs = start.elapsed().as_secs_f64();
        assert_eq!(seen, 2 * members * rounds, "membership and iteration agree");
        assert!(set.is_empty(), "every inserted processor was removed");
        secs * 1e9 / ops as f64
    })
}

const QUEUE_BURSTS: u64 = 100_000;

/// Host time per action-queue operation: alternating bursts of adjacent
/// single-page actions (which coalesce) and scattered ones (which
/// overflow into a flush), each drained.
pub fn queue_ns_per_op() -> f64 {
    median_of(|| {
        let mut q = ActionQueue::new(4);
        let (mut drained, mut flushes) = (0u64, 0u64);
        let start = Instant::now();
        for b in 0..QUEUE_BURSTS {
            let pmap = PmapId::new((b % 3) as u32);
            if b % 2 == 0 {
                for v in 0..8u64 {
                    q.enqueue(Action {
                        pmap,
                        range: PageRange::new(Vpn::new(0x100 + v), 1),
                    });
                }
            } else {
                for v in 0..6u64 {
                    q.enqueue(Action {
                        pmap,
                        range: PageRange::new(Vpn::new(v * 64), 1),
                    });
                }
            }
            let (actions, flush) = q.drain();
            drained += black_box(actions).len() as u64;
            flushes += u64::from(flush);
        }
        let secs = start.elapsed().as_secs_f64();
        assert_eq!(
            drained,
            QUEUE_BURSTS / 2,
            "each adjacent burst coalesces to one action"
        );
        assert_eq!(flushes, QUEUE_BURSTS / 2, "each scattered burst overflows");
        assert_eq!(q.enqueued(), QUEUE_BURSTS / 2 * 14);
        secs * 1e9 / (q.enqueued() + QUEUE_BURSTS) as f64
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_tlb_mix_follows_the_counters() {
        let stats = TlbStats {
            hits: 60,
            misses: 20,
            insertions: 15,
            invalidated: 4,
            flushes: 1,
            ..TlbStats::default()
        };
        let mix = TlbMix::of(Some(stats));
        assert_eq!(mix.lookup, 0.8);
        assert_eq!(mix.flush, 0.01);
        assert_eq!(TlbMix::of(None), TlbMix::of(Some(TlbStats::default())));
    }

    #[test]
    fn probes_report_positive_times() {
        let p = run(16, None);
        for ns in [
            p.sched_ns_per_step,
            p.tlb_ns_per_op,
            p.cpuset_ns_per_op,
            p.queue_ns_per_op,
        ] {
            assert!(ns > 0.0 && ns.is_finite(), "{p:?}");
        }
    }
}
