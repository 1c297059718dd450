//! A direct kernel-machine lab for the scaling studies: `M` concurrent
//! initiators reprotect distinct pages of one shared pmap while every
//! other processor runs a toucher thread, so the in-use set spans the
//! machine and every round must quiesce `n - M` responders. The measured
//! quantity is each initiator's completion time — from the instant it
//! decides to operate to the instant its operation (or its piggybacked
//! merge into a neighbour's round) finishes — which is the number the
//! batching optimization is supposed to bend.

use machtlb_core::{
    build_kernel_machine, drive, try_access, AccessOutcome, Driven, ExitIdleProcess, KernelConfig,
    KernelState, KernelStats, MemOp, PmapOp, PmapOpProcess, SwitchUserPmapProcess,
};
use machtlb_pmap::{PageRange, Pfn, PmapId, Prot, Vaddr, Vpn};
use machtlb_sim::{CostModel, CpuId, Ctx, Process, Step, Time};

/// The lab's outcome: per-initiator completion times plus the kernel
/// counters of the run.
#[derive(Clone, Debug)]
pub struct RoundCost {
    /// Completion time per initiator (µs), cpu order.
    pub initiator_us: Vec<f64>,
    /// Their median.
    pub median_us: f64,
    /// Kernel counters after the run.
    pub stats: KernelStats,
    /// Scheduler steps the run executed (see
    /// [`Machine::executed_steps`](machtlb_sim::Machine::executed_steps)).
    pub executed_steps: u64,
}

#[derive(Debug)]
struct Toucher {
    pmap: PmapId,
    va: Vaddr,
    counter: u64,
    exit_idle: Option<ExitIdleProcess>,
    switch: Option<SwitchUserPmapProcess>,
}

impl Process<KernelState, ()> for Toucher {
    fn step(&mut self, ctx: &mut Ctx<'_, KernelState, ()>) -> Step {
        if let Some(exit) = self.exit_idle.as_mut() {
            return match drive(exit, ctx) {
                Driven::Yield(s) => s,
                Driven::Finished(d) => {
                    self.exit_idle = None;
                    self.switch = Some(SwitchUserPmapProcess::new(Some(self.pmap)));
                    Step::Run(d)
                }
            };
        }
        if let Some(sw) = self.switch.as_mut() {
            return match drive(sw, ctx) {
                Driven::Yield(s) => s,
                Driven::Finished(d) => {
                    self.switch = None;
                    Step::Run(d)
                }
            };
        }
        self.counter += 1;
        match try_access(ctx, self.pmap, self.va, MemOp::Write(self.counter)) {
            AccessOutcome::Ok { cost, .. } => Step::Run(cost),
            AccessOutcome::Stall { cost } => Step::Run(cost),
            AccessOutcome::Fault { cost } => Step::Done(cost),
        }
    }

    fn label(&self) -> &'static str {
        "lab-toucher"
    }
}

/// Waits for the trigger counter, runs one reprotect, and publishes its
/// completion time (µs) into the scratch frame at word `slot`.
#[derive(Debug)]
struct TimedOperator {
    pmap: PmapId,
    op: Option<PmapOp>,
    watch_pfn: Pfn,
    threshold: u64,
    scratch: Pfn,
    slot: usize,
    started: Option<Time>,
    exit_idle: Option<ExitIdleProcess>,
    running: Option<PmapOpProcess>,
}

impl Process<KernelState, ()> for TimedOperator {
    fn step(&mut self, ctx: &mut Ctx<'_, KernelState, ()>) -> Step {
        if let Some(exit) = self.exit_idle.as_mut() {
            return match drive(exit, ctx) {
                Driven::Yield(s) => s,
                Driven::Finished(d) => {
                    self.exit_idle = None;
                    Step::Run(d)
                }
            };
        }
        if self.running.is_none() {
            if ctx.shared.mem.read_word(self.watch_pfn, 0) < self.threshold {
                return Step::Run(ctx.costs().spin_iter);
            }
            self.started = Some(ctx.now);
            self.running = Some(PmapOpProcess::new(
                self.pmap,
                self.op.take().expect("op consumed once"),
            ));
        }
        let op = self.running.as_mut().expect("set above");
        match drive(op, ctx) {
            Driven::Yield(s) => s,
            Driven::Finished(d) => {
                let started = self.started.expect("stamped at op start");
                let elapsed = (ctx.now + d).duration_since(started);
                // Publish through physical memory: the machine owns the
                // process after spawn, so scratch words are the lab's
                // only channel back out.
                let us = elapsed.as_micros_f64().round().max(1.0) as u64;
                ctx.shared
                    .mem
                    .write_word(self.scratch, self.slot as u64, us);
                Step::Done(d)
            }
        }
    }

    fn label(&self) -> &'static str {
        "lab-initiator"
    }
}

/// Runs the lab once: `n_initiators` concurrent reprotects against one
/// pmap in use machine-wide, under `kconfig`, on an `n_cpus` machine.
/// Touchers hammer the trigger page; each initiator reprotects its own
/// page of the same 64-page shard granule so batched rounds can merge.
///
/// # Panics
///
/// Panics if the run breaks consistency, an initiator never completes,
/// or `n_initiators` leaves no processor for the touchers.
pub fn concurrent_round_cost(
    n_cpus: usize,
    n_initiators: usize,
    kconfig: KernelConfig,
    costs: CostModel,
    seed: u64,
) -> RoundCost {
    assert!(n_initiators >= 1 && n_initiators < n_cpus);
    assert!(n_initiators <= 63, "one shard granule holds the op pages");
    let mut m = build_kernel_machine(n_cpus, seed, costs, kconfig);
    let base = Vpn::new(0x40);
    let (pmap, pfn, scratch) = {
        let s = m.shared_mut();
        let pmap = s.pmaps.create();
        let pfn = s.frames.alloc();
        s.seed_mapping(pmap, base, pfn, Prot::READ_WRITE);
        for i in 1..n_initiators {
            let extra = s.frames.alloc();
            s.seed_mapping(pmap, Vpn::new(0x40 + i as u64), extra, Prot::READ_WRITE);
        }
        let scratch = s.frames.alloc();
        (pmap, pfn, scratch)
    };
    for c in n_initiators..n_cpus {
        let page = Vpn::new(0x40 + ((c - n_initiators) % n_initiators) as u64);
        m.spawn_at(
            CpuId::new(c as u32),
            Time::ZERO,
            Box::new(Toucher {
                pmap,
                va: page.base(),
                counter: 0,
                exit_idle: Some(ExitIdleProcess::new()),
                switch: None,
            }),
        );
    }
    for i in 0..n_initiators {
        m.spawn_at(
            CpuId::new(i as u32),
            Time::ZERO,
            Box::new(TimedOperator {
                pmap,
                op: Some(PmapOp::Protect {
                    range: PageRange::single(Vpn::new(0x40 + i as u64)),
                    prot: Prot::READ,
                }),
                watch_pfn: pfn,
                threshold: 20,
                scratch,
                slot: i,
                started: None,
                exit_idle: Some(ExitIdleProcess::new()),
                running: None,
            }),
        );
    }
    let r = m.run_bounded(Time::from_micros(4_000_000), 400_000_000);
    let s = m.shared();
    assert!(
        s.checker.is_consistent(),
        "lab run inconsistent: {:?}",
        s.checker.violations()
    );
    let initiator_us: Vec<f64> = (0..n_initiators)
        .map(|i| {
            let us = s.mem.read_word(scratch, i as u64);
            assert!(
                us > 0,
                "initiator {i} never completed (n={n_cpus}, status {:?})",
                r.status
            );
            us as f64
        })
        .collect();
    let mut sorted = initiator_us.clone();
    sorted.sort_by(f64::total_cmp);
    let median_us = sorted[sorted.len() / 2];
    RoundCost {
        initiator_us,
        median_us,
        stats: s.stats,
        executed_steps: m.executed_steps(),
    }
}

/// Scales the bus hold time down by `16/n` above 16 processors — the
/// scalable-interconnect assumption the Section 8 benches share.
pub fn scaled_costs(n_cpus: usize) -> CostModel {
    let mut costs = CostModel::multimax();
    if n_cpus > 16 {
        costs.bus_occupancy = costs.bus_occupancy.mul_f64(16.0 / n_cpus as f64);
    }
    costs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lab_measures_single_and_batched_initiators() {
        let solo = concurrent_round_cost(8, 1, KernelConfig::default(), CostModel::multimax(), 11);
        assert_eq!(solo.initiator_us.len(), 1);
        assert!(solo.median_us > 0.0);
        assert_eq!(solo.stats.shootdowns_user, 1);

        let batched = concurrent_round_cost(
            8,
            2,
            KernelConfig {
                fanout: 4,
                batch_initiators: true,
                ..KernelConfig::default()
            },
            CostModel::multimax(),
            11,
        );
        assert_eq!(batched.initiator_us.len(), 2);
        assert_eq!(batched.stats.initiators_batched, 1);
        assert_eq!(batched.stats.multicast_rounds, 1);
    }
}
