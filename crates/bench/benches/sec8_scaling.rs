//! Section 8 / Section 11 — Extrapolation to large machines.
//!
//! "The fact that shootdown overhead scales linearly with the number of
//! processors is a warning that shootdown overhead may pose problems for
//! larger machines" — the conclusion quotes "6 ms basic shootdown time for
//! 100 processors". This harness measures the basic cost directly on
//! simulated machines up to 256 processors and compares with the Figure 2
//! line, then demonstrates the restructuring remedy the paper proposes:
//! "divide both the processors and the kernel virtual address space into
//! pools ... most kernel pmap shootdowns occur within pools of processors
//! instead of across the entire machine".
//!
//! Large configurations assume a scalable (NUMA-like) interconnect: bus
//! hold time is scaled down by n/16 so the interconnect does not saturate
//! — matching the paper's observation that machines of this class cannot
//! be uniform-memory bus designs.
//!
//! Outside smoke mode it also reports the simulator's own host cost per
//! executed scheduler step on the `scale1024` lab round at 256, 1024 and
//! 4096 processors (the largest machine a fault schedule may describe).

use std::time::Instant;

use machtlb_bench::{concurrent_round_cost, scaled_costs, BenchMetric, BenchReport};
use machtlb_core::{HasKernel, KernelConfig};
use machtlb_sim::{CpuId, Ctx, Dur, Process, Step, Time};
use machtlb_vm::HasVm;
use machtlb_workloads::{
    build_workload_machine, run_tester, run_until_done, AppShared, KernelBufferOp, RunConfig,
    TesterConfig, ThreadShell, WlState,
};
use machtlb_xpr::{linear_fit, Summary, TextTable};

/// A processor kept busy with computation (a pool member doing real work,
/// and therefore a shootdown target whenever it is in the pmap's in-use
/// set).
#[derive(Debug)]
struct BusyWorker;

impl Process<WlState, ()> for BusyWorker {
    fn step(&mut self, ctx: &mut Ctx<'_, WlState, ()>) -> Step {
        if ctx.shared.done_flag {
            Step::Done(Dur::micros(1))
        } else {
            Step::Run(Dur::micros(40))
        }
    }
    fn label(&self) -> &'static str {
        "busy-worker"
    }
}

/// Issues `n` touched kernel-buffer cycles against `task`, then raises the
/// completion flag.
#[derive(Debug)]
struct KernelActivity {
    task: machtlb_vm::TaskId,
    left: u32,
    op: Option<KernelBufferOp>,
}

impl Process<WlState, ()> for KernelActivity {
    fn step(&mut self, ctx: &mut Ctx<'_, WlState, ()>) -> Step {
        if self.op.is_none() {
            if self.left == 0 {
                ctx.shared.done_flag = true;
                return Step::Done(Dur::micros(1));
            }
            self.left -= 1;
            self.op = Some(KernelBufferOp::in_task(self.task, 2, 2));
        }
        match machtlb_core::drive(self.op.as_mut().expect("set"), ctx) {
            machtlb_core::Driven::Yield(s) => s,
            machtlb_core::Driven::Finished(d) => {
                self.op = None;
                Step::Run(d + Dur::micros(200))
            }
        }
    }
    fn label(&self) -> &'static str {
        "kernel-activity"
    }
}

/// Runs kernel activity on a 64-processor machine with every processor
/// busy: either against the machine-wide kernel space or against a
/// 16-processor pool's kernel region (a task whose pmap is in use only on
/// the pool's processors). Returns (mean initiator elapsed us, mean
/// processors shot).
fn pooled_kernel_activity(pool: bool, seed: u64) -> (f64, f64) {
    let n_cpus = 64usize;
    let config = RunConfig {
        n_cpus,
        seed,
        costs: scaled_costs(n_cpus),
        kconfig: Default::default(),
        device_period: None,
        timer_flush_period: Dur::millis(5),
        limit: Time::from_micros(60_000_000),
    };
    let mut m = build_workload_machine(&config, AppShared::None);
    // The pool kernel region: a task whose pmap is marked in use on the
    // pool's 16 processors ("identify memory within the kernel that may
    // require shootdowns ... and restrict sharing of it between pools").
    let task = {
        let s = m.shared_mut();
        let (k, vm) = s.kernel_and_vm();
        let t = vm.create_task(k);
        if pool {
            let pmap = vm.pmap_of(t);
            for c in 0..16u32 {
                k.pmaps.get_mut(pmap).mark_in_use(CpuId::new(c));
            }
            t
        } else {
            machtlb_vm::TaskId::KERNEL
        }
    };
    for c in 1..n_cpus {
        m.shared_mut()
            .push_thread(CpuId::new(c as u32), Box::new(BusyWorker));
    }
    m.shared_mut().push_thread(
        CpuId::new(0),
        Box::new(
            ThreadShell::new(
                task,
                KernelActivity {
                    task,
                    left: 20,
                    op: None,
                },
            )
            .with_label("kernel-activity"),
        ),
    );
    let status = run_until_done(&mut m, config.limit, |s| s.done_flag);
    let s = m.shared();
    assert!(s.done_flag, "activity must finish (status {status:?})");
    assert!(s.kernel().checker.is_consistent());
    let records = if pool {
        s.kernel()
            .xpr
            .iter()
            .filter_map(|e| e.as_initiator())
            .filter(|r| r.kind == machtlb_xpr::PmapKind::User)
            .copied()
            .collect::<Vec<_>>()
    } else {
        s.kernel()
            .xpr
            .iter()
            .filter_map(|e| e.as_initiator())
            .copied()
            .collect::<Vec<_>>()
    };
    assert!(!records.is_empty(), "the deallocations must shoot");
    let elapsed = Summary::of(
        &records
            .iter()
            .map(|r| r.elapsed.as_micros_f64())
            .collect::<Vec<_>>(),
    )
    .expect("records");
    let procs = Summary::of(
        &records
            .iter()
            .map(|r| f64::from(r.processors))
            .collect::<Vec<_>>(),
    )
    .expect("records");
    (elapsed.mean, procs.mean)
}

fn scaled_config(n_cpus: usize, seed: u64) -> RunConfig {
    RunConfig {
        n_cpus,
        seed,
        costs: scaled_costs(n_cpus),
        kconfig: Default::default(),
        timer_flush_period: machtlb_sim::Dur::millis(5),
        device_period: None, // isolate the algorithmic scaling
        limit: Time::from_micros(120_000_000),
    }
}

fn basic_cost_us(n_cpus: usize, k: u32, seed: u64) -> f64 {
    let out = run_tester(
        &scaled_config(n_cpus, seed),
        &TesterConfig {
            children: k,
            warmup_increments: 20,
        },
    );
    assert!(!out.mismatch && out.report.consistent, "n={n_cpus} k={k}");
    let shot = out.shootdown.expect("shootdown happened");
    assert_eq!(shot.processors, k);
    shot.elapsed.as_micros_f64()
}

/// One curve of the large-machine study: a delivery/batching strategy and
/// how many concurrent initiators it is driven with.
struct ScalingCurve {
    name: &'static str,
    kconfig: KernelConfig,
    initiators: usize,
}

/// The 256 -> 1024 processor study this PR is about: median initiator
/// completion time for a machine-wide user shootdown under (a) unicast
/// delivery, (b) degree-8 multicast fan-out, and (c) fan-out plus batched
/// concurrent initiators on a sharded pmap. Returns the fitted growth
/// exponent per curve (slope of ln(cost) against ln(n)) and records every
/// point in `report`.
///
/// # Panics
///
/// Panics when fan-out plus batching fails the sub-linearity acceptance
/// bar (exponent < 0.5) or stops beating unicast's growth.
fn scaling_curves(report: &mut BenchReport, smoke: bool) {
    let sizes: &[usize] = if smoke {
        &[256, 1024]
    } else {
        &[256, 512, 1024]
    };
    let curves = [
        ScalingCurve {
            name: "unicast",
            kconfig: KernelConfig::default(),
            initiators: 1,
        },
        ScalingCurve {
            name: "fanout8",
            kconfig: KernelConfig {
                fanout: 8,
                ..KernelConfig::default()
            },
            initiators: 1,
        },
        ScalingCurve {
            name: "fanout8_batch",
            kconfig: KernelConfig {
                fanout: 8,
                batch_initiators: true,
                pmap_shards: 4,
                ..KernelConfig::default()
            },
            initiators: 4,
        },
    ];
    println!("sub-linear shootdown at scale: median initiator completion time (us)");
    println!("(machine-wide user shootdown; fanout8_batch runs 4 concurrent initiators)");
    let mut t = TextTable::new(vec!["processors", "unicast", "fanout8", "fanout8_batch"]);
    let mut medians: Vec<Vec<f64>> = vec![Vec::new(); curves.len()];
    for &n in sizes {
        let mut row = vec![n.to_string()];
        for (ci, curve) in curves.iter().enumerate() {
            let rc = concurrent_round_cost(
                n,
                curve.initiators,
                curve.kconfig.clone(),
                scaled_costs(n),
                4000 + n as u64,
            );
            row.push(format!("{:.0}", rc.median_us));
            medians[ci].push(rc.median_us);
            report.push(
                BenchMetric::new(
                    format!("curve/{}/n{n}", curve.name),
                    n as u64,
                    "shootdown",
                    curve.kconfig.fanout.max(1) as u64,
                    rc.median_us,
                )
                .counter("multicast_rounds", rc.stats.multicast_rounds)
                .counter("initiators_batched", rc.stats.initiators_batched),
            );
        }
        t.add_row(row);
    }
    println!("{t}");
    let mut exponents = Vec::new();
    for (ci, curve) in curves.iter().enumerate() {
        let pts: Vec<(f64, f64)> = sizes
            .iter()
            .zip(&medians[ci])
            .map(|(&n, &us)| ((n as f64).ln(), us.ln()))
            .collect();
        let fit = linear_fit(&pts).expect("at least two machine sizes");
        println!("  {:<14} growth exponent {:.2}", curve.name, fit.slope);
        exponents.push(fit.slope);
    }
    let (unicast, batched) = (exponents[0], exponents[2]);
    assert!(
        batched < 0.5,
        "fanout+batching must be sub-linear on 256->1024: exponent {batched:.2}"
    );
    assert!(
        batched < unicast,
        "fanout+batching ({batched:.2}) must grow slower than unicast ({unicast:.2})"
    );
    println!(
        "  => fan-out + batching bends the curve: exponent {batched:.2} < 0.5 \
         (unicast grows at {unicast:.2})"
    );
    println!();
}

/// Host cost of the simulator itself on the lab round `scale1024` runs
/// (16 concurrent initiators, degree-8 fan-out, batching, 4 pmap shards,
/// seed 1), up to the largest supported machine: host seconds, executed
/// scheduler steps, and host nanoseconds per executed step. The scheduler
/// is indexed, so the cost per step should grow with log n, not n.
fn host_cost_per_step() {
    println!("simulator host cost per executed step (lab round, 16 initiators, seed 1):");
    let mut t = TextTable::new(vec![
        "processors",
        "host (s)",
        "executed steps",
        "ns per step",
    ]);
    for n in [256, 1024, 4096] {
        let kconfig = KernelConfig {
            fanout: 8,
            batch_initiators: true,
            pmap_shards: 4,
            ..KernelConfig::default()
        };
        let start = Instant::now();
        let rc = concurrent_round_cost(n, 16, kconfig, scaled_costs(n), 1);
        let host = start.elapsed().as_secs_f64();
        t.add_row(vec![
            n.to_string(),
            format!("{host:.3}"),
            rc.executed_steps.to_string(),
            format!("{:.0}", host * 1e9 / rc.executed_steps as f64),
        ]);
    }
    println!("{t}");
    println!();
}

fn main() {
    // MACHTLB_SMOKE: a seconds-scale subset for CI — the small machine
    // sizes only, skipping the 100-processor point and the pool studies.
    let smoke = std::env::var_os("MACHTLB_SMOKE").is_some();
    let mut report = BenchReport::new("sec8_scaling");

    println!("Section 8/11: basic shootdown cost on larger machines");
    println!("(scalable-interconnect assumption above 16 processors; see module docs)");
    println!();

    let paper_line = |k: f64| 430.0 + 55.0 * k;
    let mut t = TextTable::new(vec![
        "processors",
        "responders",
        "measured (us)",
        "paper line (us)",
    ]);
    let sizes: &[usize] = if smoke {
        &[16, 32]
    } else {
        &[16, 32, 64, 128, 256]
    };
    for &n in sizes {
        let k = (n - 1) as u32;
        let measured = basic_cost_us(n, k, 900 + n as u64);
        report.push(BenchMetric::new(
            format!("basic_cost/n{n}"),
            n as u64,
            "shootdown",
            1,
            measured,
        ));
        t.add_row(vec![
            n.to_string(),
            k.to_string(),
            format!("{measured:.0}"),
            format!("{:.0}", paper_line(f64::from(k))),
        ]);
    }
    println!("{t}");
    println!();

    // The new delivery machinery, in both modes: CI holds the 1024-way
    // point against the sub-linearity bar on every push.
    scaling_curves(&mut report, smoke);

    if smoke {
        println!("(smoke mode: 100-processor point and pool studies skipped)");
        let path = report.write().expect("bench report written");
        println!("wrote {}", path.display());
        return;
    }
    host_cost_per_step();

    println!("paper's extrapolation at 100 processors: ~6 ms (6000 us)");
    let at_100 = basic_cost_us(101, 100, 999);
    println!("measured at 100 responders:              {at_100:.0} us");
    println!();

    // The pool remedy, first as the bound (how much a pool-sized
    // shootdown costs on a big machine)...
    println!("pool restructuring (128-processor machine, cost bound):");
    let machine_wide = basic_cost_us(128, 127, 901);
    let pooled = basic_cost_us(128, 15, 902);
    println!("  machine-wide shootdown (127 responders): {machine_wide:.0} us");
    println!("  intra-pool shootdown   (15 responders):  {pooled:.0} us");
    println!(
        "  => pooling cuts the cost {:.1}x, keeping large machines viable",
        machine_wide / pooled
    );
    println!();

    // ...then as the real mechanism: kernel buffer activity against a
    // per-pool kernel region whose pmap is in use only on the pool's
    // processors, with EVERY processor of a 64-CPU machine busy.
    println!("pool restructuring as a mechanism (64 busy processors, 20 kernel buffer ops):");
    let (wide_us, wide_procs) = pooled_kernel_activity(false, 77);
    let (pool_us, pool_procs) = pooled_kernel_activity(true, 77);
    println!(
        "  machine-wide kernel region: {wide_us:>6.0} us/shootdown, {wide_procs:>4.1} processors shot"
    );
    println!(
        "  16-processor pool region:   {pool_us:>6.0} us/shootdown, {pool_procs:>4.1} processors shot"
    );
    println!(
        "  => the pool region confines every shootdown to the pool ({:.1}x cheaper),",
        wide_us / pool_us
    );
    println!("     exactly the restructuring Section 8 proposes for large machines.");
    report.push(
        BenchMetric::new("pool/machine_wide", 64, "shootdown", 1, wide_us)
            .counter("processors_shot", wide_procs.round() as u64),
    );
    report.push(
        BenchMetric::new("pool/pooled", 64, "shootdown", 1, pool_us)
            .counter("processors_shot", pool_procs.round() as u64),
    );
    let path = report.write().expect("bench report written");
    println!("wrote {}", path.display());
}
