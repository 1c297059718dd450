//! The parallel Mach kernel build.
//!
//! "The Mach kernel build uses multiple processors only for throughput; it
//! does not share memory among user tasks" (Section 5.2). Each compile job
//! is its own single-threaded task: it allocates a private working set,
//! computes, and performs kernel buffer cycles (file I/O), whose
//! deallocations are the build's — numerous — kernel-pmap shootdowns.
//! Roughly half the kernel cycles are metadata probes that never touch
//! their buffer, which is what lazy evaluation eliminates in Table 1.

use machtlb_core::{drive, Driven, MemOp};
use machtlb_pmap::{Vaddr, Vpn, PAGE_SIZE};
use machtlb_sim::{BlockOn, CpuId, Ctx, Dur, Process, Step, WaitChannel};
use machtlb_vm::{
    HasVm, TaskId, UserAccess, UserAccessResult, UserAccessStep, VmOp, VmOpProcess, USER_SPAN_START,
};
use rand::Rng;

use crate::harness::{build_workload_machine, run_app, AppReport, RunConfig, WlMachine};
use crate::kernelops::KernelBufferOp;
use crate::state::{AppShared, WlState};
use crate::thread::{enqueue_thread, ThreadShell};

/// Notified when a compile job retires (workload `0x5` key space; see
/// `machtlb_sim::event`'s channel registry).
const JOB_CHANNEL: WaitChannel = WaitChannel::new(0x5_0000_0003);

/// Build parameters.
#[derive(Clone, Debug)]
pub struct MachBuildConfig {
    /// Total compile jobs.
    pub jobs: u32,
    /// Compute chunks (50 µs each) per job phase, sampled uniformly.
    pub compute_chunks: (u32, u32),
    /// Kernel buffer cycles per job, sampled uniformly.
    pub kernel_ops_per_job: (u32, u32),
    /// Pages per kernel buffer, sampled uniformly.
    pub buffer_pages: (u64, u64),
    /// Percent of kernel cycles that actually touch their buffer (the
    /// rest are metadata probes lazy evaluation skips).
    pub touched_percent: u32,
    /// Private working-set pages per job.
    pub user_pages: u64,
}

impl Default for MachBuildConfig {
    fn default() -> MachBuildConfig {
        MachBuildConfig {
            jobs: 60,
            compute_chunks: (20, 120),
            kernel_ops_per_job: (6, 14),
            buffer_pages: (1, 4),
            touched_percent: 50,
            user_pages: 16,
        }
    }
}

/// Build coordination state.
#[derive(Debug, Default)]
pub struct MachBuildShared {
    /// Jobs not yet started.
    pub jobs_remaining: u32,
    /// Jobs currently running.
    pub jobs_running: u32,
    /// Jobs finished.
    pub jobs_done: u32,
    /// When the build finished.
    pub completed_at: Option<machtlb_sim::Time>,
}

#[derive(Debug)]
enum JobPhase {
    AllocateWs,
    Work,
    TouchWs,
    KernelOp(Box<KernelBufferOp>),
    Terminate,
}

/// One compile job: a single-threaded task.
#[derive(Debug)]
struct CompileJob {
    cfg: MachBuildConfig,
    task: TaskId,
    phase: JobPhase,
    op: Option<VmOpProcess>,
    access: Option<UserAccess>,
    ws_touched: u64,
    kernel_ops_left: u32,
    computing: u32,
}

const WS_BASE: u64 = USER_SPAN_START + 0x10;

impl Process<WlState, ()> for CompileJob {
    fn step(&mut self, ctx: &mut Ctx<'_, WlState, ()>) -> Step {
        match &mut self.phase {
            JobPhase::AllocateWs => {
                let task = self.task;
                let pages = self.cfg.user_pages;
                let op = self.op.get_or_insert_with(|| {
                    VmOpProcess::new(VmOp::Allocate {
                        task,
                        pages,
                        at: Some(Vpn::new(WS_BASE)),
                    })
                });
                match drive(op, ctx) {
                    Driven::Yield(s) => s,
                    Driven::Finished(d) => {
                        self.op = None;
                        let (lo, hi) = self.cfg.kernel_ops_per_job;
                        self.kernel_ops_left = ctx.rng().gen_range(lo..=hi);
                        self.phase = JobPhase::Work;
                        Step::Run(d)
                    }
                }
            }
            JobPhase::Work => {
                if self.computing > 0 {
                    self.computing -= 1;
                    return Step::Run(Dur::micros(50));
                }
                if self.kernel_ops_left == 0 {
                    self.phase = JobPhase::Terminate;
                    return Step::Run(ctx.costs().local_op);
                }
                self.kernel_ops_left -= 1;
                let (lo, hi) = self.cfg.compute_chunks;
                self.computing = ctx.rng().gen_range(lo..=hi);
                self.phase = JobPhase::TouchWs;
                Step::Run(ctx.costs().local_op)
            }
            JobPhase::TouchWs => {
                // Dirty one working-set page, then do the kernel cycle.
                let page = self.ws_touched % self.cfg.user_pages;
                self.ws_touched += 1;
                let va = Vaddr::new((WS_BASE + page) * PAGE_SIZE);
                let task = self.task;
                let acc = self
                    .access
                    .get_or_insert_with(|| UserAccess::new(task, va, MemOp::Write(7)));
                match acc.step(ctx) {
                    UserAccessStep::Yield(s) => s,
                    UserAccessStep::Finished(UserAccessResult::Ok(_), d) => {
                        self.access = None;
                        let (plo, phi) = self.cfg.buffer_pages;
                        let pages = ctx.rng().gen_range(plo..=phi);
                        let touched = ctx.rng().gen_range(0..100) < self.cfg.touched_percent;
                        let touch = if touched { pages } else { 0 };
                        self.phase =
                            JobPhase::KernelOp(Box::new(KernelBufferOp::new(pages, touch)));
                        Step::Run(d)
                    }
                    UserAccessStep::Finished(UserAccessResult::Killed, _) => {
                        unreachable!("the working set stays mapped for the job's lifetime")
                    }
                }
            }
            JobPhase::KernelOp(op) => match drive(op.as_mut(), ctx) {
                Driven::Yield(s) => s,
                Driven::Finished(d) => {
                    self.phase = JobPhase::Work;
                    Step::Run(d)
                }
            },
            JobPhase::Terminate => {
                let task = self.task;
                let op = self
                    .op
                    .get_or_insert_with(|| VmOpProcess::new(VmOp::Terminate { task }));
                match drive(op, ctx) {
                    Driven::Yield(s) => s,
                    Driven::Finished(d) => {
                        self.op = None;
                        let b = ctx.shared.machbuild_mut();
                        b.jobs_running -= 1;
                        b.jobs_done += 1;
                        ctx.notify(JOB_CHANNEL);
                        Step::Done(d)
                    }
                }
            }
        }
    }

    fn label(&self) -> &'static str {
        "compile-job"
    }
}

#[derive(Debug)]
enum CoordPhase {
    Dispatch,
    Wait,
}

/// The `make` coordinator: keeps one job per processor in flight.
#[derive(Debug)]
struct BuildCoordinator {
    cfg: MachBuildConfig,
    phase: CoordPhase,
    next_cpu: u32,
}

impl Process<WlState, ()> for BuildCoordinator {
    fn step(&mut self, ctx: &mut Ctx<'_, WlState, ()>) -> Step {
        match self.phase {
            CoordPhase::Dispatch => {
                let n_cpus = ctx.n_cpus() as u32;
                let b = ctx.shared.machbuild();
                if b.jobs_remaining == 0 {
                    self.phase = CoordPhase::Wait;
                    return Step::Run(ctx.costs().local_op);
                }
                if b.jobs_running >= n_cpus - 1 {
                    // All worker processors busy: poll until one retires.
                    return Step::Block(BlockOn::one(JOB_CHANNEL, Dur::micros(200)));
                }
                {
                    let b = ctx.shared.machbuild_mut();
                    b.jobs_remaining -= 1;
                    b.jobs_running += 1;
                }
                let task = {
                    let (k, vm) = ctx.shared.kernel_and_vm();
                    vm.create_task(k)
                };
                let job = ThreadShell::new(
                    task,
                    CompileJob {
                        cfg: self.cfg.clone(),
                        task,
                        phase: JobPhase::AllocateWs,
                        op: None,
                        access: None,
                        ws_touched: 0,
                        kernel_ops_left: 0,
                        computing: 0,
                    },
                )
                .with_label("compile-job");
                // Round-robin over the worker processors 1..n.
                let target = CpuId::new(1 + (self.next_cpu % (n_cpus - 1)));
                self.next_cpu += 1;
                let cost = enqueue_thread(ctx, target, Box::new(job));
                Step::Run(cost + ctx.costs().local_op * 8)
            }
            CoordPhase::Wait => {
                let now = ctx.now;
                let b = ctx.shared.machbuild_mut();
                if b.jobs_done == self.cfg.jobs {
                    b.completed_at = Some(now);
                    Step::Done(ctx.costs().local_op)
                } else {
                    Step::Block(BlockOn::one(JOB_CHANNEL, Dur::micros(500)))
                }
            }
        }
    }

    fn label(&self) -> &'static str {
        "build-coordinator"
    }
}

/// Installs the build into a fresh workload machine.
pub fn install_machbuild(m: &mut WlMachine, cfg: &MachBuildConfig) {
    let s = m.shared_mut();
    s.app = AppShared::MachBuild(MachBuildShared {
        jobs_remaining: cfg.jobs,
        ..MachBuildShared::default()
    });
    let coord = ThreadShell::new(
        TaskId::KERNEL,
        BuildCoordinator {
            cfg: cfg.clone(),
            phase: CoordPhase::Dispatch,
            next_cpu: 0,
        },
    )
    .with_label("build-coordinator");
    s.push_thread(CpuId::new(0), Box::new(coord));
}

/// Runs the build and returns its report.
///
/// # Panics
///
/// Panics if the build does not finish within the configured limit.
pub fn run_machbuild(config: &RunConfig, cfg: &MachBuildConfig) -> AppReport {
    let mut m = build_workload_machine(config, AppShared::None);
    install_machbuild(&mut m, cfg);
    let (report, status) = run_app(&mut m, config.limit);
    assert_eq!(
        m.shared().machbuild().jobs_done,
        cfg.jobs,
        "build did not finish before {} (status {:?})",
        config.limit,
        status
    );
    report
}
