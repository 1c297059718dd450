//! The Agora shortest-path search.
//!
//! A "double ended wavefront-based shortest path search program based on
//! the Agora system" using "shared write-once memory for communication
//! among the tasks performing the search", run 15-way parallel
//! (Section 5.2). Its shootdown signature is bimodal (Section 7.3): large
//! kernel shootdowns (11–15 processors) while the setup phase allocates
//! memory with every worker already spinning, then only small ones (1–4
//! processors) between search runs once "it has allocated the memory
//! internally".

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

/// Search parameters.
#[derive(Clone, Debug)]
pub struct AgoraConfig {
    /// Worker tasks (the 15-way parallel search).
    pub workers: u32,
    /// Successive search runs over the same allocated memory.
    pub runs: u32,
    /// Kernel allocations during setup (each a touched multi-page buffer).
    pub setup_ops: u32,
    /// Pages per setup buffer, sampled uniformly.
    pub setup_buffer_pages: (u64, u64),
    /// Small kernel cycles between runs.
    pub inter_run_ops: u32,
    /// Wavefront steps per worker per run.
    pub wave_steps: u32,
    /// Compute chunks (50 µs) per wavefront step, sampled uniformly.
    pub compute_chunks: (u32, u32),
    /// Write-once region pages per worker.
    pub region_pages: u64,
}

impl Default for AgoraConfig {
    fn default() -> AgoraConfig {
        AgoraConfig {
            workers: 15,
            runs: 5,
            setup_ops: 16,
            setup_buffer_pages: (4, 12),
            inter_run_ops: 2,
            wave_steps: 24,
            compute_chunks: (4, 20),
            region_pages: 8,
        }
    }
}

/// Search coordination state.
#[derive(Debug, Default)]
pub struct AgoraShared {
    /// One task per worker.
    pub tasks: Vec<TaskId>,
    /// Set when setup-phase allocation is complete.
    pub setup_done: bool,
    /// Workers still running the current search.
    pub workers_alive: u32,
    /// Completed runs.
    pub runs_done: u32,
    /// When the search finished all runs.
    pub completed_at: Option<machtlb_sim::Time>,
}

const REGION_BASE: u64 = USER_SPAN_START + 0x40;

/// Notified when the master sets [`AgoraShared::setup_done`] (workload
/// `0x5` key space; see `machtlb_sim::event`'s channel registry).
const SETUP_CHANNEL: WaitChannel = WaitChannel::new(0x5_0000_0000);
/// Notified when the last worker of a run exits.
const RUN_CHANNEL: WaitChannel = WaitChannel::new(0x5_0000_0001);

#[derive(Debug)]
enum WPhase {
    SpinSetup,
    Step { left: u32, computing: u32 },
    WriteCell { left: u32, cell: u64 },
}

/// One search worker: spins until setup completes, then runs its
/// wavefront steps, writing its write-once cells.
#[derive(Debug)]
struct Worker {
    cfg: AgoraConfig,
    task: TaskId,
    phase: WPhase,
    access: Option<UserAccess>,
    cells_written: u64,
}

impl Process<WlState, ()> for Worker {
    fn step(&mut self, ctx: &mut Ctx<'_, WlState, ()>) -> Step {
        match &mut self.phase {
            WPhase::SpinSetup => {
                let spin = ctx.costs().spin_check();
                if !ctx.shared.agora().setup_done {
                    // Busy-polling: this worker stays active and is exactly
                    // what the setup-phase shootdowns hit.
                    return Step::Block(BlockOn::one(SETUP_CHANNEL, spin));
                }
                self.phase = WPhase::Step {
                    left: self.cfg.wave_steps,
                    computing: 0,
                };
                Step::Run(spin)
            }
            WPhase::Step { left, computing } => {
                if *computing > 0 {
                    *computing -= 1;
                    return Step::Run(Dur::micros(50));
                }
                if *left == 0 {
                    ctx.shared.agora_mut().workers_alive -= 1;
                    if ctx.shared.agora().workers_alive == 0 {
                        ctx.notify(RUN_CHANNEL);
                    }
                    return Step::Done(ctx.costs().local_op);
                }
                let left_now = *left - 1;
                let cell = self.cells_written % (self.cfg.region_pages * 8);
                self.cells_written += 1;
                self.phase = WPhase::WriteCell {
                    left: left_now,
                    cell,
                };
                Step::Run(ctx.costs().local_op)
            }
            WPhase::WriteCell { left, cell } => {
                let left = *left;
                let va = Vaddr::new(REGION_BASE * PAGE_SIZE + *cell * 512);
                let task = self.task;
                let acc = self
                    .access
                    .get_or_insert_with(|| UserAccess::new(task, va, MemOp::Write(1)));
                match acc.step(ctx) {
                    UserAccessStep::Yield(s) => s,
                    UserAccessStep::Finished(UserAccessResult::Ok(_), d) => {
                        self.access = None;
                        let (lo, hi) = self.cfg.compute_chunks;
                        let chunks = ctx.rng().gen_range(lo..=hi);
                        self.phase = WPhase::Step {
                            left,
                            computing: chunks,
                        };
                        Step::Run(d)
                    }
                    UserAccessStep::Finished(UserAccessResult::Killed, _) => {
                        unreachable!("the write-once region stays mapped")
                    }
                }
            }
        }
    }

    fn label(&self) -> &'static str {
        "agora-worker"
    }
}

#[derive(Debug)]
enum CPhase {
    CreateTasks {
        next: u32,
    },
    AllocRegions {
        next: u32,
    },
    SpawnSpinners {
        next: u32,
    },
    Setup {
        op: u32,
        current: Option<KernelBufferOp>,
    },
    FinishSetup,
    WaitRun,
    InterRun {
        op: u32,
        current: Option<KernelBufferOp>,
    },
    Respawn {
        next: u32,
    },
}

/// The search master: allocates everything (causing the setup-phase
/// shootdowns against the spinning workers), then drives the repeated
/// searches.
#[derive(Debug)]
struct Master {
    cfg: AgoraConfig,
    phase: CPhase,
    op: Option<VmOpProcess>,
}

impl Process<WlState, ()> for Master {
    fn step(&mut self, ctx: &mut Ctx<'_, WlState, ()>) -> Step {
        match &mut self.phase {
            CPhase::CreateTasks { next } => {
                if *next == self.cfg.workers {
                    self.phase = CPhase::AllocRegions { next: 0 };
                    return Step::Run(ctx.costs().local_op);
                }
                let task = {
                    let (k, vm) = ctx.shared.kernel_and_vm();
                    vm.create_task(k)
                };
                ctx.shared.agora_mut().tasks.push(task);
                *next += 1;
                Step::Run(ctx.costs().local_op * 16)
            }
            CPhase::AllocRegions { next } => {
                if *next == self.cfg.workers {
                    self.phase = CPhase::SpawnSpinners { next: 0 };
                    return Step::Run(ctx.costs().local_op);
                }
                let idx = *next as usize;
                let task = ctx.shared.agora().tasks[idx];
                let pages = self.cfg.region_pages;
                let op = self.op.get_or_insert_with(|| {
                    VmOpProcess::new(VmOp::Allocate {
                        task,
                        pages,
                        at: Some(Vpn::new(REGION_BASE)),
                    })
                });
                match drive(op, ctx) {
                    Driven::Yield(s) => s,
                    Driven::Finished(d) => {
                        self.op = None;
                        self.phase = CPhase::AllocRegions { next: *next + 1 };
                        Step::Run(d)
                    }
                }
            }
            CPhase::SpawnSpinners { next } => {
                if *next == self.cfg.workers {
                    ctx.shared.agora_mut().workers_alive = self.cfg.workers;
                    self.phase = CPhase::Setup {
                        op: 0,
                        current: None,
                    };
                    return Step::Run(ctx.costs().local_op);
                }
                let idx = *next as usize;
                let task = ctx.shared.agora().tasks[idx];
                let n_cpus = ctx.n_cpus() as u32;
                let target = CpuId::new(1 + (*next % (n_cpus - 1)));
                let body = Worker {
                    cfg: self.cfg.clone(),
                    task,
                    phase: WPhase::SpinSetup,
                    access: None,
                    cells_written: 0,
                };
                let cost = enqueue_thread(
                    ctx,
                    target,
                    Box::new(ThreadShell::new(task, body).with_label("agora-worker")),
                );
                self.phase = CPhase::SpawnSpinners { next: *next + 1 };
                Step::Run(cost)
            }
            CPhase::Setup { op, current } => {
                if let Some(k) = current.as_mut() {
                    return match drive(k, ctx) {
                        Driven::Yield(s) => s,
                        Driven::Finished(d) => {
                            *current = None;
                            Step::Run(d)
                        }
                    };
                }
                if *op == self.cfg.setup_ops {
                    self.phase = CPhase::FinishSetup;
                    return Step::Run(ctx.costs().local_op);
                }
                let (lo, hi) = self.cfg.setup_buffer_pages;
                let pages = ctx.rng().gen_range(lo..=hi);
                *current = Some(KernelBufferOp::new(pages, pages));
                *op += 1;
                Step::Run(ctx.costs().local_op)
            }
            CPhase::FinishSetup => {
                ctx.shared.agora_mut().setup_done = true;
                ctx.notify(SETUP_CHANNEL);
                self.phase = CPhase::WaitRun;
                Step::Run(ctx.costs().local_op + ctx.bus_write())
            }
            CPhase::WaitRun => {
                if ctx.shared.agora().workers_alive == 0 {
                    let now = ctx.now;
                    ctx.shared.agora_mut().runs_done += 1;
                    if ctx.shared.agora().runs_done == self.cfg.runs {
                        ctx.shared.agora_mut().completed_at = Some(now);
                        return Step::Done(ctx.costs().local_op);
                    }
                    self.phase = CPhase::InterRun {
                        op: 0,
                        current: None,
                    };
                    Step::Run(ctx.costs().local_op)
                } else {
                    Step::Block(BlockOn::one(RUN_CHANNEL, Dur::micros(300)))
                }
            }
            CPhase::InterRun { op, current } => {
                // Between runs, only the master (and at most a straggling
                // dispatcher) is active: these small touched buffers are
                // the 1–4 processor shootdowns of the bimodal split.
                if let Some(k) = current.as_mut() {
                    return match drive(k, ctx) {
                        Driven::Yield(s) => s,
                        Driven::Finished(d) => {
                            *current = None;
                            Step::Run(d)
                        }
                    };
                }
                if *op == self.cfg.inter_run_ops {
                    self.phase = CPhase::Respawn { next: 0 };
                    return Step::Run(ctx.costs().local_op);
                }
                *current = Some(KernelBufferOp::new(1, 1));
                *op += 1;
                Step::Run(ctx.costs().local_op)
            }
            CPhase::Respawn { next } => {
                if *next == self.cfg.workers {
                    ctx.shared.agora_mut().workers_alive = self.cfg.workers;
                    self.phase = CPhase::WaitRun;
                    return Step::Run(ctx.costs().local_op);
                }
                let idx = *next as usize;
                let task = ctx.shared.agora().tasks[idx];
                let n_cpus = ctx.n_cpus() as u32;
                let target = CpuId::new(1 + (*next % (n_cpus - 1)));
                // Memory already allocated: workers go straight to their
                // wavefront steps.
                let body = Worker {
                    cfg: self.cfg.clone(),
                    task,
                    phase: WPhase::Step {
                        left: self.cfg.wave_steps,
                        computing: 0,
                    },
                    access: None,
                    cells_written: 0,
                };
                let cost = enqueue_thread(
                    ctx,
                    target,
                    Box::new(ThreadShell::new(task, body).with_label("agora-worker")),
                );
                self.phase = CPhase::Respawn { next: *next + 1 };
                Step::Run(cost)
            }
        }
    }

    fn label(&self) -> &'static str {
        "agora-master"
    }
}

/// Installs the search into a fresh workload machine.
pub fn install_agora(m: &mut WlMachine, cfg: &AgoraConfig) {
    let s = m.shared_mut();
    s.app = AppShared::Agora(AgoraShared::default());
    let master = ThreadShell::new(
        TaskId::KERNEL,
        Master {
            cfg: cfg.clone(),
            phase: CPhase::CreateTasks { next: 0 },
            op: None,
        },
    )
    .with_label("agora-master");
    s.push_thread(CpuId::new(0), Box::new(master));
}

/// Runs the search and returns its report.
///
/// # Panics
///
/// Panics if the run does not complete within the configured limit.
pub fn run_agora(config: &RunConfig, cfg: &AgoraConfig) -> AppReport {
    let mut m = build_workload_machine(config, AppShared::None);
    install_agora(&mut m, cfg);
    let (report, status) = run_app(&mut m, config.limit);
    assert_eq!(
        m.shared().agora().runs_done,
        cfg.runs,
        "agora did not finish before {} (status {:?})",
        config.limit,
        status
    );
    report
}
