//! The Parthenon parallel theorem prover.
//!
//! "Parthenon allocates memory as needed to hold the intermediate results
//! of the proof search" (Section 5.2): worker threads pull possibilities
//! from a central workpile, add new ones as they are generated, and stop
//! when one path finds the proof — the "essentially non-deterministic
//! control structure" that makes Parthenon the paper's perturbation probe
//! (Section 6.1). Its shootdown signature: the cthreads stack-guard
//! reprotection at thread startup (a user shootdown **only** without lazy
//! evaluation, because the guard page is never touched — Section 7.2's
//! "average four-fifths of a millisecond from the startup time for new
//! threads"), plus a trickle of mostly-untouched kernel buffers.

use machtlb_core::drive;
use machtlb_core::Driven;
use machtlb_pmap::{PageRange, Prot, Vpn};
use machtlb_sim::{BlockOn, CpuId, Ctx, Dur, Process, Step, WaitChannel};
use machtlb_vm::{HasVm, TaskId, VmOp, VmOpProcess, USER_SPAN_START};
use rand::Rng;

use crate::harness::{build_workload_machine, run_app, AppReport, RunConfig, WlMachine};
use crate::kernelops::KernelBufferOp;
use crate::state::{AppShared, WlState};
use crate::thread::{enqueue_thread, ThreadShell};

/// Notified when the last worker of a run exits (workload `0x5` key space;
/// see `machtlb_sim::event`'s channel registry).
const RUN_CHANNEL: WaitChannel = WaitChannel::new(0x5_0000_0002);

/// Prover parameters.
#[derive(Clone, Debug)]
pub struct ParthenonConfig {
    /// Worker threads ("running 15-way parallel").
    pub workers: u32,
    /// Successive executions ("run five times in succession to increase
    /// the number of shootdown events").
    pub runs: u32,
    /// Initial workpile size per run.
    pub initial_items: u32,
    /// Maximum search depth.
    pub max_depth: u32,
    /// Children generated per expanded item, sampled uniformly.
    pub branch: (u32, u32),
    /// Compute chunks (50 µs) per item, sampled uniformly.
    pub compute_chunks: (u32, u32),
    /// Per-mille chance an expanded item is the proof (ends the run).
    pub proof_per_mille: u32,
    /// Allocate intermediate-result memory every this many items.
    pub alloc_every: u32,
    /// Perform a kernel buffer cycle every this many items.
    pub kernel_op_every: u32,
    /// Per-cent chance a kernel buffer is actually touched.
    pub kernel_touched_percent: u32,
    /// Pages per worker stack region (guard page at its second page).
    pub stack_pages: u64,
    /// Compute chunks (50 µs) the main thread spends between creating
    /// successive workers (application startup work; it lets earlier
    /// workers attach before the next stack-guard reprotection).
    pub spawn_gap_chunks: u32,
}

impl Default for ParthenonConfig {
    fn default() -> ParthenonConfig {
        ParthenonConfig {
            workers: 15,
            runs: 5,
            initial_items: 70,
            max_depth: 5,
            branch: (0, 3),
            compute_chunks: (4, 40),
            proof_per_mille: 2,
            alloc_every: 7,
            kernel_op_every: 12,
            kernel_touched_percent: 3,
            stack_pages: 32,
            spawn_gap_chunks: 60,
        }
    }
}

/// Prover coordination state.
#[derive(Debug, Default)]
pub struct ParthenonShared {
    /// The run's task.
    pub task: Option<TaskId>,
    /// The central workpile: item depths.
    pub workpile: Vec<u32>,
    /// Items popped but not yet expanded.
    pub outstanding: u32,
    /// Set when the proof is found (or the pile is exhausted): workers
    /// drain and exit.
    pub run_over: bool,
    /// Workers that have not exited this run.
    pub workers_alive: u32,
    /// Completed runs.
    pub runs_done: u32,
    /// Items expanded in total (across runs).
    pub items_expanded: u64,
    /// When the prover finished all runs.
    pub completed_at: Option<machtlb_sim::Time>,
}

const STACK_REGION_BASE: u64 = USER_SPAN_START + 0x1000;
const RESULT_BASE: u64 = USER_SPAN_START + 0x8000;

#[derive(Debug)]
enum WPhase {
    Pop,
    Compute { chunks: u32 },
    PushChildren { depth: u32 },
    Alloc(Box<VmOpProcess>),
    KernelOp(Box<KernelBufferOp>),
}

/// A prover worker.
#[derive(Debug)]
struct Worker {
    cfg: ParthenonConfig,
    task: TaskId,
    id: u32,
    phase: WPhase,
    items: u32,
    alloc_cursor: u64,
    /// Depth of the item being expanded (set at pop).
    pending_depth: u32,
}

impl Process<WlState, ()> for Worker {
    fn step(&mut self, ctx: &mut Ctx<'_, WlState, ()>) -> Step {
        match &mut self.phase {
            WPhase::Pop => {
                let p = ctx.shared.parthenon_mut();
                if p.run_over {
                    p.workers_alive -= 1;
                    if p.workers_alive == 0 {
                        ctx.notify(RUN_CHANNEL);
                    }
                    return Step::Done(ctx.costs().local_op);
                }
                match p.workpile.pop() {
                    Some(depth) => {
                        p.outstanding += 1;
                        p.items_expanded += 1;
                        let (lo, hi) = self.cfg.compute_chunks;
                        let chunks = ctx.rng().gen_range(lo..=hi);
                        self.items += 1;
                        self.phase = WPhase::Compute { chunks };
                        // Stash the depth in the next phase transition.
                        self.pending_depth = depth;
                        Step::Run(ctx.costs().local_op * 4 + ctx.costs().cache_read)
                    }
                    None => {
                        if p.outstanding == 0 {
                            // Exhausted without a proof: the run ends.
                            p.run_over = true;
                        }
                        Step::Run(Dur::micros(100))
                    }
                }
            }
            WPhase::Compute { chunks } => {
                if *chunks > 0 {
                    *chunks -= 1;
                    return Step::Run(Dur::micros(50));
                }
                let depth = self.pending_depth;
                self.phase = WPhase::PushChildren { depth };
                Step::Run(ctx.costs().local_op)
            }
            WPhase::PushChildren { depth } => {
                let depth = *depth;
                let proof = ctx.rng().gen_range(0..1000) < self.cfg.proof_per_mille;
                let (blo, bhi) = self.cfg.branch;
                let kids = if depth + 1 < self.cfg.max_depth {
                    ctx.rng().gen_range(blo..=bhi)
                } else {
                    0
                };
                {
                    let p = ctx.shared.parthenon_mut();
                    p.outstanding -= 1;
                    if proof {
                        p.run_over = true;
                    } else {
                        for _ in 0..kids {
                            p.workpile.push(depth + 1);
                        }
                    }
                }
                // Occasional allocations and kernel activity.
                if self.items.is_multiple_of(self.cfg.alloc_every) {
                    let at = RESULT_BASE + u64::from(self.id) * 0x400 + self.alloc_cursor * 2;
                    self.alloc_cursor += 1;
                    self.phase = WPhase::Alloc(Box::new(VmOpProcess::new(VmOp::Allocate {
                        task: self.task,
                        pages: 2,
                        at: Some(Vpn::new(at)),
                    })));
                } else if self.items.is_multiple_of(self.cfg.kernel_op_every) {
                    let touched = ctx.rng().gen_range(0..100) < self.cfg.kernel_touched_percent;
                    self.phase =
                        WPhase::KernelOp(Box::new(KernelBufferOp::new(1, u64::from(touched))));
                } else {
                    self.phase = WPhase::Pop;
                }
                Step::Run(ctx.costs().local_op * 4)
            }
            WPhase::Alloc(op) => match drive(op.as_mut(), ctx) {
                Driven::Yield(s) => s,
                Driven::Finished(d) => {
                    self.phase = WPhase::Pop;
                    Step::Run(d)
                }
            },
            WPhase::KernelOp(op) => match drive(op.as_mut(), ctx) {
                Driven::Yield(s) => s,
                Driven::Finished(d) => {
                    self.phase = WPhase::Pop;
                    Step::Run(d)
                }
            },
        }
    }

    fn label(&self) -> &'static str {
        "parthenon-worker"
    }
}

#[derive(Debug)]
enum CPhase {
    StartRun,
    SetupWorker { worker: u32, stage: u8 },
    WaitRun,
    TerminateTask,
    NextRun,
}

/// The prover's main thread: creates the task, sets up worker stacks (the
/// cthreads guard-page reprotection), spawns workers, and repeats for each
/// run.
#[derive(Debug)]
struct ProverMain {
    cfg: ParthenonConfig,
    phase: CPhase,
    op: Option<VmOpProcess>,
    run_task: Option<TaskId>,
    gap_left: u32,
}

impl Process<WlState, ()> for ProverMain {
    fn step(&mut self, ctx: &mut Ctx<'_, WlState, ()>) -> Step {
        match self.phase {
            CPhase::StartRun => {
                let task = {
                    let (k, vm) = ctx.shared.kernel_and_vm();
                    vm.create_task(k)
                };
                self.run_task = Some(task);
                let p = ctx.shared.parthenon_mut();
                p.task = Some(task);
                p.workpile = vec![0; self.cfg.initial_items as usize];
                p.outstanding = 0;
                p.run_over = false;
                p.workers_alive = self.cfg.workers;
                self.phase = CPhase::SetupWorker {
                    worker: 0,
                    stage: 0,
                };
                Step::Run(ctx.costs().local_op * 16)
            }
            CPhase::SetupWorker { worker, stage } => {
                if worker == self.cfg.workers {
                    self.phase = CPhase::WaitRun;
                    return Step::Run(ctx.costs().local_op);
                }
                let task = self.run_task.expect("run started");
                let stack_base =
                    Vpn::new(STACK_REGION_BASE + u64::from(worker) * self.cfg.stack_pages);
                match stage {
                    // cthreads stack setup: allocate a large aligned
                    // region...
                    0 => {
                        let pages = self.cfg.stack_pages;
                        let op = self.op.get_or_insert_with(|| {
                            VmOpProcess::new(VmOp::Allocate {
                                task,
                                pages,
                                at: Some(stack_base),
                            })
                        });
                        match drive(op, ctx) {
                            Driven::Yield(s) => s,
                            Driven::Finished(d) => {
                                self.op = None;
                                self.phase = CPhase::SetupWorker { worker, stage: 1 };
                                Step::Run(d)
                            }
                        }
                    }
                    // ...and reprotect the second page to no access to
                    // detect stack overflows. The page has never been
                    // touched: lazy evaluation skips the shootdown.
                    1 => {
                        let op = self.op.get_or_insert_with(|| {
                            VmOpProcess::new(VmOp::Protect {
                                task,
                                range: PageRange::new(stack_base.offset(1), 1),
                                prot: Prot::NONE,
                            })
                        });
                        match drive(op, ctx) {
                            Driven::Yield(s) => s,
                            Driven::Finished(d) => {
                                self.op = None;
                                self.phase = CPhase::SetupWorker { worker, stage: 2 };
                                Step::Run(d)
                            }
                        }
                    }
                    2 => {
                        let n_cpus = ctx.n_cpus() as u32;
                        let body = Worker {
                            cfg: self.cfg.clone(),
                            task,
                            id: worker,
                            phase: WPhase::Pop,
                            items: 0,
                            alloc_cursor: 0,
                            pending_depth: 0,
                        };
                        let target = CpuId::new(1 + (worker % (n_cpus - 1)));
                        let cost = enqueue_thread(
                            ctx,
                            target,
                            Box::new(ThreadShell::new(task, body).with_label("parthenon-worker")),
                        );
                        self.gap_left = self.cfg.spawn_gap_chunks;
                        self.phase = CPhase::SetupWorker { worker, stage: 3 };
                        Step::Run(cost)
                    }
                    // Startup work between thread creations: earlier
                    // workers get scheduled and attach the task's pmap.
                    _ => {
                        if self.gap_left > 0 {
                            self.gap_left -= 1;
                            return Step::Run(Dur::micros(50));
                        }
                        self.phase = CPhase::SetupWorker {
                            worker: worker + 1,
                            stage: 0,
                        };
                        Step::Run(ctx.costs().local_op)
                    }
                }
            }
            CPhase::WaitRun => {
                if ctx.shared.parthenon().workers_alive == 0 {
                    self.phase = CPhase::TerminateTask;
                    Step::Run(ctx.costs().local_op)
                } else {
                    Step::Block(BlockOn::one(RUN_CHANNEL, Dur::micros(300)))
                }
            }
            CPhase::TerminateTask => {
                let task = self.run_task.expect("run started");
                let op = self
                    .op
                    .get_or_insert_with(|| VmOpProcess::new(VmOp::Terminate { task }));
                match drive(op, ctx) {
                    Driven::Yield(s) => s,
                    Driven::Finished(d) => {
                        self.op = None;
                        self.phase = CPhase::NextRun;
                        Step::Run(d)
                    }
                }
            }
            CPhase::NextRun => {
                let now = ctx.now;
                let p = ctx.shared.parthenon_mut();
                p.runs_done += 1;
                if p.runs_done == self.cfg.runs {
                    p.completed_at = Some(now);
                    Step::Done(ctx.costs().local_op)
                } else {
                    self.phase = CPhase::StartRun;
                    Step::Run(ctx.costs().local_op)
                }
            }
        }
    }

    fn label(&self) -> &'static str {
        "parthenon-main"
    }
}

/// Installs the prover into a fresh workload machine.
pub fn install_parthenon(m: &mut WlMachine, cfg: &ParthenonConfig) {
    let s = m.shared_mut();
    s.app = AppShared::Parthenon(ParthenonShared::default());
    let main = ThreadShell::new(
        TaskId::KERNEL,
        ProverMain {
            cfg: cfg.clone(),
            phase: CPhase::StartRun,
            op: None,
            run_task: None,
            gap_left: 0,
        },
    )
    .with_label("parthenon-main");
    s.push_thread(CpuId::new(0), Box::new(main));
}

/// Runs the prover and returns its report.
///
/// # Panics
///
/// Panics if the run does not complete within the configured limit.
pub fn run_parthenon(config: &RunConfig, cfg: &ParthenonConfig) -> AppReport {
    let mut m = build_workload_machine(config, AppShared::None);
    install_parthenon(&mut m, cfg);
    let (report, status) = run_app(&mut m, config.limit);
    assert_eq!(
        m.shared().parthenon().runs_done,
        cfg.runs,
        "parthenon did not finish before {} (status {:?})",
        config.limit,
        status
    );
    report
}
