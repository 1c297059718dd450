//! The Section 5.1 consistency tester.
//!
//! "This program tries to cause a simple TLB inconsistency and then
//! attempts to detect its effects; if consistency is being maintained,
//! there will be no effects." A main thread allocates a read-write page,
//! starts `k` children that increment per-child counters in that page in
//! tight loops, reprotects the page read-only, immediately snapshots the
//! counters, and compares again later: any counter that advanced after the
//! reprotect reveals a stale TLB entry that kept permitting writes.
//!
//! The paper uses the same program as its Figure 2 measurement tool: with
//! `k < n` children it "causes exactly one shootdown on its user pmap
//! involving exactly k processors".

use machtlb_core::{drive, Driven, MemOp};
use machtlb_pmap::{PageRange, Prot, Vaddr, Vpn};
use machtlb_sim::{CpuId, Ctx, Dur, Process, Step};
use machtlb_vm::{
    TaskId, UserAccess, UserAccessResult, UserAccessStep, VmOp, VmOpProcess, USER_SPAN_START,
};
use machtlb_xpr::InitiatorRecord;

use crate::harness::{build_workload_machine, run_app, AppReport, RunConfig, WlMachine};
use crate::state::{AppShared, WlState};
use crate::thread::{enqueue_thread, ThreadShell};

/// Tester parameters.
#[derive(Clone, Debug)]
pub struct TesterConfig {
    /// Number of child threads (the paper varies 1..=15 on 16 processors).
    pub children: u32,
    /// Increments each child must reach before the main thread reprotects.
    pub warmup_increments: u64,
}

impl Default for TesterConfig {
    fn default() -> TesterConfig {
        TesterConfig {
            children: 4,
            warmup_increments: 50,
        }
    }
}

/// Tester coordination state.
#[derive(Debug, Default)]
pub struct TesterShared {
    /// The tester's task.
    pub task: Option<TaskId>,
    /// The counter page.
    pub page_vpn: u64,
    /// Snapshot taken immediately after the reprotect completed.
    pub counters_before: Vec<u64>,
    /// Snapshot taken after the dwell.
    pub counters_after: Vec<u64>,
    /// Whether any counter advanced after the reprotect (a detected
    /// inconsistency). `None` until the comparison ran.
    pub mismatch: Option<bool>,
    /// Children the tester forks.
    pub children: u32,
    /// Children that terminated on their unrecoverable write fault.
    pub children_dead: u32,
}

const COUNTER_PAGE: u64 = USER_SPAN_START + 0x100;

#[derive(Debug)]
enum MainPhase {
    Allocate,
    SpawnChildren { next: u32 },
    WaitWarm { child: u32 },
    Protect,
    SnapshotBefore { child: u32 },
    Dwell { chunks: u32 },
    SnapshotAfter { child: u32 },
    Conclude,
}

/// The tester's main thread.
#[derive(Debug)]
struct TesterMain {
    cfg: TesterConfig,
    task: TaskId,
    phase: MainPhase,
    op: Option<VmOpProcess>,
    access: Option<UserAccess>,
}

impl TesterMain {
    fn counter_va(&self, child: u32) -> Vaddr {
        Vaddr::new(COUNTER_PAGE * 4096 + u64::from(child) * 8)
    }

    fn read_counter(
        &mut self,
        ctx: &mut Ctx<'_, WlState, ()>,
        child: u32,
        on_value: impl FnOnce(&mut Self, &mut Ctx<'_, WlState, ()>, u64),
    ) -> Step {
        let va = self.counter_va(child);
        let acc = self
            .access
            .get_or_insert_with(|| UserAccess::new(self.task, va, MemOp::Read));
        match acc.step(ctx) {
            UserAccessStep::Yield(s) => s,
            UserAccessStep::Finished(UserAccessResult::Ok(v), d) => {
                self.access = None;
                on_value(self, ctx, v);
                Step::Run(d)
            }
            UserAccessStep::Finished(UserAccessResult::Killed, _) => {
                unreachable!("the main thread reads a page it can always read")
            }
        }
    }
}

impl Process<WlState, ()> for TesterMain {
    fn step(&mut self, ctx: &mut Ctx<'_, WlState, ()>) -> Step {
        match self.phase {
            MainPhase::Allocate => {
                let op = self.op.get_or_insert_with(|| {
                    VmOpProcess::new(VmOp::Allocate {
                        task: self.task,
                        pages: 1,
                        at: Some(Vpn::new(COUNTER_PAGE)),
                    })
                });
                match drive(op, ctx) {
                    Driven::Yield(s) => s,
                    Driven::Finished(d) => {
                        assert!(!op.failed(), "tester allocation failed");
                        self.op = None;
                        self.phase = MainPhase::SpawnChildren { next: 0 };
                        Step::Run(d)
                    }
                }
            }
            MainPhase::SpawnChildren { next } => {
                if next == self.cfg.children {
                    self.phase = MainPhase::WaitWarm { child: 0 };
                    return Step::Run(ctx.costs().local_op);
                }
                // Child i runs on processor i+1 (the main thread owns its
                // own processor).
                let target = CpuId::new(next + 1);
                let child = ThreadShell::new(
                    self.task,
                    TesterChild {
                        task: self.task,
                        word: next,
                        count: 0,
                        access: None,
                    },
                )
                .with_label("tester-child");
                let cost = enqueue_thread(ctx, target, Box::new(child));
                self.phase = MainPhase::SpawnChildren { next: next + 1 };
                Step::Run(cost)
            }
            MainPhase::WaitWarm { child } => {
                let target = self.cfg.warmup_increments;
                let n = self.cfg.children;
                self.read_counter(ctx, child, move |this, _ctx, v| {
                    if v >= target {
                        this.phase = if child + 1 == n {
                            MainPhase::Protect
                        } else {
                            MainPhase::WaitWarm { child: child + 1 }
                        };
                    }
                    // Below target: stay and re-read.
                })
            }
            MainPhase::Protect => {
                let op = self.op.get_or_insert_with(|| {
                    VmOpProcess::new(VmOp::Protect {
                        task: self.task,
                        range: PageRange::new(Vpn::new(COUNTER_PAGE), 1),
                        prot: Prot::READ,
                    })
                });
                match drive(op, ctx) {
                    Driven::Yield(s) => s,
                    Driven::Finished(d) => {
                        self.op = None;
                        self.phase = MainPhase::SnapshotBefore { child: 0 };
                        Step::Run(d)
                    }
                }
            }
            MainPhase::SnapshotBefore { child } => {
                let n = self.cfg.children;
                self.read_counter(ctx, child, move |this, ctx, v| {
                    ctx.shared.tester_mut().counters_before.push(v);
                    this.phase = if child + 1 == n {
                        MainPhase::Dwell { chunks: 80 }
                    } else {
                        MainPhase::SnapshotBefore { child: child + 1 }
                    };
                })
            }
            MainPhase::Dwell { chunks } => {
                if chunks == 0 {
                    self.phase = MainPhase::SnapshotAfter { child: 0 };
                    return Step::Run(ctx.costs().local_op);
                }
                self.phase = MainPhase::Dwell { chunks: chunks - 1 };
                Step::Run(Dur::micros(25))
            }
            MainPhase::SnapshotAfter { child } => {
                let n = self.cfg.children;
                self.read_counter(ctx, child, move |this, ctx, v| {
                    ctx.shared.tester_mut().counters_after.push(v);
                    this.phase = if child + 1 == n {
                        MainPhase::Conclude
                    } else {
                        MainPhase::SnapshotAfter { child: child + 1 }
                    };
                })
            }
            MainPhase::Conclude => {
                let t = ctx.shared.tester_mut();
                let mismatch = t.counters_before != t.counters_after;
                t.mismatch = Some(mismatch);
                Step::Done(ctx.costs().local_op * 4)
            }
        }
    }

    fn label(&self) -> &'static str {
        "tester-main"
    }
}

/// A child thread: a tight increment loop on its own counter word until
/// the write fault kills it.
#[derive(Debug)]
struct TesterChild {
    task: TaskId,
    word: u32,
    count: u64,
    access: Option<UserAccess>,
}

impl Process<WlState, ()> for TesterChild {
    fn step(&mut self, ctx: &mut Ctx<'_, WlState, ()>) -> Step {
        let va = Vaddr::new(COUNTER_PAGE * 4096 + u64::from(self.word) * 8);
        let next = self.count + 1;
        let acc = self
            .access
            .get_or_insert_with(|| UserAccess::new(self.task, va, MemOp::Write(next)));
        match acc.step(ctx) {
            UserAccessStep::Yield(s) => s,
            UserAccessStep::Finished(UserAccessResult::Ok(_), d) => {
                self.access = None;
                self.count = next;
                // Loop overhead of the increment on a ~2 MIPS processor:
                // load, add, compare, branch around the store.
                Step::Run(d + ctx.costs().local_op * 6)
            }
            UserAccessStep::Finished(UserAccessResult::Killed, d) => {
                self.access = None;
                ctx.shared.tester_mut().children_dead += 1;
                Step::Done(d)
            }
        }
    }

    fn label(&self) -> &'static str {
        "tester-child"
    }
}

/// Installs the tester into a freshly built workload machine.
///
/// # Panics
///
/// Panics if the machine has fewer than `children + 1` processors.
pub fn install_tester(m: &mut WlMachine, cfg: &TesterConfig) {
    assert!(
        m.n_cpus() > cfg.children as usize,
        "tester needs children + 1 processors ({} children on {} cpus)",
        cfg.children,
        m.n_cpus()
    );
    let s = m.shared_mut();
    let task = {
        use machtlb_vm::HasVm;
        let (k, vm) = s.kernel_and_vm();
        vm.create_task(k)
    };
    s.app = AppShared::Tester(TesterShared {
        task: Some(task),
        page_vpn: COUNTER_PAGE,
        children: cfg.children,
        ..TesterShared::default()
    });
    let main = ThreadShell::new(
        task,
        TesterMain {
            cfg: cfg.clone(),
            task,
            phase: MainPhase::Allocate,
            op: None,
            access: None,
        },
    )
    .with_label("tester-main");
    s.push_thread(CpuId::new(0), Box::new(main));
}

/// Outcome of one tester run.
#[derive(Clone, Debug)]
pub struct TesterOutcome {
    /// The full measurement report.
    pub report: AppReport,
    /// The single user-pmap shootdown the reprotect caused (absent when
    /// the strategy performs none, e.g. hardware remote invalidation).
    pub shootdown: Option<InitiatorRecord>,
    /// Whether the tester detected counters advancing after the reprotect.
    pub mismatch: bool,
    /// Children that died on the expected unrecoverable fault.
    pub children_dead: u32,
}

/// Runs the consistency tester once and returns its outcome.
///
/// # Panics
///
/// Panics if the run fails to quiesce within the configured limit.
pub fn run_tester(config: &RunConfig, tcfg: &TesterConfig) -> TesterOutcome {
    let mut m = build_workload_machine(config, AppShared::None);
    install_tester(&mut m, tcfg);
    let (report, status) = run_app(&mut m, config.limit);
    let t = m.shared().tester();
    let mismatch = t.mismatch.unwrap_or_else(|| {
        panic!(
            "tester did not conclude before {} (status {:?})",
            config.limit, status
        )
    });
    TesterOutcome {
        shootdown: report.user_initiators.first().copied(),
        mismatch,
        children_dead: t.children_dead,
        report,
    }
}
