//! Workload shared state: the system image plus per-application
//! coordination structures and per-processor run queues.

use std::collections::VecDeque;
use std::fmt;

use machtlb_core::{HasKernel, KernelState};
use machtlb_sim::{CpuId, Process, Time};
use machtlb_vm::{HasVm, SystemState, VmState};

use crate::agora::AgoraShared;
use crate::camelot::CamelotShared;
use crate::machbuild::MachBuildShared;
use crate::migrate::MigrateShared;
use crate::parthenon::ParthenonShared;
use crate::tester::TesterShared;

/// A workload thread: any process over the workload state.
pub type ThreadBox = Box<dyn Process<WlState, ()>>;

/// Application coordination state (exactly one variant per run).
#[derive(Debug, Default)]
pub enum AppShared {
    /// No application coordination (bring-up and unit tests).
    #[default]
    None,
    /// The Section 5.1 consistency tester.
    Tester(TesterShared),
    /// The parallel kernel build.
    MachBuild(MachBuildShared),
    /// The Parthenon theorem prover.
    Parthenon(ParthenonShared),
    /// The Agora shortest-path search.
    Agora(AgoraShared),
    /// The Camelot transaction system.
    Camelot(CamelotShared),
    /// The page-migration storm.
    Migrate(MigrateShared),
}

impl AppShared {
    /// The installed application's name in its [`AppReport`](crate::AppReport).
    pub fn name(&self) -> &'static str {
        match self {
            AppShared::None => "none",
            AppShared::Tester(_) => "tester",
            AppShared::MachBuild(_) => "Mach",
            AppShared::Parthenon(_) => "Parthenon",
            AppShared::Agora(_) => "Agora",
            AppShared::Camelot(_) => "Camelot",
            AppShared::Migrate(_) => "migration-storm",
        }
    }

    /// Whether the installed application is done: the condition
    /// [`run_app`](crate::run_app) runs the machine until. With no
    /// application installed it never is.
    pub fn is_done(&self) -> bool {
        match self {
            AppShared::Tester(t) => t.mismatch.is_some() && t.children_dead == t.children,
            AppShared::Migrate(m) => m.total_workers > 0 && m.workers_done == m.total_workers,
            _ => self.completed_at().is_some(),
        }
    }

    /// When the application recorded its own completion. The tester and
    /// the storm record none: their runtime is the machine's.
    pub fn completed_at(&self) -> Option<Time> {
        match self {
            AppShared::MachBuild(b) => b.completed_at,
            AppShared::Parthenon(p) => p.completed_at,
            AppShared::Agora(a) => a.completed_at,
            AppShared::Camelot(c) => c.completed_at,
            AppShared::None | AppShared::Tester(_) | AppShared::Migrate(_) => None,
        }
    }
}

macro_rules! app_accessors {
    ($get:ident, $get_mut:ident, $variant:ident, $ty:ty) => {
        /// Accesses the application state.
        ///
        /// # Panics
        ///
        /// Panics if a different application is installed.
        pub fn $get(&self) -> &$ty {
            match &self.app {
                AppShared::$variant(s) => s,
                other => panic!(
                    concat!("expected ", stringify!($variant), " state, found {:?}"),
                    std::mem::discriminant(other)
                ),
            }
        }

        /// Mutable access to the application state.
        ///
        /// # Panics
        ///
        /// Panics if a different application is installed.
        pub fn $get_mut(&mut self) -> &mut $ty {
            match &mut self.app {
                AppShared::$variant(s) => s,
                other => panic!(
                    concat!("expected ", stringify!($variant), " state, found {:?}"),
                    std::mem::discriminant(other)
                ),
            }
        }
    };
}

/// The machine's shared state for workload runs: system image, run queues,
/// and application coordination.
pub struct WlState {
    /// The kernel + VM image.
    pub sys: SystemState,
    /// Per-processor run queues of ready threads (only the owning
    /// processor pops; anyone may push).
    pub run_queues: Vec<VecDeque<ThreadBox>>,
    /// Application coordination.
    pub app: AppShared,
    /// A general-purpose completion latch for bespoke harnesses and tests
    /// (apps with structured state use their own `completed_at` instead).
    pub done_flag: bool,
    /// A general-purpose counter for bespoke harnesses and tests.
    pub scratch: u64,
}

impl WlState {
    /// Wraps a system state with empty run queues.
    pub fn new(sys: SystemState, app: AppShared) -> WlState {
        let n = sys.kernel.n_cpus;
        WlState {
            sys,
            run_queues: (0..n).map(|_| VecDeque::new()).collect(),
            app,
            done_flag: false,
            scratch: 0,
        }
    }

    /// Pushes a ready thread onto `cpu`'s run queue. The caller should
    /// also send a [`RESCHED_VECTOR`](machtlb_core::RESCHED_VECTOR) poke
    /// so an idle dispatcher wakes (see
    /// [`enqueue_thread`](crate::enqueue_thread)).
    pub fn push_thread(&mut self, cpu: CpuId, thread: ThreadBox) {
        self.run_queues[cpu.index()].push_back(thread);
    }

    /// Pops the next ready thread for `cpu`.
    pub fn pop_thread(&mut self, cpu: CpuId) -> Option<ThreadBox> {
        self.run_queues[cpu.index()].pop_front()
    }

    /// Ready threads queued for `cpu`.
    pub fn queue_len(&self, cpu: CpuId) -> usize {
        self.run_queues[cpu.index()].len()
    }

    app_accessors!(tester, tester_mut, Tester, TesterShared);
    app_accessors!(machbuild, machbuild_mut, MachBuild, MachBuildShared);
    app_accessors!(parthenon, parthenon_mut, Parthenon, ParthenonShared);
    app_accessors!(agora, agora_mut, Agora, AgoraShared);
    app_accessors!(camelot, camelot_mut, Camelot, CamelotShared);
    app_accessors!(migrate, migrate_mut, Migrate, MigrateShared);
}

impl HasKernel for WlState {
    fn kernel(&self) -> &KernelState {
        &self.sys.kernel
    }
    fn kernel_mut(&mut self) -> &mut KernelState {
        &mut self.sys.kernel
    }
}

impl HasVm for WlState {
    fn vm(&self) -> &VmState {
        &self.sys.vm
    }
    fn vm_mut(&mut self) -> &mut VmState {
        &mut self.sys.vm
    }
    fn kernel_and_vm(&mut self) -> (&mut KernelState, &mut VmState) {
        (&mut self.sys.kernel, &mut self.sys.vm)
    }
}

impl fmt::Debug for WlState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WlState")
            .field("sys", &self.sys)
            .field(
                "queued_threads",
                &self.run_queues.iter().map(VecDeque::len).sum::<usize>(),
            )
            .finish_non_exhaustive()
    }
}
