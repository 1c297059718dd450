//! The system's shared state: kernel image plus VM structures.

use std::fmt;

use machtlb_core::{install_kernel_handlers, HasKernel, KernelConfig, KernelState};
use machtlb_pmap::PmapId;
use machtlb_sim::{CostModel, Machine, MachineConfig};

use crate::object::ObjectTable;
use crate::task::{Task, TaskId};

/// Cumulative VM-layer counters.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct VmStats {
    /// Faults resolved successfully.
    pub faults_resolved: u64,
    /// Copy-on-write page copies performed.
    pub cow_copies: u64,
    /// Zero-fill pages materialised.
    pub zero_fills: u64,
    /// Unrecoverable faults (no mapping permits the access).
    pub unrecoverable: u64,
    /// VM operations executed.
    pub vm_ops: u64,
}

/// The machine-independent VM structures.
pub struct VmState {
    tasks: Vec<Task>,
    /// All VM objects.
    pub objects: ObjectTable,
    /// Counters.
    pub stats: VmStats,
}

impl VmState {
    fn new() -> VmState {
        VmState {
            tasks: vec![Task::new(TaskId::KERNEL, PmapId::KERNEL)],
            objects: ObjectTable::new(),
            stats: VmStats::default(),
        }
    }

    /// Creates a task with a fresh pmap.
    pub fn create_task(&mut self, kernel: &mut KernelState) -> TaskId {
        let pmap = kernel.pmaps.create();
        let id = TaskId::new(self.tasks.len() as u32);
        self.tasks.push(Task::new(id, pmap));
        id
    }

    /// Creates a task whose pmap is homed on `node` of the machine's
    /// topology: page tables and lock words live in that node's memory.
    pub fn create_task_on(&mut self, kernel: &mut KernelState, node: usize) -> TaskId {
        let pmap = kernel.pmaps.create_on(node);
        let id = TaskId::new(self.tasks.len() as u32);
        self.tasks.push(Task::new(id, pmap));
        id
    }

    /// The task with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` was never created.
    pub fn task(&self, id: TaskId) -> &Task {
        &self.tasks[id.raw() as usize]
    }

    /// Mutable access to a task.
    ///
    /// # Panics
    ///
    /// Panics if `id` was never created.
    pub fn task_mut(&mut self, id: TaskId) -> &mut Task {
        &mut self.tasks[id.raw() as usize]
    }

    /// The pmap backing `id`'s address space.
    pub fn pmap_of(&self, id: TaskId) -> PmapId {
        self.task(id).pmap()
    }

    /// Split borrow: one task and the object table, mutably at once (the
    /// map-manipulation idiom).
    ///
    /// # Panics
    ///
    /// Panics if `id` was never created.
    pub fn task_and_objects(&mut self, id: TaskId) -> (&mut Task, &mut ObjectTable) {
        (&mut self.tasks[id.raw() as usize], &mut self.objects)
    }

    /// Number of tasks ever created (including the kernel task).
    pub fn n_tasks(&self) -> usize {
        self.tasks.len()
    }
}

impl fmt::Debug for VmState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("VmState")
            .field("tasks", &self.tasks.len())
            .field("objects", &self.objects.len())
            .field("stats", &self.stats)
            .finish()
    }
}

/// Kernel image plus VM structures: the shared state of a full system
/// simulation.
#[derive(Debug)]
pub struct SystemState {
    /// The machine-dependent kernel image (pmaps, TLBs, shootdown state).
    pub kernel: KernelState,
    /// The machine-independent VM structures.
    pub vm: VmState,
}

impl SystemState {
    /// Builds the boot-time system image (kernel state plus the kernel
    /// task's VM structures) for an `n_cpus` machine.
    pub fn new(n_cpus: usize, kconfig: KernelConfig) -> SystemState {
        SystemState {
            kernel: KernelState::new(n_cpus, kconfig),
            vm: VmState::new(),
        }
    }
}

impl HasKernel for SystemState {
    fn kernel(&self) -> &KernelState {
        &self.kernel
    }
    fn kernel_mut(&mut self) -> &mut KernelState {
        &mut self.kernel
    }
}

/// Access to the VM structures from a larger shared-state composition, so
/// workloads can embed the system state in their own machine state (the
/// same pattern as [`HasKernel`]).
pub trait HasVm: HasKernel {
    /// The VM structures.
    fn vm(&self) -> &VmState;
    /// Mutable access to the VM structures.
    fn vm_mut(&mut self) -> &mut VmState;
    /// Split borrow of the kernel image and the VM structures.
    fn kernel_and_vm(&mut self) -> (&mut KernelState, &mut VmState);
}

impl HasVm for SystemState {
    fn vm(&self) -> &VmState {
        &self.vm
    }
    fn vm_mut(&mut self) -> &mut VmState {
        &mut self.vm
    }
    fn kernel_and_vm(&mut self) -> (&mut KernelState, &mut VmState) {
        (&mut self.kernel, &mut self.vm)
    }
}

/// A simulated machine running the full system (kernel + VM).
pub type SystemMachine = Machine<SystemState, ()>;

/// Builds a machine with kernel and VM installed and handlers registered.
pub fn build_system_machine(
    n_cpus: usize,
    seed: u64,
    costs: CostModel,
    kconfig: KernelConfig,
) -> SystemMachine {
    let state = SystemState::new(n_cpus, kconfig);
    let mconfig = MachineConfig {
        n_cpus,
        seed,
        costs,
        topology: state.kernel.config.topology,
    };
    let mut m = Machine::new(mconfig, state, |_| ());
    install_kernel_handlers(&mut m);
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boot_system_has_kernel_task() {
        let m = build_system_machine(4, 1, CostModel::multimax(), KernelConfig::default());
        let s = m.shared();
        assert_eq!(s.vm.n_tasks(), 1);
        assert_eq!(s.vm.pmap_of(TaskId::KERNEL), PmapId::KERNEL);
        assert_eq!(s.kernel.n_cpus, 4);
    }

    #[test]
    fn create_task_allocates_pmap() {
        let mut m = build_system_machine(2, 1, CostModel::multimax(), KernelConfig::default());
        let s = m.shared_mut();
        let SystemState { kernel, vm } = s;
        let t = vm.create_task(kernel);
        assert_eq!(t, TaskId::new(1));
        assert_eq!(vm.pmap_of(t), PmapId::new(1));
        assert_eq!(kernel.pmaps.len(), 2);
    }
}
