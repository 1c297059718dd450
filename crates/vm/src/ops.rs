//! Address-space operations: the Mach VM calls of Section 2, each ending
//! in the pmap operation that may trigger a shootdown.
//!
//! | VM operation | pmap consequence |
//! |---|---|
//! | allocate | none (lazy: pages enter the pmap at fault time) |
//! | deallocate | `pmap_remove` — shootdown if pages were entered |
//! | protect | `pmap_protect` — shootdown if rights are reduced |
//! | copy-on-write share | `pmap_protect` of the source to read-only |
//! | terminate | pmap destruction |

use machtlb_pmap::{PageRange, Prot, Vpn};
use machtlb_sim::{BlockOn, Ctx, Dur, Process, Step};

use machtlb_core::{drive, Driven, PmapOp, PmapOpProcess};

use crate::map::{Inheritance, VmEntry};
use crate::state::HasVm;
use crate::task::{Task, TaskId};

/// An address-space operation.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum VmOp {
    /// Allocate zero-fill memory in a task's space. With `at: None` the
    /// map chooses the placement (returned in [`VmOpOutcome::allocated`]).
    Allocate {
        /// The task whose space grows.
        task: TaskId,
        /// Number of pages.
        pages: u64,
        /// Optional fixed placement.
        at: Option<Vpn>,
    },
    /// Remove a range from a task's space.
    Deallocate {
        /// The task whose space shrinks.
        task: TaskId,
        /// The pages to remove.
        range: PageRange,
    },
    /// Change the protection of a range.
    Protect {
        /// The task concerned.
        task: TaskId,
        /// The pages to reprotect.
        range: PageRange,
        /// The new protection.
        prot: Prot,
    },
    /// Share `src_range` of `src` into `dst` copy-on-write (the virtual
    /// copy used by Mach messaging and `fork`). The destination placement
    /// is chosen by `dst`'s map and returned in
    /// [`VmOpOutcome::dst_start`].
    ShareCow {
        /// The source task.
        src: TaskId,
        /// The pages to share.
        src_range: PageRange,
        /// The destination task.
        dst: TaskId,
    },
    /// Tear down a task's address space and destroy its pmap.
    Terminate {
        /// The task to terminate.
        task: TaskId,
    },
    /// Create a child task from `parent` per the inheritance of each map
    /// entry (the Unix `fork` path: copy-inherited ranges become virtual
    /// copies, which downgrades the parent's live mappings — a shootdown
    /// when the parent runs multi-threaded). The child id is returned in
    /// [`VmOpOutcome::child`].
    Fork {
        /// The task to fork.
        parent: TaskId,
    },
    /// Set the inheritance of a range ("specification of inheritance of
    /// virtual memory", Section 2). No pmap consequence.
    SetInheritance {
        /// The task concerned.
        task: TaskId,
        /// The pages to retag.
        range: PageRange,
        /// The new inheritance.
        inheritance: Inheritance,
    },
}

impl VmOp {
    /// The tasks whose map locks the operation needs, in locking order.
    fn lock_list(self) -> Vec<TaskId> {
        match self {
            VmOp::Allocate { task, .. }
            | VmOp::Deallocate { task, .. }
            | VmOp::Protect { task, .. }
            | VmOp::SetInheritance { task, .. }
            | VmOp::Terminate { task } => vec![task],
            // The child is freshly created inside the operation; only the
            // parent's map needs locking.
            VmOp::Fork { parent } => vec![parent],
            VmOp::ShareCow { src, dst, .. } => {
                let mut v = vec![src, dst];
                v.sort();
                v.dedup();
                v
            }
        }
    }
}

/// What the operation produced (meaningful once the process completes).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct VmOpOutcome {
    /// Placement chosen for an allocate.
    pub allocated: Option<Vpn>,
    /// Placement chosen for a copy-on-write share destination.
    pub dst_start: Option<Vpn>,
    /// The task created by a fork.
    pub child: Option<TaskId>,
    /// Map entries touched.
    pub entries_touched: usize,
}

#[derive(Debug)]
enum VPhase {
    LockMaps { idx: usize },
    MapUpdate,
    PmapPhase,
    UnlockMaps { idx: usize },
}

/// A VM operation as a state machine: lock the map(s), update the
/// machine-independent structures, run the pmap operation (which performs
/// any shootdown), unlock.
///
/// # Examples
///
/// Threads embed the operation and drive it to completion:
///
/// ```
/// use machtlb_pmap::Vpn;
/// use machtlb_vm::{TaskId, VmOp, VmOpProcess};
///
/// let op = VmOpProcess::new(VmOp::Allocate {
///     task: TaskId::KERNEL,
///     pages: 4,
///     at: Some(Vpn::new(0x8_0100)),
/// });
/// assert!(!op.failed());
/// assert!(op.outcome().allocated.is_none(), "nothing happens until stepped");
/// ```
#[derive(Debug)]
pub struct VmOpProcess {
    op: VmOp,
    locks: Vec<TaskId>,
    phase: VPhase,
    pmap_ops: std::collections::VecDeque<PmapOpProcess>,
    outcome: VmOpOutcome,
    failed: bool,
}

impl VmOpProcess {
    /// Creates the operation.
    pub fn new(op: VmOp) -> VmOpProcess {
        VmOpProcess {
            op,
            locks: op.lock_list(),
            phase: VPhase::LockMaps { idx: 0 },
            pmap_ops: std::collections::VecDeque::new(),
            outcome: VmOpOutcome::default(),
            failed: false,
        }
    }

    /// The operation's results (meaningful once completed).
    pub fn outcome(&self) -> VmOpOutcome {
        self.outcome
    }

    /// Whether the operation failed (e.g. no space to allocate).
    pub fn failed(&self) -> bool {
        self.failed
    }

    /// Performs the machine-independent map changes and plans the pmap
    /// operation. Returns the cost.
    fn map_update<S: HasVm>(&mut self, ctx: &mut Ctx<'_, S, ()>) -> Dur {
        let mut cost = ctx.costs().local_op * 8;
        ctx.shared.vm_mut().stats.vm_ops += 1;
        match self.op {
            VmOp::Allocate { task, pages, at } => {
                let start = match at {
                    Some(v) => v,
                    None => match ctx
                        .shared
                        .vm_mut()
                        .task_mut(task)
                        .map_mut()
                        .find_free(pages)
                    {
                        Ok(v) => v,
                        Err(_) => {
                            self.failed = true;
                            return cost;
                        }
                    },
                };
                let object = ctx.shared.vm_mut().objects.create();
                let entry = VmEntry {
                    range: PageRange::new(start, pages),
                    prot: Prot::READ_WRITE,
                    object,
                    offset: 0,
                    cow: false,
                    inheritance: Inheritance::Copy,
                };
                if ctx
                    .shared
                    .vm_mut()
                    .task_mut(task)
                    .map_mut()
                    .insert(entry)
                    .is_err()
                {
                    self.failed = true;
                    return cost;
                }
                self.outcome.allocated = Some(start);
                self.outcome.entries_touched = 1;
                // Lazy: no pmap work at all.
            }
            VmOp::Deallocate { task, range } => {
                let removed = {
                    let vm = ctx.shared.vm_mut();
                    let (tasks_entry, objects) = vm.task_and_objects(task);
                    tasks_entry.map_mut().remove_range(range, objects)
                };
                self.outcome.entries_touched = removed.len();
                cost += ctx.costs().local_op * 2 * removed.len() as u64;
                let pmap = ctx.shared.vm_mut().pmap_of(task);
                self.pmap_ops
                    .push_back(PmapOpProcess::new(pmap, PmapOp::Remove { range }));
            }
            VmOp::Protect { task, range, prot } => {
                let changed = {
                    let vm = ctx.shared.vm_mut();
                    let (tasks_entry, objects) = vm.task_and_objects(task);
                    tasks_entry.map_mut().protect_range(range, prot, objects)
                };
                self.outcome.entries_touched = changed;
                let pmap = ctx.shared.vm_mut().pmap_of(task);
                self.pmap_ops
                    .push_back(PmapOpProcess::new(pmap, PmapOp::Protect { range, prot }));
            }
            VmOp::ShareCow {
                src,
                src_range,
                dst,
            } => {
                let src_entries: Vec<VmEntry> = {
                    let vm = ctx.shared.vm_mut();
                    let (task, objects) = vm.task_and_objects(src);
                    task.map_mut().clip(src_range, objects);
                    // Re-point each source entry at a private shadow and
                    // collect the snapshot objects for the destination.
                    let mut collected = Vec::new();
                    let mut shadows = Vec::new();
                    for e in task.map_mut().entries_in_mut(src_range) {
                        collected.push(*e);
                        shadows.push(e.object);
                    }
                    for (e_idx, old_obj) in shadows.iter().enumerate() {
                        let s_shadow = objects.create_shadow(*old_obj);
                        collected[e_idx].object = s_shadow;
                    }
                    for (i, e) in task.map_mut().entries_in_mut(src_range).enumerate() {
                        let old = e.object;
                        e.object = collected[i].object;
                        e.cow = true;
                        objects.deref(old); // the entry's ref moved into the shadow
                                            // restore `collected` to carry the *snapshot* object
                        collected[i].object = old;
                    }
                    collected
                };
                if src_entries.is_empty() {
                    self.failed = true;
                    return cost;
                }
                let total: u64 = src_entries.iter().map(|e| e.range.count()).sum();
                let dst_start = match ctx.shared.vm_mut().task_mut(dst).map_mut().find_free(total) {
                    Ok(v) => v,
                    Err(_) => {
                        self.failed = true;
                        return cost;
                    }
                };
                let mut place = dst_start;
                for snap in &src_entries {
                    let d_shadow = ctx.shared.vm_mut().objects.create_shadow(snap.object);
                    let entry = VmEntry {
                        range: PageRange::new(place, snap.range.count()),
                        prot: snap.prot,
                        object: d_shadow,
                        offset: snap.offset,
                        cow: true,
                        inheritance: Inheritance::Copy,
                    };
                    ctx.shared
                        .vm_mut()
                        .task_mut(dst)
                        .map_mut()
                        .insert(entry)
                        .expect("placement came from find_free");
                    place = place.offset(snap.range.count());
                }
                self.outcome.dst_start = Some(dst_start);
                self.outcome.entries_touched = src_entries.len() * 2;
                cost += ctx.costs().local_op * 4 * src_entries.len() as u64;
                // The source's resident pages are now a shared snapshot:
                // strip write permission from its hardware mappings.
                let pmap = ctx.shared.vm_mut().pmap_of(src);
                self.pmap_ops.push_back(PmapOpProcess::new(
                    pmap,
                    PmapOp::Protect {
                        range: src_range,
                        prot: Prot::READ,
                    },
                ));
            }
            VmOp::Fork { parent } => {
                let child = {
                    let (kernel, vm) = ctx.shared.kernel_and_vm();
                    vm.create_task(kernel)
                };
                self.outcome.child = Some(child);
                let parent_entries: Vec<VmEntry> = ctx
                    .shared
                    .vm()
                    .task(parent)
                    .map()
                    .entries()
                    .copied()
                    .collect();
                cost += ctx.costs().local_op * 4 * parent_entries.len().max(1) as u64;
                let mut cow_ranges: Vec<PageRange> = Vec::new();
                for entry in parent_entries {
                    match entry.inheritance {
                        Inheritance::None => {}
                        Inheritance::Share => {
                            // Same object, same addresses, true sharing.
                            let vm = ctx.shared.vm_mut();
                            vm.objects.reference(entry.object);
                            vm.task_mut(child)
                                .map_mut()
                                .insert(entry)
                                .expect("child map starts empty");
                            self.outcome.entries_touched += 1;
                        }
                        Inheritance::Copy => {
                            // Virtual copy: both sides shadow the snapshot.
                            let vm = ctx.shared.vm_mut();
                            let snapshot = entry.object;
                            let parent_shadow = vm.objects.create_shadow(snapshot);
                            let child_shadow = vm.objects.create_shadow(snapshot);
                            {
                                let (task, objects) = vm.task_and_objects(parent);
                                for e in task.map_mut().entries_in_mut(entry.range) {
                                    if e.range == entry.range {
                                        e.object = parent_shadow;
                                        e.cow = true;
                                        objects.deref(snapshot);
                                    }
                                }
                            }
                            vm.task_mut(child)
                                .map_mut()
                                .insert(VmEntry {
                                    object: child_shadow,
                                    cow: true,
                                    ..entry
                                })
                                .expect("child map starts empty");
                            cow_ranges.push(entry.range);
                            self.outcome.entries_touched += 2;
                        }
                    }
                }
                // The parent's resident pages of copy-inherited ranges are
                // now shared snapshots: strip write permission, one pmap
                // operation per range (each may shoot down the parent's
                // other processors).
                let pmap = ctx.shared.vm_mut().pmap_of(parent);
                for range in cow_ranges {
                    self.pmap_ops.push_back(PmapOpProcess::new(
                        pmap,
                        PmapOp::Protect {
                            range,
                            prot: Prot::READ,
                        },
                    ));
                }
            }
            VmOp::SetInheritance {
                task,
                range,
                inheritance,
            } => {
                let vm = ctx.shared.vm_mut();
                let (t, objects) = vm.task_and_objects(task);
                t.map_mut().clip(range, objects);
                let mut n = 0;
                for e in t.map_mut().entries_in_mut(range) {
                    e.inheritance = inheritance;
                    n += 1;
                }
                self.outcome.entries_touched = n;
                cost += ctx.costs().local_op * 2 * n.max(1) as u64;
            }
            VmOp::Terminate { task } => {
                let span = ctx.shared.vm_mut().task(task).map().span();
                let removed = {
                    let vm = ctx.shared.vm_mut();
                    let (t, objects) = vm.task_and_objects(task);
                    t.map_mut().remove_range(span, objects)
                };
                ctx.shared.vm_mut().task_mut(task).mark_terminated();
                self.outcome.entries_touched = removed.len();
                cost += ctx.costs().local_op * 2 * removed.len() as u64;
                let pmap = ctx.shared.vm_mut().pmap_of(task);
                self.pmap_ops
                    .push_back(PmapOpProcess::new(pmap, PmapOp::Destroy));
            }
        }
        cost
    }
}

impl<S: HasVm> Process<S, ()> for VmOpProcess {
    fn step(&mut self, ctx: &mut Ctx<'_, S, ()>) -> Step {
        let me = ctx.cpu_id;
        match self.phase {
            VPhase::LockMaps { idx } => {
                let Some(&task) = self.locks.get(idx) else {
                    self.phase = VPhase::MapUpdate;
                    return Step::Run(ctx.costs().local_op);
                };
                let spin = ctx.costs().spin_check();
                let woken = ctx.woken_spins();
                let lock = ctx.shared.vm_mut().task_mut(task).map_lock_mut();
                lock.charge_spins(woken);
                if !lock.try_acquire(me) {
                    return Step::Block(BlockOn::one(Task::map_lock_channel(task), spin));
                }
                self.phase = VPhase::LockMaps { idx: idx + 1 };
                Step::Run(ctx.costs().lock_acquire + ctx.bus_interlocked())
            }
            VPhase::MapUpdate => {
                let cost = self.map_update(ctx);
                if self.failed {
                    self.pmap_ops.clear();
                }
                self.phase = if self.pmap_ops.is_empty() {
                    VPhase::UnlockMaps { idx: 0 }
                } else {
                    VPhase::PmapPhase
                };
                Step::Run(cost)
            }
            VPhase::PmapPhase => {
                let op = self
                    .pmap_ops
                    .front_mut()
                    .expect("guarded by phase transition");
                match drive(op, ctx) {
                    Driven::Yield(s) => s,
                    Driven::Finished(d) => {
                        self.pmap_ops.pop_front();
                        if self.pmap_ops.is_empty() {
                            self.phase = VPhase::UnlockMaps { idx: 0 };
                        }
                        Step::Run(d)
                    }
                }
            }
            VPhase::UnlockMaps { idx } => {
                // Unlock in reverse order.
                let n = self.locks.len();
                if idx >= n {
                    return Step::Done(ctx.costs().local_op);
                }
                let task = self.locks[n - 1 - idx];
                ctx.shared
                    .vm_mut()
                    .task_mut(task)
                    .map_lock_mut()
                    .release(me);
                ctx.notify(Task::map_lock_channel(task));
                self.phase = VPhase::UnlockMaps { idx: idx + 1 };
                Step::Run(ctx.costs().lock_release + ctx.bus_write())
            }
        }
    }

    fn label(&self) -> &'static str {
        "vm-op"
    }
}
