//! The page-fault path: lazy pmap fill, zero fill, and copy-on-write
//! resolution.
//!
//! Pmaps "are lazily updated as required by page faults" and "usually do
//! not present a complete view of valid memory for any address space"
//! (Section 2) — which is exactly why the lazy-evaluation check in the
//! shootdown path pays off (Section 7.2). This module is the updater: a
//! fault looks up the machine-independent entry, materialises or copies
//! the page, and enters the translation through the pmap layer.

use machtlb_pmap::{Access, Pfn, Prot, Vpn};
use machtlb_sim::{BlockOn, Ctx, Dur, Process, Step};

use machtlb_core::{drive, Driven, PmapOp, PmapOpProcess};

use crate::state::HasVm;
use crate::task::{Task, TaskId};

/// How a fault was disposed of.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum FaultResult {
    /// The mapping was (re)entered; retry the access.
    Resolved,
    /// No valid mapping permits the access: the thread should terminate
    /// (the write fault on a read-only page the consistency tester relies
    /// on, Section 5.1).
    Unrecoverable,
    /// The pmap enter aborted without entering the translation: the pmap
    /// lock is held by a fail-stop halted processor under
    /// [`RecoveryPolicy::FailOp`](machtlb_core::RecoveryPolicy::FailOp).
    /// Retrying would fault again forever; the thread fails the access
    /// instead.
    Aborted,
}

#[derive(Debug)]
enum FPhase {
    LockMap,
    Resolve,
    Enter,
    Unlock,
}

/// The fault handler for one faulting access. Trap or embed it; read
/// [`FaultProcess::result`] once it completes.
#[derive(Debug)]
pub struct FaultProcess {
    task: TaskId,
    vpn: Vpn,
    access: Access,
    phase: FPhase,
    enter: Option<PmapOpProcess>,
    result: Option<FaultResult>,
}

impl FaultProcess {
    /// Creates a handler for a fault on `vpn` of `task`.
    pub fn new(task: TaskId, vpn: Vpn, access: Access) -> FaultProcess {
        FaultProcess {
            task,
            vpn,
            access,
            phase: FPhase::LockMap,
            enter: None,
            result: None,
        }
    }

    /// The disposition (meaningful once the process has completed).
    pub fn result(&self) -> Option<FaultResult> {
        self.result
    }

    /// Resolves the page and plans the pmap enter. Returns
    /// `(cost, Some((pfn, prot)))`, or `(cost, None)` for an unrecoverable
    /// fault.
    fn resolve<S: HasVm>(&self, ctx: &mut Ctx<'_, S, ()>) -> (Dur, Option<(Pfn, Prot)>) {
        let mut cost = ctx.costs().local_op * 6; // map lookup
        let Some(entry) = ctx
            .shared
            .vm_mut()
            .task(self.task)
            .map()
            .lookup(self.vpn)
            .copied()
        else {
            return (cost, None);
        };
        if !entry.prot.allows(self.access) {
            return (cost, None);
        }
        let offset = entry.offset_of(self.vpn);
        let depth = ctx
            .shared
            .vm_mut()
            .objects
            .lookup_depth(entry.object, offset);
        cost += ctx.costs().cache_read * u64::from(depth);

        let needs_copy = self.access == Access::Write
            && entry.cow
            && !ctx
                .shared
                .vm_mut()
                .objects
                .has_own_page(entry.object, offset);
        if needs_copy {
            let src = ctx
                .shared
                .vm_mut()
                .objects
                .lookup_page(entry.object, offset);
            let pfn = ctx.shared.kernel_mut().frames.alloc();
            match src {
                Some(s) => {
                    ctx.shared.kernel_mut().mem.copy_page(s, pfn);
                    ctx.shared.vm_mut().stats.cow_copies += 1;
                    cost += ctx.costs().page_copy;
                }
                None => {
                    ctx.shared.vm_mut().stats.zero_fills += 1;
                    cost += ctx.costs().page_copy / 2;
                }
            }
            ctx.shared
                .vm_mut()
                .objects
                .insert_page(entry.object, offset, pfn);
            // Opportunistic shadow collapse: if the snapshot below is now
            // privately owned, merge it up so chains stay short.
            let collapsed = ctx.shared.vm_mut().objects.collapse(entry.object);
            cost += ctx.costs().local_op * 8 * collapsed as u64;
            return (cost, Some((pfn, entry.prot)));
        }

        let (pfn, fresh) = match ctx
            .shared
            .vm_mut()
            .objects
            .lookup_page(entry.object, offset)
        {
            Some(pfn) => (pfn, false),
            None => {
                // Zero fill into the entry's own object.
                let pfn = ctx.shared.kernel_mut().frames.alloc();
                ctx.shared
                    .vm_mut()
                    .objects
                    .insert_page(entry.object, offset, pfn);
                ctx.shared.vm_mut().stats.zero_fills += 1;
                cost += ctx.costs().page_copy / 2;
                (pfn, true)
            }
        };
        // A COW page resolved from the shared snapshot is mapped without
        // write permission so the first write faults for its private copy.
        let own = fresh
            || ctx
                .shared
                .vm_mut()
                .objects
                .has_own_page(entry.object, offset);
        let prot = if entry.cow && !own {
            entry.prot.intersect(Prot::READ)
        } else {
            entry.prot
        };
        (cost, Some((pfn, prot)))
    }
}

impl<S: HasVm> Process<S, ()> for FaultProcess {
    fn step(&mut self, ctx: &mut Ctx<'_, S, ()>) -> Step {
        let me = ctx.cpu_id;
        match self.phase {
            FPhase::LockMap => {
                let spin = ctx.costs().spin_check();
                let woken = ctx.woken_spins();
                let lock = ctx.shared.vm_mut().task_mut(self.task).map_lock_mut();
                lock.charge_spins(woken);
                if !lock.try_acquire(me) {
                    return Step::Block(BlockOn::one(Task::map_lock_channel(self.task), spin));
                }
                self.phase = FPhase::Resolve;
                ctx.shared.kernel_mut().stats.faults += 1;
                Step::Run(ctx.costs().page_fault_overhead + ctx.bus_interlocked())
            }
            FPhase::Resolve => {
                let (cost, plan) = self.resolve(ctx);
                match plan {
                    None => {
                        self.result = Some(FaultResult::Unrecoverable);
                        ctx.shared.kernel_mut().stats.unrecoverable_faults += 1;
                        ctx.shared.vm_mut().stats.unrecoverable += 1;
                        self.phase = FPhase::Unlock;
                    }
                    Some((pfn, prot)) => {
                        let pmap = ctx.shared.vm_mut().pmap_of(self.task);
                        // Drop any stale local entry (e.g. a read-only
                        // entry left over before a protection upgrade or
                        // COW copy) before entering the new translation.
                        ctx.shared.kernel_mut().tlbs[me.index()].invalidate(pmap, self.vpn);
                        self.enter = Some(PmapOpProcess::new(
                            pmap,
                            PmapOp::Enter {
                                vpn: self.vpn,
                                pfn,
                                prot,
                            },
                        ));
                        self.phase = FPhase::Enter;
                    }
                }
                Step::Run(cost + ctx.costs().tlb_invalidate_single)
            }
            FPhase::Enter => {
                let enter = self.enter.as_mut().expect("planned in Resolve");
                match drive(enter, ctx) {
                    Driven::Yield(s) => s,
                    Driven::Finished(d) => {
                        // Under RecoveryPolicy::FailOp the enter completes
                        // without touching the pmap when its lock is held
                        // by a dead processor — reporting that as Resolved
                        // would retry the access into the same dead lock
                        // until the livelock assertion fires.
                        let aborted = self
                            .enter
                            .as_ref()
                            .expect("planned in Resolve")
                            .outcome()
                            .dead_lock_holder
                            .is_some();
                        self.enter = None;
                        if aborted {
                            self.result = Some(FaultResult::Aborted);
                        } else {
                            self.result = Some(FaultResult::Resolved);
                            ctx.shared.vm_mut().stats.faults_resolved += 1;
                        }
                        self.phase = FPhase::Unlock;
                        Step::Run(d)
                    }
                }
            }
            FPhase::Unlock => {
                ctx.shared
                    .vm_mut()
                    .task_mut(self.task)
                    .map_lock_mut()
                    .release(me);
                ctx.notify(crate::task::Task::map_lock_channel(self.task));
                Step::Done(ctx.costs().lock_release + ctx.bus_write())
            }
        }
    }

    fn label(&self) -> &'static str {
        "vm-fault"
    }
}
