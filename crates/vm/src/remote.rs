//! Reading and writing memory in some other address space — the last of
//! the Section 2 address-space operations.
//!
//! The kernel thread performing the copy translates through the *remote*
//! tasks' pmaps, which makes its processor a consistency target: it must
//! be in each pmap's in-use set for the duration (so shootdowns reach it),
//! must not start caching translations of a pmap whose update is in
//! flight, and must drop its cached entries before leaving the set — the
//! same discipline as the context-switch path.

use machtlb_core::{MemOp, SYNC_CHANNEL};
use machtlb_pmap::{PmapId, Vaddr};
use machtlb_sim::{BlockOn, Ctx, Dur, Process, Step};

use crate::access::{UserAccess, UserAccessResult, UserAccessStep};
use crate::state::HasVm;
use crate::task::TaskId;

/// How a remote copy ended.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum RemoteCopyResult {
    /// All words copied.
    Copied,
    /// An address had no valid mapping permitting the access.
    Faulted,
}

#[derive(Debug)]
enum RPhase {
    JoinSrc,
    JoinDst,
    Read,
    Write(u64),
    Leave,
}

/// Copies `words` 64-bit words from `src_task`'s space to `dst_task`'s
/// space, one word at a time through real translations (Mach's
/// `vm_read`/`vm_write` path in miniature). Embed and drive to
/// completion; read [`RemoteCopyProcess::result`] afterwards.
#[derive(Debug)]
pub struct RemoteCopyProcess {
    src_task: TaskId,
    dst_task: TaskId,
    src_va: Vaddr,
    dst_va: Vaddr,
    words: u64,
    copied: u64,
    phase: RPhase,
    access: Option<UserAccess>,
    src_pmap: Option<PmapId>,
    dst_pmap: Option<PmapId>,
    result: Option<RemoteCopyResult>,
    pace: Dur,
}

impl RemoteCopyProcess {
    /// Creates the copy operation.
    ///
    /// # Panics
    ///
    /// Panics if `words` is zero.
    pub fn new(
        src_task: TaskId,
        src_va: Vaddr,
        dst_task: TaskId,
        dst_va: Vaddr,
        words: u64,
    ) -> RemoteCopyProcess {
        assert!(words > 0, "a copy needs at least one word");
        RemoteCopyProcess {
            src_task,
            dst_task,
            src_va,
            dst_va,
            words,
            copied: 0,
            phase: RPhase::JoinSrc,
            access: None,
            src_pmap: None,
            dst_pmap: None,
            result: None,
            pace: Dur::micros(2),
        }
    }

    /// Sets the per-word loop overhead beyond the memory accesses
    /// themselves (bounds checking, progress accounting).
    pub fn with_pace(mut self, pace: Dur) -> RemoteCopyProcess {
        self.pace = pace;
        self
    }

    /// The outcome (meaningful once the process completed).
    pub fn result(&self) -> Option<RemoteCopyResult> {
        self.result
    }

    /// Words successfully copied.
    pub fn copied(&self) -> u64 {
        self.copied
    }

    /// Joins a pmap's in-use set, spinning while the pmap is locked (a
    /// processor must not start caching translations mid-update).
    fn join<S: HasVm>(
        ctx: &mut Ctx<'_, S, ()>,
        task: TaskId,
        slot: &mut Option<PmapId>,
    ) -> Option<Step> {
        let pmap = ctx.shared.vm().pmap_of(task);
        {
            let lock = ctx.shared.kernel().pmaps.get(pmap).lock();
            if lock.is_locked() && !lock.is_held_by(ctx.cpu_id) {
                let spin = ctx.costs().spin_check();
                return Some(match lock.channel() {
                    Some(chan) => Step::Block(BlockOn::one(chan, spin)),
                    None => Step::Run(spin),
                });
            }
        }
        let me = ctx.cpu_id;
        if !pmap.is_kernel() {
            // The kernel pmap is permanently in use on every processor.
            ctx.shared.kernel_mut().pmaps.get_mut(pmap).mark_in_use(me);
            // Joining the user set can redirect a blocked initiator's
            // queue scan to this processor.
            ctx.notify(SYNC_CHANNEL);
        }
        *slot = Some(pmap);
        None
    }

    fn word_offset(va: Vaddr, i: u64) -> Vaddr {
        Vaddr::new(va.raw() + i * 8)
    }
}

impl<S: HasVm> Process<S, ()> for RemoteCopyProcess {
    fn step(&mut self, ctx: &mut Ctx<'_, S, ()>) -> Step {
        match self.phase {
            RPhase::JoinSrc => {
                if let Some(s) = Self::join(ctx, self.src_task, &mut self.src_pmap) {
                    return s;
                }
                self.phase = RPhase::JoinDst;
                Step::Run(ctx.costs().local_op + ctx.bus_write())
            }
            RPhase::JoinDst => {
                if let Some(s) = Self::join(ctx, self.dst_task, &mut self.dst_pmap) {
                    return s;
                }
                self.phase = RPhase::Read;
                Step::Run(ctx.costs().local_op + ctx.bus_write())
            }
            RPhase::Read => {
                if self.copied == self.words {
                    self.result = Some(RemoteCopyResult::Copied);
                    self.phase = RPhase::Leave;
                    return Step::Run(ctx.costs().local_op);
                }
                let va = Self::word_offset(self.src_va, self.copied);
                let task = self.src_task;
                let acc = self
                    .access
                    .get_or_insert_with(|| UserAccess::new(task, va, MemOp::Read));
                match acc.step(ctx) {
                    UserAccessStep::Yield(s) => s,
                    UserAccessStep::Finished(UserAccessResult::Ok(v), d) => {
                        self.access = None;
                        self.phase = RPhase::Write(v);
                        Step::Run(d)
                    }
                    UserAccessStep::Finished(UserAccessResult::Killed, d) => {
                        self.access = None;
                        self.result = Some(RemoteCopyResult::Faulted);
                        self.phase = RPhase::Leave;
                        Step::Run(d)
                    }
                }
            }
            RPhase::Write(v) => {
                let va = Self::word_offset(self.dst_va, self.copied);
                let task = self.dst_task;
                let acc = self
                    .access
                    .get_or_insert_with(|| UserAccess::new(task, va, MemOp::Write(v)));
                match acc.step(ctx) {
                    UserAccessStep::Yield(s) => s,
                    UserAccessStep::Finished(UserAccessResult::Ok(_), d) => {
                        self.access = None;
                        self.copied += 1;
                        self.phase = RPhase::Read;
                        Step::Run(d + self.pace)
                    }
                    UserAccessStep::Finished(UserAccessResult::Killed, d) => {
                        self.access = None;
                        self.result = Some(RemoteCopyResult::Faulted);
                        self.phase = RPhase::Leave;
                        Step::Run(d)
                    }
                }
            }
            RPhase::Leave => {
                // Drop our cached translations of both remote pmaps and
                // leave their in-use sets; only then can their shootdowns
                // safely skip this processor again.
                let me = ctx.cpu_id;
                let mut cost = ctx.costs().local_op;
                let current = ctx.shared.kernel().cur_user_pmap[me.index()];
                for pmap in [self.src_pmap.take(), self.dst_pmap.take()]
                    .into_iter()
                    .flatten()
                {
                    if pmap.is_kernel() || current == Some(pmap) {
                        // The kernel pmap never leaves the in-use set, and
                        // our own address space is the context-switch
                        // path's bookkeeping, not ours.
                        continue;
                    }
                    let single = ctx.costs().tlb_invalidate_single;
                    let kernel = ctx.shared.kernel_mut();
                    if kernel.config.residency {
                        // ASID-generation recycling: one bump retires our
                        // cached view of the remote address space.
                        kernel.tlbs[me.index()].recycle_pmap(pmap);
                        kernel.stats.asid_recycles += 1;
                        cost += single;
                    } else {
                        let n = kernel.tlbs[me.index()].flush_pmap(pmap);
                        cost += single * n.max(1);
                    }
                    kernel.pmaps.get_mut(pmap).mark_not_in_use(me);
                    // Leaving the user set can satisfy an initiator's wait.
                    ctx.notify(SYNC_CHANNEL);
                    cost += ctx.bus_write();
                }
                Step::Done(cost)
            }
        }
    }

    fn label(&self) -> &'static str {
        "remote-copy"
    }
}
