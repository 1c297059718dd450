//! Stall diagnosis: turning a timed-out run into a readable report.
//!
//! A bare `StepLimit` from the scheduler says *that* a run wedged, not
//! *why*. [`stall_report`] decodes the machine's end state into the facts
//! a deadlock or livelock diagnosis needs: what every processor is doing
//! (its stacked processes and, if parked, the wait channels it blocks
//! on), which locks are held and by whom, the active/idle sets, the
//! interrupts still in flight, and the watchdog's case files. The wait
//! channels are decoded through the same key-space registry the kernel
//! allocates them from (`0x1` pmap locks, `0x2` action-queue locks,
//! `0x3` the sync channel), so a blocked processor's report line names
//! the lock — and its holder — rather than a raw key.

use std::fmt::Write as _;

use machtlb_pmap::PmapId;
use machtlb_sim::{CpuId, Machine, ParkView, WaitChannel};

use crate::state::HasKernel;
use crate::KernelState;

/// Formats a lock holder, tagging fail-stop holders: a waiter blocked on
/// a DEAD holder is a wedge the health monitor should have recovered,
/// not ordinary contention.
fn fmt_holder(h: CpuId, halted: &dyn Fn(CpuId) -> bool) -> String {
    if halted(h) {
        format!("{h}, DEAD")
    } else {
        h.to_string()
    }
}

/// Decodes a wait channel into kernel terms, naming the lock holder when
/// the channel guards a lock (and whether that holder is fail-stop dead).
fn describe_channel(k: &KernelState, halted: &dyn Fn(CpuId) -> bool, ch: WaitChannel) -> String {
    let key = ch.key();
    let space = key >> 32;
    let low = (key & 0xffff_ffff) as u32;
    match space {
        0x1 => {
            let mut s = if low == 0 {
                "kernel-pmap lock".to_string()
            } else {
                format!("pmap{low} lock")
            };
            if (low as usize) < k.pmaps.len() {
                match k.pmaps.get(PmapId::new(low)).lock().holder() {
                    Some(h) => {
                        let _ = write!(s, " (held by {})", fmt_holder(h, halted));
                    }
                    None => s.push_str(" (unheld)"),
                }
            }
            s
        }
        0x2 => {
            let mut s = format!("queue lock of cpu{low}");
            if (low as usize) < k.queue_locks.len() {
                match k.queue_locks[low as usize].holder() {
                    Some(h) => {
                        let _ = write!(s, " (held by {})", fmt_holder(h, halted));
                    }
                    None => s.push_str(" (unheld)"),
                }
            }
            s
        }
        0x3 => "sync channel".to_string(),
        0x4 => format!("vm channel {low:#x}"),
        0x5 => format!("workload channel {low:#x}"),
        _ => format!("channel {key:#x}"),
    }
}

/// Renders a diagnosable report of a wedged machine: per-processor state
/// (clock, stacked processes, park state with decoded wait channels,
/// latched interrupts, kernel flags), held locks, the active/idle sets,
/// in-flight interrupt deliveries, watchdog reports, and the hardening
/// counters. Meant for the moment a bounded run returns `StepLimit`: the
/// report replaces a bare "step limit exceeded" with the facts needed to
/// tell a deadlock from a livelock from a merely short limit.
pub fn stall_report<S: HasKernel>(m: &Machine<S, ()>) -> String {
    let k = m.shared().kernel();
    let halted = |c: CpuId| m.is_halted(c);
    let mut out = String::new();
    let _ = writeln!(out, "=== stall report ===");
    for c in 0..m.n_cpus() {
        let cpu = m.cpu(CpuId::new(c as u32));
        let stack = cpu.stack_labels().join(" > ");
        let park = if halted(CpuId::new(c as u32)) {
            // A halted processor's park state is whatever it froze in;
            // the fact that matters is that it will never step again.
            "HALTED (fail-stop)".to_string()
        } else {
            match cpu.park_view() {
                ParkView::Running => "running".to_string(),
                ParkView::Parked { until: None } => "parked (no deadline)".to_string(),
                ParkView::Parked { until: Some(t) } => format!("parked until {t}"),
                ParkView::Blocked {
                    anchor,
                    chans,
                    wake_at,
                } => {
                    let on: Vec<String> = chans
                        .iter()
                        .flatten()
                        .map(|&ch| describe_channel(k, &halted, ch))
                        .collect();
                    let wake = match wake_at {
                        Some(t) => format!("wake at {t}"),
                        None => "no wake scheduled".to_string(),
                    };
                    format!("blocked since {anchor} on {} ({wake})", on.join(" | "))
                }
            }
        };
        let mut flags = Vec::new();
        if k.ipi_pending[c] {
            flags.push("ipi-pending");
        }
        if k.action_needed[c] {
            flags.push("action-needed");
        }
        if k.evicted[c] {
            flags.push("evicted");
        }
        let pending = cpu.pending_vectors();
        let _ = writeln!(
            out,
            "cpu{c}: clock={} {park} stack=[{}]{}{}",
            cpu.clock(),
            if stack.is_empty() { "idle" } else { &stack },
            if pending.is_empty() {
                String::new()
            } else {
                format!(
                    " latched=[{}]",
                    pending
                        .iter()
                        .map(ToString::to_string)
                        .collect::<Vec<_>>()
                        .join(",")
                )
            },
            if flags.is_empty() {
                String::new()
            } else {
                format!(" flags=[{}]", flags.join(","))
            },
        );
    }
    let set = |s: &machtlb_pmap::CpuSet| {
        s.iter()
            .map(|c| c.to_string())
            .collect::<Vec<_>>()
            .join(",")
    };
    let _ = writeln!(
        out,
        "active={{{}}} idle={{{}}}",
        set(&k.active),
        set(&k.idle)
    );
    let mut any_lock = false;
    for i in 0..k.pmaps.len() {
        let id = PmapId::new(i as u32);
        if let Some(h) = k.pmaps.get(id).lock().holder() {
            let name = if i == 0 {
                "kernel-pmap".to_string()
            } else {
                format!("pmap{i}")
            };
            let _ = writeln!(out, "lock: {name} lock held by {}", fmt_holder(h, &halted));
            any_lock = true;
        }
    }
    for (i, l) in k.queue_locks.iter().enumerate() {
        if let Some(h) = l.holder() {
            let _ = writeln!(
                out,
                "lock: queue lock of cpu{i} held by {}",
                fmt_holder(h, &halted)
            );
            any_lock = true;
        }
    }
    if !any_lock {
        let _ = writeln!(out, "locks: none held");
    }
    let in_flight = m.pending_interrupts();
    if in_flight.is_empty() {
        let _ = writeln!(out, "in-flight interrupts: none");
    } else {
        for (at, cpu, v) in &in_flight {
            let _ = writeln!(out, "in-flight: {v} -> {cpu} at {at}");
        }
    }
    for r in &k.watchdog_reports {
        let _ = writeln!(
            out,
            "watchdog: {} gave up on {} at {} after {} retries",
            r.initiator, r.target, r.at, r.retries
        );
    }
    for r in &k.eviction_reports {
        let _ = writeln!(
            out,
            "eviction: {} evicted {} at {}",
            r.initiator, r.target, r.at
        );
    }
    // The most common wedge the health monitor exists to prevent: a
    // give-up that never became an eviction means a dead responder is
    // still a member of the sets initiators wait on.
    if k.stats.unrecovered() > 0 {
        let _ = writeln!(
            out,
            "hint: watchdog give-ups exceed evictions; a fail-stop responder \
             may still wedge initiators (health monitor disabled?)"
        );
    }
    let _ = writeln!(out, "hardening: {}", k.stats.hardening_line());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::KernelConfig;
    use crate::{build_kernel_machine, SYNC_CHANNEL};
    use machtlb_sim::CostModel;

    #[test]
    fn channels_decode_to_kernel_terms() {
        let m = build_kernel_machine(2, 1, CostModel::multimax(), KernelConfig::default());
        let k = m.shared();
        let live = |_: CpuId| false;
        assert_eq!(describe_channel(k, &live, SYNC_CHANNEL), "sync channel");
        assert!(
            describe_channel(k, &live, crate::queue_lock_channel(CpuId::new(1)))
                .starts_with("queue lock of cpu1")
        );
        let pch = machtlb_pmap::Pmap::lock_channel(PmapId::KERNEL);
        assert!(describe_channel(k, &live, pch).starts_with("kernel-pmap lock"));
        assert!(describe_channel(k, &live, WaitChannel::new(0x9_0000_0001)).starts_with("channel"));
    }

    #[test]
    fn report_names_lock_holders_and_flags() {
        let mut m = build_kernel_machine(2, 1, CostModel::multimax(), KernelConfig::default());
        {
            let s = m.shared_mut();
            let pmap = s.pmaps.create();
            s.pmaps.get_mut(pmap).lock_mut().try_acquire(CpuId::new(1));
            s.action_needed[0] = true;
            s.ipi_pending[1] = true;
        }
        let report = stall_report(&m);
        assert!(report.contains("pmap1 lock held by cpu1"), "{report}");
        assert!(report.contains("action-needed"), "{report}");
        assert!(report.contains("ipi-pending"), "{report}");
        assert!(report.contains("hardening:"), "{report}");
    }

    #[test]
    fn report_marks_halted_processors_and_dead_holders() {
        use machtlb_sim::{FaultPlan, Halt, Time};

        let mut m = build_kernel_machine(2, 1, CostModel::multimax(), KernelConfig::default());
        {
            let s = m.shared_mut();
            let pmap = s.pmaps.create();
            s.pmaps.get_mut(pmap).lock_mut().try_acquire(CpuId::new(1));
        }
        m.install_fault_plan(FaultPlan {
            halts: vec![Halt {
                cpu: CpuId::new(1),
                at: Time::from_micros(1),
            }],
            ..FaultPlan::none(crate::SHOOTDOWN_VECTOR)
        });
        m.run(Time::from_micros(10));
        assert!(m.is_halted(CpuId::new(1)));
        let report = stall_report(&m);
        assert!(
            report.contains("cpu1: clock=") && report.contains("HALTED (fail-stop)"),
            "{report}"
        );
        assert!(
            report.contains("lock: pmap1 lock held by cpu1, DEAD"),
            "{report}"
        );
    }

    #[test]
    fn report_books_evictions_and_hints_at_unrecovered_giveups() {
        use machtlb_sim::Time;

        let mut m = build_kernel_machine(3, 1, CostModel::multimax(), KernelConfig::default());
        {
            let s = m.shared_mut();
            crate::health::evict(s, CpuId::new(0), CpuId::new(2), Time::from_micros(42));
            s.stats.watchdog_gaveup = 2; // one give-up was never absorbed
            s.stats.locks_stolen = 1;
        }
        let report = stall_report(&m);
        assert!(
            report.contains("eviction: cpu0 evicted cpu2 at 42.000us"),
            "{report}"
        );
        assert!(
            report.contains("cpu2: ") && report.contains("evicted"),
            "{report}"
        );
        assert!(
            report.contains("hint: watchdog give-ups exceed evictions"),
            "{report}"
        );
        assert!(
            report.contains("evictions=1 fenced_rejoins=0 locks_stolen=1 robbed_restarts=0 "),
            "{report}"
        );
    }

    #[test]
    fn golden_report_shape_for_a_quiet_machine() {
        // The full report for an untouched two-processor machine, pinned
        // line by line so format drift is a conscious choice.
        let m = build_kernel_machine(2, 1, CostModel::multimax(), KernelConfig::default());
        let report = stall_report(&m);
        let lines: Vec<&str> = report.lines().collect();
        assert_eq!(
            lines,
            vec![
                "=== stall report ===",
                "cpu0: clock=0.000us parked (no deadline) stack=[idle]",
                "cpu1: clock=0.000us parked (no deadline) stack=[idle]",
                "active={} idle={cpu0,cpu1}",
                "locks: none held",
                "in-flight interrupts: none",
                "hardening: ipi_retries=0 watchdog_gaveup=0 degraded_flushes=0 \
                 evictions=0 fenced_rejoins=0 locks_stolen=0 robbed_restarts=0 \
                 late_acks_rejected=0 self_fences=0 ops_retried=0 retries_exhausted=0",
            ],
            "{report}"
        );
    }
}
