//! The chaos harness: deterministic fault campaigns against the shootdown.
//!
//! A campaign is a [`FaultSchedule`]: machine-layer faults plus
//! kernel-side sabotage (a tiny action queue, a poisoned queue, the
//! watchdog turned off) and a declared *envelope* — whether the hardened
//! kernel is expected to ride the faults out. [`run_chaos`] drives a
//! fixed writer/initiator workload under the schedule and classifies the
//! outcome:
//!
//! - [`Survival::Tolerated`] — finished with no violations and no
//!   hardening machinery engaged;
//! - [`Survival::Degraded`] — finished consistently, but only because the
//!   hardening fired (IPI retries, a full-TLB-flush degradation, a
//!   poisoned or overflowed queue, a dead responder evicted, a lock
//!   stolen from a halted holder, a fenced rejoin);
//! - [`Survival::DetectedFatal`] — the fault escaped the envelope and was
//!   *caught*: a checker violation, a watchdog give-up the health monitor
//!   did not absorb into an eviction, or a run that visibly never
//!   completed (and carries a [`stall_report`]).
//!
//! The suite is two-sided. Schedules inside the envelope must never be
//! `DetectedFatal`; schedules beyond it (`tolerable == false`) must be
//! `DetectedFatal` — a beyond-envelope schedule that *passes* is itself a
//! failure, because it means a real fault of that shape would corrupt
//! translations silently. [`check_envelope`] encodes both directions.
//!
//! Everything is seed-deterministic: the fault rules are
//! counter-deterministic (no random draws), so the same
//! [`ChaosConfig`] always yields a bit-identical [`ChaosOutcome`] —
//! clocks, statistics, and verdict. A `None` plan and the fault-free
//! `none` schedule are likewise bit-identical, proving the injection
//! hooks cost nothing when quiet.
//!
//! A campaign — the catalog ([`chaos_schedules`]), the soak rotation,
//! or a fuzz run — is a list of schedules run by
//! [`run_campaign`](crate::run_campaign), judged by [`check_envelope`],
//! and written by [`campaign_json`].

use std::fmt::Write as _;

use machtlb_pmap::{PageRange, Pfn, PmapId, Prot, Vaddr, Vpn};
use machtlb_sim::{
    BusStats, CostModel, CpuId, Ctx, Dur, FaultRecord, FaultStats, Process, RunStatus, Step, Time,
    Topology,
};
use machtlb_xpr::json::escape;
use machtlb_xpr::{ShootdownEvent, TraceEdge, TracePhase};

use crate::access::{try_access, AccessOutcome, MemOp};
use crate::diagnose::stall_report;
use crate::fuzz::Coverage;
use crate::health::FencedRejoinProcess;
use crate::kernel::{
    build_kernel_machine, schedule_device_interrupts, KernelMachine, SwitchUserPmapProcess,
};
use crate::op::{FailOpDriver, PmapOp, PmapOpProcess};
use crate::responder::ExitIdleProcess;
use crate::schedule::{
    offline_floor_us, revive_floor_us, schedule_json, FaultSchedule, ScheduleEvent,
    WRONGFUL_STALL_US,
};
use crate::state::{KernelConfig, KernelState, KernelStats, WatchdogConfig};
use crate::{drive, Driven};

/// How a chaos run ended, from best to worst.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Survival {
    /// Finished consistently with no hardening machinery engaged.
    Tolerated,
    /// Finished consistently, but only because the hardening fired
    /// (IPI retries, a degraded full flush, an overflowed or poisoned
    /// queue, an evicted responder, a stolen lock, a fenced rejoin).
    Degraded,
    /// The fault was caught rather than survived: a checker violation, an
    /// unrecovered watchdog give-up, or a run that never completed.
    DetectedFatal,
}

impl Survival {
    /// A short name for tables.
    pub fn name(self) -> &'static str {
        match self {
            Survival::Tolerated => "tolerated",
            Survival::Degraded => "degraded",
            Survival::DetectedFatal => "detected-fatal",
        }
    }
}

/// The standard campaign catalog for an `n_cpus`-processor machine: six
/// fault shapes inside the tolerable envelope, two queue-sabotage
/// schedules that must degrade gracefully, a fail-stop family
/// (responders halted before and after acknowledging, a halted lock
/// holder, an offline-and-revive storm), and three beyond-envelope
/// schedules that must be caught (total unwatched IPI loss, a halted
/// initiator, and a revival with fencing disabled).
///
/// Appended after those sixteen (the topology-equivalence goldens pin
/// the prefix) comes the compound-fault family: two halted responders,
/// a halted initiator with a live co-initiator, the wrongful eviction of
/// a slow-but-alive responder (with and without fencing), and a halted
/// lock holder recovered end to end under
/// [`RecoveryPolicy::FailOp`](crate::RecoveryPolicy::FailOp) through a
/// [`FailOpDriver`](crate::FailOpDriver).
///
/// Each entry is a named [`FaultSchedule`] for this machine size with the
/// default seed, rounds and flat topology; [`chaos_schedules`] stamps in
/// the ones a campaign runs with.
///
/// The fail-stop timing: the workload's sentinel lands between 5 and
/// 10 ms, so a halt at 2 ms reliably strikes mid-run; pairing it with an
/// 8 ms stall pins the victim inside a shootdown dispatch — notified but
/// not yet acknowledged — without racing the microsecond-scale healthy
/// ack. The offline/revive window sits on [`offline_floor_us`] and
/// [`revive_floor_us`], which stretch with the machine: otherwise the
/// final round starts after the rejoin, legitimately shoots the revived
/// processor's stale entry down, and the beyond-envelope
/// `revive-no-fence` schedule passes silently.
///
/// # Panics
///
/// Panics if `n_cpus < 4` (the workload needs an initiator, a surviving
/// responder, and two distinct fault targets for the compound plans).
pub fn plan_catalog(n_cpus: usize) -> Vec<FaultSchedule> {
    assert!(n_cpus >= 4, "chaos workload needs at least 4 processors");
    let last = n_cpus as u32 - 1;
    let plan = |name: &str, events: Vec<ScheduleEvent>| FaultSchedule {
        name: name.into(),
        n_cpus,
        events,
        ..FaultSchedule::default()
    };
    let stall = |cpu, extra_us, times| ScheduleEvent::Stall {
        cpu,
        extra_us,
        times,
    };
    let halt = |cpu, at_us| ScheduleEvent::Halt { cpu, at_us };
    let offline = ScheduleEvent::Offline {
        cpu: last,
        at_us: offline_floor_us(n_cpus),
        revive_at_us: revive_floor_us(n_cpus),
    };
    vec![
        plan("none", vec![]),
        plan(
            "ipi-delay",
            vec![ScheduleEvent::Delay {
                every_nth: 2,
                extra_us: 500,
            }],
        ),
        plan(
            "ipi-dup",
            vec![ScheduleEvent::Duplicate {
                every_nth: 2,
                extra_us: 200,
            }],
        ),
        plan(
            "ipi-reorder",
            vec![ScheduleEvent::Reorder {
                every_nth: 2,
                hold_us: 300,
            }],
        ),
        plan(
            "isr-stretch",
            vec![ScheduleEvent::IsrStretch { extra_us: 800 }],
        ),
        plan("stall", vec![stall(last, 8_000, 2)]),
        FaultSchedule {
            queue_capacity: Some(1),
            ..plan("storm", vec![])
        },
        FaultSchedule {
            poison: Some(last),
            ..plan("poison", vec![])
        },
        plan(
            "ipi-drop",
            vec![ScheduleEvent::Drop {
                every_nth: 1,
                max_drops: 2,
            }],
        ),
        FaultSchedule {
            watchdog: false,
            tolerable: false,
            ..plan(
                "ipi-drop-all",
                vec![ScheduleEvent::Drop {
                    every_nth: 1,
                    max_drops: u64::MAX,
                }],
            )
        },
        // The fail-stop family. A responder frozen inside a stretched
        // shootdown dispatch — notified, never acknowledging: the
        // watchdog must exhaust its retries, evict it, and complete
        // against the reduced quorum.
        plan(
            "halt-resp-preack",
            vec![stall(last, 8_000, 1), halt(last, 2_000)],
        ),
        // The same responder dies *after* acknowledging its first
        // shootdown (mid-stall of the second): the kernel already
        // banked that ack, and only the second wait must degrade.
        plan(
            "halt-resp-postack",
            vec![stall(last, 8_000, 2), halt(last, 12_000)],
        ),
        // A processor halts while holding the test pmap's lock: the
        // initiator's liveness probe must fence-and-steal it instead of
        // spinning on a corpse.
        FaultSchedule {
            grab_lock: true,
            ..plan("halt-holder", vec![halt(last, 1_000)])
        },
        // Offline mid-shootdown, revive long after eviction: the revived
        // processor must pass the fenced rejoin before its final
        // translated write, which lands on a page reprotected read-only
        // while it was dead.
        FaultSchedule {
            final_ro: true,
            ..plan(
                "offline-revive",
                vec![stall(last, 8_000, 1), offline.clone()],
            )
        },
        // Beyond the envelope: the same revival with the fence disabled.
        // The revived processor rejoins with its pre-offline TLB intact
        // and writes through a stale writable entry — the checker must
        // flag it; a silent pass here is the suite failing.
        FaultSchedule {
            final_ro: true,
            fencing: false,
            tolerable: false,
            ..plan("revive-no-fence", vec![stall(last, 8_000, 1), offline])
        },
        // Beyond the envelope: the *initiator* halts mid-campaign. No
        // health monitor can finish its rounds for it — the run must
        // visibly fail to complete, never pass silently.
        FaultSchedule {
            tolerable: false,
            ..plan("halt-initiator", vec![halt(0, 2_000)])
        },
        // The compound-fault family (appended after the seed sixteen: the
        // topology-equivalence goldens pin the original prefix).
        //
        // Two responders frozen inside stretched dispatches and then
        // halted: the watchdog must evict both — two independent
        // stall/halt rule pairs firing in one campaign.
        plan(
            "two-halt-responders",
            vec![
                stall(last, 8_000, 1),
                stall(last - 1, 8_000, 1),
                halt(last, 2_000),
                halt(last - 1, 2_500),
            ],
        ),
        // The halted initiator again — but with a live co-initiator on
        // processor 1 that shares the rounds and raises the sentinel.
        // What was beyond the envelope alone is inside it with a
        // redundant initiator: the survivor steals the corpse's lock (or
        // simply outruns it) and the campaign completes.
        FaultSchedule {
            co_initiator: true,
            ..plan("halt-initiator-coinit", vec![halt(0, 2_000)])
        },
        // The wrongful eviction: a responder that is slow but *alive*. A
        // 100 ms dispatch stretch overshoots the watchdog's ~75 ms
        // give-up horizon, so the monitor evicts a processor that will
        // resume. The late ack must be rejected by the generation
        // handshake, and the resumed processor must detect its own
        // eviction and self-fence before its final translated write —
        // which lands on a page reprotected read-only while it was
        // presumed dead (the `final_ro` oracle).
        FaultSchedule {
            final_ro: true,
            ..plan("wrongful-evict", vec![stall(last, WRONGFUL_STALL_US, 1)])
        },
        // Beyond the envelope: the same wrongful eviction with fencing
        // disabled. The evicted-but-alive processor resumes with its
        // pre-eviction TLB intact and writes through a stale writable
        // entry — the checker must flag it; a silent pass here means a
        // wrongly evicted processor could corrupt translations for real.
        FaultSchedule {
            final_ro: true,
            fencing: false,
            tolerable: false,
            ..plan(
                "wrongful-evict-no-fence",
                vec![stall(last, WRONGFUL_STALL_US, 1)],
            )
        },
        // The FailOp loop closed end to end: a halted lock holder under
        // RecoveryPolicy::FailOp. The bare policy aborts the operation
        // with a dead-holder outcome; the FailOpDriver above it must
        // evict the corpse, reclaim its locks, and retry to completion.
        FaultSchedule {
            grab_lock: true,
            failop: true,
            ..plan("failop-dead-holder", vec![halt(last, 1_000)])
        },
    ]
}

/// The kernel configuration chaos runs use: the default kernel with the
/// watchdog timeout tightened to 5 ms so retry chains and give-ups fit in
/// a short simulated run. Healthy synchronization waits are microseconds
/// (worst ~1 ms under stretched interrupt-masked windows), so the tight
/// timeout still never fires on a fault-free run.
pub fn chaos_kconfig() -> KernelConfig {
    KernelConfig {
        watchdog: WatchdogConfig {
            timeout: Dur::millis(5),
            ..WatchdogConfig::default()
        },
        ..KernelConfig::default()
    }
}

/// One chaos run's inputs. The same config always produces a
/// bit-identical [`ChaosOutcome`].
///
/// The machine (size, seed, rounds, kernel configuration, bounds) comes
/// from the config; the schedule contributes its faults, its workload
/// shape, and its envelope. [`FaultSchedule::compile`] derives the whole
/// config from a schedule, kernel sabotage included, and is how every
/// campaign builds one; tests may adjust the result (a disabled health
/// monitor, a different strategy).
#[derive(Clone, Debug)]
pub struct ChaosConfig {
    /// Processors in the machine (>= 3).
    pub n_cpus: usize,
    /// Machine seed (device-interrupt jitter).
    pub seed: u64,
    /// Kernel configuration (see [`chaos_kconfig`]).
    pub kconfig: KernelConfig,
    /// The campaign, or `None` for a fault-free run with no injector
    /// installed at all (the zero-cost baseline).
    pub plan: Option<FaultSchedule>,
    /// Reprotect/restore rounds the initiator performs.
    pub rounds: u64,
    /// Simulated-time bound.
    pub limit: Time,
    /// Scheduler-step bound.
    pub max_steps: u64,
}

/// Everything a chaos run produced, for tables and the determinism tests.
#[derive(Clone, Debug, PartialEq)]
pub struct ChaosOutcome {
    /// The config's schedule (`None` for a bare run). Under
    /// [`FaultSchedule::compile`] the config is derived from it, so any
    /// campaign row can be written out and replayed with
    /// `machtlb replay`.
    pub schedule: Option<FaultSchedule>,
    /// Processors in the machine.
    pub n_cpus: usize,
    /// The machine seed.
    pub seed: u64,
    /// The verdict.
    pub survival: Survival,
    /// Whether the workload ran to completion (quiescent, sentinel set).
    pub completed: bool,
    /// Checker violations observed.
    pub violations: usize,
    /// Kernel counters at the end of the run.
    pub stats: KernelStats,
    /// Injected-fault counts (`None` when no plan was installed).
    pub faults: Option<FaultStats>,
    /// Bus statistics, including the per-transaction-kind split.
    pub bus: BusStats,
    /// Final per-processor clocks, for bit-identical comparisons.
    pub clocks: Vec<Time>,
    /// Scheduler steps executed.
    pub steps: u64,
    /// The machine frontier when the run ended.
    pub end: Time,
    /// The stall report, when the run did not complete.
    pub report: Option<String>,
}

impl ChaosOutcome {
    /// The schedule's name (`"baseline"` when no plan was installed).
    pub fn plan(&self) -> &str {
        self.schedule
            .as_ref()
            .map_or("baseline", |s| s.name.as_str())
    }

    /// Whether the schedule declared itself inside the tolerable envelope
    /// (a bare run always is).
    pub fn tolerable(&self) -> bool {
        self.schedule.as_ref().is_none_or(|s| s.tolerable)
    }

    /// Whether the run landed on the wrong side of its envelope: a
    /// tolerable schedule caught fatal, or a beyond-envelope schedule
    /// that was not caught.
    pub fn off_envelope(&self) -> bool {
        self.tolerable() == (self.survival == Survival::DetectedFatal)
    }
}

/// Word 0 of the counter page: the shared counter the writers increment.
const COUNTER_WORD: u64 = 0;
/// Word 1 of the counter page: the driver sets it when its rounds are
/// done, telling the writers to exit.
const SENTINEL_WORD: u64 = 1;

/// A writer that survives reprotection: it increments the counter word
/// through the pmap, alternating between the two test pages, and on a
/// fault *retries* (unlike the fail-stop writers in the consistency
/// tests) until the driver raises the sentinel.
#[derive(Debug)]
struct RetryToucher {
    pmap: PmapId,
    va: Vaddr,
    vb: Vaddr,
    sentinel_pfn: Pfn,
    counter: u64,
    final_write_done: bool,
    exit_idle: Option<ExitIdleProcess>,
    switch: Option<SwitchUserPmapProcess>,
}

impl Process<KernelState, ()> for RetryToucher {
    fn step(&mut self, ctx: &mut Ctx<'_, KernelState, ()>) -> Step {
        if let Some(exit) = self.exit_idle.as_mut() {
            return match drive(exit, ctx) {
                Driven::Yield(s) => s,
                Driven::Finished(d) => {
                    self.exit_idle = None;
                    self.switch = Some(SwitchUserPmapProcess::new(Some(self.pmap)));
                    Step::Run(d)
                }
            };
        }
        if let Some(sw) = self.switch.as_mut() {
            return match drive(sw, ctx) {
                Driven::Yield(s) => s,
                Driven::Finished(d) => {
                    self.switch = None;
                    Step::Run(d)
                }
            };
        }
        if ctx.shared.mem.read_word(self.sentinel_pfn, SENTINEL_WORD) != 0 {
            if self.final_write_done {
                return Step::Done(ctx.costs().local_op);
            }
            // One last *translated* write on the way out — the stale-
            // translation probe. A fault here is fine (a `final_ro`
            // driver leaves the page read-only); succeeding through a
            // pre-revival writable entry is the checker's to flag.
            self.final_write_done = true;
            self.counter += 1;
            return match try_access(ctx, self.pmap, self.vb, MemOp::Write(self.counter)) {
                AccessOutcome::Ok { cost, .. }
                | AccessOutcome::Stall { cost }
                | AccessOutcome::Fault { cost } => Step::Run(cost),
            };
        }
        self.counter += 1;
        let va = if self.counter.is_multiple_of(2) {
            self.vb
        } else {
            self.va
        };
        match try_access(ctx, self.pmap, va, MemOp::Write(self.counter)) {
            AccessOutcome::Ok { cost, .. } | AccessOutcome::Stall { cost } => Step::Run(cost),
            // Retry: the page is (correctly) reprotected mid-round; spin
            // until the driver restores it or raises the sentinel.
            AccessOutcome::Fault { cost } => Step::Run(cost),
        }
    }

    fn label(&self) -> &'static str {
        "retry-toucher"
    }
}

/// The initiator: waits for the writers to make progress, then reprotects
/// both test pages read-only and restores them read-write — one shootdown
/// storm per round — and finally raises the sentinel.
#[derive(Debug)]
struct ChaosDriver {
    pmap: PmapId,
    vpn_a: Vpn,
    vpn_b: Vpn,
    pfn_a: Pfn,
    pfn_b: Pfn,
    rounds: u64,
    done_rounds: u64,
    threshold: u64,
    /// Reprotect both pages read-only after the rounds, before the
    /// sentinel (the stale-translation probe of [`FaultSchedule::final_ro`]).
    final_ro: bool,
    finale_done: bool,
    /// `Some(budget)`: run every operation through a [`FailOpDriver`]
    /// with this restart budget (the [`RecoveryPolicy::FailOp`] plans).
    failop: Option<u32>,
    script: Vec<PmapOp>,
    exit_idle: Option<ExitIdleProcess>,
    running: Option<PmapOpProcess>,
    running_failop: Option<FailOpDriver>,
}

impl ChaosDriver {
    fn new(
        pmap: PmapId,
        pages: [(Vpn, Pfn); 2],
        rounds: u64,
        final_ro: bool,
        failop: Option<u32>,
    ) -> Self {
        let [(vpn_a, pfn_a), (vpn_b, pfn_b)] = pages;
        ChaosDriver {
            pmap,
            vpn_a,
            vpn_b,
            pfn_a,
            pfn_b,
            rounds,
            done_rounds: 0,
            threshold: 3,
            final_ro,
            finale_done: false,
            failop,
            script: Vec::new(),
            exit_idle: Some(ExitIdleProcess::new()),
            running: None,
            running_failop: None,
        }
    }
}

impl Process<KernelState, ()> for ChaosDriver {
    fn step(&mut self, ctx: &mut Ctx<'_, KernelState, ()>) -> Step {
        if let Some(exit) = self.exit_idle.as_mut() {
            return match drive(exit, ctx) {
                Driven::Yield(s) => s,
                Driven::Finished(d) => {
                    self.exit_idle = None;
                    Step::Run(d)
                }
            };
        }
        if self.running.is_none() && self.running_failop.is_none() && self.script.is_empty() {
            if self.done_rounds == self.rounds {
                if self.final_ro && !self.finale_done {
                    // The finale: strip write rights from both pages
                    // *before* releasing the writers, so every final
                    // write must either fault or go through a stale
                    // writable entry the checker will flag.
                    self.finale_done = true;
                    self.script = vec![
                        PmapOp::Protect {
                            range: PageRange::single(self.vpn_b),
                            prot: Prot::READ,
                        },
                        PmapOp::Protect {
                            range: PageRange::single(self.vpn_a),
                            prot: Prot::READ,
                        },
                    ];
                } else {
                    ctx.shared.mem.write_word(self.pfn_a, SENTINEL_WORD, 1);
                    return Step::Done(ctx.costs().local_op);
                }
            } else {
                let counter = ctx.shared.mem.read_word(self.pfn_a, COUNTER_WORD);
                if counter < self.threshold {
                    // The redundant-initiator exit: if the other driver
                    // already raised the sentinel, the writers are gone
                    // and the counter will never advance again — a driver
                    // that kept pacing against it (because recovery from
                    // a fault plan starved it early) would spin forever.
                    if ctx.shared.mem.read_word(self.pfn_a, SENTINEL_WORD) != 0 {
                        return Step::Done(ctx.costs().local_op);
                    }
                    return Step::Run(ctx.costs().spin_iter);
                }
                self.threshold = counter + 3;
                self.done_rounds += 1;
                // Popped back to front: protect A, protect B, restore A, B.
                self.script = vec![
                    PmapOp::Enter {
                        vpn: self.vpn_b,
                        pfn: self.pfn_b,
                        prot: Prot::READ_WRITE,
                    },
                    PmapOp::Enter {
                        vpn: self.vpn_a,
                        pfn: self.pfn_a,
                        prot: Prot::READ_WRITE,
                    },
                    PmapOp::Protect {
                        range: PageRange::single(self.vpn_b),
                        prot: Prot::READ,
                    },
                    PmapOp::Protect {
                        range: PageRange::single(self.vpn_a),
                        prot: Prot::READ,
                    },
                ];
            }
        }
        if let Some(budget) = self.failop {
            // FailOp plans: the operation rides the retry driver, which
            // turns dead-holder aborts into evict + reclaim + restart.
            if self.running_failop.is_none() {
                let op = self.script.pop().expect("script refilled above");
                self.running_failop = Some(FailOpDriver::new(self.pmap, op, budget));
            }
            return match drive(self.running_failop.as_mut().expect("set above"), ctx) {
                Driven::Yield(s) => s,
                Driven::Finished(d) => {
                    self.running_failop = None;
                    Step::Run(d)
                }
            };
        }
        if self.running.is_none() {
            let op = self.script.pop().expect("script refilled above");
            self.running = Some(PmapOpProcess::new(self.pmap, op));
        }
        match drive(self.running.as_mut().expect("set above"), ctx) {
            Driven::Yield(s) => s,
            Driven::Finished(d) => {
                self.running = None;
                Step::Run(d)
            }
        }
    }

    fn label(&self) -> &'static str {
        "chaos-driver"
    }
}

/// Takes the test pmap's lock and never releases it: the critical
/// section a fail-stop plan freezes mid-flight, leaving a dead lock
/// holder for the initiator's liveness probe to recover from.
#[derive(Debug)]
struct LockGrabber {
    pmap: PmapId,
    holding: bool,
}

impl Process<KernelState, ()> for LockGrabber {
    fn step(&mut self, ctx: &mut Ctx<'_, KernelState, ()>) -> Step {
        let me = ctx.cpu_id;
        if !self.holding {
            let lock = ctx.shared.pmaps.get_mut(self.pmap).lock_mut();
            if !lock.try_acquire(me) {
                return Step::Run(ctx.costs().spin_check());
            }
            self.holding = true;
            return Step::Run(ctx.costs().lock_acquire + ctx.bus_interlocked());
        }
        // "Work" inside the critical section until the fault plan halts
        // this processor for good.
        Step::Run(ctx.costs().local_op * 16)
    }

    fn label(&self) -> &'static str {
        "lock-grabber"
    }
}

/// Runs one chaos campaign and classifies the outcome.
///
/// The workload: writers on every processor but the first increment a
/// counter through the pmap (retrying across faults); the first processor
/// drives `rounds` reprotect/restore rounds — each a pair of shootdowns —
/// then raises a sentinel that stops the writers (each signing off with
/// one final translated write). Background device interrupts run
/// throughout. Schedules with an offline event get a
/// [`FencedRejoinProcess`] spawned on the victim at its revival instant.
/// After the run, every injected fault is stamped into the xpr stream
/// (and, when tracing, as flight-recorder marks), so chaos appears
/// alongside the measurements it perturbed.
pub fn run_chaos(cfg: &ChaosConfig) -> ChaosOutcome {
    run_chaos_with(cfg, schedule_device_interrupts).0
}

/// Runs one chaos campaign like [`run_chaos`], but hands its background
/// device activity to `background`, called as
/// `background(machine, period, until)` where [`run_chaos`] calls
/// [`schedule_device_interrupts`]; returns the finished machine too.
/// Equivalence tests use it to substitute an oracle schedule.
pub fn run_chaos_with(
    cfg: &ChaosConfig,
    background: impl FnOnce(&mut KernelMachine, Dur, Time),
) -> (ChaosOutcome, KernelMachine) {
    let plan = cfg.plan.as_ref();
    let mut m = build_kernel_machine(
        cfg.n_cpus,
        cfg.seed,
        CostModel::multimax(),
        cfg.kconfig.clone(),
    );

    let vpn_a = Vpn::new(0x40);
    let vpn_b = Vpn::new(0x48); // non-adjacent: the queue cannot coalesce
    let last = CpuId::new(cfg.n_cpus as u32 - 1);
    // The overflow storm leaves the last processor idle (with the pmap in
    // use) so consistency actions pile up in its undersized queue.
    let idle_last = plan.is_some_and(|p| p.queue_capacity.is_some());
    let (pmap, pfn_a, pfn_b) = {
        let s = m.shared_mut();
        let pmap = s.pmaps.create();
        let pfn_a = s.frames.alloc();
        let pfn_b = s.frames.alloc();
        s.seed_mapping(pmap, vpn_a, pfn_a, Prot::READ_WRITE);
        s.seed_mapping(pmap, vpn_b, pfn_b, Prot::READ_WRITE);
        if idle_last {
            s.pmaps.get_mut(pmap).mark_in_use(last);
        }
        if let Some(pc) = plan.and_then(|p| p.poison) {
            s.queues[pc as usize].poison();
            s.action_needed[pc as usize] = true;
        }
        (pmap, pfn_a, pfn_b)
    };

    let grab_lock = plan.is_some_and(|p| p.grab_lock);
    let co_initiator = plan.is_some_and(|p| p.co_initiator);
    let final_ro = plan.is_some_and(|p| p.final_ro);
    let failop = plan.filter(|p| p.failop).map(|p| p.failop_retries);
    let writers = if idle_last || grab_lock {
        cfg.n_cpus - 1
    } else {
        cfg.n_cpus
    };
    // With a co-initiator, processor 1 drives instead of writing.
    let first_writer = if co_initiator { 2 } else { 1 };
    for c in first_writer..writers {
        m.spawn_at(
            CpuId::new(c as u32),
            Time::ZERO,
            Box::new(RetryToucher {
                pmap,
                va: vpn_a.base(),
                vb: vpn_b.base(),
                sentinel_pfn: pfn_a,
                counter: 0,
                final_write_done: false,
                exit_idle: Some(ExitIdleProcess::new()),
                switch: None,
            }),
        );
    }
    if grab_lock {
        // The grabber's single-step acquisition at t=0 wins the lock
        // before the writers finish their multi-step pmap switches and
        // long before the driver's first reprotect, so every seed sees
        // the same shape: writers and initiator alike find the lock held
        // by a processor that the 1 ms halt then freezes for good.
        m.spawn_at(
            last,
            Time::ZERO,
            Box::new(LockGrabber {
                pmap,
                holding: false,
            }),
        );
    }
    m.spawn_at(
        CpuId::new(0),
        Time::ZERO,
        Box::new(ChaosDriver::new(
            pmap,
            [(vpn_a, pfn_a), (vpn_b, pfn_b)],
            cfg.rounds,
            final_ro,
            failop,
        )),
    );
    if co_initiator {
        // The redundant initiator: same rounds against the shared
        // counter, so whichever driver survives raises the sentinel.
        m.spawn_at(
            CpuId::new(1),
            Time::ZERO,
            Box::new(ChaosDriver::new(
                pmap,
                [(vpn_a, pfn_a), (vpn_b, pfn_b)],
                cfg.rounds,
                final_ro,
                failop,
            )),
        );
    }
    // A revived processor runs the rejoin protocol the instant it is
    // back; the spawned frame lands atop the frozen work, so the fence
    // (or, beyond the envelope, its absence) precedes everything else.
    let fault = plan.map(FaultSchedule::fault_plan);
    for off in fault.iter().flat_map(|f| f.offlines.iter()) {
        m.spawn_at(off.cpu, off.revive_at, Box::new(FencedRejoinProcess::new()));
    }
    background(&mut m, Dur::millis(2), Time::from_micros(50_000));

    if let Some(f) = fault {
        m.install_fault_plan(f);
    }
    let r = m.run_bounded(cfg.limit, cfg.max_steps);

    // Stamp injected faults into the measurement streams.
    let fault_log: Vec<FaultRecord> = m.fault_events().to_vec();
    stamp_faults(&mut m, &fault_log);

    let quiescent = r.status == RunStatus::Quiescent;
    let s = m.shared();
    let completed = quiescent && s.mem.read_word(pfn_a, SENTINEL_WORD) != 0;
    let violations = s.checker.violations().len();
    let stats = s.stats;
    let queue_degraded = s
        .queues
        .iter()
        .any(|q| q.poisoned() > 0 || q.overflows() > 0);
    // A give-up the health monitor answered with an eviction is recovery,
    // not failure: the run degraded but stayed consistent. Only give-ups
    // the monitor did *not* absorb (health disabled) remain fatal. An
    // exhausted FailOp driver abandoned an operation: the workload may
    // still raise its sentinel, but the campaign did not do its work —
    // that is a caught failure, never a pass.
    let caught =
        violations > 0 || stats.unrecovered() > 0 || stats.retries_exhausted > 0 || !completed;
    let degraded = stats.ipi_retries > 0
        || stats.degraded_flushes > 0
        || queue_degraded
        || stats.evictions > 0
        || stats.fenced_rejoins > 0
        || stats.locks_stolen > 0
        || stats.self_fences > 0
        || stats.ops_retried > 0;
    let survival = if caught {
        Survival::DetectedFatal
    } else if degraded {
        Survival::Degraded
    } else {
        Survival::Tolerated
    };
    let report = (!completed).then(|| stall_report(&m));
    let outcome = ChaosOutcome {
        schedule: plan.cloned(),
        n_cpus: cfg.n_cpus,
        seed: cfg.seed,
        survival,
        completed,
        violations,
        stats,
        faults: m.fault_stats(),
        bus: m.bus_stats(),
        clocks: (0..cfg.n_cpus)
            .map(|c| m.cpu(CpuId::new(c as u32)).clock())
            .collect(),
        steps: r.steps,
        end: r.frontier,
        report,
    };
    (outcome, m)
}

/// Records every injected fault into the xpr stream and, when the flight
/// recorder is tracing, as `fault` marks (argument = the fault kind's
/// stable code) under one dedicated span. Post-run stamping is safe for
/// the trace's per-processor monotonicity: the recorder sorts events by
/// timestamp before validation.
fn stamp_faults(m: &mut KernelMachine, log: &[FaultRecord]) {
    if log.is_empty() {
        return;
    }
    let s = m.shared_mut();
    for &rec in log {
        s.xpr.record(ShootdownEvent::Fault(rec));
    }
    if s.trace.is_enabled() {
        let span = s.trace.begin_span();
        for &rec in log {
            s.trace.record_arg(
                rec.cpu,
                span,
                TracePhase::Fault,
                TraceEdge::Mark,
                rec.at,
                rec.kind.code(),
            );
        }
    }
}

/// The chaos preset: the whole [`plan_catalog`] across `seeds`
/// (plan-major), with each run's seed, `rounds` and `topology` stamped
/// into its schedule.
pub fn chaos_schedules(
    n_cpus: usize,
    seeds: &[u64],
    rounds: u64,
    topology: Topology,
) -> Vec<FaultSchedule> {
    let mut out = Vec::new();
    for plan in plan_catalog(n_cpus) {
        for &seed in seeds {
            out.push(
                FaultSchedule {
                    seed,
                    rounds,
                    ..plan.clone()
                }
                .with_topology(topology),
            );
        }
    }
    out
}

/// The two-sided envelope check, the one verdict of every campaign:
/// returns one message per outcome that landed on the wrong side — a
/// tolerable plan that was caught fatal, or a beyond-envelope plan that
/// was *not* caught (the silent-pass failure mode). Empty means the
/// campaign is green.
pub fn check_envelope(outcomes: &[ChaosOutcome]) -> Vec<String> {
    outcomes
        .iter()
        .filter(|o| o.off_envelope())
        .map(|o| {
            if o.tolerable() {
                format!(
                    "plan {} seed {}: inside the envelope but detected fatal \
                     ({} violations, completed={})",
                    o.plan(),
                    o.seed,
                    o.violations,
                    o.completed
                )
            } else {
                format!(
                    "plan {} seed {}: beyond the envelope but PASSED silently ({})",
                    o.plan(),
                    o.seed,
                    o.survival.name()
                )
            }
        })
        .collect()
}

/// What a campaign's runs add up to: the soak summary, derived from the
/// outcomes alone.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CampaignTotals {
    /// Pmap operations the drivers were scripted to perform: four per
    /// round, plus the finale's two reprotects where `final_ro` arms them.
    pub ops: u64,
    /// Runs that completed (quiescent, sentinel raised).
    pub completed: u64,
    /// Checker violations across all runs.
    pub violations: u64,
    /// Watchdog give-ups not absorbed into evictions, across all runs.
    pub unrecovered: u64,
    /// Kernel counters summed across all runs.
    pub stats: KernelStats,
}

impl CampaignTotals {
    /// Sums `outcomes`.
    pub fn of(outcomes: &[ChaosOutcome]) -> CampaignTotals {
        let mut t = CampaignTotals::default();
        for o in outcomes {
            if let Some(s) = &o.schedule {
                // Saturating: `--rounds` takes any u64, and a scripted
                // count past u64::MAX reads as u64::MAX, not a wrap.
                let finale = if s.final_ro { 2 } else { 0 };
                let ops = s.rounds.saturating_mul(4).saturating_add(finale);
                t.ops = t.ops.saturating_add(ops);
            }
            t.completed += u64::from(o.completed);
            t.violations += o.violations as u64;
            t.unrecovered += o.stats.unrecovered();
            t.stats += o.stats;
        }
        t
    }
}

/// `{"name": count, …}` on one line.
fn counts<'a>(pairs: impl IntoIterator<Item = (&'a str, u64)>) -> String {
    let body: Vec<String> = pairs
        .into_iter()
        .map(|(name, v)| format!("\"{name}\": {v}"))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Renders a campaign as machine-readable JSON — the one artifact shape
/// of `machtlb chaos`, `soak` and `fuzz`, written in both verdicts so CI
/// can archive a red run. Shape (DESIGN.md §17):
///
/// ```text
/// {"campaign": name,
///  "outcomes": [{plan, cpus, seed, tolerable, survival, completed,
///                violations, …hardening counters…, steps, end_ns,
///                schedule}],
///  "totals": {runs, ops, completed, violations, unrecovered,
///             …hardening counters…},
///  "coverage": {schedules, events, wrongful_stalls, by_kind,
///               victim_roles, schedule_flags, survivals},
///  "failures": [envelope-check messages],
///  "green": bool}
/// ```
///
/// The counters are [`KernelStats::hardening`](crate::KernelStats::hardening),
/// in registry order. A row's `schedule` is the schedule it ran, in the
/// `repro.json` format ([`schedule_json`], `null` for a bare run), so
/// every row is a `machtlb replay` input. `totals` is
/// [`CampaignTotals::of`], `coverage` is [`Coverage::of`], and `green`
/// is `failures.is_empty()`, which mirrors the exit code.
pub fn campaign_json(campaign: &str, outcomes: &[ChaosOutcome], failures: &[String]) -> String {
    let sep = |i: usize, n: usize| if i + 1 == n { "" } else { "," };
    let mut s = format!(
        "{{\n  \"campaign\": \"{}\",\n  \"outcomes\": [\n",
        escape(campaign)
    );
    for (i, o) in outcomes.iter().enumerate() {
        let schedule = o.schedule.as_ref().map_or("null".into(), |p| {
            schedule_json(p).trim_end().replace('\n', "\n      ")
        });
        let _ = write!(
            s,
            "    {{\"plan\": \"{}\", \"cpus\": {}, \"seed\": {}, \"tolerable\": {}, \
             \"survival\": \"{}\", \"completed\": {}, \"violations\": {}, ",
            escape(o.plan()),
            o.n_cpus,
            o.seed,
            o.tolerable(),
            o.survival.name(),
            o.completed,
            o.violations,
        );
        for (name, v) in o.stats.hardening() {
            let _ = write!(s, "\"{name}\": {v}, ");
        }
        let _ = writeln!(
            s,
            "\"steps\": {}, \"end_ns\": {},\n      \"schedule\": {schedule}}}{}",
            o.steps,
            o.end.as_nanos(),
            sep(i, outcomes.len()),
        );
    }
    let t = CampaignTotals::of(outcomes);
    let totals = [
        ("runs", outcomes.len() as u64),
        ("ops", t.ops),
        ("completed", t.completed),
        ("violations", t.violations),
        ("unrecovered", t.unrecovered),
    ];
    let c = Coverage::of(outcomes);
    let by_kind = Coverage::KIND_NAMES.into_iter().zip(c.by_kind);
    let roles = [
        ("relay", c.relay_victims),
        ("holder", c.holder_victims),
        ("initiator", c.initiator_victims),
        ("rejoiner", c.rejoiner_victims),
    ];
    let flags = [
        ("numa", c.numa_schedules),
        ("fanout", c.fanout_schedules),
        ("grab_lock", c.grab_lock_schedules),
        ("co_initiator", c.co_initiator_schedules),
        ("failop", c.failop_schedules),
        ("final_ro", c.final_ro_schedules),
    ];
    let survivals = ["tolerated", "degraded", "detected_fatal"]
        .into_iter()
        .zip(c.survivals);
    let _ = write!(
        s,
        "  ],\n  \"totals\": {},\n  \"coverage\": {{\"schedules\": {}, \"events\": {}, \
         \"wrongful_stalls\": {},\n    \"by_kind\": {},\n    \"victim_roles\": {},\n    \
         \"schedule_flags\": {},\n    \"survivals\": {}}},\n  \"failures\": [\n",
        counts(totals.into_iter().chain(t.stats.hardening())),
        c.schedules,
        c.events,
        c.wrongful_stalls,
        counts(by_kind),
        counts(roles),
        counts(flags),
        counts(survivals),
    );
    for (i, f) in failures.iter().enumerate() {
        let _ = writeln!(s, "    \"{}\"{}", escape(f), sep(i, failures.len()));
    }
    let _ = write!(s, "  ],\n  \"green\": {}\n}}\n", failures.is_empty());
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::schedule::run_schedule;

    fn plan_for(n_cpus: usize, seed: u64, name: &str) -> FaultSchedule {
        let plan = plan_catalog(n_cpus)
            .into_iter()
            .find(|p| p.name == name)
            .expect("plan exists");
        FaultSchedule { seed, ..plan }
    }

    fn outcome_for(n_cpus: usize, seed: u64, name: &str) -> ChaosOutcome {
        run_schedule(&plan_for(n_cpus, seed, name))
    }

    /// The fault-free run with no injector installed at all.
    fn bare(seed: u64) -> ChaosConfig {
        ChaosConfig {
            plan: None,
            ..FaultSchedule {
                seed,
                ..FaultSchedule::default()
            }
            .compile()
        }
    }

    #[test]
    fn a_halted_responder_is_evicted_not_wedged() {
        // The acceptance scenario: where the PR-4 kernel could only file a
        // stall report, the health monitor now evicts the dead responder
        // and the campaign completes against the reduced quorum.
        let o = outcome_for(4, 3, "halt-resp-preack");
        assert_eq!(o.survival, Survival::Degraded, "{o:?}");
        assert!(o.completed, "{o:?}");
        assert_eq!(o.violations, 0);
        assert_eq!(o.stats.watchdog_gaveup, 1, "{o:?}");
        assert_eq!(o.stats.evictions, 1, "{o:?}");
    }

    #[test]
    fn a_post_ack_halt_degrades_only_the_later_wait() {
        let o = outcome_for(4, 3, "halt-resp-postack");
        assert_eq!(o.survival, Survival::Degraded, "{o:?}");
        assert!(o.completed, "{o:?}");
        assert_eq!(o.violations, 0);
        assert_eq!(o.stats.evictions, 1, "{o:?}");
    }

    #[test]
    fn a_dead_lock_holder_is_fenced_and_stolen() {
        let o = outcome_for(4, 3, "halt-holder");
        assert_eq!(o.survival, Survival::Degraded, "{o:?}");
        assert!(o.completed, "{o:?}");
        assert_eq!(o.violations, 0);
        assert!(o.stats.locks_stolen >= 1, "{o:?}");
        assert_eq!(o.stats.watchdog_gaveup, 0, "the wait never armed: {o:?}");
    }

    #[test]
    fn a_revived_processor_rejoins_through_the_fence() {
        let o = outcome_for(4, 3, "offline-revive");
        assert_eq!(o.survival, Survival::Degraded, "{o:?}");
        assert!(o.completed, "{o:?}");
        assert_eq!(o.violations, 0, "the fence blocks every stale use: {o:?}");
        assert_eq!(o.stats.evictions, 1, "{o:?}");
        assert_eq!(o.stats.fenced_rejoins, 1, "{o:?}");
    }

    #[test]
    fn an_unfenced_revival_is_caught_by_the_checker() {
        // Fencing off, same fault: the revived processor's final write
        // goes through a pre-offline writable entry for a page that was
        // reprotected read-only while it was dead. The checker must flag
        // it — this plan passing silently is the suite failing.
        let o = outcome_for(4, 3, "revive-no-fence");
        assert_eq!(o.survival, Survival::DetectedFatal, "{o:?}");
        assert!(o.violations >= 1, "{o:?}");
        assert_eq!(
            o.stats.fenced_rejoins, 1,
            "the unfenced shortcut still rejoins"
        );
    }

    #[test]
    fn a_halted_initiator_is_caught_not_silent() {
        let o = outcome_for(4, 3, "halt-initiator");
        assert_eq!(o.survival, Survival::DetectedFatal, "{o:?}");
        assert!(!o.completed, "the campaign must visibly never finish");
        let report = o.report.as_deref().expect("a stall report is attached");
        assert!(report.contains("stall report"), "{report}");
    }

    #[test]
    fn fail_stop_recovery_replays_bit_identically() {
        for name in [
            "halt-resp-preack",
            "halt-holder",
            "offline-revive",
            "revive-no-fence",
        ] {
            let a = outcome_for(4, 5, name);
            let b = outcome_for(4, 5, name);
            assert_eq!(a, b, "fail-stop chaos must replay exactly ({name})");
        }
    }

    #[test]
    fn two_halted_responders_are_both_evicted() {
        // Compound fail-stop: two responders frozen mid-dispatch and
        // halted. The watchdog must evict both and the campaign must
        // still finish against the doubly reduced quorum.
        let o = outcome_for(4, 3, "two-halt-responders");
        assert_eq!(o.survival, Survival::Degraded, "{o:?}");
        assert!(o.completed, "{o:?}");
        assert_eq!(o.violations, 0);
        assert_eq!(o.stats.evictions, 2, "{o:?}");
        assert_eq!(o.stats.watchdog_gaveup, o.stats.evictions, "{o:?}");
    }

    #[test]
    fn a_live_co_initiator_finishes_for_a_halted_one() {
        // The halted-initiator fault that is fatal alone is inside the
        // envelope with a redundant initiator: the survivor raises the
        // sentinel and the campaign completes consistently.
        let o = outcome_for(4, 3, "halt-initiator-coinit");
        assert_ne!(o.survival, Survival::DetectedFatal, "{o:?}");
        assert!(o.completed, "{o:?}");
        assert_eq!(o.violations, 0);
    }

    #[test]
    fn a_wrongful_eviction_is_survived_through_the_self_fence() {
        // A slow-but-alive responder overshoots the watchdog horizon and
        // is wrongly evicted. On resuming it must detect its own eviction
        // and self-fence; the final-reprotect oracle (stale writable
        // entry vs read-only page table) proves the fence ran.
        let o = outcome_for(4, 3, "wrongful-evict");
        assert_eq!(o.survival, Survival::Degraded, "{o:?}");
        assert!(o.completed, "{o:?}");
        assert_eq!(o.violations, 0, "the self-fence blocks stale use: {o:?}");
        assert_eq!(o.stats.evictions, 1, "{o:?}");
        assert!(o.stats.self_fences >= 1, "{o:?}");
        assert!(o.stats.fenced_rejoins >= 1, "{o:?}");
        assert_eq!(
            o.stats.watchdog_gaveup, o.stats.evictions,
            "every give-up was absorbed: {o:?}"
        );
    }

    #[test]
    fn an_unfenced_wrongful_eviction_is_caught_by_the_checker() {
        // Fencing off, same wrongful eviction: the evicted-but-alive
        // processor resumes with its stale writable entry and the final
        // write must be flagged — this is the oracle that proves the
        // tolerable variant's fence is load-bearing.
        let o = outcome_for(4, 3, "wrongful-evict-no-fence");
        assert_eq!(o.survival, Survival::DetectedFatal, "{o:?}");
        assert!(o.violations >= 1, "{o:?}");
    }

    #[test]
    fn failop_driver_retries_past_a_dead_lock_holder() {
        // FailOp end to end: the policy alone aborts against the halted
        // holder; the retry driver must evict the corpse, reclaim its
        // lock, and rerun the operation to completion.
        let o = outcome_for(4, 3, "failop-dead-holder");
        assert_eq!(o.survival, Survival::Degraded, "{o:?}");
        assert!(o.completed, "{o:?}");
        assert_eq!(o.violations, 0);
        assert!(o.stats.ops_retried >= 1, "{o:?}");
        assert_eq!(o.stats.retries_exhausted, 0, "{o:?}");
        assert!(o.stats.locks_stolen >= 1, "{o:?}");
    }

    #[test]
    fn an_exhausted_failop_budget_is_caught_not_silent() {
        // With a zero restart budget the driver abandons the operation.
        // The sentinel may still rise, but the campaign must classify as
        // caught — the CI red-exit gate rides on this.
        let mut plan = plan_for(4, 3, "failop-dead-holder");
        plan.failop_retries = 0;
        let o = run_schedule(&plan);
        assert_eq!(o.survival, Survival::DetectedFatal, "{o:?}");
        assert!(o.stats.retries_exhausted >= 1, "{o:?}");
    }

    #[test]
    fn compound_plans_replay_bit_identically() {
        for name in [
            "two-halt-responders",
            "halt-initiator-coinit",
            "wrongful-evict",
            "wrongful-evict-no-fence",
            "failop-dead-holder",
        ] {
            let a = outcome_for(4, 5, name);
            let b = outcome_for(4, 5, name);
            assert_eq!(a, b, "compound chaos must replay exactly ({name})");
        }
    }

    #[test]
    fn campaign_json_rows_carry_cpu_count_and_the_row_schedule() {
        let outcomes = vec![outcome_for(4, 3, "wrongful-evict")];
        let json = campaign_json("chaos", &outcomes, &[]);
        assert!(json.contains("\"cpus\": 4"), "{json}");
        // The provenance column is the row's schedule as it ran: seed 3,
        // parseable back by the replay reader.
        let doc = machtlb_xpr::json::Json::parse(&json).expect("valid json");
        assert_eq!(doc.str_field("campaign"), Ok("chaos"));
        let row = &doc.array_field("outcomes").expect("outcomes")[0];
        let schedule = crate::schedule_from_json(row.field("schedule").expect("schedule"))
            .expect("the row's schedule parses");
        assert_eq!(Some(&schedule), outcomes[0].schedule.as_ref());
        assert_eq!(schedule.seed, 3);
        assert!(json.contains("\"late_acks_rejected\":"), "{json}");
        assert!(json.contains("\"self_fences\":"), "{json}");
        assert!(json.contains("\"ops_retried\":"), "{json}");
        assert!(json.contains("\"retries_exhausted\":"), "{json}");
    }

    #[test]
    fn campaign_json_mirrors_the_envelope_verdict() {
        let outcomes = vec![
            outcome_for(4, 3, "none"),
            outcome_for(4, 3, "halt-resp-preack"),
        ];
        let failures = check_envelope(&outcomes);
        let json = campaign_json("chaos", &outcomes, &failures);
        assert!(failures.is_empty(), "{failures:?}");
        assert!(json.contains("\"green\": true"), "{json}");
        assert!(json.contains("\"plan\": \"halt-resp-preack\""), "{json}");
        assert!(json.contains("\"evictions\": 1"), "{json}");
        let failure = "plan x seed 1: \"bad\"".to_string();
        let red = campaign_json("chaos", &outcomes, std::slice::from_ref(&failure));
        assert!(red.contains("\"green\": false"), "{red}");
        let doc = machtlb_xpr::json::Json::parse(&red).expect("valid json");
        let failures = doc.array_field("failures").expect("failures");
        assert_eq!(failures[0].as_str(), Some(failure.as_str()));
        let totals = doc.field("totals").expect("totals");
        assert_eq!(totals.u64_field("runs"), Ok(2));
        assert_eq!(totals.u64_field("evictions"), Ok(1));
    }

    #[test]
    fn fault_free_run_is_tolerated() {
        let o = run_chaos(&bare(7));
        assert_eq!(o.survival, Survival::Tolerated, "{o:?}");
        assert!(o.completed);
        assert_eq!(o.violations, 0);
        assert!(o.stats.shootdowns_user >= 3, "one storm per round");
        assert!(o.faults.is_none());
    }

    #[test]
    fn uninstalled_and_none_plan_are_bit_identical() {
        // The zero-cost claim: installing a plan with every rule off must
        // not move a single clock edge or counter.
        let bare = run_chaos(&bare(11));
        let none = outcome_for(4, 11, "none");
        assert_eq!(bare.clocks, none.clocks);
        assert_eq!(bare.stats, none.stats);
        assert_eq!(bare.bus, none.bus);
        assert_eq!(bare.steps, none.steps);
        assert_eq!(bare.end, none.end);
        assert_eq!(bare.survival, none.survival);
        assert_eq!(none.faults, Some(FaultStats::default()));
    }

    #[test]
    fn same_config_replays_bit_identically() {
        for name in ["ipi-drop", "stall", "ipi-delay"] {
            let a = outcome_for(4, 5, name);
            let b = outcome_for(4, 5, name);
            assert_eq!(a, b, "chaos must replay exactly ({name})");
        }
    }

    #[test]
    fn dropped_ipis_are_recovered_by_the_watchdog() {
        let o = outcome_for(4, 3, "ipi-drop");
        assert_eq!(o.survival, Survival::Degraded, "{o:?}");
        assert!(o.stats.ipi_retries >= 1, "{o:?}");
        assert_eq!(o.violations, 0);
        assert!(o.completed);
        assert_eq!(o.faults.expect("plan installed").dropped, 2);
    }

    #[test]
    fn a_stalled_responder_triggers_retries_but_completes() {
        let o = outcome_for(4, 3, "stall");
        assert_eq!(o.survival, Survival::Degraded, "{o:?}");
        assert!(o.stats.ipi_retries >= 1, "{o:?}");
        assert!(o.completed);
    }

    #[test]
    fn queue_overflow_storm_degrades_to_full_flush() {
        let o = outcome_for(4, 3, "storm");
        assert_eq!(o.survival, Survival::Degraded, "{o:?}");
        assert!(o.completed, "{o:?}");
    }

    #[test]
    fn poisoned_queue_degrades_and_stays_consistent() {
        let o = outcome_for(4, 3, "poison");
        assert_eq!(o.survival, Survival::Degraded, "{o:?}");
        assert!(o.stats.degraded_flushes >= 1, "{o:?}");
        assert_eq!(o.violations, 0);
    }

    #[test]
    fn unwatched_total_ipi_loss_is_caught_not_silent() {
        let o = outcome_for(4, 3, "ipi-drop-all");
        assert_eq!(o.survival, Survival::DetectedFatal, "{o:?}");
        assert!(!o.completed, "the initiator must visibly hang");
        let report = o.report.as_deref().expect("a stall report is attached");
        assert!(report.contains("stall report"), "{report}");
    }

    #[test]
    fn faults_are_stamped_into_the_xpr_stream() {
        let mut cfg = plan_for(4, 9, "ipi-delay").compile();
        cfg.kconfig.trace_shootdowns = true;
        let o = run_chaos(&cfg);
        let injected = o.faults.expect("plan installed").total();
        assert!(injected > 0, "the delay rule must have fired");
    }

    #[test]
    fn envelope_check_flags_both_polarities() {
        let mut good = outcome_for(4, 7, "none");
        assert!(check_envelope(std::slice::from_ref(&good)).is_empty());
        // A tolerable outcome reported fatal must be flagged...
        good.survival = Survival::DetectedFatal;
        assert_eq!(check_envelope(std::slice::from_ref(&good)).len(), 1);
        // ...and a beyond-envelope outcome that passed must be flagged.
        good.survival = Survival::Tolerated;
        good.schedule.as_mut().expect("a plan ran").tolerable = false;
        let msgs = check_envelope(std::slice::from_ref(&good));
        assert_eq!(msgs.len(), 1);
        assert!(msgs[0].contains("PASSED silently"), "{}", msgs[0]);
    }

    #[test]
    fn campaign_totals_saturate_on_huge_round_counts() {
        let small = outcome_for(4, 7, "none");
        let mut huge = small.clone();
        let s = huge.schedule.as_mut().expect("a plan ran");
        s.rounds = u64::MAX;
        s.final_ro = true;
        let t = CampaignTotals::of(&[small.clone(), huge]);
        assert_eq!(t.ops, u64::MAX);
        assert_eq!(t.completed, 2);
        assert_eq!(CampaignTotals::of(&[small]).ops, 4 * 3);
    }
}
