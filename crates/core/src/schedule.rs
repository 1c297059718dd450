//! The one fault description: a [`FaultSchedule`] is a machine shape,
//! the kernel-side sabotage flags, and a list of timed fault events.
//!
//! Every fault campaign in the repository is a schedule: the chaos
//! catalog ([`plan_catalog`](crate::plan_catalog)), the soak harness's
//! rotating shapes, the fuzzer's generated schedules, and the committed
//! reproductions under `tests/data/`. A schedule turns into the machine
//! layer's [`FaultPlan`] in exactly one place ([`FaultSchedule::fault_plan`]),
//! serializes losslessly ([`schedule_json`] / [`parse_schedule`]), and
//! replays bit-identically ([`run_schedule`]): every fault is counter- or
//! time-triggered, never randomly drawn at run time.
//!
//! [`run_campaign`] is the one campaign engine: `machtlb chaos`, `soak`
//! and `fuzz` only generate schedules, and every one of them runs here,
//! under the bounds of [`FaultSchedule::compile`].

use std::fmt::Write as _;

use machtlb_sim::{
    CpuId, Dur, FaultPlan, Halt, IpiDelay, IpiDrop, IpiDuplicate, IpiReorder, IsrStretch, Offline,
    ResponderStall, Time, Topology,
};
use machtlb_xpr::json::{escape, Json};

use crate::chaos::{chaos_kconfig, run_chaos, ChaosConfig, ChaosOutcome};
use crate::health::RecoveryPolicy;
use crate::kernel::SHOOTDOWN_VECTOR;

/// A dispatch stretch at or beyond this length overshoots the chaos
/// watchdog's give-up horizon: the stalled-but-alive victim is wrongly
/// evicted and must self-fence on resume — the wrongful-eviction trigger.
pub const WRONGFUL_STALL_US: u64 = 100_000;

/// The largest machine a schedule may describe: four times the biggest
/// any harness builds. A schedule can arrive from a hand-edited file, and
/// the machine is allocated before it runs.
pub const MAX_SCHEDULE_CPUS: usize = 4096;

/// One timed fault event inside a [`FaultSchedule`]. All instants and
/// durations are integral microseconds, so serialization is lossless.
///
/// The five IPI/dispatch perturbation rules (`Delay` … `IsrStretch`) are
/// *singletons*: the machine layer holds at most one of each, and
/// [`FaultSchedule::validate`] rejects duplicates. The processor-targeted
/// rules (`Stall`, `Halt`, `Offline`) are event lists — a schedule arms
/// as many as it likes, against as many victims as it likes, with at
/// most one fail-stop (`Halt` or `Offline`) per victim.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ScheduleEvent {
    /// Delay every `every_nth` shootdown IPI by `extra_us`.
    Delay {
        /// Fire on every `every_nth` matching send (1 = all).
        every_nth: u64,
        /// Extra delivery latency, microseconds.
        extra_us: u64,
    },
    /// Drop every `every_nth` shootdown IPI, `max_drops` in total.
    Drop {
        /// Fire on every `every_nth` matching send (1 = all).
        every_nth: u64,
        /// Total drops across the run.
        max_drops: u64,
    },
    /// Deliver every `every_nth` shootdown IPI twice.
    Duplicate {
        /// Fire on every `every_nth` matching send (1 = all).
        every_nth: u64,
        /// How much later the duplicate copy lands, microseconds.
        extra_us: u64,
    },
    /// Hold every `every_nth` shootdown IPI back so later sends pass it.
    Reorder {
        /// Fire on every `every_nth` matching send (1 = all).
        every_nth: u64,
        /// How long the held delivery waits, microseconds.
        hold_us: u64,
    },
    /// Stretch every device-class dispatch (long interrupt-masked
    /// windows on responders).
    IsrStretch {
        /// Extra entry cost per dispatch, microseconds.
        extra_us: u64,
    },
    /// Stall `cpu`'s next `times` shootdown dispatches by `extra_us`
    /// each. At [`WRONGFUL_STALL_US`] and beyond this is the
    /// wrongful-eviction trigger.
    Stall {
        /// The stalled processor.
        cpu: u32,
        /// Extra dispatch cost per stalled dispatch, microseconds.
        extra_us: u64,
        /// Dispatches stalled before the rule exhausts.
        times: u64,
    },
    /// Fail-stop `cpu` forever at `at_us`.
    Halt {
        /// The halted processor.
        cpu: u32,
        /// The halt instant, microseconds.
        at_us: u64,
    },
    /// Take `cpu` offline at `at_us` and revive it (through the fenced
    /// rejoin) at `revive_at_us`.
    Offline {
        /// The processor taken offline.
        cpu: u32,
        /// The offline instant, microseconds.
        at_us: u64,
        /// The revival instant, microseconds (must be later).
        revive_at_us: u64,
    },
}

impl ScheduleEvent {
    /// The event's kind name, as serialized in the JSON `kind` field.
    pub fn kind(&self) -> &'static str {
        match self {
            ScheduleEvent::Delay { .. } => "delay",
            ScheduleEvent::Drop { .. } => "drop",
            ScheduleEvent::Duplicate { .. } => "duplicate",
            ScheduleEvent::Reorder { .. } => "reorder",
            ScheduleEvent::IsrStretch { .. } => "isr-stretch",
            ScheduleEvent::Stall { .. } => "stall",
            ScheduleEvent::Halt { .. } => "halt",
            ScheduleEvent::Offline { .. } => "offline",
        }
    }

    /// The targeted processor, for the cpu-targeted kinds.
    pub fn cpu(&self) -> Option<u32> {
        match *self {
            ScheduleEvent::Stall { cpu, .. }
            | ScheduleEvent::Halt { cpu, .. }
            | ScheduleEvent::Offline { cpu, .. } => Some(cpu),
            _ => None,
        }
    }

    pub(crate) fn is_fail_stop(&self) -> bool {
        matches!(
            self,
            ScheduleEvent::Halt { .. } | ScheduleEvent::Offline { .. }
        )
    }

    /// The event's numeric fields, in serialization order.
    fn fields(&self) -> Vec<(&'static str, u64)> {
        match *self {
            ScheduleEvent::Delay {
                every_nth,
                extra_us,
            }
            | ScheduleEvent::Duplicate {
                every_nth,
                extra_us,
            } => vec![("every_nth", every_nth), ("extra_us", extra_us)],
            ScheduleEvent::Drop {
                every_nth,
                max_drops,
            } => vec![("every_nth", every_nth), ("max_drops", max_drops)],
            ScheduleEvent::Reorder { every_nth, hold_us } => {
                vec![("every_nth", every_nth), ("hold_us", hold_us)]
            }
            ScheduleEvent::IsrStretch { extra_us } => vec![("extra_us", extra_us)],
            ScheduleEvent::Stall {
                cpu,
                extra_us,
                times,
            } => vec![
                ("cpu", cpu.into()),
                ("extra_us", extra_us),
                ("times", times),
            ],
            ScheduleEvent::Halt { cpu, at_us } => vec![("cpu", cpu.into()), ("at_us", at_us)],
            ScheduleEvent::Offline {
                cpu,
                at_us,
                revive_at_us,
            } => vec![
                ("cpu", cpu.into()),
                ("at_us", at_us),
                ("revive_at_us", revive_at_us),
            ],
        }
    }
}

/// A complete, self-contained fault campaign: machine shape, kernel
/// sabotage flags, and the fault-event list. Runs through
/// [`FaultSchedule::compile`] ([`run_schedule`]); serializes via
/// [`schedule_json`]; replays bit-identically.
///
/// [`FaultSchedule::default`] is the fault-free 4-processor campaign with
/// every flag at its default; the serializer writes the optional fields
/// (`name`, `node_cpus`, `remote_latency_us`, `watchdog`,
/// `queue_capacity`, `poison`, `failop_retries`) only when they differ
/// from it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultSchedule {
    /// Short name for tables and test output (empty for generated
    /// schedules).
    pub name: String,
    /// The machine seed (device-interrupt jitter).
    pub seed: u64,
    /// Processors in the machine (>= 4).
    pub n_cpus: usize,
    /// Reprotect/restore rounds the driver performs.
    pub rounds: u64,
    /// NUMA nodes (1 = the flat single-bus machine).
    pub nodes: usize,
    /// Processors per node; `None` is `n_cpus.div_ceil(nodes)`. Only
    /// meaningful with `nodes > 1` (the last node absorbs any surplus).
    pub node_cpus: Option<usize>,
    /// Microseconds added to every interconnect crossing. Only
    /// meaningful with `nodes > 1`.
    pub remote_latency_us: u64,
    /// Multicast IPI fanout degree (1 = the paper's unicast loop).
    pub fanout: usize,
    /// Whether eviction/rejoin fencing is enabled. `false` is the
    /// beyond-envelope sabotage used by known-bad schedules.
    pub fencing: bool,
    /// Arm the final read-only reprotect before the sentinel — the
    /// stale-translation probe for revived and self-fencing victims.
    pub final_ro: bool,
    /// Park a never-releasing lock holder on the last processor (which
    /// the schedule must then fail-stop).
    pub grab_lock: bool,
    /// Run a redundant co-initiating driver on processor 1, so the
    /// campaign completes even if processor 0 is fail-stopped.
    pub co_initiator: bool,
    /// Recover dead lock holders through
    /// [`RecoveryPolicy::FailOp`](crate::RecoveryPolicy::FailOp) (the
    /// retry driver) instead of the default fence-and-steal.
    pub failop: bool,
    /// Whether the schedule is declared inside the tolerable envelope: a
    /// red run on a tolerable schedule is a finding, a green run on an
    /// intolerable one is a silent pass.
    pub tolerable: bool,
    /// Whether the initiator watchdog is armed. Turned off only by
    /// beyond-envelope schedules, to prove a lost IPI without the
    /// watchdog is caught rather than silently survived.
    pub watchdog: bool,
    /// Override the per-processor action-queue capacity (the overflow
    /// storm). When set, the workload also leaves the last processor idle
    /// with the pmap in use, so actions pile up in its queue.
    pub queue_capacity: Option<usize>,
    /// Poison this processor's action queue before the run starts
    /// (models queue corruption found by the check gate).
    pub poison: Option<u32>,
    /// The FailOp driver's restart budget (only meaningful with
    /// `failop`).
    pub failop_retries: u32,
    /// The fault events.
    pub events: Vec<ScheduleEvent>,
}

impl Default for FaultSchedule {
    fn default() -> FaultSchedule {
        FaultSchedule {
            name: String::new(),
            seed: 0,
            n_cpus: 4,
            rounds: 3,
            nodes: 1,
            node_cpus: None,
            remote_latency_us: 4,
            fanout: 1,
            fencing: true,
            final_ro: false,
            grab_lock: false,
            co_initiator: false,
            failop: false,
            tolerable: true,
            watchdog: true,
            queue_capacity: None,
            poison: None,
            failop_retries: 3,
            events: Vec::new(),
        }
    }
}

/// The revival instant floor, scaled with machine size: the revival
/// must land after the finale's reprotect or the stale-translation probe
/// never probes anything. 120 ms was tuned on small machines; bus
/// serialization stretches campaign time roughly linearly with the
/// processor count, so beyond 28 processors the floor stretches with it.
pub fn revive_floor_us(n_cpus: usize) -> u64 {
    120_000u64.max(50_000 + 2_500 * n_cpus as u64)
}

/// The offline/halt instant floor: the victim must have won the
/// serialized bus and cached its stale entry before it can die holding
/// one (at 2 ms a 128-processor machine's last writer is still queued
/// behind the other 126).
pub fn offline_floor_us(n_cpus: usize) -> u64 {
    2_000u64.max(100 * n_cpus as u64)
}

impl FaultSchedule {
    /// The distinct processors targeted by cpu-targeted events, sorted.
    pub fn victims(&self) -> Vec<u32> {
        let mut v: Vec<u32> = self.events.iter().filter_map(|e| e.cpu()).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Structural validity: every event names a live processor, budgets
    /// and instants are sane, singleton rules are not duplicated, no
    /// victim is fail-stopped twice, and the sabotage flags are
    /// self-consistent (a parked lock holder must actually be
    /// fail-stopped or the drivers spin on a live holder forever).
    ///
    /// Processor 0 is the primary driver: only a beyond-envelope schedule
    /// or one with a co-initiator may fail-stop it, and nothing may stall
    /// it.
    pub fn validate(&self) -> Result<(), String> {
        if !(4..=MAX_SCHEDULE_CPUS).contains(&self.n_cpus) {
            return Err(format!(
                "n_cpus {} outside 4..={MAX_SCHEDULE_CPUS}",
                self.n_cpus
            ));
        }
        if self.rounds == 0 {
            return Err("rounds must be at least 1".into());
        }
        if self.fanout == 0 {
            return Err("fanout must be at least 1".into());
        }
        Topology::checked(
            self.n_cpus,
            self.nodes,
            self.node_cpus,
            self.remote_latency_us,
        )
        .map_err(|e| format!("topology: {e}"))?;
        if self.queue_capacity == Some(0) {
            return Err("queue_capacity must be at least 1".into());
        }
        if let Some(cpu) = self.poison.filter(|&p| p as usize >= self.n_cpus) {
            return Err(format!("poison targets cpu{cpu} out of range"));
        }
        let last = self.n_cpus as u32 - 1;
        let mut seen_singleton: Vec<&'static str> = Vec::new();
        let mut fail_stopped: Vec<u32> = Vec::new();
        for e in &self.events {
            if e.cpu().is_none() {
                if seen_singleton.contains(&e.kind()) {
                    return Err(format!("duplicate singleton rule: {}", e.kind()));
                }
                seen_singleton.push(e.kind());
            }
            if let Some(cpu) = e.cpu() {
                let may_kill_driver = !self.tolerable || self.co_initiator;
                if cpu == 0 && !(e.is_fail_stop() && may_kill_driver) {
                    return Err(format!(
                        "{} targets cpu0, the primary driver (only a beyond-envelope \
                         or co-initiated schedule may fail-stop it)",
                        e.kind()
                    ));
                }
                if cpu as usize >= self.n_cpus {
                    return Err(format!("{} targets cpu{cpu} out of range", e.kind()));
                }
                if e.is_fail_stop() {
                    if fail_stopped.contains(&cpu) {
                        return Err(format!("cpu{cpu} fail-stopped twice"));
                    }
                    fail_stopped.push(cpu);
                }
            }
            // Microsecond fields become nanoseconds on the simulated
            // clock; refuse any that would overflow it.
            if let Some((key, us)) = e
                .fields()
                .into_iter()
                .find(|&(key, us)| key.ends_with("_us") && us.checked_mul(1_000).is_none())
            {
                return Err(format!("{}: {key} {us} overflows the clock", e.kind()));
            }
            match *e {
                ScheduleEvent::Delay { every_nth: 0, .. }
                | ScheduleEvent::Drop { every_nth: 0, .. }
                | ScheduleEvent::Duplicate { every_nth: 0, .. }
                | ScheduleEvent::Reorder { every_nth: 0, .. } => {
                    return Err(format!("{}: every_nth must be > 0", e.kind()));
                }
                ScheduleEvent::Stall { times: 0, .. } => {
                    return Err("stall: times must be > 0".into());
                }
                ScheduleEvent::Offline {
                    at_us,
                    revive_at_us,
                    ..
                } if revive_at_us <= at_us => {
                    return Err("offline: revive_at_us must be after at_us".into());
                }
                _ => {}
            }
        }
        if self.grab_lock && !fail_stopped.contains(&last) {
            return Err(format!(
                "grab_lock parks a never-releasing holder on cpu{last}, which \
                 must be fail-stopped or every driver spins on it forever"
            ));
        }
        Ok(())
    }

    /// The machine-layer fault plan the events arm, targeting the
    /// shootdown vector: the one place a schedule becomes a
    /// [`FaultPlan`]. Cpu-targeted events keep their order.
    pub fn fault_plan(&self) -> FaultPlan {
        let mut fault = FaultPlan::none(SHOOTDOWN_VECTOR);
        for e in &self.events {
            match *e {
                ScheduleEvent::Delay {
                    every_nth,
                    extra_us,
                } => {
                    fault.delay = Some(IpiDelay {
                        every_nth,
                        extra: Dur::micros(extra_us),
                    });
                }
                ScheduleEvent::Drop {
                    every_nth,
                    max_drops,
                } => {
                    fault.drop = Some(IpiDrop {
                        every_nth,
                        max_drops,
                    });
                }
                ScheduleEvent::Duplicate {
                    every_nth,
                    extra_us,
                } => {
                    fault.duplicate = Some(IpiDuplicate {
                        every_nth,
                        extra: Dur::micros(extra_us),
                    });
                }
                ScheduleEvent::Reorder { every_nth, hold_us } => {
                    fault.reorder = Some(IpiReorder {
                        every_nth,
                        hold: Dur::micros(hold_us),
                    });
                }
                ScheduleEvent::IsrStretch { extra_us } => {
                    fault.isr_stretch = Some(IsrStretch {
                        extra: Dur::micros(extra_us),
                    });
                }
                ScheduleEvent::Stall {
                    cpu,
                    extra_us,
                    times,
                } => {
                    fault.stalls.push(ResponderStall {
                        cpu: CpuId::new(cpu),
                        extra: Dur::micros(extra_us),
                        times,
                    });
                }
                ScheduleEvent::Halt { cpu, at_us } => {
                    fault.halts.push(Halt {
                        cpu: CpuId::new(cpu),
                        at: Time::from_micros(at_us),
                    });
                }
                ScheduleEvent::Offline {
                    cpu,
                    at_us,
                    revive_at_us,
                } => {
                    fault.offlines.push(Offline {
                        cpu: CpuId::new(cpu),
                        at: Time::from_micros(at_us),
                        revive_at: Time::from_micros(revive_at_us),
                    });
                }
            }
        }
        fault
    }

    /// The machine topology the schedule describes.
    ///
    /// # Panics
    ///
    /// Panics if the shape is one [`FaultSchedule::validate`] refuses.
    pub fn topology(&self) -> Topology {
        Topology::checked(
            self.n_cpus,
            self.nodes,
            self.node_cpus,
            self.remote_latency_us,
        )
        .unwrap_or_else(|e| panic!("invalid schedule topology: {e}"))
    }

    /// The schedule on `topology`'s machine, the inverse of
    /// [`FaultSchedule::topology`]; a flat topology leaves the schedule
    /// as it is. The node size is kept only when it differs from the even
    /// split, and the latency in whole microseconds, so an evenly split
    /// machine at the default latency serializes exactly as before.
    pub fn with_topology(self, t: Topology) -> FaultSchedule {
        if t.is_flat() {
            return self;
        }
        FaultSchedule {
            nodes: t.nodes(),
            node_cpus: (t.node_cpus() != self.n_cpus.div_ceil(t.nodes())).then_some(t.node_cpus()),
            remote_latency_us: t.remote_latency().as_nanos() / 1_000,
            ..self
        }
    }

    /// Compiles the schedule into the runnable [`ChaosConfig`]: the
    /// schedule's own machine shape under the campaign bounds. This is
    /// the one bounds formula — every campaign, `machtlb replay`, the
    /// fuzzer and the shrinker run under it, so any campaign row
    /// replays exactly.
    pub fn compile(&self) -> ChaosConfig {
        // Dead victims are given up on sequentially, ~75 ms of watchdog
        // horizon each, and every wrongful stall adds its own stretch
        // before the victim self-fences — so the wall-clock budget must
        // scale with the fail-stop count, not just the machine size.
        let fail_stops = self.events.iter().filter(|e| e.is_fail_stop()).count() as u64;
        let wrongful = self
            .events
            .iter()
            .filter(|e| {
                matches!(e, ScheduleEvent::Stall { extra_us, .. } if *extra_us >= WRONGFUL_STALL_US)
            })
            .count() as u64;
        let max_steps = 8_000_000 + self.n_cpus as u64 * 750_000;
        let limit = Time::from_micros(
            300_000 + self.n_cpus as u64 * 6_000 + 90_000 * fail_stops + 150_000 * wrongful,
        );
        let mut kconfig = chaos_kconfig();
        kconfig.topology = self.topology();
        kconfig.fanout = self.fanout;
        kconfig.watchdog.enabled = self.watchdog;
        kconfig.health.fencing = self.fencing;
        if self.failop {
            kconfig.health.policy = RecoveryPolicy::FailOp;
        }
        if let Some(cap) = self.queue_capacity {
            kconfig.action_queue_capacity = cap;
        }
        ChaosConfig {
            n_cpus: self.n_cpus,
            seed: self.seed,
            kconfig,
            plan: Some(self.clone()),
            rounds: self.rounds,
            limit,
            max_steps,
        }
    }
}

/// Runs one schedule to its [`ChaosOutcome`] under
/// [`FaultSchedule::compile`]'s bounds — the `machtlb replay` runner.
pub fn run_schedule(s: &FaultSchedule) -> ChaosOutcome {
    run_chaos(&s.compile())
}

/// The one campaign engine: runs each schedule through [`run_schedule`],
/// in order, pulling the next only after the last has finished (so a
/// lazily generated campaign, like a duration-bounded soak, sees the
/// time spent). The presets only generate schedules:
/// [`chaos_schedules`](crate::chaos_schedules),
/// [`soak_schedules`](crate::soak_schedules) and
/// [`fuzz_schedules`](crate::fuzz_schedules). Judge the outcomes with
/// [`check_envelope`](crate::check_envelope) and write them with
/// [`campaign_json`](crate::campaign_json).
pub fn run_campaign(schedules: impl IntoIterator<Item = FaultSchedule>) -> Vec<ChaosOutcome> {
    schedules.into_iter().map(|s| run_schedule(&s)).collect()
}

// ---------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------

/// Renders a schedule as JSON (the `repro.json` format; see DESIGN.md
/// §17 for the schema). Integral microseconds throughout: the round trip
/// through [`parse_schedule`] is lossless and the replay bit-identical.
/// The optional fields appear only when they differ from
/// [`FaultSchedule::default`].
pub fn schedule_json(s: &FaultSchedule) -> String {
    let d = FaultSchedule::default();
    let mut out = String::from("{\n  \"version\": 1,\n");
    if s.name != d.name {
        let _ = writeln!(out, "  \"name\": \"{}\",", escape(&s.name));
    }
    let _ = write!(
        out,
        "  \"seed\": {},\n  \"cpus\": {},\n  \"rounds\": {},\n  \"nodes\": {},\n  \
         \"fanout\": {},\n  \"fencing\": {},\n  \"final_ro\": {},\n  \"grab_lock\": {},\n  \
         \"co_initiator\": {},\n  \"failop\": {},\n  \"tolerable\": {},\n",
        s.seed,
        s.n_cpus,
        s.rounds,
        s.nodes,
        s.fanout,
        s.fencing,
        s.final_ro,
        s.grab_lock,
        s.co_initiator,
        s.failop,
        s.tolerable,
    );
    if let Some(n) = s.node_cpus {
        let _ = writeln!(out, "  \"node_cpus\": {n},");
    }
    if s.remote_latency_us != d.remote_latency_us {
        let _ = writeln!(out, "  \"remote_latency_us\": {},", s.remote_latency_us);
    }
    if s.watchdog != d.watchdog {
        let _ = writeln!(out, "  \"watchdog\": {},", s.watchdog);
    }
    if let Some(cap) = s.queue_capacity {
        let _ = writeln!(out, "  \"queue_capacity\": {cap},");
    }
    if let Some(cpu) = s.poison {
        let _ = writeln!(out, "  \"poison\": {cpu},");
    }
    if s.failop_retries != d.failop_retries {
        let _ = writeln!(out, "  \"failop_retries\": {},", s.failop_retries);
    }
    out.push_str("  \"events\": [\n");
    for (i, e) in s.events.iter().enumerate() {
        let _ = write!(out, "    {{\"kind\": \"{}\"", e.kind());
        for (key, value) in e.fields() {
            let _ = write!(out, ", \"{key}\": {value}");
        }
        out.push_str(if i + 1 == s.events.len() {
            "}\n"
        } else {
            "},\n"
        });
    }
    out.push_str("  ]\n}\n");
    out
}

/// Field `key` as an integer of type `T`, rejecting values that do not
/// fit rather than truncating them.
fn narrow<T: TryFrom<u64>>(v: &Json, key: &str) -> Result<T, String> {
    let n = v.u64_field(key)?;
    T::try_from(n).map_err(|_| format!("\"{key}\" = {n} is out of range"))
}

/// Field `key` read by `read`, or `None` when the field is absent.
fn optional<'a, T>(
    v: &'a Json,
    key: &str,
    read: impl Fn(&'a Json, &str) -> Result<T, String>,
) -> Result<Option<T>, String> {
    v.get(key).map(|_| read(v, key)).transpose()
}

fn parse_event(v: &Json) -> Result<ScheduleEvent, String> {
    Ok(match v.str_field("kind")? {
        "delay" => ScheduleEvent::Delay {
            every_nth: v.u64_field("every_nth")?,
            extra_us: v.u64_field("extra_us")?,
        },
        "drop" => ScheduleEvent::Drop {
            every_nth: v.u64_field("every_nth")?,
            max_drops: v.u64_field("max_drops")?,
        },
        "duplicate" => ScheduleEvent::Duplicate {
            every_nth: v.u64_field("every_nth")?,
            extra_us: v.u64_field("extra_us")?,
        },
        "reorder" => ScheduleEvent::Reorder {
            every_nth: v.u64_field("every_nth")?,
            hold_us: v.u64_field("hold_us")?,
        },
        "isr-stretch" => ScheduleEvent::IsrStretch {
            extra_us: v.u64_field("extra_us")?,
        },
        "stall" => ScheduleEvent::Stall {
            cpu: narrow(v, "cpu")?,
            extra_us: v.u64_field("extra_us")?,
            times: v.u64_field("times")?,
        },
        "halt" => ScheduleEvent::Halt {
            cpu: narrow(v, "cpu")?,
            at_us: v.u64_field("at_us")?,
        },
        "offline" => ScheduleEvent::Offline {
            cpu: narrow(v, "cpu")?,
            at_us: v.u64_field("at_us")?,
            revive_at_us: v.u64_field("revive_at_us")?,
        },
        other => return Err(format!("unknown event kind \"{other}\"")),
    })
}

/// Reads a schedule out of an already-parsed JSON value — for example
/// the `schedule` object of a `machtlb chaos --json` row. The result is
/// validated.
pub fn schedule_from_json(root: &Json) -> Result<FaultSchedule, String> {
    let version = root.u64_field("version")?;
    if version != 1 {
        return Err(format!("unsupported version {version}"));
    }
    let d = FaultSchedule::default();
    let s = FaultSchedule {
        name: optional(root, "name", Json::str_field)?.map_or(d.name, str::to_string),
        seed: root.u64_field("seed")?,
        n_cpus: narrow(root, "cpus")?,
        rounds: root.u64_field("rounds")?,
        nodes: narrow(root, "nodes")?,
        node_cpus: optional(root, "node_cpus", narrow)?,
        remote_latency_us: optional(root, "remote_latency_us", Json::u64_field)?
            .unwrap_or(d.remote_latency_us),
        fanout: narrow(root, "fanout")?,
        fencing: root.bool_field("fencing")?,
        final_ro: root.bool_field("final_ro")?,
        grab_lock: root.bool_field("grab_lock")?,
        co_initiator: root.bool_field("co_initiator")?,
        failop: root.bool_field("failop")?,
        tolerable: root.bool_field("tolerable")?,
        watchdog: optional(root, "watchdog", Json::bool_field)?.unwrap_or(d.watchdog),
        queue_capacity: optional(root, "queue_capacity", narrow)?,
        poison: optional(root, "poison", narrow)?,
        failop_retries: optional(root, "failop_retries", narrow)?.unwrap_or(d.failop_retries),
        events: root
            .array_field("events")?
            .iter()
            .map(parse_event)
            .collect::<Result<_, _>>()?,
    };
    s.validate()?;
    Ok(s)
}

/// Parses a schedule produced by [`schedule_json`] (or hand-edited — the
/// result is validated). The inverse of the serializer: parse ∘ render
/// is the identity.
pub fn parse_schedule(text: &str) -> Result<FaultSchedule, String> {
    Json::parse(text)
        .and_then(|root| schedule_from_json(&root))
        .map_err(|e| format!("schedule json: {e}"))
}
