//! Building and running workload machines, and extracting the paper's
//! measurements from them.

use machtlb_core::{install_kernel_handlers, KernelConfig, KernelStats, NodeCounters};
use machtlb_sim::{BusStats, CostModel, CpuId, Dur, FabricStats, Machine, MachineConfig, Time};
use machtlb_vm::{SystemState, VmStats};
use machtlb_xpr::{InitiatorRecord, PmapKind, ResponderRecord, Summary, TraceEvent};

use crate::state::{AppShared, WlState};
use crate::thread::Dispatcher;

/// A simulated machine running a workload.
pub type WlMachine = Machine<WlState, ()>;

/// Common knobs for a workload run.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Number of processors (the paper's machine has 16).
    pub n_cpus: usize,
    /// Seed for the deterministic run.
    pub seed: u64,
    /// The hardware cost model.
    pub costs: CostModel,
    /// The kernel configuration (strategy, lazy evaluation, TLB hardware).
    pub kconfig: KernelConfig,
    /// If set, periodic device interrupts fire on every processor with
    /// this period (the background activity that skews kernel shootdowns).
    pub device_period: Option<Dur>,
    /// Period of the whole-TLB timer flush when the strategy is
    /// [`Strategy::TimerDelayed`](machtlb_core::Strategy::TimerDelayed);
    /// it is the technique's staleness bound.
    pub timer_flush_period: Dur,
    /// Wall-clock bound on the simulated run.
    pub limit: Time,
}

impl RunConfig {
    /// The paper's platform: 16 processors, Multimax costs, stock kernel.
    pub fn multimax16(seed: u64) -> RunConfig {
        RunConfig {
            n_cpus: 16,
            seed,
            costs: CostModel::multimax(),
            kconfig: KernelConfig::default(),
            device_period: Some(Dur::millis(20)),
            timer_flush_period: Dur::millis(5),
            limit: Time::from_micros(120_000_000),
        }
    }
}

/// Builds a machine with the workload state installed, kernel handlers
/// registered, and one [`Dispatcher`] spawned per processor.
pub fn build_workload_machine(config: &RunConfig, app: AppShared) -> WlMachine {
    let sys = SystemState::new(config.n_cpus, config.kconfig.clone());
    let state = WlState::new(sys, app);
    let mconfig = MachineConfig {
        n_cpus: config.n_cpus,
        seed: config.seed,
        costs: config.costs.clone(),
        topology: state.sys.kernel.topology,
    };
    let mut m = Machine::new(mconfig, state, |_| ());
    install_kernel_handlers(&mut m);
    for c in 0..config.n_cpus {
        m.spawn_at(
            CpuId::new(c as u32),
            Time::ZERO,
            Box::new(Dispatcher::new()),
        );
    }
    if let Some(period) = config.device_period {
        machtlb_core::schedule_device_interrupts(&mut m, period, config.limit);
    }
    if config.kconfig.strategy == machtlb_core::Strategy::TimerDelayed {
        machtlb_core::schedule_timer_flushes(&mut m, config.timer_flush_period, config.limit);
    }
    m
}

/// Runs the machine in bounded increments until `done` reports the
/// workload complete, the machine quiesces, or `limit` is reached. This
/// keeps background interrupt streams (device activity, timer flushes),
/// which run to the configured limit, from ticking the machine — and
/// polluting its statistics — long after the workload finished.
pub fn run_until_done(
    m: &mut WlMachine,
    limit: Time,
    mut done: impl FnMut(&WlState) -> bool,
) -> machtlb_sim::RunStatus {
    use machtlb_sim::RunStatus;
    let chunk = Dur::millis(10);
    let mut horizon = (Time::ZERO + chunk).min(limit);
    loop {
        let r = m.run_bounded(horizon, 100_000_000);
        if done(m.shared()) {
            return r.status;
        }
        match r.status {
            RunStatus::Quiescent => {
                // Nothing will ever happen again: finished or stuck.
                if horizon >= limit {
                    return r.status;
                }
                horizon = limit; // nothing scheduled before it either
            }
            RunStatus::TimeLimit => {
                if horizon >= limit {
                    return r.status;
                }
                horizon = (horizon + chunk).min(limit);
            }
            RunStatus::StepLimit => {
                // The guard tripped: say who was still running so the
                // runaway loop is identifiable without a debugger, and
                // attach the kernel-level stall report (decoded wait
                // channels, lock holders, in-flight IPIs).
                eprintln!(
                    "step guard tripped at {:?}:\n{}\n{}",
                    m.frontier(),
                    m.frames_diagnostic(),
                    machtlb_core::stall_report(m)
                );
                return r.status;
            }
        }
    }
}

/// Everything the paper's tables need from one application run.
#[derive(Clone, Debug)]
pub struct AppReport {
    /// The application's name.
    pub name: &'static str,
    /// Simulated runtime.
    pub runtime: Dur,
    /// Initiator events on the kernel pmap.
    pub kernel_initiators: Vec<InitiatorRecord>,
    /// Initiator events on user pmaps.
    pub user_initiators: Vec<InitiatorRecord>,
    /// Responder events (on the sampled processors).
    pub responders: Vec<ResponderRecord>,
    /// Kernel counters.
    pub stats: KernelStats,
    /// VM counters.
    pub vm_stats: VmStats,
    /// Whether the consistency oracle stayed silent.
    pub consistent: bool,
    /// Number of consistency violations (zero under the paper's algorithm).
    pub violations: usize,
    /// Number of processors in the machine.
    pub n_cpus: usize,
    /// Whole-TLB flushes summed over all processors.
    pub tlb_flushes: u64,
    /// Whole-TLB flushes that were epoch bumps (O(1), no slot scrubbing)
    /// summed over all processors; a subset of [`AppReport::tlb_flushes`].
    pub tlb_epoch_flushes: u64,
    /// TLB misses summed over all processors (reload pressure).
    pub tlb_misses: u64,
    /// Processors responder events were recorded on (for scaling the
    /// sampled responder totals machine-wide, as Section 7.3 does).
    pub responder_sample_size: usize,
    /// Flight-recorder events (time-sorted; empty unless
    /// [`KernelConfig::trace_shootdowns`](machtlb_core::KernelConfig) was
    /// set).
    pub trace: Vec<TraceEvent>,
    /// Bus statistics, including the per-transaction-kind occupancy split
    /// ([`BusStats::per_op`]).
    pub bus: BusStats,
    /// The topology-split bus statistics: per-node buses and the
    /// interconnect ([`FabricStats::total`] equals [`AppReport::bus`]).
    pub fabric: FabricStats,
    /// Per-node kernel counters (one entry per node; a single entry on a
    /// flat machine).
    pub node_stats: Vec<NodeCounters>,
}

impl AppReport {
    /// Extracts the report from a finished run.
    pub fn extract(name: &'static str, m: &WlMachine) -> AppReport {
        let s = m.shared();
        let k = &s.sys.kernel;
        assert_eq!(
            k.xpr.overwritten(),
            0,
            "xpr buffer overflowed; enlarge KernelConfig::xpr_capacity"
        );
        assert_eq!(
            k.trace.overwritten(),
            0,
            "flight recorder overflowed; enlarge KernelConfig::trace_capacity"
        );
        let mut kernel_initiators = Vec::new();
        let mut user_initiators = Vec::new();
        let mut responders = Vec::new();
        for event in k.xpr.iter() {
            if let Some(i) = event.as_initiator() {
                match i.kind {
                    PmapKind::Kernel => kernel_initiators.push(*i),
                    PmapKind::User => user_initiators.push(*i),
                }
            } else if let Some(r) = event.as_responder() {
                responders.push(*r);
            }
        }
        AppReport {
            name,
            runtime: m.frontier().duration_since(Time::ZERO),
            kernel_initiators,
            user_initiators,
            responders,
            stats: k.stats,
            vm_stats: s.sys.vm.stats,
            consistent: k.checker.is_consistent(),
            violations: k.checker.total_violations() as usize,
            n_cpus: k.n_cpus,
            tlb_flushes: k.tlbs.iter().map(|t| t.stats().flushes).sum(),
            tlb_epoch_flushes: k.tlbs.iter().map(|t| t.stats().epoch_flushes).sum(),
            tlb_misses: k.tlbs.iter().map(|t| t.stats().misses).sum(),
            responder_sample_size: k
                .config
                .responder_sample
                .as_ref()
                .map_or(k.n_cpus, Vec::len),
            trace: k.trace.events(),
            bus: m.bus_stats(),
            fabric: m.fabric_stats(),
            node_stats: k.node_stats.clone(),
        }
    }

    /// The Section 7.3 headline: shootdown overhead as a percentage of the
    /// machine's total processor-time during the run, "after scaling the
    /// overheads upward to represent shootdowns across the entire machine"
    /// (sampled responder totals are multiplied up to all processors).
    /// The paper's results: ~1% for kernel pmap shootdowns on the Mach
    /// build, <0.2% for user pmap shootdowns on Camelot.
    pub fn overhead_percent(&self, records: &[InitiatorRecord]) -> f64 {
        let initiator_us = Self::total_overhead_us(records);
        let responder_us: f64 = self
            .responders
            .iter()
            .map(|r| r.elapsed.as_micros_f64())
            .sum();
        let scale = self.n_cpus as f64 / self.responder_sample_size.max(1) as f64;
        // Attribute responders proportionally to this record class's share
        // of initiator events.
        let total_events = self.kernel_initiators.len() + self.user_initiators.len();
        let share = if total_events == 0 {
            0.0
        } else {
            records.len() as f64 / total_events as f64
        };
        let machine_us = self.runtime.as_micros_f64() * self.n_cpus as f64;
        if machine_us == 0.0 {
            return 0.0;
        }
        (initiator_us + responder_us * scale * share) / machine_us * 100.0
    }

    /// Summary of initiator elapsed times (µs) for the given set.
    pub fn elapsed_summary(records: &[InitiatorRecord]) -> Option<Summary> {
        let xs: Vec<f64> = records.iter().map(|r| r.elapsed.as_micros_f64()).collect();
        Summary::of(&xs)
    }

    /// Summary of processors shot at.
    pub fn processors_summary(records: &[InitiatorRecord]) -> Option<Summary> {
        let xs: Vec<f64> = records.iter().map(|r| f64::from(r.processors)).collect();
        Summary::of(&xs)
    }

    /// Summary of pages involved.
    pub fn pages_summary(records: &[InitiatorRecord]) -> Option<Summary> {
        let xs: Vec<f64> = records.iter().map(|r| r.pages as f64).collect();
        Summary::of(&xs)
    }

    /// Summary of responder elapsed times (µs).
    pub fn responder_summary(&self) -> Option<Summary> {
        let xs: Vec<f64> = self
            .responders
            .iter()
            .map(|r| r.elapsed.as_micros_f64())
            .collect();
        Summary::of(&xs)
    }

    /// Total shootdown overhead (µs) charged to initiators of the given
    /// set — "number of events times average time per event" (Section 7.2).
    pub fn total_overhead_us(records: &[InitiatorRecord]) -> f64 {
        records.iter().map(|r| r.elapsed.as_micros_f64()).sum()
    }
}
