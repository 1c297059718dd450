//! Page-migration workloads for multi-node topologies.
//!
//! Two actors drive the NUMA evaluation of Section 8's scaling questions
//! on a machine with an explicit [`Topology`](machtlb_sim::Topology):
//!
//! - [`MigrationWorker`] — the **migration-storm generator**. Each worker
//!   maps a private run of pages in a shared per-node pmap, then migrates
//!   them one at a time: a `pmap_remove` (the shootdown), a page copy into
//!   a frame on the worker's own node, and a `pmap_enter` of the new
//!   frame. In *local* mode workers share the pmap homed on their own
//!   node, so every lock word, queue slot, and IPI stays on the node bus.
//!   In *cross-node* mode each node's workers attack the next node's pmap,
//!   so the same traffic pays the interconnect — the remote-latency
//!   penalty the `sec8_numa` bench measures.
//! - [`AutoNumaDaemon`] — an autoNUMA-style balancer. It periodically
//!   partitions each user pmap's in-use set by node
//!   ([`CpuSet::partition_by_node`](machtlb_pmap::CpuSet::partition_by_node))
//!   and rehomes the pmap to the node running the majority of its users,
//!   charging a batch of page copies for the tables that move.
//!
//! Both actors count [`KernelStats::page_migrations`] and the per-node
//! [`NodeCounters::page_migrations_in`](machtlb_core::NodeCounters).

use machtlb_core::{drive, Driven, HasKernel, PmapOp, PmapOpProcess};
use machtlb_pmap::{PageRange, PmapId, Prot, Vpn};
use machtlb_sim::{CpuId, Ctx, Dur, Process, Step};
use machtlb_vm::HasVm;

use crate::harness::{build_workload_machine, run_app, AppReport, RunConfig, WlMachine};
use crate::state::{AppShared, WlState};
use crate::thread::ThreadShell;

/// Migration-storm parameters.
#[derive(Clone, Debug)]
pub struct MigrationStormConfig {
    /// Worker threads started per node (each on its own processor; clamped
    /// to the node's processor count).
    pub workers_per_node: usize,
    /// Pages each worker maps during setup and then migrates.
    pub pages_per_worker: u64,
    /// Migrations each worker performs (a worker may revisit its pages).
    pub migrations_per_worker: u64,
    /// `false`: workers share the pmap homed on their *own* node (all
    /// traffic local). `true`: each node's workers attack the *next*
    /// node's pmap (every touch crosses the interconnect).
    pub cross_node: bool,
}

impl Default for MigrationStormConfig {
    fn default() -> MigrationStormConfig {
        MigrationStormConfig {
            workers_per_node: 2,
            pages_per_worker: 4,
            migrations_per_worker: 8,
            cross_node: false,
        }
    }
}

/// Coordination state for a storm run.
#[derive(Debug, Default)]
pub struct MigrateShared {
    /// Workers that finished their migration quota.
    pub workers_done: u32,
    /// Workers started.
    pub total_workers: u32,
}

#[derive(Debug)]
enum WPhase {
    /// Map the worker's run of pages, one enter per step batch.
    Setup {
        next: u64,
    },
    /// Choose the next page to migrate.
    Pick,
    /// Copy the page into a frame on this worker's node.
    Copy {
        vpn: Vpn,
    },
    /// Drive the in-flight pmap operation, then continue at `then`.
    Op {
        op: Box<PmapOpProcess>,
        then: Then,
    },
    Finished,
}

#[derive(Copy, Clone, Debug)]
enum Then {
    Setup { next: u64 },
    Copy { vpn: Vpn },
    Migrated,
}

/// One storm worker (see the module docs). Wrap in a
/// [`ThreadShell`](crate::ThreadShell) for the target task so the
/// processor attaches the victim pmap — [`install_migration_storm`] does
/// this.
#[derive(Debug)]
pub struct MigrationWorker {
    pmap: PmapId,
    base_vpn: u64,
    pages: u64,
    remaining: u64,
    cursor: u64,
    phase: WPhase,
}

impl MigrationWorker {
    /// A worker migrating `pages` pages starting at `base_vpn` of `pmap`,
    /// `migrations` times in total.
    pub fn new(pmap: PmapId, base_vpn: u64, pages: u64, migrations: u64) -> MigrationWorker {
        MigrationWorker {
            pmap,
            base_vpn,
            pages,
            remaining: migrations,
            cursor: 0,
            phase: WPhase::Setup { next: 0 },
        }
    }

    fn enter_op(&self, ctx: &mut Ctx<'_, WlState, ()>, vpn: Vpn) -> Box<PmapOpProcess> {
        let pfn = ctx.shared.kernel_mut().frames.alloc();
        Box::new(PmapOpProcess::new(
            self.pmap,
            PmapOp::Enter {
                vpn,
                pfn,
                prot: Prot::READ_WRITE,
            },
        ))
    }
}

impl Process<WlState, ()> for MigrationWorker {
    fn step(&mut self, ctx: &mut Ctx<'_, WlState, ()>) -> Step {
        match &mut self.phase {
            WPhase::Setup { next } => {
                let next = *next;
                if next == self.pages {
                    self.phase = WPhase::Pick;
                    return Step::Run(ctx.costs().local_op);
                }
                let vpn = Vpn::new(self.base_vpn + next);
                let op = self.enter_op(ctx, vpn);
                self.phase = WPhase::Op {
                    op,
                    then: Then::Setup { next: next + 1 },
                };
                Step::Run(ctx.costs().local_op)
            }
            WPhase::Pick => {
                if self.remaining == 0 {
                    self.phase = WPhase::Finished;
                    ctx.shared.migrate_mut().workers_done += 1;
                    return Step::Done(ctx.costs().local_op);
                }
                self.remaining -= 1;
                let vpn = Vpn::new(self.base_vpn + self.cursor);
                self.cursor = (self.cursor + 1) % self.pages;
                // The migration's shootdown: unmap before the copy so no
                // processor writes the page mid-move.
                let op = Box::new(PmapOpProcess::new(
                    self.pmap,
                    PmapOp::Remove {
                        range: PageRange::single(vpn),
                    },
                ));
                self.phase = WPhase::Op {
                    op,
                    then: Then::Copy { vpn },
                };
                Step::Run(ctx.costs().local_op)
            }
            WPhase::Copy { vpn } => {
                let vpn = *vpn;
                // The frame lands in this worker's node memory: count the
                // page as migrated in here.
                let node = ctx.node();
                let k = ctx.shared.kernel_mut();
                k.stats.page_migrations += 1;
                k.node_stats[node].page_migrations_in += 1;
                let op = self.enter_op(ctx, vpn);
                self.phase = WPhase::Op {
                    op,
                    then: Then::Migrated,
                };
                Step::Run(ctx.costs().page_copy)
            }
            WPhase::Op { op, then } => {
                let then = *then;
                match drive(op.as_mut(), ctx) {
                    Driven::Yield(s) => s,
                    Driven::Finished(d) => {
                        self.phase = match then {
                            Then::Setup { next } => WPhase::Setup { next },
                            Then::Copy { vpn } => WPhase::Copy { vpn },
                            Then::Migrated => WPhase::Pick,
                        };
                        Step::Run(d)
                    }
                }
            }
            WPhase::Finished => Step::Done(Dur::ZERO),
        }
    }

    fn label(&self) -> &'static str {
        "migration-worker"
    }
}

/// AutoNUMA-style balancing daemon parameters.
#[derive(Clone, Debug)]
pub struct AutoNumaConfig {
    /// Sleep between balancing passes.
    pub period: Dur,
    /// Pages charged per rehoming (the hot tables that move with the
    /// pmap).
    pub migrate_batch: u64,
}

impl Default for AutoNumaConfig {
    fn default() -> AutoNumaConfig {
        AutoNumaConfig {
            period: Dur::millis(5),
            migrate_batch: 4,
        }
    }
}

/// The balancing daemon: rehomes each user pmap to the node running the
/// majority of its users (see the module docs). Never exits; runs are
/// bounded by the workload's completion.
#[derive(Debug)]
pub struct AutoNumaDaemon {
    cfg: AutoNumaConfig,
    sleeping: bool,
    /// Rehomings performed (exposed for tests via the kernel counters
    /// too).
    pub rehomed: u64,
}

impl AutoNumaDaemon {
    /// Creates the daemon.
    pub fn new(cfg: AutoNumaConfig) -> AutoNumaDaemon {
        AutoNumaDaemon {
            cfg,
            sleeping: false,
            rehomed: 0,
        }
    }

    /// One balancing pass. Returns (cost, pages migrated).
    fn balance(&mut self, ctx: &mut Ctx<'_, WlState, ()>) -> (Dur, u64) {
        let topology = ctx.topology();
        let mut cost = ctx.costs().local_op;
        let mut moved = 0;
        let n_pmaps = ctx.shared.kernel().pmaps.len();
        for i in 1..n_pmaps {
            let id = PmapId::new(i as u32);
            let (home, majority, users) = {
                let pmap = ctx.shared.kernel().pmaps.get(id);
                let parts = pmap.in_use().partition_by_node(topology);
                let majority = parts
                    .iter()
                    .enumerate()
                    .max_by_key(|(n, p)| (p.len(), usize::MAX - n))
                    .map(|(n, _)| n)
                    .unwrap_or(0);
                let users = pmap.in_use().len();
                (pmap.home(), majority, users)
            };
            // Reading the in-use set costs one cached read per word.
            let words = ctx.shared.kernel().pmaps.get(id).in_use().word_count();
            cost += ctx.costs().cache_read * words as u64;
            if users == 0 || majority == home {
                continue;
            }
            // Rehome: the pmap's tables and lock words move to the
            // majority node. Modeled as a batch of page copies plus the
            // descriptor write, charged against the new home's bus.
            let batch = self.cfg.migrate_batch;
            {
                let k = ctx.shared.kernel_mut();
                k.pmaps.get_mut(id).set_home(majority);
                k.stats.page_migrations += batch;
                k.node_stats[majority].page_migrations_in += batch;
            }
            self.rehomed += 1;
            moved += batch;
            cost += ctx.costs().page_copy * batch + ctx.bus_write_at(majority);
        }
        (cost, moved)
    }
}

impl Process<WlState, ()> for AutoNumaDaemon {
    fn step(&mut self, ctx: &mut Ctx<'_, WlState, ()>) -> Step {
        if !self.sleeping {
            self.sleeping = true;
            return Step::Park(Some(ctx.now + self.cfg.period));
        }
        self.sleeping = false;
        let (cost, _) = self.balance(ctx);
        Step::Run(cost)
    }

    fn label(&self) -> &'static str {
        "autonuma-daemon"
    }
}

/// Installs the balancing daemon on `cpu` of a freshly built machine.
pub fn install_autonuma(m: &mut WlMachine, cpu: CpuId, cfg: AutoNumaConfig) {
    let daemon = ThreadShell::new(machtlb_vm::TaskId::KERNEL, AutoNumaDaemon::new(cfg))
        .with_label("autonuma-daemon");
    m.shared_mut().push_thread(cpu, Box::new(daemon));
}

/// Installs the storm: one task per node (pmap homed there), workers
/// pinned round-robin over each node's processors, each worker attacking
/// its own node's pmap (local mode) or the next node's (cross mode).
pub fn install_migration_storm(m: &mut WlMachine, cfg: &MigrationStormConfig) {
    let topology = m.shared().kernel().config.topology;
    let nodes = topology.nodes();
    let node_cpus = topology.node_cpus();
    let n_cpus = m.n_cpus();
    let s = m.shared_mut();
    let tasks: Vec<machtlb_vm::TaskId> = (0..nodes)
        .map(|node| {
            let (k, vm) = s.kernel_and_vm();
            vm.create_task_on(k, node)
        })
        .collect();
    let mut total = 0u32;
    for node in 0..nodes {
        let target = if cfg.cross_node {
            (node + 1) % nodes
        } else {
            node
        };
        let task = tasks[target];
        let pmap = s.vm().pmap_of(task);
        for w in 0..cfg.workers_per_node.min(node_cpus) {
            let cpu = node * node_cpus + w;
            if cpu >= n_cpus {
                break;
            }
            // Workers of one node take disjoint page runs of the target
            // pmap so their operations contend on the lock, not the plan.
            let base =
                (node as u64 * cfg.workers_per_node as u64 + w as u64) * cfg.pages_per_worker;
            let worker = ThreadShell::new(
                task,
                MigrationWorker::new(pmap, base, cfg.pages_per_worker, cfg.migrations_per_worker),
            )
            .with_label("migration-worker");
            s.push_thread(CpuId::new(cpu as u32), Box::new(worker));
            total += 1;
        }
    }
    s.app = AppShared::Migrate(MigrateShared {
        workers_done: 0,
        total_workers: total,
    });
}

/// Outcome of one migration-storm run.
#[derive(Clone, Debug)]
pub struct MigrationOutcome {
    /// The full measurement report.
    pub report: AppReport,
    /// Pages migrated (the kernel counter).
    pub migrations: u64,
    /// Workers that completed their quota.
    pub workers_done: u32,
}

/// Runs the migration storm once and returns its outcome.
///
/// # Panics
///
/// Panics if the run fails to complete within the configured limit.
pub fn run_migration_storm(config: &RunConfig, cfg: &MigrationStormConfig) -> MigrationOutcome {
    let mut m = build_workload_machine(config, AppShared::None);
    install_migration_storm(&mut m, cfg);
    let (report, status) = run_app(&mut m, config.limit);
    let s = m.shared();
    let mig = s.migrate();
    assert_eq!(
        mig.workers_done, mig.total_workers,
        "storm did not finish before {} (status {:?})",
        config.limit, status
    );
    MigrationOutcome {
        migrations: s.kernel().stats.page_migrations,
        workers_done: mig.workers_done,
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use machtlb_core::KernelConfig;
    use machtlb_sim::{CostModel, Time, Topology};

    fn storm_config(n_cpus: usize, topology: Topology, seed: u64) -> RunConfig {
        RunConfig {
            n_cpus,
            seed,
            costs: CostModel::multimax(),
            kconfig: KernelConfig {
                topology,
                ..KernelConfig::default()
            },
            device_period: None,
            timer_flush_period: Dur::millis(5),
            limit: Time::from_micros(60_000_000),
        }
    }

    #[test]
    fn local_storm_on_a_flat_machine_migrates_and_stays_consistent() {
        let out = run_migration_storm(
            &storm_config(8, Topology::default(), 11),
            &MigrationStormConfig {
                workers_per_node: 4,
                pages_per_worker: 3,
                migrations_per_worker: 5,
                ..MigrationStormConfig::default()
            },
        );
        assert!(out.report.consistent, "oracle violations");
        assert_eq!(out.workers_done, 4);
        assert_eq!(out.migrations, 4 * 5);
        assert_eq!(
            out.report.stats.ipis_remote, 0,
            "a flat machine has no remote IPIs"
        );
    }

    #[test]
    fn cross_node_storm_pays_remote_traffic() {
        let topo = Topology::numa(2, 4, Dur::micros(2));
        let out = run_migration_storm(
            &storm_config(8, topo, 12),
            &MigrationStormConfig {
                workers_per_node: 2,
                pages_per_worker: 3,
                migrations_per_worker: 4,
                cross_node: true,
            },
        );
        assert!(out.report.consistent, "oracle violations");
        assert_eq!(out.migrations, 4 * 4);
        assert!(
            out.report.stats.remote_lock_refs > 0,
            "cross-node workers touch remote lock words"
        );
    }

    #[test]
    fn local_storm_on_numa_keeps_lock_traffic_on_node() {
        let topo = Topology::numa(2, 4, Dur::micros(2));
        let out = run_migration_storm(
            &storm_config(8, topo, 13),
            &MigrationStormConfig {
                workers_per_node: 2,
                pages_per_worker: 3,
                migrations_per_worker: 4,
                cross_node: false,
            },
        );
        assert!(out.report.consistent);
        assert_eq!(
            out.report.stats.remote_lock_refs, 0,
            "same-node workers never cross the interconnect for the pmap lock"
        );
    }

    #[test]
    fn autonuma_rehomes_a_pmap_to_its_users() {
        // Build a 2-node machine; home a pmap on node 0 but mark it in use
        // only on node 1's processors. One balancing pass must rehome it.
        let topo = Topology::numa(2, 4, Dur::micros(2));
        let config = storm_config(8, topo, 14);
        let mut m = build_workload_machine(&config, AppShared::None);
        let task = {
            let s = m.shared_mut();
            let (k, vm) = s.kernel_and_vm();
            vm.create_task_on(k, 0)
        };
        let pmap = m.shared().vm().pmap_of(task);
        {
            let k = m.shared_mut().kernel_mut();
            for c in [4u32, 5, 6] {
                k.pmaps
                    .get_mut(pmap)
                    .mark_in_use(machtlb_sim::CpuId::new(c));
            }
        }
        install_autonuma(&mut m, CpuId::new(0), AutoNumaConfig::default());
        let _ = m.run_bounded(Time::from_micros(50_000), 10_000_000);
        let s = m.shared();
        assert_eq!(
            s.kernel().pmaps.get(pmap).home(),
            1,
            "the balancer moves the pmap to its users' node"
        );
        assert!(s.kernel().stats.page_migrations > 0);
        assert!(s.kernel().node_stats[1].page_migrations_in > 0);
    }
}
