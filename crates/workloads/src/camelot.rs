//! The Camelot distributed transaction system.
//!
//! "Camelot makes aggressive use of memory sharing and copy-on-write
//! mapping to implement database access and transaction semantics. In
//! addition, many internal components ... are multi-threaded for
//! performance reasons" (Section 5.2). Camelot is the only evaluation
//! application causing **user-pmap** shootdowns (Table 3): every
//! transaction virtually copies a slice of the database into a client,
//! which strips write permission from the multi-threaded server's live
//! mappings — a user shootdown against the processors running server
//! threads.

use machtlb_core::{drive, Driven, MemOp};
use machtlb_pmap::{PageRange, Vaddr, Vpn, PAGE_SIZE};
use machtlb_sim::{BlockOn, CpuId, Ctx, Dur, Process, Step, WaitChannel};
use machtlb_vm::{
    HasVm, TaskId, UserAccess, UserAccessResult, UserAccessStep, VmOp, VmOpProcess, USER_SPAN_START,
};
use rand::Rng;

use crate::harness::{build_workload_machine, run_app, AppReport, RunConfig, WlMachine};
use crate::kernelops::KernelBufferOp;
use crate::state::{AppShared, WlState};
use crate::thread::{enqueue_thread, ThreadShell};

/// Notified when the last client finishes (workload `0x5` key space; see
/// `machtlb_sim::event`'s channel registry).
const CLIENTS_CHANNEL: WaitChannel = WaitChannel::new(0x5_0000_0004);
/// Notified when the last server thread stops.
const SERVERS_CHANNEL: WaitChannel = WaitChannel::new(0x5_0000_0005);

/// Transaction-system parameters.
#[derive(Clone, Debug)]
pub struct CamelotConfig {
    /// Client tasks running transactions ("8-way parallel").
    pub clients: u32,
    /// Server threads (the multi-threaded transaction manager).
    pub server_threads: u32,
    /// Transactions per client.
    pub transactions_per_client: u32,
    /// Database pages in the server's space.
    pub db_pages: u64,
    /// Pages virtually copied per transaction, sampled uniformly.
    pub tx_pages: (u64, u64),
    /// Percent of transactions that copy a jumbo range instead (bulk
    /// loads; the paper's Table 3 sees ranges up to ~360 pages).
    pub jumbo_percent: u32,
    /// Jumbo range size, sampled uniformly.
    pub jumbo_pages: (u64, u64),
    /// Pages the client actually writes per transaction, sampled
    /// uniformly (bounded by the copied range).
    pub tx_writes: (u64, u64),
    /// Compute chunks (50 µs) per transaction, sampled uniformly.
    pub tx_compute: (u32, u32),
    /// A kernel buffer cycle every this many transactions.
    pub kernel_op_every: u32,
}

impl Default for CamelotConfig {
    fn default() -> CamelotConfig {
        CamelotConfig {
            clients: 8,
            server_threads: 3,
            transactions_per_client: 14,
            db_pages: 128,
            tx_pages: (1, 24),
            jumbo_percent: 8,
            jumbo_pages: (48, 128),
            tx_writes: (1, 4),
            tx_compute: (4, 30),
            kernel_op_every: 5,
        }
    }
}

/// Transaction-system coordination state.
#[derive(Debug, Default)]
pub struct CamelotShared {
    /// The database server task.
    pub server_task: Option<TaskId>,
    /// Client tasks.
    pub client_tasks: Vec<TaskId>,
    /// Transactions committed so far.
    pub tx_done: u32,
    /// Set when all transactions committed: server threads drain.
    pub server_stop: bool,
    /// Server threads still running.
    pub servers_alive: u32,
    /// Clients still running.
    pub clients_alive: u32,
    /// When all transactions committed and the servers drained.
    pub completed_at: Option<machtlb_sim::Time>,
}

const DB_BASE: u64 = USER_SPAN_START + 0x200;

/// A server thread: continuously writes log records into random database
/// pages, keeping the server's mappings live (and therefore shot at).
#[derive(Debug)]
struct ServerThread {
    cfg: CamelotConfig,
    task: TaskId,
    access: Option<UserAccess>,
    computing: u32,
    writes: u64,
}

impl Process<WlState, ()> for ServerThread {
    fn step(&mut self, ctx: &mut Ctx<'_, WlState, ()>) -> Step {
        if self.computing > 0 {
            self.computing -= 1;
            return Step::Run(Dur::micros(50));
        }
        if self.access.is_none() && ctx.shared.camelot().server_stop {
            ctx.shared.camelot_mut().servers_alive -= 1;
            if ctx.shared.camelot().servers_alive == 0 {
                ctx.notify(SERVERS_CHANNEL);
            }
            return Step::Done(ctx.costs().local_op);
        }
        if self.access.is_none() {
            // Random page choice: the transaction manager's log and
            // metadata writes scatter over the database, re-dirtying
            // copy-on-write pages so later virtual copies have rights to
            // strip again.
            let page = ctx.rng().gen_range(0..self.cfg.db_pages);
            self.access = Some(UserAccess::new(
                self.task,
                Vaddr::new((DB_BASE + page) * PAGE_SIZE + 64),
                MemOp::Write(1),
            ));
        }
        let acc = self.access.as_mut().expect("set above");
        match acc.step(ctx) {
            UserAccessStep::Yield(s) => s,
            UserAccessStep::Finished(UserAccessResult::Ok(_), d) => {
                self.access = None;
                self.writes += 1;
                self.computing = ctx.rng().gen_range(1..6);
                Step::Run(d)
            }
            UserAccessStep::Finished(UserAccessResult::Killed, _) => {
                unreachable!("the database region stays read-write at the VM level")
            }
        }
    }

    fn label(&self) -> &'static str {
        "camelot-server"
    }
}

#[derive(Debug)]
enum TxPhase {
    Begin,
    Share,
    Touch { left: u64, offset: u64 },
    Compute { chunks: u32 },
    Release,
    KernelOp(Box<KernelBufferOp>),
    Commit,
}

/// A client: runs its transactions against the server's database.
#[derive(Debug)]
struct ClientThread {
    cfg: CamelotConfig,
    task: TaskId,
    tx_left: u32,
    phase: TxPhase,
    op: Option<VmOpProcess>,
    access: Option<UserAccess>,
    // Current transaction state:
    tx_range_pages: u64,
    dst_start: Option<Vpn>,
}

impl Process<WlState, ()> for ClientThread {
    fn step(&mut self, ctx: &mut Ctx<'_, WlState, ()>) -> Step {
        match &mut self.phase {
            TxPhase::Begin => {
                if self.tx_left == 0 {
                    ctx.shared.camelot_mut().clients_alive -= 1;
                    if ctx.shared.camelot().clients_alive == 0 {
                        ctx.notify(CLIENTS_CHANNEL);
                    }
                    return Step::Done(ctx.costs().local_op);
                }
                self.tx_left -= 1;
                let (lo, hi) = if ctx.rng().gen_range(0..100) < self.cfg.jumbo_percent {
                    self.cfg.jumbo_pages
                } else {
                    self.cfg.tx_pages
                };
                self.tx_range_pages = ctx.rng().gen_range(lo..=hi.min(self.cfg.db_pages));
                self.phase = TxPhase::Share;
                Step::Run(ctx.costs().local_op * 4)
            }
            TxPhase::Share => {
                let server = ctx.shared.camelot().server_task.expect("server installed");
                let pages = self.tx_range_pages;
                let task = self.task;
                // Draw the range only when creating the op: this arm re-runs
                // for every step the driven op yields, and a draw per step
                // would tie the machine's rng stream to the spin iteration
                // count (breaking stepped/event equivalence).
                if self.op.is_none() {
                    let max = self.cfg.db_pages - pages;
                    let db_off = ctx.rng().gen_range(0..=max);
                    self.op = Some(VmOpProcess::new(VmOp::ShareCow {
                        src: server,
                        src_range: PageRange::new(Vpn::new(DB_BASE + db_off), pages),
                        dst: task,
                    }));
                }
                let op = self.op.as_mut().expect("created above");
                match drive(op, ctx) {
                    Driven::Yield(s) => s,
                    Driven::Finished(d) => {
                        assert!(!op.failed(), "camelot share failed");
                        self.dst_start = op.outcome().dst_start;
                        self.op = None;
                        let (wlo, whi) = self.cfg.tx_writes;
                        let writes = ctx.rng().gen_range(wlo..=whi).min(self.tx_range_pages);
                        self.phase = TxPhase::Touch {
                            left: writes,
                            offset: 0,
                        };
                        Step::Run(d)
                    }
                }
            }
            TxPhase::Touch { left, offset } => {
                if *left == 0 {
                    let (lo, hi) = self.cfg.tx_compute;
                    let chunks = ctx.rng().gen_range(lo..=hi);
                    self.phase = TxPhase::Compute { chunks };
                    return Step::Run(ctx.costs().local_op);
                }
                let base = self.dst_start.expect("shared");
                let page = *offset % self.tx_range_pages;
                let va = Vaddr::new((base.raw() + page) * PAGE_SIZE + 128);
                let task = self.task;
                let acc = self
                    .access
                    .get_or_insert_with(|| UserAccess::new(task, va, MemOp::Write(2)));
                match acc.step(ctx) {
                    UserAccessStep::Yield(s) => s,
                    UserAccessStep::Finished(UserAccessResult::Ok(_), d) => {
                        self.access = None;
                        *left -= 1;
                        *offset += 1;
                        Step::Run(d)
                    }
                    UserAccessStep::Finished(UserAccessResult::Killed, _) => {
                        unreachable!("the copied range is read-write for the client")
                    }
                }
            }
            TxPhase::Compute { chunks } => {
                if *chunks > 0 {
                    *chunks -= 1;
                    return Step::Run(Dur::micros(50));
                }
                self.phase = TxPhase::Release;
                Step::Run(ctx.costs().local_op)
            }
            TxPhase::Release => {
                let base = self.dst_start.expect("shared");
                let pages = self.tx_range_pages;
                let task = self.task;
                let op = self.op.get_or_insert_with(|| {
                    VmOpProcess::new(VmOp::Deallocate {
                        task,
                        range: PageRange::new(base, pages),
                    })
                });
                match drive(op, ctx) {
                    Driven::Yield(s) => s,
                    Driven::Finished(d) => {
                        self.op = None;
                        let done = {
                            let c = ctx.shared.camelot_mut();
                            c.tx_done += 1;
                            c.tx_done
                        };
                        self.phase = if done.is_multiple_of(self.cfg.kernel_op_every) {
                            TxPhase::KernelOp(Box::new(KernelBufferOp::new(2, 2)))
                        } else {
                            TxPhase::Commit
                        };
                        Step::Run(d)
                    }
                }
            }
            TxPhase::KernelOp(op) => match drive(op.as_mut(), ctx) {
                Driven::Yield(s) => s,
                Driven::Finished(d) => {
                    self.phase = TxPhase::Commit;
                    Step::Run(d)
                }
            },
            TxPhase::Commit => {
                self.phase = TxPhase::Begin;
                Step::Run(ctx.costs().local_op * 8)
            }
        }
    }

    fn label(&self) -> &'static str {
        "camelot-client"
    }
}

#[derive(Debug)]
enum CPhase {
    CreateServer,
    AllocDb,
    SpawnServers { next: u32 },
    CreateClients { next: u32 },
    SpawnClients { next: u32 },
    WaitClients,
    StopServers,
    WaitServers,
}

/// The system coordinator.
#[derive(Debug)]
struct Coordinator {
    cfg: CamelotConfig,
    phase: CPhase,
    op: Option<VmOpProcess>,
}

impl Process<WlState, ()> for Coordinator {
    fn step(&mut self, ctx: &mut Ctx<'_, WlState, ()>) -> Step {
        match &mut self.phase {
            CPhase::CreateServer => {
                let task = {
                    let (k, vm) = ctx.shared.kernel_and_vm();
                    vm.create_task(k)
                };
                ctx.shared.camelot_mut().server_task = Some(task);
                self.phase = CPhase::AllocDb;
                Step::Run(ctx.costs().local_op * 16)
            }
            CPhase::AllocDb => {
                let task = ctx.shared.camelot().server_task.expect("created");
                let pages = self.cfg.db_pages;
                let op = self.op.get_or_insert_with(|| {
                    VmOpProcess::new(VmOp::Allocate {
                        task,
                        pages,
                        at: Some(Vpn::new(DB_BASE)),
                    })
                });
                match drive(op, ctx) {
                    Driven::Yield(s) => s,
                    Driven::Finished(d) => {
                        self.op = None;
                        self.phase = CPhase::SpawnServers { next: 0 };
                        Step::Run(d)
                    }
                }
            }
            CPhase::SpawnServers { next } => {
                if *next == self.cfg.server_threads {
                    ctx.shared.camelot_mut().servers_alive = self.cfg.server_threads;
                    self.phase = CPhase::CreateClients { next: 0 };
                    return Step::Run(ctx.costs().local_op);
                }
                let task = ctx.shared.camelot().server_task.expect("created");
                let body = ServerThread {
                    cfg: self.cfg.clone(),
                    task,
                    access: None,
                    computing: 0,
                    writes: u64::from(*next) * 7,
                };
                let target = CpuId::new(1 + *next);
                let cost = enqueue_thread(
                    ctx,
                    target,
                    Box::new(ThreadShell::new(task, body).with_label("camelot-server")),
                );
                self.phase = CPhase::SpawnServers { next: *next + 1 };
                Step::Run(cost)
            }
            CPhase::CreateClients { next } => {
                if *next == self.cfg.clients {
                    self.phase = CPhase::SpawnClients { next: 0 };
                    return Step::Run(ctx.costs().local_op);
                }
                let task = {
                    let (k, vm) = ctx.shared.kernel_and_vm();
                    vm.create_task(k)
                };
                ctx.shared.camelot_mut().client_tasks.push(task);
                self.phase = CPhase::CreateClients { next: *next + 1 };
                Step::Run(ctx.costs().local_op * 16)
            }
            CPhase::SpawnClients { next } => {
                if *next == self.cfg.clients {
                    ctx.shared.camelot_mut().clients_alive = self.cfg.clients;
                    self.phase = CPhase::WaitClients;
                    return Step::Run(ctx.costs().local_op);
                }
                let idx = *next as usize;
                let task = ctx.shared.camelot().client_tasks[idx];
                let n_cpus = ctx.n_cpus() as u32;
                let first_client_cpu = 1 + self.cfg.server_threads;
                let span = n_cpus - first_client_cpu;
                let target = CpuId::new(first_client_cpu + (*next % span));
                let body = ClientThread {
                    cfg: self.cfg.clone(),
                    task,
                    tx_left: self.cfg.transactions_per_client,
                    phase: TxPhase::Begin,
                    op: None,
                    access: None,
                    tx_range_pages: 0,
                    dst_start: None,
                };
                let cost = enqueue_thread(
                    ctx,
                    target,
                    Box::new(ThreadShell::new(task, body).with_label("camelot-client")),
                );
                self.phase = CPhase::SpawnClients { next: *next + 1 };
                Step::Run(cost)
            }
            CPhase::WaitClients => {
                if ctx.shared.camelot().clients_alive == 0 {
                    self.phase = CPhase::StopServers;
                    Step::Run(ctx.costs().local_op)
                } else {
                    Step::Block(BlockOn::one(CLIENTS_CHANNEL, Dur::micros(400)))
                }
            }
            CPhase::StopServers => {
                ctx.shared.camelot_mut().server_stop = true;
                self.phase = CPhase::WaitServers;
                Step::Run(ctx.costs().local_op + ctx.bus_write())
            }
            CPhase::WaitServers => {
                if ctx.shared.camelot().servers_alive == 0 {
                    let now = ctx.now;
                    ctx.shared.camelot_mut().completed_at = Some(now);
                    Step::Done(ctx.costs().local_op)
                } else {
                    Step::Block(BlockOn::one(SERVERS_CHANNEL, Dur::micros(200)))
                }
            }
        }
    }

    fn label(&self) -> &'static str {
        "camelot-coordinator"
    }
}

/// Installs the transaction system into a fresh workload machine.
///
/// # Panics
///
/// Panics if the machine has too few processors for the configured
/// server threads plus at least one client processor.
pub fn install_camelot(m: &mut WlMachine, cfg: &CamelotConfig) {
    assert!(
        m.n_cpus() as u32 >= 2 + cfg.server_threads,
        "camelot needs 1 coordinator + {} server + >=1 client processors",
        cfg.server_threads
    );
    let s = m.shared_mut();
    s.app = AppShared::Camelot(CamelotShared::default());
    let coord = ThreadShell::new(
        TaskId::KERNEL,
        Coordinator {
            cfg: cfg.clone(),
            phase: CPhase::CreateServer,
            op: None,
        },
    )
    .with_label("camelot-coordinator");
    s.push_thread(CpuId::new(0), Box::new(coord));
}

/// Runs the transaction system and returns its report.
///
/// # Panics
///
/// Panics if the run does not complete within the configured limit.
pub fn run_camelot(config: &RunConfig, cfg: &CamelotConfig) -> AppReport {
    let mut m = build_workload_machine(config, AppShared::None);
    install_camelot(&mut m, cfg);
    let (report, status) = run_app(&mut m, config.limit);
    let done = m.shared().camelot().tx_done;
    assert_eq!(
        done,
        cfg.clients * cfg.transactions_per_client,
        "camelot did not finish before {} (status {:?})",
        config.limit,
        status
    );
    report
}
