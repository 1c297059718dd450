//! The scheduler's step order on random small machines, pinned exactly.
//!
//! Each seed builds a machine of 3 to 9 processors from the public
//! simulator API and runs random walker processes on it. A walker's step
//! picks one action: compute (`Run`, in whole microseconds so instants
//! tie often), park with or without a wake instant, spin on one
//! or two wait channels with or without a deadline, write and notify a
//! channel, interrupt itself or another processor, or spawn a short
//! burst elsewhere. Stray interrupts on an unregistered vector (one-off
//! arrivals and a clocked stream per processor) wake sleepers without
//! running anything, and a fault plan takes one
//! processor offline and revives it (and on some seeds halts another for
//! good). Every process step appends `(cpu, now)` to the shared log; the
//! test pins an FNV-1a hash of that log and of the run report for each
//! seed, so any change in which processor steps when — equal-instant
//! ties, wake instants, notify order, delivery order — shows up here.

use machtlb::sim::{
    BlockOn, CpuId, Ctx, Dur, FaultPlan, Halt, IntrClass, Machine, MachineConfig, Offline, Process,
    RunStatus, Step, StreamSpacing, Time, Vector, WaitChannel,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The interrupt the walkers send each other; its handler logs one step.
const IPI: Vector = Vector::new(5);
/// Latched by stray arrivals; no handler, so it wakes but never runs.
const STRAY: Vector = Vector::new(9);
/// The wait channels walkers spin on and notify.
const CHANS: usize = 3;

/// The shared state: the step log and one write counter per channel.
#[derive(Default)]
struct Shared {
    log: Vec<(CpuId, Time)>,
    writes: [u64; CHANS],
}

fn chan(c: usize) -> WaitChannel {
    WaitChannel::new(0x5_0000_0000 | c as u64)
}

fn us(n: u64) -> Dur {
    Dur::micros(n)
}

/// A spin loop in progress: the channels it reads, the counters it saw,
/// and its timeout.
#[derive(Debug)]
struct Spin {
    on: BlockOn,
    seen: [u64; CHANS],
    deadline: Option<Time>,
}

/// Takes `left` random actions, then writes every channel and finishes.
#[derive(Debug)]
struct Walker {
    left: u32,
    spin: Option<Spin>,
}

impl Process<Shared, ()> for Walker {
    fn step(&mut self, ctx: &mut Ctx<'_, Shared, ()>) -> Step {
        let (me, now) = (ctx.cpu_id, ctx.now);
        ctx.shared.log.push((me, now));
        if let Some(spin) = &self.spin {
            let written = spin.on.chans.iter().flatten().any(|c| {
                let i = (c.key() & 0xff) as usize;
                ctx.shared.writes[i] != spin.seen[i]
            });
            let expired = spin.deadline.is_some_and(|d| now >= d);
            if !written && !expired {
                return Step::Block(spin.on);
            }
            self.spin = None;
        }
        if self.left == 0 {
            // Release every spinner still waiting on a channel.
            for c in 0..CHANS {
                ctx.shared.writes[c] += 1;
                ctx.notify(chan(c));
            }
            return Step::Done(us(1));
        }
        self.left -= 1;
        let n = ctx.n_cpus();
        let rng = ctx.rng();
        let action = rng.gen_range(0..100u32);
        let other = CpuId::new(rng.gen_range(0..n as u32));
        let d = us(rng.gen_range(0..4u64));
        let a = rng.gen_range(0..CHANS);
        let b = rng.gen_range(0..CHANS);
        let pair = rng.gen_bool(0.4);
        let timeout = rng.gen_bool(0.7).then(|| now + us(rng.gen_range(1..12u64)));
        let interval = us(rng.gen_range(1..3u64));
        match action {
            0..=34 => Step::Run(d),
            35..=44 => Step::Park(timeout),
            45..=59 => {
                let on = if pair {
                    BlockOn::two(chan(a), chan(b), interval)
                } else {
                    BlockOn::one(chan(a), interval)
                };
                let on = match timeout {
                    Some(t) => on.with_deadline(t),
                    None => on,
                };
                self.spin = Some(Spin {
                    on,
                    seen: ctx.shared.writes,
                    deadline: timeout,
                });
                Step::Block(on)
            }
            60..=74 => {
                ctx.shared.writes[a] += 1;
                ctx.notify(chan(a));
                Step::Run(d)
            }
            75..=84 => {
                ctx.send_ipi(other, IPI);
                Step::Run(us(1))
            }
            85..=89 => {
                ctx.send_ipi(me, IPI);
                Step::Run(d)
            }
            _ => {
                let left = 1 + (action % 3);
                ctx.spawn(other, Box::new(Burst { left }));
                Step::Run(d)
            }
        }
    }
}

/// Computes for `left` one-microsecond steps, then finishes.
#[derive(Debug)]
struct Burst {
    left: u32,
}

impl Process<Shared, ()> for Burst {
    fn step(&mut self, ctx: &mut Ctx<'_, Shared, ()>) -> Step {
        ctx.shared.log.push((ctx.cpu_id, ctx.now));
        if self.left == 0 {
            return Step::Done(us(1));
        }
        self.left -= 1;
        Step::Run(us(1))
    }
}

/// The IPI handler: logs its one step.
#[derive(Debug)]
struct Handler;

impl Process<Shared, ()> for Handler {
    fn step(&mut self, ctx: &mut Ctx<'_, Shared, ()>) -> Step {
        ctx.shared.log.push((ctx.cpu_id, ctx.now));
        Step::Done(us(1))
    }
}

/// Builds and runs the machine of `seed`; returns the FNV-1a hash of the
/// step log, the run report and the step totals, and the log's length.
fn run(seed: u64) -> (u64, usize) {
    let mut pick = SmallRng::seed_from_u64(seed);
    let n = pick.gen_range(3..=9usize);
    let mut m = Machine::new(
        MachineConfig {
            n_cpus: n,
            seed,
            ..MachineConfig::multimax16(seed)
        },
        Shared::default(),
        |_| (),
    );
    m.register_handler(IPI, IntrClass::Ipi, |_, _, _| Box::new(Handler));
    for c in 0..n {
        let start = Time::ZERO + us(pick.gen_range(0..3u64));
        let left = pick.gen_range(60..200u32);
        m.spawn_at(
            CpuId::new(c as u32),
            start,
            Box::new(Walker { left, spin: None }),
        );
    }
    for _ in 0..pick.gen_range(2..8) {
        let target = CpuId::new(pick.gen_range(0..n as u32));
        m.schedule_interrupt(target, STRAY, Time::ZERO + us(pick.gen_range(1..200u64)));
    }
    // A clocked stray stream on every processor, so no sleeper waits for
    // good.
    for c in 0..n {
        let first = Time::ZERO + us(pick.gen_range(1..30u64));
        let period = StreamSpacing::Every(us(pick.gen_range(20..80u64)));
        let until = Time::from_micros(2_000);
        m.schedule_interrupt_stream(CpuId::new(c as u32), STRAY, first, until, period);
    }
    let offline = pick.gen_range(0..n as u32);
    let at = Time::ZERO + us(pick.gen_range(5..60u64));
    let halts = if pick.gen_bool(0.3) {
        let cpu = CpuId::new((offline + 1) % n as u32);
        vec![Halt {
            cpu,
            at: Time::ZERO + us(pick.gen_range(20..150u64)),
        }]
    } else {
        Vec::new()
    };
    m.install_fault_plan(FaultPlan {
        offlines: vec![Offline {
            cpu: CpuId::new(offline),
            at,
            revive_at: at + us(pick.gen_range(1..40u64)),
        }],
        halts,
        ..FaultPlan::none(IPI)
    });
    let report = m.run_bounded(Time::from_micros(5_000), 200_000);
    assert_ne!(report.status, RunStatus::StepLimit, "seed {seed} ran away");
    let mut h = Fnv::default();
    h.add(report.steps);
    h.add(report.executed_steps);
    h.add(report.frontier.as_nanos());
    h.add(m.total_steps());
    h.add(matches!(report.status, RunStatus::Quiescent).into());
    let log = &m.shared().log;
    for &(cpu, now) in log {
        h.add(cpu.index() as u64);
        h.add(now.as_nanos());
    }
    (h.0, log.len())
}

/// 64-bit FNV-1a over little-endian words.
struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    fn add(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// `(seed, log hash, logged steps)`.
const GOLDEN: [(u64, u64, usize); 20] = [
    (1, 0x575b5d648051aa36, 722),
    (2, 0x3d7a9ef2c2a1a533, 890),
    (3, 0xab8b588ecae4afa9, 334),
    (4, 0x1da36a7ee06f25e0, 648),
    (5, 0x2ac78a2ec85c7c77, 228),
    (6, 0x5df871b2d956dfa2, 556),
    (7, 0xc85bff89b172dbe3, 334),
    (8, 0x325b95a4837d182e, 607),
    (9, 0x6c40e64a8933b456, 605),
    (10, 0xa8032590e8423046, 189),
    (11, 0x938dcb5ce8a5086a, 987),
    (12, 0x2db2d61cdef1bf19, 708),
    (13, 0xc1367eb1b45912ba, 124),
    (14, 0xb660e8153fc9c25b, 229),
    (15, 0xb2fff6e4073e61f4, 164),
    (16, 0x4769e25c86cbf773, 520),
    (17, 0xfab3ebc372d30b40, 866),
    (18, 0x9ec5424bdc0dc433, 505),
    (19, 0x910deb88eef9fb06, 861),
    (20, 0x204c35b6bc31d432, 679),
];

#[test]
fn step_order_on_random_machines_is_pinned() {
    let got: Vec<(u64, u64, usize)> = GOLDEN
        .iter()
        .map(|&(seed, ..)| {
            let (hash, len) = run(seed);
            (seed, hash, len)
        })
        .collect();
    for g in &got {
        println!("    ({}, {:#018x}, {}),", g.0, g.1, g.2);
    }
    assert_eq!(got, GOLDEN);
}
