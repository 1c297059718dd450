//! The scheduler index: which processor steps next, which sleepers are
//! due, and who listens on a wait channel, without walking every
//! processor.
//!
//! [`SchedOrder`] files each live processor in one of two tournament
//! trees: runnable processors by clock, and sleepers (parked with a
//! deadline, or event-blocked with a wake instant) by the instant they
//! fall due.
//! [`WaitLists`] files each event-blocked processor under the channels it
//! listens on. Both are pure functions of the per-processor state
//! (clock, park state, halt flag): the machine refiles a processor after
//! every change to that state, so no lookup ever sees a stale entry, and
//! each processor has at most one entry per order and per channel.

use crate::cpu::ParkState;
use crate::event::WaitChannel;
use crate::fxhash::FxHashMap;
use crate::time::Time;

/// The key both scheduler orders sort by: the instant a processor falls
/// due, ties broken by the lower cpu index. [`SchedKey::rank`] is the one
/// definition of that order, equal-instant tie rule included; a tie
/// priority would be a field here and a bit range of the rank.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) struct SchedKey {
    pub(crate) at: Time,
    pub(crate) cpu: usize,
}

/// The rank of "no key": above every real key.
const ABSENT: u128 = u128::MAX;

impl SchedKey {
    /// The key as one integer whose order is the scheduler's order: the
    /// instant in the high 64 bits, the cpu index in the low.
    fn rank(self) -> u128 {
        u128::from(self.at.as_nanos()) << 64 | self.cpu as u128
    }

    fn from_rank(rank: u128) -> Option<SchedKey> {
        (rank != ABSENT).then(|| SchedKey {
            at: Time::from_nanos((rank >> 64) as u64),
            cpu: rank as u64 as usize,
        })
    }
}

/// Where a processor in this state belongs: its runnable key and its
/// sleeping key, at most one of them present. A halted processor, and a
/// sleeper with nothing scheduled to wake it, is in neither order.
fn keys_of(
    cpu: usize,
    clock: Time,
    park: &ParkState,
    halted: bool,
) -> (Option<SchedKey>, Option<SchedKey>) {
    let key = |at| Some(SchedKey { at, cpu });
    match *park {
        _ if halted => (None, None),
        ParkState::Running => (key(clock), None),
        ParkState::Parked { until: Some(d) } => (None, key(d.max(clock))),
        // A computed wake instant is always >= the blocked clock.
        ParkState::Blocked {
            wake_at: Some(w), ..
        } => (None, key(w)),
        ParkState::Parked { until: None } | ParkState::Blocked { wake_at: None, .. } => {
            (None, None)
        }
    }
}

/// Runnable processors ordered by clock, and sleepers ordered by wake
/// instant. The two stay separate: a sleeper due at a runnable
/// processor's clock is not runnable until the run loop wakes it.
pub(crate) struct SchedOrder {
    runnable: MinTree,
    sleeping: MinTree,
}

impl SchedOrder {
    pub(crate) fn new(n_cpus: usize) -> SchedOrder {
        SchedOrder {
            runnable: MinTree::new(n_cpus),
            sleeping: MinTree::new(n_cpus),
        }
    }

    /// Files `cpu` where its state says it belongs, replacing its old
    /// entry.
    pub(crate) fn refile(&mut self, cpu: usize, clock: Time, park: &ParkState, halted: bool) {
        let (runnable, sleeping) = keys_of(cpu, clock, park, halted);
        self.runnable.set(cpu, runnable);
        self.sleeping.set(cpu, sleeping);
    }

    /// The runnable processor that steps next: the smallest clock.
    pub(crate) fn next_runnable(&self) -> Option<SchedKey> {
        self.runnable.first()
    }

    /// The sleeper that falls due first.
    pub(crate) fn next_sleeper(&self) -> Option<SchedKey> {
        self.sleeping.first()
    }

    /// The earliest instant either order holds: the smaller of the two
    /// roots, compared by rank.
    pub(crate) fn next_due(&self) -> Option<Time> {
        SchedKey::from_rank(self.runnable.root().min(self.sleeping.root())).map(|k| k.at)
    }

    /// Whether a sleeper falls due strictly before `at`: its rank lies
    /// below the rank of `at` on the lowest cpu.
    pub(crate) fn sleeper_due_before(&self, at: Time) -> bool {
        self.sleeping.root() < SchedKey { at, cpu: 0 }.rank()
    }

    /// Whether `cpu` is filed exactly as its state says (a debug check).
    pub(crate) fn is_current(
        &self,
        cpu: usize,
        clock: Time,
        park: &ParkState,
        halted: bool,
    ) -> bool {
        keys_of(cpu, clock, park, halted) == (self.runnable.get(cpu), self.sleeping.get(cpu))
    }

    /// Whether every inner node of both orders holds the minimum below
    /// it (a debug check).
    pub(crate) fn is_well_formed(&self) -> bool {
        self.runnable.is_well_formed() && self.sleeping.is_well_formed()
    }
}

/// A tournament tree over processor indices: leaf `cpu` holds that
/// processor's key rank (or [`ABSENT`]) and every inner node the smaller
/// of its two children, so the root is the minimum. Each processor has
/// exactly one slot, and changing it recomputes its ancestors up to the
/// first whose minimum stays the same: at most log2 n minimums.
struct MinTree {
    /// Node `i`'s children are `2i` and `2i + 1`; the root is node 1 and
    /// the leaves start at `leaves`.
    nodes: Vec<u128>,
    leaves: usize,
}

impl MinTree {
    fn new(n_cpus: usize) -> MinTree {
        let leaves = n_cpus.next_power_of_two();
        MinTree {
            nodes: vec![ABSENT; 2 * leaves],
            leaves,
        }
    }

    fn root(&self) -> u128 {
        self.nodes[1]
    }

    fn first(&self) -> Option<SchedKey> {
        SchedKey::from_rank(self.root())
    }

    fn get(&self, cpu: usize) -> Option<SchedKey> {
        SchedKey::from_rank(self.nodes[self.leaves + cpu])
    }

    /// Gives `cpu` the key `key`, or removes it when `key` is `None`.
    fn set(&mut self, cpu: usize, key: Option<SchedKey>) {
        let rank = key.map_or(ABSENT, SchedKey::rank);
        let mut i = self.leaves + cpu;
        if self.nodes[i] == rank {
            return;
        }
        self.nodes[i] = rank;
        // Above an ancestor whose minimum did not change, nothing does.
        while i > 1 {
            i /= 2;
            let min = self.nodes[2 * i].min(self.nodes[2 * i + 1]);
            if self.nodes[i] == min {
                return;
            }
            self.nodes[i] = min;
        }
    }

    fn is_well_formed(&self) -> bool {
        (1..self.leaves).all(|i| self.nodes[i] == self.nodes[2 * i].min(self.nodes[2 * i + 1]))
    }
}

/// The event-blocked processors listening on each wait channel, so a
/// notify visits only its own waiters. A halted waiter stays listed (its
/// park state is frozen) and the notify skips it.
pub(crate) struct WaitLists {
    /// Each channel's listeners as a sorted list of cpu indices. A list
    /// is kept once it empties, so after a channel's first use blocking
    /// and waking on it allocate nothing.
    by_chan: FxHashMap<WaitChannel, Vec<usize>>,
    listening: Vec<[Option<WaitChannel>; 2]>,
}

impl WaitLists {
    pub(crate) fn new(n_cpus: usize) -> WaitLists {
        WaitLists {
            by_chan: FxHashMap::default(),
            listening: vec![[None; 2]; n_cpus],
        }
    }

    /// The channels a processor in this state listens on, each once.
    fn chans_of(park: &ParkState) -> [Option<WaitChannel>; 2] {
        match park {
            ParkState::Blocked { on, .. } => {
                let [a, b] = on.chans;
                [a, b.filter(|_| b != a)]
            }
            ParkState::Running | ParkState::Parked { .. } => [None; 2],
        }
    }

    /// Lists `cpu` under the channels its state listens on, and under no
    /// others. Inlined: nearly every refile finds nothing to change.
    #[inline]
    pub(crate) fn refile(&mut self, cpu: usize, park: &ParkState) {
        let wanted = Self::chans_of(park);
        if self.listening[cpu] != wanted {
            self.relist(cpu, wanted);
        }
    }

    /// Moves `cpu` from the channels it is listed under to `wanted`.
    fn relist(&mut self, cpu: usize, wanted: [Option<WaitChannel>; 2]) {
        for chan in self.listening[cpu].into_iter().flatten() {
            let list = self.by_chan.get_mut(&chan).expect("listed channel");
            let at = list.binary_search(&cpu).expect("listed waiter");
            list.remove(at);
        }
        for chan in wanted.into_iter().flatten() {
            let list = self.by_chan.entry(chan).or_default();
            let at = list
                .binary_search(&cpu)
                .expect_err("a waiter is listed once");
            list.insert(at, cpu);
        }
        self.listening[cpu] = wanted;
    }

    /// The processors listening on `chan`, in cpu order.
    pub(crate) fn waiters(&self, chan: WaitChannel) -> impl Iterator<Item = usize> + '_ {
        self.by_chan.get(&chan).into_iter().flatten().copied()
    }

    /// Whether `cpu` is listed exactly as its state says (a debug check).
    pub(crate) fn is_current(&self, cpu: usize, park: &ParkState) -> bool {
        let listening = self.listening[cpu];
        listening == Self::chans_of(park)
            && listening.into_iter().flatten().all(|chan| {
                self.by_chan
                    .get(&chan)
                    .is_some_and(|l| l.binary_search(&cpu).is_ok())
            })
    }

    /// Whether the lists hold no entry beyond the listed ones, each in
    /// cpu order (a debug check).
    pub(crate) fn holds_only_listed(&self) -> bool {
        let entries: usize = self.by_chan.values().map(Vec::len).sum();
        entries == self.listening.iter().flatten().flatten().count()
            && self
                .by_chan
                .values()
                .all(|l| l.windows(2).all(|w| w[0] < w[1]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::BlockOn;
    use crate::time::Dur;

    #[test]
    fn equal_instants_order_by_cpu_index() {
        let mut o = SchedOrder::new(3);
        let t = Time::from_micros(5);
        o.refile(2, t, &ParkState::Running, false);
        o.refile(1, t, &ParkState::Running, false);
        o.refile(0, Time::from_micros(6), &ParkState::Running, false);
        assert_eq!(o.next_runnable(), Some(SchedKey { at: t, cpu: 1 }));
        // Halting cpu 1 removes its only entry.
        o.refile(1, t, &ParkState::Running, true);
        assert_eq!(o.next_runnable(), Some(SchedKey { at: t, cpu: 2 }));
        assert!(o.is_well_formed());
    }

    /// The tree against the linear `min_by_key((clock, cpu))` it
    /// replaces, over random updates and removals with many equal
    /// instants. Every inner node is checked after every update, so an
    /// update that stops climbing too early fails here even when the
    /// root happens to be right.
    #[test]
    fn the_root_is_the_linear_minimum_after_any_update() {
        let n = 37;
        let mut tree = MinTree::new(n);
        let mut keys: Vec<Option<SchedKey>> = vec![None; n];
        let mut x = 1u64;
        for _ in 0..2_000 {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let cpu = (x >> 33) as usize % n;
            let at = Time::from_nanos((x >> 13) % 50);
            let key = (!x.is_multiple_of(5)).then_some(SchedKey { at, cpu });
            tree.set(cpu, key);
            keys[cpu] = key;
            let min = keys.iter().flatten().min_by_key(|k| (k.at, k.cpu));
            assert_eq!(tree.first(), min.copied());
            assert_eq!(tree.get(cpu), key);
            assert!(tree.is_well_formed());
        }
    }

    #[test]
    fn a_park_deadline_files_no_earlier_than_the_clock() {
        let mut o = SchedOrder::new(1);
        let park = ParkState::Parked {
            until: Some(Time::from_micros(3)),
        };
        o.refile(0, Time::from_micros(7), &park, false);
        assert_eq!(o.next_runnable(), None);
        assert_eq!(o.next_sleeper().map(|k| k.at), Some(Time::from_micros(7)));
        assert!(o.is_current(0, Time::from_micros(7), &park, false));
    }

    #[test]
    fn a_waiter_is_listed_once_per_channel_and_unlisted_on_wake() {
        let (a, b) = (WaitChannel::new(1), WaitChannel::new(2));
        let blocked = |on| ParkState::Blocked {
            anchor: Time::ZERO,
            on,
            wake_at: None,
            frame: 0,
        };
        let mut w = WaitLists::new(2);
        w.refile(0, &blocked(BlockOn::two(a, a, Dur::micros(1))));
        w.refile(1, &blocked(BlockOn::two(a, b, Dur::micros(1))));
        assert_eq!(w.waiters(a).collect::<Vec<_>>(), [0, 1]);
        assert_eq!(w.waiters(b).collect::<Vec<_>>(), [1]);
        w.refile(1, &ParkState::Running);
        assert_eq!(w.waiters(a).collect::<Vec<_>>(), [0]);
        assert_eq!(w.waiters(b).count(), 0);
        assert!(w.is_current(1, &ParkState::Running));
        assert!(w.holds_only_listed());
    }

    /// The lists against a `BTreeMap<chan, BTreeSet<cpu>>` model over
    /// random blocks (one channel, two, or the same one twice) and wakes:
    /// every channel's waiters in cpu order after every change, with
    /// channels emptied and listened on again many times.
    #[test]
    fn wait_lists_match_a_set_model_under_block_and_wake_churn() {
        use std::collections::{BTreeMap, BTreeSet};
        let (n, n_chans) = (7, 4);
        let chan = |c: u64| WaitChannel::new(0x2_0000_0000 | c);
        let mut w = WaitLists::new(n);
        let mut model: BTreeMap<WaitChannel, BTreeSet<usize>> = BTreeMap::new();
        let mut parks = vec![ParkState::Running; n];
        let mut relisted = 0;
        let mut x = 7u64;
        for _ in 0..5_000 {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let cpu = (x >> 33) as usize % n;
            let (a, b) = (chan((x >> 20) % n_chans), chan((x >> 26) % n_chans));
            let park = match (x >> 40) % 4 {
                0 => ParkState::Running,
                1 => ParkState::Parked { until: None },
                2 => ParkState::Blocked {
                    anchor: Time::ZERO,
                    on: BlockOn::one(a, Dur::micros(1)),
                    wake_at: None,
                    frame: 0,
                },
                _ => ParkState::Blocked {
                    anchor: Time::ZERO,
                    on: BlockOn::two(a, b, Dur::micros(1)),
                    wake_at: None,
                    frame: 0,
                },
            };
            for list in model.values_mut() {
                list.remove(&cpu);
            }
            if let ParkState::Blocked { on, .. } = park {
                for c in on.chans.into_iter().flatten() {
                    let list = model.entry(c).or_default();
                    relisted += usize::from(list.is_empty() && w.by_chan.contains_key(&c));
                    list.insert(cpu);
                }
            }
            w.refile(cpu, &park);
            parks[cpu] = park;
            for c in (0..n_chans).map(chan) {
                let want: Vec<usize> = model.get(&c).into_iter().flatten().copied().collect();
                assert_eq!(w.waiters(c).collect::<Vec<_>>(), want, "channel {c:?}");
            }
            assert!((0..n).all(|i| w.is_current(i, &parks[i])));
            assert!(w.holds_only_listed());
        }
        assert!(
            relisted > 100,
            "an emptied channel was listened on again {relisted} times"
        );
    }
}
