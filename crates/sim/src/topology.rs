//! Machine topology: processor nodes, per-node buses, and the
//! inter-node interconnect.
//!
//! The paper's Multimax is a single shared bus, and Section 8 warns that
//! shootdown cost scales with machine size partly *because* every
//! transaction crosses that one bus. Large machines of the class the
//! conclusion extrapolates to are multi-node: each node has its own
//! memory bus, and references to another node's memory cross an
//! interconnect with its own (higher) latency and its own contention.
//!
//! [`Topology`] describes the shape — N nodes of M processors — and
//! [`BusFabric`] routes transactions through it: node-local references
//! use the node's bus exactly as the flat model used the single bus,
//! while remote references first cross the interconnect and then queue
//! on the home node's bus. [`Topology::flat`] (one node, zero remote
//! latency) makes the fabric bit-identical to the single shared
//! [`Bus`]: every access takes the same local path with the same
//! occupancy, so clocks, statistics, and measurements replay exactly.

use crate::bus::{Bus, BusOp, BusStats};
use crate::cpu::CpuId;
use crate::time::{Dur, Time};

/// The machine's node layout: `nodes` nodes of `node_cpus` processors
/// each, with `remote_latency` added to every transaction that crosses
/// the interconnect.
///
/// Processors are assigned to nodes in index order: cpu `c` lives on
/// node `c / node_cpus`, with any surplus processors folding onto the
/// last node.
///
/// # Examples
///
/// ```
/// use machtlb_sim::{CpuId, Dur, Topology};
///
/// let t = Topology::numa(4, 16, Dur::micros(2));
/// assert_eq!(t.node_of(CpuId::new(0)), 0);
/// assert_eq!(t.node_of(CpuId::new(17)), 1);
/// assert_eq!(t.node_of(CpuId::new(63)), 3);
/// assert!(!t.is_flat());
/// assert!(Topology::flat(16).is_flat());
/// ```
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct Topology {
    nodes: usize,
    node_cpus: usize,
    remote_latency: Dur,
}

impl Topology {
    /// The pre-topology machine: one node holding all `n_cpus`
    /// processors, zero remote latency. Bit-identical to the single
    /// shared bus.
    pub fn flat(n_cpus: usize) -> Topology {
        Topology {
            nodes: 1,
            node_cpus: n_cpus.max(1),
            remote_latency: Dur::ZERO,
        }
    }

    /// A multi-node machine: `nodes` nodes of `node_cpus` processors,
    /// with `remote_latency` charged per interconnect crossing.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` or `node_cpus` is zero. Use [`Topology::checked`]
    /// for a shape that comes from outside the program.
    pub fn numa(nodes: usize, node_cpus: usize, remote_latency: Dur) -> Topology {
        assert!(nodes >= 1, "a machine has at least one node");
        assert!(node_cpus >= 1, "a node has at least one processor");
        Topology {
            nodes,
            node_cpus,
            remote_latency,
        }
    }

    /// The shape `nodes` × `node_cpus` on an `n_cpus` machine, validated:
    /// at least one node, at least one processor per node, a last node
    /// that is not empty, and a `remote_latency_us` that fits the clock.
    /// `node_cpus` defaults to the even split. One node is the flat
    /// machine, whatever the other two values say.
    ///
    /// # Errors
    ///
    /// Returns which rule the shape breaks.
    pub fn checked(
        n_cpus: usize,
        nodes: usize,
        node_cpus: Option<usize>,
        remote_latency_us: u64,
    ) -> Result<Topology, String> {
        if nodes == 0 {
            return Err("a machine has at least 1 node".into());
        }
        let node_cpus = node_cpus.unwrap_or_else(|| n_cpus.div_ceil(nodes));
        if node_cpus == 0 {
            return Err("a node has at least 1 processor".into());
        }
        if nodes > 1 && node_cpus.saturating_mul(nodes - 1) >= n_cpus {
            return Err(format!(
                "{nodes} nodes of {node_cpus} processors leave the last node \
                 empty on {n_cpus} processors"
            ));
        }
        let Some(latency_ns) = remote_latency_us.checked_mul(1_000) else {
            return Err(format!(
                "a remote latency of {remote_latency_us} us overflows the clock"
            ));
        };
        Ok(if nodes == 1 {
            Topology::flat(n_cpus)
        } else {
            Topology::numa(nodes, node_cpus, Dur::nanos(latency_ns))
        })
    }

    /// Number of nodes.
    pub fn nodes(self) -> usize {
        self.nodes
    }

    /// Processors per node (the last node absorbs any surplus).
    pub fn node_cpus(self) -> usize {
        self.node_cpus
    }

    /// Latency added to every interconnect crossing.
    pub fn remote_latency(self) -> Dur {
        self.remote_latency
    }

    /// Whether this is the single-node (pre-topology) machine.
    pub fn is_flat(self) -> bool {
        self.nodes == 1
    }

    /// The node `cpu` lives on.
    pub fn node_of(self, cpu: CpuId) -> usize {
        (cpu.index() / self.node_cpus).min(self.nodes - 1)
    }

    /// Whether two processors share a node.
    pub fn same_node(self, a: CpuId, b: CpuId) -> bool {
        self.node_of(a) == self.node_of(b)
    }

    /// The extra delivery latency an IPI pays for crossing nodes: zero
    /// between same-node processors, `remote_latency` otherwise. Always
    /// zero on a flat machine.
    pub fn ipi_extra(self, from: CpuId, to: CpuId) -> Dur {
        if self.same_node(from, to) {
            Dur::ZERO
        } else {
            self.remote_latency
        }
    }

    /// Reorders `targets` so `origin`'s own node comes first, then the
    /// remaining nodes in rotation order, each node's targets ascending
    /// by processor index.
    ///
    /// A multicast tree laid over the reordered list puts same-node
    /// processors in the early slots, so the poster's first forwards —
    /// and the relays near the root — stay on the cheap local fabric.
    /// On a flat machine every target is on node 0, so the order is
    /// plain ascending: bit-identical to the pre-topology send order.
    pub fn order_node_first(self, origin: CpuId, targets: &mut [CpuId]) {
        let origin_node = self.node_of(origin);
        targets.sort_by_key(|&t| {
            let rotated = (self.node_of(t) + self.nodes - origin_node) % self.nodes;
            (rotated, t.index())
        });
    }
}

/// The flat machine. Its one node holds a single processor until the
/// kernel image sizes it to the machine (a flat topology always holds
/// every processor).
impl Default for Topology {
    fn default() -> Topology {
        Topology::flat(1)
    }
}

/// Per-fabric statistics: the aggregate over every bus, plus the
/// per-node and interconnect splits.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FabricStats {
    /// The sum over every node bus and the interconnect — equal to the
    /// single bus's statistics on a flat machine.
    pub total: BusStats,
    /// One entry per node.
    pub per_node: Vec<BusStats>,
    /// The inter-node interconnect (all-zero on a flat machine).
    pub interconnect: BusStats,
}

fn merge(into: &mut BusStats, from: &BusStats) {
    into.transactions += from.transactions;
    into.queued += from.queued;
    into.held += from.held;
    for (row, other) in into.per_op.iter_mut().zip(&from.per_op) {
        row.transactions += other.transactions;
        row.queued += other.queued;
        row.held += other.held;
    }
}

/// The routed memory fabric: one [`Bus`] per node plus the inter-node
/// interconnect.
///
/// # Examples
///
/// A flat fabric is the single shared bus, transaction for transaction:
///
/// ```
/// use machtlb_sim::{Bus, BusFabric, BusOp, Dur, Time, Topology};
///
/// let mut bus = Bus::new(Dur::nanos(500));
/// let mut fabric = BusFabric::new(Topology::flat(4), Dur::nanos(500), Dur::nanos(500));
/// for _ in 0..3 {
///     let old = bus.access(Time::ZERO, BusOp::Write, Dur::ZERO);
///     let new = fabric.access(Time::ZERO, 0, 0, BusOp::Write, Dur::ZERO);
///     assert_eq!(old, new);
/// }
/// assert_eq!(fabric.stats().total, bus.stats());
/// ```
#[derive(Clone, Debug)]
pub struct BusFabric {
    topology: Topology,
    node_buses: Vec<Bus>,
    interconnect: Bus,
}

impl BusFabric {
    /// Builds the fabric: each node bus holds transactions for
    /// `node_occupancy`, the interconnect for `interconnect_occupancy`.
    pub fn new(topology: Topology, node_occupancy: Dur, interconnect_occupancy: Dur) -> BusFabric {
        BusFabric {
            topology,
            node_buses: (0..topology.nodes())
                .map(|_| Bus::new(node_occupancy))
                .collect(),
            interconnect: Bus::new(interconnect_occupancy),
        }
    }

    /// The fabric's topology.
    pub fn topology(&self) -> Topology {
        self.topology
    }

    /// Issues a transaction from a processor on `from_node` against
    /// memory homed on `home_node`, returning the delay until it
    /// completes.
    ///
    /// A node-local reference (`from_node == home_node`, which is every
    /// reference on a flat machine) takes exactly the single-bus path on
    /// the node's own bus. A remote reference first crosses the
    /// interconnect — queueing against all other cross-node traffic and
    /// paying the topology's remote latency — and then queues on the
    /// home node's bus for the access itself.
    pub fn access(
        &mut self,
        now: Time,
        from_node: usize,
        home_node: usize,
        op: BusOp,
        latency: Dur,
    ) -> Dur {
        if from_node == home_node {
            return self.node_buses[home_node].access(now, op, latency);
        }
        let hop = self
            .interconnect
            .access(now, op, self.topology.remote_latency());
        hop + self.node_buses[home_node].access(now + hop, op, latency)
    }

    /// A node-local transaction on `node`'s bus (the common case:
    /// a processor referencing its own node's memory).
    pub fn access_local(&mut self, now: Time, node: usize, op: BusOp, latency: Dur) -> Dur {
        self.node_buses[node].access(now, op, latency)
    }

    /// Cumulative statistics: the aggregate plus per-node and
    /// interconnect splits.
    pub fn stats(&self) -> FabricStats {
        let per_node: Vec<BusStats> = self.node_buses.iter().map(Bus::stats).collect();
        let interconnect = self.interconnect.stats();
        let mut total = BusStats::default();
        for s in &per_node {
            merge(&mut total, s);
        }
        merge(&mut total, &interconnect);
        FabricStats {
            total,
            per_node,
            interconnect,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn flat_covers_every_cpu_with_one_node() {
        let t = Topology::flat(128);
        assert!(t.is_flat());
        for c in [0u32, 1, 63, 127] {
            assert_eq!(t.node_of(CpuId::new(c)), 0);
        }
        assert_eq!(t.ipi_extra(CpuId::new(0), CpuId::new(127)), Dur::ZERO);
    }

    #[test]
    fn checked_refuses_each_broken_rule() {
        assert_eq!(Topology::checked(8, 1, Some(3), 9), Ok(Topology::flat(8)));
        assert!(Topology::checked(8, 0, None, 4).is_err());
        assert!(Topology::checked(8, 2, Some(0), 4).is_err());
        assert!(Topology::checked(8, 1, Some(0), 4).is_err());
        assert!(Topology::checked(8, 3, Some(4), 4).is_err());
        assert!(Topology::checked(4, 8, None, 4).is_err());
        assert!(Topology::checked(8, 2, Some(usize::MAX), 4).is_err());
        assert!(Topology::checked(8, 1, None, u64::MAX / 1_000 + 1).is_err());
        // The even split, and the last node absorbing the surplus.
        assert_eq!(
            Topology::checked(10, 4, None, 2),
            Ok(Topology::numa(4, 3, Dur::micros(2)))
        );
        assert_eq!(
            Topology::checked(10, 2, Some(3), 2),
            Ok(Topology::numa(2, 3, Dur::micros(2)))
        );
    }

    #[test]
    fn surplus_cpus_fold_onto_the_last_node() {
        let t = Topology::numa(2, 4, Dur::micros(1));
        assert_eq!(t.node_of(CpuId::new(7)), 1);
        // Index 9 is past 2*4, but still lands on the last node.
        assert_eq!(t.node_of(CpuId::new(9)), 1);
    }

    #[test]
    fn ipi_extra_is_remote_latency_across_nodes() {
        let t = Topology::numa(2, 2, Dur::micros(3));
        assert_eq!(t.ipi_extra(CpuId::new(0), CpuId::new(1)), Dur::ZERO);
        assert_eq!(t.ipi_extra(CpuId::new(0), CpuId::new(2)), Dur::micros(3));
    }

    #[test]
    fn node_first_order_rotates_from_the_origin_node() {
        let t = Topology::numa(3, 2, Dur::micros(1));
        let mut targets: Vec<CpuId> = [0u32, 1, 2, 3, 4, 5].map(CpuId::new).to_vec();
        t.order_node_first(CpuId::new(2), &mut targets);
        let got: Vec<u32> = targets.iter().map(|c| c.index() as u32).collect();
        assert_eq!(got, vec![2, 3, 4, 5, 0, 1]);
    }

    #[test]
    fn node_first_order_on_flat_is_ascending() {
        let t = Topology::flat(8);
        let mut targets: Vec<CpuId> = [5u32, 1, 7, 3].map(CpuId::new).to_vec();
        t.order_node_first(CpuId::new(4), &mut targets);
        let got: Vec<u32> = targets.iter().map(|c| c.index() as u32).collect();
        assert_eq!(got, vec![1, 3, 5, 7]);
    }

    #[test]
    fn remote_access_pays_interconnect_and_home_bus() {
        let t = Topology::numa(2, 2, Dur::micros(2));
        let mut f = BusFabric::new(t, Dur::nanos(500), Dur::nanos(300));
        // Local on node 0: just the node bus.
        let local = f.access(Time::ZERO, 0, 0, BusOp::Read, Dur::nanos(900));
        assert_eq!(local, Dur::nanos(1400));
        // Remote to node 1: interconnect hold + remote latency, then the
        // (idle) home bus hold + memory latency.
        let remote = f.access(Time::ZERO, 0, 1, BusOp::Read, Dur::nanos(900));
        assert_eq!(remote, Dur::nanos(300 + 2_000 + 500 + 900));
        let s = f.stats();
        assert_eq!(s.interconnect.transactions, 1);
        assert_eq!(s.per_node[0].transactions, 1);
        assert_eq!(s.per_node[1].transactions, 1);
        assert_eq!(s.total.transactions, 3);
    }

    #[test]
    fn local_traffic_on_distinct_nodes_does_not_contend() {
        let t = Topology::numa(2, 2, Dur::micros(2));
        let mut f = BusFabric::new(t, Dur::nanos(500), Dur::nanos(300));
        // Two same-instant writes on different nodes: neither queues.
        let a = f.access_local(Time::ZERO, 0, BusOp::Write, Dur::ZERO);
        let b = f.access_local(Time::ZERO, 1, BusOp::Write, Dur::ZERO);
        assert_eq!(a, Dur::nanos(500));
        assert_eq!(b, Dur::nanos(500));
        assert_eq!(f.stats().total.queued, Dur::ZERO);
    }

    proptest! {
        /// The tentpole's equivalence obligation at the fabric level: a
        /// flat fabric replays any transaction sequence bit-identically
        /// to the raw shared bus — same delays, same statistics.
        #[test]
        fn flat_fabric_is_bit_identical_to_the_single_bus(
            occupancy_ns in 1u64..2_000,
            seq in proptest::collection::vec(
                (0u64..5_000, 0usize..3, 0u64..3_000), 1..200),
        ) {
            let mut bus = Bus::new(Dur::nanos(occupancy_ns));
            let mut fabric = BusFabric::new(
                Topology::flat(16),
                Dur::nanos(occupancy_ns),
                Dur::nanos(occupancy_ns),
            );
            let mut now = Time::ZERO;
            for (advance_ns, op_idx, latency_ns) in seq {
                now += Dur::nanos(advance_ns);
                let op = BusOp::ALL[op_idx];
                let latency = Dur::nanos(latency_ns);
                let old = bus.access(now, op, latency);
                let new = fabric.access(now, 0, 0, op, latency);
                prop_assert_eq!(old, new);
            }
            let s = fabric.stats();
            prop_assert_eq!(s.total, bus.stats());
            prop_assert_eq!(s.interconnect, BusStats::default());
        }
    }
}
