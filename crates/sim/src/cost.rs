//! The simulated machine's cost model.
//!
//! Every primitive action a kernel or user process performs is charged a
//! duration drawn from this table. The defaults approximate the paper's
//! evaluation platform — a 16-processor NS32332 Encore Multimax (~2 MIPS per
//! CPU, write-through caches, single shared bus) — and are calibrated so the
//! basic shootdown cost lands near the paper's least-squares fit of
//! 430 µs + 55 µs per additional processor (Section 7.1). Absolute agreement
//! with 1989 hardware is not claimed; the *shape* of every reproduced result
//! is what the calibration targets.

use crate::time::Dur;

/// Durations charged for the primitive actions of the simulated machine.
///
/// This is a passive parameter bag: all fields are public so experiments can
/// explore the hardware-design space of Section 9 (e.g. zeroing
/// [`intr_entry`](Self::intr_entry) savings for hardware-assisted variants).
///
/// # Examples
///
/// ```
/// use machtlb_sim::{CostModel, Dur};
///
/// let mut costs = CostModel::multimax();
/// costs.ipi_latency = Dur::micros(5); // a faster interrupt controller
/// assert!(costs.ipi_latency < CostModel::multimax().ipi_latency);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CostModel {
    /// A register-to-register instruction or taken branch.
    pub local_op: Dur,
    /// A load that hits the (write-through) cache.
    pub cache_read: Dur,
    /// Memory latency of a bus read beyond the bus hold time.
    pub bus_read_latency: Dur,
    /// Memory latency of a bus write beyond the bus hold time.
    pub bus_write_latency: Dur,
    /// How long one transaction occupies the shared bus. Queueing behind
    /// other processors' transactions is what produces the contention knee
    /// above 12 processors in Figure 2. On a multi-node
    /// [`Topology`](crate::Topology) this is the per-node bus hold time.
    pub bus_occupancy: Dur,
    /// How long one cross-node transaction occupies the inter-node
    /// interconnect (unused on a flat topology; the crossing's latency
    /// beyond the hold comes from the topology's remote latency).
    pub interconnect_occupancy: Dur,
    /// Interrupt entry: vectoring, pipeline drain, and the dispatch code up
    /// to the handler body (state save is charged separately per word).
    pub intr_entry: Dur,
    /// Interrupt exit: state restore and return from interrupt.
    pub intr_exit: Dur,
    /// Number of register words saved to memory (through the write-through
    /// cache, hence over the bus) on interrupt entry.
    pub state_save_words: u32,
    /// Interrupt-controller delivery latency from the initiating processor's
    /// poke to the target processor observing the interrupt.
    pub ipi_latency: Dur,
    /// Cost on the sending processor of poking the interrupt controller for
    /// one target.
    pub ipi_send: Dur,
    /// Cost of poking the interrupt controller once to interrupt *all* other
    /// processors (the broadcast option of Section 9).
    pub ipi_broadcast: Dur,
    /// Acquiring an uncontended simple lock (interlocked bus access).
    pub lock_acquire: Dur,
    /// Releasing a simple lock.
    pub lock_release: Dur,
    /// One iteration of a spin-wait loop, excluding any bus traffic the
    /// specific loop performs.
    pub spin_iter: Dur,
    /// Enqueueing one consistency action on a processor's update queue,
    /// excluding the queue-lock and bus costs.
    pub queue_action: Dur,
    /// Invalidating a single TLB entry.
    pub tlb_invalidate_single: Dur,
    /// Flushing the entire TLB.
    pub tlb_flush_all: Dur,
    /// One level of a hardware page-table walk, excluding the bus read.
    pub ptw_level: Dur,
    /// Editing one page-table entry during a pmap update, excluding the bus
    /// write.
    pub pmap_update_per_page: Dur,
    /// Kernel entry/exit for a page fault, excluding the VM work performed.
    pub page_fault_overhead: Dur,
    /// Copying one page (for copy-on-write resolution or pagein).
    pub page_copy: Dur,
    /// A context switch between threads on one processor.
    pub context_switch: Dur,
}

impl CostModel {
    /// The calibrated Encore Multimax-like model used throughout the
    /// reproduction (see module docs).
    pub fn multimax() -> CostModel {
        CostModel {
            local_op: Dur::nanos(500),
            cache_read: Dur::nanos(350),
            bus_read_latency: Dur::nanos(900),
            bus_write_latency: Dur::nanos(700),
            bus_occupancy: Dur::nanos(600),
            interconnect_occupancy: Dur::nanos(400),
            intr_entry: Dur::micros(352),
            intr_exit: Dur::micros(25),
            state_save_words: 16,
            ipi_latency: Dur::micros(30),
            ipi_send: Dur::micros(19),
            ipi_broadcast: Dur::micros(12),
            lock_acquire: Dur::micros(4),
            lock_release: Dur::micros(2),
            spin_iter: Dur::micros(2),
            queue_action: Dur::micros(23),
            tlb_invalidate_single: Dur::micros(6),
            tlb_flush_all: Dur::micros(20),
            ptw_level: Dur::micros(2),
            pmap_update_per_page: Dur::micros(8),
            page_fault_overhead: Dur::micros(250),
            page_copy: Dur::micros(900),
            context_switch: Dur::micros(150),
        }
    }

    /// A uniformly fast model useful for tests that care about ordering and
    /// correctness rather than realistic magnitudes: every action costs one
    /// microsecond (bus occupancy stays sub-microsecond so contention is
    /// negligible).
    pub fn uniform_test() -> CostModel {
        let us = Dur::micros(1);
        CostModel {
            local_op: us,
            cache_read: us,
            bus_read_latency: us,
            bus_write_latency: us,
            bus_occupancy: Dur::nanos(100),
            interconnect_occupancy: Dur::nanos(100),
            intr_entry: us,
            intr_exit: us,
            state_save_words: 1,
            ipi_latency: us,
            ipi_send: us,
            ipi_broadcast: us,
            lock_acquire: us,
            lock_release: us,
            spin_iter: us,
            queue_action: us,
            tlb_invalidate_single: us,
            tlb_flush_all: us,
            ptw_level: us,
            pmap_update_per_page: us,
            page_fault_overhead: us,
            page_copy: us,
            context_switch: us,
        }
    }

    /// One failed check of a kernel spin-wait: a loop iteration plus the
    /// cached read of the condition. The interval of every kernel spin
    /// site's [`BlockOn`](crate::BlockOn).
    pub fn spin_check(&self) -> Dur {
        self.spin_iter + self.cache_read
    }
}

impl Default for CostModel {
    fn default() -> CostModel {
        CostModel::multimax()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_multimax() {
        assert_eq!(CostModel::default(), CostModel::multimax());
    }

    #[test]
    fn multimax_interrupt_path_dominates_local_ops() {
        let c = CostModel::multimax();
        assert!(c.intr_entry > c.lock_acquire * 10);
        assert!(c.ipi_latency > c.ipi_send);
    }

    #[test]
    fn uniform_test_model_is_uniform() {
        let c = CostModel::uniform_test();
        assert_eq!(c.local_op, c.intr_entry);
        assert_eq!(c.page_copy, c.spin_iter);
    }
}
