//! Interrupt structure: vectors, classes, and per-processor masks.
//!
//! The paper distinguishes two classes of interrupt that matter to the
//! shootdown algorithm:
//!
//! - **device interrupts**, which the kernel masks in many places to protect
//!   locks shared with interrupt routines, and
//! - the **shootdown inter-processor interrupt** (IPI), which on stock
//!   hardware shares the device-interrupt mask — so every kernel
//!   interrupt-disabled section delays shootdown responses, producing the
//!   skew in kernel-pmap shootdown times (Section 8).
//!
//! Section 9's first proposed hardware feature is a *high-priority software
//! interrupt* maskable independently of device interrupts. Modelling masks as
//! a pair of class bits lets the reproduction flip that single design switch.

use std::fmt;

/// An interrupt vector number.
///
/// Lower numbers are dispatched first when several vectors are pending.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Vector(u8);

impl Vector {
    /// Creates a vector with the given number.
    pub const fn new(n: u8) -> Vector {
        Vector(n)
    }

    /// The vector number.
    pub const fn number(self) -> u8 {
        self.0
    }
}

impl fmt::Display for Vector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// A set of interrupt vectors, one bit per vector number: the interrupts
/// latched on a processor. Iterates lowest vector first.
#[derive(Copy, Clone, Default, PartialEq, Eq)]
pub(crate) struct VectorSet([u64; 4]);

impl VectorSet {
    fn slot(v: Vector) -> (usize, u64) {
        (usize::from(v.0 / 64), 1 << (v.0 % 64))
    }

    pub(crate) fn insert(&mut self, v: Vector) {
        let (word, bit) = Self::slot(v);
        self.0[word] |= bit;
    }

    pub(crate) fn remove(&mut self, v: Vector) {
        let (word, bit) = Self::slot(v);
        self.0[word] &= !bit;
    }

    pub(crate) fn contains(&self, v: Vector) -> bool {
        let (word, bit) = Self::slot(v);
        self.0[word] & bit != 0
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.0 == [0; 4]
    }

    /// The vectors in the set, lowest first.
    pub(crate) fn iter(&self) -> impl Iterator<Item = Vector> + '_ {
        self.0.iter().enumerate().flat_map(|(word, &bits)| {
            let mut left = bits;
            std::iter::from_fn(move || {
                (left != 0).then(|| {
                    let low = left.trailing_zeros();
                    left &= left - 1;
                    Vector((word as u32 * 64 + low) as u8)
                })
            })
        })
    }
}

impl fmt::Debug for VectorSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

/// The class an interrupt vector belongs to, which determines which mask
/// bit blocks it.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum IntrClass {
    /// A device interrupt (disk, network, clock).
    Device,
    /// An inter-processor interrupt (the shootdown interrupt).
    Ipi,
}

/// A per-processor interrupt mask: which classes are currently blocked.
///
/// `true` means *blocked*. On stock Multimax-like hardware the kernel's
/// `disable_interrupts()` sets both bits ([`IntrMask::ALL_BLOCKED`]); with
/// Section 9's high-priority software interrupt the kernel's device-critical
/// sections set only [`IntrMask::DEVICE_BLOCKED`].
///
/// # Examples
///
/// ```
/// use machtlb_sim::{IntrClass, IntrMask};
///
/// let m = IntrMask::DEVICE_BLOCKED;
/// assert!(m.blocks(IntrClass::Device));
/// assert!(!m.blocks(IntrClass::Ipi));
/// ```
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, Default)]
pub struct IntrMask {
    /// Device interrupts blocked.
    pub device: bool,
    /// Inter-processor interrupts blocked.
    pub ipi: bool,
}

impl IntrMask {
    /// Nothing blocked: all interrupts deliverable.
    pub const OPEN: IntrMask = IntrMask {
        device: false,
        ipi: false,
    };

    /// Everything blocked: the classic `disable_interrupts()`.
    pub const ALL_BLOCKED: IntrMask = IntrMask {
        device: true,
        ipi: true,
    };

    /// Device interrupts blocked, IPIs deliverable: the Section 9
    /// high-priority software-interrupt configuration.
    pub const DEVICE_BLOCKED: IntrMask = IntrMask {
        device: true,
        ipi: false,
    };

    /// Whether this mask blocks interrupts of `class`.
    pub const fn blocks(self, class: IntrClass) -> bool {
        match class {
            IntrClass::Device => self.device,
            IntrClass::Ipi => self.ipi,
        }
    }
}

impl fmt::Display for IntrMask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.device, self.ipi) {
            (false, false) => write!(f, "open"),
            (true, true) => write!(f, "all-blocked"),
            (true, false) => write!(f, "device-blocked"),
            (false, true) => write!(f, "ipi-blocked"),
        }
    }
}

/// The forwarding topology of a tree-fanout multicast IPI (Section 9's
/// multicast hardware option).
///
/// A multicast descriptor names a flattened target list; the poster's
/// interrupt controller sends to the first `degree` slots, and each
/// recipient's controller forwards to its `degree` children in the implicit
/// k-ary heap laid over the list (children of slot `i` are slots
/// `(i+1)*degree .. (i+1)*degree + degree`). Delivery latency is therefore
/// O(degree · log_degree n) controller transactions instead of the n
/// serialized sends of the unicast loop.
///
/// A halted relay latches its own interrupt but forwards nothing, so its
/// whole subtree is lost until software (the watchdog) repairs it — the
/// fabric itself makes no reliability promise beyond what a single wire
/// does.
///
/// # Examples
///
/// ```
/// use machtlb_sim::FanoutTree;
///
/// let t = FanoutTree::new(2, 7);
/// assert_eq!(t.root_children().collect::<Vec<_>>(), vec![0, 1]);
/// assert_eq!(t.children(0).collect::<Vec<_>>(), vec![2, 3]);
/// assert_eq!(t.children(2).collect::<Vec<_>>(), vec![6]);
/// assert_eq!(t.depth(), 3);
/// ```
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct FanoutTree {
    degree: usize,
    len: usize,
}

impl FanoutTree {
    /// Lays a `degree`-ary forwarding tree over `len` flattened targets.
    ///
    /// # Panics
    ///
    /// Panics if `degree` is zero.
    pub fn new(degree: usize, len: usize) -> FanoutTree {
        assert!(degree >= 1, "fanout degree must be at least 1");
        FanoutTree { degree, len }
    }

    /// The fanout degree `k`.
    pub fn degree(self) -> usize {
        self.degree
    }

    /// Number of targets in the flattened list.
    pub fn len(self) -> usize {
        self.len
    }

    /// Whether the target list is empty.
    pub fn is_empty(self) -> bool {
        self.len == 0
    }

    /// The slots the poster's controller sends to directly.
    pub fn root_children(self) -> std::ops::Range<usize> {
        0..self.degree.min(self.len)
    }

    /// The slots the relay at `slot` forwards to.
    pub fn children(self, slot: usize) -> std::ops::Range<usize> {
        let first = (slot + 1).saturating_mul(self.degree);
        first.min(self.len)..first.saturating_add(self.degree).min(self.len)
    }

    /// The relay that forwards to `slot`, or `None` for the poster's own
    /// sends (slots below `degree`).
    pub fn parent(self, slot: usize) -> Option<usize> {
        (slot >= self.degree).then(|| slot / self.degree - 1)
    }

    /// Number of forwarding hops from the poster to `slot`, counting the
    /// poster's own send as one.
    pub fn hops(self, slot: usize) -> usize {
        let mut hops = 1;
        let mut s = slot;
        while let Some(p) = self.parent(s) {
            hops += 1;
            s = p;
        }
        hops
    }

    /// The maximum hop count over all slots: the tree's delivery depth.
    pub fn depth(self) -> usize {
        if self.len == 0 {
            0
        } else {
            self.hops(self.len - 1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mask_constants_block_expected_classes() {
        assert!(!IntrMask::OPEN.blocks(IntrClass::Device));
        assert!(!IntrMask::OPEN.blocks(IntrClass::Ipi));
        assert!(IntrMask::ALL_BLOCKED.blocks(IntrClass::Device));
        assert!(IntrMask::ALL_BLOCKED.blocks(IntrClass::Ipi));
        assert!(IntrMask::DEVICE_BLOCKED.blocks(IntrClass::Device));
        assert!(!IntrMask::DEVICE_BLOCKED.blocks(IntrClass::Ipi));
    }

    #[test]
    fn default_mask_is_open() {
        assert_eq!(IntrMask::default(), IntrMask::OPEN);
    }

    #[test]
    fn vectors_order_by_number() {
        assert!(Vector::new(1) < Vector::new(7));
        assert_eq!(Vector::new(3).number(), 3);
        assert_eq!(Vector::new(3).to_string(), "v3");
    }

    #[test]
    fn a_vector_set_iterates_lowest_first_across_words() {
        let mut set = VectorSet::default();
        for n in [255, 64, 0, 200, 63, 64] {
            set.insert(Vector::new(n));
        }
        set.remove(Vector::new(200));
        let numbers: Vec<u8> = set.iter().map(Vector::number).collect();
        assert_eq!(numbers, [0, 63, 64, 255]);
        assert!(set.contains(Vector::new(63)) && !set.contains(Vector::new(200)));
        assert_eq!(
            format!("{set:?}"),
            "{Vector(0), Vector(63), Vector(64), Vector(255)}"
        );
        for n in [0, 63, 64, 255] {
            set.remove(Vector::new(n));
        }
        assert!(set.is_empty());
    }

    #[test]
    fn fanout_tree_partitions_slots_exactly_once() {
        for degree in 1..=5 {
            for len in 0..40 {
                let t = FanoutTree::new(degree, len);
                let mut seen = vec![0u32; len];
                for s in t.root_children() {
                    seen[s] += 1;
                }
                for relay in 0..len {
                    for s in t.children(relay) {
                        assert_eq!(t.parent(s), Some(relay));
                        seen[s] += 1;
                    }
                }
                // Every slot is reached by exactly one sender (poster or relay).
                assert!(seen.iter().all(|&c| c == 1), "degree {degree} len {len}");
            }
        }
    }

    #[test]
    fn fanout_depth_is_logarithmic() {
        let t = FanoutTree::new(4, 1024);
        assert_eq!(t.depth(), 5); // 4 + 16 + 64 + 256 + 1024 covers 1024 slots
        assert_eq!(FanoutTree::new(2, 1).depth(), 1);
        assert_eq!(FanoutTree::new(2, 0).depth(), 0);
        // Degree >= len degenerates to one flat hop from the poster.
        assert_eq!(FanoutTree::new(16, 7).depth(), 1);
    }

    #[test]
    fn fanout_hops_grow_with_slot() {
        let t = FanoutTree::new(2, 15);
        assert_eq!(t.hops(0), 1);
        assert_eq!(t.hops(1), 1);
        assert_eq!(t.hops(2), 2);
        assert_eq!(t.hops(5), 2);
        assert_eq!(t.hops(6), 3);
        assert_eq!(t.hops(13), 3);
        assert_eq!(t.hops(14), 4);
    }
}
