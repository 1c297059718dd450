//! # machtlb-tlb — the translation lookaside buffer model
//!
//! The hardware whose behaviour motivates the Mach shootdown algorithm
//! (Black et al., ASPLOS 1989). A [`Tlb`] is a small, fully associative,
//! LRU-replaced cache of page-table entries with exactly the two features
//! Section 3 identifies as the crux of the consistency problem:
//!
//! 1. **hardware reload** — the MMU can re-walk the page tables and re-cache
//!    an entry the instant after it was flushed, so flushing before the pmap
//!    change is insufficient ([`ReloadPolicy`]);
//! 2. **asynchronous referenced/modified-bit writeback** — the TLB writes
//!    its *cached copy* of an entry back to memory, without interlock, to
//!    record referenced/modified bits, so a stale entry can corrupt a
//!    concurrent pmap change ([`WritebackPolicy`]).
//!
//! The hardware-design alternatives of Sections 9 and 10 (software reload,
//! interlocked or absent referenced/modified bits, ASID tagging) are
//! configuration switches on [`TlbConfig`], so the reproduction's ablation
//! benches flip single hardware features at a time.
//!
//! # Examples
//!
//! The non-interlocked writeback hazard, in miniature:
//!
//! ```
//! use machtlb_pmap::{Access, PageTable, Pfn, PmapId, Prot, Pte, Vpn};
//! use machtlb_sim::Time;
//! use machtlb_tlb::{Lookup, Tlb, TlbConfig};
//!
//! let mut pt = PageTable::new();
//! let mut tlb = Tlb::new(TlbConfig::multimax());
//! let (pmap, vpn) = (PmapId::new(1), Vpn::new(0x40));
//!
//! // A read-write mapping gets cached...
//! let mapping = Pte::valid(Pfn::new(7), Prot::READ_WRITE);
//! pt.set(vpn, mapping);
//! tlb.insert(pmap, vpn, mapping, Time::ZERO);
//!
//! // ...the OS revokes it in memory (without a shootdown!)...
//! pt.set(vpn, Pte::INVALID);
//!
//! // ...and the TLB's next write access emits a writeback of its stale
//! // cached copy, which would resurrect the revoked mapping in memory:
//! let Lookup::Hit { writeback: Some(wb), .. } =
//!     tlb.lookup(pmap, vpn, Access::Write, Time::ZERO) else { panic!() };
//! pt.set(vpn, wb.pte); // non-interlocked writeback
//! assert!(pt.get(vpn).valid, "the revoked mapping came back");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
pub mod reference;
mod tlb;

pub use config::{ReloadPolicy, TlbConfig, WritebackPolicy};
pub use machtlb_sim::fxhash;
pub use tlb::{InvalidationPlan, Lookup, Tlb, TlbEntry, TlbStats, Writeback};

#[cfg(test)]
mod proptests {
    use proptest::prelude::*;

    use machtlb_pmap::{Access, PageRange, Pfn, PmapId, Prot, Pte, Vpn};
    use machtlb_sim::Time;

    use super::*;

    #[derive(Debug, Clone)]
    enum Op {
        Insert(u32, u64, u64),
        Lookup(u32, u64, bool),
        Invalidate(u32, u64),
        InvalidateRange(u32, u64, u64),
        FlushPmap(u32),
        FlushAll,
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        let pmap = 0u32..3;
        let vpn = 0u64..40;
        prop_oneof![
            (pmap.clone(), vpn.clone(), 1u64..100).prop_map(|(p, v, f)| Op::Insert(p, v, f)),
            (pmap.clone(), vpn.clone(), any::<bool>()).prop_map(|(p, v, w)| Op::Lookup(p, v, w)),
            (pmap.clone(), vpn.clone()).prop_map(|(p, v)| Op::Invalidate(p, v)),
            (pmap.clone(), vpn.clone(), 1u64..16)
                .prop_map(|(p, v, c)| Op::InvalidateRange(p, v, c)),
            pmap.prop_map(Op::FlushPmap),
            Just(Op::FlushAll),
        ]
    }

    proptest! {
        /// No operation sequence can create duplicate (pmap, vpn) entries or
        /// exceed capacity, and peek always agrees with the entry list.
        #[test]
        fn no_duplicates_and_bounded(ops in proptest::collection::vec(op_strategy(), 1..80)) {
            let mut t = Tlb::new(TlbConfig { capacity: 8, ..TlbConfig::multimax() });
            for op in ops {
                match op {
                    Op::Insert(p, v, f) => {
                        t.insert(PmapId::new(p), Vpn::new(v), Pte::valid(Pfn::new(f), Prot::READ_WRITE), Time::ZERO);
                    }
                    Op::Lookup(p, v, w) => {
                        let access = if w { Access::Write } else { Access::Read };
                        let _ = t.lookup(PmapId::new(p), Vpn::new(v), access, Time::ZERO);
                    }
                    Op::Invalidate(p, v) => {
                        let _ = t.invalidate(PmapId::new(p), Vpn::new(v));
                    }
                    Op::InvalidateRange(p, v, c) => {
                        let _ = t.invalidate_range(PmapId::new(p), PageRange::new(Vpn::new(v), c));
                    }
                    Op::FlushPmap(p) => {
                        let _ = t.flush_pmap(PmapId::new(p));
                    }
                    Op::FlushAll => {
                        let _ = t.flush_all();
                    }
                }
                let mut keys: Vec<(u32, u64)> =
                    t.entries().map(|e| (e.pmap.raw(), e.vpn.raw())).collect();
                prop_assert!(keys.len() <= 8);
                let n = keys.len();
                keys.sort_unstable();
                keys.dedup();
                prop_assert_eq!(keys.len(), n, "duplicate (pmap, vpn) entry");
                for &(p, v) in &keys {
                    prop_assert!(t.peek(PmapId::new(p), Vpn::new(v)).is_some());
                }
            }
        }

        /// After invalidate_range, nothing in the range remains for that
        /// pmap; other pmaps are untouched.
        #[test]
        fn invalidate_range_is_exact(
            inserts in proptest::collection::vec((0u32..3, 0u64..40), 1..20),
            p in 0u32..3,
            start in 0u64..40,
            count in 1u64..16,
        ) {
            let mut t = Tlb::new(TlbConfig { capacity: 64, ..TlbConfig::multimax() });
            for (ip, iv) in &inserts {
                t.insert(PmapId::new(*ip), Vpn::new(*iv), Pte::valid(Pfn::new(1), Prot::READ), Time::ZERO);
            }
            let before: Vec<(u32, u64)> = t.entries().map(|e| (e.pmap.raw(), e.vpn.raw())).collect();
            let range = PageRange::new(Vpn::new(start), count);
            t.invalidate_range(PmapId::new(p), range);
            let after: Vec<(u32, u64)> = t.entries().map(|e| (e.pmap.raw(), e.vpn.raw())).collect();
            for &(ep, ev) in &before {
                let in_range = ep == p && range.contains(Vpn::new(ev));
                prop_assert_eq!(after.contains(&(ep, ev)), !in_range);
            }
        }
    }
}
