//! # machtlb-xpr — tracing and statistics
//!
//! The measurement half of the `machtlb` reproduction of *Translation
//! Lookaside Buffer Consistency: A Software Approach* (Black et al., ASPLOS
//! 1989): the xpr circular event buffer the paper instrumented the Mach
//! kernel with ([`XprBuffer`]), the initiator/responder record schema of
//! Section 6 ([`InitiatorRecord`], [`ResponderRecord`]), the statistics the
//! tables report ([`Summary`], [`linear_fit`]), and a plain-text table
//! renderer for the harnesses ([`TextTable`]), and the one JSON module
//! every reader and writer in the workspace shares ([`json`]).
//!
//! # Examples
//!
//! ```
//! use machtlb_xpr::{linear_fit, Summary};
//!
//! // Figure 2's analysis: fit shootdown cost against processor count.
//! let points = vec![(1.0, 487.0), (2.0, 539.0), (3.0, 596.0), (4.0, 651.0)];
//! let fit = linear_fit(&points).expect("enough points");
//! assert!(fit.slope > 50.0 && fit.slope < 60.0);
//!
//! let s = Summary::of(&[100.0, 110.0, 500.0]).expect("non-empty");
//! assert!(s.is_right_skewed() || s.median <= s.mean);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod buffer;
mod chrome;
mod histogram;
pub mod json;
mod plot;
mod record;
mod stats;
mod table;
mod trace;

pub use buffer::XprBuffer;
pub use chrome::{chrome_trace_json, validate_chrome_trace};
pub use histogram::Histogram;
pub use plot::{ascii_histogram, ascii_scatter};
pub use record::{InitiatorRecord, PmapKind, ResponderRecord, ShootdownEvent};
pub use stats::{linear_fit, percentile_nearest_rank, percentile_sorted, LinFit, Summary};
pub use table::{counters_table, TextTable};
pub use trace::{
    assemble_spans, check_monotone_per_cpu, phase_latencies, phase_latencies_by_node,
    recovery_latencies, validate_spans, FlightRecorder, PhaseSlice, Span, SpanId, SpanMark,
    TraceEdge, TraceEvent, TracePhase,
};

#[cfg(test)]
mod proptests {
    use proptest::prelude::*;

    use super::*;

    proptest! {
        /// The circular buffer retains exactly the most recent
        /// `min(capacity, pushed)` items, in order.
        #[test]
        fn buffer_retains_suffix(cap in 1usize..20, items in proptest::collection::vec(any::<u16>(), 0..60)) {
            let mut b = XprBuffer::new(cap);
            for &x in &items {
                b.record(x);
            }
            let got: Vec<u16> = b.iter().copied().collect();
            let keep = items.len().min(cap);
            prop_assert_eq!(&got[..], &items[items.len() - keep..]);
            prop_assert_eq!(b.recorded() as usize, items.len());
            prop_assert_eq!(b.overwritten() as usize, items.len().saturating_sub(cap));
        }

        /// Summary invariants: min <= p10 <= median <= p90 <= max, and the
        /// mean lies within [min, max].
        #[test]
        fn summary_orderings(samples in proptest::collection::vec(0.0f64..1e6, 1..100)) {
            let s = Summary::of(&samples).expect("non-empty");
            prop_assert!(s.min <= s.p10 + 1e-9);
            prop_assert!(s.p10 <= s.median + 1e-9);
            prop_assert!(s.median <= s.p90 + 1e-9);
            prop_assert!(s.p90 <= s.max + 1e-9);
            prop_assert!(s.mean >= s.min - 1e-9 && s.mean <= s.max + 1e-9);
            prop_assert!(s.std >= 0.0);
        }

        /// Summary's tail percentiles match a reference nearest-rank
        /// implementation written independently of `percentile_nearest_rank`
        /// (count-based rather than index-based): the p-th percentile is the
        /// smallest sample v such that at least p% of the sample is <= v.
        #[test]
        fn summary_tails_match_reference_nearest_rank(
            samples in proptest::collection::vec(0.0f64..1e6, 1..60),
        ) {
            fn reference(samples: &[f64], p: f64) -> f64 {
                let mut sorted = samples.to_vec();
                sorted.sort_by(|a, b| a.partial_cmp(b).expect("non-NaN"));
                let need = p / 100.0 * sorted.len() as f64;
                *sorted
                    .iter()
                    .find(|&&v| {
                        let at_or_below = sorted.iter().filter(|&&w| w <= v).count();
                        at_or_below as f64 >= need
                    })
                    .expect("some sample covers 100%")
            }
            let s = Summary::of(&samples).expect("non-empty");
            prop_assert_eq!(s.p10, reference(&samples, 10.0));
            prop_assert_eq!(s.p90, reference(&samples, 90.0));
            // And in particular both are actual samples, never interpolants.
            prop_assert!(samples.contains(&s.p10));
            prop_assert!(samples.contains(&s.p90));
        }

        /// A least-squares fit of exact points on a line recovers the line.
        #[test]
        fn fit_recovers_line(slope in -100.0f64..100.0, intercept in -1e4f64..1e4) {
            let pts: Vec<(f64, f64)> = (0..10).map(|i| (i as f64, intercept + slope * i as f64)).collect();
            let fit = linear_fit(&pts).expect("x spread is nonzero");
            prop_assert!((fit.slope - slope).abs() < 1e-6 * (1.0 + slope.abs()));
            prop_assert!((fit.intercept - intercept).abs() < 1e-6 * (1.0 + intercept.abs()));
        }
    }
}
