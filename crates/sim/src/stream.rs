//! Background interrupt stream spacing, and the exact arithmetic that lets
//! a jittered stream's setup count its arrivals in batches.
//!
//! A jittered gap is `mean.mul_f64(rng.gen_range(lo..hi))`. Setup must
//! count a stream's arrivals (drawing every gap from the machine RNG, so
//! the RNG ends where an up-front schedule would leave it), and the lazy
//! replay must reproduce each gap later. Both go through [`Jitter::gap`],
//! which computes a gap from one raw 64-bit draw with no libm call, bit
//! for bit as the vendored float sampler and [`Dur::mul_f64`] do.
//! [`Jitter::count`] sums 64 such gaps at a time from a clone of the RNG
//! and adopts the clone's state when the whole block fits.

use rand::rngs::SmallRng;
use rand::RngCore;

use crate::time::{Dur, Time};

/// How a background interrupt stream spaces its arrivals (see
/// [`Machine::schedule_interrupt_stream`](crate::Machine::schedule_interrupt_stream)).
#[derive(Copy, Clone, Debug, PartialEq)]
pub enum StreamSpacing {
    /// Clocked: every gap is exactly this long. Draws no randomness.
    Every(Dur),
    /// Jittered: each gap is `mean` scaled by a factor drawn uniformly
    /// from `lo..hi` with the machine's random number generator.
    Jittered {
        /// The unscaled gap.
        mean: Dur,
        /// Smallest scale factor (inclusive).
        lo: f64,
        /// Largest scale factor (exclusive).
        hi: f64,
    },
}

impl StreamSpacing {
    /// The next gap, drawn from `rng` if the stream is jittered.
    pub(crate) fn gap(self, rng: &mut SmallRng) -> Dur {
        match self {
            StreamSpacing::Every(period) => period,
            StreamSpacing::Jittered { mean, lo, hi } => Jitter::new(mean, lo, hi).draw(rng),
        }
    }
}

/// 2^52: adding it to a float in `[0, 2^52)` rounds to an integer.
const TWO_52: f64 = 4_503_599_627_370_496.0;
/// The gap limit [`Jitter::gap`]'s rounding is exact below, in ns (2^51).
pub(crate) const GAP_LIMIT_NS: f64 = 2_251_799_813_685_248.0;
/// Gaps drawn per block by [`Jitter::count`].
const BATCH: u64 = 64;

/// A jittered stream's gap law, with its float constants prepared once.
#[derive(Copy, Clone, Debug)]
pub(crate) struct Jitter {
    mean_ns: f64,
    lo: f64,
    hi: f64,
    scale: f64,
}

impl Jitter {
    /// The law of `mean.mul_f64(rng.gen_range(lo..hi))`. The stream's
    /// setup has checked `0 <= lo < hi`, both finite, and
    /// `mean * hi < 2^51` ns.
    pub(crate) fn new(mean: Dur, lo: f64, hi: f64) -> Jitter {
        Jitter {
            mean_ns: mean.as_nanos() as f64,
            lo,
            hi,
            scale: hi - lo,
        }
    }

    /// The gap in ns that the raw draw `raw` gives, or `None` where
    /// `gen_range(lo..hi)` rejects the draw and draws again.
    ///
    /// The factor is the vendored float sampler's: a mantissa of 52 random
    /// bits in `[1, 2)`, less one, scaled and shifted, rejected at or
    /// above `hi`. The gap is [`Dur::mul_f64`]'s rounding of
    /// `mean * factor`, half away from zero, done in float adds:
    /// `x + 2^52` rounds `x` to an integer (ties to even), and a tie that
    /// went down is bumped up. Exact for `0 <= x < 2^51`.
    #[inline]
    pub(crate) fn gap(&self, raw: u64) -> Option<u64> {
        let unit = f64::from_bits(raw >> 12 | 1023 << 52) - 1.0;
        let factor = unit * self.scale + self.lo;
        if factor >= self.hi {
            return None;
        }
        let x = self.mean_ns * factor;
        let y = x + TWO_52;
        let rounded = y - TWO_52;
        Some(y.to_bits() - TWO_52.to_bits() + u64::from(x - rounded == 0.5))
    }

    /// The next gap from `rng`, drawing again past rejections as
    /// `gen_range` does.
    pub(crate) fn draw(&self, rng: &mut SmallRng) -> Dur {
        loop {
            if let Some(ns) = self.gap(rng.next_u64()) {
                return Dur::nanos(ns);
            }
        }
    }

    /// The number of arrivals at `first` and then one gap apart while they
    /// stay at or before `until` (`until < Time::MAX`), drawing one gap per
    /// arrival from `rng`: the same count, and the same end state of
    /// `rng`, as walking the arrivals one at a time.
    ///
    /// Blocks of 64 gaps are drawn from a clone of `rng`. A block that
    /// fits before `until` is taken whole and the clone's state adopted;
    /// otherwise (or when a draw in it was rejected) the block is walked
    /// one gap at a time on `rng` itself.
    pub(crate) fn count(&self, rng: &mut SmallRng, first: Time, until: Time) -> u64 {
        let (mut t, until) = (first.as_nanos(), until.as_nanos());
        let mut n = 0;
        while t <= until {
            let mut ahead = rng.clone();
            let mut sum = 0u64;
            let mut clean = true;
            for _ in 0..BATCH {
                match self.gap(ahead.next_u64()) {
                    Some(g) => sum += g,
                    None => clean = false,
                }
            }
            if clean && t.saturating_add(sum) <= until {
                n += BATCH;
                t += sum;
                *rng = ahead;
                continue;
            }
            for _ in 0..BATCH {
                if t > until {
                    break;
                }
                n += 1;
                t = t.saturating_add(self.draw(rng).as_nanos());
            }
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    /// The one-at-a-time walk `Jitter::count` must match: count an
    /// arrival, draw the gap to the next, stop past `until`.
    fn oracle(rng: &mut SmallRng, mean: Dur, lo: f64, hi: f64, first: Time, until: Time) -> u64 {
        let (mut t, mut n) = (first, 0);
        while t <= until {
            n += 1;
            t += mean.mul_f64(rng.gen_range(lo..hi));
        }
        n
    }

    /// Checks `count` against the oracle from `seed` and returns the count.
    fn check(seed: u64, mean: Dur, lo: f64, hi: f64, first: Time, until: Time) -> u64 {
        let mut fast = SmallRng::seed_from_u64(seed);
        let mut slow = fast.clone();
        let n = Jitter::new(mean, lo, hi).count(&mut fast, first, until);
        let expect = oracle(&mut slow, mean, lo, hi, first, until);
        let case = format!("seed {seed} mean {mean} {lo}..{hi} {first:?}..={until:?}");
        assert_eq!(n, expect, "{case}");
        assert_eq!(fast, slow, "RNG end state differs: {case}");
        n
    }

    #[test]
    fn count_matches_the_one_at_a_time_walk_over_random_streams() {
        let mut pick = SmallRng::seed_from_u64(0x5eed);
        for _ in 0..400 {
            let mean_ns = pick.gen_range(1_000..5_000_000u64);
            let lo = pick.gen_range(0.0..1.5);
            let hi = lo + pick.gen_range(0.05..2.0);
            let first = pick.gen_range(0..10_000_000u64);
            // From before `first` to a few thousand mean gaps past it.
            let until = pick.gen_range(first / 2..first + mean_ns * 3_000);
            let (first, until) = (Time::from_nanos(first), Time::from_nanos(until));
            check(pick.next_u64(), Dur::nanos(mean_ns), lo, hi, first, until);
        }
    }

    #[test]
    fn count_is_zero_when_the_stream_starts_after_until() {
        let us = Time::from_micros;
        assert_eq!(check(1, Dur::micros(10), 0.05, 1.95, us(11), us(10)), 0);
    }

    #[test]
    fn count_includes_an_arrival_exactly_at_until() {
        // Find the instant of arrival k by the oracle, then end there (k
        // arrivals) and one nanosecond before (k - 1).
        let (mean, lo, hi) = (Dur::micros(7), 0.5, 1.5);
        let first = Time::from_micros(3);
        for seed in 0..20 {
            for k in [1u64, 2, 63, 64, 65, 128, 200] {
                let mut rng = SmallRng::seed_from_u64(seed);
                let mut t = first;
                for _ in 1..k {
                    t += mean.mul_f64(rng.gen_range(lo..hi));
                }
                assert_eq!(check(seed, mean, lo, hi, first, t), k);
                let before = Time::from_nanos(t.as_nanos() - 1);
                if before >= first {
                    assert_eq!(check(seed, mean, lo, hi, first, before), k - 1);
                }
            }
        }
    }

    #[test]
    fn count_takes_whole_blocks_at_exact_multiples_of_the_batch() {
        // A gap law that always rounds to one value: mean 1000 ns with
        // factors in [1, 1 + 2^-12) scale to 1000 ns after rounding.
        let (mean, lo, hi) = (Dur::nanos(1000), 1.0, 1.0 + 1.0 / 4096.0);
        let first = Time::ZERO;
        for blocks in 1..=4u64 {
            let n = blocks * BATCH;
            let until = Time::from_nanos((n - 1) * 1000);
            assert_eq!(check(9, mean, lo, hi, first, until), n);
            let until = Time::from_nanos(n * 1000 - 1);
            assert_eq!(check(9, mean, lo, hi, first, until), n);
        }
    }

    #[test]
    fn a_rejected_draw_takes_the_one_at_a_time_path() {
        // The largest mantissa scaled onto 0.7..1.1 rounds up to `hi`
        // itself, which `gen_range` rejects and draws again.
        let (mean, lo, hi) = (Dur::micros(1), 0.7, 1.1);
        assert_eq!(Jitter::new(mean, lo, hi).gap(u64::MAX), None);
        // xoshiro256++'s first output is rotl(s0 + s3, 23) + s0: state
        // [0, _, _, u64::MAX] yields u64::MAX, so the first block starts
        // with a rejected draw.
        let forced = |s1: u64, s2: u64| {
            let mut seed = [0u8; 32];
            for (i, w) in [0, s1, s2, u64::MAX].into_iter().enumerate() {
                seed[i * 8..(i + 1) * 8].copy_from_slice(&w.to_le_bytes());
            }
            SmallRng::from_seed(seed)
        };
        assert_eq!(forced(1, 2).next_u64(), u64::MAX);
        let us = Time::from_micros;
        for (s1, s2) in [(1, 2), (0x1234, 0x5678), (u64::MAX, 7)] {
            // A stream much longer than a block, one shorter, and one that
            // ends on the first gap.
            for until in [us(1_000), us(10), us(0)] {
                let mut fast = forced(s1, s2);
                let mut slow = fast.clone();
                let n = Jitter::new(mean, lo, hi).count(&mut fast, Time::ZERO, until);
                assert_eq!(n, oracle(&mut slow, mean, lo, hi, Time::ZERO, until));
                assert_eq!(fast, slow);
            }
        }
    }

    #[test]
    fn gap_rounds_exact_half_nanosecond_ties_away_from_zero() {
        // factor = lo + unit * (hi - lo) with unit = 0.5 (mantissa bit 51)
        // and lo = 0, hi = 1: factor 0.5, and mean 2k+1 ns gives x = k + 0.5.
        let raw = 1u64 << 63;
        for mean in [1u64, 3, 5, 7, 1001, (1 << 40) + 1] {
            let jitter = Jitter::new(Dur::nanos(mean), 0.0, 1.0);
            let expect = Dur::nanos(mean).mul_f64(0.5).as_nanos();
            assert_eq!(jitter.gap(raw), Some(expect), "mean {mean}");
            assert_eq!(
                expect,
                mean / 2 + 1,
                "mean {mean}: round half away from zero"
            );
        }
    }

    #[test]
    fn gap_is_exact_at_the_rounding_limit() {
        // mean * hi just under 2^51 ns: the largest gap setup accepts.
        let (lo, hi) = (0.05, 1.95);
        let mean = Dur::nanos((GAP_LIMIT_NS / hi) as u64 - 1);
        assert!(mean.as_nanos() as f64 * hi < GAP_LIMIT_NS);
        let jitter = Jitter::new(mean, lo, hi);
        let mut fast = SmallRng::seed_from_u64(51);
        let mut slow = fast.clone();
        for _ in 0..100_000 {
            assert_eq!(jitter.draw(&mut fast), mean.mul_f64(slow.gen_range(lo..hi)));
        }
        // Arrivals up to the last instant below Time::MAX: the block sums
        // saturate near the top and fall back to the walk.
        check(3, mean, lo, hi, Time::ZERO, Time::from_nanos(u64::MAX - 1));
    }

    /// Ten million draws, each pinned to the expression it replaces.
    #[test]
    fn draw_matches_gen_range_then_mul_f64() {
        let laws = [
            (Dur::micros(10_000), 0.05, 1.95),
            (Dur::micros(1_000), 0.0, 2.0),
            (Dur::nanos(3), 0.25, 0.75),
            (Dur::nanos(123_456_789), 0.9, 1.1),
        ];
        let mut fast = SmallRng::seed_from_u64(0xd1ce);
        let mut slow = fast.clone();
        for i in 0..10_000_000u32 {
            let (mean, lo, hi) = laws[(i % 4) as usize];
            let got = Jitter::new(mean, lo, hi).draw(&mut fast);
            assert_eq!(got, mean.mul_f64(slow.gen_range(lo..hi)), "draw {i}");
        }
        assert_eq!(fast, slow);
    }
}
