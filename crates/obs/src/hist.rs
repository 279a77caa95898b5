//! Power-of-two latency histograms: fixed-size, no allocation after
//! construction.
//!
//! [`LatencyHistogram`] is the single-writer value type; the lock-free
//! multi-writer counterpart lives in
//! [`crate::registry::AtomicHistogram`] and snapshots into this type,
//! so all quantile logic lives in exactly one place.

use std::time::Duration;

/// Power-of-two latency histogram: bucket `i` counts observations in
/// `[2^i, 2^{i+1})` nanoseconds, except bucket 0, which spans `[0, 2)`
/// so zero-duration observations are counted rather than misfiled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    buckets: [u64; 64],
    count: u64,
    total_ns: u128,
    max_ns: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: [0; 64],
            count: 0,
            total_ns: 0,
            max_ns: 0,
        }
    }
}

/// Bucket index of an observation: `⌊log₂ ns⌋`, with 0 ns and 1 ns
/// both filed in bucket 0.
#[inline]
pub(crate) fn bucket_of(ns: u64) -> usize {
    (63 - (ns | 1).leading_zeros()) as usize
}

impl LatencyHistogram {
    /// Records one observation.  0 ns and 1 ns land in bucket 0;
    /// observations past `u64::MAX` ns saturate into the top bucket.
    pub fn record(&mut self, latency: Duration) {
        self.record_ns(latency.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Records one observation given directly in nanoseconds.
    pub fn record_ns(&mut self, ns: u64) {
        self.buckets[bucket_of(ns)] += 1;
        self.count += 1;
        self.total_ns += ns as u128;
        self.max_ns = self.max_ns.max(ns);
    }

    /// Rebuilds a histogram from raw parts (the atomic snapshot path).
    pub(crate) fn from_parts(buckets: [u64; 64], count: u64, total_ns: u128, max_ns: u64) -> Self {
        LatencyHistogram {
            buckets,
            count,
            total_ns,
            max_ns,
        }
    }

    /// Observations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations in nanoseconds.
    pub fn total_ns(&self) -> u128 {
        self.total_ns
    }

    /// Mean latency in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            (self.total_ns / self.count as u128) as u64
        }
    }

    /// Largest observation in nanoseconds.
    pub fn max_ns(&self) -> u64 {
        self.max_ns
    }

    /// Upper bucket bound covering quantile `q ∈ [0, 1]` — e.g.
    /// `quantile_ns(0.99)` is an upper bound on the p99 latency, at
    /// power-of-two resolution, never past the largest observation
    /// (so `quantile_ns(1.0) == max_ns()`).  0 when empty; `q` outside
    /// `[0, 1]` is clamped.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        // Nudge below the exact product before ceiling: a q·count that
        // lands on an integer boundary must select that rank, not the
        // next one up (0.99·100 computes as 99.000…01 in binary and
        // used to round to rank 100 — the p99 of 99 fast observations
        // and one slow one reported the slow one).
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64) - 1e-9)
            .ceil()
            .max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= rank {
                // Inclusive bucket upper bound; 2^64 − 1 for the top
                // bucket (the old `1 << 63` understated any observation
                // past 2^63), clamped to the largest observation.
                let upper = ((1u128 << (i + 1)) - 1).min(u64::MAX as u128) as u64;
                return upper.min(self.max_ns);
            }
        }
        self.max_ns
    }

    /// Raw bucket counts (bucket `i` spans `[2^i, 2^{i+1})` ns;
    /// bucket 0 spans `[0, 2)`).
    pub fn buckets(&self) -> &[u64; 64] {
        &self.buckets
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_are_ordered() {
        let mut h = LatencyHistogram::default();
        assert_eq!(h.quantile_ns(0.5), 0);
        for ns in [100u64, 200, 400, 800, 1600, 3200, 1_000_000] {
            h.record(Duration::from_nanos(ns));
        }
        assert_eq!(h.count(), 7);
        assert!(h.quantile_ns(0.5) <= h.quantile_ns(0.99));
        assert!(h.quantile_ns(0.99) <= h.max_ns().next_power_of_two());
        assert!(h.mean_ns() > 0);
        assert_eq!(h.max_ns(), 1_000_000);
        assert_eq!(h.buckets().iter().sum::<u64>(), 7);
    }

    #[test]
    fn histogram_edge_observations_are_counted_not_misfiled() {
        let mut h = LatencyHistogram::default();
        // 0 ns and 1 ns both land in bucket 0 ([0, 2) ns)…
        h.record(Duration::from_nanos(0));
        h.record(Duration::from_nanos(1));
        // …and the largest representable observation saturates into the
        // top bucket.
        h.record(Duration::from_nanos(u64::MAX));
        assert_eq!(h.count(), 3);
        assert_eq!(h.buckets()[0], 2);
        assert_eq!(h.buckets()[63], 1);
        assert_eq!(h.max_ns(), u64::MAX);
        // q = 0 bounds the smallest observation's bucket; q = 1 returns
        // the largest actual observation, not 2^63 (the old top-bucket
        // understatement).  Out-of-range q clamps instead of panicking.
        assert_eq!(h.quantile_ns(0.0), 1);
        assert_eq!(h.quantile_ns(1.0), u64::MAX);
        assert_eq!(h.quantile_ns(-1.0), 1);
        assert_eq!(h.quantile_ns(2.0), u64::MAX);
        assert_eq!(h.mean_ns(), ((u64::MAX as u128 + 1) / 3) as u64);
    }

    #[test]
    fn histogram_quantile_rank_hits_exact_count_boundaries() {
        // 99 fast observations and one slow one: p99 must select rank
        // 99 (a fast one), not round 0.99·100 up to rank 100 (the slow
        // one).
        let mut h = LatencyHistogram::default();
        for _ in 0..99 {
            h.record(Duration::from_nanos(10));
        }
        h.record(Duration::from_micros(100));
        assert_eq!(h.quantile_ns(0.99), 15); // [8, 16) bucket bound
        assert_eq!(h.quantile_ns(0.991), 100_000); // clamped to max_ns

        // p50 of two observations is the lower one (rank 1 of 2).
        let mut h2 = LatencyHistogram::default();
        h2.record(Duration::from_nanos(10));
        h2.record(Duration::from_nanos(1000));
        assert_eq!(h2.quantile_ns(0.5), 15);
        assert_eq!(h2.quantile_ns(1.0), 1000);
    }
}
