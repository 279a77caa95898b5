//! The benchmark's own latency record.
//!
//! A log-linear histogram: exact below 32 ns, then 32 sub-buckets per
//! power of two (at most 3 % relative bucket width).  Quantiles
//! interpolate linearly inside the bucket they land in, so a percentile
//! carries all its digits instead of snapping to a bucket bound.  (The
//! program's registry histograms are power-of-two buckets whose
//! percentiles read as bucket upper bounds; the benchmark never uses
//! them.)

const SUB_BITS: u32 = 5;
const SUB: usize = 1 << SUB_BITS;
const BUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUB;

/// Nanosecond samples, each with a multiplicity.
pub struct Hist {
    counts: Vec<u64>,
    n: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist::new()
    }
}

impl Hist {
    pub fn new() -> Self {
        Hist {
            counts: vec![0; BUCKETS],
            n: 0,
        }
    }

    pub fn record(&mut self, ns: u64) {
        self.record_n(ns, 1);
    }

    /// Records `n` samples of the same value (a batch of arrivals that
    /// waited equally long).
    pub fn record_n(&mut self, ns: u64, n: u64) {
        self.counts[bucket(ns)] += n;
        self.n += n;
    }

    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.n += other.n;
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    /// The mean of the lowest `share` of the samples, each bucket's
    /// samples taken at the mean of the whole numbers it holds; 0 when
    /// empty.
    pub fn trimmed_mean(&self, share: f64) -> f64 {
        let keep = (share * self.n as f64).ceil() as u64;
        let (mut taken, mut sum) = (0u64, 0f64);
        for (b, &c) in self.counts.iter().enumerate() {
            let c = c.min(keep - taken);
            if c > 0 {
                let (lo, width) = bounds(b);
                sum += c as f64 * (lo as f64 + (width - 1) as f64 / 2.0);
                taken += c;
            }
            if taken == keep {
                break;
            }
        }
        if taken > 0 {
            sum / taken as f64
        } else {
            0.0
        }
    }

    /// The `q`-quantile, `0 ≤ q < 1`; 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        let rank = q * self.n as f64;
        let mut before = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            if c > 0 && (before + c) as f64 > rank {
                let (lo, width) = bounds(b);
                return lo as f64 + width as f64 * (rank - before as f64) / c as f64;
            }
            before += c;
        }
        0.0
    }
}

fn bucket(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let shift = 63 - v.leading_zeros() - SUB_BITS;
    (shift as usize + 1) * SUB + ((v >> shift) as usize & (SUB - 1))
}

/// Lower bound and width of bucket `b`.
fn bounds(b: usize) -> (u64, u64) {
    if b < SUB {
        return (b as u64, 1);
    }
    let shift = (b / SUB - 1) as u32;
    (((SUB + b % SUB) as u64) << shift, 1 << shift)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_round_trip() {
        for v in [
            0u64,
            1,
            31,
            32,
            63,
            64,
            65,
            255,
            256,
            511,
            512,
            513,
            1 << 20,
            123_456_789,
            u64::MAX,
        ] {
            let (lo, w) = bounds(bucket(v));
            assert!(lo <= v && v - lo < w, "{v}: [{lo}, {lo}+{w})");
        }
    }

    #[test]
    fn quantiles_interpolate() {
        let mut h = Hist::new();
        for v in 0..100 {
            h.record(v);
        }
        assert_eq!(h.quantile(0.5), 50.0);
        assert_eq!(h.quantile(0.99), 99.0);
        assert_eq!(h.trimmed_mean(0.5), 24.5);
        assert_eq!(Hist::new().trimmed_mean(0.9), 0.0);
        let mut w = Hist::new();
        w.record_n(1000, 3);
        assert!((992.0..1008.0).contains(&w.quantile(0.5)));
        h.merge(&w);
        assert_eq!(h.count(), 103);
    }
}
