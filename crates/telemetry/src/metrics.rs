//! The metrics vocabulary beyond plain counters: [`Gauge`] values and
//! fixed-bucket [`Hist`] histograms ([`HistData`]).
//!
//! Counters ([`crate::Counter`]) are monotonic work tallies; gauges are
//! sampled values with an explicit per-kind combine rule (peak memory is
//! a maximum, total allocations are a sum); histograms record the
//! *distribution* of a quantity — division-chain lengths, live polynomial
//! sizes, S-polynomial sizes, CNF clause lengths, simulation batch times
//! — in a fixed power-of-two bucket layout so two traces can be compared
//! bucket by bucket without any binning negotiation.

/// Number of buckets in every [`HistData`]. Bucket `i` covers values in
/// `[2^i, 2^(i+1))`, except bucket 0 which also holds 0 and the last
/// bucket which is open-ended.
pub const HIST_BUCKETS: usize = 16;

slug_enum! {
    /// A sampled (non-monotonic) per-span value.
    ///
    /// Unlike counters, gauges carry an explicit aggregation rule: when two
    /// spans of the same phase are merged (trace-diff aggregation, nested
    /// span roll-ups) the combined value is [`Gauge::combine`] of the parts.
    pub enum Gauge {
        /// Peak live heap bytes observed on the span's thread while the span
        /// was open (memory accounting must be enabled). Combines by `max`.
        MemPeakBytes = "mem-peak-bytes",
        /// Total bytes allocated on the span's thread while the span was
        /// open. Combines by `+`.
        MemAllocBytes = "mem-alloc-bytes",
        /// Number of heap allocations on the span's thread while the span
        /// was open. Combines by `+`.
        MemAllocs = "mem-allocs",
    }
}

impl Gauge {
    /// Combines two observations of this gauge (see variant docs).
    #[must_use]
    pub fn combine(self, a: u64, b: u64) -> u64 {
        match self {
            Gauge::MemPeakBytes => a.max(b),
            Gauge::MemAllocBytes | Gauge::MemAllocs => a.saturating_add(b),
        }
    }
}

impl std::fmt::Display for Gauge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.slug())
    }
}

slug_enum! {
    /// A histogram kind: which quantity a [`HistData`] is a distribution of.
    pub enum Hist {
        /// Division steps per reduction chain (one sample per normal form).
        DivisionChainLen = "division-chain-len",
        /// Live working-polynomial terms, sampled every budget stride during
        /// a guided reduction.
        ReductionPolySize = "reduction-poly-size",
        /// Terms per S-polynomial reduced by Buchberger.
        SPolyTerms = "s-poly-terms",
        /// Literals per CNF clause emitted by the Tseitin encoding.
        CnfClauseLen = "cnf-clause-len",
        /// Microseconds per simulation sweep batch (wall time — excluded
        /// from deterministic comparisons, informational in diffs).
        SimBatchUs = "sim-batch-us",
        /// Microseconds a batch-engine query spent queued before a worker
        /// dequeued it (wall time — excluded from deterministic
        /// comparisons, informational in diffs).
        QueueLatencyUs = "queue-latency-us",
    }
}

impl Hist {
    /// Whether samples of this histogram are deterministic across thread
    /// counts and machines (everything except wall-time histograms).
    #[must_use]
    pub fn is_deterministic(self) -> bool {
        !matches!(self, Hist::SimBatchUs | Hist::QueueLatencyUs)
    }
}

impl std::fmt::Display for Hist {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.slug())
    }
}

/// A fixed-layout histogram: power-of-two buckets plus count/sum/min/max.
///
/// The layout is identical for every [`Hist`] kind, so histograms from
/// different traces merge and diff without binning negotiation, and the
/// struct is `Copy`-sized (no heap allocation on the recording path).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistData {
    /// Number of recorded samples.
    pub count: u64,
    /// Sum of all samples (saturating).
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
    /// Bucket `i` counts samples in `[2^i, 2^(i+1))`; bucket 0 also
    /// holds 0, the last bucket is open-ended.
    pub buckets: [u64; HIST_BUCKETS],
}

impl Default for HistData {
    fn default() -> Self {
        HistData {
            count: 0,
            sum: 0,
            min: 0,
            max: 0,
            buckets: [0; HIST_BUCKETS],
        }
    }
}

impl HistData {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> HistData {
        HistData::default()
    }

    /// Whether no samples have been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The bucket index a value falls into.
    #[must_use]
    pub fn bucket_of(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            (63 - value.leading_zeros() as usize).min(HIST_BUCKETS - 1)
        }
    }

    /// Inclusive lower bound of bucket `i`.
    #[must_use]
    pub fn bucket_lo(i: usize) -> u64 {
        if i == 0 {
            0
        } else {
            1u64 << i
        }
    }

    /// Inclusive upper bound of bucket `i` (the last bucket is
    /// open-ended, so its bound is `u64::MAX`).
    #[must_use]
    pub fn bucket_hi(i: usize) -> u64 {
        if i + 1 < HIST_BUCKETS {
            (1u64 << (i + 1)) - 1
        } else {
            u64::MAX
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.min = if self.count == 0 {
            value
        } else {
            self.min.min(value)
        };
        self.max = self.max.max(value);
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.buckets[Self::bucket_of(value)] += 1;
    }

    /// Merges another histogram into this one (bucket-wise addition).
    /// Count, sum and buckets saturate at `u64::MAX` rather than wrap, so
    /// merging histograms read from hostile files can never make a
    /// distribution look smaller than either input.
    pub fn merge(&mut self, other: &HistData) {
        if other.count == 0 {
            return;
        }
        self.min = if self.count == 0 {
            other.min
        } else {
            self.min.min(other.min)
        };
        self.max = self.max.max(other.max);
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b = b.saturating_add(*o);
        }
    }

    /// Mean sample value (0.0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The `p`-th percentile (`0.0..=100.0`), estimated from the bucket
    /// layout by deterministic integer interpolation; 0 when empty.
    ///
    /// The estimate depends only on `count`, `min`, `max` and the bucket
    /// array — all of which [`HistData::merge`] combines exactly — so
    /// percentiles computed from merged shards equal percentiles of the
    /// concatenated sample stream's histogram. That is the exact-merge
    /// property `gfab trace-agg` is built on.
    #[must_use]
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let p = p.clamp(0.0, 100.0);
        // 1-based rank of the sample the percentile falls on
        // (nearest-rank definition, so p=100 is always `max`).
        let rank = (((self.count as f64) * p / 100.0).ceil() as u64).max(1);
        let mut cum = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            if b > 0 && cum.saturating_add(b) >= rank {
                let lo = Self::bucket_lo(i).max(self.min);
                let hi = Self::bucket_hi(i).min(self.max).max(lo);
                // Interpolate at integer resolution within the bucket:
                // position `pos` of `b` samples maps linearly onto
                // [lo, hi]. u128 keeps (hi-lo)*pos from overflowing.
                let pos = rank - cum; // 1..=b
                let est = lo + ((hi - lo) as u128 * pos as u128 / b as u128) as u64;
                return est.clamp(self.min, self.max);
            }
            cum = cum.saturating_add(b);
        }
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gauge_slugs_round_trip_and_combine() {
        for g in [Gauge::MemPeakBytes, Gauge::MemAllocBytes, Gauge::MemAllocs] {
            assert_eq!(Gauge::from_slug(g.slug()), Some(g));
        }
        assert_eq!(Gauge::from_slug("no-such-gauge"), None);
        assert_eq!(Gauge::MemPeakBytes.combine(10, 7), 10);
        assert_eq!(Gauge::MemAllocBytes.combine(10, 7), 17);
    }

    #[test]
    fn hist_slugs_round_trip() {
        for h in [
            Hist::DivisionChainLen,
            Hist::ReductionPolySize,
            Hist::SPolyTerms,
            Hist::CnfClauseLen,
            Hist::SimBatchUs,
            Hist::QueueLatencyUs,
        ] {
            assert_eq!(Hist::from_slug(h.slug()), Some(h));
        }
        assert_eq!(Hist::from_slug("no-such-hist"), None);
        assert!(Hist::DivisionChainLen.is_deterministic());
        assert!(!Hist::SimBatchUs.is_deterministic());
        assert!(!Hist::QueueLatencyUs.is_deterministic());
    }

    #[test]
    fn buckets_are_powers_of_two() {
        assert_eq!(HistData::bucket_of(0), 0);
        assert_eq!(HistData::bucket_of(1), 0);
        assert_eq!(HistData::bucket_of(2), 1);
        assert_eq!(HistData::bucket_of(3), 1);
        assert_eq!(HistData::bucket_of(4), 2);
        assert_eq!(HistData::bucket_of(u64::MAX), HIST_BUCKETS - 1);
        assert_eq!(HistData::bucket_lo(0), 0);
        assert_eq!(HistData::bucket_lo(3), 8);
    }

    #[test]
    fn record_and_merge_agree() {
        let mut a = HistData::new();
        let mut b = HistData::new();
        let mut all = HistData::new();
        for v in [0, 1, 5, 9, 100] {
            a.record(v);
            all.record(v);
        }
        for v in [3, 70_000] {
            b.record(v);
            all.record(v);
        }
        a.merge(&b);
        assert_eq!(a, all);
        assert_eq!(all.count, 7);
        assert_eq!(all.min, 0);
        assert_eq!(all.max, 70_000);
        assert!((all.mean() - (115 + 70_003) as f64 / 7.0).abs() < 1e-9);

        // Two valid halves of 2^63 samples saturate instead of wrapping
        // to an empty-looking histogram.
        let mut half = HistData::new();
        half.record(9);
        half.count = 1 << 63;
        half.buckets[HistData::bucket_of(9)] = 1 << 63;
        let mut big = half;
        big.merge(&half);
        assert_eq!(big.count, u64::MAX);
        assert_eq!(big.buckets[HistData::bucket_of(9)], u64::MAX);
        assert_eq!(big.percentile(50.0), 9);
    }

    #[test]
    fn percentiles_are_ordered_bounded_and_merge_exact() {
        let mut h = HistData::new();
        assert_eq!(h.percentile(50.0), 0, "empty histogram");
        for v in 1..=1000u64 {
            h.record(v);
        }
        let (p50, p90, p99) = (h.percentile(50.0), h.percentile(90.0), h.percentile(99.0));
        assert!(p50 <= p90 && p90 <= p99, "{p50} {p90} {p99}");
        assert!((h.min..=h.max).contains(&p50));
        assert_eq!(h.percentile(0.0), h.min);
        assert_eq!(h.percentile(100.0), h.max);
        // Bucketed estimate of the true median (500) stays in the
        // median's bucket [512, 1023] ∩ samples or the one below.
        assert!((256..=1023).contains(&p50), "{p50}");

        // Percentiles of merged shards == percentiles of the whole.
        let mut a = HistData::new();
        let mut b = HistData::new();
        let mut whole = HistData::new();
        for v in [3, 9, 9, 40, 1000, 0, 7] {
            a.record(v);
            whole.record(v);
        }
        for v in [5, 80, 80, 81, 2] {
            b.record(v);
            whole.record(v);
        }
        a.merge(&b);
        for p in [0.0, 10.0, 50.0, 90.0, 99.0, 100.0] {
            assert_eq!(a.percentile(p), whole.percentile(p), "p{p}");
        }
    }

    #[test]
    fn single_sample_percentiles_are_that_sample() {
        let mut h = HistData::new();
        h.record(37);
        for p in [0.0, 50.0, 99.0, 100.0] {
            assert_eq!(h.percentile(p), 37);
        }
    }

    #[test]
    fn bucket_bounds_tile_the_axis() {
        for i in 0..HIST_BUCKETS - 1 {
            assert_eq!(HistData::bucket_hi(i) + 1, HistData::bucket_lo(i + 1));
        }
        assert_eq!(HistData::bucket_hi(HIST_BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = HistData::new();
        a.record(4);
        let before = a;
        a.merge(&HistData::new());
        assert_eq!(a, before);
        let mut e = HistData::new();
        e.merge(&before);
        assert_eq!(e, before);
    }
}
