//! Order statistics for the reported timings.

/// The median of `xs` (mean of the two middle values for even counts).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Samples that must lie beyond the tail order statistic.
pub const TAIL_BEYOND: usize = 10;

/// The tail of a latency sample: the highest order statistic that still
/// has [`TAIL_BEYOND`] samples above it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The order statistic itself.
    pub value: f64,
    /// Share of the samples at or below it, in percent.
    pub percentile: f64,
    /// Sample count.
    pub n: usize,
}

/// The tail of `xs`, or `None` when the sample is too small for the tail
/// to sit above the median (fewer than 22 samples).
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let n = xs.len();
    let j = n.checked_sub(TAIL_BEYOND + 1)?;
    // Strictly above the median's order statistic(s): j > (n-1)/2 for odd
    // n, j >= n/2 for even n; both reduce to j >= n/2 rounded up.
    if j < n.div_ceil(2) {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    Some(Tail {
        value: v[j],
        percentile: 100.0 * (j + 1) as f64 / n as f64,
        n,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled so the helpers must sort.
        (0..n).map(|i| ((i * 7) % n) as f64).collect()
    }

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_leaves_exactly_ten_samples_beyond() {
        for n in [22, 23, 50, 101, 1000] {
            let xs = ramp(n);
            let t = tail(&xs).unwrap_or_else(|| panic!("n={n} has a tail"));
            assert_eq!(t.n, n);
            let beyond = xs.iter().filter(|&&x| x > t.value).count();
            assert_eq!(beyond, TAIL_BEYOND, "n={n}");
            assert!(t.value > median(&xs), "n={n}");
            assert!((t.percentile - 100.0 * (n - 10) as f64 / n as f64).abs() < 1e-9);
        }
    }

    #[test]
    fn tail_is_omitted_when_it_would_not_sit_above_the_median() {
        for n in [0, 1, 10, 11, 20, 21] {
            assert_eq!(tail(&ramp(n)), None, "n={n}");
        }
        assert!(tail(&ramp(22)).is_some());
    }
}
