//! Order statistics for latency samples.

/// Samples a reported tail quantile must have beyond it.
pub const TAIL_BEYOND: usize = 10;

/// Linearly interpolated quantile `q` (0..=1) of ascending `sorted`.
///
/// # Panics
/// On an empty slice: every caller measures at least one sample.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Sorts a copy of `xs` ascending.
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of unsorted samples.
pub fn median(xs: &[f64]) -> f64 {
    quantile(&sorted(xs), 0.5)
}

/// The highest quantile that still has [`TAIL_BEYOND`] samples beyond
/// it, `1 - 10/n`; `None` when `n` samples leave no room above any
/// quantile.
pub fn highest_resolvable(n: usize) -> Option<f64> {
    (n > TAIL_BEYOND).then(|| 1.0 - TAIL_BEYOND as f64 / n as f64)
}

/// The tail reported as `op_p99_ms`: the p99 once a run has enough
/// samples for it (n >= 1000), else the highest resolvable quantile,
/// but never below the median (a run of at most 20 ops has no
/// resolvable tail, and its `op_p99_ms` is its median). Returns
/// `(quantile, value)` so results can name it.
pub fn tail(sorted: &[f64]) -> (f64, f64) {
    let q = highest_resolvable(sorted.len()).map_or(0.5, |q| q.clamp(0.5, 0.99));
    (q, quantile(sorted, q))
}

/// Whether a run of `n` ops resolves a true p99.
#[cfg(test)]
pub fn resolves_p99(n: usize) -> bool {
    highest_resolvable(n).is_some_and(|q| q >= 0.99 - 1e-12)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_ranks() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(quantile(&xs, 0.5), 2.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn highest_resolvable_quantile_keeps_ten_samples_beyond_it() {
        assert_eq!(highest_resolvable(10), None);
        for n in [11usize, 20, 25, 999, 1000, 5000] {
            let q = highest_resolvable(n).unwrap();
            let beyond = n as f64 * (1.0 - q);
            assert!((beyond - TAIL_BEYOND as f64).abs() < 1e-9, "n={n} q={q}");
        }
        assert_eq!(highest_resolvable(20), Some(0.5));
    }

    #[test]
    fn p99_only_from_a_thousand_ops() {
        assert!(!resolves_p99(999));
        assert!(resolves_p99(1000));
        assert!(resolves_p99(40_000));
        let big: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(tail(&big).0, 0.99);
        // Below 1000 ops the tail falls back to the highest quantile
        // with ten samples beyond it, never a thinner p99.
        let small: Vec<f64> = (0..25).map(f64::from).collect();
        let (q, v) = tail(&small);
        assert!((q - 0.6).abs() < 1e-12);
        assert!((v - 14.4).abs() < 1e-9);
        // ... and to the median once no quantile above it keeps ten.
        let shards: Vec<f64> = (0..11).map(f64::from).collect();
        assert_eq!(tail(&shards), (0.5, 5.0));
        assert_eq!(tail(&[5.0, 7.0]), (0.5, 6.0));
    }
}
