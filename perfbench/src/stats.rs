//! Sample statistics for the run records: medians, the tail picker and
//! quartiles.

/// The highest percentile of a sample set that still has at least
/// [`TAIL_BEYOND`] samples above it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Percentile, in percent: the share of samples at or below `value`.
    pub pct: f64,
    /// The sample at that percentile.
    pub value: f64,
    /// Number of samples the set held.
    pub samples: usize,
}

/// Samples a tail percentile must leave beyond it.
pub const TAIL_BEYOND: usize = 10;

/// Median of `xs` (the mean of the two middle values for an even
/// count); `None` when empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    let s = sorted(xs);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// The highest percentile with at least [`TAIL_BEYOND`] samples beyond
/// it: with `n` samples sorted ascending, the one at index
/// `n − 1 − TAIL_BEYOND`. `None` when fewer than `TAIL_BEYOND + 1`
/// samples exist, since then no percentile qualifies.
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let s = sorted(xs);
    let n = s.len();
    let idx = n.checked_sub(TAIL_BEYOND + 1)?;
    Some(Tail {
        pct: 100.0 * (n - TAIL_BEYOND) as f64 / n as f64,
        value: s[idx],
        samples: n,
    })
}

/// First and third quartiles by the exclusive method of Python's
/// `statistics.quantiles(xs, n=4)`; `None` for fewer than two samples.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(xs);
    let n = s.len();
    if n < 2 {
        return None;
    }
    // Python's integer formulation: j = ⌊i·(n+1)/4⌋ clamped to
    // [1, n−1], interpolating (or extrapolating) by i·(n+1) − 4j.
    let q = |i: usize| {
        let m = i * (n + 1);
        let j = (m / 4).clamp(1, n - 1);
        let delta = m as f64 - 4.0 * j as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    Some((q(1), q(3)))
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn tail_leaves_exactly_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&xs).unwrap();
        assert_eq!(t.value, 90.0);
        assert_eq!(t.pct, 90.0);
        assert_eq!(t.samples, 100);
        assert_eq!(xs.iter().filter(|&&x| x > t.value).count(), TAIL_BEYOND);
    }

    #[test]
    fn tail_needs_eleven_samples() {
        let xs: Vec<f64> = (0..10).map(f64::from).collect();
        assert_eq!(tail(&xs), None);
        let xs: Vec<f64> = (0..11).rev().map(f64::from).collect();
        let t = tail(&xs).unwrap();
        assert_eq!(t.value, 0.0, "the minimum when only 11 samples exist");
    }

    #[test]
    fn tail_ignores_input_order() {
        let mut xs: Vec<f64> = (0..40).map(|i| f64::from((i * 17) % 40)).collect();
        let a = tail(&xs).unwrap();
        xs.reverse();
        assert_eq!(tail(&xs).unwrap(), a);
        assert_eq!(a.value, 29.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), Some((1.5, 4.5)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: the
        // exclusive method extrapolates past the ends.
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
    }
}
