//! Order statistics used by every section.

/// Nearest-rank percentile of an ascending slice: the smallest element
/// with at least `q · n` elements at or below it. `q` is in `(0, 1]`.
/// Panics on an empty slice — a percentile of nothing is a bug upstream.
pub fn nearest_rank<T: Copy>(sorted: &[T], q: f64) -> T {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    assert!(q > 0.0 && q <= 1.0, "percentile rank {q} outside (0, 1]");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of `values` (the mean of the two middle values for an even
/// count). Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The smallest of `values`: the benchmark's estimate of a repeated
/// CPU-bound timing. On a shared host the same work alternates between a
/// fast and a slow speed (another tenant on the sibling hardware thread);
/// the median of a run's repetitions lands on whichever state lasted
/// longer, while the fastest repetition tracks the code. Panics on an
/// empty slice.
pub fn fastest(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "minimum of an empty sample");
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_textbook_definition() {
        let xs: Vec<u32> = (1..=100).collect();
        assert_eq!(nearest_rank(&xs, 0.50), 50);
        assert_eq!(nearest_rank(&xs, 0.99), 99);
        assert_eq!(nearest_rank(&xs, 1.0), 100);
        assert_eq!(nearest_rank(&xs, 0.001), 1);
        // Five samples: p50 is the 3rd, p99 the 5th (ceil(4.95) = 5).
        let five = [10, 20, 30, 40, 50];
        assert_eq!(nearest_rank(&five, 0.5), 30);
        assert_eq!(nearest_rank(&five, 0.99), 50);
        assert_eq!(nearest_rank(&five, 0.2), 10);
        assert_eq!(nearest_rank(&five, 0.21), 20);
        assert_eq!(nearest_rank(&[7], 0.99), 7);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn nearest_rank_of_nothing_panics() {
        nearest_rank::<u64>(&[], 0.5);
    }

    #[test]
    fn fastest_is_the_minimum() {
        assert_eq!(fastest(&[0.5, 0.3, 0.9]), 0.3);
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[5.0]), 5.0);
    }
}
