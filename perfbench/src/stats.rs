//! The benchmark's own statistics: percentiles, failure and miss counting,
//! open-loop latency, and the metric-name grammar. Kept free of I/O so the
//! unit tests below pin every rule the reported numbers rest on.

/// Fewest samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank index of percentile `p` (0 < p ≤ 100) in `n` sorted samples.
pub fn rank(n: usize, p: f64) -> usize {
    assert!(n > 0, "percentile of no samples");
    let r = (p / 100.0 * n as f64).ceil() as usize;
    r.clamp(1, n) - 1
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n` samples.
pub fn beyond(n: usize, p: f64) -> usize {
    n - 1 - rank(n, p)
}

/// Smallest sample count for which percentile `p` leaves [`MIN_BEYOND`]
/// samples beyond it.
pub fn samples_needed(p: f64) -> usize {
    (1..)
        .find(|&n| beyond(n, p) >= MIN_BEYOND)
        .expect("some n suffices")
}

/// Nearest-rank percentile `p` of `values` (need not be sorted).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[rank(v.len(), p)]
}

/// Median (mean of the two middle samples for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Latency of an open-loop request, timed from when it was due rather
/// than when it was sent, so a stalled generator's delay is counted.
pub fn open_loop_latency(due_s: f64, done_s: f64) -> f64 {
    done_s - due_s
}

/// Due times, in seconds from the start of an open loop, of `total`
/// requests at `rate` per second: one in every period `1 / rate`, at an
/// offset within it that steps by the golden ratio from a seeded start.
/// The rate holds over every whole period, two requests are never due
/// closer than 0.38 periods apart, and the offsets spread evenly over the
/// period, so the requests do not lock onto one phase of a periodic
/// activity in the server (an accept loop's poll, say), which would make a
/// latency percentile depend on the phase a loop happens to start at.
pub fn due_times(rate: f64, total: usize, seed: u64) -> Vec<f64> {
    const STEP: f64 = 0.618_033_988_749_894_9;
    let start = (seed % 1_000_003) as f64 / 1_000_003.0;
    (0..total)
        .map(|i| (i as f64 + (start + i as f64 * STEP).fract()) / rate)
        .collect()
}

/// Outcome of one open-loop request: its latency from the due time, or
/// `None` when it failed.
pub type Outcome = Option<f64>;

/// Share of requests that finished within `limit`; a failed request
/// counts as a miss.
pub fn in_limit_share(outcomes: &[Outcome], limit: f64) -> f64 {
    if outcomes.is_empty() {
        return 0.0;
    }
    let hits = outcomes
        .iter()
        .filter(|o| matches!(o, Some(l) if *l <= limit))
        .count();
    hits as f64 / outcomes.len() as f64
}

/// Operations attempted and failed in one run.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Counts one operation; `ok == false` is a failure.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Share of attempted operations that succeeded.
    pub fn success_share(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        (self.attempted - self.failed) as f64 / self.attempted as f64
    }
}

/// Metric names: 1 to 64 of `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_metric_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reported_percentiles_leave_ten_samples_beyond() {
        assert_eq!(samples_needed(50.0), 20);
        assert_eq!(samples_needed(90.0), 100);
        for p in [50.0, 90.0] {
            let n = samples_needed(p);
            assert!(beyond(n, p) >= MIN_BEYOND);
            assert!(beyond(n - 1, p) < MIN_BEYOND, "n is the smallest count");
        }
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(v.iter().filter(|&&x| x > percentile(&v, 90.0)).count(), 10);
    }

    #[test]
    fn percentile_and_median_ignore_input_order() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&v, 50.0), 3.0);
        assert_eq!(percentile(&v, 100.0), 5.0);
        assert_eq!(median(&v), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn failures_count_against_attempts_and_as_misses() {
        let mut t = Tally::default();
        for ok in [true, true, false, true] {
            t.record(ok);
        }
        assert_eq!(
            t,
            Tally {
                attempted: 4,
                failed: 1
            }
        );
        assert_eq!(t.success_share(), 0.75);
        let outcomes = [Some(0.010), None, Some(0.500), Some(0.020)];
        assert_eq!(in_limit_share(&outcomes, 0.100), 0.5);
        assert_eq!(in_limit_share(&[None, None], 1.0), 0.0);
    }

    #[test]
    fn due_times_keep_the_rate_and_the_seed() {
        let due = due_times(25.0, 1_000, 7);
        for (i, d) in due.iter().enumerate() {
            let start = i as f64 / 25.0;
            assert!((start..start + 0.04).contains(d), "request {i} due at {d}");
        }
        assert_eq!(due, due_times(25.0, 1_000, 7));
        assert_ne!(due, due_times(25.0, 1_000, 8));
        assert!(due.windows(2).all(|d| d[1] - d[0] > 0.38 * 0.04));
        // Offsets within the period spread over all of it.
        let offsets: Vec<f64> = due
            .iter()
            .enumerate()
            .map(|(i, d)| d * 25.0 - i as f64)
            .collect();
        for q in 0..4 {
            let lo = q as f64 / 4.0;
            let n = offsets
                .iter()
                .filter(|o| (lo..lo + 0.25).contains(*o))
                .count();
            assert!((240..260).contains(&n), "{n} offsets in quarter {q}");
        }
    }

    #[test]
    fn metric_name_grammar() {
        for ok in [
            "wall_s",
            "pull_p50_ms.low",
            "nnet.gemm_s.parallel",
            "9lives",
            "a-b",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in [
            "",
            "_lead",
            ".dot",
            "has space",
            "slash/y",
            "é",
            &"x".repeat(65),
        ] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }
}
