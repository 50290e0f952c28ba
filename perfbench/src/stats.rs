//! The benchmark's own arithmetic: percentiles with their sample-count
//! rule, ratios that keep their base, and per-op error accounting.

/// Fewest samples that must lie above a percentile before it is reported:
/// a p90 needs 100 samples, a p50 needs 20.
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// Nearest-rank percentile `q` (in `(0, 1]`) of `samples`: the value at
/// rank `ceil(q·n)` of the sorted samples, so the result is always one of
/// the measured values. `None` when `samples` is empty.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    assert!(q > 0.0 && q <= 1.0, "percentile {q} outside (0, 1]");
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Whether a percentile `q` over `n` samples has at least
/// [`MIN_SAMPLES_BEYOND`] samples above it, the rule for reporting it.
pub fn percentile_is_reportable(q: f64, n: usize) -> bool {
    n as f64 * (1.0 - q) >= MIN_SAMPLES_BEYOND as f64 - 1e-9
}

/// Median of `samples` by the nearest-rank rule (the lower middle value
/// for an even count).
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 0.5)
}

/// A ratio that remembers its base, so every reported ratio can print
/// `num / den` next to its value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ratio {
    pub num: f64,
    pub den: f64,
}

impl Ratio {
    pub fn new(num: f64, den: f64) -> Self {
        Ratio { num, den }
    }

    /// `num / den`, or 0 when the base is empty (nothing was attempted,
    /// so nothing was wasted or recovered either).
    pub fn value(&self) -> f64 {
        if self.den == 0.0 {
            0.0
        } else {
            self.num / self.den
        }
    }

    /// `"num/den"`, printed beside the value.
    pub fn base(&self) -> String {
        format!("{}/{}", self.num, self.den)
    }
}

/// Per-op outcome accounting behind `error_rate` and the result line's
/// `attempted` / `failed`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ErrorTally {
    pub attempted: u64,
    pub failed: u64,
}

impl ErrorTally {
    /// Books one op; `ok` is false when any of its output checks failed.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Ops whose output check failed ÷ ops attempted.
    pub fn error_rate(&self) -> Ratio {
        Ratio::new(self.failed as f64, self.attempted as f64)
    }

    /// A run is correct when it attempted something and nothing failed.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_are_measured_values() {
        let samples = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&samples, 0.5), Some(3.0));
        assert_eq!(percentile(&samples, 0.9), Some(5.0));
        assert_eq!(percentile(&samples, 0.2), Some(1.0));
        assert_eq!(percentile(&samples, 1.0), Some(5.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn even_count_median_is_the_lower_middle() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
        assert_eq!(median(&[7.0]), Some(7.0));
    }

    #[test]
    fn p90_of_100_samples_is_the_90th_smallest() {
        let samples: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&samples, 0.9), Some(90.0));
    }

    #[test]
    fn percentiles_need_ten_samples_beyond_them() {
        assert!(!percentile_is_reportable(0.9, 99));
        assert!(percentile_is_reportable(0.9, 100));
        assert!(percentile_is_reportable(0.5, 20));
        assert!(!percentile_is_reportable(0.5, 19));
        assert!(!percentile_is_reportable(0.99, 999));
        assert!(percentile_is_reportable(0.99, 1000));
    }

    #[test]
    fn ratios_keep_their_base() {
        let r = Ratio::new(3.0, 4.0);
        assert_eq!(r.value(), 0.75);
        assert_eq!(r.base(), "3/4");
        assert_eq!(Ratio::new(0.0, 0.0).value(), 0.0);
    }

    #[test]
    fn error_rate_counts_failed_ops_over_attempted_ops() {
        let mut tally = ErrorTally::default();
        assert!(
            !tally.correct(),
            "a run that attempted nothing is not correct"
        );
        for ok in [true, true, false, true] {
            tally.record(ok);
        }
        assert_eq!(
            tally,
            ErrorTally {
                attempted: 4,
                failed: 1
            }
        );
        assert_eq!(tally.error_rate().value(), 0.25);
        assert_eq!(tally.error_rate().base(), "1/4");
        assert!(!tally.correct());
        let mut clean = ErrorTally::default();
        clean.record(true);
        assert!(clean.correct());
        assert_eq!(clean.error_rate().value(), 0.0);
    }
}
