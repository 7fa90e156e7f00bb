//! The ledger's own statistics: order statistics over raw samples, independent of the
//! telemetry histograms (which are log-bucketed) and of the criterion shim (mean only).

/// Tail percentiles the ledger may report, highest first.
const TAILS: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

/// Nearest-rank quantile of ascending-sorted `sorted` at `q` in `[0, 1]`.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// A timing distribution as the ledger reports it: the median, the highest percentile with
/// at least ten samples beyond it, and the sample count.
#[derive(Clone, Copy, Debug)]
pub struct Summary {
    pub median: f64,
    /// The percentile `tail` is taken at (see [`Summary::tail_pct`]).
    pub tail: f64,
    pub tail_pct: f64,
    pub count: usize,
}

impl Summary {
    /// Summarises `samples` (any order), with the tail taken at no higher percentile than
    /// `max_pct`. `None` when there are no samples.
    pub fn of(samples: &[f64], max_pct: f64) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len() as f64;
        // With fewer than 40 samples even the 75th percentile has under ten beyond it; the
        // maximum is the only honest tail left.
        let (tail_pct, tail) = TAILS
            .iter()
            .find(|&&p| p <= max_pct && n * (100.0 - p) >= 1000.0 - 1e-6)
            .map_or((100.0, sorted[sorted.len() - 1]), |&p| {
                (p, quantile(&sorted, p / 100.0))
            });
        Some(Summary {
            median: quantile(&sorted, 0.5),
            tail,
            tail_pct,
            count: sorted.len(),
        })
    }
}

/// Median of `values` (any order); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    Summary::of(values, 50.0).map_or(0.0, |s| s.median)
}

/// `num / den`, or 0 when the base is 0 (the base is always reported beside the ratio).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(Summary::of(&samples, 100.0).unwrap().tail_pct, 99.0);
        let s = Summary::of(&samples, 99.0).unwrap();
        assert_eq!(s.tail_pct, 99.0);
        assert_eq!(s.tail, 990.0);
        assert_eq!(s.median, 500.0);
        assert_eq!(s.count, 1000);

        let few: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(Summary::of(&few, 99.0).unwrap().tail_pct, 90.0);
        assert_eq!(Summary::of(&[3.0, 1.0], 99.0).unwrap().tail, 3.0);
        assert!(Summary::of(&[], 99.0).is_none());
    }
}
