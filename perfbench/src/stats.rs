//! Summary statistics over timing samples, with the sample-count guard
//! every reported percentile must pass.

use std::collections::BTreeMap;

/// The fewest samples that must lie strictly beyond a reported tail
/// percentile, so that one outlier cannot set it.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Median of `samples` (mean of the middle pair for an even count);
/// `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    let sorted = sorted(samples);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// Nearest-rank percentile `p` (in `(0, 1)`) of `samples`, reported only
/// when at least [`MIN_TAIL_SAMPLES`] samples lie strictly beyond it.
pub fn tail_percentile(samples: &[f64], p: f64) -> Option<f64> {
    assert!(p > 0.0 && p < 1.0, "percentile {p} outside (0, 1)");
    let sorted = sorted(samples);
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n) - 1;
    (n - 1 - rank >= MIN_TAIL_SAMPLES).then(|| sorted[rank])
}

/// The smallest sample count at which [`tail_percentile`] reports `p`.
pub fn samples_needed(p: f64) -> usize {
    (1..)
        .find(|&n| tail_percentile(&vec![0.0; n], p).is_some())
        .expect("some count always suffices")
}

/// Per-job latencies grouped by job class: one distinct job, and on a
/// served workload the cache tier that answered it.
///
/// The summaries time every job at its class median, so a burst of
/// interference on a shared host moves them only as far as it moves
/// the medians.
#[derive(Debug, Default)]
pub struct Latencies {
    classes: BTreeMap<String, Vec<f64>>,
}

impl Latencies {
    /// Records one job of `class` taking `secs` seconds.
    pub fn record(&mut self, class: String, secs: f64) {
        self.classes.entry(class).or_default().push(secs);
    }

    /// Jobs recorded.
    pub fn len(&self) -> usize {
        self.classes.values().map(Vec::len).sum()
    }

    /// Every sample, ungrouped.
    pub fn all(&self) -> Vec<f64> {
        self.classes.values().flatten().copied().collect()
    }

    /// Each class with its median latency, in seconds.
    pub fn class_medians(&self) -> Vec<(&str, f64)> {
        self.classes
            .iter()
            .filter_map(|(class, v)| median(v).map(|m| (class.as_str(), m)))
            .collect()
    }

    /// Jobs per second when each job takes its class median.
    pub fn jobs_per_s(&self) -> f64 {
        let busy: f64 = self
            .classes
            .values()
            .map(|v| v.len() as f64 * median(v).unwrap_or(0.0))
            .sum();
        if busy > 0.0 {
            self.len() as f64 / busy
        } else {
            0.0
        }
    }

    /// Median over classes of each class's median latency, in seconds.
    pub fn p50(&self) -> f64 {
        let medians: Vec<f64> = self.classes.values().filter_map(|v| median(v)).collect();
        median(&medians).unwrap_or(0.0)
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[4.0]), Some(4.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        // p99 of 1000 samples is rank 990: exactly ten lie beyond it
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&samples, 0.99), Some(990.0));
        // one sample fewer leaves only nine beyond the p99 rank
        assert_eq!(tail_percentile(&samples[..999], 0.99), None);
        assert_eq!(samples_needed(0.99), 1000);
        assert_eq!(samples_needed(0.5), 20);
    }

    #[test]
    fn tail_percentile_edge_cases() {
        assert_eq!(tail_percentile(&[], 0.5), None);
        assert_eq!(tail_percentile(&[1.0; 5], 0.5), None);
        // ordering of the input does not matter
        let mut samples: Vec<f64> = (0..100).map(f64::from).collect();
        samples.reverse();
        assert_eq!(tail_percentile(&samples, 0.9), Some(89.0));
    }

    #[test]
    fn class_medians_ignore_outliers_and_weigh_classes_once() {
        let mut l = Latencies::default();
        for secs in [1.0, 1.0, 1.0, 50.0] {
            l.record("slow".into(), secs);
        }
        for secs in [0.5, 0.5, 0.5, 0.5] {
            l.record("fast".into(), secs);
        }
        l.record("odd".into(), 0.7);
        assert_eq!(l.len(), 9);
        assert_eq!(l.all().len(), 9);
        // each job timed at its class median: 4 * 1.0 + 4 * 0.5 + 0.7
        assert!((l.jobs_per_s() - 9.0 / 6.7).abs() < 1e-12);
        // medians 1.0, 0.5 and 0.7: the middle class
        assert_eq!(l.p50(), 0.7);
        assert_eq!(Latencies::default().jobs_per_s(), 0.0);
        assert_eq!(Latencies::default().p50(), 0.0);
    }

    #[test]
    #[should_panic(expected = "outside (0, 1)")]
    fn tail_percentile_rejects_out_of_range() {
        tail_percentile(&[1.0], 1.0);
    }
}
