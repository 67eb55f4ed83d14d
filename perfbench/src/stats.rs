//! Order statistics with the reporting rule every timing obeys: a
//! percentile is reported only when at least [`MIN_BEYOND`] samples lie
//! beyond it, so a p99 needs about a thousand samples and a p90 about a
//! hundred.

use std::collections::BTreeMap;

/// Samples that must lie strictly beyond a reported percentile's rank.
pub const MIN_BEYOND: usize = 10;

/// A percentile of a sample, with the sample count it came from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    pub value: f64,
    pub samples: usize,
}

/// The `q`-th percentile (`0 < q < 100`) by the nearest-rank method, or
/// an error naming the shortfall when fewer than [`MIN_BEYOND`] samples
/// would lie beyond it.
pub fn percentile(samples: &[f64], q: f64) -> Result<Percentile, String> {
    assert!(q > 0.0 && q < 100.0, "percentile rank {q} out of range");
    let n = samples.len();
    // Nearest rank: the smallest value with at least q% of the sample at
    // or below it.
    let rank = ((q / 100.0) * n as f64).ceil().max(1.0) as usize;
    let beyond = n.saturating_sub(rank);
    if n == 0 || beyond < MIN_BEYOND {
        return Err(format!(
            "p{q} needs {MIN_BEYOND} samples beyond it; {n} samples leave {beyond}"
        ));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(Percentile {
        value: sorted[rank - 1],
        samples: n,
    })
}

/// A fixed-memory histogram for samples too many to keep: log-spaced
/// buckets 0.1% wide from 1 ns to 1000 s (values in ms), so memory does
/// not grow with the sample count.
#[derive(Debug, Clone, PartialEq)]
pub struct LogHistogram {
    counts: Vec<u64>,
    total: usize,
}

const LOG_MIN_MS: f64 = 1e-6;
const LOG_RATIO: f64 = 1.001;
const LOG_BUCKETS: usize = 27_650;

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram {
            counts: vec![0; LOG_BUCKETS],
            total: 0,
        }
    }
}

impl LogHistogram {
    pub fn record(&mut self, ms: f64) {
        let i = ((ms.max(LOG_MIN_MS) / LOG_MIN_MS).ln() / LOG_RATIO.ln()) as usize;
        self.counts[i.min(LOG_BUCKETS - 1)] += 1;
        self.total += 1;
    }

    /// The nearest-rank `q`-th percentile under the same rule as
    /// [`percentile`], placed inside its bucket by rank.
    pub fn percentile(&self, q: f64) -> Result<Percentile, String> {
        let n = self.total;
        let rank = ((q / 100.0) * n as f64).ceil().max(1.0) as usize;
        let beyond = n.saturating_sub(rank);
        if n == 0 || beyond < MIN_BEYOND {
            return Err(format!(
                "p{q} needs {MIN_BEYOND} samples beyond it; {n} samples leave {beyond}"
            ));
        }
        let mut below = 0;
        for (i, &count) in self.counts.iter().enumerate() {
            if below + count as usize >= rank {
                let within = (rank - below) as f64 / (count as f64 + 1.0);
                let value = LOG_MIN_MS * LOG_RATIO.powf(i as f64 + within);
                return Ok(Percentile { value, samples: n });
            }
            below += count as usize;
        }
        unreachable!("rank {rank} is at most the sample count {n}")
    }
}

/// Per key found in every pass, the smallest of its values across the
/// passes, in key order. A benchmark that replays one fixed schedule
/// several times reads each item at its fastest pass: a stall that hits
/// an item in some passes but not in all leaves it alone, while a
/// slowdown of every pass shows in full. A key missing from any pass is
/// left out.
pub fn fastest_per_key<K: Ord>(passes: &[BTreeMap<K, f64>]) -> Vec<f64> {
    let Some((first, rest)) = passes.split_first() else {
        return Vec::new();
    };
    first
        .iter()
        .filter_map(|(key, &ms)| {
            rest.iter()
                .try_fold(ms, |fastest, pass| pass.get(key).map(|&x| fastest.min(x)))
        })
        .collect()
}

/// Median of a non-empty sample (the mean of the middle pair for even
/// counts); 0 for an empty one.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// `num / den`, or 0 when nothing was counted.
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

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        // p90 of 100 samples is the 90th value and leaves exactly ten.
        let p = percentile(&ramp(100), 90.0).expect("100 samples suffice for p90");
        assert_eq!(p.value, 90.0);
        assert_eq!(p.samples, 100);
        // 99 samples leave only nine beyond p90.
        assert!(percentile(&ramp(99), 90.0).is_err());
        // p99 needs a thousand.
        assert!(percentile(&ramp(999), 99.0).is_err());
        assert_eq!(percentile(&ramp(1000), 99.0).unwrap().value, 990.0);
        // The median of 20 samples leaves ten beyond it; of 19, nine.
        assert_eq!(percentile(&ramp(20), 50.0).unwrap().value, 10.0);
        assert!(percentile(&ramp(19), 50.0).is_err());
        assert!(percentile(&[], 50.0).is_err());
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut shuffled = ramp(200);
        shuffled.reverse();
        shuffled.swap(3, 150);
        assert_eq!(
            percentile(&shuffled, 50.0).unwrap(),
            percentile(&ramp(200), 50.0).unwrap()
        );
    }

    #[test]
    fn the_log_histogram_agrees_with_exact_percentiles() {
        let samples: Vec<f64> = (1..=5000).map(|i| 0.001 * f64::from(i)).collect();
        let mut h = LogHistogram::default();
        for &x in &samples {
            h.record(x);
        }
        for q in [50.0, 90.0, 99.0] {
            let exact = percentile(&samples, q).unwrap().value;
            let approx = h.percentile(q).unwrap();
            assert_eq!(approx.samples, 5000);
            assert!(
                (approx.value / exact - 1.0).abs() < 0.002,
                "p{q}: {} vs {exact}",
                approx.value
            );
        }
        assert!(h.percentile(99.9).is_err(), "five samples beyond p99.9");
        assert!(LogHistogram::default().percentile(50.0).is_err());
    }

    #[test]
    fn the_fastest_pass_per_key_outlasts_a_stall_in_some_passes() {
        let pass = |offset: f64| -> BTreeMap<usize, f64> {
            (0..100).map(|i| (i, i as f64 + offset)).collect()
        };
        // Each key stalls in two passes of three, never in all.
        let mut stalled = vec![pass(0.0), pass(0.0), pass(0.0)];
        for i in 0..100 {
            *stalled[i % 3].get_mut(&i).unwrap() += 1000.0;
            *stalled[(i + 1) % 3].get_mut(&i).unwrap() += 1000.0;
        }
        assert_eq!(fastest_per_key(&stalled), fastest_per_key(&[pass(0.0)]));
        // A slowdown of every pass shows in full.
        let slower = fastest_per_key(&[pass(5.0), pass(7.0)]);
        assert_eq!(slower, (0..100).map(|i| i as f64 + 5.0).collect::<Vec<_>>());
        // A key missing from one pass is left out.
        let mut partial = pass(0.0);
        partial.remove(&3);
        assert_eq!(fastest_per_key(&[pass(0.0), partial]).len(), 99);
        assert!(fastest_per_key::<usize>(&[]).is_empty());
    }

    #[test]
    fn median_and_ratio_edge_cases() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }
}
