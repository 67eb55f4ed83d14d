//! A reader for the daemon's Prometheus text exposition (`/metrics`):
//! counter values, and histogram deltas between two scrapes with their
//! quantiles.

use std::collections::BTreeMap;

/// One scrape: every sample, keyed by its series text as exposed
/// (`name` or `name{labels}`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Exposition {
    series: BTreeMap<String, f64>,
}

/// A cumulative histogram: `(upper bound, cumulative count)` per bucket,
/// ending with `+Inf`, plus the sum and count of observations.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    pub buckets: Vec<(f64, f64)>,
    pub sum: f64,
    pub count: f64,
}

impl Exposition {
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut series = BTreeMap::new();
        for (n, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            // Label values may hold spaces, so the series ends at the
            // closing brace when there are labels.
            let split = match line.find('{') {
                Some(_) => line.rfind('}').map(|i| i + 1),
                None => line.find(char::is_whitespace),
            };
            let (name, rest) = split
                .map(|i| line.split_at(i))
                .ok_or_else(|| format!("line {}: no value in {line:?}", n + 1))?;
            let value = rest
                .split_whitespace()
                .next()
                .ok_or_else(|| format!("line {}: no value in {line:?}", n + 1))?;
            let value = match value {
                "+Inf" => f64::INFINITY,
                "-Inf" => f64::NEG_INFINITY,
                v => v
                    .parse::<f64>()
                    .map_err(|e| format!("line {}: {v:?}: {e}", n + 1))?,
            };
            series.insert(name.to_owned(), value);
        }
        Ok(Exposition { series })
    }

    /// The value of one series (0 when it is absent, as for a counter
    /// nothing has incremented yet).
    pub fn value(&self, series: &str) -> f64 {
        self.series.get(series).copied().unwrap_or(0.0)
    }

    /// The unlabelled histogram `name`.
    pub fn histogram(&self, name: &str) -> Result<Histogram, String> {
        let prefix = format!("{name}_bucket{{le=\"");
        let mut buckets: Vec<(f64, f64)> = self
            .series
            .iter()
            .filter_map(|(series, &count)| {
                let le = series.strip_prefix(&prefix)?.strip_suffix("\"}")?;
                let bound = if le == "+Inf" {
                    f64::INFINITY
                } else {
                    le.parse().ok()?
                };
                Some((bound, count))
            })
            .collect();
        if buckets.is_empty() {
            return Err(format!("no histogram {name}"));
        }
        buckets.sort_by(|a, b| a.0.total_cmp(&b.0));
        Ok(Histogram {
            buckets,
            sum: self.value(&format!("{name}_sum")),
            count: self.value(&format!("{name}_count")),
        })
    }
}

impl Histogram {
    /// The observations made between `before` and `self`.
    pub fn delta(&self, before: &Histogram) -> Result<Histogram, String> {
        if self.buckets.len() != before.buckets.len()
            || self
                .buckets
                .iter()
                .zip(&before.buckets)
                .any(|(a, b)| a.0 != b.0 || a.1 < b.1)
        {
            return Err("histogram buckets changed or went backwards between scrapes".to_owned());
        }
        Ok(Histogram {
            buckets: self
                .buckets
                .iter()
                .zip(&before.buckets)
                .map(|(a, b)| (a.0, a.1 - b.1))
                .collect(),
            sum: self.sum - before.sum,
            count: self.count - before.count,
        })
    }

    /// The `q`-quantile (`0 < q < 1`), interpolated linearly inside its
    /// bucket as Prometheus' `histogram_quantile` does; `None` without
    /// observations. A quantile in the `+Inf` bucket reads as the highest
    /// finite bound.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let total = self.buckets.last()?.1;
        if total <= 0.0 {
            return None;
        }
        let rank = q * total;
        let mut lower = (0.0, 0.0);
        for &(bound, cumulative) in &self.buckets {
            if cumulative >= rank {
                if bound.is_infinite() {
                    return Some(lower.0);
                }
                let inside = cumulative - lower.1;
                let frac = if inside > 0.0 {
                    (rank - lower.1) / inside
                } else {
                    1.0
                };
                return Some(lower.0 + (bound - lower.0) * frac);
            }
            lower = (bound, cumulative);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Scrapes of a live daemon before and after 20 AARC sessions.
    const BEFORE: &str = include_str!("../testdata/metrics_before.prom");
    const AFTER: &str = include_str!("../testdata/metrics_after.prom");

    #[test]
    fn counters_and_labelled_series_parse() {
        let after = Exposition::parse(AFTER).unwrap();
        assert!(after.value("aarc_eval_requests_total") > 0.0);
        assert!(after.value("aarc_checkpoint_writes_total") > 0.0);
        assert_eq!(after.value("aarc_no_such_series"), 0.0);
        // A label value with spaces does not split the series.
        assert!(after
            .series
            .keys()
            .any(|k| k.starts_with("aarc_build_info{") && k.contains(' ')));
    }

    #[test]
    fn histogram_deltas_of_a_captured_exposition() {
        let before = Exposition::parse(BEFORE).unwrap();
        let after = Exposition::parse(AFTER).unwrap();
        let steps = after
            .histogram("aarc_session_step_seconds")
            .unwrap()
            .delta(&before.histogram("aarc_session_step_seconds").unwrap())
            .unwrap();
        let counted = after.value("aarc_session_step_seconds_count")
            - before.value("aarc_session_step_seconds_count");
        assert_eq!(steps.count, counted);
        assert_eq!(steps.buckets.last().unwrap().1, counted);
        assert!(steps.sum > 0.0);
        let (p50, p99) = (steps.quantile(0.5).unwrap(), steps.quantile(0.99).unwrap());
        assert!(0.0 < p50 && p50 <= p99, "{p50} {p99}");
        let http = after
            .histogram("aarc_http_request_seconds")
            .unwrap()
            .delta(&before.histogram("aarc_http_request_seconds").unwrap())
            .unwrap();
        assert!(http.count >= 40.0, "uploads, starts, polls and reports");
        // Deltas never run backwards.
        assert!(before
            .histogram("aarc_http_request_seconds")
            .unwrap()
            .delta(&after.histogram("aarc_http_request_seconds").unwrap())
            .is_err());
        assert!(after.histogram("aarc_no_such_histogram").is_err());
    }

    #[test]
    fn quantiles_interpolate_inside_a_bucket() {
        let h = Histogram {
            buckets: vec![(1.0, 0.0), (2.0, 10.0), (5.0, 20.0), (f64::INFINITY, 21.0)],
            sum: 0.0,
            count: 21.0,
        };
        assert_eq!(h.quantile(0.5), Some(2.0 + 3.0 * (10.5 - 10.0) / 10.0));
        assert_eq!(h.quantile(0.25), Some(1.0 + 5.25 / 10.0));
        assert_eq!(h.quantile(0.999), Some(5.0), "+Inf reads as the top bound");
        let empty = Histogram {
            buckets: vec![(1.0, 0.0), (f64::INFINITY, 0.0)],
            sum: 0.0,
            count: 0.0,
        };
        assert_eq!(empty.quantile(0.5), None);
        assert!(Exposition::parse("broken_line_without_value").is_err());
    }
}
