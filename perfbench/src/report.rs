//! The run report: human-readable lines, then the one-line JSON result.

use crate::stats::{median, percentile, Percentile};

/// One reported figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Sample count behind a percentile or rate, when there is one.
    pub samples: Option<usize>,
}

/// Everything a run prints.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    /// Figures printed for people but kept out of the JSON result.
    pub info: Vec<Metric>,
    pub notes: Vec<String>,
    pub problems: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, samples: Option<usize>) {
        if !value.is_finite() {
            self.problem(format!("{name} is not finite ({value})"));
        }
        self.metrics.push(Metric {
            name: name.to_owned(),
            value,
            unit,
            samples,
        });
    }

    /// Reports the `q`-th percentile of `samples` under `name`; a sample
    /// too small for the rule fails the run.
    pub fn percentile(&mut self, name: &str, samples: &[f64], q: f64, unit: &'static str) {
        let p = percentile(samples, q).map_err(|e| (e, median(samples), samples.len()));
        self.percentile_of(name, p, unit);
    }

    /// Reports a computed percentile; on a rule failure, the problem is
    /// recorded and the fallback `(median, samples)` printed in its place.
    pub fn percentile_of(
        &mut self,
        name: &str,
        p: Result<Percentile, (String, f64, usize)>,
        unit: &'static str,
    ) {
        let p = p.unwrap_or_else(|(e, value, samples)| {
            self.problem(format!("{name}: {e}"));
            Percentile { value, samples }
        });
        self.metric(name, p.value, unit, Some(p.samples));
    }

    pub fn info(&mut self, name: &str, value: f64, unit: &'static str, samples: Option<usize>) {
        self.info.push(Metric {
            name: name.to_owned(),
            value,
            unit,
            samples,
        });
    }

    pub fn note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }

    /// Records a problem that makes the run's result incorrect.
    pub fn problem(&mut self, problem: impl Into<String>) {
        self.problems.push(problem.into());
    }

    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0 && self.attempted > 0
    }

    /// The human-readable block.
    pub fn text(&self, header: &str) -> String {
        let mut out = format!("{header}\n");
        let line = |m: &Metric| {
            let n = m.samples.map_or(String::new(), |n| format!("  (n={n})"));
            format!("  {:<30} {:>16.6} {}{n}\n", m.name, m.value, m.unit)
        };
        for m in self.metrics.iter().chain(&self.info) {
            out.push_str(&line(m));
        }
        for note in &self.notes {
            out.push_str(&format!("  note: {note}\n"));
        }
        for problem in &self.problems {
            out.push_str(&format!("  PROBLEM: {problem}\n"));
        }
        out
    }

    /// The JSON result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    serde_json::format_f64(value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_json_line_parses_and_carries_every_metric() {
        let mut r = Report {
            attempted: 10,
            ..Report::default()
        };
        r.metric("searches_per_s", 12.5, "1/s", Some(250));
        r.percentile(
            "search_ms_p50",
            &(1..=100).map(f64::from).collect::<Vec<_>>(),
            50.0,
            "ms",
        );
        let doc = serde_json::parse(&r.json()).unwrap();
        assert_eq!(doc.get("correct"), Some(&serde::Value::Bool(true)));
        let metrics = doc.get("metrics").unwrap();
        assert!(metrics.get("searches_per_s").is_some());
        assert!(metrics.get("search_ms_p50").unwrap().get("unit").is_some());
    }

    #[test]
    fn a_short_sample_or_a_failure_makes_the_run_incorrect() {
        let mut r = Report {
            attempted: 1,
            ..Report::default()
        };
        r.percentile("req_ms_p99", &[1.0; 50], 99.0, "ms");
        assert!(!r.correct());
        let r = Report {
            attempted: 5,
            failed: 1,
            ..Report::default()
        };
        assert!(!r.correct());
    }
}
