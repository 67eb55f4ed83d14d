//! Output checks: per-search outcome records, the order-sensitive outcome
//! digest a run prints, and the comparison against a reference result.

use aarc_core::{AarcError, SearchOutcome};

/// What one search produced, reduced to the fields the reports carry.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub final_cost: f64,
    pub final_makespan_ms: f64,
    pub meets_slo: bool,
    pub samples: usize,
}

impl Summary {
    pub fn of(outcome: &SearchOutcome, slo_ms: f64) -> Self {
        Summary {
            final_cost: outcome.best_cost(),
            final_makespan_ms: outcome.best_runtime_ms(),
            meets_slo: outcome.final_report.meets_slo(slo_ms),
            samples: outcome.trace.sample_count(),
        }
    }
}

/// One search's identity and result (or its error message).
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    pub scenario: String,
    pub class: &'static str,
    pub method: &'static str,
    pub result: Result<Summary, String>,
}

impl Outcome {
    pub fn new(
        scenario: &str,
        class: &'static str,
        method: &'static str,
        result: &Result<SearchOutcome, AarcError>,
        slo_ms: f64,
    ) -> Self {
        Outcome {
            scenario: scenario.to_owned(),
            class,
            method,
            result: match result {
                Ok(outcome) => Ok(Summary::of(outcome, slo_ms)),
                Err(e) => Err(e.to_string()),
            },
        }
    }

    /// Checks this outcome against a reference for the same search: the
    /// same identity and bit-identical results.
    pub fn check(&self, reference: &Outcome) -> Result<(), String> {
        let same = self.scenario == reference.scenario
            && self.class == reference.class
            && self.method == reference.method
            && match (&self.result, &reference.result) {
                (Ok(a), Ok(b)) => {
                    a.final_cost.to_bits() == b.final_cost.to_bits()
                        && a.final_makespan_ms.to_bits() == b.final_makespan_ms.to_bits()
                        && a.meets_slo == b.meets_slo
                        && a.samples == b.samples
                }
                (Err(a), Err(b)) => a == b,
                _ => false,
            };
        if same {
            Ok(())
        } else {
            Err(format!(
                "outcome {self:?} differs from reference {reference:?}"
            ))
        }
    }
}

/// An FNV-1a fold over outcome records, in the order they are added.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
        // A separator, so field boundaries cannot shift.
        self.0 ^= 0xFF;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
    }

    pub fn add(&mut self, outcome: &Outcome) {
        self.bytes(outcome.scenario.as_bytes());
        self.bytes(outcome.class.as_bytes());
        self.bytes(outcome.method.as_bytes());
        match &outcome.result {
            Ok(s) => {
                self.bytes(&s.final_cost.to_bits().to_le_bytes());
                self.bytes(&s.final_makespan_ms.to_bits().to_le_bytes());
                self.bytes(&[u8::from(s.meets_slo)]);
                self.bytes(&(s.samples as u64).to_le_bytes());
            }
            Err(message) => self.bytes(message.as_bytes()),
        }
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome() -> Outcome {
        Outcome {
            scenario: "chatbot".to_owned(),
            class: "nominal",
            method: "aarc",
            result: Ok(Summary {
                final_cost: 158_574.933_333_333_35,
                final_makespan_ms: 104_184.666_666_666_67,
                meets_slo: true,
                samples: 90,
            }),
        }
    }

    #[test]
    fn the_check_accepts_an_identical_reference() {
        assert!(outcome().check(&outcome()).is_ok());
    }

    #[test]
    fn the_check_rejects_a_corrupted_reference() {
        let good = outcome();
        let mut flipped = outcome();
        if let Ok(s) = flipped.result.as_mut() {
            // One ulp off: equal to print precision, different in bits.
            s.final_cost = f64::from_bits(s.final_cost.to_bits() ^ 1);
        }
        assert!(good.check(&flipped).is_err());
        let mut fewer = outcome();
        if let Ok(s) = fewer.result.as_mut() {
            s.samples -= 1;
        }
        assert!(good.check(&fewer).is_err());
        let mut other_method = outcome();
        other_method.method = "maff";
        assert!(good.check(&other_method).is_err());
        let mut failed = outcome();
        failed.result = Err("search failed".to_owned());
        assert!(good.check(&failed).is_err());
    }

    #[test]
    fn the_digest_depends_on_every_field_and_on_order() {
        let mut a = Digest::default();
        a.add(&outcome());
        let mut b = Digest::default();
        b.add(&outcome());
        assert_eq!(a, b);
        let mut other = outcome();
        other.class = "heavy";
        let mut c = Digest::default();
        c.add(&other);
        assert_ne!(a, c);
        a.add(&other);
        c.add(&outcome());
        assert_ne!(a, c, "order matters");
    }
}
