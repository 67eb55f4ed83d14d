//! Error types of the scenario subsystem.

use std::fmt;

/// One semantic problem found while validating a
/// [`ScenarioSpec`](crate::ScenarioSpec).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValidationIssue {
    /// Dotted path to the offending element (e.g. `functions[2].profile`).
    pub path: String,
    /// Human-readable description of the problem.
    pub message: String,
}

impl ValidationIssue {
    /// Creates an issue.
    pub fn new(path: impl Into<String>, message: impl Into<String>) -> Self {
        ValidationIssue {
            path: path.into(),
            message: message.into(),
        }
    }
}

impl fmt::Display for ValidationIssue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.path, self.message)
    }
}

/// Error produced by the scenario subsystem.
#[derive(Debug, Clone, PartialEq)]
pub enum SpecError {
    /// The text could not be parsed as YAML/JSON or did not match the
    /// schema shape.
    Parse(String),
    /// The spec parsed but violates semantic rules; all problems are
    /// reported at once.
    Invalid(Vec<ValidationIssue>),
    /// The spec validated but the engine rejected it while compiling (a
    /// validator gap — please report).
    Compile(String),
    /// A file could not be read or written.
    Io(String),
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::Parse(msg) => write!(f, "parse error: {msg}"),
            SpecError::Invalid(issues) => {
                writeln!(f, "invalid scenario ({} problem(s)):", issues.len())?;
                for issue in issues {
                    writeln!(f, "  - {issue}")?;
                }
                Ok(())
            }
            SpecError::Compile(msg) => write!(f, "compile error: {msg}"),
            SpecError::Io(msg) => write!(f, "io error: {msg}"),
        }
    }
}

impl std::error::Error for SpecError {}
