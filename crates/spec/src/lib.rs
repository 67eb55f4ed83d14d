//! `aarc-spec` — the declarative scenario subsystem of the AARC
//! reproduction.
//!
//! The engine crates (`aarc-workflow`, `aarc-simulator`, `aarc-core`,
//! `aarc-baselines`) expose workloads only as Rust builder code, so every
//! new scenario used to cost a recompile. This crate adds a versioned
//! YAML/JSON schema ([`ScenarioSpec`]) describing everything a
//! configuration search needs — the workflow DAG, per-function performance
//! profiles, cluster, pricing, resource space, SLO and the §IV-D input-size
//! distribution — plus:
//!
//! * [`validate`](mod@validate) — semantic validation (acyclicity, dangling edge
//!   references, profile sanity, platform plausibility) with all problems
//!   reported at once;
//! * [`compile`](mod@compile) — a compiler into the engine's executable
//!   [`Workload`](aarc_workloads::Workload) /
//!   [`WorkflowEnvironment`](aarc_simulator::WorkflowEnvironment);
//! * [`export`](mod@export) — the inverse direction, used to serialize the three
//!   built-in paper workloads (and any programmatic workload) as specs;
//! * [`synthetic_spec`] — scenario minting via the random workload
//!   generator.
//!
//! # Example
//!
//! ```
//! use aarc_spec::prelude::*;
//!
//! # fn main() -> Result<(), aarc_spec::SpecError> {
//! let spec = aarc_spec::from_yaml_str(r#"
//! version: 1
//! name: demo
//! slo_ms: 60000.0
//! functions:
//!   - name: crunch
//!     affinity: cpu-bound
//!     profile:
//!       parallel_ms: 30000.0
//!       max_parallelism: 4.0
//!   - name: store
//!     profile:
//!       serial_ms: 2000.0
//! edges:
//!   - from: crunch
//!     to: store
//! "#)?;
//! let scenario = compile(&spec)?;
//! let report = scenario
//!     .workload()
//!     .env()
//!     .execute(&scenario.workload().env().base_configs())
//!     .expect("base config executes");
//! assert!(report.makespan_ms() > 0.0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod compile;
pub mod error;
pub mod export;
pub mod io;
pub mod schema;
pub mod synth;
pub mod validate;

pub use compile::{compile, CompiledScenario};
pub use error::{SpecError, ValidationIssue};
pub use export::{builtin_specs, export, BUILTIN_NAMES};
pub use io::{
    atomic_write, from_json_str, from_slice, from_yaml_str, load, save, to_string, SpecFormat,
};
pub use schema::{
    AffinityDecl, ClassDecl, ClusterDecl, ColdStartDecl, ConfigDecl, EdgeDecl, FunctionDecl,
    InputClassDecl, InputDecl, KindDecl, PricingDecl, ProfileDecl, ScenarioSpec, SpaceDecl,
    SPEC_VERSION,
};
pub use synth::{synthetic_spec, SynthParams};
pub use validate::validate;

/// The most commonly used items.
pub mod prelude {
    pub use crate::compile::{compile, CompiledScenario};
    pub use crate::error::SpecError;
    pub use crate::export::{builtin_specs, export};
    pub use crate::io::{from_json_str, from_slice, from_yaml_str, load, save, SpecFormat};
    pub use crate::schema::ScenarioSpec;
    pub use crate::validate::validate;
}
