//! The versioned scenario schema: serde types describing a workflow, its
//! per-function performance profiles, the platform (cluster, pricing,
//! resource space) and the SLO — everything needed to run a configuration
//! search without writing Rust.
//!
//! Optional sections default to the paper's platform constants, so a
//! minimal scenario only needs `version`, `name`, `slo_ms`, `functions`
//! and `edges`. The [exporter](mod@crate::export) always writes every section
//! explicitly ("normalized form"), which is what the golden files and the
//! round-trip property tests pin down.

use serde::{DeError, Deserialize, Serialize, Value};

use aarc_simulator::{ClusterSpec, ColdStartModel, InputClass, PricingModel, ResourceSpace};
use aarc_workflow::{CommunicationKind, ResourceAffinity};

/// The schema version this crate reads and writes.
pub const SPEC_VERSION: u32 = 1;

/// A complete declarative scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioSpec {
    /// Schema version; must equal [`SPEC_VERSION`].
    pub version: u32,
    /// Workflow name (unique per scenario collection; used in reports).
    pub name: String,
    /// End-to-end latency SLO in milliseconds.
    pub slo_ms: f64,
    /// RNG seed for jittered executions (0 = fully deterministic platforms).
    #[serde(default)]
    pub seed: u64,
    /// The workflow's functions with their performance profiles, in
    /// topological declaration order.
    pub functions: Vec<FunctionDecl>,
    /// The workflow's dependency edges.
    pub edges: Vec<EdgeDecl>,
    /// Simulated cluster; defaults to the paper's 96-core testbed.
    pub cluster: Option<ClusterDecl>,
    /// Pricing constants; defaults to the paper's µ values.
    pub pricing: Option<PricingDecl>,
    /// Discretised configuration space; defaults to the paper's grid.
    pub resource_space: Option<SpaceDecl>,
    /// Over-provisioned base configuration; defaults to the space maximum.
    pub base_config: Option<ConfigDecl>,
    /// Default execution input; defaults to the nominal profiling input.
    pub input: Option<InputDecl>,
    /// Input-size distribution for the §IV-D input-aware engine: one entry
    /// per size class with a representative input and a request-mix weight.
    #[serde(default)]
    pub input_classes: Vec<InputClassDecl>,
}

impl ScenarioSpec {
    /// A stable 64-bit fingerprint of the scenario (FNV-1a over the
    /// canonical JSON rendering). Used by the bench harness to derive
    /// per-scenario candidate RNG seeds and surfaced next to cache
    /// statistics in `BENCH_*.json`; any edit to the spec changes it.
    pub fn fingerprint(&self) -> u64 {
        let canonical = crate::io::to_string(self, crate::io::SpecFormat::Json);
        aarc_simulator::eval::fnv1a_64(canonical.bytes())
    }

    /// Parses a spec from raw in-memory bytes, sniffing YAML vs JSON from
    /// the content (see [`SpecFormat::sniff`](crate::io::SpecFormat::sniff)).
    /// Uploaded scenario bodies go through this entry point — they never
    /// touch disk.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError`](crate::error::SpecError) on non-UTF-8 input,
    /// malformed text or schema mismatches.
    pub fn from_slice(bytes: &[u8]) -> Result<Self, crate::error::SpecError> {
        crate::io::from_slice(bytes)
    }
}

/// One serverless function: identity, advisory affinity and profile.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FunctionDecl {
    /// Unique function name.
    pub name: String,
    /// Advisory resource affinity (`balanced` when omitted).
    #[serde(default)]
    pub affinity: AffinityDecl,
    /// Performance profile.
    pub profile: ProfileDecl,
}

/// Per-function performance profile (§II-A performance model inputs).
///
/// Field defaults mirror
/// [`FunctionProfileBuilder`](aarc_simulator::FunctionProfileBuilder).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProfileDecl {
    /// Serial compute at one core, ms.
    #[serde(default)]
    pub serial_ms: f64,
    /// Parallelisable compute at one core, ms.
    #[serde(default)]
    pub parallel_ms: f64,
    /// Maximum exploitable cores (≥ 1).
    pub max_parallelism: Option<f64>,
    /// Resource-insensitive I/O time, ms.
    #[serde(default)]
    pub io_ms: f64,
    /// Working-set size at nominal input, MB.
    pub working_set_mb: Option<f64>,
    /// Hard OOM floor at nominal input, MB.
    pub mem_floor_mb: Option<f64>,
    /// Slowdown factor at the memory floor (≥ 1).
    pub mem_penalty_factor: Option<f64>,
    /// Exponent scaling compute with input scale.
    pub input_sensitivity: Option<f64>,
    /// Exponent scaling working set / floor with input scale.
    #[serde(default)]
    pub mem_input_sensitivity: f64,
}

/// One dependency edge.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EdgeDecl {
    /// Upstream function name.
    pub from: String,
    /// Downstream function name.
    pub to: String,
    /// Payload size transferred along the edge, MB.
    pub payload_mb: Option<f64>,
    /// Communication pattern (`direct` when omitted).
    #[serde(default)]
    pub kind: KindDecl,
}

/// Default payload size for edges that do not declare one, matching
/// [`aarc_workflow::WorkflowBuilder::add_edge`].
pub const DEFAULT_PAYLOAD_MB: f64 = 1.0;

/// Cluster description; see [`ClusterSpec`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterDecl {
    /// Number of identical hosts.
    pub hosts: usize,
    /// vCPUs per host.
    pub vcpus_per_host: f64,
    /// Memory per host, MB.
    pub memory_mb_per_host: u32,
    /// Inter-function network bandwidth, MB/s.
    pub network_mb_per_s: f64,
    /// Relative runtime jitter (0 = deterministic).
    #[serde(default)]
    pub runtime_jitter: f64,
    /// Cold-start model; disabled when omitted.
    pub cold_start: Option<ColdStartDecl>,
}

/// Cold-start model; see [`ColdStartModel`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ColdStartDecl {
    /// Whether cold starts are simulated.
    pub enabled: bool,
    /// Fixed provisioning latency, ms.
    #[serde(default)]
    pub base_ms: f64,
    /// Additional latency per GB of configured memory, ms.
    #[serde(default)]
    pub per_gb_ms: f64,
}

/// Pricing constants; see [`PricingModel`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PricingDecl {
    /// µ0 — price per vCPU-millisecond.
    pub per_vcpu_ms: f64,
    /// µ1 — price per MB-millisecond.
    pub per_mb_ms: f64,
    /// µ2 — flat price per request.
    #[serde(default)]
    pub per_request: f64,
}

/// Discretised resource space; see [`ResourceSpace`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpaceDecl {
    /// Minimum vCPU allocation.
    pub min_vcpu: f64,
    /// Maximum vCPU allocation.
    pub max_vcpu: f64,
    /// vCPU grid step.
    pub vcpu_step: f64,
    /// Minimum memory, MB.
    pub min_memory_mb: u32,
    /// Maximum memory, MB.
    pub max_memory_mb: u32,
    /// Memory grid step, MB.
    pub memory_step_mb: u32,
}

/// One decoupled resource configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConfigDecl {
    /// vCPU cores.
    pub vcpu: f64,
    /// Memory, MB.
    pub memory_mb: u32,
}

/// One workflow input.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InputDecl {
    /// Work multiplier relative to the nominal profiling input.
    pub scale: f64,
    /// Payload entering the workflow, MB.
    pub payload_mb: f64,
}

/// One entry of the input-size distribution (§IV-D).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InputClassDecl {
    /// Size class this entry describes.
    pub class: ClassDecl,
    /// Representative input for the class.
    pub input: InputDecl,
    /// Relative request-mix weight (1.0 when omitted).
    pub weight: Option<f64>,
}

// ---------------------------------------------------------------------------
// Kebab-case enum wrappers. The derive shim serializes unit variants under
// their Rust names; scenario files want lowercase kebab-case, so these
// wrappers implement Serialize/Deserialize by hand and convert to the
// engine enums via `From`.
// ---------------------------------------------------------------------------

macro_rules! kebab_enum {
    (
        $(#[$meta:meta])*
        $name:ident / $engine:ty {
            $( $(#[$vmeta:meta])* $variant:ident / $evariant:ident = $text:literal ),+ $(,)?
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum $name {
            $( $(#[$vmeta])* $variant, )+
        }

        impl $name {
            /// The kebab-case spelling used in scenario files.
            pub fn as_str(&self) -> &'static str {
                match self {
                    $( $name::$variant => $text, )+
                }
            }
        }

        impl Serialize for $name {
            fn to_value(&self) -> Value {
                Value::Str(self.as_str().to_string())
            }
        }

        impl Deserialize for $name {
            fn from_value(value: &Value) -> Result<Self, DeError> {
                match value.as_str() {
                    $( Some($text) => Ok($name::$variant), )+
                    Some(other) => Err(DeError::custom(format!(
                        concat!("unknown ", stringify!($name), " `{}` (expected one of: ",
                                $( $text, " ", )+ ")"),
                        other
                    ))),
                    None => Err(DeError::expected("string", value)),
                }
            }
        }

        impl From<$name> for $engine {
            fn from(v: $name) -> Self {
                match v {
                    $( $name::$variant => <$engine>::$evariant, )+
                }
            }
        }

        impl From<$engine> for $name {
            fn from(v: $engine) -> Self {
                match v {
                    $( <$engine>::$evariant => $name::$variant, )+
                }
            }
        }

        impl std::fmt::Display for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                f.write_str(self.as_str())
            }
        }
    };
}

kebab_enum! {
    /// Resource affinity annotation, kebab-case in scenario files.
    AffinityDecl / ResourceAffinity {
        /// Runtime dominated by compute.
        CpuBound / CpuBound = "cpu-bound",
        /// Runtime dominated by the working set.
        MemoryBound / MemoryBound = "memory-bound",
        /// Runtime dominated by I/O.
        IoBound / IoBound = "io-bound",
        /// Sensitive to both resources.
        Balanced / Balanced = "balanced",
    }
}

kebab_enum! {
    /// Edge communication pattern, kebab-case in scenario files.
    KindDecl / CommunicationKind {
        /// Point-to-point full payload.
        Direct / Direct = "direct",
        /// Payload split across successors.
        Scatter / Scatter = "scatter",
        /// Payload replicated to all successors.
        Broadcast / Broadcast = "broadcast",
        /// Successor gathers from all predecessors.
        Gather / Gather = "gather",
    }
}

kebab_enum! {
    /// Input size class, lowercase in scenario files.
    ClassDecl / InputClass {
        /// Small inputs.
        Light / Light = "light",
        /// Typical inputs.
        Middle / Middle = "middle",
        /// Large inputs.
        Heavy / Heavy = "heavy",
    }
}

// `Default` stays a hand-written impl: the derive would need a `#[default]`
// variant attribute threaded through the kebab_enum macro for no gain.
#[allow(clippy::derivable_impls)]
impl Default for AffinityDecl {
    fn default() -> Self {
        AffinityDecl::Balanced
    }
}

#[allow(clippy::derivable_impls)]
impl Default for KindDecl {
    fn default() -> Self {
        KindDecl::Direct
    }
}

impl ClusterDecl {
    /// Converts to the engine's [`ClusterSpec`].
    pub fn to_engine(&self) -> ClusterSpec {
        ClusterSpec {
            hosts: self.hosts,
            vcpus_per_host: self.vcpus_per_host,
            memory_mb_per_host: self.memory_mb_per_host,
            network_mb_per_s: self.network_mb_per_s,
            cold_start: self
                .cold_start
                .as_ref()
                .map(ColdStartDecl::to_engine)
                .unwrap_or_else(ColdStartModel::disabled),
            runtime_jitter: self.runtime_jitter,
        }
    }

    /// Builds the declaration mirroring an engine [`ClusterSpec`].
    pub fn from_engine(c: &ClusterSpec) -> Self {
        ClusterDecl {
            hosts: c.hosts,
            vcpus_per_host: c.vcpus_per_host,
            memory_mb_per_host: c.memory_mb_per_host,
            network_mb_per_s: c.network_mb_per_s,
            runtime_jitter: c.runtime_jitter,
            cold_start: Some(ColdStartDecl::from_engine(&c.cold_start)),
        }
    }
}

impl ColdStartDecl {
    /// Converts to the engine's [`ColdStartModel`].
    pub fn to_engine(&self) -> ColdStartModel {
        ColdStartModel {
            enabled: self.enabled,
            base_ms: self.base_ms,
            per_gb_ms: self.per_gb_ms,
        }
    }

    /// Builds the declaration mirroring an engine [`ColdStartModel`].
    pub fn from_engine(c: &ColdStartModel) -> Self {
        ColdStartDecl {
            enabled: c.enabled,
            base_ms: c.base_ms,
            per_gb_ms: c.per_gb_ms,
        }
    }
}

impl PricingDecl {
    /// Converts to the engine's [`PricingModel`].
    pub fn to_engine(&self) -> PricingModel {
        PricingModel::new(self.per_vcpu_ms, self.per_mb_ms, self.per_request)
    }

    /// Builds the declaration mirroring an engine [`PricingModel`].
    pub fn from_engine(p: &PricingModel) -> Self {
        PricingDecl {
            per_vcpu_ms: p.per_vcpu_ms,
            per_mb_ms: p.per_mb_ms,
            per_request: p.per_request,
        }
    }
}

impl SpaceDecl {
    /// Converts to the engine's [`ResourceSpace`].
    pub fn to_engine(&self) -> ResourceSpace {
        ResourceSpace {
            min_vcpu: self.min_vcpu,
            max_vcpu: self.max_vcpu,
            vcpu_step: self.vcpu_step,
            min_memory_mb: self.min_memory_mb,
            max_memory_mb: self.max_memory_mb,
            memory_step_mb: self.memory_step_mb,
        }
    }

    /// Builds the declaration mirroring an engine [`ResourceSpace`].
    pub fn from_engine(s: &ResourceSpace) -> Self {
        SpaceDecl {
            min_vcpu: s.min_vcpu,
            max_vcpu: s.max_vcpu,
            vcpu_step: s.vcpu_step,
            min_memory_mb: s.min_memory_mb,
            max_memory_mb: s.max_memory_mb,
            memory_step_mb: s.memory_step_mb,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kebab_enums_round_trip_through_values() {
        for (decl, text) in [
            (AffinityDecl::CpuBound, "cpu-bound"),
            (AffinityDecl::MemoryBound, "memory-bound"),
            (AffinityDecl::IoBound, "io-bound"),
            (AffinityDecl::Balanced, "balanced"),
        ] {
            let v = decl.to_value();
            assert_eq!(v, Value::Str(text.to_string()));
            assert_eq!(AffinityDecl::from_value(&v).unwrap(), decl);
        }
        assert!(AffinityDecl::from_value(&Value::Str("gpu-bound".into())).is_err());
        assert!(KindDecl::from_value(&Value::Int(3)).is_err());
    }

    #[test]
    fn engine_conversions_are_inverses() {
        for k in [
            KindDecl::Direct,
            KindDecl::Scatter,
            KindDecl::Broadcast,
            KindDecl::Gather,
        ] {
            assert_eq!(KindDecl::from(CommunicationKind::from(k)), k);
        }
        for c in [ClassDecl::Light, ClassDecl::Middle, ClassDecl::Heavy] {
            assert_eq!(ClassDecl::from(InputClass::from(c)), c);
        }
    }

    #[test]
    fn platform_decls_mirror_engine_types() {
        let cluster = ClusterDecl::from_engine(&ClusterSpec::paper_testbed());
        assert_eq!(cluster.to_engine(), ClusterSpec::paper_testbed());
        let pricing = PricingDecl::from_engine(&PricingModel::paper());
        assert_eq!(pricing.to_engine(), PricingModel::paper());
        let space = SpaceDecl::from_engine(&ResourceSpace::paper());
        assert_eq!(space.to_engine(), ResourceSpace::paper());
    }
}
