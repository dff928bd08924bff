//! Cluster-scale request router for DistServe-RS.
//!
//! The frontend tier that llm-d calls the End Point Picker: every
//! arriving request is scored against every live replica using its
//! prompt length, estimated decode length, and the replica's current
//! load, then either executed on the split prefill/decode path, executed
//! on a colocated replica, held briefly for capacity (bounded wait), or
//! shed. Three pieces:
//!
//! - [`decision`] — the pure `route(&RouterState, &RequestFeatures) ->
//!   Decision` core plus the `(role, load-bucket)` replica index. No
//!   clocks, no RNG: identical inputs give identical decisions.
//! - [`log`] — flat JSON decision records; a logged run can be replayed
//!   through the engine byte-for-byte.
//! - [`scale`] — the request-granular simulator that drives the router
//!   with tens of millions of requests per wall-clock minute
//!   (`examples/router_scale.rs`, BENCH_sim.json).
//!
//! The engine integration lives in `distserve-engine`:
//! `ServingSim::new_routed(cfg, cost, cluster, specs, policy)?
//! .with_sink(sink).run_logged(&trace)?` routes every arrival and returns
//! the decision log, and `ServingSim::new_replayed` re-runs from it.
//! Routed runs flow through the same telemetry and attribution as direct
//! runs.

pub mod decision;
pub mod log;
pub mod scale;

pub use decision::{
    route, Decision, ReplicaId, ReplicaRole, ReplicaSnapshot, RequestFeatures, RouterPolicy,
    RouterState, ShedReason,
};
pub use log::{log_from_json, log_to_json, DecisionKind, DecisionRecord};
pub use scale::{
    Assignment, Completion, FleetSpec, ScaleOutcome, ScaleSim, ScaleSlo, ServiceProfile,
};
