//! Request-lifecycle tracing, a metrics registry, and exporters for both
//! the simulated and the real serving engines.
//!
//! DistServe's core argument is about *where time goes*: prefill and
//! decoding interfere when colocated, and disaggregation plus KV
//! migration moves that time around (§6.3 of the paper breaks request
//! latency into five stages). This crate makes those stages observable:
//!
//! * **Events** ([`LifecycleEvent`]): typed per-request boundaries —
//!   `Arrived`, `PrefillQueued`, `PrefillStart/End`, `KvMigrateStart/End`,
//!   `DecodeQueued`, `DecodeStep`, `Finished`, `Rejected`.
//! * **Slices** ([`Slice`], [`SpanGuard`]): batch executions on
//!   per-instance timeline tracks. Simulated engines stamp slices with
//!   sim-clock seconds; the real engine scopes them with a
//!   [`SpanGuard`] over a [`WallClock`].
//! * **Spans** ([`SpanEvent`], [`TraceCtx`]): causal parent/child spans
//!   linking one request's path across tiers (router decision → prefill
//!   → KV transfer → decode steps), consumed by `crates/trace`'s
//!   tail-based sampler.
//! * **Metrics** ([`MetricsRegistry`]): counters, gauges, and
//!   log-bucketed [`LogHistogram`]s keyed by `(name, instance)`.
//! * **Exporters**: Chrome/Perfetto trace JSON
//!   ([`Recording::perfetto_json`]), Prometheus text format
//!   ([`Recording::prometheus_text`]), and a per-request lifecycle CSV
//!   ([`Recording::lifecycle_csv`]).
//!
//! Engines emit into a [`TelemetrySink`] trait object and default to the
//! no-op [`NOOP`] sink, so uninstrumented runs (the planner's thousands
//! of placement probes, the benches) pay one virtual call per emission
//! and allocate nothing. Swap in a [`Recorder`] to capture a run:
//!
//! ```
//! use distserve_telemetry::{Event, LifecycleEvent, Recorder, Slice, TelemetrySink};
//!
//! let rec = Recorder::new();
//! rec.declare_track(0, "prefill[0]");
//! rec.event(Event { request: 1, tenant: 0, time_s: 0.0, kind: LifecycleEvent::Arrived });
//! rec.event(Event { request: 1, tenant: 0, time_s: 0.4, kind: LifecycleEvent::Finished });
//! rec.slice(Slice {
//!     track: 0, name: "prefill", start_s: 0.1, end_s: 0.3, batch: 1, tokens: 256,
//! });
//! let snap = rec.snapshot();
//! for lc in snap.lifecycles().values() {
//!     lc.validate().unwrap();
//! }
//! assert!(snap.perfetto_json().contains("traceEvents"));
//! ```

mod event;
mod export;
mod recorder;
mod registry;
mod sink;

pub use event::{
    metrics, span_flags, trace_id, Event, LifecycleEvent, RequestKey, Slice, SpanEvent, SpanGuard,
    SpanKind, TenantId, TraceCtx, TrackId, WallClock, NO_PARENT,
};
pub use export::{json_escape, prometheus_text, LIFECYCLE_TRACK};
pub use recorder::{Lifecycle, Recorder, Recording};
pub use registry::{LogHistogram, MetricsRegistry};
pub use sink::{NoopSink, TeeSink, TelemetrySink, NOOP};
