//! Cross-layer observability for the rhythmic-pixel stack.
//!
//! The paper's headline claims are *system-level* numbers — DRAM traffic
//! and energy reduction, encoder/decoder cost, end-to-end accuracy — but
//! each signal is produced by a different crate (`rpr-stream` telemetry,
//! `rpr-memsim` traffic/energy, `rpr-hwsim` power, `rpr-workloads`
//! accuracy). This crate is the thin layer that ties them together:
//!
//! * **Tracing** ([`span`], [`counter`], [`counter_for_region`]): cheap
//!   structured events with per-frame / per-region-label provenance
//!   (label id, stride, skip), recorded into per-thread sinks behind a
//!   single global [`enable`] gate. When tracing is disabled the only
//!   cost at every instrumentation point is one relaxed atomic load.
//! * **Chrome trace export** ([`chrome_trace_value`]): any captured run
//!   opens directly in Perfetto / `about:tracing`.
//! * **[`MetricsRegistry`] / [`RunReport`]**: one serde document with a
//!   stable, versioned schema ([`REPORT_SCHEMA_VERSION`]) unifying
//!   stream telemetry, memory traffic, energy, hardware power, region
//!   statistics, accuracy, and per-region-label DRAM/energy attribution.
//!
//! # Quick start
//!
//! ```
//! rpr_trace::enable();
//! {
//!     let _span = rpr_trace::span("encode", "demo").with_frame(0);
//!     rpr_trace::counter_for_region("demo.label_px", "demo", 0, 2, 1, 1, 64.0);
//! }
//! let events = rpr_trace::drain();
//! rpr_trace::disable();
//! assert_eq!(events.len(), 2);
//! let chrome = rpr_trace::chrome_trace_value(&events);
//! assert!(serde_json::to_string(&chrome).unwrap().contains("traceEvents"));
//! ```

#![deny(missing_docs)]

mod chrome;
mod ctx;
mod expo;
mod flight;
pub mod gate;
mod hist;
pub mod live;
mod registry;
mod report;
mod sink;
pub mod slo;

pub use chrome::{
    chrome_trace_json, chrome_trace_json_named, chrome_trace_value, chrome_trace_value_named,
};
pub use ctx::FrameCtx;
pub use expo::render_prometheus;
pub use flight::FlightRecorder;
pub use hist::{LatencyHistogram, LATENCY_BUCKETS_US};
pub use live::{LiveCounter, LiveHistogram, LiveMetrics, TenantLive, TenantSnapshot};
pub use registry::MetricsRegistry;
pub use report::{
    EnergySection, HwSection, LabelAttribution, MemorySection, PredictionSection, RegionSection,
    RunReport, SloSection, StageSection, StreamSection, TenantSection, REPORT_SCHEMA_VERSION,
};
pub use sink::{
    counter, counter_for_ctx, counter_for_frame, counter_for_region, disable, drain, enable,
    instant, is_enabled, span, thread_label, EventKind, Provenance, Span, TraceEvent,
};
pub use slo::{SloConfig, SloTracker};

/// Canonical event names emitted by the instrumented crates, shared
/// between the emission sites and [`MetricsRegistry`] ingestion.
pub mod names {
    /// One whole-frame encode pass (`rpr-core`), span.
    pub const ENCODE: &str = "encoder.encode";
    /// One whole-frame decode pass (`rpr-core`), span.
    pub const DECODE: &str = "decoder.decode";
    /// Captured (stored `R`) pixels for one region label on one frame
    /// (`rpr-core`), counter with full region provenance.
    pub const ENCODER_LABEL_PX: &str = "encoder.label_px";
    /// Bytes written to the modeled DRAM on one frame (`rpr-memsim`).
    pub const DRAM_WRITE_BYTES: &str = "dram.write_bytes";
    /// Bytes read from the modeled DRAM on one frame (`rpr-memsim`).
    pub const DRAM_READ_BYTES: &str = "dram.read_bytes";
    /// One capture-path frame through the experiment pipeline
    /// (`rpr-workloads`), span.
    pub const PIPELINE_FRAME: &str = "pipeline.process_frame";
    /// One source-stage frame production (`rpr-stream`), span.
    pub const STAGE_SOURCE: &str = "stage.source";
    /// One capture-stage frame (`rpr-stream`), span.
    pub const STAGE_CAPTURE: &str = "stage.capture";
    /// One task-stage frame (`rpr-stream`), span.
    pub const STAGE_TASK: &str = "stage.task";
    /// One ego-motion fit over a frame's motion vectors
    /// (`rpr-predict`), span.
    pub const PREDICT_EGO_FIT: &str = "predict.ego_fit";
    /// One forward-projection pass over a frame's region labels
    /// (`rpr-predict`), span.
    pub const PREDICT_PROJECT: &str = "predict.project";
    /// Motion vectors consumed by one ego-motion fit (`rpr-predict`),
    /// counter.
    pub const PREDICT_VECTORS: &str = "predict.vectors";
    /// RANSAC inlier fraction of one ego-motion fit (`rpr-predict`),
    /// counter in [0, 1].
    pub const PREDICT_INLIER_FRACTION: &str = "predict.inlier_fraction";
    /// Mean IoU of predicted regions against ground-truth object tracks
    /// on one frame (`rpr-workloads` tracking runner), counter.
    pub const PREDICT_REGION_IOU: &str = "predict.region_iou";
    /// Thread-label marker emitted by [`crate::thread_label`]; the
    /// Chrome exporter turns it into `thread_name` metadata.
    pub const THREAD_LABEL: &str = "meta.thread_label";
    /// One session's bytes→frames ingest poll (`rpr-serve`), span.
    pub const SERVE_INGEST: &str = "serve.ingest";
    /// One frame's admission decision (`rpr-serve`), instant/counter.
    pub const SERVE_ADMIT: &str = "serve.admit";
    /// One frame's path from admission to its tenant delivery queue
    /// (`rpr-serve`), span.
    pub const SERVE_DELIVER: &str = "serve.deliver";
    /// One frame routed by the tenant bridge into its per-camera
    /// pipeline (`rpr-serve`), span whose duration is admit→routed.
    pub const SERVE_ROUTE: &str = "serve.route";
    /// End-to-end delivery latency sample in µs (`rpr-serve`), counter
    /// with frame ctx.
    pub const SERVE_E2E_US: &str = "serve.e2e_us";
}
