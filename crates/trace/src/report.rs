//! The `RunReport` schema — one serde document describing a whole run.
//!
//! # Schema stability
//!
//! [`REPORT_SCHEMA_VERSION`] is bumped whenever a field is renamed,
//! removed, or changes meaning; adding fields is backward compatible
//! (readers must ignore unknown fields). The JSON layout is documented
//! in `DESIGN.md` ("RunReport schema") and locked by tests in
//! `rpr-bench`.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Version of the `RunReport` JSON layout produced by this build.
pub const REPORT_SCHEMA_VERSION: u32 = 1;

/// DRAM/frame-memory traffic for the run (from `rpr-memsim`
/// `TrafficSummary` plus footprint and capture statistics).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MemorySection {
    /// Total bytes written to the modeled DRAM.
    pub write_bytes: u64,
    /// Total bytes read back from the modeled DRAM.
    pub read_bytes: u64,
    /// Metadata (mask/region-table) bytes, counted inside the totals.
    pub metadata_bytes: u64,
    /// Mean `(write + read)` bytes per frame.
    pub bytes_per_frame: f64,
    /// Sustained traffic at the run's frame rate, in MB/s.
    pub throughput_mb_s: f64,
    /// Mean per-frame encoded footprint in bytes.
    pub mean_footprint_bytes: f64,
    /// Largest per-frame encoded footprint in bytes.
    pub peak_footprint_bytes: u64,
    /// Mean fraction of sensor pixels captured (0..=1).
    pub mean_captured_fraction: f64,
}

/// Energy totals for the run (from `rpr-memsim`'s `EnergyModel`).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct EnergySection {
    /// Sensing (pixel-array readout) energy in pJ.
    pub sensing_pj: f64,
    /// Sensor-interface (CSI + DDR link) energy in pJ.
    pub interface_pj: f64,
    /// DRAM array energy in pJ.
    pub dram_pj: f64,
    /// Downstream compute (MAC) energy in pJ.
    pub compute_pj: f64,
    /// Total energy over the run in mJ.
    pub total_mj: f64,
    /// Mean energy per frame in mJ.
    pub mj_per_frame: f64,
    /// Average power at the run's frame rate, in mW (0 when the frame
    /// rate is unknown or zero).
    pub power_mw: f64,
}

/// Hardware-model estimates (from `rpr-hwsim`).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct HwSection {
    /// Estimated encoder power in mW.
    pub encoder_mw: f64,
    /// Estimated decoder power in mW.
    pub decoder_mw: f64,
    /// Mean mask comparisons per pixel in the encoder.
    pub comparisons_per_pixel: f64,
    /// Fraction of pixels kept by the encoder (0..=1).
    pub keep_ratio: f64,
}

/// Per-stage latency summary for one staged-pipeline stage.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct StageSection {
    /// Stage name (`source`, `capture`, `task`).
    pub name: String,
    /// Frames processed by the stage.
    pub frames: u64,
    /// Frames processed in a degraded mode.
    pub degraded_frames: u64,
    /// Mean stage latency in microseconds.
    pub mean_latency_us: f64,
    /// Median (p50) stage latency in microseconds, bucket-interpolated.
    pub p50_us: f64,
    /// p90 stage latency in microseconds, bucket-interpolated.
    pub p90_us: f64,
    /// p99 stage latency in microseconds, bucket-interpolated.
    pub p99_us: f64,
}

/// One stream of the staged executor (from `rpr-stream` telemetry).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct StreamSection {
    /// Stream identifier.
    pub stream_id: u64,
    /// Frames produced by the source.
    pub frames_in: u64,
    /// Frames fully processed by the final stage.
    pub frames_out: u64,
    /// Frames dropped at full queues.
    pub frames_dropped: u64,
    /// Wall-clock run time in seconds.
    pub wall_time_s: f64,
    /// End-to-end throughput in frames per second (0 for zero-length runs).
    pub end_to_end_fps: f64,
    /// Per-stage latency summaries.
    pub stages: Vec<StageSection>,
}

/// Region-label population statistics (from `rpr-workloads`).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RegionSection {
    /// Average number of regions per regional frame.
    pub avg_regions: f64,
    /// Smallest region edge observed, `(w, h)`.
    pub min_size: (u32, u32),
    /// Largest region edge observed, `(w, h)`.
    pub max_size: (u32, u32),
    /// Smallest spatial stride observed.
    pub min_stride: u32,
    /// Largest spatial stride observed.
    pub max_stride: u32,
    /// Fastest sampling interval observed in ms (skip × frame time).
    pub min_rate_ms: f64,
    /// Slowest sampling interval observed in ms.
    pub max_rate_ms: f64,
    /// Regional frames observed.
    pub frames: u64,
}

/// DRAM-traffic and energy attribution for one region-label shape,
/// aggregated over the run from `encoder.label_px` trace counters.
///
/// Labels are keyed by `(label_id, stride, skip)`: the slot index in the
/// frame's region list plus the rhythmic parameters. Runs whose label
/// lists are stable frame-to-frame (all bundled workloads) therefore get
/// one row per logical region.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct LabelAttribution {
    /// Region-list slot index.
    pub label_id: u32,
    /// Spatial stride of the label.
    pub stride: u32,
    /// Temporal skip of the label.
    pub skip: u32,
    /// Frames on which this label captured at least one pixel.
    pub frames: u64,
    /// Total pixels captured (stored) for this label.
    pub pixels: u64,
    /// DRAM bytes attributed to this label (pixel write + read traffic).
    pub dram_bytes: u64,
    /// DRAM + interface energy attributed to this label, in pJ.
    pub energy_pj: f64,
}

/// Per-tenant traffic and service-quality accounting for a served run
/// (from `rpr-serve`). One row per tenant; a single-tenant or unserved
/// run simply leaves [`RunReport::tenants`] empty.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TenantSection {
    /// Tenant identifier (the string clients present at admission).
    pub tenant: String,
    /// Sessions the tenant attempted to open.
    pub sessions_offered: u64,
    /// Sessions admitted (≤ offered; the rest hit admission control).
    pub sessions_admitted: u64,
    /// Frames accepted off the wire for this tenant.
    pub frames_accepted: u64,
    /// Frames delivered end to end to the tenant's pipelines.
    pub frames_delivered: u64,
    /// Frames dropped (quota throttling plus drop-oldest eviction).
    pub frames_dropped: u64,
    /// Payload bytes ingested for this tenant.
    pub bytes_ingested: u64,
    /// Times the tenant hit its byte or frame token bucket.
    pub quota_throttles: u64,
    /// Times the tenant's queue raised degrade pressure.
    pub degrade_events: u64,
    /// `frames_delivered / frames_accepted` (1.0 when nothing was
    /// accepted) — the headline per-tenant service-quality number.
    pub delivered_fraction: f64,
}

/// Region-prediction quality for a moving-camera run (from
/// `rpr-predict` via the workloads tracking runner). Absent for runs
/// without prediction scoring.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PredictionSection {
    /// Mean best-IoU of the planned regions against the ground-truth
    /// object tracks, over scored regional frames — the headline
    /// prediction-quality number.
    pub mean_region_iou: f64,
    /// Regional frames that contributed to `mean_region_iou`.
    pub frames_scored: u64,
    /// Mean RANSAC inlier fraction of the per-frame ego-motion fits
    /// (0 when no fit ran).
    pub mean_inlier_fraction: f64,
    /// Total full-resolution-equivalent pixels the planned regions
    /// kept over scored frames — the high-resolution pixel budget the
    /// acceptance criterion compares at.
    pub hi_res_pixels: u64,
}

/// One tenant's service-level-objective outcome for a served run (from
/// the live telemetry plane in `rpr-trace`/`rpr-serve`). One row per
/// tenant that declared an SLO.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SloSection {
    /// Tenant the objective belongs to.
    pub tenant: String,
    /// Delivery-latency target in µs (slower deliveries are bad events).
    pub target_delivery_us: u64,
    /// Allowed fraction of bad events (late + dropped) per window.
    pub budget_fraction: f64,
    /// Sliding-window length in microseconds.
    pub window_micros: u64,
    /// Good events in the window at report time.
    pub good_events: u64,
    /// Bad events (late deliveries + drops) in the window at report time.
    pub bad_events: u64,
    /// Windowed burn rate: bad fraction ÷ budget (≥ 1.0 = violating).
    pub burn_rate: f64,
    /// Breach episodes observed over the run.
    pub breaches: u64,
    /// Flight-recorder dumps triggered for this tenant over the run.
    pub flight_dumps: u64,
}

/// One run of one workload, fully described: the unified document the
/// `rpr-report` CLI renders and projects onto gated metrics.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// Layout version ([`REPORT_SCHEMA_VERSION`] at write time).
    pub schema_version: u32,
    /// Workload name (`face`, `pose`, `slam`, ...).
    pub task: String,
    /// Dataset / scale description.
    pub dataset: String,
    /// Capture baseline (`rpr`, `full-capture`, ...).
    pub baseline: String,
    /// Frames processed end to end.
    pub frames: u64,
    /// Nominal sensor frame rate used for rate-derived metrics.
    pub fps: f64,
    /// Task-specific accuracy metrics (IoU, PCK, ATE, ... by name).
    pub accuracy: BTreeMap<String, f64>,
    /// Memory-traffic section.
    pub memory: MemorySection,
    /// Energy section.
    pub energy: EnergySection,
    /// Hardware-model section.
    pub hw: HwSection,
    /// Staged-executor streams (empty for single-threaded runs).
    pub streams: Vec<StreamSection>,
    /// Region statistics (absent when the run never produced regions).
    pub region_stats: Option<RegionSection>,
    /// Per-region-label DRAM/energy attribution (empty when tracing was
    /// off during the run).
    pub labels: Vec<LabelAttribution>,
    /// Traffic bytes not attributable to any label (masks, region
    /// tables, raw-baseline frames).
    pub unattributed_bytes: u64,
    /// Per-tenant serving accounting (empty for unserved runs).
    pub tenants: Vec<TenantSection>,
    /// Region-prediction quality (absent when the run scored none;
    /// reports written before this field existed parse as `None`).
    pub prediction: Option<PredictionSection>,
    /// Per-tenant SLO outcomes (absent for runs without declared SLOs;
    /// reports written before this field existed parse as `None`).
    pub slos: Option<Vec<SloSection>>,
}

impl RunReport {
    /// Renders the report as a human-readable text block.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let push = |out: &mut String, line: String| {
            out.push_str(&line);
            out.push('\n');
        };
        push(
            &mut out,
            format!(
                "RunReport v{} — task={} dataset={} baseline={}",
                self.schema_version, self.task, self.dataset, self.baseline
            ),
        );
        push(&mut out, format!("frames: {}  fps: {:.1}", self.frames, self.fps));
        if !self.accuracy.is_empty() {
            push(&mut out, "accuracy:".to_string());
            for (k, v) in &self.accuracy {
                push(&mut out, format!("  {k}: {v:.4}"));
            }
        }
        let m = &self.memory;
        push(&mut out, "memory:".to_string());
        push(
            &mut out,
            format!(
                "  write {} B  read {} B  metadata {} B  ({:.1} B/frame, {:.2} MB/s)",
                m.write_bytes, m.read_bytes, m.metadata_bytes, m.bytes_per_frame, m.throughput_mb_s
            ),
        );
        push(
            &mut out,
            format!(
                "  footprint mean {:.1} B  peak {} B  captured fraction {:.3}",
                m.mean_footprint_bytes, m.peak_footprint_bytes, m.mean_captured_fraction
            ),
        );
        let e = &self.energy;
        push(&mut out, "energy:".to_string());
        push(
            &mut out,
            format!(
                "  sensing {:.0} pJ  interface {:.0} pJ  dram {:.0} pJ  compute {:.0} pJ",
                e.sensing_pj, e.interface_pj, e.dram_pj, e.compute_pj
            ),
        );
        push(
            &mut out,
            format!(
                "  total {:.3} mJ  ({:.4} mJ/frame, {:.2} mW @ {:.0} fps)",
                e.total_mj, e.mj_per_frame, e.power_mw, self.fps
            ),
        );
        let h = &self.hw;
        push(
            &mut out,
            format!(
                "hw: encoder {:.2} mW  decoder {:.2} mW  cmp/px {:.2}  keep {:.3}",
                h.encoder_mw, h.decoder_mw, h.comparisons_per_pixel, h.keep_ratio
            ),
        );
        for s in &self.streams {
            push(
                &mut out,
                format!(
                    "stream {}: in {} out {} dropped {}  {:.1} fps over {:.2} s",
                    s.stream_id, s.frames_in, s.frames_out, s.frames_dropped, s.end_to_end_fps,
                    s.wall_time_s
                ),
            );
            for st in &s.stages {
                push(
                    &mut out,
                    format!(
                        "  stage {}: {} frames ({} degraded)  mean {:.0} µs  p50 {:.0}  p90 {:.0}  p99 {:.0}",
                        st.name, st.frames, st.degraded_frames, st.mean_latency_us, st.p50_us,
                        st.p90_us, st.p99_us
                    ),
                );
            }
        }
        if let Some(r) = &self.region_stats {
            push(
                &mut out,
                format!(
                    "regions: avg {:.2}/frame  size {}x{}..{}x{}  stride {}..{}  rate {:.1}..{:.1} ms over {} frames",
                    r.avg_regions, r.min_size.0, r.min_size.1, r.max_size.0, r.max_size.1,
                    r.min_stride, r.max_stride, r.min_rate_ms, r.max_rate_ms, r.frames
                ),
            );
        }
        if !self.labels.is_empty() {
            push(
                &mut out,
                "label attribution (label/stride/skip, frames, px, DRAM bytes, energy pJ):"
                    .to_string(),
            );
            for l in &self.labels {
                push(
                    &mut out,
                    format!(
                        "  L{} s{} k{}: {} frames  {} px  {} B  {:.0} pJ",
                        l.label_id, l.stride, l.skip, l.frames, l.pixels, l.dram_bytes, l.energy_pj
                    ),
                );
            }
            push(&mut out, format!("  unattributed: {} B", self.unattributed_bytes));
        }
        if !self.tenants.is_empty() {
            push(
                &mut out,
                "tenants (sessions adm/off, frames del/acc/drop, bytes, throttles):".to_string(),
            );
            for t in &self.tenants {
                push(
                    &mut out,
                    format!(
                        "  {}: {}/{} sessions  {}/{} frames ({} dropped)  {} B  {} throttles  {} degrades  delivered {:.3}",
                        t.tenant, t.sessions_admitted, t.sessions_offered, t.frames_delivered,
                        t.frames_accepted, t.frames_dropped, t.bytes_ingested, t.quota_throttles,
                        t.degrade_events, t.delivered_fraction
                    ),
                );
            }
        }
        if let Some(p) = &self.prediction {
            push(
                &mut out,
                format!(
                    "prediction: mean region IoU {:.4} over {} frames  inliers {:.3}  hi-res px {}",
                    p.mean_region_iou, p.frames_scored, p.mean_inlier_fraction, p.hi_res_pixels
                ),
            );
        }
        if let Some(slos) = &self.slos {
            if !slos.is_empty() {
                push(&mut out, "slos (target µs, budget, window µs, good/bad, burn):".to_string());
                for s in slos {
                    push(
                        &mut out,
                        format!(
                            "  {}: target {} µs  budget {:.4}  window {} µs  {}/{} events  burn {:.3}  breaches {}  dumps {}",
                            s.tenant, s.target_delivery_us, s.budget_fraction, s.window_micros,
                            s.good_events, s.bad_events, s.burn_rate, s.breaches, s.flight_dumps
                        ),
                    );
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> RunReport {
        let mut accuracy = BTreeMap::new();
        accuracy.insert("iou".to_string(), 0.8);
        RunReport {
            schema_version: REPORT_SCHEMA_VERSION,
            task: "face".into(),
            dataset: "quick-256x192".into(),
            baseline: "rpr".into(),
            frames: 46,
            fps: 30.0,
            accuracy,
            memory: MemorySection {
                write_bytes: 1000,
                read_bytes: 900,
                metadata_bytes: 64,
                bytes_per_frame: 41.3,
                throughput_mb_s: 1.2,
                mean_footprint_bytes: 20.0,
                peak_footprint_bytes: 64,
                mean_captured_fraction: 0.4,
            },
            energy: EnergySection { total_mj: 10.0, ..Default::default() },
            streams: vec![StreamSection {
                stream_id: 0,
                frames_out: 46,
                end_to_end_fps: 100.0,
                stages: vec![StageSection {
                    name: "task".into(),
                    frames: 46,
                    p90_us: 500.0,
                    ..Default::default()
                }],
                ..Default::default()
            }],
            labels: vec![LabelAttribution {
                label_id: 0,
                stride: 2,
                skip: 1,
                frames: 46,
                pixels: 400,
                dram_bytes: 2400,
                energy_pj: 1680.0,
            }],
            ..Default::default()
        }
    }

    #[test]
    fn report_roundtrips_through_json() {
        let report = sample_report();
        let json = serde_json::to_string_pretty(&report).unwrap();
        let back: RunReport = serde_json::from_str(&json).unwrap();
        assert_eq!(report, back);
        assert!(json.contains("\"schema_version\": 1"));
    }

    #[test]
    fn render_text_mentions_key_sections() {
        let text = sample_report().render_text();
        assert!(text.contains("RunReport v1"));
        assert!(text.contains("memory:"));
        assert!(text.contains("energy:"));
        assert!(text.contains("label attribution"));
        assert!(text.contains("L0 s2 k1"));
    }

    fn tenant(name: &str, accepted: u64, delivered: u64) -> TenantSection {
        TenantSection {
            tenant: name.to_string(),
            sessions_offered: 8,
            sessions_admitted: 8,
            frames_accepted: accepted,
            frames_delivered: delivered,
            frames_dropped: accepted - delivered,
            bytes_ingested: accepted * 100,
            delivered_fraction: if accepted == 0 {
                1.0
            } else {
                delivered as f64 / accepted as f64
            },
            ..Default::default()
        }
    }

    #[test]
    fn tenant_sections_render_and_roundtrip() {
        let mut report = sample_report();
        report.tenants = vec![tenant("acme", 100, 100), tenant("globex", 100, 60)];
        let text = report.render_text();
        assert!(text.contains("tenants ("), "{text}");
        assert!(text.contains("globex: 8/8 sessions  60/100 frames"), "{text}");
        let back: RunReport =
            serde_json::from_str(&serde_json::to_string(&report).unwrap()).unwrap();
        assert_eq!(report, back);
    }

    #[test]
    fn prediction_section_roundtrips_and_old_reports_still_parse() {
        let mut report = sample_report();
        report.prediction = Some(PredictionSection {
            mean_region_iou: 0.62,
            frames_scored: 40,
            mean_inlier_fraction: 0.85,
            hi_res_pixels: 120_000,
        });
        let json = serde_json::to_string(&report).unwrap();
        let back: RunReport = serde_json::from_str(&json).unwrap();
        assert_eq!(report, back);
        assert!(report.render_text().contains("prediction: mean region IoU 0.6200"));

        // A pre-prediction report (no `prediction` key) still parses
        // with the section absent.
        let old = serde_json::to_string(&sample_report())
            .unwrap()
            .replace("\"prediction\":null", "\"unknown_future_field\":null");
        assert!(!old.contains("\"prediction\""), "{old}");
        let parsed: RunReport = serde_json::from_str(&old).unwrap();
        assert_eq!(parsed.prediction, None);
    }

    fn slo_row(tenant: &str, burn: f64, breaches: u64) -> SloSection {
        SloSection {
            tenant: tenant.to_string(),
            target_delivery_us: 5_000,
            budget_fraction: 0.01,
            window_micros: 1_000_000,
            good_events: 990,
            bad_events: 10,
            burn_rate: burn,
            breaches,
            flight_dumps: breaches.min(1),
        }
    }

    #[test]
    fn slo_section_roundtrips_and_old_reports_still_parse() {
        let mut report = sample_report();
        report.slos = Some(vec![slo_row("acme", 0.5, 0)]);
        let json = serde_json::to_string(&report).unwrap();
        let back: RunReport = serde_json::from_str(&json).unwrap();
        assert_eq!(report, back);
        let text = report.render_text();
        assert!(text.contains("slos ("), "{text}");
        assert!(text.contains("acme: target 5000 µs"), "{text}");

        // A pre-SLO report (no `slos` key) still parses with the
        // section absent.
        let old = serde_json::to_string(&sample_report())
            .unwrap()
            .replace("\"slos\":null", "\"unknown_future_field\":null");
        assert!(!old.contains("\"slos\""), "{old}");
        let parsed: RunReport = serde_json::from_str(&old).unwrap();
        assert_eq!(parsed.slos, None);
    }
}
