//! One bench record and one regression gate.
//!
//! Every bench producer (`rpr-report run`, `kernel_bench`,
//! `predict_bench`, `load_gen`, `stream_scaling`, `wire_bench`) writes a
//! [`BenchRecord`]: a flat list of named [`Metric`]s, each carrying its
//! unit, the direction in which it improves, and the relative bound a
//! regression gate allows. [`gate`] judges a candidate record against a
//! committed baseline using the *baseline's* bounds; [`self_check`]
//! proves in process that the gate trips on every gated metric.
//!
//! Gate rules, per baseline metric:
//!
//! * missing from the candidate, or non-finite there → fail;
//! * worse than `value ∓ bound × |value|` → fail (so a zero baseline
//!   trips on any worsening);
//! * exactly at the limit, or better → pass.
//!
//! Metrics only the candidate carries are not gated.

use rpr_trace::RunReport;
use serde::{DeError, Deserialize, Serialize, Value};

/// Bound for modelled, deterministic quantities: DRAM bytes, energy,
/// task accuracy, delivery and SLO outcomes (5 %).
pub const MODEL_BOUND: f64 = 0.05;

/// Bound for wall-clock measurements and the ratios derived from them
/// (20 %).
pub const TIMING_BOUND: f64 = 0.20;

/// The direction in which a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better (throughput, accuracy, speedup).
    Higher,
    /// Smaller values are better (bytes, energy, latency, breaches).
    Lower,
}

impl Better {
    /// The JSON spelling, shared with `BENCHMARK.json`.
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

impl Serialize for Better {
    fn to_value(&self) -> Value {
        Value::Str(self.label().to_string())
    }
}

impl Deserialize for Better {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v.as_str() {
            Some("higher") => Ok(Better::Higher),
            Some("lower") => Ok(Better::Lower),
            _ => Err(DeError::custom("`better` must be \"higher\" or \"lower\"")),
        }
    }
}

/// One named measurement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Metric {
    /// Dotted metric name, unique within its record.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit of `value` (`B`, `mJ`, `1/s`, `ratio`, ...).
    pub unit: String,
    /// Direction in which the metric improves.
    pub better: Better,
    /// Largest relative worsening a gate allows against this value
    /// when the record serves as a baseline (0.05 = 5 %).
    pub bound: f64,
}

impl Metric {
    /// A metric where larger is better.
    pub fn higher(name: impl Into<String>, value: f64, unit: &str, bound: f64) -> Metric {
        Metric { name: name.into(), value, unit: unit.to_string(), better: Better::Higher, bound }
    }

    /// A metric where smaller is better.
    pub fn lower(name: impl Into<String>, value: f64, unit: &str, bound: f64) -> Metric {
        Metric { name: name.into(), value, unit: unit.to_string(), better: Better::Lower, bound }
    }

    /// The worst candidate value that still passes against this
    /// baseline metric.
    pub fn limit(&self) -> f64 {
        let slack = self.bound * self.value.abs();
        match self.better {
            Better::Higher => self.value - slack,
            Better::Lower => self.value + slack,
        }
    }

    /// Whether candidate value `v` fails against this baseline metric:
    /// non-finite, or worse than [`Metric::limit`].
    pub fn fails(&self, v: f64) -> bool {
        !v.is_finite()
            || match self.better {
                Better::Higher => v < self.limit(),
                Better::Lower => v > self.limit(),
            }
    }

    /// A value just past [`Metric::limit`] in the worse direction.
    fn just_past(&self) -> f64 {
        let limit = self.limit();
        let step = limit.abs().max(self.value.abs()).max(1.0) * 1e-9;
        match self.better {
            Better::Higher => limit - step,
            Better::Lower => limit + step,
        }
    }
}

/// The one file shape every bench producer writes and the gate reads.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchRecord {
    /// What was run, with its parameters.
    pub bench: String,
    /// Cores available to the producing process.
    pub host_cores: usize,
    /// Every measured metric.
    pub metrics: Vec<Metric>,
    /// The full run report the metrics were projected from, for
    /// producers that have one (`rpr-report run`,
    /// `load_gen smoke|telemetry|breach`).
    pub report: Option<RunReport>,
}

impl BenchRecord {
    /// A record of `metrics` measured on this host.
    pub fn new(bench: impl Into<String>, metrics: Vec<Metric>) -> BenchRecord {
        BenchRecord {
            bench: bench.into(),
            host_cores: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
            metrics,
            report: None,
        }
    }

    /// A record of `report`'s gated metrics ([`report_metrics`]), with
    /// the report embedded so one file renders and gates.
    pub fn from_report(report: RunReport) -> BenchRecord {
        let mut record = BenchRecord::new(report.task.clone(), report_metrics(&report));
        record.report = Some(report);
        record
    }

    /// The metric named `name`.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// Reads a record from a JSON file.
    ///
    /// # Errors
    ///
    /// Returns a message naming `path` when it cannot be read or is not
    /// a `BenchRecord`.
    pub fn read(path: &str) -> Result<BenchRecord, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        serde_json::from_str(&text).map_err(|e| format!("{path}: invalid BenchRecord: {e}"))
    }

    /// Checks that this record can serve as a gate baseline: unique
    /// names, finite values, finite non-negative bounds.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first offending metric.
    pub fn validate_baseline(&self) -> Result<(), String> {
        for (i, m) in self.metrics.iter().enumerate() {
            if self.metrics[..i].iter().any(|o| o.name == m.name) {
                return Err(format!("duplicate metric {}", m.name));
            }
            if !m.value.is_finite() {
                return Err(format!("{}: non-finite baseline value", m.name));
            }
            if !(m.bound.is_finite() && m.bound >= 0.0) {
                return Err(format!("{}: bound must be finite and >= 0", m.name));
            }
        }
        Ok(())
    }

    /// Writes the record as pretty JSON to `path` (stdout when `None`);
    /// exits the process with status 2 when the file cannot be written.
    pub fn emit(&self, path: Option<&str>) {
        let text = serde_json::to_string_pretty(self).expect("record serializes") + "\n";
        match path {
            Some(path) => {
                if let Err(e) = std::fs::write(path, text) {
                    eprintln!("cannot write {path}: {e}");
                    std::process::exit(2);
                }
                println!("wrote {path}");
            }
            None => print!("{text}"),
        }
    }

    /// Renders the metrics as a text table.
    pub fn render_text(&self) -> String {
        let mut out = format!("{} ({} host cores)\n", self.bench, self.host_cores);
        for m in &self.metrics {
            out.push_str(&format!(
                "  {:<44} {:>16.4} {:<9} {} is better, bound {}%\n",
                m.name,
                m.value,
                m.unit,
                m.better.label(),
                m.bound * 100.0
            ));
        }
        out
    }
}

/// One baseline metric's verdict.
#[derive(Debug)]
pub struct Check<'a> {
    /// The baseline metric (value, direction and bound).
    pub base: &'a Metric,
    /// The candidate's value, `None` when the candidate lacks it.
    pub new: Option<f64>,
    /// Whether the candidate fails this metric.
    pub failed: bool,
}

/// Judges `new` against every metric of `base`, in baseline order.
pub fn gate<'a>(base: &'a BenchRecord, new: &BenchRecord) -> Vec<Check<'a>> {
    base.metrics
        .iter()
        .map(|m| {
            let new = new.get(&m.name).map(|n| n.value);
            Check { base: m, new, failed: new.is_none_or(|v| m.fails(v)) }
        })
        .collect()
}

fn failed_names(base: &BenchRecord, new: &BenchRecord) -> Vec<String> {
    gate(base, new).into_iter().filter(|c| c.failed).map(|c| c.base.name.clone()).collect()
}

/// Proves the gate has teeth: for every baseline metric, moves the
/// candidate's value just past the bound in the worse direction and
/// checks that exactly that metric joins the candidate's own failures.
/// Returns the number of metrics checked.
///
/// # Errors
///
/// Returns a message when `base` is not a valid baseline or a
/// perturbation does not flag exactly the perturbed metric.
pub fn self_check(base: &BenchRecord, new: &BenchRecord) -> Result<usize, String> {
    base.validate_baseline()?;
    let already = failed_names(base, new);
    for m in &base.metrics {
        let past = m.just_past();
        let mut perturbed = new.clone();
        match perturbed.metrics.iter_mut().find(|x| x.name == m.name) {
            Some(x) => x.value = past,
            None => perturbed.metrics.push(Metric { value: past, ..m.clone() }),
        }
        let want: Vec<String> = base
            .metrics
            .iter()
            .filter(|o| o.name == m.name || already.contains(&o.name))
            .map(|o| o.name.clone())
            .collect();
        let got = failed_names(base, &perturbed);
        if got != want {
            return Err(format!(
                "moving {} to {past} flagged {got:?}, expected {want:?}",
                m.name
            ));
        }
    }
    Ok(base.metrics.len())
}

/// One accuracy-map entry as a gated metric. SLAM error and failure
/// counts improve downward; every other accuracy entry improves upward.
fn accuracy_metric(name: &str, value: f64) -> Metric {
    let name_out = format!("accuracy.{name}");
    match name {
        "ate_mm" | "rpe_translational_mm" => Metric::lower(name_out, value, "mm", MODEL_BOUND),
        "rpe_rotational_deg" => Metric::lower(name_out, value, "deg", MODEL_BOUND),
        "tracking_failures" => Metric::lower(name_out, value, "count", MODEL_BOUND),
        "frames_delivered" | "sessions_admitted" => {
            Metric::higher(name_out, value, "count", MODEL_BOUND)
        }
        "delivered_fraction" => Metric::higher(name_out, value, "fraction", MODEL_BOUND),
        _ => Metric::higher(name_out, value, "score", MODEL_BOUND),
    }
}

/// Projects a [`RunReport`] onto its gated metrics: DRAM traffic and
/// energy (when the run has a DRAM model), the accuracy map, per-tenant
/// delivered fraction, prediction IoU and hi-res budget, and per-tenant
/// SLO burn rate and breaches — all at [`MODEL_BOUND`]. Wall-clock
/// stream latency is not projected: it is host-dependent and stays in
/// the embedded report.
pub fn report_metrics(r: &RunReport) -> Vec<Metric> {
    let mut out = Vec::new();
    let mem = &r.memory;
    if mem.write_bytes + mem.read_bytes > 0 {
        let total = (mem.write_bytes + mem.read_bytes) as f64;
        out.push(Metric::lower("memory.total_bytes", total, "B", MODEL_BOUND));
        out.push(Metric::lower("memory.write_bytes", mem.write_bytes as f64, "B", MODEL_BOUND));
        out.push(Metric::lower("memory.read_bytes", mem.read_bytes as f64, "B", MODEL_BOUND));
        out.push(Metric::lower("memory.bytes_per_frame", mem.bytes_per_frame, "B", MODEL_BOUND));
    }
    if r.energy.total_mj > 0.0 {
        out.push(Metric::lower("energy.total_mj", r.energy.total_mj, "mJ", MODEL_BOUND));
    }
    out.extend(r.accuracy.iter().map(|(k, v)| accuracy_metric(k, *v)));
    for t in &r.tenants {
        let name = format!("tenant.{}.delivered_fraction", t.tenant);
        out.push(Metric::higher(name, t.delivered_fraction, "fraction", MODEL_BOUND));
    }
    if let Some(p) = &r.prediction {
        let (iou, px) = (p.mean_region_iou, p.hi_res_pixels as f64);
        out.push(Metric::higher("prediction.mean_region_iou", iou, "IoU", MODEL_BOUND));
        out.push(Metric::lower("prediction.hi_res_pixels", px, "px", MODEL_BOUND));
    }
    for s in r.slos.iter().flatten() {
        let name = |m: &str| format!("slo.{}.{m}", s.tenant);
        out.push(Metric::lower(name("burn_rate"), s.burn_rate, "ratio", MODEL_BOUND));
        out.push(Metric::lower(name("breaches"), s.breaches as f64, "count", MODEL_BOUND));
    }
    out
}
