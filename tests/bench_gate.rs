//! The bench regression gate (`rpr_bench::record`): its rules, the
//! `RunReport` projection, and the committed records. Every
//! `BENCH_*.json` and `ci/baseline_*.json` must parse as a
//! `BenchRecord`, every CI baseline must be one the gate can trip on
//! each of its metrics, and the recorded stream throughput must add
//! back up to the frames delivered.

use rhythmic_pixel_regions::trace::{
    MemorySection, PredictionSection, RunReport, SloSection, TenantSection,
};
use rpr_bench::record::{gate, report_metrics, self_check, BenchRecord, Better, Metric, MODEL_BOUND};
use std::path::{Path, PathBuf};

/// A report exercising every projected section: 4 memory, 1 energy,
/// 2 accuracy, 1 tenant, 2 prediction and 2 SLO metrics.
fn full_report() -> RunReport {
    let mut r = RunReport {
        task: "pose".into(),
        memory: MemorySection {
            write_bytes: 1000,
            read_bytes: 900,
            bytes_per_frame: 41.3,
            ..Default::default()
        },
        tenants: vec![TenantSection {
            tenant: "acme".into(),
            delivered_fraction: 1.0,
            ..Default::default()
        }],
        prediction: Some(PredictionSection {
            mean_region_iou: 0.6,
            hi_res_pixels: 100_000,
            ..Default::default()
        }),
        slos: Some(vec![SloSection {
            tenant: "acme".into(),
            burn_rate: 0.5,
            breaches: 0,
            ..Default::default()
        }]),
        ..Default::default()
    };
    r.energy.total_mj = 10.0;
    r.accuracy.insert("map".into(), 0.8);
    r.accuracy.insert("ate_mm".into(), 12.0);
    r
}

const FULL_METRICS: usize = 12;

fn record(metrics: Vec<Metric>) -> BenchRecord {
    BenchRecord::new("test", metrics)
}

/// Names of the baseline metrics `new` fails, in baseline order.
fn failed(base: &BenchRecord, new: &BenchRecord) -> Vec<String> {
    gate(base, new).into_iter().filter(|c| c.failed).map(|c| c.base.name.clone()).collect()
}

#[test]
fn at_the_bound_passes_and_just_past_it_fails_in_both_directions() {
    for better in [Better::Higher, Better::Lower] {
        let m = Metric { better, ..Metric::higher("x", 100.0, "B", 0.05) };
        let base = record(vec![m.clone()]);
        let limit = m.limit();
        let worse = if better == Better::Higher { -1.0 } else { 1.0 };
        assert_eq!(limit, 100.0 + worse * 5.0);
        let at = |v: f64| record(vec![Metric { value: v, ..m.clone() }]);
        assert!(failed(&base, &at(limit)).is_empty(), "{better:?} at the bound must pass");
        assert_eq!(failed(&base, &at(limit + worse * 1e-9)), ["x"], "{better:?} just past");
        assert!(failed(&base, &at(100.0 - worse * 1e9)).is_empty(), "{better:?} improvement");
    }
}

#[test]
fn zero_baselines_trip_on_any_worsening() {
    let base = record(vec![
        Metric::lower("slo.acme.breaches", 0.0, "count", 0.05),
        Metric::higher("gain", 0.0, "score", 0.05),
    ]);
    assert!(failed(&base, &base).is_empty());
    let mut worse = base.clone();
    worse.metrics[0].value = 1.0;
    worse.metrics[1].value = -1e-12;
    assert_eq!(failed(&base, &worse), ["slo.acme.breaches", "gain"]);
    let mut better = base.clone();
    better.metrics[1].value = 1.0;
    assert!(failed(&base, &better).is_empty());
}

#[test]
fn metrics_only_in_the_candidate_are_not_gated() {
    let base = BenchRecord::from_report(full_report());
    let mut report = full_report();
    report.tenants.push(TenantSection { tenant: "newcomer".into(), ..Default::default() });
    report.slos.as_mut().unwrap().push(SloSection {
        tenant: "newcomer".into(),
        burn_rate: 9.0,
        breaches: 4,
        ..Default::default()
    });
    let new = BenchRecord::from_report(report);
    assert!(new.get("slo.newcomer.breaches").is_some());
    assert!(new.get("tenant.newcomer.delivered_fraction").is_some());
    assert!(failed(&base, &new).is_empty());
}

#[test]
fn dropping_any_baseline_metric_fails_the_gate() {
    let base = BenchRecord::from_report(full_report());
    assert_eq!(base.metrics.len(), FULL_METRICS);
    for m in &base.metrics {
        let mut new = base.clone();
        new.metrics.retain(|o| o.name != m.name);
        assert_eq!(failed(&base, &new), std::slice::from_ref(&m.name), "dropping {}", m.name);
        assert!(gate(&base, &new).iter().any(|c| c.base.name == m.name && c.new.is_none()));
    }
}

#[test]
fn a_nan_metric_fails_the_gate_even_after_a_json_round_trip() {
    let base = BenchRecord::from_report(full_report());
    for i in 0..base.metrics.len() {
        let mut new = base.clone();
        new.metrics[i].value = f64::NAN;
        let back: BenchRecord =
            serde_json::from_str(&serde_json::to_string(&new).unwrap()).unwrap();
        assert_eq!(failed(&base, &back), std::slice::from_ref(&base.metrics[i].name));
    }
}

#[test]
fn self_check_trips_every_metric_and_rejects_bad_baselines() {
    let base = BenchRecord::from_report(full_report());
    assert_eq!(self_check(&base, &base), Ok(FULL_METRICS));
    // A failing candidate still lets each perturbation show up.
    let mut new = base.clone();
    new.metrics.remove(0);
    assert_eq!(self_check(&base, &new), Ok(FULL_METRICS));
    let mut dup = base.clone();
    dup.metrics.push(base.metrics[0].clone());
    assert!(self_check(&dup, &base).unwrap_err().contains("duplicate"));
    let mut nan = base.clone();
    nan.metrics[0].value = f64::NAN;
    assert!(self_check(&nan, &base).is_err());
    let mut unbounded = base.clone();
    unbounded.metrics[0].bound = f64::INFINITY;
    assert!(self_check(&unbounded, &base).is_err());
}

#[test]
fn projection_keeps_the_gated_directions() {
    let base = BenchRecord::from_report(full_report());
    let better = |name: &str| base.get(name).unwrap_or_else(|| panic!("{name}")).better;
    for name in [
        "memory.total_bytes",
        "memory.write_bytes",
        "memory.read_bytes",
        "memory.bytes_per_frame",
        "energy.total_mj",
        "accuracy.ate_mm",
        "prediction.hi_res_pixels",
        "slo.acme.burn_rate",
        "slo.acme.breaches",
    ] {
        assert_eq!(better(name), Better::Lower, "{name}");
    }
    for name in ["accuracy.map", "tenant.acme.delivered_fraction", "prediction.mean_region_iou"] {
        assert_eq!(better(name), Better::Higher, "{name}");
    }
    assert_eq!(base.get("memory.total_bytes").unwrap().value, 1900.0);
    assert!(base.metrics.iter().all(|m| m.bound == MODEL_BOUND));
    // Sections without a DRAM or energy model are omitted, not zero.
    let bare = report_metrics(&RunReport::default());
    assert!(bare.is_empty(), "{bare:?}");
}

#[test]
fn records_round_trip_with_lowercase_directions() {
    let rec = BenchRecord::from_report(full_report());
    let json = serde_json::to_string_pretty(&rec).unwrap();
    assert!(json.contains("\"better\": \"lower\""), "{json}");
    assert!(json.contains("\"better\": \"higher\""), "{json}");
    let back: BenchRecord = serde_json::from_str(&json).unwrap();
    assert_eq!(back, rec);
    let bad = json.replace("\"lower\"", "\"Lower\"");
    assert!(serde_json::from_str::<BenchRecord>(&bad).is_err());
}

fn repo() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// `dir/<prefix>*.json`, sorted.
fn json_files(dir: &Path, prefix: &str) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|entry| entry.expect("directory entry").path())
        .filter(|p| {
            let name = p.file_name().and_then(|n| n.to_str()).unwrap_or_default();
            name.starts_with(prefix) && name.ends_with(".json")
        })
        .collect();
    files.sort();
    files
}

fn read(path: &Path) -> BenchRecord {
    BenchRecord::read(path.to_str().expect("utf-8 path")).unwrap_or_else(|e| panic!("{e}"))
}

#[test]
fn every_committed_bench_file_and_baseline_is_a_bench_record() {
    let bench = json_files(&repo(), "BENCH_");
    let baselines = json_files(&repo().join("ci"), "baseline_");
    assert_eq!(bench.len(), 5, "{bench:?}");
    assert_eq!(baselines.len(), 5, "{baselines:?}");
    for path in bench.iter().chain(&baselines) {
        let record = read(path);
        assert!(!record.metrics.is_empty(), "{}: no metrics", path.display());
        assert!(record.host_cores >= 1, "{}", path.display());
    }
}

#[test]
fn every_committed_baseline_passes_itself_and_trips_on_each_metric() {
    for path in json_files(&repo().join("ci"), "baseline_") {
        let base = read(&path);
        let failures = failed(&base, &base);
        assert!(failures.is_empty(), "{}: {failures:?}", path.display());
        assert_eq!(self_check(&base, &base), Ok(base.metrics.len()), "{}", path.display());
    }
}

#[test]
fn recorded_stream_throughput_times_staged_wall_time_is_the_frames_delivered() {
    let record = read(&repo().join("BENCH_stream.json"));
    let value = |name: &str| record.get(name).unwrap_or_else(|| panic!("missing {name}")).value;
    let mut runs = 0;
    for m in record.metrics.iter().filter(|m| m.name.ends_with(".frames_per_s")) {
        let prefix = m.name.trim_end_matches("frames_per_s");
        let staged_s = value(&format!("{prefix}staged_s"));
        let delivered = value(&format!("{prefix}frames_out"));
        assert!(delivered > 0.0, "{prefix}: no frames delivered");
        assert!(
            (m.value * staged_s - delivered).abs() <= 1e-9 * delivered,
            "{}: {} frames/s x {staged_s} s != {delivered} frames",
            m.name,
            m.value
        );
        runs += 1;
    }
    assert_eq!(runs, 4, "the 1/2/4/8-stream sweep");
}
