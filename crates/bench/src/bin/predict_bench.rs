//! Predictive-vs-reactive region tracking on the seeded moving-camera
//! pan (§3.4): mean planned-region IoU against ground-truth object
//! tracks at the high-resolution pixel budget, plus prediction
//! throughput (motion vectors per second and per-frame prediction
//! latency).
//!
//! Usage:
//!
//! ```text
//! predict_bench [--frames N] [--out FILE]
//! ```
//!
//! With `--out`, writes a `BenchRecord` of the headline numbers — that
//! is how `BENCH_predict.json` at the repo root is produced, and what
//! CI gates against `ci/baseline_predict.json` with `rpr-report gate`.
//! The committed baseline pins the deterministic IoU, budget and DRAM
//! numbers, not the machine-dependent throughput (`vectors_per_s`,
//! higher is better; `prediction_latency_us`, lower is better).
//!
//! The binary is additionally self-gating: it exits non-zero unless
//! the predictive policy achieves strictly higher mean region IoU than
//! the reactive policy at an equal-or-lower high-resolution pixel
//! budget on the seeded panning scenario.

use rpr_bench::record::{report_metrics, BenchRecord, Metric, MODEL_BOUND, TIMING_BOUND};
use rpr_bench::report::memory_section;
use rpr_bench::{print_table, Scale};
use rpr_core::RegionLabel;
use rpr_predict::{estimate_ego_motion, predict_labels, EgoEstimatorConfig, TrackerConfig};
use rpr_trace::RunReport;
use rpr_vision::estimate_block_motion;
use rpr_workloads::datasets::VideoDataset;
use rpr_workloads::{run_tracking, MovingCameraDataset, PolicyKind, TrackingConfig};
use std::time::Instant;

/// The seeded panning scenario the acceptance gate runs on: a
/// 7 px/frame pan against a 4 px detection margin, so a reactive t−1
/// policy visibly trails the scene on every regional frame.
const WIDTH: u32 = 192;
const HEIGHT: u32 = 144;
const PAN_SPEED: f64 = 7.0;
const SEED: u64 = 11;

/// Bound on the IoU-derived metrics: deterministic, but gated with
/// 20 % slack so a tracker retune that trades a little IoU is not a
/// regression.
const IOU_BOUND: f64 = 0.20;

struct Args {
    frames: usize,
    out: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args { frames: Scale::from_env().frames, out: None };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                std::process::exit(2);
            })
        };
        match flag.as_str() {
            "--frames" => {
                args.frames = value("--frames").parse().unwrap_or_else(|_| {
                    eprintln!("--frames must be a positive integer");
                    std::process::exit(2);
                });
            }
            "--out" => args.out = Some(value("--out")),
            "--help" | "-h" => {
                println!("predict_bench [--frames N] [--out FILE]");
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown flag {other:?}");
                std::process::exit(2);
            }
        }
    }
    args
}

/// Times the full prediction hot path over consecutive frame pairs —
/// block matching, ego fit, and label projection — and returns
/// (vectors per second, mean prediction latency in µs), where the
/// latency covers only the prediction stages (fit + projection), not
/// the block matcher feeding them.
fn measure_throughput(ds: &MovingCameraDataset) -> (f64, f64) {
    let ego_cfg = EgoEstimatorConfig::default();
    let tracker_cfg = TrackerConfig::default();
    let mut vectors_total = 0u64;
    let mut match_secs = 0.0;
    let mut predict_secs = 0.0;
    let mut pairs = 0u64;
    for idx in 1..ds.len() {
        let prev = ds.frame(idx - 1);
        let cur = ds.frame(idx);
        let t0 = Instant::now();
        let vectors = estimate_block_motion(&prev, &cur, 16, 8);
        match_secs += t0.elapsed().as_secs_f64();
        vectors_total += vectors.len() as u64;

        let labels: Vec<RegionLabel> = ds
            .gt_object_tracks(idx - 1)
            .iter()
            .map(|r| RegionLabel::from_rect(*r, 1, 1))
            .collect();
        let t1 = Instant::now();
        let ego = estimate_ego_motion(&vectors, &ego_cfg);
        let predicted = predict_labels(&labels, &vectors, &ego, WIDTH, HEIGHT, &tracker_cfg);
        predict_secs += t1.elapsed().as_secs_f64();
        std::hint::black_box(predicted.len());
        pairs += 1;
    }
    let vectors_per_s = if match_secs + predict_secs > 0.0 {
        vectors_total as f64 / (match_secs + predict_secs)
    } else {
        0.0
    };
    let latency_us = if pairs == 0 { 0.0 } else { predict_secs / pairs as f64 * 1e6 };
    (vectors_per_s, latency_us)
}

fn main() {
    let args = parse_args();
    let ds = MovingCameraDataset::panning(WIDTH, HEIGHT, args.frames, PAN_SPEED, SEED);

    let reactive = run_tracking(&ds, &TrackingConfig::default());
    let predictive = run_tracking(
        &ds,
        &TrackingConfig { policy_kind: PolicyKind::CyclePredictive, ..TrackingConfig::default() },
    );
    let (vectors_per_s, latency_us) = measure_throughput(&ds);

    let rows = vec![
        vec![
            "reactive (CycleFeature)".to_string(),
            format!("{:.4}", reactive.mean_region_iou),
            format!("{}", reactive.hi_res_pixels),
            "-".to_string(),
        ],
        vec![
            "predictive (CyclePredictive)".to_string(),
            format!("{:.4}", predictive.mean_region_iou),
            format!("{}", predictive.hi_res_pixels),
            format!("{:.3}", predictive.mean_inlier_fraction),
        ],
    ];
    print_table(
        &format!("Moving-camera tracking ({}, {} frames)", ds.name(), args.frames),
        &["policy", "mean region IoU", "hi-res px", "inlier frac"],
        &rows,
    );
    println!(
        "prediction throughput: {:.0} vectors/s, {:.1} us/frame fit+project",
        vectors_per_s, latency_us
    );

    // DRAM traffic is projected exactly as for every RunReport.
    let memory = memory_section(&predictive.measurements);
    let mut metrics = report_metrics(&RunReport { memory, ..RunReport::default() });
    let (p, r) = (&predictive, &reactive);
    metrics.extend([
        Metric::higher("predictive_mean_iou", p.mean_region_iou, "IoU", IOU_BOUND),
        Metric::higher("reactive_mean_iou", r.mean_region_iou, "IoU", IOU_BOUND),
        Metric::higher("iou_gain", p.mean_region_iou - r.mean_region_iou, "IoU", IOU_BOUND),
        // Reactive over predictive hi-res pixels: >= 1 means prediction
        // pays for itself.
        Metric::higher(
            "budget_headroom",
            r.hi_res_pixels as f64 / p.hi_res_pixels.max(1) as f64,
            "ratio",
            IOU_BOUND,
        ),
        Metric::higher("inlier_fraction", p.mean_inlier_fraction, "fraction", IOU_BOUND),
        Metric::higher("prediction.mean_region_iou", p.mean_region_iou, "IoU", IOU_BOUND),
        Metric::lower("prediction.hi_res_pixels", p.hi_res_pixels as f64, "px", MODEL_BOUND),
        Metric::higher("vectors_per_s", vectors_per_s, "1/s", TIMING_BOUND),
        Metric::lower("prediction_latency_us", latency_us, "us", TIMING_BOUND),
    ]);
    BenchRecord::new(format!("predict_bench ({}, {} frames)", ds.name(), args.frames), metrics)
        .emit(args.out.as_deref());

    // The acceptance gate: prediction must buy accuracy, not budget.
    if predictive.mean_region_iou <= reactive.mean_region_iou {
        eprintln!(
            "FAIL: predictive IoU {:.4} does not beat reactive {:.4}",
            predictive.mean_region_iou, reactive.mean_region_iou
        );
        std::process::exit(1);
    }
    if predictive.hi_res_pixels > reactive.hi_res_pixels {
        eprintln!(
            "FAIL: predictive budget {} px exceeds reactive {} px",
            predictive.hi_res_pixels, reactive.hi_res_pixels
        );
        std::process::exit(1);
    }
    eprintln!(
        "predict gate: IoU {:.4} > {:.4} at {} <= {} hi-res px",
        predictive.mean_region_iou,
        reactive.mean_region_iou,
        predictive.hi_res_pixels,
        reactive.hi_res_pixels
    );
}
