//! Motion-compensated prediction on a panning multi-camera rig.
//!
//! A three-camera driving-style sweep pans over one shared world at
//! 7 px/frame — fast enough that a reactive t−1 region policy trails
//! every tracked object by a full motion step. Each rig runs twice,
//! once under the reactive `CycleFeature` policy and once under
//! `CyclePredictive` (ego-motion fit + forward projection), and the
//! example prints the per-rig delta: mean region IoU against ground-truth
//! tracks and the high-resolution pixel budget.
//!
//! Run with: `cargo run --release --example moving_camera`

use rhythmic_pixel_regions::workloads::datasets::VideoDataset;
use rhythmic_pixel_regions::workloads::{
    run_tracking, MovingCameraDataset, PolicyKind, TrackingConfig,
};

/// Percentage change from `base` to `new` (0 for a zero baseline).
fn pct(base: f64, new: f64) -> f64 {
    if base == 0.0 {
        0.0
    } else {
        (new - base) / base * 100.0
    }
}

fn main() {
    let rigs = MovingCameraDataset::driving_sweep(3, 192, 144, 36, 7.0, 11);
    let reactive_cfg = TrackingConfig::default();
    let predictive_cfg =
        TrackingConfig { policy_kind: PolicyKind::CyclePredictive, ..TrackingConfig::default() };

    println!("driving sweep: {} rigs, 7 px/frame pan, cycle 4\n", rigs.len());
    for rig in &rigs {
        let reactive = run_tracking(rig, &reactive_cfg);
        let predictive = run_tracking(rig, &predictive_cfg);

        println!("{}:", rig.name());
        println!(
            "  reactive   IoU {:.4}  hi-res px {:>7}",
            reactive.mean_region_iou, reactive.hi_res_pixels
        );
        println!(
            "  predictive IoU {:.4}  hi-res px {:>7}  (ego inliers {:.2})",
            predictive.mean_region_iou,
            predictive.hi_res_pixels,
            predictive.mean_inlier_fraction
        );

        // The per-rig delta, reactive as the baseline.
        println!(
            "  delta IoU {:+.1}%  hi-res px {:+.1}%",
            pct(reactive.mean_region_iou, predictive.mean_region_iou),
            pct(reactive.hi_res_pixels as f64, predictive.hi_res_pixels as f64)
        );
        println!();
    }
}
