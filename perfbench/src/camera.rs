//! The `pose` and `slam-predict` workloads: one camera stream driven
//! synchronously on the benchmark's thread through the public
//! `FrameSource` / `CaptureStage` / `TaskStage` stages. Under blocking
//! backpressure this is the same frame order and feedback lock-step as
//! `rpr_stream::run_stream`, without the stage threads, whose queue
//! waits would time the scheduler instead of the program.

use crate::probe::{allocs, now, secs};
use crate::stats::{fnv, FNV_START};
use rpr_core::{EncodedFrame, RegionLabel, RegionRuntime, SoftwareDecoder};
use rpr_frame::GrayFrame;
use rpr_memsim::EnergyModel;
use rpr_stream::{CaptureStage, Feedback, FrameSource, StreamResult, StreamTelemetry, TaskStage};
use rpr_workloads::datasets::VideoDataset;
use rpr_workloads::{DatasetSource, Measurements, Pipeline, PipelineCapture, PipelineConfig};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// What one run of a camera stream produced, reduced to what the checks
/// and metrics need.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The outcome serialized as JSON: equal strings mean equal results.
    pub json: String,
    /// The task score (pose: mAP@0.5; SLAM: 1 − failures ÷ frames).
    pub score: f64,
    /// SLAM absolute trajectory error; `None` for pose.
    pub ate_mm: Option<f64>,
    /// The memory side of the run.
    pub measurements: Measurements,
}

/// Per-frame timings of one pass. Layer fields are zero in untraced
/// passes.
#[derive(Debug, Clone, Copy, Default)]
pub struct FrameTimes {
    /// Source request to task feedback, check work excluded.
    pub frame_s: f64,
    pub render_s: f64,
    pub capture_s: f64,
    pub task_s: f64,
    pub render_allocs: u64,
    pub capture_allocs: u64,
    pub task_allocs: u64,
}

/// One pass over every sequence.
pub struct Pass {
    pub frames: Vec<FrameTimes>,
    /// Wall time of the pass, pipeline construction included.
    pub total_s: f64,
    /// Digest of every encoded frame's integrity word, in order.
    pub encoded_digest: u64,
    /// Digest of each decoded frame the task consumed.
    pub decoded: Vec<u64>,
    /// One outcome per sequence.
    pub outcomes: Vec<Outcome>,
}

/// A seeded camera workload: its sequences, pipeline configuration,
/// task and outcome assembly.
pub trait Camera {
    type Dataset: VideoDataset + Sync;
    type Task<'a>: TaskStage<Input = GrayFrame>
    where
        Self: 'a;

    fn config(&self) -> PipelineConfig;
    fn datasets(&self) -> &[Self::Dataset];
    fn task<'a>(&'a self, ds: &'a Self::Dataset) -> Self::Task<'a>;
    fn outcome(
        &self,
        ds: &Self::Dataset,
        capture: Measurements,
        task: <Self::Task<'_> as TaskStage>::Output,
    ) -> Outcome;
    /// The synchronous reference loop (`run_pose_with` /
    /// `run_slam_with`) at the same configuration.
    fn reference(&self, ds: &Self::Dataset) -> Outcome;

    /// Frames over all sequences.
    fn frames(&self) -> usize {
        self.datasets().iter().map(VideoDataset::len).sum()
    }
}

/// Wraps stage outputs the way the staged executor hands them to the
/// workloads' outcome builders.
fn stream_result<C, T>(capture: C, task: T, frames: u64) -> StreamResult<C, T> {
    StreamResult {
        stream_id: 0,
        capture,
        task,
        telemetry: StreamTelemetry {
            stream_id: 0,
            frames_in: frames,
            frames_out: frames,
            frames_dropped: 0,
            wall_time_s: 0.0,
            end_to_end_fps: 0.0,
            queues: Vec::new(),
            stages: Vec::new(),
        },
    }
}

/// Runs every sequence once through `DatasetSource` → `PipelineCapture`
/// → the task, each with a fresh pipeline and task. With `traced`, each
/// stage call is timed and its allocations counted.
pub fn pass<C: Camera>(cam: &C, traced: bool) -> Pass {
    let started = now();
    let digest = Arc::new(AtomicU64::new(FNV_START));
    let n = cam.frames();
    let mut frames = Vec::with_capacity(n);
    let mut decoded = Vec::with_capacity(n);
    let mut outcomes = Vec::with_capacity(cam.datasets().len());
    for ds in cam.datasets() {
        let tap = Arc::clone(&digest);
        let mut pipeline = Pipeline::new(cam.config());
        pipeline.set_encoded_tap(Box::new(move |f: &EncodedFrame| {
            let h = tap.load(Ordering::Relaxed);
            tap.store(fnv(h, &f.integrity().to_le_bytes()), Ordering::Relaxed);
        }));
        let mut capture = PipelineCapture::from_pipeline(pipeline);
        let mut source = DatasetSource::new(ds);
        let mut task = cam.task(ds);
        let mut feedback = Feedback::empty();
        let mut idx = 0u64;
        loop {
            let mut ft = FrameTimes::default();
            let a0 = allocs();
            let t0 = now();
            let Some(raw) = source.next_frame() else {
                break;
            };
            if traced {
                let t1 = now();
                ft.render_s = secs(t0, t1);
                ft.render_allocs = allocs() - a0;
            }
            let tc = now();
            let ac = allocs();
            let processed = capture.process(raw, &feedback, false);
            let t2 = now();
            let a2 = allocs();
            // Check work, excluded from the frame's time.
            decoded.push(fnv(FNV_START, processed.as_slice()));
            let t2b = now();
            let a2b = allocs();
            feedback = task.consume(idx, processed);
            let t3 = now();
            let a3 = allocs();
            ft.frame_s = secs(t0, t3) - secs(t2, t2b);
            if traced {
                ft.capture_s = secs(tc, t2);
                ft.capture_allocs = a2 - ac;
                ft.task_s = secs(t2b, t3);
                ft.task_allocs = a3 - a2b;
            }
            frames.push(ft);
            idx += 1;
        }
        outcomes.push(cam.outcome(ds, capture.finish(), task.finish()));
    }
    Pass {
        frames,
        total_s: secs(started, now()),
        encoded_digest: digest.load(Ordering::Relaxed),
        decoded,
        outcomes,
    }
}

/// What the traced run's untimed harvest recorded for one sequence: the
/// raw frames, the labels the policy planned for each, the encoded
/// frames the capture tap saw, and the decoded frames' digests.
pub struct Harvest {
    pub raws: Vec<GrayFrame>,
    pub labels: Vec<Vec<RegionLabel>>,
    pub encoded: Vec<EncodedFrame>,
    pub decoded: Vec<u64>,
    pub outcome: Outcome,
}

/// Drives a bare [`Pipeline`] with the same inputs and feedback as
/// [`pass`] — `PipelineCapture::process` is `Pipeline::process_frame`
/// plus the feedback clone — so `Pipeline::planned_regions` can be read
/// after every frame. One harvest per sequence.
pub fn harvest<C: Camera>(cam: &C) -> Vec<Harvest> {
    cam.datasets()
        .iter()
        .map(|ds| {
            let encoded = Arc::new(Mutex::new(Vec::new()));
            let sink = Arc::clone(&encoded);
            let mut pipeline = Pipeline::new(cam.config());
            pipeline.set_encoded_tap(Box::new(move |f: &EncodedFrame| {
                sink.lock()
                    .expect("harvest tap mutex poisoned")
                    .push(f.clone());
            }));
            let mut source = DatasetSource::new(ds);
            let mut task = cam.task(ds);
            let (mut raws, mut labels, mut decoded) = (Vec::new(), Vec::new(), Vec::new());
            let mut feedback = Feedback::empty();
            let mut idx = 0u64;
            while let Some(raw) = source.next_frame() {
                let processed = pipeline.process_frame(
                    &raw,
                    feedback.features.clone(),
                    feedback.detections.clone(),
                );
                labels.push(pipeline.planned_regions().labels().to_vec());
                decoded.push(fnv(FNV_START, processed.as_slice()));
                raws.push(raw);
                feedback = task.consume(idx, processed);
                idx += 1;
            }
            let outcome = cam.outcome(ds, pipeline.finish(), task.finish());
            let encoded = std::mem::take(&mut *encoded.lock().expect("harvest tap mutex poisoned"));
            Harvest {
                raws,
                labels,
                encoded,
                decoded,
                outcome,
            }
        })
        .collect()
}

/// One replay of a layer over the harvested frames: per-frame times and
/// allocation counts, and the first frame (counted over all sequences)
/// whose output differed from what the pipeline produced.
pub struct Replay {
    pub times: Vec<f64>,
    pub allocs: Vec<u64>,
    pub mismatch: Option<usize>,
}

/// Replays encoding: each sequence's raw frames and planned labels
/// through a fresh `RegionRuntime`, compared byte for byte with the
/// encoded frames the capture tap saw.
pub fn replay_encode(harvests: &[Harvest], width: u32, height: u32) -> Replay {
    let mut r = Replay {
        times: Vec::new(),
        allocs: Vec::new(),
        mismatch: None,
    };
    for h in harvests {
        let mut rt = RegionRuntime::new(width, height);
        for (i, (raw, labels)) in h.raws.iter().zip(&h.labels).enumerate() {
            let at = r.times.len();
            if rt.set_region_labels(labels.clone()).is_err() {
                r.mismatch.get_or_insert(at);
            }
            let a0 = allocs();
            let t0 = now();
            let e = rt.encode_frame(raw);
            let t1 = now();
            r.allocs.push(allocs() - a0);
            r.times.push(secs(t0, t1));
            if h.encoded.get(i) != Some(&e) {
                r.mismatch.get_or_insert(at);
            }
        }
    }
    r
}

/// Replays decoding: each sequence's tapped encoded frames through a
/// fresh `SoftwareDecoder`, compared with what the task consumed.
pub fn replay_decode(harvests: &[Harvest], width: u32, height: u32) -> Replay {
    let mut r = Replay {
        times: Vec::new(),
        allocs: Vec::new(),
        mismatch: None,
    };
    for h in harvests {
        let mut decoder = SoftwareDecoder::new(width, height);
        for (i, e) in h.encoded.iter().enumerate() {
            let at = r.times.len();
            let a0 = allocs();
            let t0 = now();
            let out = decoder.decode(e);
            let t1 = now();
            r.allocs.push(allocs() - a0);
            r.times.push(secs(t0, t1));
            if h.decoded.get(i) != Some(&fnv(FNV_START, out.as_slice())) {
                r.mismatch.get_or_insert(at);
            }
        }
    }
    r
}

/// The frame-weighted summary of several sequences' outcomes.
#[derive(Debug, Clone, Copy, Default)]
pub struct Summary {
    pub frames: u64,
    pub dram_bytes_per_frame: f64,
    pub energy_uj_per_frame: f64,
    pub task_score: f64,
    pub ate_mm: Option<f64>,
    pub captured_frac: f64,
}

/// Sums traffic and energy over the outcomes and weights scores by
/// frames.
pub fn summarize<'a>(
    outcomes: impl IntoIterator<Item = (&'a Outcome, &'a PipelineConfig)>,
) -> Summary {
    let (mut frames, mut bytes, mut energy, mut score, mut captured) = (0u64, 0u64, 0.0, 0.0, 0.0);
    let mut ate: Option<f64> = None;
    for (o, cfg) in outcomes {
        let m = &o.measurements;
        let n = m.traffic.frames;
        let w = n as f64;
        frames += n;
        bytes += m.traffic.read_bytes + m.traffic.write_bytes;
        energy += energy_uj(m, cfg);
        score += o.score * w;
        captured += m.mean_captured_fraction() * w;
        if let Some(a) = o.ate_mm {
            ate = Some(ate.unwrap_or(0.0) + a * w);
        }
    }
    let f = frames.max(1) as f64;
    Summary {
        frames,
        dram_bytes_per_frame: bytes as f64 / f,
        energy_uj_per_frame: energy / f,
        task_score: score / f,
        ate_mm: ate.map(|a| a / f),
        captured_frac: captured / f,
    }
}

/// Modelled energy (µJ) of a run's traffic under
/// `EnergyModel::paper_defaults`, with the sensor scanning and streaming
/// every pixel — the accounting of the repository's RunReport energy
/// section.
fn energy_uj(m: &Measurements, cfg: &PipelineConfig) -> f64 {
    let frames = m.traffic.frames;
    let bpp = (cfg.format.bytes_per_pixel() as u64).max(1);
    let full_px = u64::from(cfg.width) * u64::from(cfg.height);
    let activity = rpr_memsim::FrameActivity {
        sensed_px: full_px * frames,
        csi_px: full_px * frames,
        dram_written_px: m.traffic.write_bytes / bpp,
        dram_read_px: m.traffic.read_bytes / bpp,
        macs: 0,
    };
    EnergyModel::paper_defaults()
        .frame_energy(&activity)
        .total_pj()
        / 1e6
}

/// The sub-seeds of a run's sequences: distinct across run seeds.
pub fn sequence_seeds(seed: u64, sequences: usize) -> impl Iterator<Item = u64> {
    (0..sequences as u64).map(move |k| seed.wrapping_mul(sequences as u64).wrapping_add(k))
}

/// The pose workload: `PoseDataset` sequences under RP10 with the
/// paper's cycle + feature policy.
pub struct Pose {
    pub datasets: Vec<rpr_workloads::PoseDataset>,
    pub cfg: PipelineConfig,
}

impl Camera for Pose {
    type Dataset = rpr_workloads::PoseDataset;
    type Task<'a> = rpr_workloads::PoseTask<'a>;

    fn config(&self) -> PipelineConfig {
        self.cfg
    }
    fn datasets(&self) -> &[Self::Dataset] {
        &self.datasets
    }
    fn task<'a>(&'a self, ds: &'a Self::Dataset) -> Self::Task<'a> {
        rpr_workloads::PoseTask::new(ds)
    }
    fn outcome(
        &self,
        _ds: &Self::Dataset,
        capture: Measurements,
        task: rpr_workloads::staged::FramesEval,
    ) -> Outcome {
        let frames = task.len() as u64;
        pose_summary(rpr_workloads::pose_outcome(stream_result(
            capture, task, frames,
        )))
    }
    fn reference(&self, ds: &Self::Dataset) -> Outcome {
        pose_summary(rpr_workloads::tasks::run_pose_with(ds, self.cfg))
    }
}

pub fn pose_summary(o: rpr_workloads::tasks::PoseOutcome) -> Outcome {
    Outcome {
        json: serde_json::to_string(&o).expect("outcome serializes"),
        score: o.map,
        ate_mm: None,
        measurements: o.measurements,
    }
}

/// The slam-predict workload: `SlamDataset` sequences under RP10 with
/// the motion-compensated predictive policy.
pub struct Slam {
    pub datasets: Vec<rpr_workloads::SlamDataset>,
    pub cfg: PipelineConfig,
}

impl Camera for Slam {
    type Dataset = rpr_workloads::SlamDataset;
    type Task<'a> = rpr_workloads::SlamTask;

    fn config(&self) -> PipelineConfig {
        self.cfg
    }
    fn datasets(&self) -> &[Self::Dataset] {
        &self.datasets
    }
    fn task<'a>(&'a self, ds: &'a Self::Dataset) -> Self::Task<'a> {
        rpr_workloads::SlamTask::new(ds)
    }
    fn outcome(
        &self,
        ds: &Self::Dataset,
        capture: Measurements,
        task: rpr_workloads::SlamTrack,
    ) -> Outcome {
        let frames = task.estimated.len() as u64;
        slam_summary(rpr_workloads::slam_outcome(
            ds,
            stream_result(capture, task, frames),
        ))
    }
    fn reference(&self, ds: &Self::Dataset) -> Outcome {
        slam_summary(rpr_workloads::tasks::run_slam_with(ds, self.cfg))
    }
}

pub fn slam_summary(o: rpr_workloads::tasks::SlamOutcome) -> Outcome {
    let frames = o.estimated_mm.len().max(1) as f64;
    Outcome {
        json: serde_json::to_string(&o).expect("outcome serializes"),
        score: 1.0 - f64::from(o.tracking_failures) / frames,
        ate_mm: Some(o.ate_mm),
        measurements: o.measurements,
    }
}
