//! The repository benchmark. Run from the repository root:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload pose|slam-predict|fleet-ingest --seed N --seconds S --trace 0|1
//! ```
//!
//! Every run sets its workload up several times (the median is
//! `setup_s`), then replays the same seeded sequence pass after pass for
//! `--seconds` seconds on one thread. The pipeline is deterministic, so
//! every pass does identical work (checked), and each frame's fastest
//! pass is its time: the host's seconds-long slow phases then cost a
//! frame only when every one of its passes fell into one. `--trace 1`
//! interleaves traced passes that time each layer's public call from
//! outside, and replays encode, decode and wire parse on their own.
//!
//! The second-to-last line of standard output is the run record (host
//! diagnostics, checks, per-layer detail); the last line is the result.

mod camera;
mod fleet;
mod host;
mod probe;
mod stats;

use camera::Camera;
use probe::{now, secs};
use rpr_workloads::{Baseline, PipelineConfig, PolicyKind};
use serde_json::{json, Value};
use std::process::ExitCode;

#[global_allocator]
static GLOBAL: probe::CountingAlloc = probe::CountingAlloc;

const WIDTH: u32 = 256;
const HEIGHT: u32 = 192;
/// The paper's RP10: a full capture every tenth frame.
const CYCLE: u64 = 10;
/// Each run covers several sequences, so one seed's scene and motion do
/// not decide a run's figures alone.
const SEQUENCES: usize = 10;
/// Frames per camera sequence: a multiple of the cycle, so full captures
/// are a tenth of the frames.
const SEQ_FRAMES: usize = 20;
/// Frames per recorded SLAM session in fleet-ingest: the fleet carries
/// twice as many pose frames as SLAM frames, so its median frame lies
/// inside the pose frames instead of on the border between the two.
const FLEET_SLAM_FRAMES: usize = 10;
/// Fewest timed passes a run makes, whatever `--seconds` says.
const MIN_PASSES: usize = 3;
/// Set-up repeats up front at least this often and for at least this
/// long (or until `SETUP_UP_FRONT_MAX` repeats) ...
const SETUP_MIN_REPS: usize = 3;
const SETUP_MIN_S: f64 = 1.0;
const SETUP_UP_FRONT_MAX: usize = 1000;
/// ... and then between timed passes, up to this share of the timed
/// phase and this many repeats per gap, so that its median covers the
/// whole run instead of one moment of the host.
const SETUP_SHARE: f64 = 0.1;
const SETUP_PER_GAP: usize = 100;
const SETUP_MAX_REPS: usize = 16_384;
/// How far layer times may miss the traced frame time they decompose,
/// as a share of it.
const DECOMPOSITION_TOLERANCE: f64 = 0.05;

const USAGE: &str = "usage: perfbench --workload pose|slam-predict|fleet-ingest \
                     --seed N --seconds S --trace 0|1";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Pose,
    SlamPredict,
    FleetIngest,
}

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Workload::Pose => "pose",
            Workload::SlamPredict => "slam-predict",
            Workload::FleetIngest => "fleet-ingest",
        }
    }
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "pose" => Workload::Pose,
                    "slam-predict" => Workload::SlamPredict,
                    "fleet-ingest" => Workload::FleetIngest,
                    other => return Err(format!("unknown workload {other}")),
                })
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("trace must be 0 or 1, got {other}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// A named check of the run's outputs.
struct Check {
    name: &'static str,
    ok: bool,
    detail: String,
}

/// What a run hands back for printing.
struct Report {
    attempted: u64,
    failed: u64,
    checks: Vec<Check>,
    metrics: Vec<Metric>,
    record: Vec<(&'static str, Value)>,
}

impl Report {
    fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.ok)
    }
}

/// Times the workload's set-up in rounds: one up front, then one in
/// each gap between timed passes. `setup_s` is the median over rounds of
/// each round's fastest set-up — best-of within a round, like every other
/// timing here, and the median across the run.
struct Setup<F> {
    make: F,
    times: Vec<f64>,
    round_best: Vec<f64>,
    between_s: f64,
}

impl<T, F: FnMut() -> T> Setup<F> {
    fn new(make: F) -> Self {
        // Reserved up front so the record never reallocates mid-run.
        Setup {
            make,
            times: Vec::with_capacity(SETUP_MAX_REPS),
            round_best: Vec::with_capacity(SETUP_MAX_REPS),
            between_s: 0.0,
        }
    }

    fn rep(&mut self) -> T {
        let t0 = now();
        let made = (self.make)();
        self.times.push(secs(t0, now()));
        made
    }

    /// Closes a round that began at repeat `first`.
    fn end_round(&mut self, first: usize) {
        if let Some(best) = self.times[first..].iter().copied().reduce(f64::min) {
            self.round_best.push(best);
        }
    }

    /// The up-front round; returns the last repeat's result for the run.
    fn up_front(&mut self) -> T {
        let start = now();
        loop {
            let made = self.rep();
            let n = self.times.len();
            if (n >= SETUP_MIN_REPS && secs(start, now()) >= SETUP_MIN_S) || n >= SETUP_UP_FRONT_MAX
            {
                self.end_round(0);
                return made;
            }
        }
    }

    /// A round between passes: repeats while set-up has had less than
    /// its share of the `timed_s` seconds the timed phase has run.
    fn between(&mut self, timed_s: f64) {
        let first = self.times.len();
        for _ in 0..SETUP_PER_GAP {
            if self.times.len() >= SETUP_MAX_REPS || self.between_s >= SETUP_SHARE * timed_s {
                break;
            }
            let t0 = now();
            drop(self.rep());
            self.between_s += secs(t0, now());
        }
        self.end_round(first);
    }

    fn median(&self) -> f64 {
        stats::median(&self.round_best).unwrap_or(0.0)
    }
}

fn pose_config() -> PipelineConfig {
    PipelineConfig::new(
        WIDTH,
        HEIGHT,
        Baseline::Rp {
            cycle_length: CYCLE,
        },
    )
}

fn slam_config() -> PipelineConfig {
    pose_config().with_policy(PolicyKind::CyclePredictive)
}

fn make_pose(seed: u64) -> camera::Pose {
    let datasets = camera::sequence_seeds(seed, SEQUENCES)
        .map(|k| rpr_workloads::PoseDataset::new(WIDTH, HEIGHT, SEQ_FRAMES, k))
        .collect();
    let cam = camera::Pose {
        datasets,
        cfg: pose_config(),
    };
    for ds in cam.datasets() {
        std::hint::black_box((rpr_workloads::PipelineCapture::new(cam.cfg), cam.task(ds)));
    }
    cam
}

fn make_slam(seed: u64) -> camera::Slam {
    let datasets = camera::sequence_seeds(seed, SEQUENCES)
        .map(|k| rpr_workloads::SlamDataset::new(WIDTH, HEIGHT, SEQ_FRAMES, k))
        .collect();
    let cam = camera::Slam {
        datasets,
        cfg: slam_config(),
    };
    for ds in cam.datasets() {
        std::hint::black_box((rpr_workloads::PipelineCapture::new(cam.cfg), cam.task(ds)));
    }
    cam
}

/// The set-up repeats' and rounds' count and spread, for the record.
fn setup_record<F>(setup: &Setup<F>) -> Value {
    let times = &setup.times;
    json!({
        "repeats": times.len(),
        "rounds": setup.round_best.len(),
        "min_s": times.iter().copied().fold(f64::INFINITY, f64::min),
        "median_repeat_s": stats::median(times),
        "max_s": times.iter().copied().fold(0.0, f64::max),
    })
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = values.fold((0.0, 0usize), |(s, n), v| (s + v, n + 1));
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// Metrics every workload reports from its per-frame best times and
/// latencies (seconds).
fn timing_metrics(
    best_frame_s: &[f64],
    latency_s: &[f64],
    record: &mut Vec<(&'static str, Value)>,
) -> Vec<Metric> {
    let n = best_frame_s.len();
    let total: f64 = best_frame_s.iter().sum();
    let tail_q = stats::tail_percentile(latency_s.len());
    let tail = tail_q.and_then(|q| stats::percentile(latency_s, q));
    record.push((
        "latency_tail",
        json!({
            "percentile": tail_q,
            "samples": latency_s.len(),
            "min_beyond": stats::TAIL_MIN_BEYOND,
        }),
    ));
    vec![
        (
            "frames_per_s",
            stats::frames_per_s(n, total).unwrap_or(0.0),
            "1/s",
        ),
        (
            "latency_p50_ms",
            stats::median(latency_s).unwrap_or(0.0) * 1e3,
            "ms",
        ),
        ("latency_tail_ms", tail.unwrap_or(0.0) * 1e3, "ms"),
    ]
}

/// Every per-layer metric of a traced run, with its unit, in output
/// order. Layer names are the crate names.
const LAYER_METRICS: [(&str, &str); 33] = [
    ("sensor.render_us", "us"),
    ("sensor.render_share", "fraction"),
    ("sensor.allocs_per_frame", "allocs/frame"),
    ("workloads.capture_us", "us"),
    ("workloads.capture_share", "fraction"),
    ("workloads.allocs_per_frame", "allocs/frame"),
    ("workloads.capture_rest_us", "us"),
    ("workloads.capture_rest_share", "fraction"),
    ("core.encode_us", "us"),
    ("core.encode_share", "fraction"),
    ("core.decode_us", "us"),
    ("core.decode_share", "fraction"),
    ("core.allocs_per_frame", "allocs/frame"),
    ("core.encoded_bytes_per_frame", "B"),
    ("core.captured_frac", "fraction"),
    ("vision.task_us", "us"),
    ("vision.task_share", "fraction"),
    ("vision.allocs_per_frame", "allocs/frame"),
    ("vision.ate_mm", "mm"),
    ("wire.parse_us", "us"),
    ("wire.bytes_per_frame", "B"),
    ("serve.step_us", "us"),
    ("serve.step_share", "fraction"),
    ("serve.client_us", "us"),
    ("serve.client_share", "fraction"),
    ("serve.idle_step_frac", "fraction"),
    ("serve.rejected_frames", "count"),
    ("serve.queue_wait_us", "us"),
    ("serve.allocs_per_frame", "allocs/frame"),
    ("trace.frame_us", "us"),
    ("trace.unattributed_us", "us"),
    ("trace.unattributed_share", "fraction"),
    ("trace.overhead_frac", "fraction"),
];

type Metric = (&'static str, f64, &'static str);

/// Every per-layer metric: the `measured` value where the workload's
/// path has the layer, 0 elsewhere. Also returns the names reported as 0
/// because the workload never calls that layer.
fn layer_metrics(measured: &[(&'static str, f64)]) -> (Vec<Metric>, Vec<&'static str>) {
    assert!(
        measured
            .iter()
            .all(|(n, _)| LAYER_METRICS.iter().any(|(m, _)| m == n)),
        "every measured layer metric is declared"
    );
    let mut off_path = Vec::new();
    let metrics = LAYER_METRICS
        .iter()
        .map(
            |&(name, unit)| match measured.iter().find(|(n, _)| *n == name) {
                Some(&(_, value)) => (name, value, unit),
                None => {
                    off_path.push(name);
                    (name, 0.0, unit)
                }
            },
        )
        .collect();
    (metrics, off_path)
}

fn check(name: &'static str, ok: bool, detail: impl Into<String>) -> Check {
    Check {
        name,
        ok,
        detail: detail.into(),
    }
}

/// Runs a camera workload (pose or slam-predict).
fn run_camera<C: Camera>(args: &Args, make: impl FnMut() -> C) -> Report {
    let mut setup = Setup::new(make);
    let cam = setup.up_front();
    let cfg = cam.config();
    let frames = cam.frames();
    let reference: Vec<camera::Outcome> =
        cam.datasets().iter().map(|ds| cam.reference(ds)).collect();
    let reference_json: Vec<&str> = reference.iter().map(|o| o.json.as_str()).collect();
    let harvests = if args.trace {
        camera::harvest(&cam)
    } else {
        Vec::new()
    };

    let host_start = host::Snapshot::take();
    let mut peak = 0;
    let timed_start = now();
    let mut best: Vec<f64> = Vec::new();
    let mut traced_best: Vec<camera::FrameTimes> = Vec::new();
    let (mut enc_best, mut dec_best) = (Vec::new(), Vec::new());
    let mut first: Option<camera::Pass> = None;
    let mut first_traced: Option<camera::Pass> = None;
    let (mut enc, mut dec) = (None::<camera::Replay>, None::<camera::Replay>);
    let (mut enc_mismatch, mut dec_mismatch) = (None, None);
    let mut pass_totals = Vec::new();
    let (mut attempted, mut failed, mut passes) = (0u64, 0u64, 0usize);
    let mut unpaired = false;
    loop {
        probe::reset_peak();
        let untraced = camera::pass(&cam, false);
        peak = peak.max(probe::peak_bytes());
        let mut batch = vec![(untraced, false)];
        if args.trace {
            batch.push((camera::pass(&cam, true), true));
            let e = camera::replay_encode(&harvests, WIDTH, HEIGHT);
            unpaired |= !stats::keep_best(&mut enc_best, &e.times, |&t| t);
            enc_mismatch = enc_mismatch.or(e.mismatch);
            let d = camera::replay_decode(&harvests, WIDTH, HEIGHT);
            unpaired |= !stats::keep_best(&mut dec_best, &d.times, |&t| t);
            dec_mismatch = dec_mismatch.or(d.mismatch);
            enc.get_or_insert(e);
            dec.get_or_insert(d);
        }
        for (p, traced) in batch {
            attempted += frames as u64;
            let same_outcomes = p
                .outcomes
                .iter()
                .map(|o| o.json.as_str())
                .eq(reference_json.iter().copied());
            let same = same_outcomes
                && p.frames.len() == frames
                && first
                    .as_ref()
                    .is_none_or(|b| b.encoded_digest == p.encoded_digest && b.decoded == p.decoded);
            if !same {
                failed += frames as u64;
            }
            if traced {
                unpaired |= !stats::keep_best(&mut traced_best, &p.frames, |f| f.frame_s);
                first_traced.get_or_insert(p);
            } else {
                let frame_s: Vec<f64> = p.frames.iter().map(|f| f.frame_s).collect();
                unpaired |= !stats::keep_best(&mut best, &frame_s, |&t| t);
                pass_totals.push(p.total_s);
                passes += 1;
                first.get_or_insert(p);
            }
        }
        if passes >= MIN_PASSES && secs(timed_start, now()) >= args.seconds {
            break;
        }
        setup.between(secs(timed_start, now()));
    }
    let timed_s = secs(timed_start, now());
    let host_end = host::Snapshot::take();
    let first = first.expect("at least one pass ran");

    let mut checks = vec![
        check(
            "passes_identical_and_equal_reference",
            failed == 0,
            format!("{failed} of {attempted} frames in passes that differed from the synchronous reference loop or the first pass"),
        ),
        check("passes_paired", !unpaired, "every pass timed the same frame count"),
    ];
    let summary = camera::summarize(reference.iter().map(|o| (o, &cfg)));
    let mut record = vec![
        ("sequences", json!(SEQUENCES)),
        ("frames_per_pass", json!(frames)),
        ("setup", setup_record(&setup)),
        (
            "host",
            host::record(host_start, host_end, timed_s, &pass_totals),
        ),
    ];
    let mut metrics = timing_metrics(&best, &best, &mut record);
    metrics.extend([
        ("setup_s", setup.median(), "s"),
        ("peak_heap_mb", peak as f64 / 1e6, "MB"),
        (
            "completed_frac",
            first.frames.len() as f64 / frames as f64,
            "fraction",
        ),
        ("dram_bytes_per_frame", summary.dram_bytes_per_frame, "B"),
        ("energy_uj_per_frame", summary.energy_uj_per_frame, "uJ"),
        ("task_score", summary.task_score, "score"),
    ]);

    if args.trace {
        let harvested: Vec<u64> = harvests
            .iter()
            .flat_map(|h| h.decoded.iter().copied())
            .collect();
        checks.push(check(
            "harvest_equals_reference",
            harvests.iter().map(|h| h.outcome.json.as_str()).eq(reference_json.iter().copied())
                && harvested == first.decoded,
            "a bare Pipeline fed the same frames and feedback reproduces the staged outcomes and decoded frames",
        ));
        let encoded_frames: usize = harvests.iter().map(|h| h.encoded.len()).sum();
        checks.push(check(
            "encode_replay_byte_identical",
            enc_mismatch.is_none() && encoded_frames == frames,
            format!("first differing frame: {enc_mismatch:?}; {encoded_frames} of {frames} frames tapped"),
        ));
        checks.push(check(
            "decode_replay_identical",
            dec_mismatch.is_none(),
            format!("first differing frame: {dec_mismatch:?}"),
        ));
        let t = &traced_best;
        let frame: f64 = t.iter().map(|f| f.frame_s).sum();
        let render: f64 = t.iter().map(|f| f.render_s).sum();
        let capture: f64 = t.iter().map(|f| f.capture_s).sum();
        let task: f64 = t.iter().map(|f| f.task_s).sum();
        let encode: f64 = enc_best.iter().sum();
        let decode: f64 = dec_best.iter().sum();
        let unattributed = frame - render - capture - task;
        let rest = capture - encode - decode;
        checks.push(check(
            "layers_add_back",
            unattributed.abs() <= DECOMPOSITION_TOLERANCE * frame
                && -rest <= DECOMPOSITION_TOLERANCE * frame,
            format!(
                "render+capture+task misses the traced frame time by {:.4} of it; replayed encode+decode exceed capture by {:.4} of it (tolerance {DECOMPOSITION_TOLERANCE})",
                unattributed / frame,
                (-rest / frame).max(0.0)
            ),
        ));
        let n = frames as f64;
        let us = |s: f64| s / n * 1e6;
        let traced_first = first_traced.as_ref().expect("traced passes ran");
        let per_frame = |f: fn(&camera::FrameTimes) -> u64| {
            traced_first.frames.iter().map(f).sum::<u64>() as f64 / n
        };
        let replay_allocs = |r: &Option<camera::Replay>| {
            r.as_ref()
                .map_or(0.0, |r| r.allocs.iter().sum::<u64>() as f64 / n)
        };
        let encoded_bytes: usize = harvests
            .iter()
            .flat_map(|h| &h.encoded)
            .map(|e| e.total_bytes())
            .sum();
        let untraced_total: f64 = best.iter().sum();
        let mut measured = vec![
            ("sensor.render_us", us(render)),
            ("sensor.render_share", render / frame),
            ("sensor.allocs_per_frame", per_frame(|f| f.render_allocs)),
            ("workloads.capture_us", us(capture)),
            ("workloads.capture_share", capture / frame),
            (
                "workloads.allocs_per_frame",
                per_frame(|f| f.capture_allocs),
            ),
            ("workloads.capture_rest_us", us(rest)),
            ("workloads.capture_rest_share", rest / frame),
            ("core.encode_us", us(encode)),
            ("core.encode_share", encode / frame),
            ("core.decode_us", us(decode)),
            ("core.decode_share", decode / frame),
            ("core.allocs_per_frame", replay_allocs(&dec)),
            ("core.encoded_bytes_per_frame", encoded_bytes as f64 / n),
            ("core.captured_frac", summary.captured_frac),
            ("vision.task_us", us(task)),
            ("vision.task_share", task / frame),
            ("vision.allocs_per_frame", per_frame(|f| f.task_allocs)),
            ("trace.frame_us", us(frame)),
            ("trace.unattributed_us", us(unattributed)),
            ("trace.unattributed_share", unattributed / frame),
            ("trace.overhead_frac", untraced_total / frame - 1.0),
        ];
        if let Some(ate) = summary.ate_mm {
            measured.push(("vision.ate_mm", ate));
        }
        let off_path;
        (metrics, off_path) = layer_metrics(&measured);
        record.push(("off_path_reported_as_zero", json!(off_path)));
        record.push(("encode_replay_allocs_per_frame", json!(replay_allocs(&enc))));
        record.push((
            "layer_medians_us",
            json!({
                "render": layer_median(t, |f| f.render_s),
                "capture": layer_median(t, |f| f.capture_s),
                "task": layer_median(t, |f| f.task_s),
                "encode": stats::median(&enc_best).map(|s| s * 1e6),
                "decode": stats::median(&dec_best).map(|s| s * 1e6),
            }),
        ));
    }
    Report {
        attempted,
        failed,
        checks,
        metrics,
        record,
    }
}

fn layer_median<T>(frames: &[T], f: fn(&T) -> f64) -> Option<f64> {
    let v: Vec<f64> = frames.iter().map(f).collect();
    stats::median(&v).map(|s| s * 1e6)
}

/// What fleet set-up produces: the sessions and the recorded runs'
/// outcomes, whose traffic and scores the fleet's frames carry.
struct Fleet {
    sessions: Vec<fleet::Session>,
    recorded: Vec<(camera::Outcome, PipelineConfig)>,
}

/// Records pose and SLAM sequences through the capture taps, one
/// container each, pose and SLAM alternating: the pose sequences are the
/// pose workload's, the SLAM ones shorter cuts of slam-predict's worlds.
fn make_fleet(seed: u64) -> Result<Fleet, String> {
    let mut sessions = Vec::new();
    let mut recorded = Vec::new();
    for k in camera::sequence_seeds(seed, SEQUENCES) {
        let pose = rpr_workloads::PoseDataset::new(WIDTH, HEIGHT, SEQ_FRAMES, k);
        let (o, bytes, _) =
            rpr_workloads::record_pose(&pose, pose_config()).map_err(|e| e.to_string())?;
        sessions.push(fleet::Session::new(sessions.len() as u64, bytes));
        recorded.push((camera::pose_summary(o), pose_config()));
        let slam = rpr_workloads::SlamDataset::new(WIDTH, HEIGHT, FLEET_SLAM_FRAMES, k);
        let (o, bytes, _) =
            rpr_workloads::record_slam(&slam, slam_config()).map_err(|e| e.to_string())?;
        sessions.push(fleet::Session::new(sessions.len() as u64, bytes));
        recorded.push((camera::slam_summary(o), slam_config()));
    }
    Ok(Fleet { sessions, recorded })
}

/// Runs the fleet-ingest workload.
fn run_fleet(args: &Args) -> Result<Report, String> {
    // Every session is served from this one thread; at most one session
    // per core is open at a time, so the fleet never outnumbers the host.
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let slots = nproc.clamp(1, 2);
    let mut setup = Setup::new(|| make_fleet(args.seed));
    let mut fleet = setup.up_front()?;
    let mut checks = Vec::new();
    let mut direct = Vec::new();
    for s in &mut fleet.sessions {
        direct.push(s.expect_direct_decode());
    }
    checks.push(check(
        "containers_decode_directly",
        direct.iter().all(Result::is_ok),
        format!(
            "{:?}",
            direct
                .iter()
                .filter_map(|r| r.as_ref().err())
                .collect::<Vec<_>>()
        ),
    ));
    let summary = camera::summarize(fleet.recorded.iter().map(|(o, cfg)| (o, cfg)));
    let offered: usize = fleet.sessions.iter().map(|s| s.expected.len()).sum();
    checks.push(check(
        "containers_hold_every_recorded_frame",
        offered as u64 == summary.frames,
        format!(
            "{offered} frames in containers, {} recorded",
            summary.frames
        ),
    ));
    let sessions = &fleet.sessions;

    let host_start = host::Snapshot::take();
    let mut peak = 0;
    let timed_start = now();
    let mut best: Vec<fleet::FrameTimes> = Vec::new();
    let mut traced_best: Vec<fleet::FrameTimes> = Vec::new();
    let mut latency_best: Vec<f64> = Vec::new();
    let mut wait_best: Vec<f64> = Vec::new();
    let mut parse_best: Vec<f64> = Vec::new();
    let mut first: Option<fleet::Pass> = None;
    let mut first_traced: Option<fleet::Pass> = None;
    let mut pass_totals = Vec::new();
    let (mut attempted, mut failed, mut passes) = (0u64, 0u64, 0usize);
    let mut unpaired = false;
    let mut parse_failed = false;
    loop {
        probe::reset_peak();
        let untraced = fleet::pass(sessions, slots, WIDTH, HEIGHT, false);
        peak = peak.max(probe::peak_bytes());
        let mut batch = vec![(untraced, false)];
        if args.trace {
            batch.push((fleet::pass(sessions, slots, WIDTH, HEIGHT, true), true));
            match fleet::replay_parse(sessions) {
                Some(times) => unpaired |= !stats::keep_best(&mut parse_best, &times, |&t| t),
                None => parse_failed = true,
            }
        }
        for (p, traced) in batch {
            attempted += offered as u64;
            let base = first.as_ref();
            let delivered = p.frames.len();
            let bad = p.mismatched + offered.saturating_sub(delivered);
            let same_order = base.is_none_or(|b| b.order_digest == p.order_digest);
            let clean = !p.stuck && p.sessions_clean == sessions.len() as u64;
            failed += if same_order && clean {
                bad as u64
            } else {
                offered as u64
            };
            if traced {
                unpaired |= !stats::keep_best(&mut traced_best, &p.frames, |f| f.interval_s);
                first_traced.get_or_insert(p);
            } else {
                let lat: Vec<f64> = p.frames.iter().map(|f| f.latency_us as f64 / 1e6).collect();
                let wait: Vec<f64> = p
                    .frames
                    .iter()
                    .map(|f| f.queue_wait_us as f64 / 1e6)
                    .collect();
                unpaired |= !stats::keep_best(&mut best, &p.frames, |f| f.interval_s);
                unpaired |= !stats::keep_best(&mut latency_best, &lat, |&t| t);
                unpaired |= !stats::keep_best(&mut wait_best, &wait, |&t| t);
                pass_totals.push(p.total_s);
                passes += 1;
                first.get_or_insert(p);
            }
        }
        if passes >= MIN_PASSES && secs(timed_start, now()) >= args.seconds {
            break;
        }
        setup.between(secs(timed_start, now()));
    }
    let timed_s = secs(timed_start, now());
    let host_end = host::Snapshot::take();
    let first = first.expect("at least one pass ran");

    checks.push(check(
        "fleet_frames_equal_direct_decode",
        failed == 0,
        format!("{failed} of {attempted} frames missing, differing from the direct decode, or in a pass that stalled, ended a session uncleanly, or delivered in another order"),
    ));
    checks.push(check(
        "passes_paired",
        !unpaired,
        "every pass delivered the same frame count",
    ));

    let mut record = vec![
        ("sessions", json!(sessions.len())),
        ("concurrent_sessions", json!(slots)),
        ("frames_per_pass", json!(offered)),
        ("setup", setup_record(&setup)),
        (
            "host",
            host::record(host_start, host_end, timed_s, &pass_totals),
        ),
        (
            "inherited_from_recording",
            json!(["dram_bytes_per_frame", "energy_uj_per_frame", "task_score"]),
        ),
    ];
    let intervals: Vec<f64> = best.iter().map(|f| f.interval_s).collect();
    let mut metrics = timing_metrics(&intervals, &latency_best, &mut record);
    metrics.extend([
        ("setup_s", setup.median(), "s"),
        ("peak_heap_mb", peak as f64 / 1e6, "MB"),
        (
            "completed_frac",
            first.frames.len() as f64 / offered.max(1) as f64,
            "fraction",
        ),
        // The fleet moves recorded frames, checked equal to the recorded
        // ones: its DRAM traffic, energy and task score are those of the
        // recorded captures.
        ("dram_bytes_per_frame", summary.dram_bytes_per_frame, "B"),
        ("energy_uj_per_frame", summary.energy_uj_per_frame, "uJ"),
        ("task_score", summary.task_score, "score"),
    ]);

    if args.trace {
        let t = &traced_best;
        let frame: f64 = t.iter().map(|f| f.interval_s).sum();
        let step: f64 = t.iter().map(|f| f.step_s).sum();
        let client: f64 = t.iter().map(|f| f.client_s).sum();
        let decode: f64 = t.iter().map(|f| f.decode_s).sum();
        let unattributed = frame - step - client - decode;
        checks.push(check(
            "wire_parse_replay",
            !parse_failed,
            "every container parses",
        ));
        checks.push(check(
            "layers_add_back",
            unattributed.abs() <= DECOMPOSITION_TOLERANCE * frame,
            format!(
                "step+client+decode misses the traced frame time by {:.4} of it (tolerance {DECOMPOSITION_TOLERANCE})",
                unattributed / frame
            ),
        ));
        let n = offered.max(1) as f64;
        let us = |s: f64| s / n * 1e6;
        let tf = first_traced.as_ref().expect("traced passes ran");
        let encoded: Vec<rpr_core::EncodedFrame> = sessions
            .iter()
            .flat_map(|s| rpr_wire::read_all(&s.container).unwrap_or_default())
            .collect();
        let encoded_bytes: usize = encoded.iter().map(|e| e.total_bytes()).sum();
        let captured = mean(encoded.iter().map(|e| e.captured_fraction()));
        let container_bytes: usize = sessions.iter().map(|s| s.container.len()).sum();
        let interval_total: f64 = intervals.iter().sum();
        let measured = [
            ("core.decode_us", us(decode)),
            ("core.decode_share", decode / frame),
            (
                "core.allocs_per_frame",
                tf.frames.iter().map(|f| f.decode_allocs).sum::<u64>() as f64 / n,
            ),
            ("core.encoded_bytes_per_frame", encoded_bytes as f64 / n),
            ("core.captured_frac", captured),
            ("wire.parse_us", us(parse_best.iter().sum())),
            ("wire.bytes_per_frame", container_bytes as f64 / n),
            ("serve.step_us", us(step)),
            ("serve.step_share", step / frame),
            ("serve.client_us", us(client)),
            ("serve.client_share", client / frame),
            (
                "serve.idle_step_frac",
                tf.idle_steps as f64 / tf.steps.max(1) as f64,
            ),
            (
                "serve.rejected_frames",
                offered.saturating_sub(tf.frames.len()) as f64,
            ),
            (
                "serve.queue_wait_us",
                stats::median(&wait_best).unwrap_or(0.0) * 1e6,
            ),
            (
                "serve.allocs_per_frame",
                tf.frames.iter().map(|f| f.step_allocs).sum::<u64>() as f64 / n,
            ),
            ("trace.frame_us", us(frame)),
            ("trace.unattributed_us", us(unattributed)),
            ("trace.unattributed_share", unattributed / frame),
            ("trace.overhead_frac", interval_total / frame - 1.0),
        ];
        let off_path;
        (metrics, off_path) = layer_metrics(&measured);
        record.push(("off_path_reported_as_zero", json!(off_path)));
        record.push(("steps_per_pass", json!(tf.steps)));
    }
    Ok(Report {
        attempted,
        failed,
        checks,
        metrics,
        record,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = match args.workload {
        Workload::Pose => Ok(run_camera(&args, || make_pose(args.seed))),
        Workload::SlamPredict => Ok(run_camera(&args, || make_slam(args.seed))),
        Workload::FleetIngest => run_fleet(&args),
    };
    let report = match report {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {} set-up failed: {e}", args.workload.name());
            return ExitCode::from(1);
        }
    };
    let correct = report.correct();
    let mut record = vec![
        ("workload", json!(args.workload.name())),
        ("seed", json!(args.seed)),
        ("seconds", json!(args.seconds)),
        ("trace", json!(args.trace)),
        ("width", json!(WIDTH)),
        ("height", json!(HEIGHT)),
    ];
    record.extend(report.record);
    record.push((
        "checks",
        Value::Seq(
            report
                .checks
                .iter()
                .map(|c| json!({ "name": c.name, "ok": c.ok, "detail": c.detail.clone() }))
                .collect(),
        ),
    ));
    let record = Value::Map(
        record
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    );
    println!(
        "{}",
        serde_json::to_string(&json!({ "record": record })).expect("record serializes")
    );
    let metrics = Value::Map(
        report
            .metrics
            .iter()
            .map(|&(name, value, unit)| (name.to_string(), json!({ "value": value, "unit": unit })))
            .collect(),
    );
    let result = json!({
        "correct": correct,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": metrics,
    });
    println!(
        "{}",
        serde_json::to_string(&result).expect("result serializes")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        for c in report.checks.iter().filter(|c| !c.ok) {
            eprintln!("perfbench: check {} failed: {}", c.name, c.detail);
        }
        ExitCode::from(1)
    }
}
