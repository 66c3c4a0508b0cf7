//! Multi-camera scaling of the staged stream executor: N pose-tracking
//! cameras multiplexed over a shared worker pool vs the same N cameras
//! run sequentially through the synchronous pipeline.
//!
//! Usage:
//!
//! ```text
//! stream_scaling [--streams N] [--backpressure block|drop-oldest|degrade]
//!                [--frames N] [--out FILE]
//! ```
//!
//! Without `--streams` the binary sweeps the baseline series
//! {1, 2, 4, 8} and, with `--out`, writes a `BenchRecord` — that is how
//! `BENCH_stream.json` at the repo root is produced. Each stream count
//! `N` contributes `streamsN.*` metrics; `streamsN.frames_per_s` is
//! the frames delivered by all N streams over the staged run's wall
//! time. Speedup over sequential is bounded by the core count, which
//! the record stores as `host_cores`.

use rpr_bench::record::{BenchRecord, Metric, MODEL_BOUND, TIMING_BOUND};
use rpr_bench::{print_table, Scale};
use rpr_stream::telemetry::frames_per_second;
use rpr_stream::{BackpressureMode, StreamConfig, StreamManager};
use rpr_workloads::tasks::run_pose_with;
use rpr_workloads::{pose_outcome, pose_spec, Baseline, PipelineConfig, PoseDataset};
use std::time::Instant;

struct Args {
    streams: Option<usize>,
    backpressure: BackpressureMode,
    frames: usize,
    out: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        streams: None,
        backpressure: BackpressureMode::Block,
        frames: Scale::from_env().frames,
        out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                std::process::exit(2);
            })
        };
        match flag.as_str() {
            "--streams" => {
                args.streams = Some(value("--streams").parse().unwrap_or_else(|_| {
                    eprintln!("--streams must be a positive integer");
                    std::process::exit(2);
                }));
            }
            "--backpressure" => {
                let v = value("--backpressure");
                args.backpressure = BackpressureMode::parse(&v).unwrap_or_else(|| {
                    eprintln!("unknown backpressure mode {v:?} (block|drop-oldest|degrade)");
                    std::process::exit(2);
                });
            }
            "--frames" => {
                args.frames = value("--frames").parse().unwrap_or_else(|_| {
                    eprintln!("--frames must be a positive integer");
                    std::process::exit(2);
                });
            }
            "--out" => args.out = Some(value("--out")),
            "--help" | "-h" => {
                println!(
                    "stream_scaling [--streams N] [--backpressure block|drop-oldest|degrade] \
                     [--frames N] [--out FILE]"
                );
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

/// One scaling measurement: N cameras staged-vs-sequential.
struct Run {
    streams: usize,
    mode: BackpressureMode,
    sequential_s: f64,
    staged_s: f64,
    frames_out: u64,
    mean_map: f64,
    dropped: u64,
}

impl Run {
    fn speedup(&self) -> f64 {
        self.sequential_s / self.staged_s.max(1e-12)
    }

    fn frames_per_s(&self) -> f64 {
        frames_per_second(self.frames_out, self.staged_s)
    }

    fn metrics(&self) -> Vec<Metric> {
        let name = |m: &str| format!("streams{}.{m}", self.streams);
        vec![
            Metric::lower(name("sequential_s"), self.sequential_s, "s", TIMING_BOUND),
            Metric::lower(name("staged_s"), self.staged_s, "s", TIMING_BOUND),
            Metric::higher(name("speedup"), self.speedup(), "ratio", TIMING_BOUND),
            Metric::higher(name("frames_out"), self.frames_out as f64, "count", MODEL_BOUND),
            Metric::higher(name("frames_per_s"), self.frames_per_s(), "1/s", TIMING_BOUND),
            Metric::higher(name("mean_map"), self.mean_map, "score", MODEL_BOUND),
            Metric::lower(name("frames_dropped"), self.dropped as f64, "count", MODEL_BOUND),
        ]
    }
}

fn measure(streams: usize, mode: BackpressureMode, frames: usize) -> Run {
    let scale = Scale::from_env();
    let baseline = Baseline::Rp { cycle_length: 5 };
    // One independent camera (different seed/trajectory) per stream.
    let datasets: Vec<PoseDataset> = (0..streams)
        .map(|i| PoseDataset::new(scale.width, scale.height, frames, 7000 + i as u64))
        .collect();
    let cfg = PipelineConfig::new(scale.width, scale.height, baseline);
    // The synchronous reference: the same cameras, one after another.
    let t0 = Instant::now();
    for ds in &datasets {
        let _ = run_pose_with(ds, cfg);
    }
    let sequential_s = t0.elapsed().as_secs_f64();

    // The staged executor: one spec per camera on a shared pool.
    let stream_cfg = StreamConfig::default().with_backpressure(mode);
    let specs = datasets.iter().map(|ds| pose_spec(ds, cfg, stream_cfg)).collect();
    let t0 = Instant::now();
    let results = StreamManager::default().run_all(specs);
    let staged_s = t0.elapsed().as_secs_f64();

    let frames_out = results.iter().map(|r| r.telemetry.frames_out).sum();
    let dropped = results.iter().map(|r| r.telemetry.frames_dropped).sum();
    let maps: Vec<f64> = results.into_iter().map(|r| pose_outcome(r).map).collect();
    let mean_map = maps.iter().sum::<f64>() / maps.len().max(1) as f64;
    Run { streams, mode, sequential_s, staged_s, frames_out, mean_map, dropped }
}

fn main() {
    let args = parse_args();
    let series: Vec<usize> = match args.streams {
        Some(n) => vec![n.max(1)],
        None => vec![1, 2, 4, 8],
    };

    let runs: Vec<Run> =
        series.iter().map(|&n| measure(n, args.backpressure, args.frames)).collect();

    let rows: Vec<Vec<String>> = runs
        .iter()
        .map(|r| {
            vec![
                r.streams.to_string(),
                r.mode.label().to_string(),
                format!("{:.3}", r.sequential_s),
                format!("{:.3}", r.staged_s),
                format!("{:.2}x", r.speedup()),
                format!("{:.1}", r.frames_per_s()),
                format!("{:.3}", r.mean_map),
                r.dropped.to_string(),
            ]
        })
        .collect();
    let scale = Scale::from_env();
    let record = BenchRecord::new(
        format!(
            "stream_scaling ({} backpressure, {}x{}, {} frames/stream)",
            args.backpressure.label(),
            scale.width,
            scale.height,
            args.frames
        ),
        runs.iter().flat_map(Run::metrics).collect(),
    );
    print_table(
        &format!("Stream scaling ({} host cores)", record.host_cores),
        &["streams", "mode", "sequential s", "staged s", "speedup", "frames/s", "mAP", "dropped"],
        &rows,
    );
    record.emit(args.out.as_deref());
}
