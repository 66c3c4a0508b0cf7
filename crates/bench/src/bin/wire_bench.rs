//! Wire-format size and replay accounting: records each workload's
//! rhythmic capture stream into an in-memory `.rpr` container and
//! reports what the mask coding bought — RLE-coded mask bytes vs the
//! raw 2-bit-per-pixel mask — plus container overhead and read/replay
//! timings.
//!
//! Usage:
//!
//! ```text
//! wire_bench [--frames N] [--out FILE]
//! ```
//!
//! With `--out`, writes a `BenchRecord` with one `<workload>.rp<cycle>.*`
//! group of metrics per recording — that is how `BENCH_wire.json` at
//! the repo root is produced.

use rpr_bench::record::{BenchRecord, Metric, MODEL_BOUND, TIMING_BOUND};
use rpr_bench::{print_table, Scale};
use rpr_wire::{read_all, WriterStats};
use rpr_workloads::{
    record_face, record_pose, record_slam, replay_task_inputs, Baseline, FaceDataset,
    PipelineConfig, PoseDataset, SlamDataset,
};
use std::time::Instant;

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
                println!("wire_bench [--frames N] [--out FILE]");
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

/// One workload recorded into a container and replayed back.
struct Run {
    workload: &'static str,
    cycle_length: u64,
    stats: WriterStats,
    read_s: f64,
    replay_s: f64,
    frames_replayed: usize,
}

fn measure(workload: &'static str, cycle_length: u64, frames: usize) -> Run {
    let scale = Scale::from_env();
    let cfg = PipelineConfig::new(scale.width, scale.height, Baseline::Rp { cycle_length });
    let (bytes, stats) = match workload {
        "slam" => {
            let ds = SlamDataset::new(scale.width, scale.height, frames, 5000);
            let (_, bytes, stats) = record_slam(&ds, cfg).expect("recording cannot fail in memory");
            (bytes, stats)
        }
        "pose" => {
            let ds = PoseDataset::new(scale.width, scale.height, frames, 7000);
            let (_, bytes, stats) = record_pose(&ds, cfg).expect("recording cannot fail in memory");
            (bytes, stats)
        }
        _ => {
            let ds = FaceDataset::new(scale.width, scale.height, frames, 1, 3);
            let (_, bytes, stats) = record_face(&ds, cfg).expect("recording cannot fail in memory");
            (bytes, stats)
        }
    };

    let t0 = Instant::now();
    let decoded = read_all(&bytes).expect("fresh container parses");
    let read_s = t0.elapsed().as_secs_f64();
    assert_eq!(decoded.len() as u64, stats.frames, "index must cover every recorded frame");

    let t0 = Instant::now();
    let inputs = replay_task_inputs(&bytes).expect("fresh container replays");
    let replay_s = t0.elapsed().as_secs_f64();

    Run { workload, cycle_length, stats, read_s, replay_s, frames_replayed: inputs.len() }
}

fn run_metrics(run: &Run) -> Vec<Metric> {
    let s = &run.stats;
    let name = |m: &str| format!("{}.rp{}.{m}", run.workload, run.cycle_length);
    let bytes = |m: &str, v: u64| Metric::lower(name(m), v as f64, "B", MODEL_BOUND);
    let count = |m: &str, v: u64| Metric::higher(name(m), v as f64, "count", MODEL_BOUND);
    vec![
        count("frames", s.frames),
        bytes("payload_bytes", s.payload_bytes),
        bytes("raw_mask_bytes", s.raw_mask_bytes),
        bytes("rle_mask_bytes", s.rle_mask_bytes),
        bytes("mask_bytes_written", s.mask_bytes_written),
        count("rle_frames", s.rle_frames),
        bytes("container_bytes", s.container_bytes),
        Metric::lower(
            name("mask_compression"),
            s.rle_mask_bytes as f64 / (s.raw_mask_bytes.max(1)) as f64,
            "ratio",
            MODEL_BOUND,
        ),
        Metric::lower(
            name("container_overhead"),
            s.container_bytes as f64 / (s.payload_bytes + s.mask_bytes_written).max(1) as f64,
            "ratio",
            MODEL_BOUND,
        ),
        Metric::lower(name("read_s"), run.read_s, "s", TIMING_BOUND),
        Metric::lower(name("replay_s"), run.replay_s, "s", TIMING_BOUND),
        count("frames_replayed", run.frames_replayed as u64),
    ]
}

fn main() {
    let args = parse_args();
    let scale = Scale::from_env();

    let mut runs = Vec::new();
    for workload in ["slam", "pose", "face"] {
        for cycle_length in [5u64, 10, 15] {
            runs.push(measure(workload, cycle_length, args.frames));
        }
    }

    let rows: Vec<Vec<String>> = runs
        .iter()
        .map(|r| {
            let s = &r.stats;
            vec![
                r.workload.to_string(),
                format!("RP{}", r.cycle_length),
                s.frames.to_string(),
                s.payload_bytes.to_string(),
                s.raw_mask_bytes.to_string(),
                s.rle_mask_bytes.to_string(),
                format!("{:.2}x", s.raw_mask_bytes as f64 / s.rle_mask_bytes.max(1) as f64),
                format!("{}/{}", s.rle_frames, s.frames),
                s.container_bytes.to_string(),
            ]
        })
        .collect();
    print_table(
        &format!("Wire format ({}x{}, {} frames)", scale.width, scale.height, args.frames),
        &[
            "workload",
            "baseline",
            "frames",
            "payload B",
            "raw mask B",
            "rle mask B",
            "mask ratio",
            "rle frames",
            "container B",
        ],
        &rows,
    );

    BenchRecord::new(
        format!("wire_roundtrip ({}x{}, {} frames/run)", scale.width, scale.height, args.frames),
        runs.iter().flat_map(run_metrics).collect(),
    )
    .emit(args.out.as_deref());
}
