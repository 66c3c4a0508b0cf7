//! Hot-path kernel throughput: every chunked kernel measured against
//! the scalar reference it is differentially tested against, plus the
//! combined pooled encode→decode pipeline against the per-pixel
//! streaming/reference pipeline.
//!
//! Usage:
//!
//! ```text
//! kernel_bench [--frames N] [--out FILE]
//! ```
//!
//! With `--out`, writes a `BenchRecord` with, per kernel, the scalar
//! and chunked MB/s and the `<kernel>_speedup` ratio (all higher is
//! better, 20 % bound) — that is how `BENCH_kernels.json` at the repo
//! root is produced, and what CI gates against
//! `ci/baseline_kernels.json` with `rpr-report gate`. The committed
//! baseline pins only the machine-portable speedup ratios, not
//! absolute MB/s.

use rpr_bench::record::{BenchRecord, Metric, TIMING_BOUND};
use rpr_bench::{print_table, Scale};
use rpr_core::kernels;
use rpr_core::{
    BufferPool, EncoderConfig, PixelStatus, ReconstructionMode, RegionLabel, RegionList,
    RhythmicEncoder, SoftwareDecoder, StreamingEncoder,
};
use rpr_frame::{GrayFrame, Plane};
use rpr_testkit::ReferenceDecoder;
use rpr_wire::{crc32, rle};
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
                println!("kernel_bench [--frames N] [--out FILE]");
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

/// Times `f` until at least 80 ms have accumulated (minimum 8 calls so
/// a single slow outlier cannot own the measurement) and returns MB/s
/// given `bytes` processed per call.
fn mb_per_s(bytes: usize, mut f: impl FnMut()) -> f64 {
    for _ in 0..3 {
        f();
    }
    let mut iters = 0u64;
    let t0 = Instant::now();
    loop {
        f();
        iters += 1;
        if iters >= 8 && t0.elapsed().as_secs_f64() >= 0.08 {
            break;
        }
    }
    let secs = t0.elapsed().as_secs_f64();
    (bytes as f64 * iters as f64) / secs / 1e6
}

fn textured_frame(w: u32, h: u32, seed: u32) -> GrayFrame {
    Plane::from_fn(w, h, |x, y| (x.wrapping_mul(31) ^ y.wrapping_mul(17) ^ seed) as u8)
}

/// Mixed-rhythm region set: full-rate, spatially strided, and
/// temporally skipped regions, so the mask holds all four status
/// classes and realistic run structure.
fn regions(w: u32, h: u32) -> RegionList {
    RegionList::new_lossy(
        w,
        h,
        vec![
            RegionLabel::new(2, 2, w / 2, h / 2, 1, 1),
            RegionLabel::new(w / 3, h / 3, w / 2, h / 2, 2, 1),
            RegionLabel::new(0, h / 2, w, h / 4, 1, 2),
        ],
    )
}

/// One scalar-vs-chunked measurement.
struct Pair {
    kernel: &'static str,
    scalar_mb_s: f64,
    chunked_mb_s: f64,
}

impl Pair {
    fn speedup(&self) -> f64 {
        self.chunked_mb_s / self.scalar_mb_s
    }
}

fn main() {
    let args = parse_args();
    let scale = Scale::from_env();
    let (w, h) = (scale.width, scale.height);
    let regions = regions(w, h);
    let frames: Vec<GrayFrame> = (0..4).map(|i| textured_frame(w, h, i)).collect();
    let pixels = (w * h) as usize;

    // One representative encoded frame supplies the mask, priority
    // rows, and payload every kernel chews on.
    let mut enc = RhythmicEncoder::new(w, h);
    let encoded = enc.encode(&frames[0], 1, &regions);
    let mask_bytes: Vec<u8> = encoded.metadata().mask.as_bytes().to_vec();
    let payload: Vec<u8> = encoded.pixels().to_vec();
    let row_pris: Vec<Vec<u8>> = (0..h)
        .map(|y| {
            (0..w).map(|x| encoded.metadata().mask.get(x, y).priority()).collect()
        })
        .collect();

    let mut runs = Vec::new();

    // Mask packing: priority rows into the 2-bit mask, one row per
    // call at the row's true (possibly misaligned) start entry.
    {
        let mut packed = vec![0u8; mask_bytes.len()];
        let row = |y: u32| (y as usize) * (w as usize);
        runs.push(Pair {
            kernel: "mask_pack",
            scalar_mb_s: mb_per_s(pixels, || {
                for (y, pri) in row_pris.iter().enumerate() {
                    kernels::pack_priority_row_scalar(&mut packed, row(y as u32), pri);
                }
                std::hint::black_box(&packed);
            }),
            chunked_mb_s: mb_per_s(pixels, || {
                for (y, pri) in row_pris.iter().enumerate() {
                    kernels::pack_priority_row(&mut packed, row(y as u32), pri);
                }
                std::hint::black_box(&packed);
            }),
        });
    }

    // Run scanning: the decoder's traversal of the packed mask into
    // (status, run-length) callbacks.
    runs.push(Pair {
        kernel: "run_scan",
        scalar_mb_s: mb_per_s(mask_bytes.len(), || {
            let mut acc = 0usize;
            kernels::for_each_run_scalar(&mask_bytes, 0, pixels, |_, run| acc += run);
            std::hint::black_box(acc);
        }),
        chunked_mb_s: mb_per_s(mask_bytes.len(), || {
            let mut acc = 0usize;
            kernels::for_each_run(&mask_bytes, 0, pixels, |_, run| acc += run);
            std::hint::black_box(acc);
        }),
    });

    // Regional gather: the encoder's payload compaction.
    {
        let mut out = Vec::with_capacity(pixels);
        runs.push(Pair {
            kernel: "gather",
            scalar_mb_s: mb_per_s(pixels, || {
                out.clear();
                for (y, pri) in row_pris.iter().enumerate() {
                    kernels::gather_regional_scalar(pri, frames[0].row(y as u32), &mut out);
                }
                std::hint::black_box(out.len());
            }),
            chunked_mb_s: mb_per_s(pixels, || {
                out.clear();
                for (y, pri) in row_pris.iter().enumerate() {
                    kernels::gather_regional(pri, frames[0].row(y as u32), &mut out);
                }
                std::hint::black_box(out.len());
            }),
        });
    }

    // RLE mask coding, both directions.
    {
        let mut out = Vec::new();
        rle::compress(&mask_bytes, pixels, &mut out);
        let compressed = out.clone();
        runs.push(Pair {
            kernel: "rle_compress",
            scalar_mb_s: mb_per_s(mask_bytes.len(), || {
                out.clear();
                rle::compress_scalar(&mask_bytes, pixels, &mut out);
                std::hint::black_box(out.len());
            }),
            chunked_mb_s: mb_per_s(mask_bytes.len(), || {
                out.clear();
                rle::compress(&mask_bytes, pixels, &mut out);
                std::hint::black_box(out.len());
            }),
        });
        let mut packed = Vec::new();
        runs.push(Pair {
            kernel: "rle_inflate",
            scalar_mb_s: mb_per_s(mask_bytes.len(), || {
                let v = rle::inflate_scalar(&compressed, pixels).expect("own compression");
                std::hint::black_box(v.len());
            }),
            chunked_mb_s: mb_per_s(mask_bytes.len(), || {
                rle::inflate_into(&compressed, pixels, &mut packed).expect("own compression");
                std::hint::black_box(packed.len());
            }),
        });
    }

    // CRC32 over the regional payload.
    runs.push(Pair {
        kernel: "crc32",
        scalar_mb_s: mb_per_s(payload.len(), || {
            std::hint::black_box(crc32::update_scalar(0xFFFF_FFFF, &payload));
        }),
        chunked_mb_s: mb_per_s(payload.len(), || {
            std::hint::black_box(crc32::update(0xFFFF_FFFF, &payload));
        }),
    });

    // Combined single-core encode→decode pipeline: the pooled chunked
    // path against the per-pixel streaming encoder + reference decoder
    // it is pinned to in the kernel-equivalence battery. This is the
    // ratio the ≥2x acceptance bar applies to.
    {
        let pool = BufferPool::new();
        let mut enc = RhythmicEncoder::with_pool(w, h, EncoderConfig::default(), pool.clone());
        let mut dec = SoftwareDecoder::with_pool(w, h, ReconstructionMode::BlockNearest, pool);
        let mut idx = 0u64;
        let chunked = mb_per_s(pixels * args.frames, || {
            for _ in 0..args.frames {
                let frame = &frames[(idx % 4) as usize];
                let e = enc.encode(frame, idx, &regions);
                let out = dec.decode_owned(e);
                dec.recycle_output(out);
                idx += 1;
            }
        });

        let mut refdec = ReferenceDecoder::new(w, h, ReconstructionMode::BlockNearest);
        let mut idx = 0u64;
        let scalar = mb_per_s(pixels * args.frames, || {
            for _ in 0..args.frames {
                let frame = &frames[(idx % 4) as usize];
                let mut stream = StreamingEncoder::begin(w, h, idx, regions.clone());
                for y in 0..h {
                    for &v in frame.row(y) {
                        let _: PixelStatus = stream.push(v);
                    }
                }
                let e = stream.finish();
                std::hint::black_box(refdec.decode(&e).as_slice().len());
                idx += 1;
            }
        });
        runs.push(Pair { kernel: "pipeline", scalar_mb_s: scalar, chunked_mb_s: chunked });
    }

    let rows: Vec<Vec<String>> = runs
        .iter()
        .map(|p| {
            vec![
                p.kernel.to_string(),
                format!("{:.1}", p.scalar_mb_s),
                format!("{:.1}", p.chunked_mb_s),
                format!("{:.2}x", p.speedup()),
            ]
        })
        .collect();
    print_table(
        &format!("Hot-path kernels ({w}x{h}, pipeline x{} frames)", args.frames),
        &["kernel", "scalar MB/s", "chunked MB/s", "speedup"],
        &rows,
    );

    let metrics = runs
        .iter()
        .flat_map(|p| {
            let name = |m: &str| format!("{}_{m}", p.kernel);
            [
                Metric::higher(name("scalar_mb_s"), p.scalar_mb_s, "MB/s", TIMING_BOUND),
                Metric::higher(name("chunked_mb_s"), p.chunked_mb_s, "MB/s", TIMING_BOUND),
                Metric::higher(name("speedup"), p.speedup(), "ratio", TIMING_BOUND),
            ]
        })
        .collect();
    BenchRecord::new(
        format!("kernel_bench ({w}x{h} mixed-rhythm regions, pipeline x{} frames)", args.frames),
        metrics,
    )
    .emit(args.out.as_deref());
}
