//! Shared plumbing for the paper-reproduction binaries: experiment
//! scale selection, dataset construction, and table formatting.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the
//! paper; all of them honour the `RPR_SCALE` environment variable:
//!
//! * `RPR_SCALE=quick` (default) — small frames, short sequences;
//!   finishes in seconds and preserves every qualitative shape;
//! * `RPR_SCALE=full` — 640x480-class frames and longer sequences for
//!   tighter numbers.

#![deny(missing_docs)]

pub mod record;
pub mod report;

use rpr_workloads::{FaceDataset, PoseDataset, SlamDataset};

/// Sequence dimensions for one experiment scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Frame width.
    pub width: u32,
    /// Frame height.
    pub height: u32,
    /// Frames per sequence.
    pub frames: usize,
    /// Number of independent sequences (seeds) to average over.
    pub sequences: usize,
}

impl Scale {
    /// Reads `RPR_SCALE` from the environment (`quick` when unset or
    /// unrecognized).
    pub fn from_env() -> Scale {
        match std::env::var("RPR_SCALE").as_deref() {
            Ok("full") => Scale { width: 640, height: 480, frames: 121, sequences: 3 },
            _ => Scale { width: 256, height: 192, frames: 46, sequences: 2 },
        }
    }

    /// The SLAM dataset for sequence `seq` at this scale.
    pub fn slam(&self, seq: usize) -> SlamDataset {
        SlamDataset::new(self.width, self.height, self.frames, 1000 + seq as u64)
    }

    /// The pose dataset for sequence `seq` at this scale.
    pub fn pose(&self, seq: usize) -> PoseDataset {
        PoseDataset::new(self.width, self.height, self.frames, 2000 + seq as u64)
    }

    /// The face dataset for sequence `seq` at this scale.
    pub fn face(&self, seq: usize) -> FaceDataset {
        FaceDataset::new(self.width, self.height, self.frames, 4, 3000 + seq as u64)
    }
}

/// Mean and (population) standard deviation of a sample.
pub fn mean_std(values: &[f64]) -> (f64, f64) {
    if values.is_empty() {
        return (f64::NAN, f64::NAN);
    }
    let mean = values.iter().sum::<f64>() / values.len() as f64;
    let var =
        values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / values.len() as f64;
    (mean, var.sqrt())
}

/// Prints a fixed-width table: a header row followed by data rows.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    println!("\n=== {title} ===");
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:<w$}", c, w = widths.get(i).copied().unwrap_or(8) + 2))
            .collect::<String>()
    };
    println!("{}", fmt_row(&header.iter().map(|s| s.to_string()).collect::<Vec<_>>()));
    println!("{}", "-".repeat(widths.iter().map(|w| w + 2).sum()));
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpr_workloads::datasets::VideoDataset;

    #[test]
    fn quick_scale_is_default() {
        let s = Scale::from_env();
        assert!(s.width >= 128 && s.frames >= 20);
    }

    #[test]
    fn datasets_match_scale() {
        let s = Scale { width: 128, height: 96, frames: 10, sequences: 1 };
        assert_eq!(s.slam(0).width(), 128);
        assert_eq!(s.pose(0).len(), 10);
        assert_eq!(s.face(0).height(), 96);
    }

    #[test]
    fn mean_std_basics() {
        let (m, s) = mean_std(&[2.0, 4.0]);
        assert!((m - 3.0).abs() < 1e-12);
        assert!((s - 1.0).abs() < 1e-12);
        assert!(mean_std(&[]).0.is_nan());
    }
}
