//! Host-noise diagnostics written into every run record: enough to tell
//! a run that fell into a slow or contended phase from the artifact
//! alone. None of these is an end-to-end metric.

use serde_json::{json, Value};

/// Counters read at the start and end of the timed phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct Snapshot {
    /// Nanoseconds this thread spent waiting on a runqueue.
    runqueue_wait_ns: Option<u64>,
    /// Steal ticks summed over all CPUs.
    steal_ticks: Option<u64>,
}

impl Snapshot {
    /// Reads the counters now. Missing `/proc` files leave them `None`.
    pub fn take() -> Self {
        let runqueue_wait_ns = std::fs::read_to_string("/proc/thread-self/schedstat")
            .ok()
            .and_then(|s| s.split_whitespace().nth(1)?.parse().ok());
        let steal_ticks = std::fs::read_to_string("/proc/stat").ok().and_then(|s| {
            let cpu = s.lines().find(|l| l.starts_with("cpu "))?;
            cpu.split_whitespace().nth(8)?.parse().ok()
        });
        Snapshot {
            runqueue_wait_ns,
            steal_ticks,
        }
    }
}

/// The commit the checkout was taken from, when it is a git checkout.
/// Reads `.git` directly instead of running git, so a checkout that is
/// not a repository never reports the commit of an enclosing one.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let resolved = match head.strip_prefix("ref: ") {
        Some(name) => std::fs::read_to_string(format!(".git/{name}"))
            .ok()
            .or_else(|| {
                std::fs::read_to_string(".git/packed-refs")
                    .ok()
                    .and_then(|packed| {
                        packed
                            .lines()
                            .find(|l| l.ends_with(name))
                            .and_then(|l| l.split_whitespace().next().map(str::to_string))
                    })
            })
            .unwrap_or_default(),
        None => head.to_string(),
    };
    let resolved = resolved.trim();
    if resolved.is_empty() {
        "unknown (not a git checkout)".to_string()
    } else {
        resolved.to_string()
    }
}

/// The host section of a run record. `pass_totals_s` are the wall times
/// of the run's whole passes; their median over their minimum is how
/// much slower a typical pass ran than the best one.
pub fn record(start: Snapshot, end: Snapshot, timed_wall_s: f64, pass_totals_s: &[f64]) -> Value {
    let best = pass_totals_s.iter().copied().fold(f64::INFINITY, f64::min);
    let median = crate::stats::median(pass_totals_s);
    let wait_s = match (start.runqueue_wait_ns, end.runqueue_wait_ns) {
        (Some(a), Some(b)) => Some(b.saturating_sub(a) as f64 / 1e9),
        _ => None,
    };
    json!({
        "nproc": std::thread::available_parallelism().map_or(0, usize::from),
        "rustc": env!("PERFBENCH_RUSTC_VERSION"),
        "commit": commit(),
        "passes": pass_totals_s.len(),
        "median_pass_over_best_pass": median.map(|m| m / best),
        "runqueue_wait_s": wait_s,
        "runqueue_wait_frac": wait_s.map(|w| w / timed_wall_s),
        "steal_ticks": match (start.steal_ticks, end.steal_ticks) {
            (Some(a), Some(b)) => Some(b.saturating_sub(a)),
            _ => None,
        },
        "timed_wall_s": timed_wall_s,
    })
}
