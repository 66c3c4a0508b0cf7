//! The benchmark's arithmetic: best-of-passes reduction, exact order
//! statistics, the tail-percentile rule and throughput.

/// The percentiles a tail may be reported at, highest first.
const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Folds one pass into the running per-frame best: frame `i` keeps
/// whichever pass had the smallest `key` there (earlier passes win
/// ties). Passes time the same frames in the same order, so frame `i`
/// is the same work in every pass. Returns `false`, leaving `best`
/// alone, when the pass has a different frame count and so cannot be
/// paired.
pub fn keep_best<T: Copy>(best: &mut Vec<T>, pass: &[T], key: impl Fn(&T) -> f64) -> bool {
    if best.is_empty() {
        best.extend_from_slice(pass);
        return true;
    }
    if best.len() != pass.len() {
        return false;
    }
    for (b, p) in best.iter_mut().zip(pass) {
        if key(p) < key(b) {
            *b = *p;
        }
    }
    true
}

/// The exact nearest-rank order statistic: the smallest sample with at
/// least `q` percent of the samples at or below it, i.e. the
/// `ceil(q/100 · n)`-th smallest. No interpolation, so the value is
/// always one that was measured.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() || !(0.0..=100.0).contains(&q) {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = rank_of(q, sorted.len());
    Some(sorted[rank.max(1) - 1])
}

/// `ceil(q/100 · n)` computed without floating-point rounding surprises
/// (99.9 % of 1000 is rank 999, not 1000).
fn rank_of(q: f64, n: usize) -> usize {
    let milli = (q * 10.0).round() as u128;
    let num = milli * n as u128;
    num.div_ceil(1000) as usize
}

/// The highest ladder percentile with at least [`TAIL_MIN_BEYOND`]
/// samples strictly beyond its order statistic, for `n` samples.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .copied()
        .find(|&q| n.saturating_sub(rank_of(q, n)) >= TAIL_MIN_BEYOND)
}

/// Median by the same nearest-rank rule as [`percentile`].
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

/// Throughput of a run: total frames over total time. Frames of several
/// sessions sharing one clock are summed, never their per-session
/// rates, which would count the same wall time once per session.
pub fn frames_per_s(total_frames: usize, total_seconds: f64) -> Option<f64> {
    (total_seconds > 0.0 && total_frames > 0).then(|| total_frames as f64 / total_seconds)
}

/// 64-bit FNV-1a, continued from `h`.
pub fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV-1a's starting value.
pub const FNV_START: u64 = 0xcbf2_9ce4_8422_2325;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keep_best_takes_each_frames_fastest_pass() {
        let passes = [
            vec![3.0, 1.0, 5.0],
            vec![2.0, 4.0, 5.0],
            vec![9.0, 9.0, 0.5],
        ];
        let mut best = Vec::new();
        for p in &passes {
            assert!(keep_best(&mut best, p, |&v| v));
        }
        assert_eq!(best, vec![2.0, 1.0, 0.5]);
        // The sum of per-frame bests is never above the best pass total.
        let best_total: f64 = best.iter().sum();
        let best_pass = passes
            .iter()
            .map(|p| p.iter().sum::<f64>())
            .fold(f64::INFINITY, f64::min);
        assert!(best_total <= best_pass);
    }

    #[test]
    fn keep_best_moves_whole_records_and_refuses_unpaired_passes() {
        // Records are chosen by their key and kept whole, so a frame's
        // layer times always come from one pass.
        let mut best = vec![(2.0, 'a'), (2.0, 'a')];
        assert!(keep_best(&mut best, &[(1.0, 'b'), (2.0, 'b')], |r| r.0));
        assert_eq!(best, vec![(1.0, 'b'), (2.0, 'a')]);
        assert!(!keep_best(&mut best, &[(0.0, 'c')], |r| r.0));
        assert_eq!(best, vec![(1.0, 'b'), (2.0, 'a')]);
    }

    #[test]
    fn percentile_is_an_exact_order_statistic() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), Some(5.0));
        assert_eq!(percentile(&s, 90.0), Some(9.0));
        assert_eq!(percentile(&s, 91.0), Some(10.0));
        assert_eq!(percentile(&s, 100.0), Some(10.0));
        assert_eq!(percentile(&s, 0.0), Some(1.0));
        assert_eq!(percentile(&[], 50.0), None);
        let shuffled = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&shuffled), Some(2.0));
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&thousand, 99.9), Some(999.0));
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        for n in [20, 57, 100, 240, 1000, 5000] {
            let q = tail_percentile(n).unwrap();
            let samples: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let v = percentile(&samples, q).unwrap();
            let beyond = samples.iter().filter(|&&s| s > v).count();
            assert!(beyond >= TAIL_MIN_BEYOND, "n={n} q={q} beyond={beyond}");
        }
    }

    /// Eight time-sliced streams of 46 frames each share 0.54 s of wall
    /// time. Adding up their per-stream rates reports ~2731 frames/s;
    /// the truth is 368 frames / 0.54 s ≈ 681 frames/s.
    #[test]
    fn multi_session_throughput_is_total_frames_over_total_time() {
        let per_session_frames = 46;
        let per_session_busy_s = 0.1347;
        let summed_rates: f64 = (0..8)
            .map(|_| per_session_frames as f64 / per_session_busy_s)
            .sum();
        let truth = frames_per_s(8 * per_session_frames, 0.54).unwrap();
        assert!((truth - 681.48).abs() < 0.01, "{truth}");
        assert!(summed_rates > 2700.0, "{summed_rates}");
        assert_eq!(frames_per_s(0, 1.0), None);
        assert_eq!(frames_per_s(5, 0.0), None);
    }
}
