//! Order statistics over samples.

/// The `q`-quantile (0..=1) of `samples` by linear interpolation between
/// closest ranks; `None` for an empty sample.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// The median of `samples` (0 for an empty sample).
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5).unwrap_or(0.0)
}

/// The `q`-quantile, or 0 for an empty sample.
pub fn q_or_zero(samples: &[f64], q: f64) -> f64 {
    quantile(samples, q).unwrap_or(0.0)
}

/// Which samples of a run count. The run is cut into windows of
/// `window_ns`, and a sample taken at `at_ns` counts when its window lost
/// little CPU time to other tenants (see `steal`): no more than `allowed`
/// ticks, or, when fewer than a quarter of the windows are that clean, no
/// more than the cleanest quarter of the windows lost. The statistics pool
/// the samples that count, so a stall the program itself causes moves a
/// percentile by the share of requests it delays, however few windows it
/// falls in.
pub struct Clean {
    ticks: Vec<u64>,
    window_ns: u64,
    limit: u64,
}

impl Clean {
    /// `ticks` holds the steal ticks of each window of the run.
    pub fn new(ticks: Vec<u64>, allowed: u64, window_ns: u64) -> Clean {
        let mut sorted = ticks.clone();
        sorted.sort_unstable();
        let quarter = sorted.get(sorted.len().saturating_sub(1) / 4).copied();
        Clean {
            ticks,
            window_ns: window_ns.max(1),
            limit: quarter.map_or(allowed, |q| q.max(allowed)),
        }
    }

    /// Whether a sample taken at `at_ns` counts.
    pub fn keeps(&self, at_ns: u64) -> bool {
        self.ticks
            .get((at_ns / self.window_ns) as usize)
            .is_none_or(|&t| t <= self.limit)
    }

    /// Windows whose samples count.
    pub fn windows_kept(&self) -> usize {
        self.ticks.iter().filter(|&&t| t <= self.limit).count()
    }

    /// The `q`-quantile of the `(at_ns, value)` samples that count (0 when
    /// none do).
    pub fn quantile(&self, samples: &[(u64, f64)], q: f64) -> f64 {
        let kept: Vec<f64> = samples
            .iter()
            .filter(|&&(at, _)| self.keeps(at))
            .map(|&(_, v)| v)
            .collect();
        q_or_zero(&kept, q)
    }

    /// Σ`num` ÷ Σ`den` over the `(at_ns, num, den)` samples that count (0
    /// when their `den` sums to 0).
    pub fn rate(&self, samples: &[(u64, f64, f64)]) -> f64 {
        let (num, den) = samples
            .iter()
            .filter(|&&(at, _, _)| self.keeps(at))
            .fold((0.0, 0.0), |(n, d), &(_, num, den)| (n + num, d + den));
        if den > 0.0 {
            num / den
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let s = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&s, 0.0), Some(1.0));
        assert_eq!(quantile(&s, 1.0), Some(4.0));
        assert_eq!(median(&s), 2.5);
        assert_eq!(quantile(&[], 0.5), None);
    }

    /// Ten windows of ten samples `0..10`; the windows in `slow` read 100.
    fn load(slow: &[u64]) -> Vec<(u64, f64)> {
        let mut samples = Vec::new();
        for w in 0..10u64 {
            for i in 0..10u64 {
                let value = if slow.contains(&w) { 100.0 } else { i as f64 };
                samples.push((w * 1000 + i, value));
            }
        }
        samples
    }

    #[test]
    fn windows_that_lost_cpu_time_are_left_out() {
        // Window 1 is slow and lost 5 ticks to steal; 1 tick is allowed.
        let samples = load(&[1]);
        let mut ticks = vec![0; 10];
        ticks[1] = 5;
        ticks[4] = 1;
        let clean = Clean::new(ticks, 1, 1000);
        assert_eq!(clean.windows_kept(), 9);
        let p90 = clean.quantile(&samples, 0.9);
        assert!((p90 - 8.1).abs() < 1e-9, "{p90}");
    }

    #[test]
    fn under_steal_throughout_the_cleanest_quarter_counts() {
        // Every window lost time; windows 6..10 lost the least.
        let ticks = vec![9, 8, 9, 7, 9, 8, 3, 2, 3, 2];
        let clean = Clean::new(ticks, 0, 1000);
        assert_eq!(clean.windows_kept(), 4);
        assert!(clean.keeps(6_500) && !clean.keeps(5_500));
    }

    #[test]
    fn a_stall_in_a_minority_of_clean_windows_moves_the_p90() {
        // Two windows of ten are slow, but steal hit neither: a fifth of
        // the requests are slow, so the p90 must read slow.
        let samples = load(&[3, 7]);
        let p90 = Clean::new(vec![0; 10], 0, 1000).quantile(&samples, 0.9);
        assert_eq!(p90, 100.0);
    }

    #[test]
    fn rates_pool_the_clean_samples() {
        let samples = [(0, 1.0, 1.0), (10, 3.0, 1.0), (1000, 100.0, 1.0)];
        let clean = Clean::new(vec![0, 4, 4, 4], 0, 1000);
        assert_eq!(clean.rate(&samples), 2.0);
        assert_eq!(Clean::new(Vec::new(), 0, 1000).rate(&[]), 0.0);
    }
}
