//! Stolen CPU time: on a shared virtual machine the hypervisor now and then
//! runs other tenants on this machine's CPUs. The VM's kernel counts that
//! time as `steal` in `/proc/stat`. It comes in bursts, and a burst slows
//! every request in flight by as much as the whole change a benchmark is
//! meant to detect, so the load is sampled for it and the windows of the
//! run it hit are left out of the statistics (see `stats::Clean`).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Kernel clock ticks per second in `/proc/stat` (`USER_HZ`, 100 on Linux).
const TICKS_PER_S: f64 = 100.0;

/// How often the sampler reads `/proc/stat`.
const PERIOD: Duration = Duration::from_millis(10);

/// The VM's total steal ticks, or `None` where `/proc/stat` has none.
pub fn ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let cpu = stat.lines().find(|l| l.starts_with("cpu "))?;
    cpu.split_ascii_whitespace().nth(8)?.parse().ok()
}

/// A background thread sampling steal ticks while a load runs.
pub struct Sampler {
    stop: Arc<AtomicBool>,
    thread: JoinHandle<Vec<(u64, u64)>>,
}

impl Sampler {
    /// Start sampling; sample times count from `start`.
    pub fn start(start: Instant) -> Sampler {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            let mut samples = Vec::new();
            while !flag.load(Ordering::Relaxed) {
                if let Some(ticks) = ticks() {
                    samples.push((start.elapsed().as_nanos() as u64, ticks));
                }
                std::thread::sleep(PERIOD);
            }
            if let Some(ticks) = ticks() {
                samples.push((start.elapsed().as_nanos() as u64, ticks));
            }
            samples
        });
        Sampler { stop, thread }
    }

    /// Stop sampling and wait for the sampler thread.
    pub fn finish(self) -> Log {
        self.stop.store(true, Ordering::Relaxed);
        Log(self.thread.join().expect("steal sampler panicked"))
    }
}

/// `(ns after the start of the load, total steal ticks)` samples.
#[derive(Clone, Debug, Default)]
pub struct Log(pub Vec<(u64, u64)>);

impl Log {
    /// Seconds of CPU time stolen over the whole load, summed over CPUs.
    pub fn total_s(&self) -> f64 {
        match (self.0.first(), self.0.last()) {
            (Some(a), Some(b)) => (b.1 - a.1) as f64 / TICKS_PER_S,
            _ => 0.0,
        }
    }

    /// Steal ticks in each of the first `windows` windows of `window_ns`. A
    /// window that outlasts the samples counts up to the last one; without
    /// samples every window lost 0.
    pub fn window_ticks(&self, window_ns: u64, windows: u64) -> Vec<u64> {
        (0..windows)
            .map(|w| {
                let (from, to) = (w * window_ns, (w + 1) * window_ns);
                let before = self.0.iter().rev().find(|s| s.0 <= from);
                let after = self.0.iter().find(|s| s.0 >= to).or(self.0.last());
                match (before, after) {
                    (Some(a), Some(b)) => b.1 - a.1,
                    _ => 0,
                }
            })
            .collect()
    }
}

/// Steal ticks a window of `window_ns` may lose and still count as clean:
/// 1 % of the machine's CPU time.
pub fn allowance(window_ns: u64) -> u64 {
    let cpus = std::thread::available_parallelism()
        .map(usize::from)
        .unwrap_or(1) as f64;
    (window_ns as f64 / 1e9 * cpus * TICKS_PER_S * 0.01).floor() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steal_is_counted_per_window() {
        // Ticks jump by 5 between 1.0 s and 1.2 s.
        let log = Log(vec![
            (0, 10),
            (500_000_000, 10),
            (1_000_000_000, 10),
            (1_200_000_000, 15),
            (3_000_000_000, 15),
        ]);
        assert_eq!(log.window_ticks(1_000_000_000, 3), [0, 5, 0]);
        // The last window outlasts the samples and counts up to the last.
        let short = Log(vec![(0, 10), (1_000_000_000, 12), (1_500_000_000, 14)]);
        assert_eq!(short.window_ticks(1_000_000_000, 2), [2, 2]);
        assert_eq!(log.total_s(), 0.05);
    }

    #[test]
    fn without_samples_no_window_lost_time() {
        assert_eq!(Log::default().window_ticks(1, 3), [0, 0, 0]);
    }
}
