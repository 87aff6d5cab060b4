//! Small measurement helpers: order statistics, the spin probe that
//! measures the host's effective parallelism, peak resident memory and
//! a stable digest of the generated inputs.

use std::time::Instant;

/// Median of `values` (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The `q`-quantile of `values` by linear interpolation between order
/// statistics (0 for an empty slice).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Arithmetic mean (0 for an empty slice).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Nanoseconds between two instants.
pub fn nanos(from: Instant, to: Instant) -> u64 {
    u64::try_from(to.saturating_duration_since(from).as_nanos()).unwrap_or(u64::MAX)
}

/// `std::thread::available_parallelism`, or 1 when unknown.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A fixed amount of integer work that the optimizer cannot remove.
fn spin(iterations: u64) -> u64 {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..iterations {
        x = std::hint::black_box(x.rotate_left(7) ^ i).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    }
    x
}

/// Effective parallelism: how many of the `available_parallelism`
/// threads actually run at once. Times one spin loop alone, then the
/// same loop on every available thread at once, and returns
/// `threads · t_alone / t_together` (median of three tries each).
pub fn effective_parallelism() -> f64 {
    const ITERATIONS: u64 = 20_000_000;
    let threads = available_parallelism();
    let time = |threads: usize| {
        let start = Instant::now();
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|_| s.spawn(|| std::hint::black_box(spin(ITERATIONS))))
                .collect();
            for h in handles {
                h.join().expect("spin thread does not panic");
            }
        });
        start.elapsed().as_secs_f64()
    };
    let alone: Vec<f64> = (0..3).map(|_| time(1)).collect();
    let together: Vec<f64> = (0..3).map(|_| time(threads)).collect();
    threads as f64 * median(&alone) / median(&together)
}

/// Clock ticks per second of `/proc/stat` (`USER_HZ`, 100 on Linux).
const CLOCK_TICKS_PER_S: f64 = 100.0;

/// CPU time the hypervisor has stolen from this machine's CPUs so far
/// (the `steal` column of `/proc/stat`, in clock ticks).
fn steal_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    stat.lines().next()?.split_whitespace().nth(8)?.parse().ok()
}

/// Measures the share of the machine's CPU time the hypervisor steals
/// over an interval: a high share means the interval measured a
/// contended host, not the program.
pub struct StealMeter {
    started: Instant,
    ticks: Option<u64>,
}

impl StealMeter {
    /// Starts an interval.
    pub fn start() -> StealMeter {
        StealMeter {
            started: Instant::now(),
            ticks: steal_ticks(),
        }
    }

    /// Stolen share of all CPUs' time since `start`, in percent (0
    /// where `/proc/stat` is unavailable).
    pub fn pct(&self) -> f64 {
        let (Some(before), Some(after)) = (self.ticks, steal_ticks()) else {
            return 0.0;
        };
        let cpu_ticks = self.started.elapsed().as_secs_f64()
            * CLOCK_TICKS_PER_S
            * available_parallelism() as f64;
        after.saturating_sub(before) as f64 * 100.0 / cpu_ticks.max(1e-9)
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `None`
/// where `/proc` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// 64-bit FNV-1a, folded over every line of the generated inputs: two
/// runs with equal digests replayed identical request sequences.
#[derive(Clone, Copy, Debug)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    /// Folds `bytes` (and a terminator, so `["ab","c"]` ≠ `["a","bc"]`).
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes.iter().chain(std::iter::once(&0xFF)) {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01B3);
        }
    }

    /// The digest as 16 hex digits.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn digest_separates_lines() {
        let mut a = Digest::default();
        a.update(b"ab");
        a.update(b"c");
        let mut b = Digest::default();
        b.update(b"a");
        b.update(b"bc");
        assert_ne!(a.hex(), b.hex());
    }
}
