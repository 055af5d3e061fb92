//! Host-side measurement helpers: the timed-pass loop, medians, peak
//! memory and the calibration kernel.

use std::hint::black_box;
use std::time::Instant;

/// Median of `xs` (mean of the middle pair for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Smallest of `xs` (infinity for none).
pub fn fastest(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Wall seconds `f` takes, with its result.
pub fn time<R>(f: impl FnOnce() -> R) -> (f64, R) {
    // Wall-clock measurement is this harness's purpose.
    #[allow(clippy::disallowed_methods)]
    let t0 = Instant::now();
    let r = f();
    (t0.elapsed().as_secs_f64(), r)
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A fixed integer kernel owned by the benchmark: the same work on every
/// commit, so its time tracks only the host's speed.
pub fn calib_kernel() -> u64 {
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut acc: u64 = 0;
    let mut table = [0u64; 256];
    for i in 0..2_000_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let slot = (x & 255) as usize;
        table[slot] = table[slot].wrapping_add(x ^ i);
        acc = acc.wrapping_add(table[(acc & 255) as usize]);
    }
    black_box(acc)
}

/// Times one part of a pass, appending its wall seconds to `parts`.
pub fn part<T>(parts: &mut Vec<f64>, f: impl FnOnce() -> T) -> T {
    let (wall, r) = time(f);
    parts.push(wall);
    r
}

/// Timings of one timed phase.
#[derive(Debug, Default)]
pub struct Passes {
    /// Wall seconds of each pass.
    pub walls: Vec<f64>,
    /// Wall seconds of each part of each pass.
    pub parts: Vec<Vec<f64>>,
    /// Wall milliseconds of the calibration kernel run after each pass.
    pub calib_ms: Vec<f64>,
    /// Passes whose output check failed.
    pub failed: u64,
}

/// Runs `pass` until `seconds` of wall time have gone by (and at least
/// `min_passes` times), timing each call. After each call it runs
/// `between` and the calibration kernel, outside the pass's timing.
/// `pass` times its parts with [`part`] and returns whether its output
/// checked out.
pub fn timed_passes(
    seconds: f64,
    min_passes: usize,
    mut pass: impl FnMut(&mut Vec<f64>) -> bool,
    mut between: impl FnMut(),
) -> Passes {
    let mut out = Passes::default();
    // Wall-clock measurement is this harness's purpose.
    #[allow(clippy::disallowed_methods)]
    let t0 = Instant::now();
    while out.walls.len() < min_passes || t0.elapsed().as_secs_f64() < seconds {
        let mut parts = Vec::new();
        let (wall, ok) = time(|| pass(&mut parts));
        out.walls.push(wall);
        out.parts.push(parts);
        out.failed += u64::from(!ok);
        between();
        out.calib_ms.push(time(calib_kernel).0 * 1e3);
    }
    out
}

impl Passes {
    /// The sum over parts of each part's fastest time across passes.
    ///
    /// The work is deterministic, and contention on the shared host only
    /// ever adds time, in episodes that slow a process by up to 1.7x for
    /// seconds to minutes; the fastest time of each part is the run's
    /// steadiest estimate of the code's own cost.
    pub fn best_parts_s(&self) -> f64 {
        let n = self.parts.first().map_or(0, Vec::len);
        (0..n)
            .map(|j| fastest(&self.parts.iter().map(|p| p[j]).collect::<Vec<_>>()))
            .sum()
    }
}
