//! Small shared helpers: statistics, hashing, a seeded RNG, host probes.

use std::time::Instant;

/// Median of `xs` (mean of the middle two for even counts); 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile `q` in [0, 1] (R-7, the default of most
/// statistics packages); 0 when empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// FNV-1a 64-bit hash: a stable digest for simulated outputs and replies.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// SplitMix64: a tiny seeded generator for the benchmark's own inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform index in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in [0, 1).
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// SplitMix64 finaliser, also used to derive sub-seeds.
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Peak resident set (`VmHWM`) of process `pid` (`"self"` for this one),
/// in MB; 0 when `/proc` is unavailable.
pub fn peak_rss_mb(pid: &str) -> f64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Host cores the benchmark may use.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Median cost of one `Instant::now()` pair, subtracted from per-call
/// timings so that cheap operations are not dominated by the clock.
pub fn timer_overhead_ns() -> f64 {
    let mut xs = Vec::with_capacity(2001);
    for _ in 0..2001 {
        let t = Instant::now();
        xs.push(t.elapsed().as_nanos() as f64);
    }
    median(&xs)
}

/// Runs `f` repeatedly until at least `min_ms` have passed and returns
/// ns per call of `f`, where one call processes `per_call` items.
pub fn time_batched(min_ms: f64, per_call: usize, mut f: impl FnMut()) -> f64 {
    f(); // warm caches and lazy state
    let t = Instant::now();
    let mut calls = 0u64;
    while calls == 0 || t.elapsed().as_secs_f64() * 1e3 < min_ms {
        f();
        calls += 1;
    }
    t.elapsed().as_nanos() as f64 / (calls as f64 * per_call.max(1) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn rng_is_seeded() {
        let (mut a, mut b) = (Rng::new(7), Rng::new(7));
        assert_eq!(a.next_u64(), b.next_u64());
        assert!(a.unit() < 1.0);
    }
}
