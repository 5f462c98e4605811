//! Samples, percentiles and the metric maps a run reports.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Latency samples of one kind, in the unit they were recorded in.
#[derive(Debug, Default, Clone)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    pub fn push_us(&mut self, d: Duration) {
        self.push(d.as_secs_f64() * 1e6);
    }

    pub fn push_ms(&mut self, d: Duration) {
        self.push(d.as_secs_f64() * 1e3);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// The `q`-quantile by linear interpolation between closest ranks
    /// (0 when there are no samples).
    pub fn quantile(&self, q: f64) -> f64 {
        quantile(&self.0, q)
    }

    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }

    pub fn mean(&self) -> f64 {
        if self.0.is_empty() {
            0.0
        } else {
            self.sum() / self.0.len() as f64
        }
    }
}

pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Calibration time of a host taken as the reference speed.
pub const REFERENCE_SECS: f64 = 0.0025;

/// How much slower the host runs right now than the reference host: the
/// best of three timings of a fixed, std-only piece of work (hashing,
/// small allocations, lookups) over [`REFERENCE_SECS`]. Times divided
/// by it are times on the reference host. Other tenants of a shared host
/// slow it by up to 1.5x for seconds to minutes at a time; the engine
/// and this work slow down together, so the ratio cancels most of it.
pub fn host_slowdown() -> f64 {
    let once = || {
        let t = Instant::now();
        let mut m: std::collections::HashMap<u64, Vec<u64>> = std::collections::HashMap::new();
        for i in 0..20_000u64 {
            m.insert(i.wrapping_mul(0x9e37_79b9_7f4a_7c15), vec![i; 4]);
        }
        let mut sum = 0u64;
        for i in 0..40_000u64 {
            if let Some(v) = m.get(&i.wrapping_mul(0x9e37_79b9_7f4a_7c15)) {
                sum = sum.wrapping_add(v[0]);
            }
        }
        std::hint::black_box(sum);
        drop(std::hint::black_box(m));
        t.elapsed().as_secs_f64()
    };
    (0..3).map(|_| once()).fold(f64::INFINITY, f64::min) / REFERENCE_SECS
}

/// Time `f`, scaled to the reference host by the slowdown measured just
/// before it.
pub fn reference_secs<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let slowdown = host_slowdown();
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64() / slowdown)
}

/// One reported metric: value, unit and the number of samples behind it.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

/// Metrics by name, in a stable order.
#[derive(Debug, Default, Clone)]
pub struct Metrics(pub BTreeMap<String, Metric>);

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str, samples: usize) {
        self.0.insert(
            name.into(),
            Metric {
                value,
                unit,
                samples,
            },
        );
    }

    /// A percentile of `s`, with its sample count.
    pub fn pct(&mut self, name: &str, s: &Samples, q: f64, unit: &'static str) {
        self.set(name, s.quantile(q), unit, s.len());
    }
}

/// Wall clock of a timed phase that can be paused for oracle checks, so
/// the checks stay outside the measurement.
pub struct Stopwatch {
    start: Instant,
    paused: Duration,
}

impl Stopwatch {
    pub fn start() -> Self {
        Stopwatch {
            start: Instant::now(),
            paused: Duration::ZERO,
        }
    }

    /// Run `f` off the clock.
    pub fn pause<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.paused += t.elapsed();
        out
    }

    pub fn elapsed(&self) -> Duration {
        self.start.elapsed().saturating_sub(self.paused)
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_slowdown_is_positive_and_finite() {
        let s = host_slowdown();
        assert!(s > 0.0 && s.is_finite());
    }

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&v, 0.5), 2.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }
}
