//! A tiny microbenchmark harness for the `benches/` targets.
//!
//! The workspace builds offline without Criterion, so the `harness =
//! false` bench targets time themselves through this module: calibrate an
//! iteration count to a target sample duration, take several samples, and
//! report the median nanoseconds per iteration.

use std::time::{Duration, Instant};

/// Samples per measurement; the reported figure is their median.
const SAMPLES: usize = 7;

/// Target wall-clock duration of one sample.
const SAMPLE_TARGET: Duration = Duration::from_millis(40);

/// Result of one [`bench()`] measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measurement {
    /// Median nanoseconds per iteration across samples.
    pub median_ns: f64,
    /// Fastest sample's nanoseconds per iteration.
    pub min_ns: f64,
    /// Slowest sample's nanoseconds per iteration.
    pub max_ns: f64,
    /// Iterations per sample after calibration.
    pub iters: u64,
}

/// Times `f`, printing a Criterion-style summary line, and returns the
/// measurement. `label` conventionally uses `group/name` form.
pub fn bench<F: FnMut()>(label: &str, mut f: F) -> Measurement {
    let (iters, _) = calibrate(&mut f, SAMPLE_TARGET);
    let samples = (0..SAMPLES).map(|_| sample(&mut f, iters)).collect();
    summarize(label, samples, iters)
}

/// [`bench_against`]'s result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Paired {
    /// The measured closure.
    pub work: Measurement,
    /// The anchor, sampled alternately with it.
    pub anchor: Measurement,
    /// Median over sample pairs of the work's time per iteration divided
    /// by the anchor's: host speed cancels pair by pair.
    pub relative: f64,
}

/// Times `f` and `anchor` sample by sample: `anchor` is calibrated to
/// `f`'s sample length, then one sample of each alternates, so a host
/// that speeds up or slows down during the run moves both members of a
/// pair alike.
pub fn bench_against<F: FnMut(), A: FnMut()>(label: &str, mut f: F, mut anchor: A) -> Paired {
    let (iters, span) = calibrate(&mut f, SAMPLE_TARGET);
    let (anchor_iters, _) = calibrate(&mut anchor, span);
    let (mut work, mut base) = (Vec::new(), Vec::new());
    for _ in 0..SAMPLES {
        base.push(sample(&mut anchor, anchor_iters));
        work.push(sample(&mut f, iters));
    }
    let mut ratios: Vec<f64> = work.iter().zip(&base).map(|(w, a)| w / a).collect();
    ratios.sort_by(f64::total_cmp);
    Paired {
        work: summarize(label, work, iters),
        anchor: summarize(&format!("{label} (anchor)"), base, anchor_iters),
        relative: ratios[ratios.len() / 2],
    }
}

/// Grows the iteration count until one sample of `f` takes at least
/// `target`, long enough to time reliably. Returns the count and that
/// sample's duration.
fn calibrate<F: FnMut()>(f: &mut F, target: Duration) -> (u64, Duration) {
    let mut iters = 1u64;
    loop {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        let elapsed = start.elapsed();
        if elapsed >= target || iters >= 1 << 24 {
            return (iters, elapsed);
        }
        let grow = if elapsed.is_zero() {
            16
        } else {
            (target.as_nanos() / elapsed.as_nanos().max(1) + 1) as u64
        };
        iters = (iters * grow.clamp(2, 16)).min(1 << 24);
    }
}

/// Nanoseconds per iteration of one `iters`-iteration sample of `f`.
fn sample<F: FnMut()>(f: &mut F, iters: u64) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

/// Reduces per-iteration samples to a [`Measurement`] and prints it.
fn summarize(label: &str, mut per_iter: Vec<f64>, iters: u64) -> Measurement {
    per_iter.sort_by(|a, b| a.total_cmp(b));
    let m = Measurement {
        median_ns: per_iter[per_iter.len() / 2],
        min_ns: per_iter[0],
        max_ns: per_iter[per_iter.len() - 1],
        iters,
    };
    println!(
        "{label:<40} {:>12}/iter (min {}, max {}; {} iters x {SAMPLES} samples)",
        format_ns(m.median_ns),
        format_ns(m.min_ns),
        format_ns(m.max_ns),
        m.iters,
    );
    m
}

fn format_ns(ns: f64) -> String {
    if ns >= 1e6 {
        format!("{:.2}ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.2}us", ns / 1e3)
    } else {
        format!("{ns:.0}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_a_cheap_closure() {
        let mut x = 0u64;
        let m = bench("test/noop_add", || x = x.wrapping_add(1));
        assert!(m.iters > 1, "cheap closure must calibrate past 1 iter");
        assert!(m.median_ns >= 0.0);
        assert!(m.min_ns <= m.median_ns && m.median_ns <= m.max_ns);
    }

    #[test]
    fn anchor_samples_span_the_work_samples() {
        let (mut x, mut y) = (0u64, 0u64);
        let p = bench_against(
            "test/work",
            || {
                for _ in 0..64 {
                    x = std::hint::black_box(x.wrapping_add(1));
                }
            },
            || y = std::hint::black_box(y.wrapping_add(1)),
        );
        assert!(
            p.anchor.iters > p.work.iters,
            "a cheaper anchor runs more iterations"
        );
        assert!(p.relative > 1.0, "64 adds cost more than one");
    }

    #[test]
    fn formats_scales() {
        assert_eq!(format_ns(12.0), "12ns");
        assert_eq!(format_ns(1_500.0), "1.50us");
        assert_eq!(format_ns(2_500_000.0), "2.50ms");
    }
}
