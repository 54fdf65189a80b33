//! Timing helpers: nearest-rank percentiles that are only reported
//! when the sample supports them, and open-loop latency measured from
//! each request's due send time.

use std::time::{Duration, Instant};

/// Samples beyond a percentile needed before it is reported.
pub const MIN_BEYOND: usize = 10;

/// A percentile of a sample, by nearest rank.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// `None` when fewer than [`MIN_BEYOND`] samples lie beyond it.
    pub value: Option<f64>,
    /// Sample count.
    pub n: usize,
    /// Samples ranked above the percentile's rank.
    pub beyond: usize,
}

/// The `p`-th percentile (0 < p ≤ 100) of `samples` by nearest rank:
/// the value at 1-based rank ⌈p/100 · n⌉ of the sorted sample.
/// Reported only when at least [`MIN_BEYOND`] samples rank above it;
/// the median of any non-empty sample is always reported.
pub fn percentile(samples: &[f64], p: f64) -> Percentile {
    let n = samples.len();
    if n == 0 {
        return Percentile {
            value: None,
            n,
            beyond: 0,
        };
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n);
    let beyond = n - rank;
    let supported = beyond >= MIN_BEYOND || p <= 50.0;
    Percentile {
        value: supported.then(|| sorted[rank - 1]),
        n,
        beyond,
    }
}

/// The median by nearest rank (0 for an empty sample).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0).value.unwrap_or(0.0)
}

/// The largest sample (0 for an empty sample).
pub fn max(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(0.0, f64::max)
}

/// Wall and CPU times of repeated invocations, ms.
#[derive(Default)]
pub struct Timings {
    pub wall_ms: Vec<f64>,
    pub cpu_ms: Vec<f64>,
}

impl Timings {
    pub fn push(&mut self, wall: Duration, cpu: Duration) {
        self.wall_ms.push(wall.as_secs_f64() * 1e3);
        self.cpu_ms.push(cpu.as_secs_f64() * 1e3);
    }

    pub fn len(&self) -> usize {
        self.wall_ms.len()
    }
}

/// An open-loop send schedule: request `i` is due at
/// `start + i · interval`, whether or not earlier requests were
/// answered.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    pub start: Instant,
    pub interval: Duration,
}

impl Schedule {
    pub fn new(start: Instant, rate_per_s: f64) -> Self {
        Schedule {
            start,
            interval: Duration::from_secs_f64(1.0 / rate_per_s),
        }
    }

    pub fn due(&self, i: u64) -> Instant {
        self.start + self.interval.mul_f64(i as f64)
    }

    /// Latency of request `i` answered at `answered`, timed from when
    /// it was due — so a stall in the generator or the server is
    /// charged to every request it delayed, not only the first.
    pub fn latency(&self, i: u64, answered: Instant) -> Duration {
        answered.saturating_duration_since(self.due(i))
    }

    /// How late request `i` actually left, relative to its due time.
    pub fn lateness(&self, i: u64, sent: Instant) -> Duration {
        sent.saturating_duration_since(self.due(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_the_ceiling_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0).value, Some(50.0));
        assert_eq!(percentile(&v, 90.0).value, Some(90.0));
        assert_eq!(percentile(&v, 90.0).beyond, 10);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn percentile_with_only_nine_samples_beyond_is_not_reported() {
        // 99 samples: p90 sits at rank ⌈89.1⌉ = 90, leaving 9 above.
        let v: Vec<f64> = (1..=99).map(f64::from).collect();
        let p = percentile(&v, 90.0);
        assert_eq!(p.beyond, 9);
        assert_eq!(p.value, None);
        assert_eq!(p.n, 99);
        // One more sample puts the tenth beyond it.
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 90.0).value, Some(90.0));
        // p99 needs a thousand samples.
        let v: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(percentile(&v, 99.0).value, None);
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 99.0).value, Some(990.0));
    }

    #[test]
    fn late_generator_is_charged_from_the_due_time() {
        let start = Instant::now();
        // One request per 10 ms. The generator stalled: request 3 was
        // due at 30 ms but left at 55 ms and was answered at 57 ms.
        let s = Schedule::new(start, 100.0);
        let sent = start + Duration::from_millis(55);
        let answered = start + Duration::from_millis(57);
        assert_eq!(s.lateness(3, sent), Duration::from_millis(25));
        assert_eq!(s.latency(3, answered), Duration::from_millis(27));
        // A request sent early (never happens, but must not underflow).
        assert_eq!(s.lateness(9, start), Duration::ZERO);
    }
}
