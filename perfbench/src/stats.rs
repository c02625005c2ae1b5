//! The benchmark's own statistics: nearest-rank percentiles with the
//! "at least ten samples beyond" rule, medians, and the rate-ladder
//! rule behind `max_rate_rps`.

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Samples a p99 needs: [`MIN_BEYOND`] beyond the 99th percentile.
pub const MIN_SAMPLES: usize = 100 * MIN_BEYOND;

/// Nearest-rank percentile `p` (0..100) of an ascending slice, or
/// `None` when fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((p / 100.0) * n as f64).ceil().clamp(1.0, n as f64) as usize;
    (n - rank >= MIN_BEYOND).then(|| sorted[rank - 1])
}

/// Median of a sample (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// A latency distribution as the benchmark reports it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Latency {
    /// Samples the percentiles were taken over.
    pub samples: usize,
    /// Median, ms.
    pub p50_ms: f64,
    /// 99th percentile, ms.
    pub p99_ms: f64,
}

/// Summarises latencies (ms). Fails when the sample is too small for a
/// p99 with [`MIN_BEYOND`] samples beyond it, i.e. below 1000 samples.
pub fn latency(mut ms: Vec<f64>) -> Result<Latency, String> {
    ms.sort_by(f64::total_cmp);
    let p99 = percentile(&ms, 99.0).ok_or_else(|| {
        format!(
            "{} latency samples: a p99 needs at least {} beyond it",
            ms.len(),
            MIN_BEYOND
        )
    })?;
    Ok(Latency {
        samples: ms.len(),
        p50_ms: percentile(&ms, 50.0).expect("a p99 sample has a median"),
        p99_ms: p99,
    })
}

/// One rung of the serve workload's rate ladder.
#[derive(Debug, Clone, PartialEq)]
pub struct Rung {
    /// Offered rate, requests per second.
    pub rate: f64,
    /// Latency from each request's due time; `None` when the rung had
    /// too few completed samples for a p99.
    pub p99_ms: Option<f64>,
    /// Requests that failed, were refused, or got a wrong answer.
    pub failures: usize,
    /// How long after the last due time the last response arrived: a
    /// backlog that grows during the rung shows up here.
    pub drain_ms: f64,
}

impl Rung {
    /// Whether the rung meets the latency limit with no failures and no
    /// growing backlog.
    pub fn passes(&self, limit_ms: f64) -> bool {
        self.failures == 0
            && self.drain_ms <= limit_ms
            && self.p99_ms.is_some_and(|p| p <= limit_ms)
    }
}

/// The highest rate of an ascending ladder such that it and every rung
/// below it pass; 0 when the lowest rung already fails.
pub fn max_rate(ladder: &[Rung], limit_ms: f64) -> f64 {
    ladder
        .iter()
        .take_while(|r| r.passes(limit_ms))
        .last()
        .map_or(0.0, |r| r.rate)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ascending(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p99_needs_ten_samples_beyond() {
        // 1000 samples: rank 990, exactly ten beyond.
        assert_eq!(percentile(&ascending(1000), 99.0), Some(990.0));
        // 999 samples: rank 990, only nine beyond.
        assert_eq!(percentile(&ascending(999), 99.0), None);
        assert_eq!(percentile(&ascending(20), 50.0), Some(10.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn latency_reports_its_sample_count() {
        let mut v = ascending(2000);
        v.reverse();
        let l = latency(v).unwrap();
        assert_eq!(l.samples, 2000);
        assert_eq!(l.p50_ms, 1000.0);
        assert_eq!(l.p99_ms, 1980.0);
        assert!(latency(ascending(999)).is_err());
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    fn rung(rate: f64, p99: Option<f64>, failures: usize, drain: f64) -> Rung {
        Rung {
            rate,
            p99_ms: p99,
            failures,
            drain_ms: drain,
        }
    }

    #[test]
    fn ladder_takes_the_highest_rung_below_the_first_failure() {
        let limit = 50.0;
        let ladder = [
            rung(100.0, Some(10.0), 0, 5.0),
            rung(200.0, Some(20.0), 0, 8.0),
            rung(300.0, Some(80.0), 0, 9.0), // p99 over the limit
            rung(400.0, Some(10.0), 0, 5.0), // a pass after a failure does not count
        ];
        assert_eq!(max_rate(&ladder, limit), 200.0);
        // A refused request fails the rung whatever its latency.
        assert_eq!(max_rate(&[rung(100.0, Some(1.0), 1, 1.0)], limit), 0.0);
        // A growing backlog fails it too.
        assert_eq!(
            max_rate(
                &[
                    rung(100.0, Some(1.0), 0, 1.0),
                    rung(200.0, Some(40.0), 0, 900.0)
                ],
                limit
            ),
            100.0
        );
        // So does a rung too short for a p99.
        assert_eq!(max_rate(&[rung(100.0, None, 0, 1.0)], limit), 0.0);
        assert_eq!(max_rate(&ladder[..2], limit), 200.0);
    }
}
