//! Order statistics and the seeded arrival schedule.

use mersit_tensor::Rng;

/// Nearest-rank percentile: the smallest sample with at least `q` of the
/// samples at or below it (`q` in `[0, 1]`). `None` for no samples.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Nearest-rank median.
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(values, 0.5)
}

/// A running mean that keeps no samples.
#[derive(Debug, Default, Clone, Copy)]
pub struct Mean {
    sum: f64,
    n: u64,
}

impl Mean {
    pub fn add(&mut self, x: f64) {
        self.sum += x;
        self.n += 1;
    }

    /// `None` for no samples.
    pub fn get(self) -> Option<f64> {
        (self.n > 0).then(|| self.sum / self.n as f64)
    }
}

impl FromIterator<f64> for Mean {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut m = Self::default();
        for x in iter {
            m.add(x);
        }
        m
    }
}

/// Completion counts of a closed-loop phase in whole windows of `width`
/// seconds from the phase start; only the counts are kept.
#[derive(Debug, Clone)]
pub struct Windows {
    width: f64,
    counts: Vec<u64>,
}

impl Windows {
    pub fn new(width: f64) -> Self {
        assert!(width > 0.0, "window width must be positive");
        Self {
            width,
            counts: Vec::new(),
        }
    }

    /// Counts one completion `t` seconds after the phase start.
    pub fn add(&mut self, t: f64) {
        let w = (t / self.width).floor();
        if w >= 0.0 {
            let w = w as usize;
            if w >= self.counts.len() {
                self.counts.resize(w + 1, 0);
            }
            self.counts[w] += 1;
        }
    }

    /// Completions per second over a phase of `span` seconds: the median
    /// window, with the first window (the ramp) and any partial last
    /// window dropped. `None` when fewer than two whole windows fit.
    pub fn rate(&self, span: f64) -> Option<f64> {
        let whole = (span / self.width).floor() as usize;
        if whole < 2 {
            return None;
        }
        let counts: Vec<f64> = (1..whole)
            .map(|w| self.counts.get(w).copied().unwrap_or(0) as f64)
            .collect();
        median(&counts).map(|c| c / self.width)
    }
}

/// Poisson arrivals: exponential gaps with mean `1 / rate`, drawn from a
/// generator seeded by the caller. Yields arrival offsets in seconds.
#[derive(Debug, Clone)]
pub struct Schedule {
    rng: Rng,
    rate: f64,
    t: f64,
}

impl Schedule {
    pub fn new(rng: Rng, rate: f64) -> Self {
        assert!(rate > 0.0, "arrival rate must be positive");
        Self { rng, rate, t: 0.0 }
    }
}

impl Iterator for Schedule {
    type Item = f64;

    fn next(&mut self) -> Option<f64> {
        // `uniform` is in [0, 1), so `1 - u` is in (0, 1] and the log is finite.
        self.t += -(1.0 - self.rng.uniform()).ln() / self.rate;
        Some(self.t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(5.0));
        assert_eq!(percentile(&v, 0.9), Some(9.0));
        assert_eq!(percentile(&v, 0.91), Some(10.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 1.0), Some(10.0));
        assert_eq!(percentile(&[7.0, 3.0, 5.0], 0.5), Some(5.0));
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(median(&[2.0, 1.0]), Some(1.0));
    }

    #[test]
    fn window_rate_drops_the_first_and_partial_windows() {
        // 10/s in window 0, 4/s in windows 1 and 3, 6/s in window 2, and
        // a partial window 4 that must be ignored.
        let (mut w1, mut w05) = (Windows::new(1.0), Windows::new(0.5));
        for (w, n) in [(0, 10), (1, 4), (2, 6), (3, 4), (4, 50)] {
            for i in 0..n {
                let t = f64::from(w) + f64::from(i) / f64::from(n);
                w1.add(t);
                w05.add(t);
            }
        }
        assert_eq!(w1.rate(4.5), Some(4.0));
        assert_eq!(w05.rate(4.5), Some(4.0));
        assert_eq!(w1.rate(1.5), None);
        assert_eq!(Windows::new(1.0).rate(3.0), Some(0.0));
        assert_eq!(Mean::default().get(), None);
        assert_eq!(
            [1.0, 2.0, 6.0].into_iter().collect::<Mean>().get(),
            Some(3.0)
        );
    }

    #[test]
    fn poisson_schedule_is_seeded_and_has_the_requested_rate() {
        let a: Vec<f64> = Schedule::new(Rng::new(9), 200.0).take(20_000).collect();
        let b: Vec<f64> = Schedule::new(Rng::new(9), 200.0).take(20_000).collect();
        let c: Vec<f64> = Schedule::new(Rng::new(10), 200.0).take(20_000).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.windows(2).all(|w| w[1] > w[0]));
        let rate = a.len() as f64 / a[a.len() - 1];
        assert!((rate - 200.0).abs() < 200.0 * 0.03, "rate {rate}");
        // Exponential gaps: the coefficient of variation is about 1.
        let gaps: Vec<f64> = a.windows(2).map(|w| w[1] - w[0]).collect();
        let mu = gaps.iter().copied().collect::<Mean>().get().unwrap();
        let var = gaps.iter().map(|g| (g - mu) * (g - mu)).sum::<f64>() / gaps.len() as f64;
        assert!((var.sqrt() / mu - 1.0).abs() < 0.05);
    }
}
