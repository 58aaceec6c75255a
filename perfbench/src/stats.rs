//! Sample statistics, wall-clock timing, the seeded input generator and the
//! process memory reading shared by every workload.

use std::time::Instant;

/// Milliseconds elapsed since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Run `f` and return its result with its wall time in milliseconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let value = f();
    (value, ms_since(t))
}

/// A set of measurements of one quantity.
#[derive(Debug, Clone, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    /// The samples in the order taken.
    pub fn values(&self) -> &[f64] {
        &self.0
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    fn sorted(&self, what: &str) -> Vec<f64> {
        assert!(!self.0.is_empty(), "no samples of {what}");
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    pub fn median(&self, what: &str) -> f64 {
        let v = self.sorted(what);
        let n = v.len();
        if n % 2 == 1 {
            v[n / 2]
        } else {
            (v[n / 2 - 1] + v[n / 2]) / 2.0
        }
    }

    pub fn mean(&self, what: &str) -> f64 {
        let v = self.sorted(what);
        v.iter().sum::<f64>() / v.len() as f64
    }

    pub fn max(&self, what: &str) -> f64 {
        *self.sorted(what).last().expect("non-empty")
    }

    /// The run's tail latency, with its percentile and window count.
    ///
    /// The samples, in the order taken, are cut into consecutive windows of
    /// `TAIL_WINDOW` (one window below twice that). In each window the tail
    /// is the highest whole percentile with at least ten samples beyond it
    /// (nearest rank). The run's tail is the lower quartile of the window
    /// tails: a value at least three windows in four reach. Interference
    /// from other tenants of the machine inflates some windows and not
    /// others; a tail the program causes itself shows in every window.
    pub fn tail(&self, what: &str) -> (u32, f64, usize) {
        assert!(!self.0.is_empty(), "no samples of {what}");
        let windows = (self.0.len() / TAIL_WINDOW).max(1);
        let mut tails = Vec::with_capacity(windows);
        let mut percentile = 0;
        for w in 0..windows {
            let end = if w + 1 == windows {
                self.0.len()
            } else {
                (w + 1) * TAIL_WINDOW
            };
            let (p, v) = window_tail(&self.0[w * TAIL_WINDOW..end]);
            tails.push(v);
            percentile = p;
        }
        tails.sort_by(f64::total_cmp);
        (percentile, tails[windows / 4], windows)
    }
}

/// Operations per window of [`Samples::tail`].
const TAIL_WINDOW: usize = 1000;

/// The highest whole percentile of `samples` with at least ten samples
/// beyond it (nearest rank), with that percentile. Below twenty samples no
/// percentile above the median qualifies, so the median rank is used.
pub fn window_tail(samples: &[f64]) -> (u32, f64) {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    for p in (51..=99u32).rev() {
        let rank = (p as usize * n).div_ceil(100).max(1);
        if n - rank >= 10 {
            return (p, v[rank - 1]);
        }
    }
    (50, v[n.div_ceil(2) - 1])
}

/// SplitMix64: the benchmark's only source of randomness, so a seed fixes
/// every generated input.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in 0..n.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// Peak resident set size of this process (VmHWM), in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(n: usize) -> Samples {
        let mut s = Samples::default();
        for i in 1..=n {
            s.push(i as f64);
        }
        s
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        assert_eq!(samples(1999).tail("x"), (99, 1980.0, 1));
        assert_eq!(samples(100).tail("x"), (90, 90.0, 1));
        assert_eq!(samples(25).tail("x"), (60, 15.0, 1));
        assert_eq!(samples(12).tail("x"), (50, 6.0, 1));
    }

    #[test]
    fn tail_is_the_lower_quartile_of_window_tails() {
        // Four windows of 1000, offset by 0, 1000, 2000 and 3000.
        let mut s = Samples::default();
        for w in 0..4 {
            for i in 1..=1000 {
                s.push((i + 1000 * w) as f64);
            }
        }
        assert_eq!(s.tail("x"), (99, 1990.0, 4));
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(samples(4).median("x"), 2.5);
        assert_eq!(samples(5).median("x"), 3.0);
        assert_eq!(samples(4).mean("x"), 2.5);
    }

    #[test]
    fn seeded_rng_repeats() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7);
                move |_| r.next_u64()
            })
            .collect();
        let mut r = Rng::new(7);
        assert!(a.iter().all(|&x| x == r.next_u64()));
        let mut v: Vec<usize> = (0..10).collect();
        Rng::new(3).shuffle(&mut v);
        v.sort();
        assert_eq!(v, (0..10).collect::<Vec<_>>());
    }
}
