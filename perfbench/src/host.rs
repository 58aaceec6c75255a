//! Host-speed reference.
//!
//! The benchmark runs on virtual machines shared with other tenants, whose
//! load slows every program on the host, by up to 2× and for minutes at a
//! time. A fixed reference kernel, which calls nothing of the program, runs
//! between the timed operations, in bursts, and takes a fixed share of the
//! measuring time. Each operation's wall time is then scaled by
//! `(REF_KERNEL_MS / the kernel's median time around the operation)`,
//! raised to `SLOWDOWN`: the scaled figure reads as the operation's time on
//! a host where the kernel takes `REF_KERNEL_MS`. It moves with the
//! program's speed and much less with the host's load. The raw wall times
//! are printed beside it.
//!
//! The kernel allocates nothing after set-up, so the program's heap cannot
//! slow it. Its time is the sum of two parts, each the median of its own
//! runs: `near`, a mix of the work the planner and the simulator do on
//! about 1.5 MiB, which stays in the core's own caches; and `far`, random
//! reads of a 24 MiB array, which lives in the cache the cores share. Each
//! part runs back to back within a burst, after one unrecorded run that
//! brings its data back into the caches. On a 2-vCPU Xeon virtual machine,
//! over minutes in which the host's load moved `train_iteration` between
//! 2.0 and 4.1 ms, the iteration's time moved with this sum, where `near`
//! alone moved 1.6× less. Across 20-second runs, in log terms, an
//! iteration slowed 1.55–1.66 times as much as the sum, a splice 1.1–1.25
//! times and a cold plan 0.4–1.24 times; `SLOWDOWN` lies between.

use crate::stats::{ms_since, Rng, Samples};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

/// The kernel's nominal time (`near` plus `far`): about its time on the
/// 2-vCPU Xeon virtual machine the README's numbers come from, when that
/// host is quiet, so scaled figures read close to wall times there.
pub const REF_KERNEL_MS: f64 = 0.85;
/// How much more the program slows than the kernel, in log terms: an
/// operation's wall time is scaled by `(REF_KERNEL_MS / kernel)^SLOWDOWN`.
const SLOWDOWN: f64 = 1.35;
/// Entries of the kernel's large array (24 MiB), and the random reads of
/// it in one `far` run.
const FAR_LEN: usize = 6 << 20;
const FAR_READS: usize = 60_000;
/// Share of the measured work the kernel runs for.
const SHARE: f64 = 0.1;
/// Share of a burst's time that goes to `near`.
const NEAR_SHARE: f64 = 0.4;
/// Kernel samples within this many seconds of an operation scale it.
const HALF_WINDOW_S: f64 = 2.0;
/// Fewest samples of each part a scale factor is taken from.
const MIN_SAMPLES: usize = 9;
/// Runs of each part before the first recorded one.
const WARM_UP: usize = 10;
/// The kernel runs in bursts of about this many milliseconds, so that few
/// operations start with caches the kernel filled.
const BURST_MS: f64 = 100.0;

/// Timed operations: (midpoint in seconds since the reference's epoch,
/// wall milliseconds).
#[derive(Default)]
pub struct Series(Vec<(f64, f64)>);

impl Series {
    /// The wall times, in the order taken.
    pub fn raw(&self) -> Samples {
        let mut s = Samples::default();
        for &(_, ms) in &self.0 {
            s.push(ms);
        }
        s
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// The wall time of the latest operation.
    pub fn last_ms(&self) -> f64 {
        self.0.last().expect("an operation was timed").1
    }
}

/// The reference kernel's pre-allocated state. It has two parts, timed
/// apart: `near` works in the core's own caches and `far` in the cache the
/// cores share.
struct Kernel {
    heap: BinaryHeap<Reverse<(u64, u32)>>,
    keys: Vec<f64>,
    table: Vec<u64>,
    used: Vec<usize>,
    chain: Vec<u32>,
    far: Vec<u32>,
}

impl Kernel {
    fn new() -> Self {
        let mut chain: Vec<u32> = (0..1u32 << 17).collect();
        Rng::new(5).shuffle(&mut chain);
        Self {
            heap: BinaryHeap::with_capacity(1 << 12),
            keys: Vec::with_capacity(1 << 12),
            table: vec![0; 1 << 16],
            used: Vec::with_capacity(1 << 12),
            chain,
            far: (0..FAR_LEN as u32).collect(),
        }
    }

    /// A binary heap of events, a float sort, open-addressing hash probes
    /// and a dependent walk over a shuffled index array: about 1.5 MiB.
    fn near(&mut self) -> u64 {
        let mut rng = Rng::new(13);
        let mut acc = 0u64;
        for i in 0..1024u32 {
            self.heap.push(Reverse((rng.next_u64() % 100_000, i)));
        }
        while let Some(Reverse((t, i))) = self.heap.pop() {
            acc = acc.wrapping_add(t);
            if i % 2 == 0 && i < 4096 {
                self.heap.push(Reverse((t + rng.next_u64() % 1000, i + 1)));
            }
        }
        self.keys.clear();
        self.keys.extend((0..2048).map(|_| rng.unit()));
        self.keys.sort_by(f64::total_cmp);
        acc = acc.wrapping_add(self.keys[7].to_bits());
        let mask = self.table.len() - 1;
        for _ in 0..3000 {
            let k = rng.next_u64() | 1;
            let mut h = (k.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40) as usize & mask;
            while self.table[h] != 0 && self.table[h] != k {
                h = (h + 1) & mask;
            }
            self.table[h] = k;
            self.used.push(h);
        }
        for h in self.used.drain(..) {
            self.table[h] = 0;
        }
        let mut p = 0u32;
        for _ in 0..12_000 {
            p = self.chain[p as usize];
            acc = acc.wrapping_add(u64::from(p));
        }
        acc
    }

    /// Independent random reads of a 24 MiB array.
    fn far(&self) -> u64 {
        let mut rng = Rng::new(3);
        let mut acc = 0u64;
        for _ in 0..FAR_READS {
            acc = acc.wrapping_add(u64::from(self.far[rng.next_u64() as usize % FAR_LEN]));
        }
        acc
    }
}

/// One part's timed runs: (seconds since the epoch at the run's midpoint,
/// milliseconds).
#[derive(Default)]
struct Runs(Vec<(f64, f64)>);

impl Runs {
    /// The median of the runs within `HALF_WINDOW_S` of `[from, to]`,
    /// widened to `MIN_SAMPLES` runs.
    fn median_around(&self, from: f64, to: f64) -> f64 {
        let n = self.0.len();
        assert!(n > 0, "the host reference has no samples");
        let mut lo = self.0.partition_point(|s| s.0 < from - HALF_WINDOW_S);
        let mut hi = self.0.partition_point(|s| s.0 <= to + HALF_WINDOW_S);
        while hi - lo < MIN_SAMPLES.min(n) {
            lo = lo.saturating_sub(1);
            hi = (hi + 1).min(n);
        }
        let mut window = Samples::default();
        for &(_, ms) in &self.0[lo..hi] {
            window.push(ms);
        }
        window.median("host reference")
    }
}

/// The host-speed reference of one run. Disabled, it runs no kernel and
/// scales nothing.
pub struct HostRef {
    epoch: Instant,
    kernel: Option<Kernel>,
    near: Runs,
    far: Runs,
    /// Each burst's (start, end), in seconds since the epoch.
    bursts: Vec<(f64, f64)>,
    kernel_ms: f64,
    work_ms: f64,
}

impl HostRef {
    pub fn new(enabled: bool) -> Self {
        let mut kernel = enabled.then(Kernel::new);
        if let Some(k) = kernel.as_mut() {
            for _ in 0..WARM_UP {
                black_box(k.near());
                black_box(k.far());
            }
        }
        Self {
            epoch: Instant::now(),
            kernel,
            near: Runs::default(),
            far: Runs::default(),
            bursts: Vec::new(),
            kernel_ms: 0.0,
            work_ms: 0.0,
        }
    }

    fn at(&self, t: Instant) -> f64 {
        t.duration_since(self.epoch).as_secs_f64()
    }

    /// Time `f` into `series`, then let the kernel catch up on its share.
    pub fn measure<T>(&mut self, series: &mut Series, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let value = f();
        let ms = ms_since(t);
        series.0.push((self.at(t) + ms / 2e3, ms));
        self.pace(ms);
        value
    }

    /// Time one set-up repetition into `series`, then run a burst, so
    /// that each repetition is scaled by kernel runs next to it.
    pub fn set_up<T>(&mut self, series: &mut Series, f: impl FnOnce() -> T) -> T {
        let value = self.measure(series, f);
        self.settle();
        value
    }

    /// Count `ms` of measured work; once the kernel owes `BURST_MS` of its
    /// share, run a burst that pays what it owes.
    pub fn pace(&mut self, ms: f64) {
        if self.kernel.is_some() {
            self.work_ms += ms;
            if SHARE * self.work_ms - self.kernel_ms >= BURST_MS {
                self.burst(0);
            }
        }
    }

    /// Run a burst that pays what the kernel owes, with at least
    /// `MIN_SAMPLES` recorded runs of each part: after each set-up
    /// repetition and at the end of the timed loop, so the operations there
    /// have samples next to them.
    pub fn settle(&mut self) {
        self.burst(MIN_SAMPLES);
    }

    fn burst(&mut self, min_runs: usize) {
        if self.kernel.is_none() {
            return;
        }
        let start = self.at(Instant::now());
        let owed = (SHARE * self.work_ms - self.kernel_ms).max(0.0);
        let near_until = self.kernel_ms + NEAR_SHARE * owed;
        self.part(min_runs, near_until, |k| k.near(), |h| &mut h.near);
        let far_until = SHARE * self.work_ms;
        self.part(min_runs, far_until, |k| k.far(), |h| &mut h.far);
        let end = self.at(Instant::now());
        self.bursts.push((start, end));
    }

    /// Run one part back to back: an unrecorded run that brings its data
    /// back into the caches, then recorded runs until the kernel's time
    /// reaches `until_ms` and at least `min_runs` were recorded.
    fn part(
        &mut self,
        min_runs: usize,
        until_ms: f64,
        run: impl Fn(&mut Kernel) -> u64,
        runs: impl Fn(&mut Self) -> &mut Runs,
    ) {
        let mut recorded = 0;
        for first in [true].into_iter().chain(std::iter::repeat(false)) {
            if !first && recorded >= min_runs && self.kernel_ms >= until_ms {
                break;
            }
            let kernel = self.kernel.as_mut().expect("enabled");
            let t = Instant::now();
            black_box(run(kernel));
            let ms = ms_since(t);
            self.kernel_ms += ms;
            if !first {
                recorded += 1;
                let mid = self.at(t) + ms / 2e3;
                runs(self).0.push((mid, ms));
            }
        }
    }

    /// Milliseconds the kernel has run for.
    pub fn kernel_ms(&self) -> f64 {
        self.kernel_ms
    }

    /// Scale factor over the seconds `[from, to]` since the epoch: the
    /// nominal kernel time over the kernel's time around that span, raised
    /// to `SLOWDOWN`.
    fn factor(&self, from: f64, to: f64) -> f64 {
        if self.kernel.is_none() {
            return 1.0;
        }
        let kernel = self.near.median_around(from, to) + self.far.median_around(from, to);
        (REF_KERNEL_MS / kernel).powf(SLOWDOWN)
    }

    /// Each operation's wall time scaled by the factor around it.
    pub fn scaled(&self, series: &Series) -> Samples {
        let mut out = Samples::default();
        for &(mid, ms) in &series.0 {
            out.push(ms * self.factor(mid, mid));
        }
        out
    }

    /// Seconds from `from` to `to` outside the kernel's bursts: as
    /// measured, and scaled piece by piece between bursts.
    pub fn work_span(&self, from: Instant, to: Instant) -> (f64, f64) {
        let (from, to) = (self.at(from), self.at(to));
        let (mut wall, mut scaled) = (0.0, 0.0);
        let mut piece = |a: f64, b: f64| {
            if b > a {
                wall += b - a;
                scaled += (b - a) * self.factor(a, b);
            }
        };
        let mut cursor = from;
        for &(start, end) in &self.bursts {
            if end > from && start < to {
                piece(cursor, start.min(to));
                cursor = cursor.max(end);
            }
        }
        piece(cursor, to);
        (wall, scaled)
    }

    /// The kernel's median `near` and `far` times over the whole run, in
    /// milliseconds.
    pub fn kernel_medians_ms(&self) -> Option<(f64, f64)> {
        let inf = f64::INFINITY;
        (self.kernel.is_some() && !self.near.0.is_empty()).then(|| {
            (
                self.near.median_around(-inf, inf),
                self.far.median_around(-inf, inf),
            )
        })
    }
}
