//! A lazy range-add / range-max segment tree over a fixed-length array of
//! byte counts — the backing store of the Unified Scheduler's residency
//! timeline (see `crates/core/src/scheduler.rs` and DESIGN.md §9).
//!
//! Algorithm 1 maintains `mem[j]` = planned GPU bytes at compute step `j`
//! and needs four operations on it, each hit O(pages) times per plan:
//!
//! * add `±bytes` to a contiguous step interval (evict / re-add / gather
//!   advancement),
//! * read one step's total (the phase-1 fit check),
//! * the max over an interval (the batched re-add fit check),
//! * the *latest* step in an interval whose total exceeds a threshold (the
//!   phase-2 advancement stop point).
//!
//! All four are O(log steps) here, which is what turns planning from
//! quadratic to near-linear at the paper's 10⁴–10⁵-pages-per-layer scale.
//!
//! Totals are externally `u64`; deltas are signed (`i64`) because evictions
//! subtract. The tree never pushes lazy tags: queries carry the accumulated
//! pending add down the descent instead, so reads take `&self`.

/// Lazy range-add / range-max tree over `u64` totals with `i64` deltas.
///
/// Node convention: `max[v]` is the true maximum of `v`'s interval with
/// `lazy[v]` and every tag *below* `v` applied, but no ancestor tags.
#[derive(Debug, Clone)]
pub struct RangeAddMax {
    /// Logical length (number of leaves in use).
    n: usize,
    max: Vec<i64>,
    lazy: Vec<i64>,
}

impl RangeAddMax {
    /// Build from initial totals in O(n).
    pub fn from_values(values: &[u64]) -> Self {
        let n = values.len();
        let mut tree = Self {
            n,
            max: vec![0; 4 * n.max(1)],
            lazy: vec![0; 4 * n.max(1)],
        };
        if n > 0 {
            tree.build(1, 0, n - 1, values);
        }
        tree
    }

    /// Rebuild from new totals, reusing the existing node arrays — a
    /// planner session re-arms one persistent tree per replan instead of
    /// allocating a fresh one (`from_values`) per plan. Byte-identical to
    /// `*self = Self::from_values(values)` without the allocation.
    pub fn reset_from_values(&mut self, values: &[u64]) {
        let n = values.len();
        let want = 4 * n.max(1);
        self.max.clear();
        self.max.resize(want, 0);
        self.lazy.clear();
        self.lazy.resize(want, 0);
        self.n = n;
        if n > 0 {
            self.build(1, 0, n - 1, values);
        }
    }

    pub fn len(&self) -> usize {
        self.n
    }

    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    fn build(&mut self, v: usize, lo: usize, hi: usize, values: &[u64]) {
        if lo == hi {
            self.max[v] = values[lo] as i64;
            return;
        }
        let mid = lo + (hi - lo) / 2;
        self.build(2 * v, lo, mid, values);
        self.build(2 * v + 1, mid + 1, hi, values);
        self.max[v] = self.max[2 * v].max(self.max[2 * v + 1]);
    }

    /// Add `delta` to every total in the inclusive range `[lo, hi]`.
    /// Empty ranges (`lo > hi`) are a no-op.
    pub fn add(&mut self, lo: usize, hi: usize, delta: i64) {
        if lo > hi || delta == 0 || self.n == 0 {
            return;
        }
        debug_assert!(hi < self.n, "range [{lo}, {hi}] out of 0..{}", self.n);
        self.add_rec(1, 0, self.n - 1, lo, hi, delta);
    }

    fn add_rec(&mut self, v: usize, nlo: usize, nhi: usize, lo: usize, hi: usize, delta: i64) {
        if hi < nlo || nhi < lo {
            return;
        }
        if lo <= nlo && nhi <= hi {
            self.max[v] += delta;
            self.lazy[v] += delta;
            return;
        }
        let mid = nlo + (nhi - nlo) / 2;
        self.add_rec(2 * v, nlo, mid, lo, hi, delta);
        self.add_rec(2 * v + 1, mid + 1, nhi, lo, hi, delta);
        self.max[v] = self.max[2 * v].max(self.max[2 * v + 1]) + self.lazy[v];
    }

    /// The total at index `i`.
    pub fn get(&self, i: usize) -> u64 {
        debug_assert!(i < self.n);
        let mut v = 1;
        let (mut lo, mut hi) = (0, self.n - 1);
        let mut acc = 0i64;
        while lo < hi {
            acc += self.lazy[v];
            let mid = lo + (hi - lo) / 2;
            if i <= mid {
                v *= 2;
                hi = mid;
            } else {
                v = 2 * v + 1;
                lo = mid + 1;
            }
        }
        let total = self.max[v] + acc;
        debug_assert!(total >= 0, "timeline total went negative at {i}");
        total as u64
    }

    /// Maximum total over the inclusive range `[lo, hi]`; `None` when the
    /// range is empty.
    pub fn max_in(&self, lo: usize, hi: usize) -> Option<u64> {
        if lo > hi || self.n == 0 {
            return None;
        }
        debug_assert!(hi < self.n);
        let m = self.max_rec(1, 0, self.n - 1, lo, hi, 0);
        debug_assert!(m >= 0);
        Some(m as u64)
    }

    fn max_rec(&self, v: usize, nlo: usize, nhi: usize, lo: usize, hi: usize, acc: i64) -> i64 {
        if hi < nlo || nhi < lo {
            return i64::MIN;
        }
        if lo <= nlo && nhi <= hi {
            return self.max[v] + acc;
        }
        let mid = nlo + (nhi - nlo) / 2;
        let acc = acc + self.lazy[v];
        self.max_rec(2 * v, nlo, mid, lo, hi, acc).max(self.max_rec(
            2 * v + 1,
            mid + 1,
            nhi,
            lo,
            hi,
            acc,
        ))
    }

    /// Maximum over the whole array (0 when empty).
    pub fn max_all(&self) -> u64 {
        if self.n == 0 {
            0
        } else {
            self.max[1].max(0) as u64
        }
    }

    /// The *largest* index in `[lo, hi]` whose total exceeds `threshold`,
    /// or `None` if every total in the range is `<= threshold`.
    pub fn last_above(&self, lo: usize, hi: usize, threshold: u64) -> Option<usize> {
        if lo > hi || self.n == 0 {
            return None;
        }
        debug_assert!(hi < self.n);
        self.last_above_rec(1, 0, self.n - 1, lo, hi, threshold as i64, 0)
    }

    #[allow(clippy::too_many_arguments)]
    fn last_above_rec(
        &self,
        v: usize,
        nlo: usize,
        nhi: usize,
        lo: usize,
        hi: usize,
        threshold: i64,
        acc: i64,
    ) -> Option<usize> {
        if hi < nlo || nhi < lo || self.max[v] + acc <= threshold {
            return None;
        }
        if nlo == nhi {
            return Some(nlo);
        }
        let mid = nlo + (nhi - nlo) / 2;
        let acc = acc + self.lazy[v];
        // Rightmost match wins: try the right child first.
        self.last_above_rec(2 * v + 1, mid + 1, nhi, lo, hi, threshold, acc)
            .or_else(|| self.last_above_rec(2 * v, nlo, mid, lo, hi, threshold, acc))
    }

    /// Materialize all totals (test / debug convenience).
    pub fn to_vec(&self) -> Vec<u64> {
        (0..self.n).map(|i| self.get(i)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference model: a plain vector under the same operations.
    struct Naive(Vec<i64>);

    impl Naive {
        fn add(&mut self, lo: usize, hi: usize, d: i64) {
            let hi = hi.min(self.0.len().saturating_sub(1));
            for x in &mut self.0[lo..=hi] {
                *x += d;
            }
        }
        fn max_in(&self, lo: usize, hi: usize) -> Option<u64> {
            self.0.get(lo..=hi)?.iter().max().map(|&m| m as u64)
        }
        fn last_above(&self, lo: usize, hi: usize, t: u64) -> Option<usize> {
            (lo..=hi).rev().find(|&j| self.0[j] > t as i64)
        }
    }

    #[test]
    fn empty_and_singleton() {
        let t = RangeAddMax::from_values(&[]);
        assert!(t.is_empty());
        assert_eq!(t.max_all(), 0);
        let mut t = RangeAddMax::from_values(&[7]);
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(0), 7);
        t.add(0, 0, 5);
        assert_eq!(t.get(0), 12);
        assert_eq!(t.max_in(0, 0), Some(12));
        assert_eq!(t.last_above(0, 0, 11), Some(0));
        assert_eq!(t.last_above(0, 0, 12), None);
    }

    #[test]
    fn empty_range_is_noop() {
        let mut t = RangeAddMax::from_values(&[1, 2, 3]);
        t.add(2, 1, 100);
        assert_eq!(t.to_vec(), vec![1, 2, 3]);
        assert_eq!(t.max_in(2, 1), None);
        assert_eq!(t.last_above(2, 1, 0), None);
    }

    #[test]
    fn reset_matches_fresh_build() {
        let mut t = RangeAddMax::from_values(&[5, 1, 9, 4]);
        t.add(1, 3, 7);
        // Re-arm over a *different length* and verify byte-identity with a
        // fresh tree under follow-up operations.
        let vals: Vec<u64> = (0..193).map(|i| (i as u64 * 37) % 211 + 3).collect();
        t.reset_from_values(&vals);
        let fresh = RangeAddMax::from_values(&vals);
        assert_eq!(t.to_vec(), fresh.to_vec());
        assert_eq!(t.max_all(), fresh.max_all());
        let mut t2 = t.clone();
        let mut f2 = fresh.clone();
        t2.add(10, 180, -3);
        f2.add(10, 180, -3);
        assert_eq!(t2.to_vec(), f2.to_vec());
        assert_eq!(t2.last_above(0, 192, 100), f2.last_above(0, 192, 100));
        // Shrink back down, including to empty.
        t.reset_from_values(&[2, 2]);
        assert_eq!(t.to_vec(), vec![2, 2]);
        t.reset_from_values(&[]);
        assert!(t.is_empty());
        assert_eq!(t.max_all(), 0);
    }

    #[test]
    fn matches_naive_under_random_ops() {
        // Deterministic LCG so the test needs no external RNG.
        let mut state = 0x243F_6A88_85A3_08D3u64;
        let mut rng = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        for n in [1usize, 2, 3, 7, 64, 193] {
            let init: Vec<u64> = (0..n).map(|_| rng() % 1000).collect();
            let mut tree = RangeAddMax::from_values(&init);
            let mut naive = Naive(init.iter().map(|&x| x as i64).collect());
            for _ in 0..300 {
                let a = rng() as usize % n;
                let b = rng() as usize % n;
                let (lo, hi) = (a.min(b), a.max(b));
                match rng() % 4 {
                    0 => {
                        // Keep totals non-negative: subtract at most the
                        // current range minimum-ish (use 0..=min of maxes).
                        let d = (rng() % 500) as i64 - 200;
                        let floor = -(naive.0[lo..=hi].iter().copied().min().unwrap());
                        let d = d.max(floor);
                        tree.add(lo, hi, d);
                        naive.add(lo, hi, d);
                    }
                    1 => assert_eq!(tree.max_in(lo, hi), naive.max_in(lo, hi)),
                    2 => {
                        let t = rng() % 1200;
                        assert_eq!(tree.last_above(lo, hi, t), naive.last_above(lo, hi, t));
                    }
                    _ => {
                        let i = rng() as usize % n;
                        assert_eq!(tree.get(i) as i64, naive.0[i]);
                    }
                }
            }
            assert_eq!(
                tree.max_all() as i64,
                naive.0.iter().copied().max().unwrap()
            );
            assert_eq!(
                tree.to_vec(),
                naive.0.iter().map(|&x| x as u64).collect::<Vec<_>>()
            );
        }
    }
}
