//! The Algorithm 1 planner session — the one implementation of the
//! Unified Scheduler's decision phases that plans run through.
//!
//! A plan at GPT-3-1T scale is dominated by its two O(pages) / O(tasks)
//! passes: laying out the 10⁵-page movement stack and emitting the
//! ~10⁵-task trigger-sorted list. The *decisions* — which page runs evict,
//! where they re-add, how far each all-gather advances — cost only
//! O(steps · log steps) on the segment-tree residency timeline
//! (`crate::scheduler::TimelineState`).
//!
//! The [`Planner`] keeps its decisions in **run form**: one `[lo, hi)` page
//! range per same-layer batch, exactly the batches the per-page stack loops
//! of the reference planner drain, found by binary searches on cached
//! per-layer page-prefix sums. A session keeps its input, timeline,
//! decisions and emitted schedule alive across [`Planner::replan`] calls.
//! Each call takes the next [`SchedulerInput`] whole, as the paper's
//! scheduler plans each iteration from the traced input: an identical input
//! returns at once; any other input re-arms the timeline in place (reusing
//! every buffer), reruns the decision phases and re-emits the task list.
//!
//! [`UnifiedScheduler::schedule`] is a one-shot session. The per-page
//! reference `crate::scheduler::oracle` is the independent check: the unit
//! tests and a proptest over random input sequences below prove every
//! session state byte-identical (tasks, offsets, stats) to it. DESIGN.md
//! §14 gives the session model and the splice-soundness argument built on
//! this identity.

use crate::error::{Error, Result};
use crate::scheduler::{
    PlannedPage, Schedule, ScheduleStats, ScheduleTask, SchedulerInput, TaskOp, TimelineState,
    UnifiedScheduler,
};
use serde::{Deserialize, Serialize};

/// What a replan reused versus recomputed — the observability payload
/// behind the `plan.layers_reused` counter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReplanOutcome {
    /// Layers whose `LayerPlan` differs from the previous input's at the
    /// same position, plus any the new input appends.
    pub layers_touched: usize,
    /// Layers whose decisions *and* task slots carried over verbatim: every
    /// layer when the input was unchanged, none otherwise.
    pub layers_reused: usize,
    /// Whether the input was identical to the previous one, so the previous
    /// decisions and task list were kept rather than replanned.
    pub patched_in_place: bool,
}

/// A contiguous run of pages `[lo, hi)` of one layer — the unit the decision
/// phases batch over (a maximal same-layer run of the reference planner's
/// movement stack).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Run {
    layer: usize,
    lo: usize,
    hi: usize,
}

/// A committed re-add: pages `[lo, hi)` of `layer` re-enter at `trigger`.
/// Events are stored in the reference planner's `rescheduled` push order
/// (triggers nondecreasing, pages ascending within an event).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ReaddEvent {
    layer: usize,
    lo: usize,
    hi: usize,
    trigger: usize,
}

/// A persistent [`UnifiedScheduler`] session: it keeps its input, timeline,
/// decision runs and emitted schedule alive across [`Planner::replan`]
/// calls, so each replan reuses every buffer. Every state is byte-identical
/// to a from-scratch plan of the current input.
pub struct Planner {
    sched: UnifiedScheduler,
    input: SchedulerInput,
    timeline: TimelineState,
    /// `page_prefix[l][i]` = bytes of layer `l`'s first `i` pages — the
    /// cache that turns per-page stack loops into binary searches. Rebuilt
    /// only for layers whose page list changed.
    page_prefix: Vec<Vec<u64>>,
    // Current decisions (gather triggers live in the timeline).
    moves: Vec<Run>,
    readds: Vec<ReaddEvent>,
    gathers_advanced: usize,
    // The live schedule, byte-identical to a full plan of `input`.
    schedule: Schedule,
    // Scratch buffers reused across replans.
    wait: Vec<Run>,
    trig_off: Vec<usize>,
    trig_cur: Vec<usize>,
    trig_steps: Vec<usize>,
    last_outcome: ReplanOutcome,
}

impl Planner {
    /// Plan `input` from scratch and open a session.
    pub fn new(sched: UnifiedScheduler, input: SchedulerInput) -> Result<Self> {
        check_input(&input)?;
        let timeline = TimelineState::new(&input);
        let mut planner = Self {
            sched,
            timeline,
            page_prefix: input
                .layers
                .iter()
                .map(|l| prefix_of(&l.shard_pages))
                .collect(),
            input,
            moves: Vec::new(),
            readds: Vec::new(),
            gathers_advanced: 0,
            schedule: Schedule::default(),
            wait: Vec::new(),
            trig_off: Vec::new(),
            trig_cur: Vec::new(),
            trig_steps: Vec::new(),
            last_outcome: ReplanOutcome::default(),
        };
        planner.plan_decisions();
        planner.emit();
        planner.last_outcome = ReplanOutcome {
            layers_touched: planner.input.layers.len(),
            layers_reused: 0,
            patched_in_place: false,
        };
        Ok(planner)
    }

    /// The current schedule — byte-identical to a from-scratch plan of
    /// [`Self::input`].
    pub fn schedule(&self) -> &Schedule {
        &self.schedule
    }

    /// Close the session, keeping its schedule.
    pub fn into_schedule(self) -> Schedule {
        self.schedule
    }

    /// The input the current schedule was planned from.
    pub fn input(&self) -> &SchedulerInput {
        &self.input
    }

    /// The scheduler configuration this session plans with.
    pub fn scheduler(&self) -> &UnifiedScheduler {
        &self.sched
    }

    /// What the most recent plan/replan reused.
    pub fn last_outcome(&self) -> ReplanOutcome {
        self.last_outcome
    }

    /// Replan the session for `next`, its next scheduler input. On `Err`
    /// the planner is untouched (validation and feasibility run before any
    /// mutation) and the previous schedule stays live.
    pub fn replan(&mut self, next: &SchedulerInput) -> Result<ReplanOutcome> {
        check_input(next)?;
        if *next == self.input {
            self.last_outcome = ReplanOutcome {
                layers_touched: 0,
                layers_reused: next.layers.len(),
                patched_in_place: true,
            };
            return Ok(self.last_outcome);
        }
        let mut layers_touched = 0;
        self.page_prefix.resize_with(next.layers.len(), Vec::new);
        for (l, new) in next.layers.iter().enumerate() {
            let old = self.input.layers.get(l);
            if old != Some(new) {
                layers_touched += 1;
            }
            if old.map(|o| &o.shard_pages) != Some(&new.shard_pages) {
                self.page_prefix[l] = prefix_of(&new.shard_pages);
            }
        }
        let steps_changed = self.input.steps != next.steps;
        self.input.clone_from(next);
        self.timeline.reset(&self.input, steps_changed);
        self.plan_decisions();
        self.emit();
        self.last_outcome = ReplanOutcome {
            layers_touched,
            layers_reused: 0,
            patched_in_place: false,
        };
        Ok(self.last_outcome)
    }

    /// Phase 1 + phase 2 over runs: the greedy decisions of the reference
    /// planner's per-page stack loops, with each maximal same-layer batch
    /// found by a binary search on the page-prefix sums instead of a
    /// per-page walk.
    fn plan_decisions(&mut self) {
        let Self {
            input,
            timeline,
            page_prefix,
            moves,
            readds,
            gathers_advanced,
            sched,
            wait,
            ..
        } = self;
        let input = &*input;
        let n_steps = input.steps.len();
        moves.clear();
        for (li, layer) in input.layers.iter().enumerate() {
            if !layer.shard_pages.is_empty() {
                moves.push(Run {
                    layer: li,
                    lo: 0,
                    hi: layer.shard_pages.len(),
                });
            }
        }
        readds.clear();
        wait.clear();
        for i in 0..n_steps {
            // Eviction: pop the minimal top batch that brings step `i` under
            // budget (whole run when net-zero at `i` or insufficient).
            loop {
                let current = timeline.step_total(i);
                if current <= input.gpu_budget {
                    break;
                }
                let Some(&top) = moves.last() else {
                    break;
                };
                let l = top.layer;
                let p = &page_prefix[l];
                let len = top.hi - top.lo;
                let net_zero = i > timeline.last_use(l) || timeline.is_own_step(l, i);
                let need = current - input.gpu_budget;
                let total = p[top.hi] - p[top.lo];
                let k = if net_zero || total < need {
                    len
                } else {
                    // Minimal k with suffix-sum(k) >= need (monotone).
                    let (mut lo_k, mut hi_k) = (1usize, len);
                    while lo_k < hi_k {
                        let mid = lo_k + (hi_k - lo_k) / 2;
                        if p[top.hi] - p[top.hi - mid] >= need {
                            hi_k = mid;
                        } else {
                            lo_k = mid + 1;
                        }
                    }
                    lo_k
                };
                let cut = top.hi - k;
                let batch = p[top.hi] - p[cut];
                timeline.evict(l, batch);
                if k == len {
                    moves.pop();
                } else if let Some(tr) = moves.last_mut() {
                    tr.hi = cut;
                }
                // Evicted pages [cut, top.hi) reach the wait stack with the
                // lowest index on top; merge when adjacent to the previous
                // eviction of the same layer (no re-add in between).
                match wait.last_mut() {
                    Some(w) if w.layer == l && w.lo == top.hi => w.lo = cut,
                    _ => wait.push(Run {
                        layer: l,
                        lo: cut,
                        hi: top.hi,
                    }),
                }
            }
            // Re-add backfill: drain the maximal prefix of the same-layer
            // top group that fits the batched capacity.
            'readd: while let Some(&top) = wait.last() {
                let l = top.layer;
                let t = i + 1;
                let Some(cap) = timeline.readd_capacity(input, l, t) else {
                    break;
                };
                let mut gstart = wait.len();
                while gstart > 0 && wait[gstart - 1].layer == l {
                    gstart -= 1;
                }
                let p = &page_prefix[l];
                let mut batch = 0u64;
                let mut drained_runs = 0usize;
                let mut partial = 0usize;
                let mut group_done = true;
                for r in wait[gstart..].iter().rev() {
                    let left = cap - batch;
                    let rlen = r.hi - r.lo;
                    // Maximal m with prefix-sum(m) <= left (monotone).
                    let (mut lo_m, mut hi_m) = (0usize, rlen);
                    while lo_m < hi_m {
                        let mid = lo_m + (hi_m - lo_m).div_ceil(2);
                        if p[r.lo + mid] - p[r.lo] <= left {
                            lo_m = mid;
                        } else {
                            hi_m = mid - 1;
                        }
                    }
                    let m = lo_m;
                    batch += p[r.lo + m] - p[r.lo];
                    if m > 0 {
                        readds.push(ReaddEvent {
                            layer: l,
                            lo: r.lo,
                            hi: r.lo + m,
                            trigger: t,
                        });
                    }
                    if m < rlen {
                        partial = m;
                        group_done = false;
                        break;
                    }
                    drained_runs += 1;
                }
                if drained_runs == 0 && partial == 0 {
                    break; // head of the group does not fit
                }
                timeline.readd(l, batch, t);
                wait.truncate(wait.len() - drained_runs);
                if !group_done {
                    if partial > 0 {
                        if let Some(w) = wait.last_mut() {
                            w.lo += partial;
                        }
                    }
                    break 'readd;
                }
            }
        }
        *gathers_advanced = 0;
        if sched.phase2 {
            for i in 0..n_steps {
                if timeline.advance_gather(input, i, sched.prefetch_horizon) {
                    *gathers_advanced += 1;
                }
            }
        }
    }

    /// Rebuild the trigger-sorted task list, its offset table and the stats
    /// from the current decisions, reusing the task buffer's allocation.
    fn emit(&mut self) {
        let Self {
            input,
            page_prefix,
            moves,
            readds,
            timeline,
            schedule,
            trig_off,
            trig_cur,
            trig_steps,
            gathers_advanced,
            ..
        } = self;
        let input = &*input;
        let n_steps = input.steps.len();
        let gather = timeline.gather_triggers();
        // Counting sort of steps by gather trigger (ascending step within
        // each trigger — the emission interleave needs it).
        trig_off.clear();
        trig_off.resize(n_steps + 1, 0);
        for &g in gather {
            trig_off[g + 1] += 1;
        }
        for i in 1..=n_steps {
            trig_off[i] += trig_off[i - 1];
        }
        trig_steps.clear();
        trig_steps.resize(n_steps, 0);
        trig_cur.clone_from(trig_off);
        for (i, &g) in gather.iter().enumerate() {
            trig_steps[trig_cur[g]] = i;
            trig_cur[g] += 1;
        }
        // Byte/page stats, and with them the task count: one move per
        // resident page, one gather per shard page and one compute per step.
        let mut resident_pages = 0usize;
        let mut resident_bytes = 0u64;
        let runs = moves.iter().map(|r| (r.layer, r.lo, r.hi));
        for (l, lo, hi) in runs.chain(readds.iter().map(|e| (e.layer, e.lo, e.hi))) {
            resident_pages += hi - lo;
            resident_bytes += page_prefix[l][hi] - page_prefix[l][lo];
        }
        let total_pages: usize = page_prefix.iter().map(|p| p.len() - 1).sum();
        let shard_bytes: u64 = page_prefix
            .iter()
            .map(|p| p.last().copied().unwrap_or(0))
            .sum();
        let step_tasks: usize = input
            .steps
            .iter()
            .map(|s| input.layers[s.layer()].shard_pages.len() + 1)
            .sum();
        let (tasks, offsets) = (&mut schedule.tasks, &mut schedule.trigger_offsets);
        tasks.clear();
        tasks.reserve(resident_pages + step_tasks);
        offsets.clear();
        for t in 0..n_steps {
            offsets.push(tasks.len());
            emit_trigger(input, moves, readds, trig_off, trig_steps, t, tasks);
        }
        offsets.push(tasks.len());
        schedule.num_steps = n_steps;
        schedule.stats = ScheduleStats {
            pages_resident: resident_pages,
            pages_cpu_bound: total_pages - resident_pages,
            peak_gpu_bytes: timeline.peak(),
            resident_fraction: if shard_bytes == 0 {
                0.0
            } else {
                resident_bytes as f64 / shard_bytes as f64
            },
            gathers_advanced: *gathers_advanced,
        };
    }
}

/// Per-layer page prefix sums: `prefix[i]` = bytes of the first `i` pages.
fn prefix_of(pages: &[u64]) -> Vec<u64> {
    let mut p = Vec::with_capacity(pages.len() + 1);
    p.push(0);
    let mut acc = 0u64;
    for &b in pages {
        acc += b;
        p.push(acc);
    }
    p
}

/// The check every plan and replan runs on its input before it touches any
/// session state: a non-empty model, a base load that is empty or covers
/// every step, every step naming an existing layer, every layer computed at
/// least once, and every step fitting the budget with nothing evictable
/// resident (gathered parameters + working set + external base load).
fn check_input(input: &SchedulerInput) -> Result<()> {
    let n_layers = input.layers.len();
    if n_layers == 0 {
        return Err(Error::BadSchedulerInput("empty model"));
    }
    let base = &input.step_base_load;
    if !base.is_empty() && base.len() != input.steps.len() {
        return Err(Error::BadSchedulerInput(
            "step base load length differs from the step count",
        ));
    }
    let mut covered = vec![false; n_layers];
    for (j, s) in input.steps.iter().enumerate() {
        let l = s.layer();
        if l >= n_layers {
            return Err(Error::BadSchedulerInput("step references a missing layer"));
        }
        covered[l] = true;
        let lp = &input.layers[l];
        let need = lp.full_param_bytes + lp.working_set + base.get(j).copied().unwrap_or(0);
        if need > input.gpu_budget {
            return Err(Error::WorkingSetTooLarge {
                layer_bytes: need,
                gpu_bytes: input.gpu_budget,
            });
        }
    }
    if covered.iter().any(|&c| !c) {
        return Err(Error::BadSchedulerInput("a layer has no compute step"));
    }
    Ok(())
}

/// Emit one trigger slot in the reference planner's within-trigger order:
/// trigger-0 moves, re-add movements, then — walking the per-step loop order
/// — step `t`'s own gather bundle (if not advanced away), step `t`'s
/// compute, and the advanced gather bundles of later steps.
fn emit_trigger(
    input: &SchedulerInput,
    moves: &[Run],
    readds: &[ReaddEvent],
    trig_off: &[usize],
    trig_steps: &[usize],
    t: usize,
    out: &mut Vec<ScheduleTask>,
) {
    if t == 0 {
        for r in moves {
            let pages = &input.layers[r.layer].shard_pages;
            for (off, &bytes) in pages[r.lo..r.hi].iter().enumerate() {
                out.push(ScheduleTask {
                    op: TaskOp::MoveToGpu(PlannedPage {
                        layer: r.layer,
                        index: r.lo + off,
                        bytes,
                    }),
                    trigger_id: 0,
                });
            }
        }
    }
    let lo = readds.partition_point(|e| e.trigger < t);
    let hi = readds.partition_point(|e| e.trigger <= t);
    for e in &readds[lo..hi] {
        let pages = &input.layers[e.layer].shard_pages;
        for (off, &bytes) in pages[e.lo..e.hi].iter().enumerate() {
            out.push(ScheduleTask {
                op: TaskOp::MoveToGpu(PlannedPage {
                    layer: e.layer,
                    index: e.lo + off,
                    bytes,
                }),
                trigger_id: t,
            });
        }
    }
    let slot = &trig_steps[trig_off[t]..trig_off[t + 1]];
    let mut rest = slot;
    if let Some((&first, tail)) = slot.split_first() {
        if first == t {
            gather_bundle(input, first, t, out);
            rest = tail;
        }
    }
    out.push(ScheduleTask {
        op: TaskOp::Compute(input.steps[t]),
        trigger_id: t,
    });
    for &i in rest {
        gather_bundle(input, i, t, out);
    }
}

fn gather_bundle(input: &SchedulerInput, step: usize, t: usize, out: &mut Vec<ScheduleTask>) {
    let l = input.steps[step].layer();
    for (pi, &bytes) in input.layers[l].shard_pages.iter().enumerate() {
        out.push(ScheduleTask {
            op: TaskOp::AllGather {
                page: PlannedPage {
                    layer: l,
                    index: pi,
                    bytes,
                },
                step,
            },
            trigger_id: t,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::{oracle, LayerPlan, StepKind};

    /// A jagged toy model: per-layer page lists of different shapes so the
    /// session sees non-uniform runs.
    fn jagged(budget: u64) -> SchedulerInput {
        let shapes: &[&[u64]] = &[&[10, 10, 10], &[25], &[5, 5, 5, 5], &[0, 12, 8]];
        let layers = shapes
            .iter()
            .map(|pages| LayerPlan {
                shard_pages: pages.to_vec(),
                full_param_bytes: pages.iter().sum::<u64>() * 2,
                working_set: 7,
            })
            .collect();
        SchedulerInput {
            layers,
            steps: SchedulerInput::default_steps(shapes.len()),
            gpu_budget: budget,
            step_base_load: Vec::new(),
        }
    }

    /// The session's current input with its budget set to `budget`.
    fn with_budget(p: &Planner, budget: u64) -> SchedulerInput {
        SchedulerInput {
            gpu_budget: budget,
            ..p.input().clone()
        }
    }

    fn assert_matches(p: &Planner) {
        let full = match oracle::schedule(p.scheduler(), p.input()) {
            Ok(s) => s,
            Err(e) => panic!("oracle rejected a planner-accepted input: {e}"),
        };
        assert_eq!(p.schedule().tasks, full.tasks);
        assert_eq!(p.schedule().stats, full.stats);
        assert_eq!(p.schedule().trigger_offsets, full.trigger_offsets);
        assert_eq!(p.schedule().num_steps, full.num_steps);
    }

    #[test]
    fn fresh_session_matches_full_planner() {
        for budget in [90, 120, 200, 1000] {
            let p = Planner::new(UnifiedScheduler::default(), jagged(budget)).unwrap();
            assert_matches(&p);
        }
    }

    #[test]
    fn empty_delta_is_identity_and_patches_nothing() {
        let mut p = Planner::new(UnifiedScheduler::default(), jagged(120)).unwrap();
        let before = p.schedule().clone();
        let out = p.replan(&jagged(120)).unwrap();
        assert!(out.patched_in_place);
        assert_eq!(out.layers_reused, p.input().layers.len());
        assert_eq!(p.schedule(), &before);
        assert_matches(&p);
    }

    #[test]
    fn single_layer_delta_matches_full_replan() {
        let mut p = Planner::new(UnifiedScheduler::default(), jagged(120)).unwrap();
        let mut next = p.input().clone();
        let lp = &mut next.layers[2];
        lp.working_set = 40;
        lp.shard_pages = vec![9, 9, 9, 9, 9];
        lp.full_param_bytes = 45;
        let out = p.replan(&next).unwrap();
        assert_eq!(out.layers_touched, 1);
        assert_matches(&p);
    }

    #[test]
    fn ws_increase_fast_path_stays_identical_and_session_coherent() {
        let mut p = Planner::new(UnifiedScheduler::default(), jagged(200)).unwrap();
        // A small pure working-set increase (an activation re-estimate).
        let mut next = p.input().clone();
        next.layers[1].working_set += 3;
        p.replan(&next).unwrap();
        assert_matches(&p);
        // A following capacity replan starts from the bumped input …
        p.replan(&with_budget(&p, 120)).unwrap();
        assert_matches(&p);
        // … and a decrease still matches.
        let mut next = p.input().clone();
        next.layers[1].working_set -= 2;
        p.replan(&next).unwrap();
        assert_matches(&p);
        // So does a bump that leaves little room (layer 0 then needs 107 of
        // the 120-byte budget at its steps).
        let mut next = p.input().clone();
        next.layers[0].working_set += 40;
        p.replan(&next).unwrap();
        assert_matches(&p);
    }

    #[test]
    fn outage_capacity_delta_matches_full_replan() {
        let mut p = Planner::new(UnifiedScheduler::default(), jagged(200)).unwrap();
        // Degraded headroom: shrink, then elastic recovery: grow back.
        p.replan(&with_budget(&p, 95)).unwrap();
        assert_matches(&p);
        let out = p.replan(&with_budget(&p, 400)).unwrap();
        assert_matches(&p);
        assert!(!out.patched_in_place);
    }

    #[test]
    fn resize_delta_reshaping_every_shard_matches_full_replan() {
        let mut p = Planner::new(UnifiedScheduler::default(), jagged(150)).unwrap();
        // dp 2x: every shard halves (pages shrink), like an elastic grow.
        let mut next = p.input().clone();
        for l in &mut next.layers {
            for b in &mut l.shard_pages {
                *b /= 2;
            }
        }
        p.replan(&next).unwrap();
        assert_matches(&p);
    }

    #[test]
    fn layer_count_change_requires_steps_and_works_with_them() {
        let mut p = Planner::new(UnifiedScheduler::default(), jagged(150)).unwrap();
        // Dropping a layer but keeping the old step list leaves steps that
        // name the missing layer: a typed error, and the session intact.
        let mut next = p.input().clone();
        next.layers.truncate(3);
        let err = p.replan(&next).unwrap_err();
        assert!(matches!(err, Error::BadSchedulerInput(_)));
        assert_eq!(p.input(), &jagged(150));
        assert_matches(&p);
        next.steps = SchedulerInput::default_steps(3);
        p.replan(&next).unwrap();
        assert_matches(&p);
    }

    #[test]
    fn step_list_delta_matches_full_replan() {
        let mut p = Planner::new(UnifiedScheduler::default(), jagged(150)).unwrap();
        // A degraded iteration: layer 1 recomputed twice in the backward.
        let mut next = p.input().clone();
        next.steps.push(StepKind::Backward(1));
        next.steps.insert(2, StepKind::Forward(1));
        p.replan(&next).unwrap();
        assert_matches(&p);
    }

    #[test]
    fn infeasible_delta_leaves_previous_plan_live() {
        let mut p = Planner::new(UnifiedScheduler::default(), jagged(150)).unwrap();
        let before = p.schedule().clone();
        let err = p.replan(&with_budget(&p, 10)).unwrap_err();
        assert!(matches!(err, Error::WorkingSetTooLarge { .. }));
        assert_eq!(p.schedule(), &before);
        assert_eq!(p.input().gpu_budget, 150);
        assert_matches(&p);
        // And the session still replans fine afterwards.
        p.replan(&with_budget(&p, 120)).unwrap();
        assert_matches(&p);
    }

    #[test]
    fn mismatched_step_base_load_is_a_typed_error() {
        // A base load must be empty or cover every step: planning a shorter
        // one would count the missing steps as zero.
        let mut bad = jagged(150);
        bad.step_base_load = vec![3; bad.steps.len() - 1];
        let is_bad_input = |r: Result<_>| matches!(r, Err(Error::BadSchedulerInput(_)));
        assert!(is_bad_input(
            Planner::new(UnifiedScheduler::default(), bad.clone()).map(|_| ())
        ));
        assert!(is_bad_input(
            UnifiedScheduler::default().schedule(&bad).map(|_| ())
        ));
        // A live session rejects it too and keeps its previous plan.
        let mut p = Planner::new(UnifiedScheduler::default(), jagged(150)).unwrap();
        let before = p.schedule().clone();
        assert!(is_bad_input(p.replan(&bad).map(|_| ())));
        assert_eq!(p.schedule(), &before);
        assert_matches(&p);
        bad.step_base_load.push(3);
        p.replan(&bad).unwrap();
        assert_matches(&p);
    }

    #[test]
    fn long_replan_sequence_stays_identical() {
        // Exercise buffer reuse: many replans through one session.
        let mut p = Planner::new(UnifiedScheduler::default(), jagged(130)).unwrap();
        for round in 0u64..24 {
            let mut next = p.input().clone();
            match round % 4 {
                0 => next.gpu_budget = 95 + (round * 13) % 200,
                1 => {
                    let lp = &mut next.layers[(round as usize / 4) % 4];
                    lp.working_set = (round * 7) % 30;
                    lp.shard_pages = (0..(round % 5)).map(|k| 3 + k * 4).collect();
                }
                2 => {
                    next.steps = SchedulerInput::default_steps(4);
                    if round % 8 == 2 {
                        next.steps.push(StepKind::Forward((round as usize) % 4));
                    }
                }
                _ => {}
            }
            match p.replan(&next) {
                Ok(out) => {
                    assert!(out.layers_touched + out.layers_reused <= p.input().layers.len());
                    assert_matches(&p);
                }
                Err(Error::WorkingSetTooLarge { .. }) => assert_matches(&p),
                Err(e) => panic!("unexpected replan error: {e}"),
            }
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::scheduler::{oracle, LayerPlan, StepKind};
    use proptest::prelude::*;

    /// Abstract mutations, resolved against the *current* input at apply
    /// time (indices mod the live layer count, steps covering every layer).
    #[derive(Debug, Clone)]
    enum Mutation {
        /// Touch one layer: new pages / full / working set (a permanent
        /// layer failure is the empty-pages case).
        Layer {
            raw: usize,
            pages: Vec<u64>,
            full: u64,
            ws: u64,
        },
        /// Capacity change (an outage shrinks, an elastic grow raises).
        Budget(u64),
        /// Step list change: default steps plus extra inserted recomputes.
        Steps { extra: Vec<(usize, usize, bool)> },
        /// Base-load change (None clears it).
        Base(Option<u64>),
        /// A base load whose length is neither 0 nor the step count: always
        /// rejected with a typed error.
        BadBase { raw: usize },
        /// Pure working-set increase on one layer (an activation
        /// re-estimate).
        WsBump { raw: usize, d: u64 },
        /// Elastic resize: every layer replaced, possibly changing the layer
        /// count.
        Resize(Vec<(Vec<u64>, u64, u64)>),
    }

    fn mutation_strategy() -> impl Strategy<Value = Mutation> {
        prop_oneof![
            (
                any::<usize>(),
                proptest::collection::vec(0u64..40, 0..6),
                0u64..120,
                0u64..60,
            )
                .prop_map(|(raw, pages, full, ws)| Mutation::Layer {
                    raw,
                    pages,
                    full,
                    ws
                }),
            (1u64..400).prop_map(Mutation::Budget),
            proptest::collection::vec((any::<usize>(), any::<usize>(), any::<bool>()), 0..4)
                .prop_map(|extra| Mutation::Steps { extra }),
            (any::<bool>(), 1u64..20).prop_map(|(some, k)| Mutation::Base(some.then_some(k))),
            any::<usize>().prop_map(|raw| Mutation::BadBase { raw }),
            (any::<usize>(), 0u64..50).prop_map(|(raw, d)| Mutation::WsBump { raw, d }),
            proptest::collection::vec(
                (
                    proptest::collection::vec(0u64..40, 0..6),
                    0u64..120,
                    0u64..60
                ),
                1..6,
            )
            .prop_map(Mutation::Resize),
        ]
    }

    /// The base load `cur` carries, fitted to `steps` new steps: kept
    /// entries, 0 for appended steps, and still empty when it was empty.
    fn refit_base(cur: &SchedulerInput, steps: usize) -> Vec<u64> {
        let mut base = cur.step_base_load.clone();
        if !base.is_empty() {
            base.resize(steps, 0);
        }
        base
    }

    /// The input `m` turns `cur` into.
    fn next_input(m: &Mutation, cur: &SchedulerInput) -> SchedulerInput {
        let n = cur.layers.len();
        let mut next = cur.clone();
        match m {
            Mutation::Layer {
                raw,
                pages,
                full,
                ws,
            } => {
                next.layers[raw % n] = LayerPlan {
                    shard_pages: pages.clone(),
                    full_param_bytes: *full,
                    working_set: *ws,
                };
            }
            Mutation::Budget(b) => next.gpu_budget = *b,
            Mutation::Steps { extra } => {
                let mut steps = SchedulerInput::default_steps(n);
                for (pos, l, fwd) in extra {
                    let s = if *fwd {
                        StepKind::Forward(l % n)
                    } else {
                        StepKind::Backward(l % n)
                    };
                    steps.insert(pos % (steps.len() + 1), s);
                }
                next.step_base_load = refit_base(cur, steps.len());
                next.steps = steps;
            }
            Mutation::WsBump { raw, d } => next.layers[raw % n].working_set += d,
            Mutation::Base(seed) => {
                next.step_base_load = match seed {
                    Some(k) => (0..cur.steps.len() as u64).map(|j| (j * k) % 31).collect(),
                    None => Vec::new(),
                };
            }
            Mutation::BadBase { raw } => {
                let steps = cur.steps.len();
                let len = match 1 + raw % (2 * steps) {
                    len if len == steps => steps + 1,
                    len => len,
                };
                next.step_base_load = (0..len as u64).map(|j| (j * 7) % 23).collect();
            }
            Mutation::Resize(shapes) => {
                next.layers = shapes
                    .iter()
                    .map(|(pages, full, ws)| LayerPlan {
                        shard_pages: pages.clone(),
                        full_param_bytes: *full,
                        working_set: *ws,
                    })
                    .collect();
                next.steps = SchedulerInput::default_steps(shapes.len());
                next.step_base_load = refit_base(cur, next.steps.len());
            }
        }
        next
    }

    fn base_input_strategy() -> impl Strategy<Value = (SchedulerInput, UnifiedScheduler)> {
        (
            proptest::collection::vec(
                (
                    proptest::collection::vec(0u64..40, 0..6),
                    0u64..120,
                    0u64..60,
                ),
                1..7,
            ),
            1u64..400,
            any::<bool>(),
            0usize..8,
            any::<bool>(),
        )
            .prop_map(|(layers, budget, with_base, horizon, phase2)| {
                let n = layers.len();
                let layers: Vec<LayerPlan> = layers
                    .into_iter()
                    .map(|(pages, full, ws)| LayerPlan {
                        shard_pages: pages,
                        full_param_bytes: full,
                        working_set: ws,
                    })
                    .collect();
                let steps = SchedulerInput::default_steps(n);
                let step_base_load = if with_base {
                    (0..steps.len()).map(|j| (j as u64 * 7) % 23).collect()
                } else {
                    Vec::new()
                };
                (
                    SchedulerInput {
                        layers,
                        steps,
                        gpu_budget: budget,
                        step_base_load,
                    },
                    UnifiedScheduler {
                        phase2,
                        prefetch_horizon: horizon,
                    },
                )
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        /// Random mutation sequences (outage / permanent / resize inputs):
        /// after every accepted input the session's schedule is
        /// byte-identical to the per-page oracle's plan of that input, and
        /// a rejected input leaves the session byte-identical to the
        /// previous input's plan.
        #[test]
        fn incremental_replan_matches_from_scratch(
            (mut input, sched) in base_input_strategy(),
            muts in proptest::collection::vec(mutation_strategy(), 1..6)
        ) {
            let planner = Planner::new(sched.clone(), input.clone());
            let mut planner = match planner {
                Ok(p) => p,
                Err(_) => {
                    // Infeasible seed: the oracle must agree.
                    prop_assert!(oracle::schedule(&sched, &input).is_err());
                    return Ok(());
                }
            };
            for m in &muts {
                let cand = next_input(m, planner.input());
                match planner.replan(&cand) {
                    Ok(_) => {
                        prop_assert!(
                            !matches!(m, Mutation::BadBase { .. }),
                            "planner accepted a mismatched base load"
                        );
                        input = cand;
                        let full = oracle::schedule(&sched, &input);
                        let full = match full {
                            Ok(s) => s,
                            Err(e) => {
                                return Err(TestCaseError::Fail(
                                    format!("planner accepted what the oracle rejects: {e}")));
                            }
                        };
                        prop_assert_eq!(&planner.schedule().tasks, &full.tasks);
                        prop_assert_eq!(planner.schedule().stats, full.stats);
                        prop_assert_eq!(
                            &planner.schedule().trigger_offsets,
                            &full.trigger_offsets
                        );
                        prop_assert_eq!(planner.schedule().num_steps, full.num_steps);
                    }
                    Err(Error::WorkingSetTooLarge { .. }) => {
                        // The mutated input must genuinely be infeasible,
                        // and the session must still match the old input.
                        prop_assert!(oracle::schedule(&sched, &cand).is_err());
                        let full = match oracle::schedule(&sched, &input) {
                            Ok(s) => s,
                            Err(e) => {
                                return Err(TestCaseError::Fail(
                                    format!("previous input became infeasible: {e}")));
                            }
                        };
                        prop_assert_eq!(&planner.schedule().tasks, &full.tasks);
                    }
                    Err(Error::BadSchedulerInput(_)) if matches!(m, Mutation::BadBase { .. }) => {
                        // The typed rejection leaves the session on the
                        // previous input's plan.
                        prop_assert_eq!(planner.input(), &input);
                        let full = match oracle::schedule(&sched, &input) {
                            Ok(s) => s,
                            Err(e) => {
                                return Err(TestCaseError::Fail(
                                    format!("previous input became infeasible: {e}")));
                            }
                        };
                        prop_assert_eq!(&planner.schedule().tasks, &full.tasks);
                        prop_assert_eq!(planner.schedule().stats, full.stats);
                        prop_assert_eq!(
                            &planner.schedule().trigger_offsets,
                            &full.trigger_offsets
                        );
                    }
                    Err(e) => {
                        return Err(TestCaseError::Fail(format!("unexpected error: {e}")));
                    }
                }
            }
        }
    }
}
