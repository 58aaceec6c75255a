//! Stage 2 — Shard: ZeRO and expert-parallel byte accounting (Section 3.2,
//! and Section 6.4 for MoE models).
//!
//! This stage turns the trace into the [`SchedulerInput`] — per-layer shard
//! pages, gathered sizes and working sets — and computes the per-rank byte
//! quantities every later stage prices against:
//!
//! * dense models: plain ZeRO sharding of every layer's FP16 parameters;
//! * MoE models: expert parameters are partitioned by expert parallelism —
//!   each rank holds `experts/N` experts locally and never gathers the
//!   rest; only the non-expert ("dense") parameters are ZeRO-sharded and
//!   travel the collective fabric. Gradients follow the same split: a rank
//!   only materializes its local experts' gradients (tokens routed
//!   elsewhere never come back);
//! * mesh plans: the [`ParallelismPlan`] composes on top — tensor
//!   parallelism divides every layer's tensors (and activations) by `tp`
//!   before ZeRO sharding, pipeline parallelism confines this rank's
//!   schedule to its stage's `ceil(layers/pp)` layers, and the ZeRO stage
//!   decides which state is sharded across the dp group at all.

use crate::config::EngineConfig;
use crate::plan::{ParallelismPlan, ZeroStage};
use crate::scheduler::{LayerPlan, SchedulerInput};
use crate::tracer::Trace;
use angel_model::TransformerConfig;

use super::trace::TracePlan;

/// The sharded view of the model: scheduler input plus rank byte totals.
#[derive(Debug, Clone)]
pub struct ShardPlan {
    /// Per-layer pages/working sets for the Unified Scheduler.
    pub input: SchedulerInput,
    /// Per-layer FP16 parameter bytes that cross the collective fabric
    /// (all parameters for dense models; non-expert parameters only under
    /// expert parallelism).
    pub layer_comm_bytes: Vec<u64>,
    /// Whole-model parameter count.
    pub total_params: u64,
    /// Parameters of one model-parallel slice (`total / (tp·pp)` — the
    /// whole model for pure data parallelism).
    pub model_parallel_params: u64,
    /// Whole-model state bytes (16 B/param).
    pub state_bytes: u64,
    /// This rank's ZeRO parameter share.
    pub rank_params: u64,
    /// This rank's share of model states.
    pub rank_state_bytes: u64,
    /// This rank's FP32 optimizer-state bytes (12 B/param).
    pub rank_optim: u64,
    /// This rank's FP16 parameter+gradient bytes (4 B/param).
    pub rank_p16g16: u64,
}

impl ShardPlan {
    /// Shard `model` across the mesh described by `traced`.
    pub fn build(model: &TransformerConfig, config: &EngineConfig, traced: &TracePlan) -> Self {
        let plan = traced.plan;
        let trace = &traced.trace;
        let total_params = model.total_params();
        let state_bytes = model.model_state_bytes();

        // Model parallelism divides the replica first; the ZeRO stage then
        // decides what the dp group shards of each rank's slice.
        let mp = plan.model_parallel();
        let model_parallel_params = total_params.div_ceil(mp);
        let rank_params = model_parallel_params.div_ceil(plan.param_shard_ranks());
        let rank_optim = model_parallel_params.div_ceil(plan.optim_shard_ranks()) * 12;
        let rank_p16g16 = rank_params * 4;
        let rank_state_bytes = match plan.zero_stage {
            // Fully sharded: an even slice of everything.
            ZeroStage::Full => state_bytes.div_ceil(mp * plan.dp as u64),
            // Replicated parameters/gradients plus the (possibly sharded)
            // optimizer states.
            _ => rank_p16g16 + rank_optim,
        };

        let gpu_budget = config.gpu_budget();
        let input = if model.is_moe() {
            moe_input(model, trace, traced.n_gpus, config.page_size, gpu_budget)
        } else {
            mesh_input(trace, &plan, config.page_size, gpu_budget)
        };

        let layer_comm_bytes = trace
            .layer_bytes
            .iter()
            .map(|b| {
                if model.is_moe() {
                    b.param16_dense
                } else {
                    b.param16().div_ceil(plan.tp as u64)
                }
            })
            .collect();

        Self {
            input,
            layer_comm_bytes,
            total_params,
            model_parallel_params,
            state_bytes,
            rank_params,
            rank_state_bytes,
            rank_optim,
            rank_p16g16,
        }
    }
}

/// Scheduler input for a mesh plan, pure ZeRO-3 included: this rank
/// schedules its pipeline stage's layers, with every tensor (parameters,
/// activations, gradients) already divided `tp` ways, and the ZeRO stage
/// deciding how much of each layer's parameters this rank stores between
/// iterations.
fn mesh_input(
    trace: &Trace,
    plan: &ParallelismPlan,
    page_size: u64,
    gpu_budget: u64,
) -> SchedulerInput {
    let tp = plan.tp as u64;
    let stage = &trace.layer_bytes[..plan.stage_layers(trace.layers)];
    let layers = stage
        .iter()
        .enumerate()
        .map(|(l, b)| {
            let full = b.param16().div_ceil(tp);
            LayerPlan {
                layer: l,
                shard_pages: split_pages(full.div_ceil(plan.param_shard_ranks()), page_size),
                full_param_bytes: full,
                working_set: b.working_set().div_ceil(tp),
            }
        })
        .collect();
    let activation: Vec<u64> = stage.iter().map(|b| b.activation.div_ceil(tp)).collect();
    scheduler_input(layers, &activation, trace.recompute, page_size, gpu_budget)
}

/// Scheduler input under expert parallelism: the dense fraction of every
/// layer is ZeRO-sharded, the expert fraction is partitioned whole-expert
/// per rank.
fn moe_input(
    model: &TransformerConfig,
    trace: &Trace,
    n_gpus: usize,
    page_size: u64,
    gpu_budget: u64,
) -> SchedulerInput {
    let experts_per_rank = (model.experts as u64).div_ceil(n_gpus as u64);
    // This rank's whole experts out of `total` bytes over all experts.
    let local = |total: u64| {
        if model.experts > 0 {
            total / model.experts as u64 * experts_per_rank
        } else {
            0
        }
    };
    let layers = trace
        .layer_bytes
        .iter()
        .enumerate()
        .map(|(l, b)| {
            let local_experts = local(b.param16_expert);
            LayerPlan {
                layer: l,
                shard_pages: split_pages(
                    b.param16_dense.div_ceil(n_gpus as u64) + local_experts,
                    page_size,
                ),
                full_param_bytes: b.param16_dense + local_experts,
                working_set: b.activation + b.grad16_dense + local(b.grad16_expert),
            }
        })
        .collect();
    let activation: Vec<u64> = trace.layer_bytes.iter().map(|b| b.activation).collect();
    scheduler_input(layers, &activation, trace.recompute, page_size, gpu_budget)
}

/// Split a shard of `bytes` into `page_size` pages, the last one partial.
fn split_pages(bytes: u64, page_size: u64) -> Vec<u64> {
    let mut pages = vec![page_size; (bytes / page_size) as usize];
    let tail = bytes % page_size;
    if tail > 0 {
        pages.push(tail);
    }
    pages
}

/// The input over the default forward-then-backward steps of `layers`,
/// whose activations are `activation`. Without recomputation every layer's
/// activations stay live from its forward to its backward; that load is
/// outside this schedule's control but must constrain it.
fn scheduler_input(
    layers: Vec<LayerPlan>,
    activation: &[u64],
    recompute: bool,
    page_size: u64,
    gpu_budget: u64,
) -> SchedulerInput {
    SchedulerInput {
        steps: SchedulerInput::default_steps(layers.len()),
        step_base_load: if recompute {
            Vec::new()
        } else {
            step_base_load(activation)
        },
        layers,
        gpu_budget,
        page_size,
    }
}

/// Activation bytes that the other layers pin at each of the `2n` default
/// steps of `n` layers. Layer `l` is live from its forward (step `l`) to its
/// backward (step `2n − 1 − l`). These windows nest, so the layers live at
/// step `j` are exactly `l ≤ min(j, 2n − 1 − j)`, and the largest of them is
/// the step's own layer. The load is therefore one prefix sum, and all steps
/// together cost O(n).
fn step_base_load(activation: &[u64]) -> Vec<u64> {
    let n = activation.len();
    let mut prefix = Vec::with_capacity(n);
    let mut sum = 0u64;
    for &a in activation {
        prefix.push(sum);
        sum += a;
    }
    (0..2 * n).map(|j| prefix[j.min(2 * n - 1 - j)]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::StepKind;
    use crate::tracer::LayerBytes;
    use proptest::prelude::*;

    fn build(model: &TransformerConfig, config: &EngineConfig) -> ShardPlan {
        let traced = TracePlan::build(model, config).unwrap();
        ShardPlan::build(model, config, &traced)
    }

    fn moe_model(experts: usize) -> TransformerConfig {
        TransformerConfig::t5_moe_1_2t()
            .with_layers(4)
            .with_experts(experts)
    }

    #[test]
    fn dense_layers_page_up_to_the_shard() {
        let model = TransformerConfig::gpt3_1_7b().with_layers(4);
        let config = EngineConfig::single_server();
        let plan = build(&model, &config);
        let n = config.num_gpus() as u64;
        for (l, lp) in plan.input.layers.iter().enumerate() {
            let shard: u64 = lp.shard_pages.iter().sum();
            assert_eq!(shard, lp.full_param_bytes.div_ceil(n), "layer {l}");
            assert!(lp
                .shard_pages
                .iter()
                .all(|&p| p > 0 && p <= config.page_size));
        }
        assert_eq!(plan.layer_comm_bytes.len(), 4);
    }

    #[test]
    fn moe_shard_covers_dense_share_plus_local_experts() {
        // 6 experts on 8 GPUs: uneven split, each rank provisions
        // ceil(6/8) = 1 expert's bytes.
        let model = moe_model(6);
        let config = EngineConfig::single_server();
        let plan = build(&model, &config);
        let traced = TracePlan::build(&model, &config).unwrap();
        let n = config.num_gpus() as u64;
        for (l, lp) in plan.input.layers.iter().enumerate() {
            let b = traced.trace.layer_bytes[l];
            let (dense, per_expert) = (b.param16_dense, b.param16_expert / 6);
            let shard: u64 = lp.shard_pages.iter().sum();
            assert_eq!(shard, dense.div_ceil(n) + per_expert, "layer {l}");
            // Gathered size excludes remote experts.
            assert_eq!(lp.full_param_bytes, dense + per_expert, "layer {l}");
            // Only the dense fraction travels the collective fabric.
            assert_eq!(plan.layer_comm_bytes[l], dense, "layer {l}");
        }
    }

    #[test]
    fn moe_uneven_experts_round_up_per_rank() {
        // 12 experts on 8 GPUs: ceil(12/8) = 2 local experts per rank —
        // more bytes per rank than the even 8-expert split.
        let config = EngineConfig::single_server();
        let twelve = build(&moe_model(12), &config);
        let eight = build(&moe_model(8), &config);
        let traced = TracePlan::build(&moe_model(12), &config).unwrap();
        for l in 0..4 {
            let per_expert = traced.trace.layer_bytes[l].param16_expert / 12;
            let shard12: u64 = twelve.input.layers[l].shard_pages.iter().sum();
            let shard8: u64 = eight.input.layers[l].shard_pages.iter().sum();
            // 2 experts of the 12-way split vs 1 expert of the 8-way split;
            // each 8-way expert is as large as a 12-way one here (same
            // total expert bytes per layer ÷ experts).
            assert!(shard12 > shard8, "layer {l}: {shard12} vs {shard8}");
            assert!(shard12 >= 2 * per_expert, "layer {l}");
        }
    }

    #[test]
    fn zero_expert_moe_degrades_to_dense_accounting() {
        // `experts == 0` must not divide by zero and must carry no expert
        // bytes in shards or working sets.
        let model = moe_model(0);
        let config = EngineConfig::single_server();
        let traced = TracePlan::build(&model, &config).unwrap();
        let input = moe_input(
            &model,
            &traced.trace,
            traced.n_gpus,
            config.page_size,
            config.gpu_budget(),
        );
        let n = traced.n_gpus as u64;
        for (l, lp) in input.layers.iter().enumerate() {
            let b = traced.trace.layer_bytes[l];
            let shard: u64 = lp.shard_pages.iter().sum();
            assert_eq!(shard, b.param16_dense.div_ceil(n), "layer {l}");
            assert_eq!(lp.full_param_bytes, b.param16_dense, "layer {l}");
            assert_eq!(lp.working_set, b.activation + b.grad16_dense, "layer {l}");
        }
    }

    #[test]
    fn recompute_controls_moe_step_base_load() {
        let model = moe_model(8);
        let on = build(&model, &EngineConfig::single_server().with_recompute(true));
        let off = build(&model, &EngineConfig::single_server().with_recompute(false));
        // Recompute discards inter-step activations: no base load at all.
        assert!(on.input.step_base_load.is_empty());
        // Without recompute every step carries the other live layers'
        // activations; mid-iteration steps carry the most.
        assert_eq!(off.input.step_base_load.len(), off.input.steps.len());
        assert!(off.input.step_base_load.iter().any(|&b| b > 0));
        // Working sets also shrink under recompute (activations released).
        for l in 0..4 {
            assert!(on.input.layers[l].working_set <= off.input.layers[l].working_set);
        }
    }

    #[test]
    fn mesh_plan_divides_layers_and_bytes() {
        // 4 servers (32 GPUs): dp=4 × pp=4 × tp=2 on an 8-layer model.
        let model = TransformerConfig::gpt3_1_7b().with_layers(8);
        let config = EngineConfig::servers(4)
            .with_parallelism(crate::plan::ParallelismPlan::megatron(4, 2, 4));
        let plan = build(&model, &config);
        let traced = TracePlan::build(&model, &config).unwrap();
        // This rank's stage holds 8/4 = 2 layers.
        assert_eq!(plan.input.layers.len(), 2);
        assert_eq!(plan.input.steps.len(), 4);
        for (l, lp) in plan.input.layers.iter().enumerate() {
            let full = traced.trace.layer_bytes[l].param16().div_ceil(2);
            // Stage None: no ZeRO sharding — the whole tp slice is the shard.
            assert_eq!(lp.full_param_bytes, full, "layer {l}");
            assert_eq!(lp.shard_pages.iter().sum::<u64>(), full, "layer {l}");
            assert_eq!(plan.layer_comm_bytes[l], full, "layer {l}");
        }
        // Replicated states: 16 bytes per parameter of the tp·pp slice.
        let slice = plan.total_params.div_ceil(8);
        assert_eq!(plan.rank_params, slice);
        assert_eq!(plan.rank_state_bytes, slice * 16);
    }

    #[test]
    fn zero3_mesh_composes_tp_with_sharding() {
        // dp=8 × tp=2 under full ZeRO: each layer's tp slice is further
        // sharded 8 ways across the dp group.
        let model = TransformerConfig::gpt3_1_7b().with_layers(4);
        let config = EngineConfig::servers(2).with_parallelism(crate::plan::ParallelismPlan {
            dp: 8,
            tp: 2,
            pp: 1,
            zero_stage: ZeroStage::Full,
        });
        let plan = build(&model, &config);
        let traced = TracePlan::build(&model, &config).unwrap();
        for (l, lp) in plan.input.layers.iter().enumerate() {
            let slice = traced.trace.layer_bytes[l].param16().div_ceil(2);
            assert_eq!(lp.full_param_bytes, slice, "layer {l}");
            assert_eq!(
                lp.shard_pages.iter().sum::<u64>(),
                slice.div_ceil(8),
                "layer {l}"
            );
        }
        assert_eq!(plan.rank_params, plan.total_params.div_ceil(2).div_ceil(8));
        assert_eq!(plan.rank_optim, plan.rank_params * 12);
    }

    #[test]
    fn rank_totals_follow_zero_arithmetic() {
        let model = TransformerConfig::gpt3_1_7b().with_layers(4);
        let config = EngineConfig::single_server();
        let plan = build(&model, &config);
        let n = config.num_gpus() as u64;
        assert_eq!(plan.rank_params, plan.total_params.div_ceil(n));
        assert_eq!(plan.rank_optim, plan.rank_params * 12);
        assert_eq!(plan.rank_p16g16, plan.rank_params * 4);
        assert_eq!(plan.state_bytes, model.model_state_bytes());
    }

    /// Reference accounting for `build`'s scheduler input and comm bytes:
    /// every per-layer quantity is a full inventory rescan, every page list
    /// a take-a-page loop and every step's base load a direct window sum,
    /// with pure ZeRO-3, other mesh plans and MoE written out separately.
    fn reference(model: &TransformerConfig, config: &EngineConfig) -> (SchedulerInput, Vec<u64>) {
        let traced = TracePlan::build(model, config).unwrap();
        let (trace, plan) = (&traced.trace, traced.plan);
        let rows: Vec<LayerBytes> = (0..trace.layers)
            .map(|l| trace.rescan_layer_bytes(l))
            .collect();
        let paged = |shard: u64| {
            let mut pages = Vec::new();
            let mut rest = shard;
            while rest > 0 {
                let take = rest.min(config.page_size);
                pages.push(take);
                rest -= take;
            }
            pages
        };
        let n_gpus = traced.n_gpus as u64;
        let per_rank = (model.experts as u64).div_ceil(n_gpus);
        let local = |total: u64| {
            if model.experts > 0 {
                total / model.experts as u64 * per_rank
            } else {
                0
            }
        };
        let zero3 = plan.tp == 1 && plan.pp == 1 && plan.zero_stage == ZeroStage::Full;
        let (n, tp) = if model.is_moe() || zero3 {
            (trace.layers, 1)
        } else {
            (plan.stage_layers(trace.layers), plan.tp as u64)
        };
        let layers = (0..n)
            .map(|l| {
                let b = rows[l];
                let (full, shard, working_set) = if model.is_moe() {
                    let full = b.param16_dense + local(b.param16_expert);
                    let shard = b.param16_dense.div_ceil(n_gpus) + local(b.param16_expert);
                    (
                        full,
                        shard,
                        b.activation + b.grad16_dense + local(b.grad16_expert),
                    )
                } else if zero3 {
                    let full = b.param16_dense + b.param16_expert;
                    let ws = b.activation + b.grad16_dense + b.grad16_expert;
                    (full, full.div_ceil(plan.dp as u64), ws)
                } else {
                    let full = (b.param16_dense + b.param16_expert).div_ceil(tp);
                    let ws = (b.activation + b.grad16_dense + b.grad16_expert).div_ceil(tp);
                    (full, full.div_ceil(plan.param_shard_ranks()), ws)
                };
                LayerPlan {
                    layer: l,
                    shard_pages: paged(shard),
                    full_param_bytes: full,
                    working_set,
                }
            })
            .collect();
        let steps = SchedulerInput::default_steps(n);
        let step_base_load = if config.recompute {
            Vec::new()
        } else {
            let activation: Vec<u64> = rows.iter().map(|b| b.activation.div_ceil(tp)).collect();
            window_sums(&steps, n, &activation)
        };
        let comm = rows
            .iter()
            .map(|b| {
                if model.is_moe() {
                    b.param16_dense
                } else {
                    (b.param16_dense + b.param16_expert).div_ceil(plan.tp as u64)
                }
            })
            .collect();
        let input = SchedulerInput {
            layers,
            steps,
            gpu_budget: config.gpu_budget(),
            page_size: config.page_size,
            step_base_load,
        };
        (input, comm)
    }

    /// Reference base load: at step `j`, the activations of every layer
    /// `l < n` other than the step's own whose window `l ≤ j ≤ 2n − 1 − l`
    /// covers `j`, summed directly in O(n) per step.
    fn window_sums(steps: &[StepKind], n: usize, activation: &[u64]) -> Vec<u64> {
        steps
            .iter()
            .enumerate()
            .map(|(j, s)| {
                (0..n)
                    .filter(|&l| l != s.layer() && l <= j && j <= 2 * n - 1 - l)
                    .map(|l| activation[l])
                    .sum()
            })
            .collect()
    }

    #[test]
    fn build_matches_reference_accounting() {
        let dense = TransformerConfig::gpt3_1_7b().with_layers(5);
        let plans = [
            ParallelismPlan::zero3(8),
            ParallelismPlan::megatron(4, 2, 1),
            ParallelismPlan::megatron(2, 2, 2),
        ];
        for recompute in [true, false] {
            let base = EngineConfig::single_server()
                .with_batch_size(2)
                .with_recompute(recompute);
            let mut cases: Vec<_> = plans
                .iter()
                .map(|&p| (dense.clone(), base.clone().with_parallelism(p)))
                .collect();
            cases.push((moe_model(6), base.clone()));
            for (model, config) in cases {
                let plan = build(&model, &config);
                let (input, comm) = reference(&model, &config);
                let what = format!(
                    "{} {:?} recompute={recompute}",
                    model.name, config.parallelism
                );
                assert_eq!(plan.input, input, "{what}");
                assert_eq!(plan.layer_comm_bytes, comm, "{what}");
                assert_eq!(plan.input.step_base_load.is_empty(), recompute, "{what}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The prefix-sum base load equals the direct window sum, for the
        /// whole model (`pp = 1`, and every MoE plan) and for the
        /// stage-local window of a pipeline stage's first `ceil(L/pp)`
        /// layers.
        #[test]
        fn step_base_load_matches_window_sums(
            activation in collection::vec(0u64..1 << 40, 1..80),
            pp in 1usize..9,
        ) {
            let n = ParallelismPlan::megatron(1, 1, pp).stage_layers(activation.len());
            let stage = &activation[..n];
            let steps = SchedulerInput::default_steps(n);
            prop_assert_eq!(step_base_load(stage), window_sums(&steps, n, stage));
        }
    }
}
