//! The Tracer — Section 5 of the paper.
//!
//! "The Tracer in Angel-PTM is responsible for tracking the usage of each
//! tensor and summarizing a tensor access pattern for the given model as a
//! list of following elements: `tensor_id`, `first_id` (the logical ID when
//! first accessing this tensor), `end_id` (the logical ID when last
//! accessing this tensor), `cpu_time`, `gpu_time`."
//!
//! The production system obtains these by hooking parameter construction and
//! registering forward/backward hooks over one profiled iteration. Here the
//! iteration is replayed *symbolically*: training is iterative (Section 4.2,
//! "the training of deep learning models is iterative by nature"), so one
//! replay of the op list — forward over all layers, backward in reverse,
//! optimizer updates — yields the exact access pattern of every subsequent
//! iteration. Logical IDs index into that op list ("using logical IDs
//! instead of real-time for lifetime tracking simplifies the scheduling
//! process").

use angel_model::{layer_inventory, TensorClass, TensorSpec, TransformerConfig};
use angel_sim::compute::{CpuUpdateModel, GpuComputeModel};
use serde::{Deserialize, Serialize};

/// One step of the symbolic iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum OpKind {
    /// Forward computation of layer `l`.
    Forward(usize),
    /// Backward computation of layer `l` (includes recomputation when
    /// enabled).
    Backward(usize),
    /// Optimizer update of layer `l` (scheduled after backward produces the
    /// layer's gradients).
    Update(usize),
}

impl OpKind {
    pub fn layer(self) -> usize {
        match self {
            OpKind::Forward(l) | OpKind::Backward(l) | OpKind::Update(l) => l,
        }
    }
}

/// The access pattern of one tensor, exactly the record listed in Section 5.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TensorTrace {
    /// The logical ID of this tensor (index into the traced inventory).
    pub tensor_id: usize,
    /// The logical ID when first accessing this tensor.
    pub first_id: usize,
    /// The logical ID when last accessing this tensor.
    pub end_id: usize,
    /// The time for producing this tensor on CPU (ns).
    pub cpu_time: u64,
    /// The time for producing this tensor on GPU (ns).
    pub gpu_time: u64,
}

impl TensorTrace {
    /// Life-time in logical IDs: "the duration from its first access time to
    /// its last access time within a training iteration".
    pub fn lifetime(&self) -> usize {
        self.end_id - self.first_id
    }

    /// Whether the tensor is live at logical id `id`.
    pub fn live_at(&self, id: usize) -> bool {
        self.first_id <= id && id <= self.end_id
    }
}

/// Per-layer byte totals, summed by the Tracer in its one pass over the
/// inventory. Every later stage reads per-layer bytes from this table and
/// never rescans the inventory.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LayerBytes {
    /// Non-expert FP16 parameter bytes: ZeRO-sharded and gathered per use.
    pub param16_dense: u64,
    /// Expert FP16 parameter bytes over all experts. Under expert
    /// parallelism they are partitioned whole-expert per rank and never
    /// gathered.
    pub param16_expert: u64,
    /// Non-expert FP16 gradient bytes.
    pub grad16_dense: u64,
    /// Expert FP16 gradient bytes over all experts.
    pub grad16_expert: u64,
    /// Activation bytes.
    pub activation: u64,
}

impl LayerBytes {
    /// All FP16 parameter bytes of the layer.
    pub fn param16(&self) -> u64 {
        self.param16_dense + self.param16_expert
    }

    /// Peak transient working set of the layer on the GPU: activations it
    /// produces (bounded to the layer when recomputation is on) plus its
    /// gradient buffer.
    pub fn working_set(&self) -> u64 {
        self.activation + self.grad16_dense + self.grad16_expert
    }
}

/// Everything the Unified Scheduler needs about one model: the op list, the
/// inventory, per-tensor traces and per-layer byte totals.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Trace {
    pub ops: Vec<OpKind>,
    pub inventory: Vec<TensorSpec>,
    pub tensors: Vec<TensorTrace>,
    /// Byte totals of each layer, indexed by layer.
    pub layer_bytes: Vec<LayerBytes>,
    pub layers: usize,
    pub recompute: bool,
}

impl Trace {
    /// Logical id of the forward op of layer `l`.
    pub fn forward_id(&self, l: usize) -> usize {
        l
    }

    /// Logical id of the backward op of layer `l` (backward runs in reverse
    /// layer order right after the last forward).
    pub fn backward_id(&self, l: usize) -> usize {
        2 * self.layers - 1 - l
    }

    /// Logical id of the update op of layer `l`. Updates are emitted in
    /// backward (reverse-layer) order, mirroring Algorithm 2's updating
    /// thread ("for l_i ∈ reverse(model)").
    pub fn update_id(&self, l: usize) -> usize {
        2 * self.layers + (self.layers - 1 - l)
    }
}

/// Reference accounting for the tests: each quantity summed by its own full
/// rescan of the inventory.
#[cfg(test)]
impl Trace {
    pub(crate) fn rescan_layer_bytes(&self, l: usize) -> LayerBytes {
        let sum = |class: TensorClass, expert: bool| -> u64 {
            self.inventory
                .iter()
                .filter(|t| t.layer == l && t.class == class)
                .filter(|t| t.name.contains("expert") == expert)
                .map(|t| t.bytes)
                .sum()
        };
        LayerBytes {
            param16_dense: sum(TensorClass::Param16, false),
            param16_expert: sum(TensorClass::Param16, true),
            grad16_dense: sum(TensorClass::Grad16, false),
            grad16_expert: sum(TensorClass::Grad16, true),
            activation: sum(TensorClass::Activation, false) + sum(TensorClass::Activation, true),
        }
    }
}

/// Sum every tensor's bytes into its layer's row, testing each name for
/// "expert" once.
fn layer_bytes_of(inventory: &[TensorSpec], layers: usize) -> Vec<LayerBytes> {
    let mut table = vec![LayerBytes::default(); layers];
    for t in inventory {
        let row = &mut table[t.layer];
        let slot = match t.class {
            TensorClass::Param16 if t.name.contains("expert") => &mut row.param16_expert,
            TensorClass::Param16 => &mut row.param16_dense,
            TensorClass::Grad16 if t.name.contains("expert") => &mut row.grad16_expert,
            TensorClass::Grad16 => &mut row.grad16_dense,
            TensorClass::Activation => &mut row.activation,
            TensorClass::Master32 | TensorClass::Momentum32 | TensorClass::Variance32 => continue,
        };
        *slot += t.bytes;
    }
    table
}

/// The Tracer itself.
#[derive(Debug, Clone)]
pub struct Tracer {
    pub gpu_model: GpuComputeModel,
    pub cpu_model: CpuUpdateModel,
}

impl Default for Tracer {
    fn default() -> Self {
        Self {
            gpu_model: GpuComputeModel::a100(),
            cpu_model: CpuUpdateModel::epyc_tencent(),
        }
    }
}

impl Tracer {
    /// Replay one symbolic iteration of `config` at batch `b` and summarize
    /// every tensor's access pattern.
    ///
    /// Life-time rules:
    /// * `Param16(l)`: first = forward(l), last = backward(l) — the update
    ///   writes a *new* buffered parameter (Algorithm 2), so the training
    ///   iteration's own access ends at backward;
    /// * `Grad16(l)`: first = backward(l), last = update(l);
    /// * optimizer states (`Master32`/`Momentum32`/`Variance32`): accessed
    ///   only at update(l);
    /// * `Activation(l)`: produced at forward(l); with recomputation it is
    ///   released immediately (end = forward(l)) and re-derived inside
    ///   backward's working set, otherwise it lives until backward(l).
    pub fn trace(&self, config: &TransformerConfig, b: u64, recompute: bool) -> Trace {
        let n = config.layers;
        let mut ops = Vec::with_capacity(3 * n);
        for l in 0..n {
            ops.push(OpKind::Forward(l));
        }
        for l in (0..n).rev() {
            ops.push(OpKind::Backward(l));
        }
        for l in (0..n).rev() {
            ops.push(OpKind::Update(l));
        }

        let mut inventory = Vec::new();
        for l in 0..n {
            inventory.extend(layer_inventory(config, l, b));
        }

        let flops = angel_model::flops::layer_flops(config, b);
        let layer_gpu_time =
            self.gpu_model
                .time_ns_sized(flops.total(recompute), b as f64, config.d_model as f64);
        let layer_param_bytes: u64 = inventory
            .iter()
            .filter(|t| t.layer == 0 && t.class != TensorClass::Activation)
            .map(|t| t.bytes)
            .sum();

        let tensors = inventory
            .iter()
            .enumerate()
            .map(|(i, spec)| {
                let l = spec.layer;
                let fwd = l;
                let bwd = 2 * n - 1 - l;
                let upd = 2 * n + (n - 1 - l);
                let (first_id, end_id) = match spec.class {
                    TensorClass::Param16 => (fwd, bwd),
                    TensorClass::Grad16 => (bwd, upd),
                    TensorClass::Master32 | TensorClass::Momentum32 | TensorClass::Variance32 => {
                        (upd, upd)
                    }
                    TensorClass::Activation => {
                        if recompute {
                            (fwd, fwd)
                        } else {
                            (fwd, bwd)
                        }
                    }
                };
                // Production-time estimates, apportioned by size: the
                // profiled per-layer GPU time split over the layer's state
                // bytes, and the bandwidth-bound CPU update cost.
                let gpu_time = if layer_param_bytes == 0 {
                    0
                } else {
                    (layer_gpu_time as u128 * spec.bytes as u128 / layer_param_bytes.max(1) as u128)
                        as u64
                };
                let cpu_time = self.cpu_model.time_ns(spec.bytes * 2); // read+write
                TensorTrace {
                    tensor_id: i,
                    first_id,
                    end_id,
                    cpu_time,
                    gpu_time,
                }
            })
            .collect();

        Trace {
            ops,
            layer_bytes: layer_bytes_of(&inventory, n),
            inventory,
            tensors,
            layers: n,
            recompute,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn small() -> TransformerConfig {
        TransformerConfig::gpt3_1_7b()
            .with_layers(4)
            .with_seq_len(128)
    }

    #[test]
    fn op_list_structure() {
        let trace = Tracer::default().trace(&small(), 2, true);
        assert_eq!(trace.ops.len(), 12);
        assert_eq!(trace.ops[0], OpKind::Forward(0));
        assert_eq!(trace.ops[3], OpKind::Forward(3));
        assert_eq!(trace.ops[4], OpKind::Backward(3));
        assert_eq!(trace.ops[7], OpKind::Backward(0));
        assert_eq!(trace.ops[8], OpKind::Update(3));
        assert_eq!(trace.ops[11], OpKind::Update(0));
        // The id helpers agree with the list.
        for l in 0..4 {
            assert_eq!(trace.ops[trace.forward_id(l)], OpKind::Forward(l));
            assert_eq!(trace.ops[trace.backward_id(l)], OpKind::Backward(l));
            assert_eq!(trace.ops[trace.update_id(l)], OpKind::Update(l));
        }
    }

    #[test]
    fn param_lifetime_spans_forward_to_backward() {
        let trace = Tracer::default().trace(&small(), 2, true);
        let (i, spec) = trace
            .inventory
            .iter()
            .enumerate()
            .find(|(_, t)| t.layer == 1 && t.class == TensorClass::Param16)
            .unwrap();
        let tr = &trace.tensors[i];
        assert_eq!(tr.first_id, 1); // forward(1)
        assert_eq!(tr.end_id, trace.backward_id(1));
        assert!(tr.live_at(3));
        assert!(!tr.live_at(trace.update_id(1)));
        let _ = spec;
    }

    #[test]
    fn grad_lifetime_spans_backward_to_update() {
        let trace = Tracer::default().trace(&small(), 2, true);
        let (i, _) = trace
            .inventory
            .iter()
            .enumerate()
            .find(|(_, t)| t.layer == 2 && t.class == TensorClass::Grad16)
            .unwrap();
        let tr = &trace.tensors[i];
        assert_eq!(tr.first_id, trace.backward_id(2));
        assert_eq!(tr.end_id, trace.update_id(2));
    }

    #[test]
    fn optimizer_states_touch_only_update() {
        let trace = Tracer::default().trace(&small(), 2, true);
        for (tr, spec) in trace.tensors.iter().zip(&trace.inventory) {
            if spec.class.is_optimizer_state() {
                assert_eq!(tr.first_id, tr.end_id);
                assert_eq!(tr.first_id, trace.update_id(spec.layer));
                assert_eq!(tr.lifetime(), 0);
            }
        }
    }

    #[test]
    fn recompute_shortens_activation_lifetime() {
        let with = Tracer::default().trace(&small(), 2, true);
        let without = Tracer::default().trace(&small(), 2, false);
        let idx = with
            .inventory
            .iter()
            .position(|t| t.layer == 0 && t.class == TensorClass::Activation)
            .unwrap();
        assert_eq!(with.tensors[idx].lifetime(), 0);
        assert_eq!(without.tensors[idx].end_id, without.backward_id(0));
        assert!(without.tensors[idx].lifetime() > 0);
    }

    #[test]
    fn times_are_populated() {
        let trace = Tracer::default().trace(&small(), 2, true);
        assert!(trace.tensors.iter().any(|t| t.gpu_time > 0));
        assert!(trace.tensors.iter().all(|t| t.cpu_time > 0));
    }

    #[test]
    fn layer_aggregates() {
        let trace = Tracer::default().trace(&small(), 2, true);
        let layer0 = trace.layer_bytes[0];
        assert!(layer0.param16() > 0);
        assert!(layer0.working_set() > layer0.param16() / 100);
        // All layers of a homogeneous GPT are identical.
        assert_eq!(trace.layer_bytes.len(), 4);
        assert_eq!(layer0, trace.layer_bytes[3]);
    }

    /// Any model the Tracer can meet: a dense GPT, or a T5-MoE with zero
    /// (dense accounting), few or many experts.
    fn any_model() -> impl Strategy<Value = TransformerConfig> {
        (1usize..9, 0usize..4, 0usize..5).prop_map(|(layers, kind, e)| match kind {
            0 => TransformerConfig::gpt3_1_7b()
                .with_layers(layers)
                .with_seq_len(128),
            1 => TransformerConfig::gpt3_13b().with_layers(layers),
            _ => TransformerConfig::t5_moe_1_2t()
                .with_layers(layers)
                .with_experts([0, 1, 6, 8, 64][e]),
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The one-pass table agrees with a full inventory rescan per
        /// layer, for dense and MoE models, with recomputation on and off.
        #[test]
        fn layer_bytes_match_inventory_rescans(
            model in any_model(),
            b in 1u64..5,
            recompute in any::<bool>(),
        ) {
            let trace = Tracer::default().trace(&model, b, recompute);
            prop_assert_eq!(trace.layer_bytes.len(), model.layers);
            for l in 0..model.layers {
                let (table, rescan) = (trace.layer_bytes[l], trace.rescan_layer_bytes(l));
                prop_assert!(table == rescan, "layer {}: {:?} vs {:?}", l, table, rescan);
            }
        }
    }
}
