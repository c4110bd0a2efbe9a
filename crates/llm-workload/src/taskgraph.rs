//! Task-graph generation: lowering a transformer + parallelization plan
//! into the per-unit kernel and communication stream Optimus ingests
//! (Fig. 4 "task graph" input).
//!
//! All kernels are *per processing unit* — shapes are already sharded by
//! the TP degree and layer counts by the PP degree, following the
//! Megatron-LM decomposition (\[34\]): QKV/MLP-up are column-parallel,
//! out-proj/MLP-down are row-parallel, giving two all-reduces per layer
//! per pass.

use crate::error::WorkloadError;
use crate::kernel::{CommKind, CommOp, CommScope, Kernel, KernelClass};
use crate::model::{Precision, TransformerConfig};
use crate::parallelism::Parallelism;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A per-unit task graph: compute kernels plus communication operations.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaskGraph {
    /// Graph name for reports.
    pub name: String,
    /// Compute kernels.
    pub kernels: Vec<Kernel>,
    /// Communication operations.
    pub comms: Vec<CommOp>,
}

impl TaskGraph {
    /// Total FLOPs across all kernels and invocations.
    #[must_use]
    pub fn total_flops(&self) -> f64 {
        self.kernels.iter().map(Kernel::total_flops).sum()
    }

    /// Total bytes moved (weights + activations) across all invocations.
    #[must_use]
    pub fn total_bytes(&self) -> f64 {
        self.kernels
            .iter()
            .map(|k| k.total_bytes() * k.invocations)
            .sum()
    }

    /// Total communication volume per unit (bytes × invocations).
    #[must_use]
    pub fn total_comm_bytes(&self) -> f64 {
        self.comms.iter().map(|c| c.bytes * c.invocations).sum()
    }
}

impl fmt::Display for TaskGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} kernels ({:.2} TFLOP), {} comm ops ({:.2} GB)",
            self.name,
            self.kernels.len(),
            self.total_flops() / 1e12,
            self.comms.len(),
            self.total_comm_bytes() / 1e9
        )
    }
}

/// Parameter bytes resident on one unit (TP × PP sharding; DP replicates).
#[must_use]
pub fn weights_per_unit_bytes(
    model: &TransformerConfig,
    par: &Parallelism,
    precision: Precision,
) -> f64 {
    model.total_params() / f64::from(par.tp() * par.pp()) * precision.bytes()
}

/// Shared per-layer forward kernels for `rows` token-rows on one TP rank.
/// `kv_len` is the attention span (== `rows`' sequence length in training
/// and prefill; the cache length in decode).
#[allow(clippy::too_many_arguments)]
fn layer_forward_kernels(
    model: &TransformerConfig,
    par: &Parallelism,
    rows: f64,
    seqs: f64,
    kv_len: f64,
    precision: Precision,
    invocations: f64,
    out: &mut Vec<Kernel>,
) {
    let tp = f64::from(par.tp());
    let h = f64::from(model.hidden);
    let d = f64::from(model.head_dim());
    let heads_local = f64::from(model.heads) / tp;
    let kv_dim = f64::from(model.kv_heads) * d;
    let q_rows = rows / seqs; // query tokens per sequence

    // QKV projection (column-parallel): n = (h + 2·kv_dim)/tp.
    out.push(Kernel::gemm(
        "qkv_proj",
        KernelClass::Gemm,
        rows,
        (h + 2.0 * kv_dim) / tp,
        h,
        precision,
        invocations,
    ));
    // Attention scores: per sequence per local head, [q_rows, d]×[d, kv].
    out.push(Kernel::activation_gemm(
        "attn_scores",
        q_rows,
        kv_len,
        d,
        seqs * heads_local,
        precision,
        invocations,
    ));
    out.push(Kernel::elementwise(
        "attn_softmax",
        seqs * heads_local * q_rows * kv_len,
        5.0,
        precision,
        invocations,
    ));
    // Attention over V: [q_rows, kv]×[kv, d].
    out.push(Kernel::activation_gemm(
        "attn_values",
        q_rows,
        d,
        kv_len,
        seqs * heads_local,
        precision,
        invocations,
    ));
    // Output projection (row-parallel): k = h/tp.
    out.push(Kernel::gemm(
        "out_proj",
        KernelClass::Gemm,
        rows,
        h,
        h / tp,
        precision,
        invocations,
    ));
    // MLP. For MoE: each token visits `active` experts; weight traffic
    // covers every routed-to expert (all of them once enough tokens flow).
    let f = f64::from(model.ffn_hidden);
    let (m_rows, expert_weight_mult) = match &model.moe {
        Some(moe) => {
            let tokens_routed = rows * f64::from(moe.active_experts);
            // Experts whose weights are touched this invocation: all of
            // them once token·top-k pairs exceed the expert count. Each
            // MLP GEMM's base weight traffic is one expert's matrix, so
            // the multiplier is the touched-expert count.
            let touched = tokens_routed.min(f64::from(moe.experts));
            (tokens_routed, touched)
        }
        None => (rows, 1.0),
    };
    let mut mlp_up = Kernel::gemm(
        "mlp_up",
        KernelClass::Gemm,
        m_rows,
        f / tp,
        h,
        precision,
        invocations,
    );
    mlp_up.weight_bytes *= expert_weight_mult;
    out.push(mlp_up);
    if model.gated_mlp {
        let mut mlp_gate = Kernel::gemm(
            "mlp_gate",
            KernelClass::Gemm,
            m_rows,
            f / tp,
            h,
            precision,
            invocations,
        );
        mlp_gate.weight_bytes *= expert_weight_mult;
        out.push(mlp_gate);
    }
    out.push(Kernel::elementwise(
        "mlp_act",
        m_rows * f / tp,
        8.0,
        precision,
        invocations,
    ));
    let mut mlp_down = Kernel::gemm(
        "mlp_down",
        KernelClass::Gemm,
        m_rows,
        h,
        f / tp,
        precision,
        invocations,
    );
    mlp_down.weight_bytes *= expert_weight_mult;
    out.push(mlp_down);
    // Two layer-norms + two residual adds.
    out.push(Kernel::elementwise(
        "layer_norm",
        rows * h,
        5.0,
        precision,
        2.0 * invocations,
    ));
    out.push(Kernel::elementwise(
        "residual",
        rows * h,
        1.0,
        precision,
        2.0 * invocations,
    ));
}

/// Builds one training step's per-unit task graph: forward + backward over
/// all microbatches on one pipeline stage, plus the optimizer update and
/// gradient all-reduce.
///
/// # Errors
///
/// Returns [`WorkloadError`] if the plan is incompatible with the model or
/// the batch does not divide by the DP degree.
pub fn training_step(
    model: &TransformerConfig,
    par: &Parallelism,
    global_batch: u32,
    seq_len: u32,
    precision: Precision,
) -> Result<TaskGraph, WorkloadError> {
    model.validate()?;
    par.check_model(model)?;
    if global_batch == 0 || !global_batch.is_multiple_of(par.dp()) {
        return Err(WorkloadError::InvalidParallelism {
            reason: format!(
                "global batch {global_batch} not divisible by dp={}",
                par.dp()
            ),
        });
    }
    let microbatches = f64::from(global_batch / par.dp()); // microbatch = 1 sequence
    let s = f64::from(seq_len);
    let h = f64::from(model.hidden);
    let layers_per_stage = f64::from(par.layers_per_stage(model));
    let b = precision.bytes();
    let tp_group = par.tp() as usize;

    let mut kernels = Vec::new();
    // Forward kernels per layer per microbatch (1 sequence of S tokens).
    layer_forward_kernels(
        model,
        par,
        s,
        1.0,
        s,
        precision,
        layers_per_stage * microbatches,
        &mut kernels,
    );
    // Attention S×S score/value GEMMs stream their operands from main
    // memory (the paper follows [36]: attention is memory-bandwidth
    // bound; its AI ≈ head_dim sets the Fig. 5 crossover near 16 TB/s).
    for k in &mut kernels {
        if k.class == KernelClass::Attention {
            k.kv_stream = true;
        }
    }
    // Backward: dgrad + wgrad ≈ 2× forward FLOPs and traffic for every
    // forward kernel (standard Megatron accounting).
    let backward: Vec<Kernel> = kernels
        .iter()
        .map(|k| Kernel {
            name: format!("{}_bwd", k.name).into(),
            class: k.class,
            flops: 2.0 * k.flops,
            weight_bytes: 2.0 * k.weight_bytes,
            activation_bytes: 2.0 * k.activation_bytes,
            invocations: k.invocations,
            kv_stream: k.kv_stream,
        })
        .collect();
    kernels.extend(backward);

    // LM head + embedding on the boundary stages, amortized across the
    // pipeline (1/pp of the stages own them).
    let vocab_rows = s * microbatches / f64::from(par.pp());
    kernels.push(Kernel::gemm(
        "lm_head",
        KernelClass::Embedding,
        vocab_rows,
        f64::from(model.vocab) / f64::from(par.tp()),
        h,
        precision,
        3.0, // fwd + 2× bwd
    ));

    // Optimizer update: mixed-precision Adam touches ~12 bytes/param of
    // state + gradient + weight per step.
    let params_per_unit = model.total_params() / f64::from(par.tp() * par.pp());
    kernels.push(Kernel {
        name: "adam_update".into(),
        class: KernelClass::WeightUpdate,
        flops: 8.0 * params_per_unit,
        weight_bytes: 12.0 * params_per_unit,
        activation_bytes: 0.0,
        invocations: 1.0,
        kv_stream: false,
    });

    let mut comms = Vec::new();
    if par.tp() > 1 {
        // 2 all-reduces fwd + 2 bwd per layer per microbatch over the TP
        // group, each of one microbatch's activations.
        comms.push(CommOp {
            name: "tp_allreduce".into(),
            kind: CommKind::AllReduce,
            bytes: s * h * b,
            scope: CommScope::TensorParallel,
            invocations: 4.0 * layers_per_stage * microbatches,
        });
        let _ = tp_group;
    }
    if par.pp() > 1 {
        // Activation hand-off per microbatch per boundary, fwd + bwd.
        comms.push(CommOp {
            name: "pp_sendrecv".into(),
            kind: CommKind::P2p,
            bytes: s * h * b,
            scope: CommScope::PipelineNeighbor,
            invocations: 2.0 * microbatches,
        });
    }
    if par.dp() > 1 {
        comms.push(CommOp {
            name: "dp_grad_allreduce".into(),
            kind: CommKind::AllReduce,
            bytes: params_per_unit * b,
            scope: CommScope::DataParallel,
            invocations: 1.0,
        });
    }

    Ok(TaskGraph {
        name: format!(
            "{} train B={global_batch} S={seq_len} {par} {precision}",
            model.name
        ),
        kernels,
        comms,
    })
}

/// Builds the prefill (prompt-processing) task graph for inference.
///
/// # Errors
///
/// Returns [`WorkloadError`] for incompatible plans.
pub fn prefill(
    model: &TransformerConfig,
    par: &Parallelism,
    batch: u32,
    input_tokens: u32,
    precision: Precision,
) -> Result<TaskGraph, WorkloadError> {
    model.validate()?;
    par.check_model(model)?;
    if batch == 0 || input_tokens == 0 {
        return Err(WorkloadError::InvalidRequest {
            reason: format!(
                "prefill needs batch ≥ 1 and input ≥ 1, got B={batch} in={input_tokens}"
            ),
        });
    }
    let (mut kernels, mut comms) = (Vec::new(), Vec::new());
    prefill_into(
        model,
        par,
        batch,
        input_tokens,
        precision,
        &mut kernels,
        &mut comms,
    );
    Ok(TaskGraph {
        name: format!("{} prefill B={batch} in={input_tokens}", model.name),
        kernels,
        comms,
    })
}

/// Appends the kernels and communication ops of [`prefill`]'s graph to
/// `kernels` and `comms`, without its checks: the caller has validated
/// the model, the plan and a nonzero shape (one [`prefill`] call does).
/// Lets a caller pricing many shapes refill the same buffers.
pub fn prefill_into(
    model: &TransformerConfig,
    par: &Parallelism,
    batch: u32,
    input_tokens: u32,
    precision: Precision,
    kernels: &mut Vec<Kernel>,
    comms: &mut Vec<CommOp>,
) {
    let s = f64::from(input_tokens);
    let bsz = f64::from(batch);
    let h = f64::from(model.hidden);
    let layers = f64::from(model.layers) / f64::from(par.pp());
    let b = precision.bytes();

    let first = kernels.len();
    layer_forward_kernels(model, par, bsz * s, bsz, s, precision, layers, kernels);
    for k in &mut kernels[first..] {
        if k.class == KernelClass::Attention {
            k.kv_stream = true;
        }
    }
    kernels.push(Kernel::gemm(
        "lm_head",
        KernelClass::Embedding,
        bsz, // only the last position feeds generation
        f64::from(model.vocab) / f64::from(par.tp()),
        h,
        precision,
        1.0,
    ));
    // Writing the fresh K/V entries out to the cache level.
    let kv_dim = f64::from(model.kv_heads) * f64::from(model.head_dim());
    kernels.push(Kernel {
        name: "kv_write".into(),
        class: KernelClass::Attention,
        flops: 0.0,
        weight_bytes: 0.0,
        activation_bytes: 2.0 * bsz * s * (kv_dim / f64::from(par.tp())) * b,
        invocations: layers,
        kv_stream: true,
    });
    if par.tp() > 1 {
        comms.push(CommOp {
            name: "tp_allreduce".into(),
            kind: CommKind::AllReduce,
            bytes: bsz * s * h * b,
            scope: CommScope::TensorParallel,
            invocations: 2.0 * layers,
        });
    }
}

/// Builds one decode step at cache length `kv_len` (one new token per
/// sequence).
///
/// # Errors
///
/// Returns [`WorkloadError`] for incompatible plans.
pub fn decode_step(
    model: &TransformerConfig,
    par: &Parallelism,
    batch: u32,
    kv_len: u32,
    precision: Precision,
) -> Result<TaskGraph, WorkloadError> {
    model.validate()?;
    par.check_model(model)?;
    if batch == 0 || kv_len == 0 {
        return Err(WorkloadError::InvalidRequest {
            reason: format!("decode needs batch ≥ 1 and kv ≥ 1, got B={batch} kv={kv_len}"),
        });
    }
    let (mut kernels, mut comms) = (Vec::new(), Vec::new());
    decode_step_into(
        model,
        par,
        batch,
        kv_len,
        precision,
        &mut kernels,
        &mut comms,
    );
    Ok(TaskGraph {
        name: format!("{} decode B={batch} kv={kv_len}", model.name),
        kernels,
        comms,
    })
}

/// Appends the kernels and communication ops of [`decode_step`]'s graph
/// to `kernels` and `comms`, without its checks: the caller has
/// validated the model, the plan and a nonzero shape (one
/// [`decode_step`] call does). Lets a caller pricing many shapes refill
/// the same buffers.
pub fn decode_step_into(
    model: &TransformerConfig,
    par: &Parallelism,
    batch: u32,
    kv_len: u32,
    precision: Precision,
    kernels: &mut Vec<Kernel>,
    comms: &mut Vec<CommOp>,
) {
    let bsz = f64::from(batch);
    let h = f64::from(model.hidden);
    let layers = f64::from(model.layers) / f64::from(par.pp());
    let b = precision.bytes();

    let first = kernels.len();
    layer_forward_kernels(
        model,
        par,
        bsz,
        bsz,
        f64::from(kv_len),
        precision,
        layers,
        kernels,
    );
    // Decode attention reads the persistent KV cache each step.
    for k in &mut kernels[first..] {
        if k.class == KernelClass::Attention {
            k.kv_stream = true;
        }
    }
    kernels.push(Kernel::gemm(
        "lm_head",
        KernelClass::Embedding,
        bsz,
        f64::from(model.vocab) / f64::from(par.tp()),
        h,
        precision,
        1.0,
    ));
    if par.tp() > 1 {
        comms.push(CommOp {
            name: "tp_allreduce".into(),
            kind: CommKind::AllReduce,
            bytes: bsz * h * b,
            scope: CommScope::TensorParallel,
            invocations: 2.0 * layers,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ModelZoo;

    fn bf16() -> Precision {
        Precision::Bf16
    }

    #[test]
    fn training_flops_match_6nd_rule() {
        // Total model FLOPs per token ≈ 6 × params (fwd 2N + bwd 4N);
        // summing per-unit graphs over all units should land nearby.
        let model = ModelZoo::gpt3_76b();
        let par = Parallelism::new(8, 8, 1).unwrap();
        let (batch, seq) = (64u32, 2048u32);
        let g = training_step(&model, &par, batch, seq, bf16()).unwrap();
        let total = g.total_flops() * f64::from(par.units());
        let tokens = f64::from(batch) * f64::from(seq);
        let expected = 6.0 * model.total_params() * tokens;
        let ratio = total / expected;
        assert!(
            (0.85..1.35).contains(&ratio),
            "6ND check: ratio {ratio:.3} (attention adds the excess)"
        );
    }

    #[test]
    fn decode_weight_traffic_covers_sharded_params() {
        let model = ModelZoo::llama_405b();
        let par = Parallelism::pure_tp(64).unwrap();
        let g = decode_step(&model, &par, 8, 400, bf16()).unwrap();
        let weight_bytes: f64 = g
            .kernels
            .iter()
            .map(|k| k.weight_bytes * k.invocations)
            .sum();
        let expected = weights_per_unit_bytes(&model, &par, bf16());
        let ratio = weight_bytes / expected;
        assert!(
            (0.8..1.2).contains(&ratio),
            "decode must stream ~all per-unit weights, ratio {ratio:.3}"
        );
    }

    #[test]
    fn tp_allreduce_count_is_four_per_layer_in_training() {
        let model = ModelZoo::gpt3_18b();
        let par = Parallelism::new(8, 8, 1).unwrap();
        let g = training_step(&model, &par, 8, 2048, bf16()).unwrap();
        let ar = g
            .comms
            .iter()
            .find(|c| c.scope == CommScope::TensorParallel)
            .unwrap();
        // 40 layers / pp=8 = 5 per stage; × 4 per microbatch × 8 µbatches.
        assert!((ar.invocations - 4.0 * 5.0 * 8.0).abs() < 1e-9);
    }

    #[test]
    fn no_tp_comm_without_tp() {
        let model = ModelZoo::llama2_7b();
        let par = Parallelism::new(1, 1, 1).unwrap();
        let g = decode_step(&model, &par, 1, 128, bf16()).unwrap();
        assert!(g.comms.is_empty());
    }

    #[test]
    fn moe_decode_touches_more_weights_than_dense_equivalent() {
        let moe = ModelZoo::moe_132b();
        let par = Parallelism::pure_tp(8).unwrap();
        // B=8 with top-4 routing → 32 token-expert pairs > 16 experts:
        // every expert's weights stream.
        let g = decode_step(&moe, &par, 8, 400, bf16()).unwrap();
        let mlp_weight: f64 = g
            .kernels
            .iter()
            .filter(|k| k.name.starts_with("mlp"))
            .map(|k| k.weight_bytes * k.invocations)
            .sum();
        // bytes = params × 2 (bf16) sharded by tp
        let all_expert_bytes =
            moe.mlp_params_per_layer() * f64::from(moe.layers) / f64::from(par.tp()) * 2.0;
        let ratio = mlp_weight / all_expert_bytes;
        assert!((0.9..1.1).contains(&ratio), "got {ratio:.3}");
    }

    #[test]
    fn decode_graph_is_memory_intense() {
        let model = ModelZoo::llama_405b();
        let par = Parallelism::pure_tp(64).unwrap();
        let g = decode_step(&model, &par, 8, 400, bf16()).unwrap();
        let ai = g.total_flops() / g.total_bytes();
        assert!(ai < 16.0, "decode AI should be ~batch size, got {ai}");
    }

    #[test]
    fn prefill_flops_scale_with_input() {
        let model = ModelZoo::llama_70b();
        let par = Parallelism::pure_tp(8).unwrap();
        let short = prefill(&model, &par, 8, 100, bf16()).unwrap();
        let long = prefill(&model, &par, 8, 200, bf16()).unwrap();
        let ratio = long.total_flops() / short.total_flops();
        assert!(ratio > 1.9 && ratio < 2.3, "got {ratio}");
    }

    #[test]
    fn degenerate_shapes_are_typed_errors() {
        let model = ModelZoo::llama2_7b();
        let par = Parallelism::new(1, 1, 1).unwrap();
        for r in [
            prefill(&model, &par, 0, 128, bf16()),
            prefill(&model, &par, 8, 0, bf16()),
            decode_step(&model, &par, 0, 128, bf16()),
            decode_step(&model, &par, 8, 0, bf16()),
        ] {
            assert!(matches!(r, Err(WorkloadError::InvalidRequest { .. })));
        }
    }

    #[test]
    fn batch_divisibility_enforced() {
        let model = ModelZoo::gpt3_18b();
        let par = Parallelism::new(8, 8, 2).unwrap();
        assert!(training_step(&model, &par, 7, 2048, bf16()).is_err());
    }

    #[test]
    fn graph_totals_positive_and_display() {
        let model = ModelZoo::gpt3_18b();
        let par = Parallelism::training_baseline();
        let g = training_step(&model, &par, 16, 2048, bf16()).unwrap();
        assert!(g.total_flops() > 0.0);
        assert!(g.total_bytes() > 0.0);
        assert!(g.total_comm_bytes() > 0.0);
        assert!(g.to_string().contains("kernels"));
    }
}
