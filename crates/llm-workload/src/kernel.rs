//! Kernel descriptors: the units of work the roofline model times.
//!
//! Each kernel carries its FLOP count and its memory traffic, split into
//! *weight* traffic (streamed from wherever parameters reside — DRAM, or
//! L2 when pinned there) and *activation* traffic (streamed from the
//! activation working level). This split is what lets the hierarchical
//! roofline reproduce the paper's compute-bound / memory-bound kernel
//! classification (Fig. 5 inset).

use crate::model::Precision;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::fmt;

/// What kind of operation a kernel is (affects reporting only).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum KernelClass {
    /// Dense matrix multiply.
    Gemm,
    /// Attention score/value batched GEMM.
    Attention,
    /// Softmax, layer-norm, activation functions, residual adds.
    Elementwise,
    /// Optimizer weight update.
    WeightUpdate,
    /// Embedding / LM-head lookup-GEMM.
    Embedding,
}

impl fmt::Display for KernelClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Gemm => write!(f, "GEMM"),
            Self::Attention => write!(f, "ATTN"),
            Self::Elementwise => write!(f, "ELTW"),
            Self::WeightUpdate => write!(f, "UPD"),
            Self::Embedding => write!(f, "EMB"),
        }
    }
}

/// One kernel invocation pattern (already sharded to a single unit).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Kernel {
    /// Kernel name for reports ("qkv_proj", "mlp_up", ...). Literal
    /// names borrow, so building a graph of them allocates no strings.
    pub name: Cow<'static, str>,
    /// Classification.
    pub class: KernelClass,
    /// Floating-point operations per invocation.
    pub flops: f64,
    /// Bytes of parameter traffic per invocation.
    pub weight_bytes: f64,
    /// Bytes of activation traffic per invocation.
    pub activation_bytes: f64,
    /// Times the kernel executes (e.g. once per layer per microbatch).
    pub invocations: f64,
    /// Whether the activation traffic is a *persistent* KV-cache stream
    /// (decode-phase attention): it then resides with the weights (DRAM)
    /// unless explicitly pinned to another level.
    pub kv_stream: bool,
}

impl Kernel {
    /// Builds a GEMM kernel `C[m,n] += A[m,k]·B[k,n]` where `B` holds
    /// weights, with every tensor in `precision`.
    #[must_use]
    pub fn gemm(
        name: impl Into<Cow<'static, str>>,
        class: KernelClass,
        m: f64,
        n: f64,
        k: f64,
        precision: Precision,
        invocations: f64,
    ) -> Self {
        let b = precision.bytes();
        Self {
            name: name.into(),
            class,
            flops: 2.0 * m * n * k,
            weight_bytes: k * n * b,
            activation_bytes: (m * k + m * n) * b,
            invocations,
            kv_stream: false,
        }
    }

    /// Builds an activation-only batched GEMM (attention scores/values):
    /// both operands are activations.
    #[must_use]
    pub fn activation_gemm(
        name: impl Into<Cow<'static, str>>,
        m: f64,
        n: f64,
        k: f64,
        batch: f64,
        precision: Precision,
        invocations: f64,
    ) -> Self {
        let b = precision.bytes();
        Self {
            name: name.into(),
            class: KernelClass::Attention,
            flops: 2.0 * m * n * k * batch,
            weight_bytes: 0.0,
            activation_bytes: (m * k + k * n + m * n) * b * batch,
            invocations,
            kv_stream: false,
        }
    }

    /// Builds an elementwise kernel over `elems` elements performing
    /// `ops_per_elem` FLOPs each, reading and writing once.
    #[must_use]
    pub fn elementwise(
        name: impl Into<Cow<'static, str>>,
        elems: f64,
        ops_per_elem: f64,
        precision: Precision,
        invocations: f64,
    ) -> Self {
        Self {
            name: name.into(),
            class: KernelClass::Elementwise,
            flops: elems * ops_per_elem,
            weight_bytes: 0.0,
            activation_bytes: 2.0 * elems * precision.bytes(),
            invocations,
            kv_stream: false,
        }
    }

    /// Total bytes per invocation.
    #[must_use]
    pub fn total_bytes(&self) -> f64 {
        self.weight_bytes + self.activation_bytes
    }

    /// Arithmetic intensity (FLOPs per byte).
    #[must_use]
    pub fn arithmetic_intensity(&self) -> f64 {
        let bytes = self.total_bytes();
        if bytes <= 0.0 {
            f64::INFINITY
        } else {
            self.flops / bytes
        }
    }

    /// Aggregate FLOPs over all invocations.
    #[must_use]
    pub fn total_flops(&self) -> f64 {
        self.flops * self.invocations
    }
}

impl fmt::Display for Kernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}] ×{:.0}: {:.3} GFLOP, AI {:.1}",
            self.name,
            self.class,
            self.invocations,
            self.flops / 1e9,
            self.arithmetic_intensity()
        )
    }
}

/// A communication operation attached to the task graph.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CommOp {
    /// Descriptive name ("tp_allreduce_fwd", ...); literal names borrow.
    pub name: Cow<'static, str>,
    /// Collective type.
    pub kind: CommKind,
    /// Bytes per member per invocation.
    pub bytes: f64,
    /// Communicator this op runs over.
    pub scope: CommScope,
    /// Times the op executes.
    pub invocations: f64,
}

/// Collective type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CommKind {
    /// Ring all-reduce.
    AllReduce,
    /// Ring all-gather.
    AllGather,
    /// Point-to-point send (pipeline hand-off).
    P2p,
}

/// Which parallel group a communication runs over.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CommScope {
    /// The tensor-parallel group.
    TensorParallel,
    /// The data-parallel group.
    DataParallel,
    /// Adjacent pipeline stages.
    PipelineNeighbor,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gemm_flops_and_bytes() {
        let k = Kernel::gemm(
            "t",
            KernelClass::Gemm,
            64.0,
            1024.0,
            512.0,
            Precision::Bf16,
            1.0,
        );
        assert!((k.flops - 2.0 * 64.0 * 1024.0 * 512.0).abs() < 1.0);
        assert!((k.weight_bytes - 512.0 * 1024.0 * 2.0).abs() < 1.0);
        assert!((k.activation_bytes - (64.0 * 512.0 + 64.0 * 1024.0) * 2.0).abs() < 1.0);
    }

    #[test]
    fn intensity_grows_with_batch() {
        let small = Kernel::gemm(
            "s",
            KernelClass::Gemm,
            1.0,
            1024.0,
            1024.0,
            Precision::Bf16,
            1.0,
        );
        let large = Kernel::gemm(
            "l",
            KernelClass::Gemm,
            256.0,
            1024.0,
            1024.0,
            Precision::Bf16,
            1.0,
        );
        assert!(large.arithmetic_intensity() > small.arithmetic_intensity() * 50.0);
    }

    #[test]
    fn decode_gemv_intensity_near_batch() {
        // For m = B and large n, k: AI → B per byte-pair; with bf16 the
        // paper's "minimal data reuse" claim.
        let b = 8.0;
        let k = Kernel::gemm(
            "gemv",
            KernelClass::Gemm,
            b,
            16384.0,
            16384.0,
            Precision::Bf16,
            1.0,
        );
        let ai = k.arithmetic_intensity();
        assert!((ai - b).abs() < 0.5, "got {ai}");
    }

    #[test]
    fn elementwise_is_memory_bound() {
        let k = Kernel::elementwise("softmax", 1e6, 5.0, Precision::Bf16, 1.0);
        assert!(k.arithmetic_intensity() < 2.0);
    }

    #[test]
    fn activation_gemm_has_no_weight_traffic() {
        let k = Kernel::activation_gemm("scores", 128.0, 128.0, 64.0, 32.0, Precision::Bf16, 1.0);
        assert_eq!(k.weight_bytes, 0.0);
        assert!(k.activation_bytes > 0.0);
    }

    #[test]
    fn zero_byte_kernel_has_infinite_intensity() {
        let k = Kernel {
            name: "noop".into(),
            class: KernelClass::Gemm,
            flops: 10.0,
            weight_bytes: 0.0,
            activation_bytes: 0.0,
            invocations: 1.0,
            kv_stream: false,
        };
        assert!(k.arithmetic_intensity().is_infinite());
    }
}
