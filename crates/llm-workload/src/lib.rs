//! # llm-workload — LLM task graphs and parallelization strategies
//!
//! The workload layer of *"A System Level Performance Evaluation for
//! Superconducting Digital Systems"* (Kundu et al., DATE 2025): the model
//! zoo of §VI, the Megatron-style TP/PP/DP decomposition (\[33\], \[34\]) and
//! the per-unit kernel/communication task graphs the Optimus performance
//! model ingests.
//!
//! * [`model`] — GPT-3 18.4B/76.1B/175B, Llama-2 7B/13B, Llama 70B/405B,
//!   MoE-132B/38B, with parameter accounting.
//! * [`parallelism`] — TP/PP/DP plans, divisibility checks, pipeline
//!   bubble fractions.
//! * [`kernel`] — kernel descriptors with weight/activation traffic split
//!   and arithmetic intensity.
//! * [`taskgraph`] — training-step, prefill and decode-step generators.
//! * [`kvcache`] — KV-cache sizing (the §VI and Fig. 8b conventions).
//!
//! # Examples
//!
//! ```
//! use llm_workload::model::{ModelZoo, Precision};
//! use llm_workload::parallelism::Parallelism;
//! use llm_workload::taskgraph::training_step;
//!
//! # fn main() -> Result<(), llm_workload::WorkloadError> {
//! let model = ModelZoo::gpt3_76b();
//! let par = Parallelism::training_baseline(); // TP=8, PP=8, DP=1
//! let graph = training_step(&model, &par, 64, 2048, Precision::Bf16)?;
//! assert!(graph.total_flops() > 1e15);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod error;
pub mod kernel;
pub mod kvcache;
pub mod memory;
pub mod model;
pub mod parallelism;
pub mod taskgraph;

pub use error::WorkloadError;
pub use kernel::{CommKind, CommOp, CommScope, Kernel, KernelClass};
pub use kvcache::{KvCache, KvConvention};
pub use memory::{inference_footprint, training_footprint, ActivationPolicy, MemoryFootprint};
pub use model::{ModelZoo, Precision, TransformerConfig};
pub use parallelism::Parallelism;
pub use taskgraph::{
    decode_step, decode_step_into, prefill, prefill_into, training_step, TaskGraph,
};
