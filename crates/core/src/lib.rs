//! # optimus — hierarchical-roofline performance model for SCD systems
//!
//! The performance-modeling framework of *"A System Level Performance
//! Evaluation for Superconducting Digital Systems"* (Kundu et al., DATE
//! 2025), §V: given an LLM task graph and a parallelization strategy, map
//! the workload onto a system-architecture abstraction and project
//! end-to-end training and inference performance.
//!
//! * [`roofline`] — per-kernel compute/memory-bound classification over
//!   the accelerator's memory hierarchy, with latency-aware transfers.
//! * [`training`] — training-step estimation: compute, TP/PP/DP
//!   communication, pipeline bubble, optimizer update (Fig. 5/6).
//! * [`inference`] — prefill + token-by-token decode with a growing KV
//!   cache (Fig. 7/8), including the KV-in-L2 placement study.
//! * [`mapper`] — exhaustive TP/PP search for the best mapping.
//! * [`scheduler`] — static batch planning under a per-token budget.
//! * [`serving`] — policy-driven continuous-batching serving engine:
//!   pluggable traces (Poisson/bursty/diurnal/shared-prefix/CSV),
//!   FCFS/SJF/aging scheduler policies, contiguous or paged KV with
//!   chunked prefill and ref-counted prefix caching, TTFT/TPOT tails and
//!   goodput, and a multi-blade cluster simulator with round-robin /
//!   join-shortest-queue / least-loaded-KV routing.
//! * [`compare`] — SCD-vs-GPU speed-up harnesses.
//! * [`scaling`] — multi-blade weak-scaling projection (§VII outlook).
//! * [`energy`] — device- and wall-plug-level energy projection.
//! * [`validate`] — cross-checks of the analytical communication model
//!   against the `scd-noc` discrete-event simulator.
//!
//! # Examples
//!
//! ```
//! use optimus::{InferenceEstimator, RequestShape};
//! use llm_workload::{ModelZoo, Parallelism};
//! use scd_arch::Blade;
//! use scd_tech::units::Bandwidth;
//!
//! # fn main() -> Result<(), optimus::OptimusError> {
//! let blade = Blade::baseline();
//! let accel = blade.accelerator().with_dram_bandwidth(Bandwidth::from_tbps(16.0));
//! let est = InferenceEstimator::new(accel, blade.interconnect());
//! let report = est.estimate(
//!     &ModelZoo::llama_405b(),
//!     &Parallelism::pure_tp(64)?,
//!     RequestShape::paper_io(8),
//! )?;
//! assert!(report.latency_s() > 0.0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod compare;
pub mod energy;
pub mod error;
pub mod inference;
pub mod mapper;
pub mod roofline;
pub mod scaling;
pub mod scheduler;
pub mod serving;
pub mod training;
pub mod validate;

pub use compare::{Comparison, SpeedupStudy};
pub use energy::{estimate_energy, EnergyModel, EnergyReport};
pub use error::OptimusError;
pub use inference::{InferenceEstimator, InferenceReport, RequestShape};
pub use mapper::{MappingChoice, MappingSearch};
pub use roofline::{Boundedness, KernelTime, Placement, Roofline};
pub use scaling::{weak_scaling_sweep, MultiBladeSystem, ScalingPoint};
pub use scheduler::{plan_serving, SchedulerDecision, ServingPoint};
pub use serving::{
    BladeRole, ClusterConfig, ClusterReport, CompiledScenario, DispatchMode, FrontierPoint,
    HandoffLink, Percentiles, RequestSpec, RoutingPolicy, Scenario, SchedulerPolicy, ServingConfig,
    ServingReport, SimObserver, SloClass, SloClassReport, Topology, TraceConfig, TraceSource,
};
pub use training::{TrainingEstimator, TrainingReport};
