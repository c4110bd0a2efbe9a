//! SCD-vs-GPU comparison harnesses: the machinery behind Fig. 6 and
//! Fig. 8.

use crate::error::OptimusError;
use crate::inference::{InferenceEstimator, InferenceReport, RequestShape};
use crate::serving::{
    ClusterConfig, ClusterReport, ControlPlane, Scenario, ServingReport, Topology,
};
use crate::serving::{TraceConfig, TraceSource};
use crate::training::{TrainingEstimator, TrainingReport};
use llm_workload::model::TransformerConfig;
use llm_workload::parallelism::Parallelism;
use scd_arch::{Blade, GpuSystem};
use scd_tech::units::{Bandwidth, TimeInterval};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A paired measurement of the same workload on both systems.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Comparison<R> {
    /// SCD-system result.
    pub scd: R,
    /// GPU-system result.
    pub gpu: R,
    /// GPU time / SCD time.
    pub speedup: f64,
}

/// Builder for the paper's standard comparison setup: one SCD blade
/// (64 SPUs) against the same number of H100s.
#[derive(Debug, Clone)]
pub struct SpeedupStudy {
    blade: Blade,
    gpus: GpuSystem,
    dram_bandwidth_per_spu: Bandwidth,
    dram_latency: TimeInterval,
}

impl SpeedupStudy {
    /// The §VI setup: 64 SPUs at 16 TB/s effective DRAM bandwidth per SPU
    /// and 30 ns latency, versus 64 H100s.
    #[must_use]
    pub fn paper_baseline() -> Self {
        Self {
            blade: Blade::baseline(),
            gpus: GpuSystem::h100_cluster(64),
            dram_bandwidth_per_spu: Bandwidth::from_tbps(16.0),
            dram_latency: TimeInterval::from_ns(30.0),
        }
    }

    /// Overrides the per-SPU DRAM bandwidth.
    #[must_use]
    pub fn with_dram_bandwidth(mut self, bw: Bandwidth) -> Self {
        self.dram_bandwidth_per_spu = bw;
        self
    }

    /// Overrides the cryo-DRAM latency.
    #[must_use]
    pub fn with_dram_latency(mut self, latency: TimeInterval) -> Self {
        self.dram_latency = latency;
        self
    }

    /// The SCD training estimator for this study.
    #[must_use]
    pub fn scd_training(&self) -> TrainingEstimator {
        TrainingEstimator::new(
            self.blade
                .accelerator()
                .with_dram_bandwidth(self.dram_bandwidth_per_spu)
                .with_dram_latency(self.dram_latency),
            self.blade.interconnect(),
        )
    }

    /// The GPU training estimator for this study.
    #[must_use]
    pub fn gpu_training(&self) -> TrainingEstimator {
        TrainingEstimator::new(self.gpus.accelerator().clone(), self.gpus.fabric().clone())
    }

    /// The SCD inference estimator for this study.
    #[must_use]
    pub fn scd_inference(&self) -> InferenceEstimator {
        InferenceEstimator::new(
            self.blade
                .accelerator()
                .with_dram_bandwidth(self.dram_bandwidth_per_spu)
                .with_dram_latency(self.dram_latency),
            self.blade.interconnect(),
        )
    }

    /// The GPU inference estimator for this study.
    #[must_use]
    pub fn gpu_inference(&self) -> InferenceEstimator {
        InferenceEstimator::new(self.gpus.accelerator().clone(), self.gpus.fabric().clone())
    }

    /// The GPU system under comparison.
    #[must_use]
    pub fn gpus(&self) -> &GpuSystem {
        &self.gpus
    }

    /// Runs the Fig. 6 training comparison.
    ///
    /// # Errors
    ///
    /// Propagates estimation failures.
    pub fn training(
        &self,
        model: &TransformerConfig,
        par: &Parallelism,
        global_batch: u32,
    ) -> Result<Comparison<TrainingReport>, OptimusError> {
        let scd = self.scd_training().estimate(model, par, global_batch)?;
        let gpu = self.gpu_training().estimate(model, par, global_batch)?;
        Ok(Comparison {
            scd,
            gpu,
            speedup: gpu.total_s / scd.total_s,
        })
    }

    /// Replays the same serving trace on both systems under each
    /// system's own KV-cache capacity (main memory minus weights) and the
    /// shared `max_batch` / SLO settings, reporting the tail-latency
    /// speed-up `gpu p95 TPOT / scd p95 TPOT` (p95 end-to-end latency
    /// ratio for single-token traces, whose TPOT is 0 by definition).
    ///
    /// # Errors
    ///
    /// Propagates trace/estimation failures, including
    /// [`OptimusError::Serving`] when a request can never fit either
    /// system's KV capacity.
    pub fn serving(
        &self,
        model: &TransformerConfig,
        par: &Parallelism,
        trace_config: &TraceConfig,
        max_batch: u32,
    ) -> Result<Comparison<ServingReport>, OptimusError> {
        let run = |est: InferenceEstimator| -> Result<ServingReport, OptimusError> {
            Ok(Scenario::on_estimator(est)
                .model(model)
                .parallelism(par)
                .max_batch(max_batch)
                .poisson(*trace_config)
                .compile()?
                .run()?
                .report)
        };
        let scd = run(self.scd_inference())?;
        let gpu = run(self.gpu_inference())?;
        // Single-token requests have TPOT = 0 by definition (no tokens
        // after the first), which would make the ratio NaN; fall back to
        // the p95 end-to-end latency ratio for such traces.
        let speedup = if scd.tpot.p95 > 0.0 && gpu.tpot.p95 > 0.0 {
            gpu.tpot.p95 / scd.tpot.p95
        } else {
            gpu.latency.p95 / scd.latency.p95
        };
        Ok(Comparison { scd, gpu, speedup })
    }

    /// Replays the same trace across `cluster.blades` SCD blades and the
    /// same number of 64×H100 GPU pods, each side under its own per-blade
    /// KV capacity, with identical routing/dispatch. The speed-up is the
    /// merged p95-TPOT ratio (p95 latency ratio for single-token traces),
    /// as in [`Self::serving`].
    ///
    /// # Errors
    ///
    /// Returns [`OptimusError::Serving`] for a cluster the scenario
    /// builder rejects (e.g. an autoscaler without central dispatch);
    /// propagates trace/estimation failures.
    pub fn cluster_serving(
        &self,
        model: &TransformerConfig,
        par: &Parallelism,
        trace_source: &dyn TraceSource,
        max_batch: u32,
        cluster: ClusterConfig,
    ) -> Result<Comparison<ClusterReport>, OptimusError> {
        let run = |est: InferenceEstimator| -> Result<ClusterReport, OptimusError> {
            let scenario = Scenario::on_estimator(est)
                .model(model)
                .parallelism(par)
                .max_batch(max_batch)
                .trace(trace_source)
                .topology(Topology::mixed(cluster.blades))
                .routing(cluster.routing)
                .dispatch(cluster.dispatch);
            match cluster.autoscale {
                Some(autoscale) => scenario.control(ControlPlane::new().autoscale(autoscale)),
                None => scenario,
            }
            .compile()?
            .run()
        };
        let scd = run(self.scd_inference())?;
        let gpu = run(self.gpu_inference())?;
        let speedup = if scd.report.tpot.p95 > 0.0 && gpu.report.tpot.p95 > 0.0 {
            gpu.report.tpot.p95 / scd.report.tpot.p95
        } else {
            gpu.report.latency.p95 / scd.report.latency.p95
        };
        Ok(Comparison { scd, gpu, speedup })
    }

    /// Runs the Fig. 8 inference comparison.
    ///
    /// # Errors
    ///
    /// Propagates estimation failures.
    pub fn inference(
        &self,
        model: &TransformerConfig,
        par: &Parallelism,
        shape: RequestShape,
    ) -> Result<Comparison<InferenceReport>, OptimusError> {
        let scd = self.scd_inference().estimate(model, par, shape)?;
        let gpu = self.gpu_inference().estimate(model, par, shape)?;
        Ok(Comparison {
            scd,
            gpu,
            speedup: gpu.total_s / scd.total_s,
        })
    }
}

impl Default for SpeedupStudy {
    fn default() -> Self {
        Self::paper_baseline()
    }
}

impl<R: fmt::Debug> fmt::Display for Comparison<R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "speed-up {:.2}×", self.speedup)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llm_workload::model::ModelZoo;

    #[test]
    fn training_comparison_favors_scd() {
        let study = SpeedupStudy::paper_baseline();
        let par = Parallelism::new(8, 8, 1).unwrap();
        let c = study.training(&ModelZoo::gpt3_76b(), &par, 64).unwrap();
        assert!(c.speedup > 2.0, "got {:.2}", c.speedup);
        assert!(c.to_string().contains('×'));
    }

    #[test]
    fn inference_comparison_favors_scd_more() {
        let study = SpeedupStudy::paper_baseline();
        let par = Parallelism::pure_tp(64).unwrap();
        let inf = study
            .inference(&ModelZoo::llama_70b(), &par, RequestShape::paper_io(8))
            .unwrap();
        let train_par = Parallelism::new(8, 8, 1).unwrap();
        let train = study
            .training(&ModelZoo::gpt3_76b(), &train_par, 64)
            .unwrap();
        assert!(inf.speedup > train.speedup);
    }

    #[test]
    fn serving_comparison_favors_scd_tails() {
        let study = SpeedupStudy::paper_baseline();
        let par = Parallelism::pure_tp(64).unwrap();
        let trace = TraceConfig {
            seed: 5,
            requests: 24,
            arrival_rate_per_s: 8.0,
            prompt_tokens: (150, 250),
            output_tokens: (100, 200),
        };
        let c = study
            .serving(&ModelZoo::llama_405b(), &par, &trace, 32)
            .unwrap();
        assert_eq!(c.scd.completed, 24);
        assert_eq!(c.gpu.completed, 24);
        assert!(
            c.speedup > 2.0,
            "SCD p95 TPOT should beat GPUs well past 2x, got {:.2}",
            c.speedup
        );
        assert!(c.scd.throughput_tok_s >= c.gpu.throughput_tok_s);
    }

    #[test]
    fn serving_comparison_single_token_trace_has_finite_speedup() {
        // TPOT is 0 for output_tokens == 1 requests; the speed-up must
        // fall back to the latency ratio instead of dividing 0 by 0.
        let study = SpeedupStudy::paper_baseline();
        let par = Parallelism::pure_tp(64).unwrap();
        let trace = TraceConfig {
            seed: 1,
            requests: 6,
            arrival_rate_per_s: 4.0,
            prompt_tokens: (150, 250),
            output_tokens: (1, 1),
        };
        let c = study
            .serving(&ModelZoo::llama_405b(), &par, &trace, 8)
            .unwrap();
        assert!(
            c.speedup.is_finite() && c.speedup > 1.0,
            "got {}",
            c.speedup
        );
    }

    #[test]
    fn cluster_serving_comparison_completes_on_both_sides() {
        use crate::serving::{DispatchMode, RoutingPolicy};
        let study = SpeedupStudy::paper_baseline();
        let par = Parallelism::pure_tp(64).unwrap();
        let trace = TraceConfig {
            seed: 5,
            requests: 24,
            arrival_rate_per_s: 16.0,
            prompt_tokens: (150, 250),
            output_tokens: (50, 150),
        };
        let c = study
            .cluster_serving(
                &ModelZoo::llama_405b(),
                &par,
                &trace,
                16,
                crate::serving::ClusterConfig {
                    blades: 4,
                    routing: RoutingPolicy::JoinShortestQueue,
                    dispatch: DispatchMode::PerBlade,
                    autoscale: None,
                },
            )
            .unwrap();
        assert_eq!(c.scd.report.completed, 24);
        assert_eq!(c.gpu.report.completed, 24);
        assert_eq!(c.scd.per_blade.len(), 4);
        assert!(
            c.speedup > 1.0,
            "SCD cluster should keep its tail advantage, got {:.2}",
            c.speedup
        );
    }

    #[test]
    fn cluster_serving_forwards_the_autoscaler() {
        use crate::serving::{AutoscaleConfig, DispatchMode, RoutingPolicy};
        let study = SpeedupStudy::paper_baseline();
        let par = Parallelism::pure_tp(64).unwrap();
        let trace = TraceConfig {
            seed: 5,
            requests: 12,
            arrival_rate_per_s: 16.0,
            prompt_tokens: (150, 250),
            output_tokens: (20, 40),
        };
        let run = |dispatch| {
            study.cluster_serving(
                &ModelZoo::llama_405b(),
                &par,
                &trace,
                8,
                ClusterConfig {
                    blades: 2,
                    routing: RoutingPolicy::RoundRobin,
                    dispatch,
                    autoscale: Some(AutoscaleConfig::new(1, 2)),
                },
            )
        };
        // Per-blade routing leaves the autoscaler nothing to act on: the
        // config is rejected, not silently run without its scaler.
        assert!(matches!(
            run(DispatchMode::PerBlade),
            Err(OptimusError::Serving { .. })
        ));
        // Under central dispatch the scaler runs on both sides: it starts
        // from one active blade, so reaching the second takes a scale
        // event (a fixed pool reports 2 blades and no events).
        let c = run(DispatchMode::Central).unwrap();
        assert_eq!(c.scd.report.completed, 12);
        for side in [&c.scd, &c.gpu] {
            assert!(side.peak_blades == 1 || side.scale_events > 0, "{side}");
        }
    }

    #[test]
    fn lower_bandwidth_reduces_scd_advantage() {
        let par = Parallelism::pure_tp(64).unwrap();
        let model = ModelZoo::llama_405b();
        let shape = RequestShape::paper_io(8);
        let fast = SpeedupStudy::paper_baseline()
            .inference(&model, &par, shape)
            .unwrap();
        let slow = SpeedupStudy::paper_baseline()
            .with_dram_bandwidth(Bandwidth::from_tbps(0.5))
            .inference(&model, &par, shape)
            .unwrap();
        assert!(fast.speedup > slow.speedup);
    }
}
