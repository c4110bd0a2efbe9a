//! Multi-blade scaling — the paper's §VII future work: "we expect the
//! performance to scale with the number of blades".
//!
//! Blades stack vertically through extended NbTiN TSVs in the SNU
//! (Fig. 3d) or connect optically at the edges. We model an inter-blade
//! tier that is an order of magnitude slower than the on-blade torus but
//! still far ahead of a GPU cluster's cross-node network, and project
//! data-parallel training scale-out across blades.

use crate::error::OptimusError;
use crate::inference::InferenceEstimator;
use crate::training::{TrainingEstimator, TrainingReport};
use llm_workload::model::TransformerConfig;
use llm_workload::parallelism::Parallelism;
use scd_arch::{Blade, Fabric, InterconnectSpec};
use scd_tech::units::{Bandwidth, TimeInterval};
use serde::{Deserialize, Serialize};

/// A vertical stack / array of SCD blades.
#[derive(Debug, Clone)]
pub struct MultiBladeSystem {
    blade: Blade,
    blades: u32,
    dram_bandwidth_per_spu: Bandwidth,
}

impl MultiBladeSystem {
    /// Creates a system of `blades` baseline blades at the §VI operating
    /// point (16 TB/s per SPU).
    ///
    /// # Errors
    ///
    /// Returns [`OptimusError::Mapping`] for zero blades.
    pub fn new(blades: u32) -> Result<Self, OptimusError> {
        if blades == 0 {
            return Err(OptimusError::Mapping {
                reason: "need at least one blade".to_owned(),
            });
        }
        Ok(Self {
            blade: Blade::baseline(),
            blades,
            dram_bandwidth_per_spu: Bandwidth::from_tbps(16.0),
        })
    }

    /// Number of blades.
    #[must_use]
    pub fn blades(&self) -> u32 {
        self.blades
    }

    /// Total SPU count.
    #[must_use]
    pub fn spus(&self) -> u32 {
        self.blades * self.blade.spus()
    }

    /// The two-tier fabric: the on-blade torus plus the blade-to-blade
    /// TSV/optical tier (8 TB/s per SPU-pair share, ~100 ns hop).
    #[must_use]
    pub fn fabric(&self) -> Fabric {
        if self.blades == 1 {
            return Fabric::scd_blade();
        }
        let intra = InterconnectSpec::scd_blade();
        let inter = InterconnectSpec {
            name: "SCD blade-to-blade".to_owned(),
            link_bandwidth: Bandwidth::from_tbps(8.0),
            per_hop_latency: TimeInterval::from_ns(100.0),
            phase_overhead: TimeInterval::from_ns(10.0),
            max_group: (self.spus() as usize).max(65),
        };
        Fabric::new(vec![intra, inter]).expect("tiers ordered by construction")
    }

    /// The blade every unit of this system replicates.
    #[must_use]
    pub fn blade(&self) -> &Blade {
        &self.blade
    }

    /// A training estimator over the whole system.
    #[must_use]
    pub fn training_estimator(&self) -> TrainingEstimator {
        TrainingEstimator::new(
            self.blade
                .accelerator()
                .with_dram_bandwidth(self.dram_bandwidth_per_spu),
            self.fabric(),
        )
    }

    /// A per-blade inference estimator at the system's operating point:
    /// the view one serving replica sees (model parallelism stays inside
    /// a blade, so the fabric is the on-blade torus). This is the
    /// estimator a [`crate::serving::Scenario`] over this system replicates
    /// across [`Self::blades`] blades.
    #[must_use]
    pub fn inference_estimator(&self) -> InferenceEstimator {
        InferenceEstimator::new(
            self.blade
                .accelerator()
                .with_dram_bandwidth(self.dram_bandwidth_per_spu),
            self.blade.interconnect(),
        )
    }

    /// Projects one training step with data parallelism across blades
    /// (TP=8, PP=8 inside each blade, DP = blade count), scaling the
    /// global batch with the system.
    ///
    /// # Errors
    ///
    /// Propagates estimation failures.
    pub fn weak_scaling_step(
        &self,
        model: &TransformerConfig,
        batch_per_blade: u32,
    ) -> Result<TrainingReport, OptimusError> {
        let par = Parallelism::new(8, 8, self.blades)?;
        let global_batch = batch_per_blade * self.blades;
        self.training_estimator()
            .estimate(model, &par, global_batch)
    }
}

/// One point of the scaling study.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScalingPoint {
    /// Blades in the system.
    pub blades: u32,
    /// Total SPUs.
    pub spus: u32,
    /// Step time for the weak-scaled batch (s).
    pub step_time_s: f64,
    /// Aggregate achieved PFLOP/s over the whole system.
    pub system_pflops: f64,
    /// Weak-scaling efficiency vs one blade.
    pub efficiency: f64,
}

/// Runs a weak-scaling sweep over blade counts.
///
/// # Errors
///
/// Propagates estimation failures.
pub fn weak_scaling_sweep(
    model: &TransformerConfig,
    batch_per_blade: u32,
    blade_counts: &[u32],
) -> Result<Vec<ScalingPoint>, OptimusError> {
    let mut points = Vec::new();
    let mut base_throughput = None;
    for &blades in blade_counts {
        let system = MultiBladeSystem::new(blades)?;
        let r = system.weak_scaling_step(model, batch_per_blade)?;
        let system_flops = r.flops_per_unit * f64::from(system.spus()) / r.total_s;
        let base = *base_throughput.get_or_insert(system_flops / f64::from(blades));
        points.push(ScalingPoint {
            blades,
            spus: system.spus(),
            step_time_s: r.total_s,
            system_pflops: system_flops / 1e15,
            efficiency: system_flops / (base * f64::from(blades)),
        });
    }
    Ok(points)
}

#[cfg(test)]
mod tests {
    use super::*;
    use llm_workload::model::ModelZoo;

    #[test]
    fn single_blade_matches_baseline_fabric() {
        let s = MultiBladeSystem::new(1).unwrap();
        assert_eq!(s.spus(), 64);
        assert_eq!(s.blade().spus(), 64);
        // The serving-side estimator sees the blade at the §VI operating
        // point: 16 TB/s per SPU over the on-blade fabric.
        let est = s.inference_estimator();
        assert!((est.accelerator().dram_bandwidth().tbps() - 16.0).abs() < 1e-9);
        assert_eq!(s.fabric().tiers().len(), 1);
        let multi = MultiBladeSystem::new(4).unwrap();
        assert_eq!(multi.fabric().tiers().len(), 2);
        assert_eq!(multi.spus(), 256);
    }

    #[test]
    fn weak_scaling_efficiency_high() {
        // DP gradient all-reduce over the blade-to-blade tier is cheap
        // relative to a training step, so weak scaling stays near-ideal.
        let pts = weak_scaling_sweep(&ModelZoo::gpt3_76b(), 64, &[1, 2, 4, 8]).unwrap();
        assert_eq!(pts.len(), 4);
        for p in &pts {
            assert!(
                p.efficiency > 0.85,
                "{} blades: efficiency {:.3}",
                p.blades,
                p.efficiency
            );
        }
        // Aggregate throughput grows with blades.
        assert!(pts[3].system_pflops > pts[0].system_pflops * 3.0);
    }

    #[test]
    fn zero_blades_rejected() {
        assert!(MultiBladeSystem::new(0).is_err());
    }
}
