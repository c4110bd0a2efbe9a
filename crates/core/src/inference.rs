//! End-to-end LLM-inference estimation (Fig. 7 / Fig. 8).
//!
//! Inference runs a prefill pass over the prompt followed by
//! token-by-token decode with a growing KV cache. Decode is memory-bound
//! (weights and KV stream from DRAM every step), which is why the paper
//! finds inference benefits from the SCD system even more than training.

use crate::error::OptimusError;
use crate::roofline::{Placement, Roofline};
use llm_workload::kernel::{CommOp, CommScope, Kernel};
use llm_workload::kvcache::{KvCache, KvConvention};
use llm_workload::model::{Precision, TransformerConfig};
use llm_workload::parallelism::Parallelism;
use llm_workload::taskgraph::{decode_step, decode_step_into, prefill, prefill_into};
use rayon::prelude::*;
use scd_arch::{Accelerator, Fabric};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Inference timing report.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InferenceReport {
    /// Prompt-processing time (s).
    pub prefill_s: f64,
    /// Total decode time over all generated tokens (s).
    pub decode_s: f64,
    /// Communication share of the total (s).
    pub comm_s: f64,
    /// End-to-end latency (s).
    pub total_s: f64,
    /// Useful FLOPs per unit over the request.
    pub flops_per_unit: f64,
    /// Achieved throughput per unit (FLOP/s).
    pub achieved_flops_per_unit: f64,
    /// Mean time per generated token (s).
    pub per_token_s: f64,
    /// KV-cache footprint at the end of generation (bytes, whole system).
    pub kv_cache_bytes: f64,
}

impl InferenceReport {
    /// End-to-end latency in seconds.
    #[must_use]
    pub fn latency_s(&self) -> f64 {
        self.total_s
    }

    /// Achieved PFLOP/s per unit.
    #[must_use]
    pub fn pflops_per_unit(&self) -> f64 {
        self.achieved_flops_per_unit / 1e15
    }
}

impl fmt::Display for InferenceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "latency {:.3} s (prefill {:.3} + decode {:.3}); {:.3} PFLOP/s/unit",
            self.total_s,
            self.prefill_s,
            self.decode_s,
            self.pflops_per_unit()
        )
    }
}

/// An inference request shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RequestShape {
    /// Concurrent sequences.
    pub batch: u32,
    /// Prompt tokens (the paper's I/O 200/200 default).
    pub input_tokens: u32,
    /// Generated tokens.
    pub output_tokens: u32,
}

impl RequestShape {
    /// The paper's I/O 200/200 shape at a given batch.
    #[must_use]
    pub fn paper_io(batch: u32) -> Self {
        Self {
            batch,
            input_tokens: 200,
            output_tokens: 200,
        }
    }
}

/// Inference estimator for one accelerator type + fabric.
#[derive(Debug, Clone)]
pub struct InferenceEstimator {
    accel: Accelerator,
    fabric: Fabric,
    precision: Precision,
    placement: Placement,
}

impl InferenceEstimator {
    /// Creates an estimator with bf16 precision and DRAM KV placement.
    #[must_use]
    pub fn new(accel: Accelerator, fabric: Fabric) -> Self {
        Self {
            accel,
            fabric,
            precision: Precision::Bf16,
            placement: Placement::dram(),
        }
    }

    /// Overrides traffic placement (the §VI KV-in-L2 study).
    #[must_use]
    pub fn with_placement(mut self, placement: Placement) -> Self {
        self.placement = placement;
        self
    }

    /// Overrides the working precision.
    #[must_use]
    pub fn with_precision(mut self, precision: Precision) -> Self {
        self.precision = precision;
        self
    }

    /// The accelerator under analysis.
    #[must_use]
    pub fn accelerator(&self) -> &Accelerator {
        &self.accel
    }

    /// The working precision.
    #[must_use]
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// Times one prefill pass over `input_tokens` prompt tokens at the
    /// given batch: compute plus communication, in seconds. This is the
    /// admission cost a continuous-batching scheduler pays when a request
    /// joins the running batch.
    ///
    /// # Errors
    ///
    /// Returns [`OptimusError`] for invalid model/parallelism/shape
    /// combinations.
    pub fn prefill_time(
        &self,
        model: &TransformerConfig,
        par: &Parallelism,
        batch: u32,
        input_tokens: u32,
    ) -> Result<f64, OptimusError> {
        self.accel.validate()?;
        let g = prefill(model, par, batch, input_tokens, self.precision)?;
        let (c, m) = self.graph_time(&g.kernels, &g.comms, par.tp() as usize);
        Ok(c + m)
    }

    /// Times one decode iteration for `batch` concurrent sequences at
    /// cache length `kv_len`: compute plus communication, in seconds.
    /// This is the per-iteration cost a continuous-batching scheduler
    /// pays for the running batch.
    ///
    /// # Errors
    ///
    /// Returns [`OptimusError`] for invalid model/parallelism/shape
    /// combinations.
    pub fn decode_step_time(
        &self,
        model: &TransformerConfig,
        par: &Parallelism,
        batch: u32,
        kv_len: u32,
    ) -> Result<f64, OptimusError> {
        self.accel.validate()?;
        let g = decode_step(model, par, batch, kv_len, self.precision)?;
        let (c, m) = self.graph_time(&g.kernels, &g.comms, par.tp() as usize);
        Ok(c + m)
    }

    /// Prices a row of decode iterations at one batch: `row[i]` becomes
    /// [`Self::decode_step_time`] at cache length `kv_len(i)`, bit for
    /// bit, and the row fails with the error that call would return.
    ///
    /// One full `decode_step_time` call checks the row; the cells then
    /// refill one pair of kernel buffers and re-time only the kernels
    /// whose shape changed from the previous cell (at a fixed batch, the
    /// three attention kernels).
    ///
    /// # Errors
    ///
    /// As for [`Self::decode_step_time`].
    pub fn decode_row(
        &self,
        model: &TransformerConfig,
        par: &Parallelism,
        batch: u32,
        kv_len: impl Fn(usize) -> u32,
        row: &mut [f64],
    ) -> Result<(), OptimusError> {
        check_row(row, &kv_len, |kv| {
            self.decode_step_time(model, par, batch, kv)
        })?;
        self.decode_cells(model, par, batch, kv_len, row);
        Ok(())
    }

    /// Prices a row of prefill passes at one batch: `row[i]` becomes
    /// [`Self::prefill_time`] at prompt length `input_tokens(i)`, bit for
    /// bit, from reused buffers like [`Self::decode_row`].
    ///
    /// # Errors
    ///
    /// As for [`Self::prefill_time`].
    pub fn prefill_row(
        &self,
        model: &TransformerConfig,
        par: &Parallelism,
        batch: u32,
        input_tokens: impl Fn(usize) -> u32,
        row: &mut [f64],
    ) -> Result<(), OptimusError> {
        check_row(row, &input_tokens, |tokens| {
            self.prefill_time(model, par, batch, tokens)
        })?;
        self.prefill_cells(model, par, batch, input_tokens, row);
        Ok(())
    }

    /// [`Self::decode_row`] without its checks, for a model and plan
    /// that one [`Self::decode_step_time`] call has accepted: every
    /// check behind that call is the same for each batch and length of
    /// at least 1, so `row[i]` equals the call at `kv_len(i)` bit for
    /// bit.
    pub(crate) fn decode_cells(
        &self,
        model: &TransformerConfig,
        par: &Parallelism,
        batch: u32,
        kv_len: impl Fn(usize) -> u32,
        row: &mut [f64],
    ) {
        self.price_cells(par, row, kv_len, |kv, kernels, comms| {
            decode_step_into(model, par, batch, kv, self.precision, kernels, comms);
        });
    }

    /// [`Self::prefill_row`] without its checks, under the same terms as
    /// [`Self::decode_cells`].
    pub(crate) fn prefill_cells(
        &self,
        model: &TransformerConfig,
        par: &Parallelism,
        batch: u32,
        input_tokens: impl Fn(usize) -> u32,
        row: &mut [f64],
    ) {
        self.price_cells(par, row, input_tokens, |tokens, kernels, comms| {
            prefill_into(model, par, batch, tokens, self.precision, kernels, comms);
        });
    }

    /// The pricer behind the row and cell methods: cell `i` appends the
    /// graph at `len(i)` to reused buffers with `fill`.
    fn price_cells(
        &self,
        par: &Parallelism,
        row: &mut [f64],
        len: impl Fn(usize) -> u32,
        fill: impl Fn(u32, &mut Vec<Kernel>, &mut Vec<CommOp>),
    ) {
        let mut pricer = GraphPricer::new(self, par.tp() as usize);
        for (i, cell) in row.iter_mut().enumerate() {
            *cell = pricer.price(|kernels, comms| fill(len(i), kernels, comms));
        }
    }

    fn roofline(&self) -> Roofline<'_> {
        Roofline::new(&self.accel).with_placement(self.placement)
    }

    /// Seconds of all invocations of one communication op in a
    /// `tp`-wide tensor-parallel group.
    fn comm_time(&self, c: &CommOp, tp: usize) -> f64 {
        let t = match c.scope {
            CommScope::TensorParallel => self.fabric.all_reduce_time(c.bytes, tp),
            CommScope::DataParallel => self.fabric.all_reduce_time(c.bytes, tp),
            CommScope::PipelineNeighbor => self.fabric.p2p_time(c.bytes),
        };
        t.seconds() * c.invocations
    }

    /// (compute s, communication s) of one graph, summed in op order.
    fn graph_time(&self, kernels: &[Kernel], comms: &[CommOp], tp: usize) -> (f64, f64) {
        let roofline = self.roofline();
        let compute: f64 = kernels.iter().map(|k| roofline.time_all(k).seconds()).sum();
        let comm: f64 = comms.iter().map(|c| self.comm_time(c, tp)).sum();
        (compute, comm)
    }

    /// Times the decode step at KV length `input_tokens + t`, returning
    /// (compute s, communication s, FLOPs).
    fn decode_token(
        &self,
        model: &TransformerConfig,
        par: &Parallelism,
        shape: RequestShape,
        tp: usize,
        t: u32,
    ) -> Result<(f64, f64, f64), OptimusError> {
        let kv_len = shape.input_tokens + t;
        let g = decode_step(model, par, shape.batch, kv_len, self.precision)?;
        let (c, m) = self.graph_time(&g.kernels, &g.comms, tp);
        Ok((c, m, g.total_flops()))
    }

    /// Assembles the report from prefill timings and the per-token decode
    /// timings, folding tokens in order. Shared by the parallel and serial
    /// estimation paths so the two can only differ in how the per-token
    /// values were produced.
    fn compose_report(
        &self,
        model: &TransformerConfig,
        shape: RequestShape,
        prefill_comp: f64,
        prefill_comm: f64,
        prefill_flops: f64,
        per_token: impl IntoIterator<Item = Result<(f64, f64, f64), OptimusError>>,
    ) -> Result<InferenceReport, OptimusError> {
        let mut flops = prefill_flops;
        let mut decode_comp = 0.0;
        let mut decode_comm = 0.0;
        for timed in per_token {
            let (c, m, fl) = timed?;
            decode_comp += c;
            decode_comm += m;
            flops += fl;
        }

        let prefill_s = prefill_comp + prefill_comm;
        let decode_s = decode_comp + decode_comm;
        let total_s = prefill_s + decode_s;
        let kv = KvCache {
            batch: shape.batch,
            seq_len: shape.input_tokens + shape.output_tokens,
            precision: self.precision,
        };
        // Reported in the paper's MHA convention so the Fig. 8b numbers
        // reproduce; physical capacity accounting uses KvConvention::Gqa
        // (see `serving`).
        let kv_cache_bytes = kv.bytes(model, KvConvention::PaperMha);
        Ok(InferenceReport {
            prefill_s,
            decode_s,
            comm_s: prefill_comm + decode_comm,
            total_s,
            flops_per_unit: flops,
            achieved_flops_per_unit: flops / total_s,
            per_token_s: decode_s / f64::from(shape.output_tokens.max(1)),
            kv_cache_bytes,
        })
    }

    /// Estimates a full request (prefill + decode). Each generated token's
    /// task graph is built and timed on a separate rayon task — the KV
    /// length, and therefore the graph, differs per token — and the
    /// per-token times are folded in token order on the calling thread, so
    /// the result is bit-identical to [`Self::estimate_serial`].
    ///
    /// # Errors
    ///
    /// Returns [`OptimusError`] for invalid model/parallelism combinations.
    pub fn estimate(
        &self,
        model: &TransformerConfig,
        par: &Parallelism,
        shape: RequestShape,
    ) -> Result<InferenceReport, OptimusError> {
        self.accel.validate()?;
        let tp = par.tp() as usize;

        let prefill_graph = prefill(model, par, shape.batch, shape.input_tokens, self.precision)?;
        let (prefill_comp, prefill_comm) =
            self.graph_time(&prefill_graph.kernels, &prefill_graph.comms, tp);

        let per_token: Vec<Result<(f64, f64, f64), OptimusError>> = (0..shape.output_tokens)
            .into_par_iter()
            .map(|t| self.decode_token(model, par, shape, tp, t))
            .collect();
        self.compose_report(
            model,
            shape,
            prefill_comp,
            prefill_comm,
            prefill_graph.total_flops(),
            per_token,
        )
    }

    /// Serial reference implementation of [`Self::estimate`], kept as the
    /// ground truth for the rayon-equivalence test in CI.
    ///
    /// # Errors
    ///
    /// Returns [`OptimusError`] for invalid model/parallelism combinations.
    pub fn estimate_serial(
        &self,
        model: &TransformerConfig,
        par: &Parallelism,
        shape: RequestShape,
    ) -> Result<InferenceReport, OptimusError> {
        self.accel.validate()?;
        let tp = par.tp() as usize;

        let prefill_graph = prefill(model, par, shape.batch, shape.input_tokens, self.precision)?;
        let (prefill_comp, prefill_comm) =
            self.graph_time(&prefill_graph.kernels, &prefill_graph.comms, tp);

        let per_token =
            (0..shape.output_tokens).map(|t| self.decode_token(model, par, shape, tp, t));
        self.compose_report(
            model,
            shape,
            prefill_comp,
            prefill_comm,
            prefill_graph.total_flops(),
            per_token,
        )
    }
}

/// Runs the checked per-cell call `full` at the first length of a row
/// and at every zero length, so a failing row fails with that call's
/// error: at nonzero lengths the checks do not depend on the length.
fn check_row(
    row: &[f64],
    len: impl Fn(usize) -> u32,
    full: impl Fn(u32) -> Result<f64, OptimusError>,
) -> Result<(), OptimusError> {
    for i in 0..row.len() {
        let n = len(i);
        if i == 0 || n == 0 {
            full(n)?;
        }
    }
    Ok(())
}

/// Prices a sequence of graphs refilled into the same buffers. A kernel
/// or communication op is re-timed only when its timing inputs differ in
/// bits from the op at the same position of the previous graph, and the
/// times are summed in op order, so every price equals
/// [`InferenceEstimator::graph_time`] on the same graph, bit for bit.
struct GraphPricer<'e> {
    estimator: &'e InferenceEstimator,
    roofline: Roofline<'e>,
    tp: usize,
    kernels: Vec<Kernel>,
    comms: Vec<CommOp>,
    kernel_s: Vec<(KernelShape, f64)>,
    comm_s: Vec<(CommShape, f64)>,
}

/// What the roofline reads of a kernel: flops, weight bytes, activation
/// bytes and invocations (as bits), and whether it streams the KV cache.
type KernelShape = ([u64; 4], bool);

/// What [`InferenceEstimator::comm_time`] reads of a communication op:
/// bytes and invocations (as bits), and its scope.
type CommShape = ([u64; 2], CommScope);

impl<'e> GraphPricer<'e> {
    fn new(estimator: &'e InferenceEstimator, tp: usize) -> Self {
        Self {
            estimator,
            roofline: estimator.roofline(),
            tp,
            kernels: Vec::new(),
            comms: Vec::new(),
            kernel_s: Vec::new(),
            comm_s: Vec::new(),
        }
    }

    /// Refills the buffers with `fill` and prices the graph it built:
    /// compute plus communication, in seconds.
    fn price(&mut self, fill: impl FnOnce(&mut Vec<Kernel>, &mut Vec<CommOp>)) -> f64 {
        self.kernels.clear();
        self.comms.clear();
        fill(&mut self.kernels, &mut self.comms);
        let (roofline, estimator, tp) = (&self.roofline, self.estimator, self.tp);
        retime(
            &mut self.kernel_s,
            &self.kernels,
            |k| {
                let bits = [k.flops, k.weight_bytes, k.activation_bytes, k.invocations];
                (bits.map(f64::to_bits), k.kv_stream)
            },
            |k| roofline.time_all(k).seconds(),
        );
        retime(
            &mut self.comm_s,
            &self.comms,
            |c| ([c.bytes, c.invocations].map(f64::to_bits), c.scope),
            |c| estimator.comm_time(c, tp),
        );
        let compute: f64 = self.kernel_s.iter().map(|&(_, t)| t).sum();
        let comm: f64 = self.comm_s.iter().map(|&(_, t)| t).sum();
        compute + comm
    }
}

/// Brings `times` in line with `ops`, position by position, re-timing an
/// op only when its `shape` changed.
fn retime<T, S: PartialEq>(
    times: &mut Vec<(S, f64)>,
    ops: &[T],
    shape: impl Fn(&T) -> S,
    time: impl Fn(&T) -> f64,
) {
    times.truncate(ops.len());
    for (i, op) in ops.iter().enumerate() {
        let s = shape(op);
        match times.get_mut(i) {
            Some(cached) if cached.0 == s => {}
            Some(cached) => *cached = (s, time(op)),
            None => times.push((s, time(op))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llm_workload::model::ModelZoo;
    use scd_arch::{Blade, GpuSystem};
    use scd_tech::units::{Bandwidth, TimeInterval};

    fn spu_estimator(bw_tbps: f64, lat_ns: f64) -> InferenceEstimator {
        let blade = Blade::baseline();
        let accel = blade
            .accelerator()
            .with_dram_bandwidth(Bandwidth::from_tbps(bw_tbps))
            .with_dram_latency(TimeInterval::from_ns(lat_ns));
        InferenceEstimator::new(accel, blade.interconnect())
    }

    fn gpu_estimator() -> InferenceEstimator {
        let gpus = GpuSystem::h100_cluster(64);
        InferenceEstimator::new(gpus.accelerator().clone(), gpus.fabric().clone())
    }

    /// KV lengths a row visits: steady runs, jumps back and repeats, so
    /// the pricer both reuses and re-times its cached kernels.
    fn lengths(i: usize) -> u32 {
        [1, 2, 3, 200, 200, 199, 4096, 17, 17, 1][i % 10] + (i / 10) as u32 * 16
    }

    /// Every (estimator, model, plan) the row pricer must match exactly.
    fn pricing_cases() -> Vec<(InferenceEstimator, TransformerConfig, Parallelism)> {
        let tp64 = Parallelism::pure_tp(64).unwrap();
        vec![
            (spu_estimator(16.0, 30.0), ModelZoo::llama_405b(), tp64),
            (gpu_estimator(), ModelZoo::llama_405b(), tp64),
            (
                spu_estimator(16.0, 30.0).with_placement(Placement::kv_in_l2()),
                ModelZoo::llama_70b(),
                tp64,
            ),
            // Ungated MLP.
            (
                spu_estimator(4.0, 30.0),
                ModelZoo::gpt3_175b(),
                Parallelism::pure_tp(8).unwrap(),
            ),
            // MoE on a pipelined (PP = 4) plan.
            (
                spu_estimator(16.0, 30.0),
                ModelZoo::moe_132b(),
                Parallelism::new(16, 4, 1).unwrap(),
            ),
            // TP = 1: no communication op at all.
            (
                spu_estimator(16.0, 30.0),
                ModelZoo::llama2_7b(),
                Parallelism::new(1, 1, 1).unwrap(),
            ),
        ]
    }

    #[test]
    fn row_priced_cells_equal_per_cell_calls_bit_for_bit() {
        for (est, model, par) in pricing_cases() {
            for batch in [1, 3, 64] {
                let mut row = vec![f64::NAN; 60];
                est.decode_row(&model, &par, batch, lengths, &mut row)
                    .unwrap();
                for (i, &cell) in row.iter().enumerate() {
                    let want = est
                        .decode_step_time(&model, &par, batch, lengths(i))
                        .unwrap();
                    assert_eq!(
                        cell.to_bits(),
                        want.to_bits(),
                        "{} {par} decode B={batch} kv={}",
                        model.name,
                        lengths(i)
                    );
                }
                est.prefill_row(&model, &par, batch, lengths, &mut row)
                    .unwrap();
                for (i, &cell) in row.iter().enumerate() {
                    let want = est.prefill_time(&model, &par, batch, lengths(i)).unwrap();
                    assert_eq!(
                        cell.to_bits(),
                        want.to_bits(),
                        "{} {par} prefill B={batch} in={}",
                        model.name,
                        lengths(i)
                    );
                }
            }
        }
    }

    #[test]
    fn row_pricing_fails_like_the_per_cell_call() {
        let est = spu_estimator(16.0, 30.0);
        let par = Parallelism::pure_tp(64).unwrap();
        let mut row = [0.0; 4];
        // An invalid model fails on the first cell.
        let mut broken = ModelZoo::llama_405b();
        broken.hidden = 0;
        let want = est.decode_step_time(&broken, &par, 8, 1).unwrap_err();
        let got = est.decode_row(&broken, &par, 8, lengths, &mut row);
        assert_eq!(got.unwrap_err(), want);
        let want = est.prefill_time(&broken, &par, 8, 1).unwrap_err();
        let got = est.prefill_row(&broken, &par, 8, lengths, &mut row);
        assert_eq!(got.unwrap_err(), want);
        // A plan the model does not divide by fails the same way.
        let model = ModelZoo::moe_132b();
        let want = est.decode_step_time(&model, &par, 8, 1).unwrap_err();
        let got = est.decode_row(&model, &par, 8, lengths, &mut row);
        assert_eq!(got.unwrap_err(), want);
        // A degenerate shape past the first cell still takes the
        // checked path and its typed error.
        let model = ModelZoo::llama_405b();
        let zero_at_2 = |i: usize| if i == 2 { 0 } else { 100 };
        let want = est.decode_step_time(&model, &par, 8, 0).unwrap_err();
        let got = est.decode_row(&model, &par, 8, zero_at_2, &mut row);
        assert_eq!(got.unwrap_err(), want);
        let want = est.prefill_time(&model, &par, 8, 0).unwrap_err();
        let got = est.prefill_row(&model, &par, 8, zero_at_2, &mut row);
        assert_eq!(got.unwrap_err(), want);
        // An empty row prices nothing and checks nothing.
        assert!(est.decode_row(&broken, &par, 8, lengths, &mut []).is_ok());
    }

    #[test]
    fn fig7_bandwidth_sweep_shape() {
        // Llama-405B, B=8, I/O 200/200, TP=64, 30 ns: latency falls
        // steeply from 0.5 TB/s then saturates beyond ~8 TB/s.
        let model = ModelZoo::llama_405b();
        let par = Parallelism::pure_tp(64).unwrap();
        let shape = RequestShape::paper_io(8);
        let mut latencies = Vec::new();
        for bw in [0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0] {
            let r = spu_estimator(bw, 30.0)
                .estimate(&model, &par, shape)
                .unwrap();
            latencies.push(r.latency_s());
        }
        for w in latencies.windows(2) {
            assert!(w[1] <= w[0] + 1e-9, "latency must fall with bandwidth");
        }
        let overall = latencies[0] / latencies[6];
        assert!(
            (8.0..30.0).contains(&overall),
            "paper sees ~17× from 0.5→32 TB/s, got {overall:.1}"
        );
        let saturation = latencies[4] / latencies[6];
        assert!(
            saturation < 1.35,
            "should saturate beyond 8 TB/s, got {saturation:.2}"
        );
    }

    #[test]
    fn fig7a_latency_sensitivity() {
        // Throughput falls steadily as DRAM latency goes 10 → 200 ns at
        // 16 TB/s.
        let model = ModelZoo::llama_405b();
        let par = Parallelism::pure_tp(64).unwrap();
        let shape = RequestShape::paper_io(8);
        let mut last = f64::INFINITY;
        for lat in [10.0, 30.0, 50.0, 100.0, 200.0] {
            let r = spu_estimator(16.0, lat)
                .estimate(&model, &par, shape)
                .unwrap();
            let p = r.pflops_per_unit();
            assert!(p < last, "throughput must fall with latency");
            last = p;
        }
    }

    #[test]
    fn fig7b_batch_tradeoff() {
        let model = ModelZoo::llama_405b();
        let par = Parallelism::pure_tp(64).unwrap();
        let mut last_throughput = 0.0;
        let mut last_latency = 0.0;
        for b in [4, 8, 16, 32, 64, 128] {
            let r = spu_estimator(16.0, 30.0)
                .estimate(&model, &par, RequestShape::paper_io(b))
                .unwrap();
            assert!(
                r.pflops_per_unit() > last_throughput,
                "throughput grows with batch"
            );
            assert!(r.latency_s() > last_latency, "latency grows with batch");
            last_throughput = r.pflops_per_unit();
            last_latency = r.latency_s();
        }
    }

    #[test]
    fn fig8a_model_speedups() {
        // Paper: 8.9×–10.6× vs 64 H100s at 16 TB/s, B=8, I/O 200/200.
        // MoE-132B has 48 heads, so its 64 units split TP=16 × PP=4.
        let shape = RequestShape::paper_io(8);
        let cases = [
            (ModelZoo::moe_132b(), Parallelism::new(16, 4, 1).unwrap()),
            (ModelZoo::llama_70b(), Parallelism::pure_tp(64).unwrap()),
            (ModelZoo::llama_405b(), Parallelism::pure_tp(64).unwrap()),
        ];
        for (model, par) in cases {
            let spu = spu_estimator(16.0, 30.0)
                .estimate(&model, &par, shape)
                .unwrap();
            let gpu = gpu_estimator().estimate(&model, &par, shape).unwrap();
            let speedup = gpu.latency_s() / spu.latency_s();
            assert!(
                (4.0..40.0).contains(&speedup),
                "{}: inference speed-up {speedup:.1} outside band",
                model.name
            );
        }
    }

    #[test]
    fn inference_speedup_exceeds_training_speedup() {
        // The paper's key takeaway: inference benefits more than training.
        let model = ModelZoo::gpt3_76b();
        let train_par = Parallelism::new(8, 8, 1).unwrap();
        // 80 heads: 64-unit inference splits TP=16 × PP=4.
        let inf_par = Parallelism::new(16, 4, 1).unwrap();
        let shape = RequestShape::paper_io(8);

        let spu_inf = spu_estimator(16.0, 30.0)
            .estimate(&model, &inf_par, shape)
            .unwrap();
        let gpu_inf = gpu_estimator().estimate(&model, &inf_par, shape).unwrap();
        let inf_speedup = gpu_inf.latency_s() / spu_inf.latency_s();

        let blade = Blade::baseline();
        let spu_train = crate::training::TrainingEstimator::new(
            blade
                .accelerator()
                .with_dram_bandwidth(Bandwidth::from_tbps(16.0)),
            blade.interconnect(),
        )
        .estimate(&model, &train_par, 64)
        .unwrap();
        let gpus = GpuSystem::h100_cluster(64);
        let gpu_train = crate::training::TrainingEstimator::new(
            gpus.accelerator().clone(),
            gpus.fabric().clone(),
        )
        .estimate(&model, &train_par, 64)
        .unwrap();
        let train_speedup = gpu_train.total_s / spu_train.total_s;
        assert!(
            inf_speedup > train_speedup,
            "inference {inf_speedup:.1}× should exceed training {train_speedup:.1}×"
        );
    }

    #[test]
    fn kv_cache_reported() {
        let model = ModelZoo::llama_405b();
        let par = Parallelism::pure_tp(64).unwrap();
        let r = spu_estimator(16.0, 30.0)
            .estimate(&model, &par, RequestShape::paper_io(8))
            .unwrap();
        // 2·126·8·400·16384·2 ≈ 26.4 GB at the generated length.
        assert!((r.kv_cache_bytes / 1e9 - 26.4).abs() < 1.0);
    }
}
