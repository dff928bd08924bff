//! Planning and end-to-end serving.
//!
//! [`Planner`] wraps the placement algorithms behind one interface and
//! picks Algorithm 1 or 2 from the cluster's affinity (§4). The sweep
//! helpers drive Figures 8, 9, and 11: serve a trace at each per-GPU rate
//! (or SLO scale) and report SLO attainment, including the TTFT-only and
//! TPOT-only curves the paper plots as dotted/dashed lines.

use distserve_cluster::Cluster;
use distserve_engine::{InstanceSpec, ServingSim, SimConfig};
use distserve_models::{CostModel, DType, ModelArch, ParallelismConfig};
use distserve_placement::alg1::SearchParams;
use distserve_placement::deploy::Deployment;
use distserve_placement::goodput::probe_count;
use distserve_placement::vllm_pp::ColocPlacement;
use distserve_placement::{
    high_affinity_placement, low_affinity_placement, materialize, vllm_plus_plus, SloSpec,
    TraceSource,
};

/// Plans placements for one model on one cluster.
pub struct Planner<'a> {
    /// Batch cost model.
    pub cost: &'a dyn CostModel,
    /// Target cluster.
    pub cluster: &'a Cluster,
    /// Served model.
    pub arch: ModelArch,
    /// Precision.
    pub dtype: DType,
    /// Search knobs.
    pub params: SearchParams,
}

impl<'a> Planner<'a> {
    /// Creates a planner with default search parameters sized to the
    /// cluster (`max_tp` = GPUs per node, `max_pp` = node count).
    #[must_use]
    pub fn new(cost: &'a dyn CostModel, cluster: &'a Cluster, arch: ModelArch) -> Self {
        let params = SearchParams {
            max_tp: cluster.gpus_per_node(),
            max_pp: cluster.num_nodes().min(4),
            ..SearchParams::default()
        };
        Planner {
            cost,
            cluster,
            arch,
            dtype: DType::F16,
            params,
        }
    }

    /// Plans a DistServe placement, choosing the algorithm by cluster
    /// affinity: Algorithm 1 when cross-node bandwidth suffices,
    /// Algorithm 2 otherwise (§4).
    ///
    /// # Errors
    ///
    /// Returns a message when no legal placement exists.
    pub fn plan_distserve(
        &self,
        source: &dyn TraceSource,
        slo: SloSpec,
        rate: f64,
    ) -> Result<Deployment, String> {
        if self.cluster.is_high_affinity() {
            self.plan_distserve_high(source, slo, rate)
        } else {
            self.plan_distserve_low(source, slo, rate)
        }
    }

    /// Plans with Algorithm 1 regardless of cluster affinity (the
    /// "DistServe-High" ablation arm).
    ///
    /// # Errors
    ///
    /// Returns a message when no legal placement exists.
    pub fn plan_distserve_high(
        &self,
        source: &dyn TraceSource,
        slo: SloSpec,
        rate: f64,
    ) -> Result<Deployment, String> {
        high_affinity_placement(
            self.cost,
            self.cluster.gpu_spec(),
            &self.arch,
            self.dtype,
            source,
            slo,
            rate,
            &self.params,
        )
        .map(Deployment::High)
        .ok_or_else(|| format!("no feasible high-affinity placement for {}", self.arch.name))
    }

    /// Plans with Algorithm 2 (the "DistServe-Low" arm and the default on
    /// the paper's 25 Gbps testbed).
    ///
    /// # Errors
    ///
    /// Returns a message when no legal placement exists.
    pub fn plan_distserve_low(
        &self,
        source: &dyn TraceSource,
        slo: SloSpec,
        rate: f64,
    ) -> Result<Deployment, String> {
        low_affinity_placement(
            self.cost,
            self.cluster,
            &self.arch,
            self.dtype,
            source,
            slo,
            rate,
            &self.params,
        )
        .map(Deployment::Low)
        .ok_or_else(|| format!("no feasible low-affinity placement for {}", self.arch.name))
    }

    /// Builds the plain-vLLM baseline deployment at a fixed parallelism
    /// (§6.1's defaults), with enough replicas for `rate` assuming each
    /// replica sustains `per_replica_goodput`.
    ///
    /// # Errors
    ///
    /// Returns a message when the config is invalid for the model.
    pub fn plan_vllm(
        &self,
        par: ParallelismConfig,
        num_replicas: u32,
    ) -> Result<Deployment, String> {
        par.validate_memory(&self.arch, self.cluster.gpu_spec(), self.dtype)
            .map_err(|e| e.to_string())?;
        Ok(Deployment::Coloc(ColocPlacement {
            par,
            goodput: 0.0,
            num_replicas,
        }))
    }

    /// Runs the vLLM++ parallelism search (Figure 11).
    ///
    /// # Errors
    ///
    /// Returns a message when no colocated config fits.
    pub fn plan_vllm_plus_plus(
        &self,
        source: &dyn TraceSource,
        slo: SloSpec,
        rate: f64,
    ) -> Result<Deployment, String> {
        vllm_plus_plus(
            self.cost,
            self.cluster,
            &self.arch,
            self.dtype,
            source,
            slo,
            rate,
            &self.params,
        )
        .map(Deployment::Coloc)
        .ok_or_else(|| format!("no feasible colocated placement for {}", self.arch.name))
    }

    /// Materializes a deployment onto the cluster.
    ///
    /// # Errors
    ///
    /// Returns a message when the cluster lacks the required GPUs.
    pub fn materialize(&self, deployment: &Deployment) -> Result<Vec<InstanceSpec>, String> {
        materialize(self.cluster, deployment)
    }
}

/// One point of a rate or SLO-scale sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepPoint {
    /// The swept variable: per-GPU request rate (Figures 8/9 row 1) or
    /// SLO scale (row 2).
    pub x: f64,
    /// Fraction meeting both SLOs.
    pub attainment: f64,
    /// Fraction meeting only TTFT.
    pub ttft_attainment: f64,
    /// Fraction meeting only TPOT.
    pub tpot_attainment: f64,
}

/// Sweeps per-GPU request rates for a fixed deployment (Figures 8/9, row
/// one). Total rate = per-GPU rate × GPUs in the deployment.
///
/// # Errors
///
/// Propagates simulator construction failures.
#[allow(clippy::too_many_arguments)]
pub fn rate_sweep(
    cost: &dyn CostModel,
    cluster: &Cluster,
    arch: &ModelArch,
    specs: &[InstanceSpec],
    source: &dyn TraceSource,
    slo: SloSpec,
    per_gpu_rates: &[f64],
    probe_requests: usize,
    seed: u64,
) -> Result<Vec<SweepPoint>, String> {
    let gpus: u32 = specs.iter().map(InstanceSpec::num_gpus).sum();
    let mut out = Vec::with_capacity(per_gpu_rates.len());
    for &r in per_gpu_rates {
        let total_rate = r * f64::from(gpus);
        let n = probe_count(total_rate, probe_requests);
        let trace = source.make_trace(total_rate, n, seed);
        let cfg = SimConfig::new(arch.clone()).with_seed(seed);
        let outcome = ServingSim::new(cfg, cost, cluster, specs.to_vec())?.run(&trace);
        out.push(SweepPoint {
            x: r,
            attainment: outcome.attainment(slo.ttft, slo.tpot),
            ttft_attainment: outcome.ttft_attainment(slo.ttft),
            tpot_attainment: outcome.tpot_attainment(slo.tpot),
        });
    }
    Ok(out)
}

/// Sweeps the SLO scale at a fixed rate (Figures 8/9, row two): scale < 1
/// tightens both SLOs.
///
/// # Errors
///
/// Propagates simulator construction failures.
#[allow(clippy::too_many_arguments)]
pub fn slo_scale_sweep(
    cost: &dyn CostModel,
    cluster: &Cluster,
    arch: &ModelArch,
    specs: &[InstanceSpec],
    source: &dyn TraceSource,
    base_slo: SloSpec,
    per_gpu_rate: f64,
    scales: &[f64],
    probe_requests: usize,
    seed: u64,
) -> Result<Vec<SweepPoint>, String> {
    let gpus: u32 = specs.iter().map(InstanceSpec::num_gpus).sum();
    let total_rate = per_gpu_rate * f64::from(gpus);
    let trace = source.make_trace(total_rate, probe_count(total_rate, probe_requests), seed);
    let cfg = SimConfig::new(arch.clone()).with_seed(seed);
    let outcome = ServingSim::new(cfg, cost, cluster, specs.to_vec())?.run(&trace);
    Ok(scales
        .iter()
        .map(|&s| {
            let slo = base_slo.scaled(s);
            SweepPoint {
                x: s,
                attainment: outcome.attainment(slo.ttft, slo.tpot),
                ttft_attainment: outcome.ttft_attainment(slo.ttft),
                tpot_attainment: outcome.tpot_attainment(slo.tpot),
            }
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use distserve_models::{OptModel, RooflineModel};
    use distserve_workload::datasets::FixedLengths;

    fn quick_params() -> SearchParams {
        SearchParams {
            max_tp: 2,
            max_pp: 2,
            probe_requests: 64,
            probe_secs: 12.0,
            search_iters: 4,
            threads: 4,
            seed: 0,
        }
    }

    fn source() -> FixedLengths {
        FixedLengths {
            input_len: 512,
            output_len: 64,
        }
    }

    #[test]
    fn planner_picks_algorithm_by_affinity() {
        let cost = RooflineModel::a100();
        let arch = OptModel::Opt13B.arch();
        let slo = SloSpec::new(0.25, 0.1);

        let low_cluster = Cluster::paper_testbed();
        let mut planner = Planner::new(&cost, &low_cluster, arch.clone());
        planner.params = quick_params();
        let d = planner.plan_distserve(&source(), slo, 4.0).unwrap();
        assert!(matches!(d, Deployment::Low(_)));

        let high_cluster = Cluster::high_affinity(4, 8);
        let mut planner = Planner::new(&cost, &high_cluster, arch);
        planner.params = quick_params();
        let d = planner.plan_distserve(&source(), slo, 4.0).unwrap();
        assert!(matches!(d, Deployment::High(_)));
    }

    #[test]
    fn end_to_end_plan_and_serve() {
        let cost = RooflineModel::a100();
        let cluster = Cluster::paper_testbed();
        let arch = OptModel::Opt13B.arch();
        let slo = SloSpec::new(0.25, 0.1);
        let mut planner = Planner::new(&cost, &cluster, arch.clone());
        planner.params = quick_params();
        let deployment = planner.plan_distserve(&source(), slo, 6.0).unwrap();
        let specs = planner.materialize(&deployment).unwrap();
        let trace = source().make_trace(6.0, 100, 1);
        let cfg = SimConfig::new(arch).with_seed(1);
        let outcome = ServingSim::new(cfg, &cost, &cluster, specs)
            .unwrap()
            .run(&trace);
        assert_eq!(outcome.records.len(), 100);
        // The plan was sized for 6 rps: attainment should be high.
        let att = outcome.attainment(slo.ttft, slo.tpot);
        assert!(att >= 0.85, "attainment {att}");
    }

    #[test]
    fn rate_sweep_monotone_decreasing() {
        let cost = RooflineModel::a100();
        let cluster = Cluster::single_node(2);
        let arch = OptModel::Opt13B.arch();
        let slo = SloSpec::new(0.2, 0.1);
        let planner = Planner::new(&cost, &cluster, arch.clone());
        let vllm = planner.plan_vllm(ParallelismConfig::SINGLE, 1).unwrap();
        let specs = planner.materialize(&vllm).unwrap();
        let points = rate_sweep(
            &cost,
            &cluster,
            &arch,
            &specs,
            &source(),
            slo,
            &[0.5, 2.0, 8.0],
            96,
            0,
        )
        .unwrap();
        assert_eq!(points.len(), 3);
        assert!(points[0].attainment >= points[2].attainment);
        // Attainment of the joint SLO can never exceed either marginal.
        for p in &points {
            assert!(p.attainment <= p.ttft_attainment + 1e-12);
            assert!(p.attainment <= p.tpot_attainment + 1e-12);
        }
    }

    #[test]
    fn slo_scale_sweep_monotone_increasing() {
        let cost = RooflineModel::a100();
        let cluster = Cluster::single_node(2);
        let arch = OptModel::Opt13B.arch();
        let slo = SloSpec::new(0.2, 0.1);
        let planner = Planner::new(&cost, &cluster, arch.clone());
        let vllm = planner.plan_vllm(ParallelismConfig::SINGLE, 1).unwrap();
        let specs = planner.materialize(&vllm).unwrap();
        let points = slo_scale_sweep(
            &cost,
            &cluster,
            &arch,
            &specs,
            &source(),
            slo,
            1.0,
            &[0.4, 1.0, 2.0],
            96,
            0,
        )
        .unwrap();
        // Looser SLO (larger scale) ⇒ higher attainment.
        assert!(points[0].attainment <= points[1].attainment);
        assert!(points[1].attainment <= points[2].attainment);
    }

    #[test]
    fn serving_with_sink_records_lifecycles() {
        let cost = RooflineModel::a100();
        let cluster = Cluster::single_node(2);
        let arch = OptModel::Opt13B.arch();
        let planner = Planner::new(&cost, &cluster, arch.clone());
        let vllm = planner.plan_vllm(ParallelismConfig::SINGLE, 1).unwrap();
        let specs = planner.materialize(&vllm).unwrap();
        let trace = source().make_trace(2.0, 40, 3);
        let rec = distserve_telemetry::Recorder::new();
        let cfg = SimConfig::new(arch).with_seed(3);
        let outcome = ServingSim::new(cfg, &cost, &cluster, specs)
            .unwrap()
            .with_sink(&rec)
            .run(&trace);
        assert_eq!(outcome.records.len(), 40);
        let snap = rec.snapshot();
        assert_eq!(snap.lifecycles().len(), 40);
        for lc in snap.lifecycles().values() {
            lc.validate().unwrap();
        }
        assert!(!snap.slices.is_empty());
        // The exporters work off a full serve: the trace JSON carries at
        // least one slice for the instance.
        assert!(snap.perfetto_json().contains("\"ph\":\"X\""));
    }

    #[test]
    fn routed_sim_records_same_telemetry_shape_and_replays() {
        let cost = RooflineModel::a100();
        let cluster = Cluster::single_node(4);
        let arch = OptModel::Opt13B.arch();
        let planner = Planner::new(&cost, &cluster, arch.clone());
        let vllm = planner.plan_vllm(ParallelismConfig::SINGLE, 2).unwrap();
        let specs = planner.materialize(&vllm).unwrap();
        let trace = source().make_trace(3.0, 60, 5);
        let rec = distserve_telemetry::Recorder::new();
        let cfg = SimConfig::new(arch).with_seed(5);
        let policy = distserve_router::RouterPolicy::default();
        let (outcome, log) =
            ServingSim::new_routed(cfg.clone(), &cost, &cluster, specs.clone(), policy)
                .unwrap()
                .with_sink(&rec)
                .run_logged(&trace)
                .unwrap();
        assert_eq!(outcome.records.len() + outcome.rejected.len(), 60);
        // Routed runs feed the same lifecycle stream as direct runs.
        let snap = rec.snapshot();
        assert_eq!(snap.lifecycles().len(), 60);
        for lc in snap.lifecycles().values() {
            lc.validate().unwrap();
        }
        // And the log replays to the identical outcome.
        let (replayed, _) = ServingSim::new_replayed(cfg, &cost, &cluster, specs, &log)
            .unwrap()
            .run_logged(&trace)
            .unwrap();
        assert_eq!(outcome.records, replayed.records);
        assert_eq!(outcome.rejected, replayed.rejected);
    }

    #[test]
    fn vllm_plan_rejects_oversized_model() {
        let cost = RooflineModel::a100();
        let cluster = Cluster::paper_testbed();
        let planner = Planner::new(&cost, &cluster, OptModel::Opt175B.arch());
        assert!(planner.plan_vllm(ParallelismConfig::SINGLE, 1).is_err());
        assert!(planner.plan_vllm(ParallelismConfig::new(8, 1), 1).is_ok());
    }
}
