//! End-to-end integration: plan → materialize → serve, across systems.

use distserve::cluster::Cluster;
use distserve::core::{rate_sweep, Application, Planner};
use distserve::engine::{InstanceSpec, ServingSim, SimConfig};
use distserve::models::RooflineModel;
use distserve::placement::alg1::SearchParams;
use distserve::placement::deploy::Deployment;
use distserve::placement::goodput::{max_goodput, probe_count_with};
use distserve::placement::TraceSource;

/// Per-GPU goodput of a fixed deployment measured with the full
/// simulator: the largest per-GPU rate whose attainment meets the target.
fn per_gpu_goodput(
    cost: &RooflineModel,
    cluster: &Cluster,
    app: Application,
    specs: &[InstanceSpec],
) -> f64 {
    let arch = app.model().arch();
    let slo = app.slo();
    let gpus: u32 = specs.iter().map(InstanceSpec::num_gpus).sum();
    let total = max_goodput(
        |rate| {
            let n = probe_count_with(rate, 200, 60.0);
            let trace = app.dataset().make_trace(rate, n, 13);
            let cfg = SimConfig::new(arch.clone()).with_seed(13);
            ServingSim::new(cfg, cost, cluster, specs.to_vec())
                .map(|sim| sim.run(&trace).attainment(slo.ttft, slo.tpot))
                .unwrap_or(0.0)
        },
        slo.target,
        0.5,
        6,
    );
    total / f64::from(gpus)
}

fn quick_params() -> SearchParams {
    SearchParams {
        max_tp: 4,
        max_pp: 2,
        probe_requests: 256,
        probe_secs: 60.0,
        search_iters: 6,
        ..SearchParams::default()
    }
}

#[test]
fn chatbot_13b_full_pipeline() {
    let app = Application::ChatbotOpt13B;
    let cluster = Cluster::paper_testbed();
    let cost = RooflineModel::a100_conservative();
    let arch = app.model().arch();
    let slo = app.slo();

    let mut planner = Planner::new(&cost, &cluster, arch.clone());
    planner.params = quick_params();
    let deployment = planner
        .plan_distserve(&app.dataset(), slo, 8.0)
        .expect("13B chatbot plans");
    let specs = planner.materialize(&deployment).expect("fits the testbed");

    // The materialized deployment must carry 80% of the planned rate
    // within SLO (planning probes are coarse, so operators run with
    // headroom — §4.3's replanning absorbs drift).
    let trace = app.dataset().make_trace(8.0 * 0.8, 400, 21);
    let outcome = ServingSim::new(SimConfig::new(arch).with_seed(21), &cost, &cluster, specs)
        .expect("valid deployment")
        .run(&trace);
    assert_eq!(outcome.records.len(), 400);
    let att = outcome.attainment(slo.ttft, slo.tpot);
    assert!(att >= 0.85, "planned deployment attains only {att}");

    // Every record's timeline must be ordered and self-consistent.
    for r in &outcome.records {
        assert!(r.prefill_start >= r.arrival);
        assert!(r.first_token >= r.prefill_start);
        assert!(r.transfer_done >= r.first_token);
        assert!(r.decode_start >= r.transfer_done);
        assert!(r.completion >= r.decode_start);
        let b = r.breakdown();
        assert!((b.total() - r.total_latency()).abs() < 1e-9);
    }
}

#[test]
fn disaggregation_dominates_colocation_latency() {
    // The paper's core claim (Figures 1 and 8), asserted as tail-latency
    // dominance at a matched per-GPU rate: disaggregation removes the
    // prefill-decoding interference, so both P90 TTFT and P90 TPOT are
    // lower than the colocated baseline's. (Goodput *factors* are noisy
    // near flat attainment curves; the figure harnesses report them.)
    let app = Application::ChatbotOpt13B;
    let cluster = Cluster::paper_testbed();
    let cost = RooflineModel::a100_conservative();
    let arch = app.model().arch();
    let slo = app.slo();

    let mut planner = Planner::new(&cost, &cluster, arch.clone());
    planner.params = quick_params();

    let distserve = planner
        .plan_distserve(&app.dataset(), slo, 8.0)
        .expect("plans");
    let ds_specs = planner.materialize(&distserve).expect("fits");
    let ds_gpus: u32 = ds_specs.iter().map(InstanceSpec::num_gpus).sum();
    let vllm = planner.plan_vllm(app.vllm_parallelism(), 1).expect("valid");
    let vllm_specs = planner.materialize(&vllm).expect("fits");

    // A per-GPU rate where the colocated baseline is pressured but not
    // collapsed.
    let per_gpu_rate = 1.5;
    let run = |specs: Vec<InstanceSpec>, gpus: u32, seed: u64| {
        let rate = per_gpu_rate * f64::from(gpus);
        let trace = app
            .dataset()
            .make_trace(rate, ((rate * 60.0) as usize).max(300), seed);
        let cfg = SimConfig::new(arch.clone()).with_seed(seed);
        ServingSim::new(cfg, &cost, &cluster, specs)
            .expect("valid deployment")
            .run(&trace)
    };
    for seed in [13u64, 14, 15] {
        let ds = run(ds_specs.clone(), ds_gpus, seed);
        let vl = run(vllm_specs.clone(), 1, seed);
        // Interference removal shows directly in the first token: the
        // dedicated prefill instances keep tail TTFT below the colocated
        // baseline's.
        let ds_ttft = ds.ttft_summary().percentile(0.9);
        let vl_ttft = vl.ttft_summary().percentile(0.9);
        assert!(
            ds_ttft < vl_ttft,
            "seed {seed}: DS P90 TTFT {ds_ttft:.3} !< vLLM {vl_ttft:.3}"
        );
        // Decoding batches *up to* the TPOT SLO (that is the point of the
        // dedicated decode instance): raw TPOT may exceed the lightly
        // loaded baseline's, but it must respect the SLO.
        let ds_tpot = ds.tpot_summary().percentile(0.9);
        assert!(
            ds_tpot <= slo.tpot,
            "seed {seed}: DS P90 TPOT {ds_tpot:.4} > SLO {:.4}",
            slo.tpot
        );
        // And the joint SLO attainment never regresses vs the baseline.
        let a_ds = ds.attainment(slo.ttft, slo.tpot);
        let a_vl = vl.attainment(slo.ttft, slo.tpot);
        assert!(
            a_ds >= a_vl - 0.02,
            "seed {seed}: DS attainment {a_ds:.3} below vLLM {a_vl:.3}"
        );
    }
}

#[test]
fn summarization_shows_large_factor() {
    // §6.2: the long-prompt workload is where colocation hurts most —
    // vLLM's TPOT attainment collapses while DistServe's holds.
    let app = Application::SummarizationOpt66B;
    let cluster = Cluster::paper_testbed();
    let cost = RooflineModel::a100_conservative();
    let arch = app.model().arch();
    let slo = app.slo();

    let mut planner = Planner::new(&cost, &cluster, arch.clone());
    planner.params = quick_params();

    let vllm = planner.plan_vllm(app.vllm_parallelism(), 1).expect("valid");
    let vllm_specs = planner.materialize(&vllm).expect("fits");
    let g_vl = per_gpu_goodput(&cost, &cluster, app, &vllm_specs);

    let distserve = planner
        .plan_distserve(&app.dataset(), slo, g_vl * 8.0)
        .expect("plans");
    let ds_specs = planner.materialize(&distserve).expect("fits");
    let g_ds = per_gpu_goodput(&cost, &cluster, app, &ds_specs);

    // §6.2 reports 4.48x on this workload; our synthetic LongBench and
    // calibrated engine land a smaller but clear win (~1.5x, see
    // EXPERIMENTS.md).
    assert!(
        g_ds > 1.3 * g_vl,
        "DistServe {g_ds:.3} rps/GPU vs vLLM {g_vl:.3} rps/GPU"
    );

    // And vLLM's failure past its knee is TPOT-driven (decoding starved
    // by long prefills).
    let pts = rate_sweep(
        &cost,
        &cluster,
        &arch,
        &vllm_specs,
        &app.dataset(),
        slo,
        &[g_vl * 2.0],
        300,
        9,
    )
    .unwrap();
    assert!(
        pts[0].tpot_attainment < 0.9,
        "expected vLLM TPOT collapse past the knee, got {}",
        pts[0].tpot_attainment
    );
}

#[test]
fn high_affinity_plan_on_ib_cluster() {
    // On an InfiniBand cluster the planner uses Algorithm 1 and the
    // resulting cross-node-capable deployment still meets its SLOs.
    let app = Application::ChatbotOpt13B;
    let cluster = Cluster::high_affinity(4, 8);
    let cost = RooflineModel::a100_conservative();
    let arch = app.model().arch();
    let slo = app.slo();

    let mut planner = Planner::new(&cost, &cluster, arch.clone());
    planner.params = quick_params();
    let deployment = planner
        .plan_distserve(&app.dataset(), slo, 6.0)
        .expect("plans");
    assert!(matches!(deployment, Deployment::High(_)));
    let specs = planner.materialize(&deployment).expect("fits");
    // Serve with 20% headroom below the planned rate.
    let trace = app.dataset().make_trace(6.0 * 0.8, 300, 33);
    let outcome = ServingSim::new(SimConfig::new(arch).with_seed(33), &cost, &cluster, specs)
        .unwrap()
        .run(&trace);
    let att = outcome.attainment(slo.ttft, slo.tpot);
    assert!(att >= 0.8, "attainment {att}");
}

/// Golden replay gate: a routed run's decision log is serialized JSON;
/// this fixture pins the exact decisions for a fixed (config, trace,
/// seed) triple, and re-running from the fixture must reproduce the
/// live outcome record-for-record. Regenerate deliberately with
/// `UPDATE_GOLDEN=1 cargo test --test end_to_end golden_replay` after
/// any intentional routing change.
#[test]
fn golden_replay_fixture_reproduces_routed_run() {
    use distserve::models::{OptModel, ParallelismConfig};
    use distserve::router::{log_from_json, log_to_json, RouterPolicy};
    use distserve::workload::Dataset;

    let cost = RooflineModel::a100();
    let cluster = Cluster::single_node(4);
    let arch = OptModel::Opt13B.arch();
    let planner = Planner::new(&cost, &cluster, arch.clone());
    let plan = planner
        .plan_vllm(ParallelismConfig::SINGLE, 2)
        .expect("plans");
    let specs = planner.materialize(&plan).expect("fits");
    let trace = Dataset::ShareGpt.make_trace(3.0, 40, 21);

    let cfg = SimConfig::new(arch).with_seed(21);
    let (live, log) = ServingSim::new_routed(
        cfg.clone(),
        &cost,
        &cluster,
        specs.clone(),
        RouterPolicy::default(),
    )
    .expect("routed topology")
    .run_logged(&trace)
    .expect("routed run");
    let json = log_to_json(&log).expect("serializes");

    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/router_replay.golden.json"
    );
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(path, &json).expect("write fixture");
    }
    let golden = std::fs::read_to_string(path).expect("fixture exists");
    assert_eq!(
        json, golden,
        "decision log drifted from the golden fixture; if the routing \
         change is intentional, regenerate with UPDATE_GOLDEN=1"
    );

    let fixture_log = log_from_json(&golden).expect("fixture parses");
    let (replayed, replay_log) =
        ServingSim::new_replayed(cfg, &cost, &cluster, specs, &fixture_log)
            .expect("fixture fits the fleet")
            .run_logged(&trace)
            .expect("replayed run");
    assert_eq!(replayed.records, live.records, "byte-identical outcome");
    assert_eq!(replayed.rejected, live.rejected);
    assert_eq!(replayed.failed, live.failed);
    assert_eq!(replayed.makespan, live.makespan);
    assert_eq!(replay_log, fixture_log, "replay re-emits the golden log");
}
