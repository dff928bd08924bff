//! Simulator-fidelity validation (paper Table 2).
//!
//! The paper compares the planner's simulator against the real testbed
//! and reports SLO-attainment error under 2% at every rate. We reproduce
//! the comparison as idealized-vs-detailed fidelity of one engine: the
//! detailed configuration carries scheduler overhead, execution jitter,
//! and transfer launch latency the idealized planner ignores.

use distserve::cluster::Cluster;
use distserve::core::Application;
use distserve::engine::{InstanceRole, InstanceSpec, ServingSim, SimConfig};
use distserve::models::{ParallelismConfig, RooflineModel};
use distserve::placement::alg2::unit_specs;
use distserve::placement::TraceSource;

fn testbed_unit() -> (Cluster, Vec<InstanceSpec>) {
    let cluster = Cluster::paper_testbed();
    let specs = unit_specs(
        &cluster,
        ParallelismConfig::new(2, 1),
        ParallelismConfig::new(1, 1),
    )
    .unwrap();
    (cluster, specs)
}

#[test]
fn fidelity_gap_is_small_across_rates() {
    let app = Application::ChatbotOpt13B;
    let cost = RooflineModel::a100_conservative();
    let arch = app.model().arch();
    let slo = app.slo();
    let (cluster, specs) = testbed_unit();

    for rate in [1.0, 2.0, 4.0, 6.0, 8.0] {
        let trace = app.dataset().make_trace(rate, 600, 77);
        let cfg = SimConfig::new(arch.clone()).with_seed(77);
        let ideal = ServingSim::new(cfg.clone(), &cost, &cluster, specs.clone())
            .unwrap()
            .run(&trace);
        let detailed = ServingSim::new(cfg.detailed(), &cost, &cluster, specs.clone())
            .unwrap()
            .run(&trace);
        let a_ideal = ideal.attainment(slo.ttft, slo.tpot);
        let a_detailed = detailed.attainment(slo.ttft, slo.tpot);
        let gap = (a_ideal - a_detailed).abs();
        // Table 2 reports <2% on their testbed; our detailed proxy's
        // perturbations are deliberately pessimistic, and near the goodput
        // knee the attainment curve is steep, so allow 10%.
        assert!(
            gap < 0.10,
            "rate {rate}: ideal {a_ideal:.3} vs detailed {a_detailed:.3} (gap {gap:.3})"
        );
        // The detailed run can only be slower, never faster.
        assert!(
            detailed.ttft_summary().mean() >= ideal.ttft_summary().mean(),
            "detailed TTFT below ideal at rate {rate}"
        );
    }
}

#[test]
fn colocated_fidelity_gap_is_small() {
    let app = Application::ChatbotOpt13B;
    let cost = RooflineModel::a100_conservative();
    let arch = app.model().arch();
    let slo = app.slo();
    let cluster = Cluster::paper_testbed();
    let spec = InstanceSpec::new(
        InstanceRole::Colocated,
        ParallelismConfig::SINGLE,
        vec![vec![cluster.gpu(0, 0)]],
    )
    .unwrap();

    for rate in [0.5, 1.0, 1.5] {
        let trace = app.dataset().make_trace(rate, 400, 55);
        let run = |cfg: SimConfig| {
            ServingSim::new(cfg, &cost, &cluster, vec![spec.clone()])
                .unwrap()
                .run(&trace)
                .attainment(slo.ttft, slo.tpot)
        };
        let cfg = SimConfig::new(arch.clone()).with_seed(55);
        let gap = (run(cfg.clone()) - run(cfg.detailed())).abs();
        assert!(gap < 0.08, "rate {rate}: gap {gap:.3}");
    }
}

#[test]
fn detailed_jitter_is_deterministic() {
    // Even with jitter on, the same seed must reproduce identical runs —
    // the property that makes every experiment in this repo replayable.
    let app = Application::ChatbotOpt13B;
    let cost = RooflineModel::a100_conservative();
    let arch = app.model().arch();
    let (cluster, specs) = testbed_unit();
    let trace = app.dataset().make_trace(3.0, 300, 91);
    let run = || {
        let cfg = SimConfig::new(arch.clone()).with_seed(91).detailed();
        ServingSim::new(cfg, &cost, &cluster, specs.clone())
            .unwrap()
            .run(&trace)
    };
    let a = run();
    let b = run();
    assert_eq!(a.records.len(), b.records.len());
    for (x, y) in a.records.iter().zip(&b.records) {
        assert_eq!(x, y);
    }
}
