//! Quickstart: plan a DistServe placement and serve a trace.
//!
//! Plans the chatbot/OPT-13B workload (Table 1 row 1) on the paper's
//! 4×8 A100 testbed, materializes the placement, serves a synthetic
//! ShareGPT trace, and prints goodput and SLO attainment.
//!
//! Run with: `cargo run --release --example quickstart`

use distserve::cluster::Cluster;
use distserve::core::{Application, Planner, Table};
use distserve::engine::{ServingSim, SimConfig};
use distserve::models::RooflineModel;
use distserve::placement::alg1::SearchParams;
use distserve::placement::deploy::Deployment;
use distserve::placement::TraceSource;

fn main() {
    let app = Application::ChatbotOpt13B;
    let cluster = Cluster::paper_testbed();
    let cost = RooflineModel::a100_conservative();
    let arch = app.model().arch();
    let slo = app.slo();
    let dataset = app.dataset();
    let target_rate = 8.0;

    println!("== DistServe quickstart ==");
    println!("model    : {}", arch.name);
    println!(
        "cluster  : {}x{} A100-80G, 25 Gbps cross-node",
        cluster.num_nodes(),
        cluster.gpus_per_node()
    );
    println!("workload : {} @ {target_rate} rps", dataset.name());
    println!(
        "SLO      : TTFT {:.3}s, TPOT {:.3}s, target {:.0}%",
        slo.ttft,
        slo.tpot,
        slo.target * 100.0
    );
    println!();

    // Plan (the cluster is low-affinity, so this runs Algorithm 2).
    let mut planner = Planner::new(&cost, &cluster, arch.clone());
    planner.params = SearchParams {
        probe_requests: 384,
        search_iters: 6,
        ..planner.params
    };
    let deployment = planner
        .plan_distserve(&dataset, slo, target_rate)
        .expect("13B chatbot is plannable on the testbed");
    if let Deployment::Low(ref p) = deployment {
        println!(
            "placement: prefill {} + decode {} per unit, {} unit(s), unit goodput {:.2} rps",
            p.prefill_par, p.decode_par, p.num_units, p.unit_goodput
        );
        println!("per-GPU goodput: {:.3} rps/GPU", p.per_gpu_goodput());
    }

    // Serve a 500-request trace at the target rate.
    let specs = planner
        .materialize(&deployment)
        .expect("cluster has capacity");
    let trace = dataset.make_trace(target_rate, 500, 7);
    let outcome = ServingSim::new(SimConfig::new(arch).with_seed(7), &cost, &cluster, specs)
        .expect("deployment is valid")
        .run(&trace);

    println!();
    let mut table = Table::new(vec!["metric", "value"]);
    table.row(vec![
        "SLO attainment".into(),
        format!("{:.1}%", outcome.attainment(slo.ttft, slo.tpot) * 100.0),
    ]);
    table.row(vec![
        "P90 TTFT".into(),
        format!("{:.3}s", outcome.ttft_summary().percentile(0.9)),
    ]);
    table.row(vec![
        "P90 TPOT".into(),
        format!("{:.4}s", outcome.tpot_summary().percentile(0.9)),
    ]);
    table.row(vec![
        "requests served".into(),
        outcome.records.len().to_string(),
    ]);
    table.row(vec!["makespan".into(), format!("{}", outcome.makespan)]);
    print!("{}", table.render());
}
