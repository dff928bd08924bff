//! Figure 10 — latency breakdown and KV transfer times (OPT-175B,
//! ShareGPT).
//!
//! Serves the 175B chatbot workload on a DistServe placement and reports
//! (a) the aggregate share of the five lifecycle stages — prefill
//! queuing, prefill execution, transmission, decoding queuing, decoding
//! execution — and (b) the CDF of pure KV-cache transmission times.
//!
//! Paper claims: KV transmission is under 0.1% of total latency even for
//! OPT-175B; over 95% of transfers finish within 30 ms thanks to the
//! intra-node NVLink path of the low node-affinity placement.

use distserve_bench::{header, paper_cost};
use distserve_cluster::Cluster;
use distserve_core::{Application, Planner, Table};
use distserve_engine::{ServingSim, SimConfig};
use distserve_placement::alg1::SearchParams;
use distserve_placement::deploy::Deployment;
use distserve_placement::TraceSource;
use distserve_simcore::Cdf;

fn main() {
    header(
        "Figure 10",
        "latency breakdown + KV transfer CDF (OPT-175B, ShareGPT, DistServe-Low)",
        "transmission <0.1% of latency; >95% of transfers under 30 ms",
    );
    let app = Application::ChatbotOpt175B;
    let cost = paper_cost();
    let cluster = Cluster::paper_testbed();
    let arch = app.model().arch();
    let slo = app.slo();

    let mut planner = Planner::new(&cost, &cluster, arch.clone());
    planner.params = SearchParams {
        probe_requests: 128,
        probe_secs: 25.0,
        search_iters: 5,
        ..planner.params
    };
    let deployment = planner
        .plan_distserve(&app.dataset(), slo, 0.4)
        .expect("175B places via segment pairing");
    if let Deployment::Low(p) = &deployment {
        println!(
            "\nplacement: prefill {} + decode {} per unit, {} unit(s) ({} GPUs/unit)",
            p.prefill_par,
            p.decode_par,
            p.num_units,
            p.unit_gpus()
        );
    }
    let specs = planner.materialize(&deployment).expect("fits the testbed");

    // Serve at ~70% of the planned rate so queues are realistic but
    // stable.
    let trace = app.dataset().make_trace(0.4 * 0.7, 400, 10);
    let outcome = ServingSim::new(SimConfig::new(arch).with_seed(10), &cost, &cluster, specs)
        .expect("valid deployment")
        .run(&trace);

    // (a) Aggregate stage shares.
    let b = outcome.breakdown_totals();
    let total = b.total().max(1e-12);
    let mut table = Table::new(vec!["stage", "share of total latency"]);
    for (name, v) in [
        ("prefill queuing", b.prefill_queue),
        ("prefill execution", b.prefill_exec),
        ("transmission", b.transfer),
        ("decoding queuing", b.decode_queue),
        ("decoding execution", b.decode_exec),
    ] {
        table.row(vec![name.to_string(), format!("{:.3}%", v / total * 100.0)]);
    }
    print!("{}", table.render());

    // (b) Pure transmission-time CDF.
    let wire: Vec<f64> = outcome
        .records
        .iter()
        .map(|r| r.transfer_active * 1e3)
        .collect();
    let cdf = Cdf::from_samples(wire);
    println!(
        "\nKV transfer wire time (ms): P50 {:.2}, P90 {:.2}, P95 {:.2}, max {:.2}",
        cdf.quantile(0.5),
        cdf.quantile(0.9),
        cdf.quantile(0.95),
        cdf.quantile(1.0),
    );
    println!(
        "transfers under 30 ms: {:.1}% (paper: >95%)",
        cdf.at(30.0) * 100.0
    );
    println!(
        "transmission share of total latency: {:.4}% (paper: <0.1%)",
        b.transfer / total * 100.0
    );
    let att = outcome.attainment(slo.ttft, slo.tpot);
    println!("attainment at the served rate: {:.1}%", att * 100.0);
}
