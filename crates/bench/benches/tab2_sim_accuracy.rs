//! Table 2 — simulator accuracy.
//!
//! The paper compares SLO attainment reported by its planner simulator
//! against the real testbed for vLLM and DistServe-Low across rates and
//! finds errors under 2%. We reproduce the comparison as two fidelity
//! levels of one engine: the *calibrated* planner configuration (knows
//! the real system's mean overheads, as the paper's profiled simulator
//! did) versus the *detailed* "real system" proxy (adds execution
//! jitter on top).

use distserve_bench::{header, paper_cost};
use distserve_cluster::Cluster;
use distserve_core::{Application, Table};
use distserve_engine::{FidelityConfig, InstanceRole, InstanceSpec, ServingSim, SimConfig};
use distserve_models::ParallelismConfig;
use distserve_placement::alg2::unit_specs;
use distserve_placement::TraceSource;

fn main() {
    header(
        "Table 2",
        "SLO attainment: calibrated planner simulator vs detailed 'real system' proxy (OPT-13B, ShareGPT)",
        "simulator error < 2% at every rate",
    );
    let app = Application::ChatbotOpt13B;
    let cost = paper_cost();
    let cluster = Cluster::paper_testbed();
    let arch = app.model().arch();
    let slo = app.slo();

    let vllm_spec = InstanceSpec::new(
        InstanceRole::Colocated,
        ParallelismConfig::SINGLE,
        vec![vec![cluster.gpu(0, 0)]],
    )
    .expect("valid");
    let ds_specs = unit_specs(
        &cluster,
        ParallelismConfig::new(2, 1),
        ParallelismConfig::new(1, 1),
    )
    .expect("fits");

    let attain = |specs: Vec<InstanceSpec>, rate: f64, fid: FidelityConfig| {
        let n = ((rate * 90.0) as usize).max(300);
        let trace = app.dataset().make_trace(rate, n, 42);
        let cfg = SimConfig {
            fidelity: fid,
            ..SimConfig::new(arch.clone()).with_seed(42)
        };
        ServingSim::new(cfg, &cost, &cluster, specs)
            .expect("valid deployment")
            .run(&trace)
            .attainment(slo.ttft, slo.tpot)
    };

    let mut table = Table::new(vec![
        "rate (rps)",
        "vLLM detailed",
        "vLLM simulator",
        "err",
        "Dist-Low detailed",
        "Dist-Low simulator",
        "err",
    ]);
    let mut worst: f64 = 0.0;
    for rate in [1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0] {
        let v_real = attain(vec![vllm_spec.clone()], rate, FidelityConfig::detailed());
        let v_sim = attain(vec![vllm_spec.clone()], rate, FidelityConfig::calibrated());
        let d_real = attain(ds_specs.clone(), rate, FidelityConfig::detailed());
        let d_sim = attain(ds_specs.clone(), rate, FidelityConfig::calibrated());
        worst = worst
            .max((v_real - v_sim).abs())
            .max((d_real - d_sim).abs());
        table.row(vec![
            format!("{rate:.1}"),
            format!("{:.1}%", v_real * 100.0),
            format!("{:.1}%", v_sim * 100.0),
            format!("{:.1}", (v_sim - v_real).abs() * 100.0),
            format!("{:.1}%", d_real * 100.0),
            format!("{:.1}%", d_sim * 100.0),
            format!("{:.1}", (d_sim - d_real).abs() * 100.0),
        ]);
    }
    print!("{}", table.render());
    println!(
        "\nworst-case attainment error: {:.1} percentage points (paper: <2)",
        worst * 100.0
    );
}
