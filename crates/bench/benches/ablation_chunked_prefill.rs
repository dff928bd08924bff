//! Extension ablation — chunked prefill (SARATHI [8]) vs alternation vs
//! disaggregation.
//!
//! §2.2: "An advanced variant of continuous batching attempts to balance
//! TTFT and TPOT by segmenting prefill and attaching decoding jobs ...
//! but essentially, it trades TTFT for TPOT. In summary, batching prefill
//! and decoding invariably leads to compromises in either TTFT or TPOT."
//!
//! We serve the same ShareGPT trace through (a) the vLLM-style
//! alternating colocated engine, (b) the same engine with chunked prefill
//! at two chunk sizes, and (c) a 2-GPU DistServe pair, and report both
//! tails. Expectation: chunking lowers TPOT (decodes ride along every
//! step) and raises TTFT (prompts take several steps); only
//! disaggregation improves both.

use distserve_bench::{header, paper_cost};
use distserve_cluster::Cluster;
use distserve_core::Table;
use distserve_engine::{ColocatedPolicy, InstanceRole, InstanceSpec, ServingSim, SimConfig};
use distserve_models::{OptModel, ParallelismConfig};
use distserve_placement::TraceSource;
use distserve_workload::Dataset;

fn main() {
    header(
        "Ablation: chunked prefill",
        "TTFT/TPOT trade-off: alternation vs SARATHI-style chunking vs disaggregation (OPT-13B, ShareGPT)",
        "§2.2: chunked prefill 'essentially trades TTFT for TPOT'; colocation compromises one or the other",
    );
    let cost = paper_cost();
    let cluster = Cluster::single_node(4);
    let arch = OptModel::Opt13B.arch();
    let rate_per_gpu = 1.6;

    let coloc = |chunk: Option<u32>| -> Vec<InstanceSpec> {
        vec![InstanceSpec::new(
            InstanceRole::Colocated,
            ParallelismConfig::SINGLE,
            vec![vec![cluster.gpu(0, 0)]],
        )
        .expect("valid")
        .with_policy(ColocatedPolicy {
            prefill_token_budget: 2048,
            chunked_prefill: chunk,
        })]
    };
    let disagg = vec![
        InstanceSpec::new(
            InstanceRole::Prefill,
            ParallelismConfig::SINGLE,
            vec![vec![cluster.gpu(0, 0)]],
        )
        .expect("valid"),
        InstanceSpec::new(
            InstanceRole::Decode,
            ParallelismConfig::SINGLE,
            vec![vec![cluster.gpu(0, 1)]],
        )
        .expect("valid"),
    ];

    let systems: Vec<(&str, Vec<InstanceSpec>)> = vec![
        ("vLLM (alternating)", coloc(None)),
        ("chunked, 512-tok chunks", coloc(Some(512))),
        ("chunked, 256-tok chunks", coloc(Some(256))),
        ("DistServe 1P+1D", disagg),
    ];

    let mut table = Table::new(vec![
        "system",
        "GPUs",
        "P50 TTFT",
        "P90 TTFT",
        "P50 TPOT",
        "P90 TPOT",
        "attainment (0.2/0.1)",
    ]);
    for (name, specs) in systems {
        let gpus: u32 = specs.iter().map(InstanceSpec::num_gpus).sum();
        let rate = rate_per_gpu * f64::from(gpus);
        let trace = Dataset::ShareGpt.make_trace(rate, ((rate * 60.0) as usize).max(400), 17);
        let cfg = SimConfig::new(arch.clone()).with_seed(17);
        let out = ServingSim::new(cfg, &cost, &cluster, specs)
            .expect("valid deployment")
            .run(&trace);
        table.row(vec![
            name.to_string(),
            gpus.to_string(),
            format!("{:.3}s", out.ttft_summary().percentile(0.5)),
            format!("{:.3}s", out.ttft_summary().percentile(0.9)),
            format!("{:.4}s", out.tpot_summary().percentile(0.5)),
            format!("{:.4}s", out.tpot_summary().percentile(0.9)),
            format!("{:.2}", out.attainment(0.2, 0.1)),
        ]);
    }
    print!("{}", table.render());
    println!(
        "\nAll systems serve {rate_per_gpu} rps/GPU. Chunking shifts latency from TPOT \
         to TTFT (smaller chunks shift more);\ndisaggregation is the only option that \
         improves the first-token tail without paying on the decode side."
    );
}
