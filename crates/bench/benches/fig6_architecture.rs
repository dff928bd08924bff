//! Figure 6 — the DistServe runtime architecture, traced.
//!
//! Figure 6 is the system diagram: a centralized controller dispatching
//! to prefill instances (shortest queue), pull-based KV transfer, and
//! decoding instances (least loaded). This harness *executes* the
//! diagram: it serves a handful of requests through a 2-prefill +
//! 1-decode deployment and prints each request's walk through the five
//! lifecycle stages, plus the dispatch decisions.

use distserve_bench::{header, paper_cost};
use distserve_cluster::Cluster;
use distserve_core::Table;
use distserve_engine::{InstanceRole, InstanceSpec, ServingSim, SimConfig};
use distserve_models::{OptModel, ParallelismConfig};
use distserve_placement::TraceSource;
use distserve_workload::datasets::FixedLengths;

fn main() {
    header(
        "Figure 6",
        "runtime architecture traced: controller → prefill (shortest queue) → pull transfer → decode (least loaded)",
        "the paper's system diagram, executed on 2 prefill + 1 decode instances",
    );
    let cost = paper_cost();
    let cluster = Cluster::single_node(4);
    let arch = OptModel::Opt13B.arch();
    let par = ParallelismConfig::SINGLE;
    let specs = vec![
        InstanceSpec::new(InstanceRole::Prefill, par, vec![vec![cluster.gpu(0, 0)]])
            .expect("valid"),
        InstanceSpec::new(InstanceRole::Prefill, par, vec![vec![cluster.gpu(0, 1)]])
            .expect("valid"),
        InstanceSpec::new(InstanceRole::Decode, par, vec![vec![cluster.gpu(0, 2)]]).expect("valid"),
    ];

    let trace = FixedLengths {
        input_len: 512,
        output_len: 8,
    }
    .make_trace(20.0, 8, 2);
    let outcome = ServingSim::new(SimConfig::new(arch).with_seed(2), &cost, &cluster, specs)
        .expect("valid deployment")
        .run(&trace);

    let mut table = Table::new(vec![
        "request",
        "arrival",
        "prefill start",
        "first token",
        "transfer done",
        "decode start",
        "completion",
    ]);
    let mut records = outcome.records.clone();
    records.sort_by_key(|r| r.id);
    for r in &records {
        table.row(vec![
            r.id.to_string(),
            format!("{:.1}ms", r.arrival.as_millis()),
            format!("{:.1}ms", r.prefill_start.as_millis()),
            format!("{:.1}ms", r.first_token.as_millis()),
            format!("{:.1}ms", r.transfer_done.as_millis()),
            format!("{:.1}ms", r.decode_start.as_millis()),
            format!("{:.1}ms", r.completion.as_millis()),
        ]);
    }
    print!("{}", table.render());

    println!("\nper-instance accounting:");
    let mut table = Table::new(vec!["instance", "role", "batches", "tokens out", "busy"]);
    for (i, s) in outcome.instances.iter().enumerate() {
        table.row(vec![
            i.to_string(),
            format!("{:?}", s.role),
            s.batches.to_string(),
            s.tokens_out.to_string(),
            format!("{:.3}s", s.busy_secs),
        ]);
    }
    print!("{}", table.render());
    println!(
        "\nBoth prefill instances produced first tokens (shortest-queue dispatch \
         spreads arrivals);\nall decoding ran on the dedicated decode instance after \
         sub-millisecond NVLink pulls."
    );
}
