//! Figure 1 — prefill-decoding interference on one GPU.
//!
//! Serves OPT-13B with input length 512 and output length 64 on a single
//! A100 and reports P90 TTFT / P90 TPOT versus rate for (a) the colocated
//! system, (b) a system serving only the prefill phase, and (c) a system
//! serving only the decoding phase, plus the goodput each achieves at
//! 90% attainment and the 2-prefill+1-decode disaggregated combination
//! the paper's introduction derives.
//!
//! Paper claims: colocated ≈ 1.6 rps; prefill-only ≈ 5.6 rps; decoding-
//! only ≈ 10 rps; 2P+1D ≈ 3.3 rps/GPU (2.1× colocated).

use distserve_bench::{header, paper_cost};
use distserve_cluster::Cluster;
use distserve_core::Table;
use distserve_engine::{InstanceRole, InstanceSpec, ServingSim, SimConfig};
use distserve_models::{GpuSpec, OptModel, ParallelismConfig};
use distserve_placement::goodput::max_goodput;
use distserve_placement::phase_sim::{decode_tpots, prefill_ttfts, PhaseSimConfig};
use distserve_placement::TraceSource;
use distserve_workload::datasets::FixedLengths;

const TTFT_SLO: f64 = 0.4;
const TPOT_SLO: f64 = 0.1;

fn source() -> FixedLengths {
    FixedLengths {
        input_len: 512,
        output_len: 64,
    }
}

fn coloc_outcome(cluster: &Cluster, rate: f64, n: usize) -> distserve_engine::SimOutcome {
    let cost = paper_cost();
    let arch = OptModel::Opt13B.arch();
    let spec = InstanceSpec::new(
        InstanceRole::Colocated,
        ParallelismConfig::SINGLE,
        vec![vec![cluster.gpu(0, 0)]],
    )
    .expect("valid");
    let trace = source().make_trace(rate, n, 1);
    ServingSim::new(
        SimConfig::new(arch).with_seed(1),
        &cost,
        cluster,
        vec![spec],
    )
    .expect("valid deployment")
    .run(&trace)
}

fn main() {
    header(
        "Figure 1",
        "P90 TTFT / P90 TPOT vs rate: colocated vs single-phase systems (OPT-13B, in=512, out=64, 1×A100)",
        "colocated ~1.6 rps; prefill-only ~5.6 rps; decode-only ~10 rps; 2P+1D ~3.3 rps/GPU",
    );
    let cost = paper_cost();
    let cluster = Cluster::single_node(8);
    let phase_cfg = PhaseSimConfig::new(OptModel::Opt13B.arch(), GpuSpec::a100_80g());
    let par1 = ParallelismConfig::SINGLE;

    let mut table = Table::new(vec![
        "rate (rps)",
        "coloc P90 TTFT",
        "prefill-only P90 TTFT",
        "coloc P90 TPOT",
        "decode-only P90 TPOT",
    ]);
    for rate in [0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 5.0, 6.0, 8.0] {
        let n = (rate * 60.0) as usize + 100;
        let coloc = coloc_outcome(&cluster, rate, n);
        let trace = source().make_trace(rate, n, 1);
        // The conservative-profile prefill instance can't sustain rates
        // past ~1/D; percentile summaries stay meaningful anyway.
        let prefill = prefill_ttfts(&cost, &phase_cfg, par1, &trace);
        let decode = decode_tpots(&cost, &phase_cfg, par1, &trace);
        table.row(vec![
            format!("{rate:.1}"),
            format!("{:.3}s", coloc.ttft_summary().percentile(0.9)),
            format!("{:.3}s", prefill.percentile(0.9)),
            format!("{:.4}s", coloc.tpot_summary().percentile(0.9)),
            format!("{:.4}s", decode.percentile(0.9)),
        ]);
    }
    print!("{}", table.render());

    // Goodput at 90% attainment for each curve.
    let coloc_goodput = max_goodput(
        |r| {
            let n = ((r * 60.0) as usize).clamp(200, 4000);
            coloc_outcome(&cluster, r, n).attainment(TTFT_SLO, TPOT_SLO)
        },
        0.9,
        0.5,
        7,
    );
    let prefill_goodput = max_goodput(
        |r| {
            let n = ((r * 60.0) as usize).clamp(200, 4000);
            let trace = source().make_trace(r, n, 1);
            let s = prefill_ttfts(&cost, &phase_cfg, par1, &trace);
            s.fraction_at_most(TTFT_SLO)
        },
        0.9,
        0.5,
        7,
    );
    let decode_goodput = max_goodput(
        |r| {
            let n = ((r * 60.0) as usize).clamp(200, 4000);
            let trace = source().make_trace(r, n, 1);
            let s = decode_tpots(&cost, &phase_cfg, par1, &trace);
            s.fraction_at_most(TPOT_SLO)
        },
        0.9,
        0.5,
        7,
    );

    // The introduction's arithmetic: nP prefill + 1 decode GPUs.
    let n_prefill = (decode_goodput / prefill_goodput).floor().max(1.0) as usize;
    let mut specs = Vec::new();
    for k in 0..n_prefill {
        specs.push(
            InstanceSpec::new(
                InstanceRole::Prefill,
                par1,
                vec![vec![cluster.gpu(0, k as u32)]],
            )
            .expect("valid"),
        );
    }
    specs.push(
        InstanceSpec::new(
            InstanceRole::Decode,
            par1,
            vec![vec![cluster.gpu(0, n_prefill as u32)]],
        )
        .expect("valid"),
    );
    let arch = OptModel::Opt13B.arch();
    let combo_gpus = (n_prefill + 1) as f64;
    let combo_goodput = max_goodput(
        |r| {
            let n = ((r * 60.0) as usize).clamp(200, 4000);
            let trace = source().make_trace(r, n, 1);
            let cfg = SimConfig::new(arch.clone()).with_seed(1);
            ServingSim::new(cfg, &cost, &cluster, specs.clone())
                .map(|sim| sim.run(&trace).attainment(TTFT_SLO, TPOT_SLO))
                .unwrap_or(0.0)
        },
        0.9,
        0.5,
        7,
    );

    println!();
    println!("goodput @90% (TTFT<= {TTFT_SLO}s, TPOT<= {TPOT_SLO}s):");
    println!("  colocated (1 GPU)      : {coloc_goodput:.2} rps/GPU   (paper ~1.6)");
    println!("  prefill-only (1 GPU)   : {prefill_goodput:.2} rps/GPU (paper ~5.6)");
    println!("  decode-only (1 GPU)    : {decode_goodput:.2} rps/GPU  (paper ~10)");
    println!(
        "  {n_prefill}P+1D disaggregated   : {:.2} rps/GPU  (paper ~3.3, 2.1x coloc)",
        combo_goodput / combo_gpus
    );
    println!(
        "  disaggregation factor  : {:.2}x colocated",
        combo_goodput / combo_gpus / coloc_goodput.max(1e-9)
    );
}
