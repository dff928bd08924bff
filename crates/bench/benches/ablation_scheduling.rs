//! Extension ablations on DistServe's online scheduling (§4.3):
//!
//! 1. **Convoy effect / SJF.** The paper: "the FCFS policy can lead to a
//!    'convoy effect', where longer requests block shorter ones in the
//!    prefill stage. Incorporating preemptive strategies ... could
//!    enhance efficiency." We compare FCFS against shortest-job-first on
//!    a bimodal prompt mix and report short-request tail TTFT.
//! 2. **`L_m` token-budget batching.** §4.3 schedules prefill batches
//!    with total length close to `L_m` to reduce pipeline bubbles; we
//!    compare against single-request batches (`L_m = 1`) on a pp=2
//!    prefill instance with non-uniform lengths.
//! 3. **Burstiness and the pull-based buffer.** §4.3: bursts risk
//!    flooding decoding memory; the prefill instance's memory acts as a
//!    queueing buffer. We serve gamma arrivals (CV = 3) and report
//!    attainment plus peak decode-KV utilization vs Poisson.

use distserve_bench::{header, paper_cost};
use distserve_cluster::Cluster;
use distserve_core::Table;
use distserve_engine::{InstanceRole, InstanceSpec, ServingSim, SimConfig};
use distserve_models::{OptModel, ParallelismConfig};
use distserve_simcore::SimRng;
use distserve_workload::datasets::LengthSampler;
use distserve_workload::{ArrivalProcess, Trace, TraceBuilder};

/// Bimodal prompts: mostly short chat turns, occasionally a pasted
/// document.
#[derive(Debug, Clone, Copy)]
struct Bimodal;

impl LengthSampler for Bimodal {
    fn sample(&self, rng: &mut SimRng) -> (u32, u32) {
        if rng.below(10) == 0 {
            (1600, 64)
        } else {
            (128, 64)
        }
    }

    fn name(&self) -> &str {
        "bimodal"
    }
}

fn disagg_specs(cluster: &Cluster) -> Vec<InstanceSpec> {
    vec![
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
    ]
}

fn main() {
    let cost = paper_cost();
    let cluster = Cluster::single_node(4);
    let arch = OptModel::Opt13B.arch();

    // ------------------------------------------------------------------
    // 1. Convoy effect: FCFS vs SJF.
    // ------------------------------------------------------------------
    header(
        "Ablation: scheduling",
        "(1) convoy effect — FCFS vs shortest-job-first prefill (OPT-13B, bimodal prompts)",
        "§4.3: FCFS can convoy; preemptive strategies 'could enhance efficiency'",
    );
    let mut rng = SimRng::seed(31);
    let trace = TraceBuilder::new(Box::new(Bimodal))
        .rate(5.5)
        .num_requests(800)
        .build(&mut rng);

    let mut table = Table::new(vec![
        "discipline",
        "short P50 TTFT",
        "short P90 TTFT",
        "long P90 TTFT",
        "P90 TTFT (all)",
    ]);
    for (name, sjf) in [("FCFS (paper §4.3)", false), ("SJF (extension)", true)] {
        let mut cfg = SimConfig::new(arch.clone()).with_seed(31);
        if sjf {
            cfg = cfg.with_sjf_prefill();
        }
        let sim = ServingSim::new(cfg, &cost, &cluster, disagg_specs(&cluster)).expect("valid");
        let out = sim.run(&trace);
        let mut short = distserve_simcore::Summary::new();
        let mut long = distserve_simcore::Summary::new();
        for r in &out.records {
            if r.input_len <= 128 {
                short.record(r.ttft());
            } else {
                long.record(r.ttft());
            }
        }
        table.row(vec![
            name.to_string(),
            format!("{:.3}s", short.percentile(0.5)),
            format!("{:.3}s", short.percentile(0.9)),
            format!("{:.3}s", long.percentile(0.9)),
            format!("{:.3}s", out.ttft_summary().percentile(0.9)),
        ]);
    }
    print!("{}", table.render());
    println!("SJF pulls short-request tails down by letting them jump document prefills;\nthe long requests pay — the starvation trade-off the paper alludes to.\n");

    // ------------------------------------------------------------------
    // 2. L_m batching vs single-request batches on a pipelined prefill.
    // ------------------------------------------------------------------
    header(
        "Ablation: scheduling",
        "(2) L_m token-budget batching vs unbatched prefill (OPT-13B, pp=2 prefill, ShareGPT-like)",
        "§4.3: batching to ~L_m balances pipeline stages and reduces bubbles",
    );
    let specs = |cluster: &Cluster| {
        vec![
            InstanceSpec::new(
                InstanceRole::Prefill,
                ParallelismConfig::new(1, 2),
                vec![vec![cluster.gpu(0, 0)], vec![cluster.gpu(0, 1)]],
            )
            .expect("valid"),
            InstanceSpec::new(
                InstanceRole::Decode,
                ParallelismConfig::SINGLE,
                vec![vec![cluster.gpu(0, 2)]],
            )
            .expect("valid"),
        ]
    };
    // Short prompts at high load: the regime where packing several
    // requests per batch amortizes the per-step overhead and evens the
    // pipeline (HumanEval-like, ~180-token prompts).
    // High utilization is where the ~10% capacity saved by amortizing
    // per-step overhead turns into a large queueing-delay difference.
    let mut rng = SimRng::seed(77);
    let trace = TraceBuilder::new(distserve_workload::Dataset::HumanEval.sampler())
        .rate(34.0)
        .num_requests(1500)
        .build(&mut rng);
    let mut table = Table::new(vec!["policy", "mean TTFT", "P90 TTFT", "prefill batches"]);
    for (name, l_m) in [("L_m = 512 (paper)", 512u32), ("unbatched (L_m = 1)", 1)] {
        let cfg = SimConfig::new(arch.clone()).with_l_m(l_m).with_seed(77);
        let sim = ServingSim::new(cfg, &cost, &cluster, specs(&cluster)).expect("valid");
        let out = sim.run(&trace);
        table.row(vec![
            name.to_string(),
            format!("{:.3}s", out.ttft_summary().mean()),
            format!("{:.3}s", out.ttft_summary().percentile(0.9)),
            out.instances[0].batches.to_string(),
        ]);
    }
    print!("{}", table.render());
    println!();

    // ------------------------------------------------------------------
    // 3. Burstiness and the pull-based KV buffer.
    // ------------------------------------------------------------------
    header(
        "Ablation: scheduling",
        "(3) bursty arrivals (gamma, CV=3) vs Poisson through the pull-based transfer (OPT-13B)",
        "§4.3: decode pulls KV as needed, using prefill memory as the queueing buffer",
    );
    let build = |bursty: bool| -> Trace {
        let mut rng = SimRng::seed(99);
        let builder =
            TraceBuilder::new(distserve_workload::Dataset::ShareGpt.sampler()).num_requests(800);
        let builder = if bursty {
            builder.arrival(ArrivalProcess::bursty(2.5, 3.0))
        } else {
            builder.rate(2.5)
        };
        builder.build(&mut rng)
    };
    let mut table = Table::new(vec![
        "arrivals",
        "attainment (0.25/0.1)",
        "prefill KV peak",
        "decode KV peak",
        "P90 TTFT",
    ]);
    for (name, bursty) in [("Poisson", false), ("gamma CV=3", true)] {
        let trace = build(bursty);
        let cfg = SimConfig::new(arch.clone()).with_seed(99);
        let out = ServingSim::new(cfg, &cost, &cluster, disagg_specs(&cluster))
            .expect("valid")
            .run(&trace);
        table.row(vec![
            name.to_string(),
            format!("{:.2}", out.attainment(0.25, 0.1)),
            format!("{:.1}%", out.instances[0].kv_peak_utilization * 100.0),
            format!("{:.1}%", out.instances[1].kv_peak_utilization * 100.0),
            format!("{:.3}s", out.ttft_summary().percentile(0.9)),
        ]);
    }
    print!("{}", table.render());
    println!(
        "Bursts degrade the tails but degrade them *gracefully*: admission control and\n\
         the pull-based transfer bound both KV pools (no overload collapse), with the\n\
         prefill side buffering work the decoding side has no memory for yet — the\n\
         \u{a7}4.3 'combat burstiness' design."
    );
}
