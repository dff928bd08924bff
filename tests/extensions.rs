//! Regression tests for the extension features (the paper's discussion
//! and future-work items implemented here): GQA, SJF scheduling, chunked
//! prefill, burstiness handling, and sampling.

use distserve::cluster::Cluster;
use distserve::engine::{ColocatedPolicy, InstanceRole, InstanceSpec, ServingSim, SimConfig};
use distserve::models::{
    CostModel, DType, DecodeBatch, LlamaModel, ModelArch, OptModel, ParallelismConfig,
    RooflineModel,
};
use distserve::placement::TraceSource;
use distserve::simcore::SimRng;
use distserve::workload::datasets::LengthSampler;
use distserve::workload::{ArrivalProcess, Dataset, TraceBuilder};

fn cost() -> RooflineModel {
    RooflineModel::a100_conservative()
}

fn disagg_specs(cluster: &Cluster) -> Vec<InstanceSpec> {
    vec![
        InstanceSpec::new(
            InstanceRole::Prefill,
            ParallelismConfig::SINGLE,
            vec![vec![cluster.gpu(0, 0)]],
        )
        .unwrap(),
        InstanceSpec::new(
            InstanceRole::Decode,
            ParallelismConfig::SINGLE,
            vec![vec![cluster.gpu(0, 1)]],
        )
        .unwrap(),
    ]
}

#[test]
fn gqa_strictly_cheaper_to_decode() {
    // LLaMA-2-70B (GQA) vs a multi-head twin: every decoding step with
    // meaningful context must be faster, and the KV footprint 8x smaller.
    let gqa = LlamaModel::Llama2_70B.arch();
    let mha = ModelArch::new("mha-70b", 80, 8192, 64, 28_672, 32_000, 4096)
        .unwrap()
        .with_gated_ffn();
    let cost = cost();
    let par = ParallelismConfig::new(4, 1);
    for bs in [16usize, 64, 256] {
        let batch = DecodeBatch::uniform(bs, 512);
        let t_gqa = cost.decode_stage_time(&gqa, par, &batch).total();
        let t_mha = cost.decode_stage_time(&mha, par, &batch).total();
        assert!(t_gqa < t_mha, "bs={bs}: GQA {t_gqa} !< MHA {t_mha}");
    }
    assert_eq!(
        gqa.kv_bytes_per_token(DType::F16) * 8,
        mha.kv_bytes_per_token(DType::F16)
    );
}

/// Bimodal prompts: mostly short, occasionally very long.
#[derive(Debug, Clone, Copy)]
struct Bimodal;

impl LengthSampler for Bimodal {
    fn sample(&self, rng: &mut SimRng) -> (u32, u32) {
        if rng.below(10) == 0 {
            (1600, 32)
        } else {
            (128, 32)
        }
    }

    fn name(&self) -> &str {
        "bimodal"
    }
}

#[test]
fn sjf_improves_short_request_tail() {
    let cluster = Cluster::single_node(2);
    let cost = cost();
    let arch = OptModel::Opt13B.arch();
    let mut rng = SimRng::seed(31);
    let trace = TraceBuilder::new(Box::new(Bimodal))
        .rate(6.0)
        .num_requests(600)
        .build(&mut rng);

    let short_p90 = |sjf: bool| {
        let mut cfg = SimConfig::new(arch.clone()).with_seed(31);
        if sjf {
            cfg = cfg.with_sjf_prefill();
        }
        let sim = ServingSim::new(cfg, &cost, &cluster, disagg_specs(&cluster)).unwrap();
        let out = sim.run(&trace);
        let mut short = distserve::simcore::Summary::new();
        for r in &out.records {
            if r.input_len <= 128 {
                short.record(r.ttft());
            }
        }
        short.percentile(0.9)
    };
    let fcfs = short_p90(false);
    let sjf = short_p90(true);
    assert!(
        sjf < fcfs,
        "SJF should cut the short-request tail: {sjf} !< {fcfs}"
    );
}

#[test]
fn chunked_prefill_trades_ttft_for_tpot() {
    // §2.2's claim, as a regression test: versus alternation, chunking
    // lowers P90 TPOT and raises P90 TTFT at the same rate.
    let cluster = Cluster::single_node(1);
    let cost = cost();
    let arch = OptModel::Opt13B.arch();
    let trace = Dataset::ShareGpt.make_trace(1.6, 400, 17);

    let run = |chunk: Option<u32>| {
        let spec = InstanceSpec::new(
            InstanceRole::Colocated,
            ParallelismConfig::SINGLE,
            vec![vec![cluster.gpu(0, 0)]],
        )
        .unwrap()
        .with_policy(ColocatedPolicy {
            prefill_token_budget: 2048,
            chunked_prefill: chunk,
        });
        let cfg = SimConfig::new(arch.clone()).with_seed(17);
        ServingSim::new(cfg, &cost, &cluster, vec![spec])
            .unwrap()
            .run(&trace)
    };
    let alt = run(None);
    let chunked = run(Some(256));
    let (alt_ttft, alt_tpot) = (
        alt.ttft_summary().percentile(0.9),
        alt.tpot_summary().percentile(0.9),
    );
    let (ch_ttft, ch_tpot) = (
        chunked.ttft_summary().percentile(0.9),
        chunked.tpot_summary().percentile(0.9),
    );
    assert!(
        ch_tpot < alt_tpot,
        "chunking should cut TPOT: {ch_tpot} !< {alt_tpot}"
    );
    assert!(
        ch_ttft > alt_ttft,
        "chunking should pay TTFT: {ch_ttft} !> {alt_ttft}"
    );
}

#[test]
fn bursty_arrivals_never_overflow_memory() {
    // §4.3 "combat burstiness": whatever the burst, both KV pools stay
    // within capacity and every request completes.
    let cluster = Cluster::single_node(2);
    let cost = cost();
    let arch = OptModel::Opt13B.arch();
    let mut rng = SimRng::seed(99);
    let trace = TraceBuilder::new(Dataset::ShareGpt.sampler())
        .arrival(ArrivalProcess::bursty(3.0, 4.0))
        .num_requests(500)
        .build(&mut rng);
    let cfg = SimConfig::new(arch).with_seed(99);
    let out = ServingSim::new(cfg, &cost, &cluster, disagg_specs(&cluster))
        .unwrap()
        .run(&trace);
    assert_eq!(out.records.len(), 500);
    for s in &out.instances {
        assert!(
            s.kv_peak_utilization <= 1.0 + 1e-9,
            "KV pool overflowed: {}",
            s.kv_peak_utilization
        );
    }
}

#[test]
fn sampled_generation_is_plausible_and_seeded() {
    use distserve::tinyllm::{Model, Sampler, Sampling, TinyConfig};
    let model = Model::random(&TinyConfig::tiny(), 9);
    let prompt = vec![4, 8, 15];
    let greedy = model.generate(&prompt, 12);
    let mut s1 = Sampler::new(
        Sampling::TopK {
            k: 4,
            temperature: 0.9,
        },
        123,
    );
    let sampled1 = model.generate_with(&prompt, 12, &mut s1);
    let mut s2 = Sampler::new(
        Sampling::TopK {
            k: 4,
            temperature: 0.9,
        },
        123,
    );
    let sampled2 = model.generate_with(&prompt, 12, &mut s2);
    assert_eq!(sampled1, sampled2, "same seed must reproduce");
    assert_eq!(sampled1.len(), greedy.len());
    // Top-1 sampling collapses to greedy.
    let mut s3 = Sampler::new(
        Sampling::TopK {
            k: 1,
            temperature: 1.0,
        },
        7,
    );
    assert_eq!(model.generate_with(&prompt, 12, &mut s3), greedy);
}

#[test]
fn segment_paired_175b_unit_serves_within_slo() {
    // The extension of Algorithm 2 to segment-paired units must produce a
    // deployment that actually serves OPT-175B within its Table-1 SLOs.
    use distserve::placement::alg2::unit_specs;
    let cluster = Cluster::paper_testbed();
    let cost = cost();
    let arch = OptModel::Opt175B.arch();
    let specs = unit_specs(
        &cluster,
        ParallelismConfig::new(3, 3),
        ParallelismConfig::new(4, 3),
    )
    .unwrap();
    let trace = Dataset::ShareGpt.make_trace(1.2, 300, 3);
    let out = ServingSim::new(SimConfig::new(arch).with_seed(3), &cost, &cluster, specs)
        .unwrap()
        .run(&trace);
    let att = out.attainment(4.0, 0.2);
    assert!(att >= 0.9, "175B unit attains only {att}");
    // All transfers rode NVLink: wire times must be tiny despite the
    // 25 Gbps cross-node fabric.
    for r in &out.records {
        assert!(
            r.transfer_active < 0.05,
            "transfer took {}s — crossed the slow link?",
            r.transfer_active
        );
    }
}
