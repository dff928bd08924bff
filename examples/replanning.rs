//! Workload-shift detection and replanning (§4.3).
//!
//! Feeds the replanning controller a chatbot-like workload, baselines the
//! plan, then shifts traffic to summarization-like long prompts. The
//! profiler detects the drift, refits an empirical length distribution
//! from its window, and reruns the placement search.
//!
//! A third phase closes the loop through telemetry instead: the arrival
//! *pattern* stays put, but the offered rate outgrows the deployed plan.
//! The observe crate's windowed SLO attainment — measured by serving the
//! traffic through the deployment with an `ObserverSink` — erodes below
//! the floor, and that observation (not a pattern shift) arms the replan.
//!
//! Run with: `cargo run --release --example replanning`

use distserve::cluster::Cluster;
use distserve::core::replan::ReplanDecision;
use distserve::core::{Application, Planner, ReplanController};
use distserve::engine::{ServingSim, SimConfig};
use distserve::models::RooflineModel;
use distserve::observe::ObserverSink;
use distserve::placement::alg1::SearchParams;
use distserve::placement::deploy::Deployment;
use distserve::simcore::SimRng;
use distserve::workload::datasets::FixedLengths;
use distserve::workload::{Dataset, TraceBuilder};

fn main() {
    let cluster = Cluster::paper_testbed();
    let cost = RooflineModel::a100_conservative();
    let arch = Application::ChatbotOpt13B.model().arch();
    let slo = Application::ChatbotOpt13B.slo();

    let mut planner = Planner::new(&cost, &cluster, arch.clone());
    planner.params = SearchParams {
        probe_requests: 256,
        search_iters: 5,
        ..planner.params
    };
    let mut controller = ReplanController::new(120.0, 0.3, slo);

    // Phase 1: chatbot traffic at 4 rps.
    println!("phase 1: ShareGPT-like traffic at 4 rps");
    let mut rng = SimRng::seed(11);
    let phase1 = TraceBuilder::new(Dataset::ShareGpt.sampler())
        .rate(4.0)
        .num_requests(300)
        .build(&mut rng);
    for r in phase1.requests() {
        controller.observe(r);
    }
    controller.baseline();
    match controller.poll(&planner) {
        ReplanDecision::Keep => println!("  stable → keep plan\n"),
        other => println!("  unexpected: {other:?}\n"),
    }

    // Phase 2: users start pasting documents — prompts triple in length.
    // (A full shift to LongBench-scale inputs under the chatbot's 0.2 s
    // TTFT would be *correctly* reported as infeasible: a 2048-token
    // prefill alone exceeds the SLO on this model. Replanning can only
    // rearrange GPUs, not repeal physics.)
    println!("phase 2: traffic shifts to much longer prompts");
    let mut rng2 = SimRng::seed(12);
    let mut phase2 = TraceBuilder::new(Box::new(FixedLengths {
        input_len: 900,
        output_len: 120,
    }))
    .rate(4.0)
    .num_requests(300)
    .build(&mut rng2);
    // Offset arrivals to continue after phase 1.
    let offset = phase1.span() + 1.0;
    let shifted: Vec<_> = phase2
        .requests()
        .iter()
        .map(|r| distserve::workload::Request {
            id: distserve::workload::RequestId(r.id.0 + 10_000),
            arrival: r.arrival.after(offset),
            input_len: r.input_len,
            output_len: r.output_len,
            tenant: r.tenant,
        })
        .collect();
    phase2 = distserve::workload::Trace::new(shifted);
    for r in phase2.requests() {
        controller.observe(r);
    }

    match controller.poll(&planner) {
        ReplanDecision::Replanned(d) => {
            println!("  shift detected → replanned");
            if let Deployment::Low(p) = &d {
                println!(
                    "  new unit: prefill {} decode {}, unit goodput {:.2} rps, {} unit(s)",
                    p.prefill_par, p.decode_par, p.unit_goodput, p.num_units
                );
            }
            println!("  replans so far: {}", controller.replans());
        }
        ReplanDecision::Failed(e) => {
            println!(
                "  shift detected but the new pattern is unservable under the current SLO: {e}"
            );
        }
        other => println!("  unexpected: {other:?}"),
    }

    // Phase 3: same pattern, more of it — detection via observed SLOs.
    println!("\nphase 3: pattern stable, but observed attainment erodes");
    let cost3 = RooflineModel::a100();
    let mut planner3 = Planner::new(&cost3, &cluster, arch.clone());
    planner3.params = SearchParams {
        probe_requests: 256,
        search_iters: 5,
        ..planner3.params
    };
    // An absurd shift threshold: the profiler alone will never fire, so
    // any replan below is attributable to the telemetry path.
    let mut controller3 = ReplanController::new(120.0, 10.0, slo).with_attainment_floor(0.9);

    // Plan for the rate we *expected* (2 rps)...
    let planned_rate = 2.0;
    let deployment = planner3
        .plan_distserve(&Dataset::ShareGpt, slo, planned_rate)
        .expect("planning the expected rate succeeds");
    let specs = planner3
        .materialize(&deployment)
        .expect("plan fits the cluster");
    println!(
        "  planned for {planned_rate} rps on {} GPU(s)",
        specs
            .iter()
            .map(distserve::engine::InstanceSpec::num_gpus)
            .sum::<u32>()
    );

    // ...but traffic arrives at 15x that. Same lengths, same pattern.
    let offered_rate = 30.0;
    let mut rng3 = SimRng::seed(13);
    let overload = TraceBuilder::new(Dataset::ShareGpt.sampler())
        .rate(offered_rate)
        .num_requests(900)
        .build(&mut rng3);
    for r in overload.requests() {
        controller3.observe(r);
    }
    controller3.baseline();
    assert!(
        matches!(controller3.poll(&planner3), ReplanDecision::Keep),
        "the profiler must not fire on its own"
    );

    // Serve the overload through the deployment, observing live.
    let observer = ObserverSink::new(slo.ttft, slo.tpot, 10.0, 64);
    let cfg = SimConfig::new(arch.clone()).with_seed(13);
    let _ = ServingSim::new(cfg, &cost3, &cluster, specs)
        .expect("deployment serves the trace")
        .with_sink(&observer)
        .run(&overload);
    let stats = observer.stats();
    println!(
        "  observed: {} requests, attainment {:.0}% (TTFT {:.0}%, TPOT {:.0}%), goodput {:.2} rps",
        stats.requests,
        stats.attainment * 100.0,
        stats.ttft_attainment * 100.0,
        stats.tpot_attainment * 100.0,
        stats.goodput_rps
    );

    // Feed the windowed observation to the controller and poll.
    controller3.observe_attainment(stats.to_observation());
    match controller3.poll(&planner3) {
        ReplanDecision::Replanned(d) => {
            println!("  attainment below floor → replanned from observed SLOs");
            if let Deployment::Low(p) = &d {
                println!(
                    "  new unit: prefill {} decode {}, unit goodput {:.2} rps, {} unit(s)",
                    p.prefill_par, p.decode_par, p.unit_goodput, p.num_units
                );
            }
        }
        ReplanDecision::Failed(e) => println!("  replan attempted but failed: {e}"),
        ReplanDecision::Keep => println!("  unexpected: controller kept the eroded plan"),
    }
}
