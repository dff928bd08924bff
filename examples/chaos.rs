//! Chaos: fault injection, recovery, and failure-driven replanning.
//!
//! Plans a disaggregated deployment for steady chatbot traffic, then
//! kills a decoding instance mid-run (a permanent GPU loss, flanked by a
//! transient KV-transfer failure and a straggler). The engine requeues
//! the dead instance's in-flight work onto survivors under the retry
//! policy, the observe crate's windowed goodput records the dip, and the
//! capacity loss — not a workload shift — arms the replanning
//! controller. Placement is then rerun over the shrunk cluster and
//! traffic continues on the recovery plan.
//!
//! Prints the availability report (baseline/dip/recovered goodput, MTTR,
//! retry counts) and writes `availability.json` for CI to gate on.
//!
//! Run with: `cargo run --release --example chaos`

use std::sync::Arc;

use distserve::cluster::Cluster;
use distserve::core::recovery::assemble_report;
use distserve::core::replan::ReplanDecision;
use distserve::core::{Application, CapacityObservation, Planner, ReplanController};
use distserve::engine::spec::InstanceRole;
use distserve::engine::{ServingSim, SimConfig};
use distserve::faults::{FaultKind, FaultSchedule, GoodputSample, RetryPolicy};
use distserve::models::RooflineModel;
use distserve::observe::ObserverSink;
use distserve::placement::alg1::SearchParams;
use distserve::simcore::SimRng;
use distserve::telemetry::{metrics, Recorder, TeeSink};
use distserve::workload::{Dataset, Request, RequestId, Trace, TraceBuilder};

fn main() {
    let mut cluster = Cluster::paper_testbed();
    let cost = RooflineModel::a100();
    let arch = Application::ChatbotOpt13B.model().arch();
    let slo = Application::ChatbotOpt13B.slo();

    // Plan for steady chatbot traffic at a rate that needs several
    // prefill/decode units, so a dead decoding instance leaves
    // survivors to absorb its work.
    let rate = 24.0;
    let specs = {
        let mut planner = Planner::new(&cost, &cluster, arch.clone());
        planner.params = SearchParams {
            probe_requests: 256,
            search_iters: 5,
            ..planner.params
        };
        let deployment = planner
            .plan_distserve(&Dataset::ShareGpt, slo, rate)
            .expect("planning succeeds");
        planner.materialize(&deployment).expect("plan fits")
    };
    let victim = specs
        .iter()
        .position(|s| s.role == InstanceRole::Decode)
        .expect("disaggregated plan has a decoding instance");
    let other_decode = specs
        .iter()
        .enumerate()
        .position(|(i, s)| i != victim && s.role == InstanceRole::Decode);
    println!(
        "deployment: {} instance(s) on {} GPU(s); victim = decode instance {victim}",
        specs.len(),
        specs
            .iter()
            .map(distserve::engine::InstanceSpec::num_gpus)
            .sum::<u32>()
    );

    // The fault storm: a permanent GPU loss on the victim decode
    // instance, plus transient noise that must not lose any request.
    let mut schedule = FaultSchedule::new().with(40.0, FaultKind::GpuLoss { instance: victim });
    if let Some(d) = other_decode {
        schedule.push(45.0, FaultKind::KvTransferFailure { instance: d });
    }
    schedule.push(
        55.0,
        FaultKind::Straggler {
            instance: 0,
            factor: 1.5,
            duration_secs: 10.0,
        },
    );

    // Phases A+B: steady traffic through the original deployment with
    // the faults injected; every lifecycle tees into a recorder (for
    // counters) and the windowed observer (for goodput).
    let mut rng = SimRng::seed(7);
    let trace_ab = TraceBuilder::new(Dataset::ShareGpt.sampler())
        .rate(rate)
        .num_requests(2400)
        .build(&mut rng);
    let recorder = Arc::new(Recorder::new());
    let observer = Arc::new(ObserverSink::new(slo.ttft, slo.tpot, 5.0, 128));
    let tee = TeeSink::new(vec![recorder.clone(), observer.clone()]);
    let cfg = SimConfig::new(arch.clone()).with_seed(7);
    let outcome_ab = ServingSim::new(cfg, &cost, &cluster, specs.clone())
        .expect("chaos run serves")
        .with_faults(&schedule, RetryPolicy::default())
        .with_sink(&tee)
        .run(&trace_ab);
    println!(
        "chaos phase: {} finished, {} rejected, {} failed of {} offered",
        outcome_ab.records.len(),
        outcome_ab.rejected.len(),
        outcome_ab.failed.len(),
        trace_ab.requests().len()
    );

    // The victim's hardware is gone: mark its GPUs failed in the ledger
    // and feed the capacity loss to the replanning controller.
    for stage in &specs[victim].stages {
        for &gpu in stage {
            cluster.fail_gpu(gpu).expect("victim GPU is in the cluster");
        }
    }
    let mut controller = ReplanController::new(120.0, 10.0, slo);
    for r in trace_ab.requests() {
        controller.observe(r);
    }
    controller.baseline();
    let obs = CapacityObservation::from_cluster(&cluster, 1);
    println!(
        "capacity: {}/{} GPUs healthy, {} instance down",
        obs.available_gpus, obs.total_gpus, obs.down_instances
    );
    controller.observe_capacity(obs);

    // Replan over the shrunk cluster and continue traffic on the
    // recovery deployment.
    let mut planner = Planner::new(&cost, &cluster, arch.clone());
    planner.params = SearchParams {
        probe_requests: 256,
        search_iters: 5,
        ..planner.params
    };
    let recovery_specs = match controller.poll(&planner) {
        ReplanDecision::Replanned(d) => {
            println!(
                "replanned over {} surviving GPU(s): plan uses {}",
                cluster.available_gpus(),
                d.total_gpus()
            );
            planner.materialize(&d).expect("recovery plan fits")
        }
        other => panic!("expected capacity-triggered replan, got {other:?}"),
    };

    // Phase C: same traffic pattern, arrivals continuing after the
    // chaos phase, served through the recovery deployment into the same
    // observer so the goodput series spans the whole incident.
    let offset = trace_ab.span() + 1.0;
    let mut rng_c = SimRng::seed(8);
    let trace_c_raw = TraceBuilder::new(Dataset::ShareGpt.sampler())
        .rate(rate)
        .num_requests(1200)
        .build(&mut rng_c);
    let shifted: Vec<Request> = trace_c_raw
        .requests()
        .iter()
        .map(|r| Request {
            id: RequestId(r.id.0 + 100_000),
            arrival: r.arrival.after(offset),
            input_len: r.input_len,
            output_len: r.output_len,
            tenant: r.tenant,
        })
        .collect();
    let trace_c = Trace::new(shifted);
    let cfg = SimConfig::new(arch.clone()).with_seed(8);
    let outcome_c = ServingSim::new(cfg, &cost, &cluster, recovery_specs)
        .expect("recovery deployment serves")
        .with_sink(&tee)
        .run(&trace_c);
    println!(
        "recovery phase: {} finished, {} rejected, {} failed",
        outcome_c.records.len(),
        outcome_c.rejected.len(),
        outcome_c.failed.len()
    );

    // Assemble the availability report from the full goodput series.
    let samples: Vec<GoodputSample> = observer
        .series()
        .iter()
        .map(|b| GoodputSample {
            start_s: b.start_s,
            goodput_rps: b.goodput_rps,
        })
        .collect();
    let retries = recorder
        .snapshot()
        .metrics
        .counter(metrics::REQUEST_RETRIES, 0);
    let mut report = assemble_report(&samples, &schedule, &outcome_ab, retries);
    report.finished += outcome_c.records.len() as u64;
    report.rejected += outcome_c.rejected.len() as u64;
    report.failed_requests += outcome_c.failed.len() as u64;
    println!();
    print!("{}", report.render());

    std::fs::write("availability.json", report.to_json()).expect("write availability.json");
    println!("\nwrote availability.json");
}
