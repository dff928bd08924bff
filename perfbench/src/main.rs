//! perfbench — the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload (`long_prompt`, `multiturn_prefix`)
//! drives the real `ContinuousBatcher` with an open-loop schedule. With
//! `--trace 0` the run reports the end-to-end metrics, untraced; with
//! `--trace 1` it reports the per-layer metrics of a separate traced
//! run, which on `multiturn_prefix` also streams the same session shape
//! through the routed `ScaleSim` to measure the router. The last line
//! of standard output is one JSON object; progress goes to standard
//! error.

mod fleet;
mod layers;
mod serve;
mod stats;
mod workload;

use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use distserve_telemetry::Recorder;
use tinyllm::{ContinuousBatcher, GenRequest, Model};

use crate::serve::{build_model, drive, host_lanes, Engine, Outcome, Probe, SERVE_LANES};
use crate::stats::{goodput, median, percentile, ramp_windows, StepClass};
use crate::workload::{generate, ramp, ramp_rate, Mix, Req, Spec};

/// Every end-to-end metric, with its unit, in `BENCHMARK.json` order.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ttft_p50_ms", "ms"),
    ("tpot_p50_ms", "ms"),
    ("slo_attainment", "frac"),
    ("goodput_rps", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Attainment that defines goodput (the paper's 90%).
const ATTAINMENT_TARGET: f64 = 0.9;
/// Set-ups timed before each tinyllm probe; the median over the run is
/// reported.
const SETUPS_PER_PROBE: usize = 2;
/// Ramps of the goodput search; goodput is their median.
const RAMPS: usize = 4;
/// Share of the run's seconds a ramp takes to climb its whole rate
/// range. It stops sending at the backlog cap, well before the top.
const RAMP_SHARE: f64 = 0.17;
/// Waiting requests at which a ramp stops sending. At every knee this
/// engine has shown, a queue this long is far past each TTFT limit, so
/// later requests could only miss.
const BACKLOG_CAP: usize = 64;
/// Requests per window in which a ramp's attainment is read.
const RAMP_WINDOW: usize = 40;
/// Requests whose tokens are checked against the reference tier.
const SAMPLE: usize = 6;
/// Share of the run's seconds spent at the nominal rate.
const NOMINAL_SHARE: f64 = 0.3;
/// Share of a traced run's seconds for each of its three serving passes.
const TRACED_SHARE: f64 = 0.3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("missing --seconds")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} out of range"));
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// What a run prints as its last line.
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<&'static str, f64>,
}

impl Report {
    fn json(&self, names: &[(&str, &str)]) -> String {
        let fields: Vec<String> = names
            .iter()
            .map(|&(name, unit)| {
                let v = self.metrics.get(name).copied().unwrap_or(0.0);
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            fields.join(", ")
        )
    }
}

/// Peak resident set of this process, MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A probe's own seed, distinct per ramp of one run.
fn probe_seed(seed: u64, k: u64) -> u64 {
    seed.wrapping_mul(0x2545_F491_4F6C_DD1D).wrapping_add(k)
}

/// Seconds since the process started, for progress lines.
fn elapsed() -> f64 {
    static START: OnceLock<Instant> = OnceLock::new();
    START.get_or_init(Instant::now).elapsed().as_secs_f64()
}

fn log_probe(what: &str, rate: f64, sent: usize, ok: usize, slo_ok: usize) {
    eprintln!(
        "  [{:6.2}s] {what:<8} rate {rate:7.2} rps: sent {sent}, succeeded {ok}, failed {}, attainment {:.4}",
        elapsed(),
        sent - ok,
        slo_ok as f64 / sent.max(1) as f64
    );
}

/// Checks a fixed sample of the probe's requests against the reference
/// tier (`Model::generate`); on the multi-turn mix the same requests
/// are also replayed with no cache and must match. Returns the number
/// of sampled requests that mismatched.
fn check_sample(model: &Model, spec: &Spec, reqs: &[Req], probe: &Probe) -> usize {
    let n = reqs.len();
    let mut idx: Vec<usize> = (0..SAMPLE).map(|k| k * n / SAMPLE).collect();
    if spec.mix == Mix::MultiturnPrefix {
        // Add requests that were actually served from the cache.
        idx.extend(
            (n / 2..n)
                .filter(|&i| probe.cached_tokens[i] > 0)
                .take(SAMPLE),
        );
    }
    let served: Vec<Option<&Vec<u32>>> = idx
        .iter()
        .map(|&i| probe.finished[i].as_ref().map(|f| &f.tokens))
        .collect();
    let mut bad = vec![false; idx.len()];
    for (k, &i) in idx.iter().enumerate() {
        let reference = model.generate(&reqs[i].prompt, reqs[i].max_new);
        bad[k] = served[k] != Some(&reference);
    }
    if spec.mix == Mix::MultiturnPrefix {
        let tokens: usize = idx
            .iter()
            .map(|&i| reqs[i].prompt.len() + reqs[i].max_new)
            .sum();
        // Room for every sampled request's whole lifetime at once.
        let mut cold = ContinuousBatcher::new(model.clone(), tokens + 64 * idx.len());
        for (k, &i) in idx.iter().enumerate() {
            cold.submit(GenRequest {
                id: k as u64,
                prompt: reqs[i].prompt.clone(),
                max_new: reqs[i].max_new,
            });
        }
        for f in cold.run_to_completion() {
            let k = f.id as usize;
            bad[k] |= served[k] != Some(&f.tokens);
        }
    }
    let mismatches = bad.iter().filter(|&&b| b).count();
    eprintln!(
        "  [{:6.2}s] output check: {} sampled requests, {mismatches} mismatched",
        elapsed(),
        idx.len()
    );
    mismatches
}

/// The shape each tinyllm workload claims, measured on its nominal
/// probe: where busy time goes and how much of the prompt the cache
/// served. The unshared mix must stay near zero hits, so the multi-turn
/// mix's hit rate is far above its.
fn property_check(spec: &Spec, probe: &Probe) -> bool {
    let busy = probe.busy_s().max(1e-9);
    let decode = probe.busy_in(StepClass::Decode) / busy;
    let prefill = probe.busy_in(StepClass::Prefill) / busy;
    let hit = probe.cache.token_hit_rate();
    let ok = match spec.mix {
        Mix::LongPrompt => prefill > 0.5 && hit <= 0.05,
        Mix::MultiturnPrefix => hit >= 0.3,
    };
    eprintln!(
        "  property: busy in decode {decode:.3}, in prefill {prefill:.3}, prefix token hit rate {hit:.3} -> {}",
        if ok { "as claimed" } else { "NOT as claimed" }
    );
    ok
}

/// Requests at the nominal rate over the whole run: the nominal share
/// of the run's seconds, and never fewer than 200.
fn nominal_requests(spec: &Spec, seconds: f64) -> usize {
    ((spec.nominal_rps * seconds * NOMINAL_SHARE) as usize).max(200)
}

/// Builds a fresh model and engine [`SETUPS_PER_PROBE`] times, timing
/// each build; returns the last. Spreading set-ups over the run keeps
/// their median from hanging on one moment of a noisy host.
fn set_up(setups: &mut Vec<f64>) -> (Model, Engine) {
    let mut built = None;
    for _ in 0..SETUPS_PER_PROBE {
        drop(built.take());
        let t = Instant::now();
        let model = build_model(SERVE_LANES);
        let engine = Engine::new(&model, None);
        setups.push(t.elapsed().as_secs_f64());
        built = Some((model, engine));
    }
    built.expect("at least one set-up")
}

fn tinyllm_end_to_end(spec: &Spec, args: &Args) -> Report {
    let mut setups = Vec::new();
    let slice = nominal_requests(spec, args.seconds) / RAMPS;
    let (lo, hi) = spec.ramp_rps;
    let ramp_s = args.seconds * RAMP_SHARE;
    let mut out = Outcome::default();
    let (mut attempted, mut failed, mut bad_sleeps, mut mismatches) = (0, 0, 0, 0);
    let mut shape_ok = true;
    let mut lag_ms = Vec::new();
    let mut ramps = Vec::new();
    // The nominal run comes in one slice before each ramp, so its
    // medians span the whole run rather than one stretch of the host.
    for k in 1..=RAMPS as u64 {
        let (model, mut engine) = set_up(&mut setups);
        let seed = if k == 1 {
            args.seed
        } else {
            probe_seed(args.seed, RAMPS as u64 + k)
        };
        let reqs = generate(spec.mix, slice, spec.nominal_rps, seed);
        let probe = drive(&mut engine, &reqs, false, None);
        let o = probe.analyze(&reqs, spec.ttft_slo_ms, spec.tpot_slo_ms);
        log_probe("nominal", spec.nominal_rps, o.sent, o.ok, o.slo_ok);
        lag_ms.extend(
            reqs.iter()
                .zip(&probe.submit_s)
                .map(|(r, s)| (s - r.due_s) * 1e3),
        );
        bad_sleeps += probe.bad_sleeps;
        if k == 1 {
            mismatches = check_sample(&model, spec, &reqs, &probe);
        }
        shape_ok &= property_check(spec, &probe);
        out.merge(o);
        drop(engine);

        // The ramp climbs the workload's rate range; its windows give
        // the attainment curve, and its goodput is where that curve last
        // crosses the target.
        let r = ramp(spec.mix, lo, hi, ramp_s, probe_seed(args.seed, k));
        let (_, mut engine) = set_up(&mut setups);
        let p = drive(&mut engine, &r, false, Some(BACKLOG_CAP));
        let o = p.analyze(&r, spec.ttft_slo_ms, spec.tpot_slo_ms);
        let along: Vec<(f64, bool)> = r
            .iter()
            .zip(&o.met)
            .map(|(req, &met)| (ramp_rate(lo, hi, ramp_s, req.due_s), met))
            .collect();
        let windows = ramp_windows(&along, RAMP_WINDOW);
        let g = goodput(&windows, ATTAINMENT_TARGET);
        let top = along.last().map_or(lo, |a| a.0);
        log_probe("ramp", top, o.sent, o.ok, o.slo_ok);
        let curve: Vec<String> = windows
            .iter()
            .map(|(rate, a)| format!("{rate:.0}:{a:.2}"))
            .collect();
        eprintln!("    rate:attainment by window {}", curve.join(" "));
        eprintln!("    goodput {g:.3} rps");
        attempted += o.sent;
        failed += o.failed();
        bad_sleeps += p.bad_sleeps;
        ramps.push(g);
    }
    attempted += out.sent;
    failed += out.failed() + mismatches;
    let goodput_rps = median(&ramps);
    eprintln!("  goodput {goodput_rps:.3} rps at attainment >= {ATTAINMENT_TARGET} (median of {RAMPS} ramps)");
    for (name, v) in out.tails() {
        eprintln!(
            "  {name}: {:.3} (reported by --trace 1)",
            v.unwrap_or(f64::NAN)
        );
    }
    eprintln!(
        "  driver: {bad_sleeps} sleeps with work due, nominal lag p99 {:.3} ms",
        percentile(&lag_ms, 0.99).unwrap_or(0.0)
    );

    let mut metrics = BTreeMap::new();
    let mut complete = true;
    for (name, v) in out.medians() {
        match v {
            Some(v) => {
                metrics.insert(name, v);
            }
            None => {
                eprintln!("  {name}: too few samples for this percentile");
                complete = false;
            }
        }
    }
    metrics.insert("setup_s", median(&setups));
    metrics.insert("slo_attainment", out.attainment());
    metrics.insert("goodput_rps", goodput_rps);
    metrics.insert("peak_rss_mb", peak_rss_mb());
    Report {
        correct: mismatches == 0 && out.failed() == 0 && bad_sleeps == 0 && shape_ok && complete,
        attempted: attempted as u64,
        failed: failed as u64,
        metrics,
    }
}

/// Writes the traced probe's bench-side spans as CSV under `perfbench/out/`.
fn write_spans(args: &Args, probe: &Probe) {
    let dir = std::path::Path::new("perfbench").join("out");
    let path = dir.join(format!("{}-seed{}.spans.csv", args.workload, args.seed));
    let mut csv = String::from("name,id,start_s,end_s\n");
    for s in &probe.spans {
        csv.push_str(&format!("{},{},{},{}\n", s.name, s.id, s.start_s, s.end_s));
    }
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, csv)) {
        Ok(()) => eprintln!("  wrote {} spans to {}", probe.spans.len(), path.display()),
        Err(e) => eprintln!("  could not write spans to {}: {e}", path.display()),
    }
}

fn tinyllm_layers(spec: &Spec, args: &Args) -> Report {
    let model = build_model(SERVE_LANES);
    let t0 = Instant::now();
    // Three passes over the same inputs take most of the run's seconds.
    let n = (spec.nominal_rps * args.seconds * TRACED_SHARE) as usize;
    let reqs = generate(spec.mix, n, spec.nominal_rps, args.seed);

    // The same inputs untraced first: the base of the overhead ratio.
    let untraced_busy = {
        let mut engine = Engine::new(&model, None);
        drive(&mut engine, &reqs, false, None).busy_s()
    };

    let recorder = Arc::new(Recorder::new());
    let mut engine = Engine::new(&model, Some(recorder.clone()));
    distserve_prof::reset();
    distserve_prof::set_enabled(true);
    let probe = drive(&mut engine, &reqs, true, None);
    distserve_prof::set_enabled(false);
    let profile = distserve_prof::snapshot();
    drop(engine);
    let out = probe.analyze(&reqs, spec.ttft_slo_ms, spec.tpot_slo_ms);
    log_probe("traced", spec.nominal_rps, out.sent, out.ok, out.slo_ok);
    eprintln!(
        "  recorder: {} telemetry events",
        recorder.snapshot().events.len()
    );
    write_spans(args, &probe);

    let mismatches = check_sample(&model, spec, &reqs, &probe);
    let shape_ok = property_check(spec, &probe);
    let layer = layers::tinyllm_layers(
        model.config(),
        &probe,
        &reqs,
        &out.queue_wait_ms,
        &profile,
        untraced_busy,
    );
    let mut metrics: BTreeMap<&'static str, f64> = layer.into_iter().collect();
    let mut complete = true;
    for (name, v) in out.tails() {
        match v {
            Some(v) => {
                metrics.insert(name, v);
            }
            None => complete = false,
        }
    }
    metrics.extend(pool_pass(&reqs));
    eprintln!("  driver: {} sleeps with work due", probe.bad_sleeps);
    let mut lost = 0;
    if spec.mix == Mix::MultiturnPrefix {
        // The router is measured on this mix's session shape.
        let until = t0 + std::time::Duration::from_secs_f64(args.seconds * 0.9);
        let (router, failed) = router_layers(args.seed, until);
        metrics.extend(router);
        lost = failed;
    }
    // Layers a workload does not reach report 0.
    for &(name, _) in layers::PER_LAYER {
        metrics.entry(name).or_insert(0.0);
    }
    Report {
        correct: mismatches == 0
            && out.failed() == 0
            && probe.bad_sleeps == 0
            && shape_ok
            && complete
            && lost == 0,
        attempted: out.sent as u64,
        failed: (out.failed() + mismatches) as u64 + lost,
        metrics,
    }
}

/// The worker pool, which serving at [`SERVE_LANES`] leaves idle: the
/// same inputs again on a model with one lane per core, its pool gauges
/// recorded. Empty on a one-core host.
fn pool_pass(reqs: &[Req]) -> Vec<(&'static str, f64)> {
    let lanes = host_lanes();
    if lanes < 2 {
        return Vec::new();
    }
    let model = build_model(lanes);
    let recorder = Arc::new(Recorder::new());
    let mut engine = Engine::new(&model, Some(recorder.clone()));
    let before = model.pool_utilization();
    let busy = drive(&mut engine, reqs, false, None).busy_s();
    eprintln!("  [{:6.2}s] pool pass at {lanes} lanes", elapsed());
    layers::pool_layers(&recorder.snapshot(), &before, busy)
}

/// Simulated requests per router run.
const FLEET_REQUESTS: usize = 400_000;

/// The router layer: the multi-turn session shape streamed through the
/// routed `ScaleSim`, alternating untraced and profiled runs of the same
/// inputs until `until`. Every run must conserve requests
/// (`offered == completed + shed`) and the profiled runs must make the
/// untraced runs' decisions. Returns the metrics and the requests lost.
fn router_layers(seed: u64, until: Instant) -> (Vec<(&'static str, f64)>, u64) {
    let mut failed = 0;
    let (mut runs, mut untraced_s) = (0u64, 0.0);
    let mut outcome = None;
    distserve_prof::reset();
    while runs < 2 || Instant::now() < until {
        let (plain, wall) = fleet::run(FLEET_REQUESTS, seed);
        distserve_prof::set_enabled(true);
        let (o, _) = fleet::run(FLEET_REQUESTS, seed);
        distserve_prof::set_enabled(false);
        for (what, x) in [("untraced", &plain), ("traced", &o)] {
            let lost = x.offered.abs_diff(x.completed + x.shed);
            eprintln!(
                "  [{:6.2}s] router {what:<8}: sent {}, completed {}, shed {}, failed {lost}, requeues {}",
                elapsed(),
                x.offered,
                x.completed,
                x.shed,
                x.requeues
            );
            failed += lost;
        }
        if (o.completed, o.shed, o.requeues) != (plain.completed, plain.shed, plain.requeues) {
            eprintln!("  profiled router run diverged from the untraced one");
            failed += 1;
        }
        runs += 1;
        untraced_s += wall;
        outcome = Some(o);
    }
    let profile = distserve_prof::snapshot();
    let o = outcome.expect("at least one run");
    let offered = (runs * o.offered) as f64;
    let per_req = |name: &str| profile.find(&[name]).map_or(0.0, |n| n.total_ns as f64) / offered;
    let share = |count: u64| count as f64 / o.offered.max(1) as f64;
    let metrics = vec![
        ("router.route_offer_ns_per_req", per_req("route_offer")),
        ("router.drain_events_ns_per_req", per_req("drain_events")),
        ("router.shed_frac", share(o.shed)),
        ("router.requeues_per_req", share(o.requeues)),
        ("router.prefix_hit_rate", o.prefix_hit_rate()),
        ("router.sim_req_per_s", offered / untraced_s),
    ];
    (metrics, failed)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    elapsed();
    eprintln!(
        "perfbench: workload {} seed {} seconds {} trace {} ({} compute lanes)",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        SERVE_LANES
    );
    let Some(spec) = workload::spec(&args.workload) else {
        eprintln!("perfbench: unknown workload {}", args.workload);
        std::process::exit(2);
    };
    let mut report = if args.trace {
        tinyllm_layers(&spec, &args)
    } else {
        tinyllm_end_to_end(&spec, &args)
    };
    let names = if args.trace {
        layers::PER_LAYER
    } else {
        END_TO_END
    };
    if report.metrics.values().any(|v| !v.is_finite()) {
        eprintln!("perfbench: a metric is not finite");
        report.correct = false;
        report.metrics.retain(|_, v| v.is_finite());
    }
    println!("{}", report.json(names));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let compact: String = json.split_whitespace().collect();
        let metrics = END_TO_END.iter().chain(layers::PER_LAYER);
        for (name, unit) in metrics.clone() {
            let entry = format!("{{\"name\":\"{name}\",\"unit\":\"{unit}\"");
            assert!(
                compact.contains(&entry),
                "{name} [{unit}] is not in BENCHMARK.json"
            );
        }
        let workloads: Vec<&str> = workload::SPECS.iter().map(|s| s.name).collect();
        for name in &workloads {
            assert!(
                compact.contains(&format!("{{\"name\":\"{name}\",\"why\"")),
                "workload {name}"
            );
        }
        let entries = compact.matches("{\"name\":").count();
        assert_eq!(
            entries,
            metrics.count() + workloads.len(),
            "BENCHMARK.json lists names the bench does not report"
        );
    }
}
