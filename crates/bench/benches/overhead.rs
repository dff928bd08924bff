//! Observability overhead on the real engine's decode hot path: every
//! sink against the no-op sink in one paired run, plus the A/A noise
//! floor (no-op against no-op). See `distserve_bench::overhead` for the
//! workload and the estimator.
//!
//! Asserts that every request finished inside the timed window and that
//! the observer and tracing rows stay within the 3% budget. The profiler
//! row is gated by `examples/profile_fleet.rs` on `BENCH_prof.json`.
//!
//! Writes `BENCH_overhead.json` at the repository root.

use distserve_bench::overhead::{self, Config, BATCH, BUDGET_PCT, DECODE_STEPS, ROUNDS};
use serde::Value;
use tinyllm::{Model, TinyConfig};

fn main() {
    let model = Model::random(&TinyConfig::small(), 5);
    println!(
        "overhead: batch-{BATCH} decode, {DECODE_STEPS} steps, {ROUNDS} rounds x {} paired runs",
        Config::ALL.len()
    );
    let rows = overhead::measure(&model, &Config::ALL);
    let pct = |config: Config| {
        rows.iter()
            .find(|r| r.config == config)
            .expect("every config is measured")
            .estimate
            .overhead_pct()
    };
    let noise_floor_pct = pct(Config::Noop);

    let mut configs = Vec::new();
    for row in &rows {
        let e = row.estimate;
        let baseline_us = e.baseline_s / DECODE_STEPS as f64 * 1e6;
        let on_us = (e.baseline_s + e.overhead_s) / DECODE_STEPS as f64 * 1e6;
        println!(
            "  {:<9} {:+6.2}%  ({baseline_us:.1} -> {on_us:.1} us/step, {} finished/run)",
            row.config.name(),
            e.overhead_pct(),
            row.finished_per_run,
        );
        configs.push((
            row.config.name().to_string(),
            Value::Object(vec![
                ("overhead_pct".into(), Value::Float(e.overhead_pct())),
                (
                    "finished_per_run".into(),
                    Value::UInt(row.finished_per_run as u64),
                ),
                ("baseline_us_per_step".into(), Value::Float(baseline_us)),
                ("on_us_per_step".into(), Value::Float(on_us)),
            ]),
        ));
    }

    let provenance = distserve_bench::sentinel::Provenance::capture("TinyConfig::small()", 5);
    let doc = Value::Object(vec![
        ("provenance".into(), provenance.value()),
        ("batch".into(), Value::UInt(BATCH as u64)),
        ("decode_steps".into(), Value::UInt(DECODE_STEPS as u64)),
        ("rounds".into(), Value::UInt(ROUNDS as u64)),
        ("noise_floor_pct".into(), Value::Float(noise_floor_pct)),
        ("budget_pct".into(), Value::Float(BUDGET_PCT)),
        ("configs".into(), Value::Object(configs)),
    ]);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_overhead.json");
    let json = serde_json::to_string_pretty(&doc).expect("serialize bench results");
    std::fs::write(path, json + "\n").expect("write BENCH_overhead.json");
    println!("wrote {path} (noise floor {noise_floor_pct:+.2}%)");

    for row in &rows {
        assert_eq!(
            row.finished_per_run,
            BATCH,
            "{}: requests must finish inside the timed window",
            row.config.name()
        );
    }
    for config in [Config::Observer, Config::Tracing] {
        let p = pct(config);
        assert!(
            p < BUDGET_PCT,
            "{} overhead {p:.2}% blew the {BUDGET_PCT}% budget",
            config.name()
        );
    }
    println!("observer and tracing within the {BUDGET_PCT}% budget");
}
