//! Observability overhead on the real engine's decode hot path: the
//! one workload and the one estimator every sink's "< 3%" budget is read
//! with (`benches/overhead.rs` for all sinks, `examples/profile_fleet.rs`
//! for the profiler).
//!
//! **Workload.** [`BATCH`] requests with [`PROMPT_LEN`]-token prompts are
//! prefilled untimed, then [`DECODE_STEPS`] fused decode steps are timed
//! one by one. Every request finishes on the last timed step, so the
//! sinks' terminal paths (window insert, span finalize, tail-sampler
//! keep decision) are timed too.
//!
//! **Estimator** ([`estimate`]), built for a noisy shared host. Each
//! round times every configuration once, in an order rotated each round,
//! next to a no-op baseline run of its own (pair order alternating by
//! round). A baseline shared by a whole round sits several runs away from
//! most configurations; on a 2-vCPU host that let the A/A row swing from
//! −5% to +0.6% between runs. Step `s` of every run decodes at the same
//! KV length, so statistics are taken per position:
//!
//! - **Overhead** is the per-position *median of paired deltas*
//!   `on[s] − base[s]`, summed. A neighbour's spike inflates one side of
//!   one pair at one position; the median shrugs it off, where a mean
//!   would carry it into the estimate.
//! - **Baseline decode time** is the per-position *minimum* over the
//!   baseline runs, summed. Interference only ever slows a step down, so
//!   each position's minimum converges to that KV length's true cost.
//!
//! [`Config::Noop`] measured this way (an A/A comparison) is the
//! estimator's noise floor on the host at hand.

use std::sync::Arc;
use std::time::Instant;

use distserve_observe::ObserverSink;
use distserve_telemetry::{Recorder, TeeSink, TelemetrySink};
use distserve_trace::{SpanSynthesizer, TailSampler, TailSamplerConfig};
use tinyllm::{ContinuousBatcher, GenRequest, Model};

/// Requests decoded together.
pub const BATCH: usize = 16;
/// Prompt tokens per request.
pub const PROMPT_LEN: usize = 32;
/// Timed decode steps per run. Real traces (e.g. ShareGPT, §6 of the
/// paper) carry prompts and outputs of tens to hundreds of tokens, so
/// decode attends over contexts of 32..96 positions here rather than
/// toy single-digit ones, while a run stays a few tens of milliseconds.
pub const DECODE_STEPS: usize = 64;
/// Measured rounds; each round times every configuration once, each
/// next to a baseline run of its own.
pub const ROUNDS: usize = 96;
/// Rounds run first and discarded (caches, allocator, worker pool).
const WARMUP_ROUNDS: usize = 2;
/// Overhead budget for each observability sink, percent of decode time.
pub const BUDGET_PCT: f64 = 3.0;

/// The prompt of request `i`: deterministic, distinct per request.
#[must_use]
pub fn prompt(i: usize) -> Vec<u32> {
    (0..PROMPT_LEN)
        .map(|p| ((i * 17 + p * 5) % 512) as u32)
        .collect()
}

/// A batcher with `batch` requests already prefilled, each finishing on
/// its [`DECODE_STEPS`]-th decode step (prefill emits the first token).
/// `sink` is attached before submission so it sees every lifecycle event.
#[must_use]
pub fn prefilled_batcher(
    model: &Model,
    batch: usize,
    sink: Option<Arc<dyn TelemetrySink>>,
) -> ContinuousBatcher {
    let mut b = ContinuousBatcher::new(model.clone(), 8192);
    if let Some(sink) = sink {
        b = b.with_sink(sink, 0);
    }
    for i in 0..batch {
        b.submit(GenRequest {
            id: i as u64,
            prompt: prompt(i),
            max_new: DECODE_STEPS + 1,
        });
    }
    b.step(); // Prefill all requests (well under the token budget).
    b
}

/// One observability configuration of the decode loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Config {
    /// The default no-op sink.
    Noop,
    /// A telemetry [`Recorder`].
    Recorder,
    /// A [`Recorder`] teed with an [`ObserverSink`] keeping windowed
    /// SLO histograms online.
    Observer,
    /// A [`SpanSynthesizer`] feeding a [`TailSampler`].
    Tracing,
    /// The no-op sink with the `prof` scope profiler enabled.
    Profiler,
    /// Every sink above, teed, with the profiler enabled.
    All,
}

impl Config {
    /// Every configuration, in report order.
    pub const ALL: [Config; 6] = [
        Config::Noop,
        Config::Recorder,
        Config::Observer,
        Config::Tracing,
        Config::Profiler,
        Config::All,
    ];

    /// Report name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Config::Noop => "noop",
            Config::Recorder => "recorder",
            Config::Observer => "observer",
            Config::Tracing => "tracing",
            Config::Profiler => "profiler",
            Config::All => "all",
        }
    }

    /// A fresh sink chain per run: steady-state cost, not an
    /// ever-growing recorder buffer.
    fn sink(self) -> Option<Arc<dyn TelemetrySink>> {
        let recorder = || Arc::new(Recorder::new()) as Arc<dyn TelemetrySink>;
        let observer = || Arc::new(ObserverSink::new(5.0, 1.0, 0.5, 64)) as Arc<dyn TelemetrySink>;
        let tracing = || {
            let sampler = Arc::new(TailSampler::new(TailSamplerConfig::default()));
            Arc::new(SpanSynthesizer::new(sampler, 5).with_slos(5.0, 1.0)) as Arc<dyn TelemetrySink>
        };
        let tee = |sinks| Some(Arc::new(TeeSink::new(sinks)) as Arc<dyn TelemetrySink>);
        match self {
            Config::Noop | Config::Profiler => None,
            Config::Recorder => Some(recorder()),
            Config::Observer => tee(vec![recorder(), observer()]),
            Config::Tracing => Some(tracing()),
            Config::All => tee(vec![recorder(), observer(), tracing()]),
        }
    }

    fn profiled(self) -> bool {
        matches!(self, Config::Profiler | Config::All)
    }
}

/// One run of the workload under `config`: each decode step's seconds,
/// by position, and the requests finished inside the timed window.
fn time_decode(model: &Model, config: Config) -> (Vec<f64>, usize) {
    distserve_prof::set_enabled(config.profiled());
    let mut b = prefilled_batcher(model, BATCH, config.sink());
    let mut steps = Vec::with_capacity(DECODE_STEPS);
    for _ in 0..DECODE_STEPS {
        let t = Instant::now();
        b.step();
        steps.push(t.elapsed().as_secs_f64());
    }
    distserve_prof::set_enabled(false);
    std::hint::black_box(b.steps());
    (steps, BATCH - b.running_len() - b.waiting_len())
}

/// A configuration's cost against the no-op baseline (see module docs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimate {
    /// Decode seconds of one run without any sink: per-position minima
    /// over the baseline runs, summed.
    pub baseline_s: f64,
    /// Seconds the configuration adds to one run: per-position medians
    /// of paired deltas, summed.
    pub overhead_s: f64,
}

impl Estimate {
    /// Overhead as a percentage of the baseline.
    #[must_use]
    pub fn overhead_pct(&self) -> f64 {
        self.overhead_s / self.baseline_s * 100.0
    }
}

/// Median of `xs` (which it sorts in place).
fn median_mut(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// The estimator: `base[r][s]` and `on[r][s]` are step `s` of round `r`'s
/// baseline and configuration runs.
///
/// # Panics
///
/// Panics when `base` and `on` are empty or differ in shape.
#[must_use]
pub fn estimate(base: &[Vec<f64>], on: &[Vec<f64>]) -> Estimate {
    assert!(!base.is_empty(), "estimate needs at least one round");
    assert_eq!(
        base.len(),
        on.len(),
        "one configuration run per baseline run"
    );
    let steps = base[0].len();
    let mut baseline_s = 0.0;
    let mut overhead_s = 0.0;
    let mut deltas = Vec::with_capacity(base.len());
    for s in 0..steps {
        deltas.clear();
        deltas.extend(base.iter().zip(on).map(|(b, o)| o[s] - b[s]));
        overhead_s += median_mut(&mut deltas);
        baseline_s += base.iter().map(|b| b[s]).fold(f64::INFINITY, f64::min);
    }
    Estimate {
        baseline_s,
        overhead_s,
    }
}

/// One configuration's measurement.
#[derive(Debug, Clone, Copy)]
pub struct Row {
    /// The configuration measured.
    pub config: Config,
    /// Its cost against the baseline.
    pub estimate: Estimate,
    /// Requests finished inside the timed window, fewest over all runs.
    pub finished_per_run: usize,
}

/// Measures each of `configs` against no-op baseline runs paired with
/// its own, over [`ROUNDS`] rotated rounds (see module docs).
#[must_use]
pub fn measure(model: &Model, configs: &[Config]) -> Vec<Row> {
    let n = configs.len();
    let mut base: Vec<Vec<Vec<f64>>> = vec![Vec::with_capacity(ROUNDS); n];
    let mut on: Vec<Vec<Vec<f64>>> = vec![Vec::with_capacity(ROUNDS); n];
    let mut finished = vec![BATCH; n];
    for round in 0..WARMUP_ROUNDS + ROUNDS {
        for k in 0..n {
            let c = (round + k) % n;
            let (b, (o, done)) = if round.is_multiple_of(2) {
                let b = time_decode(model, Config::Noop).0;
                (b, time_decode(model, configs[c]))
            } else {
                let o = time_decode(model, configs[c]);
                (time_decode(model, Config::Noop).0, o)
            };
            if round >= WARMUP_ROUNDS {
                base[c].push(b);
                on[c].push(o);
                finished[c] = finished[c].min(done);
            }
        }
    }
    configs
        .iter()
        .enumerate()
        .map(|(c, &config)| Row {
            config,
            estimate: estimate(&base[c], &on[c]),
            finished_per_run: finished[c],
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Synthetic baseline rounds: position `s` costs `1 + s/100` ms, and
    /// round `r` adds a small round-dependent jitter.
    fn rounds(n: usize) -> Vec<Vec<f64>> {
        (0..n)
            .map(|r| {
                (0..DECODE_STEPS)
                    .map(|s| (1.0 + s as f64 / 100.0 + (r % 5) as f64 * 0.01) * 1e-3)
                    .collect()
            })
            .collect()
    }

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    #[test]
    fn constant_delta_is_recovered() {
        let base = rounds(9);
        let x = 20e-6;
        let on: Vec<Vec<f64>> = base
            .iter()
            .map(|run| run.iter().map(|t| t + x).collect())
            .collect();
        let e = estimate(&base, &on);
        assert!(close(e.overhead_s, x * DECODE_STEPS as f64), "{e:?}");
    }

    #[test]
    fn one_spike_does_not_move_the_estimate() {
        let base = rounds(9);
        let mut on = base.clone();
        let clean = estimate(&base, &on);
        on[4][17] += 0.5;
        let spiked = estimate(&base, &on);
        assert_eq!(clean, spiked);
    }

    #[test]
    fn identical_runs_read_zero() {
        let base = rounds(8);
        let e = estimate(&base, &base.clone());
        assert_eq!(e.overhead_s, 0.0);
        assert_eq!(e.overhead_pct(), 0.0);
    }

    #[test]
    fn baseline_ignores_slow_rounds() {
        let fast = rounds(1).remove(0);
        let mut base = vec![fast.clone(); 6];
        // Two rounds slowed throughout, a third at a few positions.
        for r in [1, 4] {
            base[r].iter_mut().for_each(|t| *t *= 1.8);
        }
        base[2][0] *= 3.0;
        base[2][63] *= 3.0;
        let e = estimate(&base, &base.clone());
        assert!(close(e.baseline_s, fast.iter().sum()), "{e:?}");
    }

    #[test]
    fn every_request_finishes_on_the_last_timed_step() {
        let model = Model::random(&tinyllm::TinyConfig::small(), 5);
        let mut b = prefilled_batcher(&model, BATCH, None);
        for _ in 1..DECODE_STEPS {
            b.step();
        }
        assert_eq!(b.running_len(), BATCH, "a request finished early");
        b.step();
        assert_eq!(b.running_len() + b.waiting_len(), 0);
    }
}
