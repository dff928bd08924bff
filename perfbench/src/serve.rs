//! The real engine under an open-loop schedule: the serving
//! configuration, the driver that submits requests at their due times
//! and steps the batcher between arrivals, and the analysis that turns
//! one probe's step timeline into per-request latencies.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use distserve_prefix::{CacheStats, PrefixCache};
use distserve_telemetry::TelemetrySink;
use tinyllm::kv::PagedKv;
use tinyllm::scheduler::{FinishedGen, StepKind};
use tinyllm::{
    ComputeConfig, ContinuousBatcher, GenRequest, Model, Precision, PrefixReuse, TinyConfig,
};

use crate::stats::{inter_token_gaps, tail_percentile, token_times, StepClass};
use crate::workload::{Req, MAX_SEQ};

/// Fixed model weights: every run serves the same model.
const WEIGHT_SEED: u64 = 2024;
/// Tokens per KV block (the batcher's and the cache's).
pub const BLOCK: usize = 16;
/// Blocks the prefix cache may hold. Below the multi-turn mix's working
/// set, so evictions and inserts run beside lookups.
pub const CACHE_BLOCKS: usize = 512;
/// The batcher's cap on concurrently running requests.
const MAX_RUNNING: usize = 64;

/// KV pool: the cache's capacity plus the largest running footprint
/// (`MAX_RUNNING` requests of `MAX_SEQ` tokens), so admission, which
/// does not see cache-held blocks, can never run the pool dry.
fn kv_tokens() -> usize {
    (CACHE_BLOCKS + MAX_RUNNING * MAX_SEQ / BLOCK) * BLOCK
}

/// Compute lanes of the served model: one, the caller's. On a shared
/// 2-vCPU host a second lane made serving slower and noisier, not
/// faster: the stepping thread waited on the pool for 40–48% of its
/// busy time and the decode-step p99 rose 2–4×. The pool is still
/// measured, by the traced run's pass at [`host_lanes`].
pub const SERVE_LANES: usize = 1;

/// One lane per available core, the caller's included.
#[must_use]
pub fn host_lanes() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Builds the served model: `TinyConfig::small()`, f32, fixed weights,
/// `lanes` compute lanes. Weight generation, packing and the pool start
/// happen here.
#[must_use]
pub fn build_model(lanes: usize) -> Model {
    let compute = ComputeConfig {
        precision: Precision::F32,
        threads: lanes,
    };
    Model::random_with(&TinyConfig::small(), WEIGHT_SEED, compute)
}

/// A batcher over `model` with its prefix cache, warmed up: one pass of
/// prefill and decode touches every kernel, the pool, and the scratch
/// arena before anything is timed.
pub struct Engine {
    /// The serving batcher.
    pub batcher: ContinuousBatcher,
    /// The prefix cache attached to every step.
    pub cache: PrefixCache,
    next_id: u64,
}

impl Engine {
    /// Builds and warms a batcher over `model`, with telemetry routed to
    /// `sink` when given.
    #[must_use]
    pub fn new(model: &Model, sink: Option<Arc<dyn TelemetrySink>>) -> Self {
        let mut batcher = ContinuousBatcher::new(model.clone(), kv_tokens());
        if let Some(sink) = sink {
            batcher = batcher.with_sink(sink, 1);
        }
        let mut engine = Engine {
            batcher,
            cache: PrefixCache::new(BLOCK, CACHE_BLOCKS),
            next_id: 0,
        };
        for i in 0..4u32 {
            let prompt = (0..200).map(|p| (p * 7 + i) % 512).collect();
            let id = engine.fresh_ids(1);
            engine.batcher.submit(GenRequest {
                id,
                prompt,
                max_new: 16,
            });
        }
        let _ = engine.batcher.run_to_completion_with(&mut engine.cache);
        engine.reset_cache();
        engine
    }

    /// Reserves `n` request ids; returns the first.
    fn fresh_ids(&mut self, n: u64) -> u64 {
        let first = self.next_id;
        self.next_id += n;
        first
    }

    /// Drops every cached prefix, so the next probe starts cold.
    pub fn reset_cache(&mut self) {
        self.cache.clear(self.batcher.kv_mut());
    }
}

/// One bench-side span, kept in memory until the run ends.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// What was called: `submit`, `step_with`, `match_blocks`, `offer`.
    pub name: &'static str,
    /// Request id (the step number for `step_with`).
    pub id: u64,
    /// Seconds since the probe started.
    pub start_s: f64,
    /// Seconds since the probe started.
    pub end_s: f64,
}

/// The bench's `PrefixReuse` wrapper: delegates to the cache, records
/// each request's usable cached tokens (for computed FLOP counts) and,
/// when traced, times every call as a span carrying the request id.
///
/// The batcher matches admitted requests in submission order and offers
/// them back in the same order (skipping prompts shorter than a block),
/// which is how calls are attributed to requests from outside.
struct CacheTap<'a> {
    cache: &'a mut PrefixCache,
    clock: Option<(Instant, &'a mut Vec<Span>)>,
    /// Probe-local indices in submission order, not yet matched.
    unmatched: VecDeque<usize>,
    /// `(index, prompt length)` matched in the current step, not yet
    /// offered.
    unoffered: VecDeque<(usize, usize)>,
    id_base: u64,
    cached_tokens: Vec<usize>,
}

impl CacheTap<'_> {
    fn now(&self) -> f64 {
        self.clock
            .as_ref()
            .map_or(0.0, |(t0, _)| t0.elapsed().as_secs_f64())
    }

    fn record(&mut self, name: &'static str, idx: usize, start_s: f64) {
        let end_s = self.now();
        let id = self.id_base + idx as u64;
        if let Some((_, spans)) = self.clock.as_mut() {
            spans.push(Span {
                name,
                id,
                start_s,
                end_s,
            });
        }
    }
}

impl PrefixReuse for CacheTap<'_> {
    fn match_blocks(&mut self, tokens: &[u32]) -> Vec<usize> {
        let idx = self
            .unmatched
            .pop_front()
            .expect("batcher admits in submission order");
        let start = self.now();
        let blocks = self.cache.match_blocks(tokens);
        self.record("match_blocks", idx, start);
        // The batcher forks over at most the whole blocks before the
        // prompt's last token.
        self.cached_tokens[idx] = blocks.len().min((tokens.len() - 1) / BLOCK) * BLOCK;
        self.unoffered.push_back((idx, tokens.len()));
        blocks
    }

    fn offer(&mut self, tokens: &[u32], blocks: &[usize], kv: &mut PagedKv) {
        let idx = loop {
            let (idx, len) = self.unoffered.pop_front().expect("offer follows a match");
            if len >= BLOCK {
                break idx;
            }
        };
        let start = self.now();
        self.cache.offer(tokens, blocks, kv);
        self.record("offer", idx, start);
    }
}

/// One scheduler step as the driver saw it.
#[derive(Debug, Clone, Copy)]
pub struct StepRec {
    /// Step kind.
    pub class: StepClass,
    /// Seconds since the probe started.
    pub start_s: f64,
    /// Seconds since the probe started.
    pub end_s: f64,
    /// Prompt tokens computed (prefill) or requests advanced (decode).
    pub rows: usize,
    /// Requests waiting for admission before the step.
    pub waiting_before: usize,
    /// Requests running before the step.
    pub running_before: usize,
    /// KV pool share in use after the step (cache-held blocks count).
    pub kv_used_frac: f64,
    /// Blocks the prefix cache held after the step.
    pub cache_owned: usize,
}

/// Everything one open-loop probe recorded.
pub struct Probe {
    /// Requests submitted: a prefix of the probe's requests.
    pub sent: usize,
    /// When each request was submitted, seconds since the probe start.
    pub submit_s: Vec<f64>,
    /// Steps in order (step `k` of the probe is `steps[k - 1]`).
    pub steps: Vec<StepRec>,
    /// Finished generations by probe-local index (`None` if missing).
    pub finished: Vec<Option<FinishedGen>>,
    /// Whole blocks each request took from the cache, in tokens.
    pub cached_tokens: Vec<usize>,
    /// Cache counters accumulated during the probe.
    pub cache: CacheStats,
    /// Times the driver slept with work queued or an arrival already due.
    pub bad_sleeps: usize,
    /// Bench-side spans (traced probes only).
    pub spans: Vec<Span>,
    first_step: u64,
}

fn class_of(kind: StepKind) -> (StepClass, usize) {
    match kind {
        StepKind::Prefill { tokens, .. } => (StepClass::Prefill, tokens),
        StepKind::Decode { requests } => (StepClass::Decode, requests),
        StepKind::Idle => (StepClass::Idle, 0),
    }
}

/// Sleeps until `due_s` after `t0`: coarse sleep, then a short spin so
/// the wake-up is not late by the OS timer slack.
fn sleep_until(t0: Instant, due_s: f64) {
    let due = t0 + Duration::from_secs_f64(due_s);
    let slack = Duration::from_micros(200);
    let now = Instant::now();
    if due > now + slack {
        std::thread::sleep(due - now - slack);
    }
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

fn cache_delta(a: CacheStats, b: CacheStats) -> CacheStats {
    CacheStats {
        hits: b.hits - a.hits,
        misses: b.misses - a.misses,
        evictions: b.evictions - a.evictions,
        inserted_blocks: b.inserted_blocks - a.inserted_blocks,
        matched_tokens: b.matched_tokens - a.matched_tokens,
        lookup_tokens: b.lookup_tokens - a.lookup_tokens,
    }
}

/// Offers `reqs` (sorted by due time) at their due times and steps the
/// batcher, cache attached, until every request sent has finished. The
/// driver runs on the caller's thread, which is also one compute lane:
/// it submits whatever is due before each step and sleeps only when
/// nothing is queued or running. With a `backlog_cap`, it stops sending
/// once that many requests wait for admission: the rest are not sent.
pub fn drive(engine: &mut Engine, reqs: &[Req], traced: bool, backlog_cap: Option<usize>) -> Probe {
    engine.reset_cache();
    let n = reqs.len();
    let id_base = engine.fresh_ids(n as u64);
    let stats0 = engine.cache.stats();
    let first_step = engine.batcher.steps();
    let total_blocks = engine.batcher.kv_total_blocks() as f64;
    let mut spans = Vec::new();
    let mut submit_s = vec![0.0; n];
    let mut steps = Vec::new();
    let mut bad_sleeps = 0;
    let t0 = Instant::now();
    let now = || t0.elapsed().as_secs_f64();
    let mut tap = CacheTap {
        cache: &mut engine.cache,
        clock: traced.then_some((t0, &mut spans)),
        unmatched: VecDeque::new(),
        unoffered: VecDeque::new(),
        id_base,
        cached_tokens: vec![0; n],
    };
    let batcher = &mut engine.batcher;
    let mut next = 0;
    let mut sent = n;
    loop {
        if backlog_cap.is_some_and(|cap| batcher.waiting_len() >= cap) {
            sent = sent.min(next);
        }
        // When the submitting stopped: the next request was not yet due.
        let mut checked = now();
        while next < sent && reqs[next].due_s <= checked {
            let start = now();
            batcher.submit(GenRequest {
                id: id_base + next as u64,
                prompt: reqs[next].prompt.clone(),
                max_new: reqs[next].max_new,
            });
            submit_s[next] = start;
            tap.unmatched.push_back(next);
            tap.record("submit", next, start);
            next += 1;
            checked = now();
        }
        let waiting_before = batcher.waiting_len();
        let running_before = batcher.running_len();
        if waiting_before + running_before > 0 {
            tap.unoffered.clear();
            let start_s = now();
            let kind = batcher.step_with(Some(&mut tap));
            let end_s = now();
            let (class, rows) = class_of(kind);
            if let Some((_, spans)) = tap.clock.as_mut() {
                spans.push(Span {
                    name: "step_with",
                    id: batcher.steps() - first_step,
                    start_s,
                    end_s,
                });
            }
            steps.push(StepRec {
                class,
                start_s,
                end_s,
                rows,
                waiting_before,
                running_before,
                kv_used_frac: 1.0 - batcher.kv_free_blocks() as f64 / total_blocks,
                cache_owned: tap.cache.owned_blocks(),
            });
            continue;
        }
        if next == sent {
            break;
        }
        // Nothing queued or running: idle until the next arrival. The
        // check guards the loop's invariant, not the OS timer: an arrival
        // falling due since `checked` is submitted as soon as the sleep
        // returns, which it does at once.
        if batcher.waiting_len() + batcher.running_len() > 0 || reqs[next].due_s <= checked {
            bad_sleeps += 1;
        }
        sleep_until(t0, reqs[next].due_s);
    }
    // Nothing is outstanding, so this only collects the finished list.
    let done = batcher.run_to_completion_with(&mut tap);
    let cached_tokens = std::mem::take(&mut tap.cached_tokens);
    let mut finished: Vec<Option<FinishedGen>> = vec![None; n];
    for f in done {
        if let Some(slot) =
            f.id.checked_sub(id_base)
                .and_then(|i| finished.get_mut(i as usize))
        {
            *slot = Some(f);
        }
    }
    submit_s.truncate(sent);
    Probe {
        sent,
        submit_s,
        steps,
        finished,
        cached_tokens,
        cache: cache_delta(stats0, engine.cache.stats()),
        bad_sleeps,
        spans,
        first_step,
    }
}

/// Per-request latencies of one probe, judged against the limits.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Requests sent.
    pub sent: usize,
    /// Requests that finished with the right number of tokens and a
    /// step timeline consistent with them.
    pub ok: usize,
    /// Requests meeting both limits.
    pub slo_ok: usize,
    /// Per-request TTFT, ms (finished requests).
    pub ttft_ms: Vec<f64>,
    /// Per-request mean gap after the first token, ms (two or more
    /// tokens).
    pub tpot_ms: Vec<f64>,
    /// Whether each request sent met both limits, in sending order.
    pub met: Vec<bool>,
    /// Every gap between consecutive output tokens, ms.
    pub itl_ms: Vec<f64>,
    /// Admission wait (submit to the start of the prefill step), ms.
    pub queue_wait_ms: Vec<f64>,
}

impl Outcome {
    /// Share of requests sent meeting both limits.
    #[must_use]
    pub fn attainment(&self) -> f64 {
        self.slo_ok as f64 / self.sent.max(1) as f64
    }

    /// Adds `other`'s requests to this outcome.
    pub fn merge(&mut self, other: Outcome) {
        self.sent += other.sent;
        self.ok += other.ok;
        self.slo_ok += other.slo_ok;
        self.met.extend(other.met);
        self.ttft_ms.extend(other.ttft_ms);
        self.tpot_ms.extend(other.tpot_ms);
        self.itl_ms.extend(other.itl_ms);
        self.queue_wait_ms.extend(other.queue_wait_ms);
    }

    /// Requests sent that did not finish correctly.
    #[must_use]
    pub fn failed(&self) -> usize {
        self.sent - self.ok
    }

    /// Median TTFT and TPOT over every finished request: the gated
    /// `*_p50_ms` metrics.
    #[must_use]
    pub fn medians(&self) -> [(&'static str, Option<f64>); 2] {
        [
            ("ttft_p50_ms", tail_percentile(&self.ttft_ms, 0.5)),
            ("tpot_p50_ms", tail_percentile(&self.tpot_ms, 0.5)),
        ]
    }

    /// TTFT, TPOT and ITL p90s: the traced run's `tail.*` metrics. They
    /// are not gated: on a shared host they follow its speed drift at
    /// about twice its amplitude (p90s spread 0.3–0.4 of their median
    /// across seeds, p99s up to 0.9), past the 0.25 a gated metric may
    /// spread. Goodput and attainment carry the limits into the gated
    /// metrics instead.
    #[must_use]
    pub fn tails(&self) -> [(&'static str, Option<f64>); 3] {
        [
            ("tail.ttft_p90_ms", tail_percentile(&self.ttft_ms, 0.9)),
            ("tail.tpot_p90_ms", tail_percentile(&self.tpot_ms, 0.9)),
            ("tail.itl_p90_ms", tail_percentile(&self.itl_ms, 0.9)),
        ]
    }
}

impl Probe {
    /// The probe's step `s` (as numbered by the batcher), if it ran.
    fn step_index(&self, s: u64) -> Option<usize> {
        let k = s.checked_sub(self.first_step)?;
        (k >= 1 && (k as usize) <= self.steps.len()).then_some(k as usize)
    }

    /// Judges every request against the limits: latencies are measured
    /// from each request's due time to the end of the step that emitted
    /// the token.
    #[must_use]
    pub fn analyze(&self, reqs: &[Req], ttft_slo_ms: f64, tpot_slo_ms: f64) -> Outcome {
        // Local arrays indexed by probe step number (index 0 unused).
        let mut end = vec![0.0];
        let mut class = vec![StepClass::Idle];
        for s in &self.steps {
            end.push(s.end_s);
            class.push(s.class);
        }
        let mut out = Outcome {
            sent: self.sent,
            met: vec![false; self.sent],
            ..Outcome::default()
        };
        for (i, req) in reqs[..self.sent].iter().enumerate() {
            let Some(f) = &self.finished[i] else { continue };
            let (Some(first), Some(last)) = (
                self.step_index(f.first_token_step),
                self.step_index(f.completion_step),
            ) else {
                continue;
            };
            let times = token_times(&end, &class, first as u64, last as u64);
            if f.tokens.len() != req.max_new || times.len() != f.tokens.len() {
                continue;
            }
            out.ok += 1;
            let ttft = (times[0] - req.due_s) * 1e3;
            let tpot = (times.len() > 1)
                .then(|| (times[times.len() - 1] - times[0]) * 1e3 / (times.len() - 1) as f64);
            out.ttft_ms.push(ttft);
            out.queue_wait_ms
                .push((self.steps[first - 1].start_s - self.submit_s[i]) * 1e3);
            out.itl_ms
                .extend(inter_token_gaps(&times).into_iter().map(|g| g * 1e3));
            if let Some(t) = tpot {
                out.tpot_ms.push(t);
            }
            if ttft <= ttft_slo_ms && tpot.is_none_or(|t| t <= tpot_slo_ms) {
                out.slo_ok += 1;
                out.met[i] = true;
            }
        }
        out
    }

    /// Wall seconds the engine spent inside `step_with`.
    #[must_use]
    pub fn busy_s(&self) -> f64 {
        self.steps.iter().map(|s| s.end_s - s.start_s).sum()
    }

    /// Busy seconds in steps of `class`.
    #[must_use]
    pub fn busy_in(&self, class: StepClass) -> f64 {
        self.steps
            .iter()
            .filter(|s| s.class == class)
            .map(|s| s.end_s - s.start_s)
            .sum()
    }

    /// Seconds from the probe start to the end of its last step.
    #[must_use]
    pub fn wall_s(&self) -> f64 {
        self.steps.last().map_or(0.0, |s| s.end_s)
    }
}

#[cfg(test)]
impl Probe {
    /// A probe with only finished generations and cached-token counts.
    pub fn for_test(finished: Vec<Option<FinishedGen>>, cached_tokens: Vec<usize>) -> Self {
        Probe {
            sent: finished.len(),
            submit_s: vec![0.0; finished.len()],
            steps: Vec::new(),
            finished,
            cached_tokens,
            cache: CacheStats::default(),
            bad_sleeps: 0,
            spans: Vec::new(),
            first_step: 0,
        }
    }
}
