//! Per-layer metrics of a traced probe, taken from outside: the bench's
//! own spans and step records, the cache's counters, the `prof` scopes
//! and pool gauges that already exist. FLOP and byte counts are computed
//! from tensor shapes and step composition, not measured.

use distserve_prof::{NodeStat, Profile};
use distserve_telemetry::{metrics, Recording};
use tinyllm::{PoolUtilization, TinyConfig};

use crate::serve::Probe;
use crate::stats::{mean, percentile, StepClass};
use crate::workload::Req;

/// Every per-layer metric, with its unit, in `BENCHMARK.json` order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("tail.ttft_p90_ms", "ms"),
    ("tail.tpot_p90_ms", "ms"),
    ("tail.itl_p90_ms", "ms"),
    ("driver.lag_p99_ms", "ms"),
    ("sched.queue_wait_p50_ms", "ms"),
    ("sched.queue_wait_p99_ms", "ms"),
    ("sched.prefill_step_p50_ms", "ms"),
    ("sched.prefill_step_p99_ms", "ms"),
    ("sched.prefill_tokens_per_step_mean", "tokens"),
    ("sched.decode_step_p50_ms", "ms"),
    ("sched.decode_step_p99_ms", "ms"),
    ("sched.decode_batch_mean", "requests"),
    ("sched.decode_preempted_frac", "frac"),
    ("sched.busy_frac", "frac"),
    ("sched.admission_blocked_steps", "count"),
    ("kv.used_frac_p50", "frac"),
    ("kv.used_frac_max", "frac"),
    ("prefix.token_hit_rate", "frac"),
    ("prefix.request_hit_rate", "frac"),
    ("prefix.evictions", "count"),
    ("prefix.owned_blocks_max", "blocks"),
    ("prefix.match_p99_us", "us"),
    ("prefix.offer_p99_us", "us"),
    ("kernel.qkv_gemm.ms", "ms"),
    ("kernel.qkv_gemm.gflops", "GFLOP/s"),
    ("kernel.attention.ms", "ms"),
    ("kernel.attention.gflops", "GFLOP/s"),
    ("kernel.attention.gbytes_per_s", "GB/s"),
    ("kernel.out_proj_gemm.ms", "ms"),
    ("kernel.out_proj_gemm.gflops", "GFLOP/s"),
    ("kernel.ffn.ms", "ms"),
    ("kernel.ffn.gflops", "GFLOP/s"),
    ("kernel.logits.ms", "ms"),
    ("kernel.logits.gflops", "GFLOP/s"),
    ("kernel.kv_append.ms", "ms"),
    ("kernel.kv_append.gbytes_per_s", "GB/s"),
    ("pool.busy_frac", "frac"),
    ("pool.dispatch_wait_frac", "frac"),
    ("router.route_offer_ns_per_req", "ns"),
    ("router.drain_events_ns_per_req", "ns"),
    ("router.shed_frac", "frac"),
    ("router.requeues_per_req", "count"),
    ("router.prefix_hit_rate", "frac"),
    ("router.sim_req_per_s", "1/s"),
    ("trace.overhead_frac", "frac"),
];

/// Wall nanoseconds inside scopes named `name` anywhere under `node`
/// (a match's own subtree is not searched again).
fn scope_ns(node: &NodeStat, name: &str) -> u64 {
    if node.name == name {
        node.total_ns
    } else {
        node.children.iter().map(|c| scope_ns(c, name)).sum()
    }
}

/// Wall ms of a kernel scope on the stepping thread. The scope covers
/// the kernel from dispatch to gather, so the pool's share of the work
/// is inside it.
#[must_use]
pub fn kernel_ms(profile: &Profile, name: &str) -> f64 {
    profile
        .roots
        .iter()
        .filter(|r| r.name == "batcher_step")
        .map(|r| scope_ns(r, name))
        .sum::<u64>() as f64
        / 1e6
}

/// Work the probe's requests implied, computed from shapes: rows through
/// the GEMMs, logits rows, and Σ context over attention rows.
#[derive(Debug, Default, PartialEq)]
pub struct Work {
    /// Token rows through every projection (prefill suffix + decode).
    pub rows: f64,
    /// Rows whose logits were computed.
    pub logit_rows: f64,
    /// Σ over attention rows of the context length attended.
    pub ctx_sum: f64,
}

/// Counts the work of every finished request of `probe`: a request's
/// prefill rows run from its cached prefix to its last prompt token
/// (context `p + 1` at position `p`), then each of its `tokens - 1`
/// decode rows attends to one more position.
#[must_use]
pub fn work(probe: &Probe, reqs: &[Req]) -> Work {
    let mut w = Work::default();
    for (i, req) in reqs.iter().enumerate() {
        let Some(f) = &probe.finished[i] else {
            continue;
        };
        let len = req.prompt.len();
        let cached = probe.cached_tokens[i];
        let decode_rows = f.tokens.len().saturating_sub(1);
        w.rows += (len - cached + decode_rows) as f64;
        w.logit_rows += (1 + decode_rows) as f64;
        // Σ_{p=cached}^{len+decode_rows-1} (p + 1).
        let hi = len + decode_rows;
        w.ctx_sum += (hi * (hi + 1) / 2 - cached * (cached + 1) / 2) as f64;
    }
    w
}

/// Gauge value recorded for the batcher's track, 0 if never set.
fn gauge(rec: &Recording, name: &'static str) -> f64 {
    rec.metrics.gauge(name, 1).unwrap_or(0.0)
}

/// Per-layer metrics of a traced tinyllm probe.
#[must_use]
#[allow(clippy::too_many_arguments)]
pub fn tinyllm_layers(
    cfg: &TinyConfig,
    probe: &Probe,
    reqs: &[Req],
    queue_wait_ms: &[f64],
    profile: &Profile,
    untraced_busy_s: f64,
) -> Vec<(&'static str, f64)> {
    let ms = |v: Vec<f64>, q: f64| percentile(&v, q).unwrap_or(0.0);
    let step_ms = |class: StepClass| -> Vec<f64> {
        probe
            .steps
            .iter()
            .filter(|s| s.class == class)
            .map(|s| (s.end_s - s.start_s) * 1e3)
            .collect()
    };
    let rows = |class: StepClass| -> Vec<f64> {
        probe
            .steps
            .iter()
            .filter(|s| s.class == class)
            .map(|s| s.rows as f64)
            .collect()
    };
    let span_us = |name: &str| -> Vec<f64> {
        probe
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_s - s.start_s) * 1e6)
            .collect()
    };
    let lag_ms: Vec<f64> = reqs
        .iter()
        .zip(&probe.submit_s)
        .map(|(r, s)| (s - r.due_s) * 1e3)
        .collect();
    let steps = probe.steps.len().max(1) as f64;
    let preempting = probe
        .steps
        .iter()
        .filter(|s| s.class == StepClass::Prefill && s.running_before > 0)
        .count();
    let blocked = probe
        .steps
        .iter()
        .filter(|s| s.waiting_before > 0 && s.class != StepClass::Prefill)
        .count();
    let kv: Vec<f64> = probe.steps.iter().map(|s| s.kv_used_frac).collect();
    let owned_max = probe.steps.iter().map(|s| s.cache_owned).max().unwrap_or(0);

    // Computed work: f32, hidden h, L layers, FFN width f, vocab V.
    let w = work(probe, reqs);
    let (h, layers, f, v) = (
        cfg.hidden as f64,
        cfg.layers as f64,
        cfg.ffn as f64,
        cfg.vocab as f64,
    );
    let per_s = |amount: f64, kernel_ms: f64| {
        if kernel_ms > 0.0 {
            amount / (kernel_ms / 1e3) / 1e9
        } else {
            0.0
        }
    };
    let qkv_ms = kernel_ms(profile, "qkv_gemm");
    let attn_ms = kernel_ms(profile, "fused_attn");
    let out_ms = kernel_ms(profile, "out_proj_gemm");
    let ffn_ms = kernel_ms(profile, "ffn");
    let logits_ms = kernel_ms(profile, "logits");
    let append_ms = kernel_ms(profile, "kv_append");

    let busy = probe.busy_s();

    vec![
        ("driver.lag_p99_ms", ms(lag_ms, 0.99)),
        ("sched.queue_wait_p50_ms", ms(queue_wait_ms.to_vec(), 0.5)),
        ("sched.queue_wait_p99_ms", ms(queue_wait_ms.to_vec(), 0.99)),
        (
            "sched.prefill_step_p50_ms",
            ms(step_ms(StepClass::Prefill), 0.5),
        ),
        (
            "sched.prefill_step_p99_ms",
            ms(step_ms(StepClass::Prefill), 0.99),
        ),
        (
            "sched.prefill_tokens_per_step_mean",
            mean(&rows(StepClass::Prefill)),
        ),
        (
            "sched.decode_step_p50_ms",
            ms(step_ms(StepClass::Decode), 0.5),
        ),
        (
            "sched.decode_step_p99_ms",
            ms(step_ms(StepClass::Decode), 0.99),
        ),
        ("sched.decode_batch_mean", mean(&rows(StepClass::Decode))),
        ("sched.decode_preempted_frac", preempting as f64 / steps),
        ("sched.busy_frac", busy / probe.wall_s().max(1e-9)),
        ("sched.admission_blocked_steps", blocked as f64),
        ("kv.used_frac_p50", ms(kv.clone(), 0.5)),
        ("kv.used_frac_max", kv.iter().copied().fold(0.0, f64::max)),
        ("prefix.token_hit_rate", probe.cache.token_hit_rate()),
        ("prefix.request_hit_rate", probe.cache.hit_rate()),
        ("prefix.evictions", probe.cache.evictions as f64),
        ("prefix.owned_blocks_max", owned_max as f64),
        ("prefix.match_p99_us", ms(span_us("match_blocks"), 0.99)),
        ("prefix.offer_p99_us", ms(span_us("offer"), 0.99)),
        ("kernel.qkv_gemm.ms", qkv_ms),
        (
            "kernel.qkv_gemm.gflops",
            per_s(2.0 * w.rows * h * 3.0 * h * layers, qkv_ms),
        ),
        ("kernel.attention.ms", attn_ms),
        // QK^T and PV: 4·ctx·h FLOPs per row per layer; K and V read
        // once per row: 2·ctx·h f32 values.
        (
            "kernel.attention.gflops",
            per_s(4.0 * w.ctx_sum * h * layers, attn_ms),
        ),
        (
            "kernel.attention.gbytes_per_s",
            per_s(8.0 * w.ctx_sum * h * layers, attn_ms),
        ),
        ("kernel.out_proj_gemm.ms", out_ms),
        (
            "kernel.out_proj_gemm.gflops",
            per_s(2.0 * w.rows * h * h * layers, out_ms),
        ),
        ("kernel.ffn.ms", ffn_ms),
        (
            "kernel.ffn.gflops",
            per_s(4.0 * w.rows * h * f * layers, ffn_ms),
        ),
        ("kernel.logits.ms", logits_ms),
        (
            "kernel.logits.gflops",
            per_s(2.0 * w.logit_rows * h * v, logits_ms),
        ),
        ("kernel.kv_append.ms", append_ms),
        // One K and one V row written per token row per layer.
        (
            "kernel.kv_append.gbytes_per_s",
            per_s(8.0 * w.rows * h * layers, append_ms),
        ),
        (
            "trace.overhead_frac",
            busy / untraced_busy_s.max(1e-9) - 1.0,
        ),
    ]
}

/// The worker pool's metrics from the pool gauges a multi-lane pass
/// recorded: workers' share of time busy, and the stepping thread's
/// dispatch wait as a share of the pass's busy seconds. `before` is the
/// pool's utilization when the pass started.
#[must_use]
pub fn pool_layers(
    recording: &Recording,
    before: &PoolUtilization,
    busy_s: f64,
) -> Vec<(&'static str, f64)> {
    let pool_busy: f64 = gauge(recording, metrics::POOL_BUSY_S)
        - before.workers.iter().map(|u| u.busy_s).sum::<f64>();
    let pool_idle: f64 = gauge(recording, metrics::POOL_IDLE_S)
        - before.workers.iter().map(|u| u.idle_s).sum::<f64>();
    let dispatch_wait = gauge(recording, metrics::POOL_DISPATCH_WAIT_S) - before.dispatch_wait_s;
    vec![
        (
            "pool.busy_frac",
            pool_busy / (pool_busy + pool_idle).max(1e-9),
        ),
        ("pool.dispatch_wait_frac", dispatch_wait / busy_s.max(1e-9)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use tinyllm::scheduler::FinishedGen;

    #[test]
    fn work_counts_rows_and_context() {
        let reqs = vec![Req {
            due_s: 0.0,
            prompt: vec![1; 40],
            max_new: 3,
        }];
        let probe = Probe::for_test(
            vec![Some(FinishedGen {
                id: 0,
                tokens: vec![5, 6, 7],
                first_token_step: 1,
                completion_step: 3,
            })],
            vec![32],
        );
        let w = work(&probe, &reqs);
        // Prefill rows at positions 32..40 (8), decode rows at 40, 41.
        assert_eq!(w.rows, 10.0);
        assert_eq!(w.logit_rows, 3.0);
        // Contexts 33..=42.
        assert_eq!(w.ctx_sum, (33..=42).sum::<usize>() as f64);
    }
}
