//! The router layer's traffic: streamed multi-turn chat sessions through
//! the routed request-granular simulator, with prefix lineages visible
//! to the cache-affine router.

use std::time::Instant;

use distserve_router::{
    Assignment, FleetSpec, RouterPolicy, ScaleOutcome, ScaleSim, ScaleSlo, ServiceProfile,
};
use distserve_workload::{ChatConfig, ChatSessionStream, Dataset, SessionRequest};

/// Offered request rate, below the fleet's knee (about 45 rps) but high
/// enough that bursts queue.
const RATE_RPS: f64 = 36.0;
/// Mean turns per chat session.
const MEAN_TURNS: f64 = 5.0;

/// The repository's reference fleet shape (prefill, decode, colocated).
fn fleet() -> FleetSpec {
    FleetSpec {
        prefill: 6,
        decode: 10,
        colocated: 8,
        profile: ServiceProfile::a100_13b(),
    }
}

fn policy() -> RouterPolicy {
    RouterPolicy {
        queue_cap: 4,
        max_wait_secs: 0.5,
        retry_gap_secs: 0.1,
        ..RouterPolicy::default()
    }
}

/// `n` session requests offered at about `RATE_RPS`.
fn sessions(n: usize, seed: u64) -> impl Iterator<Item = SessionRequest> {
    let cfg = ChatConfig {
        session_rate: RATE_RPS / MEAN_TURNS,
        mean_turns: MEAN_TURNS,
        think_mean_s: 2.0,
        branch_prob: 0.1,
        system_prompt_tokens: 256,
        tenant: 0,
    };
    ChatSessionStream::new(cfg, Dataset::ShareGpt.sampler(), seed).take(n)
}

/// Routes `n` session requests through a fresh simulator; returns the
/// outcome and the wall seconds the simulation took.
#[must_use]
pub fn run(n: usize, seed: u64) -> (ScaleOutcome, f64) {
    let slo = ScaleSlo {
        ttft_s: 1.0,
        tpot_s: 0.1,
    };
    let sim = ScaleSim::new(fleet(), policy(), slo, Assignment::Routed, seed);
    let stream = sessions(n, seed);
    let t = Instant::now();
    let out = sim.run_sessions(stream);
    (out, t.elapsed().as_secs_f64())
}
