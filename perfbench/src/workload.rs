//! The benchmark's traffic mixes: their fixed limits and rates, and the
//! seeded generators that turn a seed into requests.
//!
//! The latency limits and nominal rates below are absolute numbers, set
//! once from measurements of the engine at the commit that introduced
//! this benchmark (2-core x86-64 host) and never derived at run time:
//! each nominal rate sits well below that commit's knee, so a later
//! slowdown shows as worse latency rather than as a moving target.

use distserve_simcore::SimRng;
use distserve_workload::{
    sessions::SESSION_GROUP_BASE, ChatConfig, ChatSessionStream, LengthSampler, SessionRequest,
};

/// Longest sequence (prompt plus output) the model's positions allow.
pub const MAX_SEQ: usize = 512;
/// Vocabulary of `TinyConfig::small()`.
const VOCAB: u64 = 512;

/// One request as the open-loop driver sees it.
#[derive(Debug, Clone)]
pub struct Req {
    /// Seconds after the probe starts at which the request is due.
    pub due_s: f64,
    /// Prompt tokens.
    pub prompt: Vec<u32>,
    /// Tokens to generate.
    pub max_new: usize,
}

/// Which generator a tinyllm workload uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// Long unshared prompts, short outputs.
    LongPrompt,
    /// Multi-turn sessions with shared system prompts and history.
    MultiturnPrefix,
}

/// A tinyllm workload: its mix, limits and rates.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Workload name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Generator.
    pub mix: Mix,
    /// Time-to-first-token limit, ms.
    pub ttft_slo_ms: f64,
    /// Time-per-output-token limit, ms.
    pub tpot_slo_ms: f64,
    /// Offered rate of the nominal-rate run, requests/s.
    pub nominal_rps: f64,
    /// Offered rate at the start and at the end of a goodput ramp: below
    /// the slowest knee and above the fastest one seen on the host the
    /// limits were set on, so a faster engine has room to show.
    pub ramp_rps: (f64, f64),
}

/// The tinyllm workloads.
pub const SPECS: [Spec; 2] = [
    Spec {
        name: "long_prompt",
        mix: Mix::LongPrompt,
        ttft_slo_ms: 100.0,
        tpot_slo_ms: 15.0,
        nominal_rps: 20.0,
        ramp_rps: (90.0, 260.0),
    },
    Spec {
        name: "multiturn_prefix",
        mix: Mix::MultiturnPrefix,
        ttft_slo_ms: 50.0,
        tpot_slo_ms: 10.0,
        nominal_rps: 30.0,
        ramp_rps: (90.0, 230.0),
    },
];

/// Looks up a tinyllm workload by name.
#[must_use]
pub fn spec(name: &str) -> Option<Spec> {
    SPECS.iter().copied().find(|s| s.name == name)
}

/// A token id that is a pure function of `(lineage, position)`: equal
/// lineages give equal tokens, so shared history is real shared text.
fn token(lineage: u64, pos: usize) -> u32 {
    let mut x = lineage
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(pos as u64)
        .wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 31;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 29;
    (x % VOCAB) as u32
}

/// Uniform integer in `lo..=hi`.
fn uniform(rng: &mut SimRng, lo: usize, hi: usize) -> usize {
    lo + rng.below((hi - lo + 1) as u64) as usize
}

/// Arrivals in groups of `group` requests due at the same instant, the
/// groups Poisson at `rate / group`; prompt and output lengths drawn by
/// `lengths`; every prompt unshared (its own lineage).
fn grouped(
    n: usize,
    rate: f64,
    group: usize,
    seed: u64,
    lengths: impl Fn(&mut SimRng) -> (usize, usize),
) -> Vec<Req> {
    let root = SimRng::seed(seed);
    let mut arrivals = root.split("arrivals");
    let mut shapes = root.split("lengths");
    let mut t = 0.0;
    (0..n)
        .map(|i| {
            if i % group == 0 {
                t += -arrivals.uniform_open().ln() * group as f64 / rate;
            }
            let (p, out) = lengths(&mut shapes);
            let lineage = seed.rotate_left(20) ^ (i as u64 + 1);
            Req {
                due_s: t,
                prompt: (0..p).map(|pos| token(lineage, pos)).collect(),
                max_new: out,
            }
        })
        .collect()
}

/// Requests per arrival group of the long-prompt mix: three prompts of
/// at most 160 tokens always fit one prefill step's 512-token budget, so
/// a group never interrupts its own first members' decode.
const LONG_GROUP: usize = 3;

/// Session shape of the multi-turn mix.
const TENANTS: u32 = 4;
const SYSTEM_TOKENS: u32 = 64;
const MEAN_TURNS: f64 = 3.0;
const THINK_MEAN_S: f64 = 0.5;
/// Seconds of session traffic dropped before a run starts, so the
/// stream is already in its steady state: at its start it holds only
/// opening turns, and its rate is below the offered one.
const BURN_IN_S: f64 = 3.0;

/// Fresh user tokens and reply length of one turn.
struct TurnLengths;

impl LengthSampler for TurnLengths {
    fn sample(&self, rng: &mut SimRng) -> (u32, u32) {
        let fresh = 8 + rng.below(25) as u32;
        let reply = 8 + rng.below(41) as u32;
        (fresh, reply)
    }

    fn name(&self) -> &str {
        "multiturn"
    }
}

/// `workload::sessions` chat streams, one per tenant, merged by arrival.
/// Token ids come from the lineage and the position: the first
/// `SYSTEM_TOKENS` from the tenant's system prompt, the rest from the
/// conversation, so a later turn re-sends exactly the tokens of the
/// earlier turn's prompt and reply. Branching is off, so every history
/// is a true prefix of the conversation. Turns that would pass the
/// 512-token limit end the conversation's traffic. The first
/// [`BURN_IN_S`] seconds are dropped: a run joins conversations already
/// under way.
fn sessions(n: usize, rate: f64, seed: u64) -> Vec<Req> {
    let mut merged: Vec<(u32, u64, SessionRequest)> = Vec::new();
    for tenant in 0..TENANTS {
        let cfg = ChatConfig {
            session_rate: rate / MEAN_TURNS / f64::from(TENANTS),
            mean_turns: MEAN_TURNS,
            think_mean_s: THINK_MEAN_S,
            branch_prob: 0.0,
            system_prompt_tokens: SYSTEM_TOKENS,
            tenant,
        };
        let stream =
            ChatSessionStream::new(cfg, Box::new(TurnLengths), seed ^ u64::from(tenant) << 48);
        // Opening turns carry the tenant's group, not the session's;
        // the stream numbers sessions in order of their opening turns.
        let mut opened = 0;
        merged.extend(
            stream
                .map(|s| {
                    let session = if s.turn == 0 {
                        opened += 1;
                        opened - 1
                    } else {
                        s.prefix_group - SESSION_GROUP_BASE
                    };
                    (tenant, session, s)
                })
                .filter(|(_, _, s)| {
                    (s.request.input_len + s.request.output_len) as usize <= MAX_SEQ
                        && s.request.arrival.as_secs() >= BURN_IN_S
                })
                .take(n),
        );
    }
    merged.sort_by(|a, b| {
        a.2.request
            .arrival
            .as_secs()
            .total_cmp(&b.2.request.arrival.as_secs())
    });
    merged.truncate(n);
    merged
        .into_iter()
        .map(|(tenant, session, s)| {
            let system = (seed << 8) ^ u64::from(tenant);
            let conversation =
                (seed << 8) ^ (u64::from(tenant) << 40 | session).rotate_left(8) ^ 0xC0;
            let prompt = (0..s.request.input_len as usize)
                .map(|pos| {
                    if pos < SYSTEM_TOKENS as usize {
                        token(system, pos)
                    } else {
                        token(conversation, pos)
                    }
                })
                .collect();
            Req {
                due_s: s.request.arrival.as_secs() - BURN_IN_S,
                prompt,
                max_new: s.request.output_len as usize,
            }
        })
        .collect()
}

/// `n` requests of `mix` offered at `rate` requests/s, from `seed`. The
/// arrival times are scaled so that the last request is due at exactly
/// `n / rate` seconds: a probe offers its nominal rate, whatever the
/// session structure or the seed's luck.
#[must_use]
pub fn generate(mix: Mix, n: usize, rate: f64, seed: u64) -> Vec<Req> {
    let mut reqs = draw(mix, n, rate, seed);
    if let Some(last) = reqs.last().map(|r| r.due_s).filter(|&t| t > 0.0) {
        let scale = n as f64 / rate / last;
        for r in &mut reqs {
            r.due_s *= scale;
        }
    }
    reqs
}

/// Requests of `mix` whose offered rate rises linearly from `lo` to `hi`
/// requests/s over `seconds`, from `seed`: the mix's arrival process at
/// the ramp's mean rate, with time warped so that the expected count by
/// time `t` is `lo·t + (hi − lo)·t²/(2·seconds)`. Groups stay groups and
/// sessions stay in order; think times stretch or shrink by at most the
/// ratio of the mean rate to the current one.
#[must_use]
pub fn ramp(mix: Mix, lo: f64, hi: f64, seconds: f64, seed: u64) -> Vec<Req> {
    let mean = (lo + hi) / 2.0;
    let n = (mean * seconds) as usize;
    let mut reqs = generate(mix, n, mean, seed);
    let slope = (hi - lo) / seconds;
    for r in &mut reqs {
        // Expected arrivals by the request's due time at the mean rate.
        let count = r.due_s * mean;
        r.due_s = if slope > 0.0 {
            ((lo * lo + 2.0 * slope * count).sqrt() - lo) / slope
        } else {
            count / lo
        };
    }
    reqs
}

/// Offered rate of a [`ramp`] at `t` seconds.
#[must_use]
pub fn ramp_rate(lo: f64, hi: f64, seconds: f64, t: f64) -> f64 {
    lo + (hi - lo) * t / seconds
}

fn draw(mix: Mix, n: usize, rate: f64, seed: u64) -> Vec<Req> {
    match mix {
        Mix::LongPrompt => grouped(n, rate, LONG_GROUP, seed, |rng| {
            (uniform(rng, 96, 160), uniform(rng, 12, 24))
        }),
        Mix::MultiturnPrefix => sessions(n, rate, seed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        for s in SPECS {
            let a = generate(s.mix, 300, 50.0, 7);
            let b = generate(s.mix, 300, 50.0, 7);
            let c = generate(s.mix, 300, 50.0, 8);
            assert_eq!(a.len(), 300);
            assert!(a
                .iter()
                .zip(&b)
                .all(|(x, y)| x.prompt == y.prompt && x.due_s == y.due_s));
            assert!(a.iter().zip(&c).any(|(x, y)| x.prompt != y.prompt));
            assert!(a.windows(2).all(|w| w[0].due_s <= w[1].due_s));
            assert!((a[299].due_s - 300.0 / 50.0).abs() < 1e-9);
            assert!(a
                .iter()
                .all(|r| r.prompt.len() + r.max_new <= MAX_SEQ && r.max_new >= 1));
        }
    }

    #[test]
    fn ramp_rate_rises_as_stated() {
        for s in SPECS {
            let reqs = ramp(s.mix, 100.0, 300.0, 10.0, 5);
            assert_eq!(reqs.len(), 2000);
            assert!(reqs.windows(2).all(|w| w[0].due_s <= w[1].due_s));
            assert!((reqs[1999].due_s - 10.0).abs() < 1e-9);
            // Each half of the ramp offers its expected count, within
            // sampling noise: 750 and 1250.
            let first = reqs.iter().filter(|r| r.due_s < 5.0).count() as f64;
            let want = 5.0 * ramp_rate(100.0, 300.0, 10.0, 2.5);
            assert!((first - want).abs() < 0.2 * want, "{}: {first}", s.name);
        }
    }

    #[test]
    fn later_turns_resend_earlier_turns() {
        let reqs = generate(Mix::MultiturnPrefix, 400, 40.0, 3);
        // Every prompt opens with one of the tenants' system prompts.
        let mut systems: Vec<&[u32]> = reqs
            .iter()
            .map(|r| &r.prompt[..SYSTEM_TOKENS as usize])
            .collect();
        systems.sort();
        systems.dedup();
        assert_eq!(systems.len(), TENANTS as usize);
        // Some prompt extends an earlier prompt well past the system
        // prompt (a continued conversation).
        let extends = reqs.iter().enumerate().any(|(i, r)| {
            reqs[..i].iter().any(|e| {
                e.prompt.len() > SYSTEM_TOKENS as usize + 8
                    && r.prompt.len() > e.prompt.len()
                    && r.prompt.starts_with(&e.prompt)
            })
        });
        assert!(extends);
    }
}
