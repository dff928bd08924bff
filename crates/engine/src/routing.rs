//! Router integration for the serving simulator.
//!
//! In routed mode ([`crate::ServingSim::new_routed`]) every arrival —
//! and every fault-driven re-dispatch — is decided by the pure
//! `distserve_router::route` core instead of the built-in
//! shortest-queue heuristics. [`RouterCtl`] owns the persistent
//! [`RouterState`] (refreshed in place per consultation, so the hot
//! path allocates nothing) and the decision log. Replay mode swaps the
//! decision core for the recorded log: the simulator asks the same
//! questions in the same order and gets the same answers, which is what
//! makes a routed run reproducible byte-for-byte from its log.

use std::collections::VecDeque;

use distserve_router::{
    route, Decision, DecisionRecord, ReplicaId, ReplicaSnapshot, RequestFeatures, RouterPolicy,
    RouterState,
};
use distserve_simcore::FastHashMap;

use crate::spec::InstanceRole;

/// Where routing verdicts come from.
enum RouterMode {
    /// Consult the decision core against a fresh state snapshot.
    Live(Box<RouterState>),
    /// Pop pre-recorded decisions (with their original trace ids), per
    /// request in consultation order.
    Replay(FastHashMap<u64, VecDeque<(Decision, u64)>>),
}

/// The simulator's router attachment: decision source plus log.
pub(crate) struct RouterCtl {
    mode: RouterMode,
    /// Every verdict issued this run, in decision order. A request that
    /// queues appears once per consultation.
    pub(crate) log: Vec<DecisionRecord>,
    /// Replay mode: the first request the log held no further decision
    /// for. The run stops there with an error.
    pub(crate) exhausted: Option<u64>,
}

impl RouterCtl {
    /// Live mode over `initial` replica snapshots (typically all idle;
    /// they are rewritten on every consultation).
    pub(crate) fn live(initial: Vec<ReplicaSnapshot>, policy: RouterPolicy, seed: u64) -> Self {
        RouterCtl {
            mode: RouterMode::Live(Box::new(RouterState::new(initial, policy, seed))),
            log: Vec::new(),
            exhausted: None,
        }
    }

    /// Replay mode over a recorded decision log, checked against the
    /// fleet (`roles[i]` is instance `i`'s role).
    ///
    /// # Errors
    ///
    /// Returns a message naming the request of the first record whose
    /// replica is out of range or plays the wrong role for its decision
    /// kind, or whose queue delay is not a finite non-negative number.
    pub(crate) fn replay(
        records: &[DecisionRecord],
        roles: &[InstanceRole],
    ) -> Result<Self, String> {
        let mut per_request: FastHashMap<u64, VecDeque<(Decision, u64)>> = FastHashMap::default();
        for rec in records {
            let decision = rec.decision()?;
            check_replayable(&decision, roles)
                .map_err(|e| format!("record for request {}: {e}", rec.request))?;
            per_request
                .entry(rec.request)
                .or_default()
                .push_back((decision, rec.trace_id));
        }
        Ok(RouterCtl {
            mode: RouterMode::Replay(per_request),
            log: Vec::new(),
            exhausted: None,
        })
    }

    /// Issues the verdict for `req` given the current fleet `snapshots`
    /// (ignored in replay mode) and appends it to the log. Returns `None`
    /// in replay mode when the log holds no further decision for this
    /// request (the log does not match the run) and records the request
    /// in [`RouterCtl::exhausted`].
    pub(crate) fn consult<I>(&mut self, snapshots: I, req: &RequestFeatures) -> Option<Decision>
    where
        I: IntoIterator<Item = ReplicaSnapshot>,
    {
        let (decision, trace_id) = match &mut self.mode {
            RouterMode::Live(state) => {
                state.refresh(snapshots);
                let tid = distserve_telemetry::trace_id(state.seed(), req.id);
                (route(state, req), tid)
            }
            RouterMode::Replay(per_request) => {
                let Some(next) = per_request.get_mut(&req.id).and_then(VecDeque::pop_front) else {
                    self.exhausted = Some(req.id);
                    return None;
                };
                next
            }
        };
        self.log.push(
            DecisionRecord::new(req.id, &decision)
                .with_trace_id(trace_id)
                .with_prefix(req.prefix_group, req.matched_tokens),
        );
        Some(decision)
    }
}

/// Whether `decision` can run on a fleet whose instance `i` plays
/// `roles[i]`: the engine indexes instances by the logged replica ids.
fn check_replayable(decision: &Decision, roles: &[InstanceRole]) -> Result<(), String> {
    let expect = |replica: ReplicaId, role: InstanceRole| match roles.get(replica.0 as usize) {
        Some(&r) if r == role => Ok(()),
        Some(r) => Err(format!("replica {} is {r:?}, not {role:?}", replica.0)),
        None => Err(format!(
            "replica {} does not exist in a fleet of {}",
            replica.0,
            roles.len()
        )),
    };
    match *decision {
        Decision::Disagg { prefill, decode } => {
            expect(prefill, InstanceRole::Prefill)?;
            expect(decode, InstanceRole::Decode)
        }
        Decision::Coloc { replica } => expect(replica, InstanceRole::Colocated),
        Decision::Queue { retry_after_secs }
            if !(retry_after_secs >= 0.0 && retry_after_secs.is_finite()) =>
        {
            Err(format!(
                "queue delay {retry_after_secs} s is not finite and non-negative"
            ))
        }
        Decision::Queue { .. } | Decision::Shed { .. } => Ok(()),
    }
}
