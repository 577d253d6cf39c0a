//! [`BanditWare`] — the user-facing recommender facade.
//!
//! Couples a [`Policy`] with the arm metadata and a complete run history, and
//! exposes the framework's two-call protocol in two flavours:
//!
//! * **Ticketed** (the serving path): [`BanditWare::recommend_ticketed`]
//!   returns a [`Ticket`] alongside the recommendation; the observed runtime
//!   is attributed later via [`BanditWare::record_ticket`]. Arbitrarily many
//!   rounds may be in flight at once, tickets may be recorded **out of
//!   order**, and a round that never completes can be abandoned with
//!   [`BanditWare::drop_ticket`]. [`BanditWare::recommend_batch_frame`]
//!   selects a whole columnar burst ([`FeatureFrame`]) in one policy pass
//!   (for [`crate::ScaledPolicy`], one scaler pass);
//!   [`BanditWare::record_batch_frame`] validates a burst of outcomes
//!   atomically and absorbs it in one columnar policy pass. Callers that
//!   hold row-major contexts build the frame with
//!   [`FeatureFrame::from_rows`] / [`FeatureFrame::fill_from_rows`].
//! * **Legacy single-slot**: [`BanditWare::recommend`] +
//!   [`BanditWare::record`] keep the original strictly-alternating protocol.
//!   They are a shim over the ticket table; calling `recommend` twice
//!   without recording is now an explicit
//!   [`crate::CoreError::RecommendationPending`] instead of a silent
//!   overwrite.
//!
//! A convenience [`BanditWare::run_round`] does recommend + record around a
//! user-supplied executor closure (e.g. a cluster submission).
//!
//! Every context enters through this facade — recommend, batch recommend,
//! ticket re-open, external record and replay — and each entry point
//! rejects a NaN or infinite feature with
//! [`crate::CoreError::NonFiniteFeature`] before the policy sees it. So no
//! in-flight round and no absorbed observation ever holds one, whichever of
//! the nine policies is behind the facade; one absorbed non-finite value
//! would poison a tenant's estimates for good.

use crate::frame::{FeatureFrame, ObservationFrame};
use crate::policy::{ArmSpec, Policy, Selection};
use crate::{CoreError, Result};
use std::collections::BTreeMap;

/// One remembered round.
#[derive(Debug, Clone, PartialEq)]
pub struct Observation {
    /// 0-based round counter.
    pub round: usize,
    /// Chosen arm.
    pub arm: usize,
    /// The workflow's context features.
    pub features: Vec<f64>,
    /// Observed runtime (seconds).
    pub runtime: f64,
    /// Whether the round was an exploration draw.
    pub explored: bool,
}

/// A recommendation returned to the caller.
#[derive(Debug, Clone, PartialEq)]
pub struct Recommendation {
    /// Chosen arm index.
    pub arm: usize,
    /// Arm display name — a shared handle into the recommender's
    /// [`ArmSpec`] table, so handing it out per request is a refcount
    /// bump, not a string allocation.
    pub name: std::sync::Arc<str>,
    /// Arm resource cost.
    pub resource_cost: f64,
    /// Predicted runtime under the current model (NaN before any fit).
    pub predicted_runtime: f64,
    /// Whether this was an exploration draw.
    pub explored: bool,
}

/// How much of the observation log a [`BanditWare`] keeps in memory.
///
/// Every policy in this crate is a deterministic function of its
/// *sufficient statistics* (snapshotted exactly by
/// [`crate::Policy::snapshot`]), so the log is **not** needed to operate —
/// it exists for inspection, v2-style replay checkpoints, and per-arm
/// summaries. Under `Tail`/`None` the steady-state memory of a tenant is
/// O(m² + tail) instead of O(rounds): the round counter keeps counting
/// ([`BanditWare::rounds`] reports the true total) while old observations
/// are dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Retention {
    /// Keep every observation (the historical default; required for
    /// faithful v2 replay checkpoints of the full run).
    Full,
    /// Keep only the most recent `n` observations.
    Tail(usize),
    /// Keep no observations at all.
    None,
}

/// Opaque handle for an in-flight round: issued by
/// [`BanditWare::recommend_ticketed`], consumed by
/// [`BanditWare::record_ticket`].
///
/// Ids are assigned from a monotone per-recommender counter, so they are
/// stable across checkpoints ([`crate::persist`] serializes open tickets by
/// id) and can travel through external systems (e.g. as a job tag on a
/// cluster submission).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Ticket(u64);

impl Ticket {
    /// The raw ticket id (for logs, job tags, checkpoints).
    pub fn id(self) -> u64 {
        self.0
    }

    /// Rebuild a ticket from a raw id (e.g. one that travelled through a
    /// job queue or a checkpoint). Recording it still requires the id to be
    /// in the recommender's in-flight table.
    pub fn from_id(id: u64) -> Self {
        Ticket(id)
    }
}

impl std::fmt::Display for Ticket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// The remembered half of an unfinished round.
#[derive(Debug, Clone, PartialEq)]
pub struct InFlightRound {
    /// Chosen arm.
    pub arm: usize,
    /// Context the recommendation was made for.
    pub features: Vec<f64>,
    /// Whether the selection was an exploration draw.
    pub explored: bool,
}

/// Reject a context holding a NaN or infinite feature (see the module docs).
fn check_finite(x: &[f64]) -> Result<()> {
    match x.iter().position(|v| !v.is_finite()) {
        Some(index) => Err(CoreError::NonFiniteFeature { index, value: x[index] }),
        None => Ok(()),
    }
}

/// The BanditWare recommender: policy + hardware metadata + history +
/// in-flight ticket table.
#[derive(Debug, Clone)]
pub struct BanditWare<P: Policy> {
    policy: P,
    specs: Vec<ArmSpec>,
    history: Vec<Observation>,
    /// Rounds recorded but no longer retained in `history` (dropped by the
    /// retention policy, elided by a stats-only restore, or quarantined on
    /// replay by [`BanditWare::quarantine_round`]). The absolute
    /// round counter is `base_rounds + history.len()`.
    base_rounds: usize,
    retention: Retention,
    // BTreeMap keeps iteration (and therefore checkpoint serialization)
    // deterministic in ticket order.
    in_flight: BTreeMap<u64, InFlightRound>,
    next_ticket: u64,
    legacy_pending: Option<Ticket>,
    /// Scratch: batched selections ([`BanditWare::recommend_batch_frame`]
    /// reuses this across bursts so the batched select path allocates
    /// nothing in steady state).
    batch_sels: Vec<Selection>,
    /// Scratch: the one-row gather buffer a policy's frame select/observe
    /// uses when it has no columnar kernel (see
    /// [`Policy::select_frame_into`]), reused across bursts.
    batch_row: Vec<f64>,
    /// Scratch: sorted ticket ids for duplicate detection in
    /// [`BanditWare::validate_record_batch`] (replaces a per-call
    /// `HashSet`, so batch validation allocates nothing in steady state).
    batch_ids: Vec<u64>,
    /// Scratch: the rounds closed by an in-progress
    /// [`BanditWare::record_batch_frame`], staged out of the ticket table.
    batch_rounds: Vec<InFlightRound>,
    /// Scratch: the columnar observation batch
    /// ([`BanditWare::record_batch_frame`] stages each burst here, reused
    /// across bursts).
    batch_obs: ObservationFrame,
    /// Scratch: per-row absorbed flags from the policy's frame observe.
    batch_absorbed: Vec<bool>,
}

impl<P: Policy> BanditWare<P> {
    /// Wrap a policy. `specs` must match the policy's arm count.
    ///
    /// # Panics
    /// Panics on an arm-count mismatch (construction-time programmer error).
    pub fn new(policy: P, specs: Vec<ArmSpec>) -> Self {
        assert_eq!(policy.n_arms(), specs.len(), "policy arms != specs");
        BanditWare {
            policy,
            specs,
            history: Vec::new(),
            base_rounds: 0,
            retention: Retention::Full,
            in_flight: BTreeMap::new(),
            next_ticket: 0,
            legacy_pending: None,
            batch_sels: Vec::new(),
            batch_row: Vec::new(),
            batch_ids: Vec::new(),
            batch_rounds: Vec::new(),
            batch_obs: ObservationFrame::new(),
            batch_absorbed: Vec::new(),
        }
    }

    /// Builder-style retention policy (see [`Retention`]).
    pub fn with_retention(mut self, retention: Retention) -> Self {
        self.set_retention(retention);
        self
    }

    /// Change the retention policy. Tightening it trims the stored history
    /// immediately; the absolute round counter is unaffected.
    pub fn set_retention(&mut self, retention: Retention) {
        self.retention = retention;
        self.apply_retention();
    }

    /// The active retention policy.
    pub fn retention(&self) -> Retention {
        self.retention
    }

    fn apply_retention(&mut self) {
        let keep = match self.retention {
            Retention::Full => return,
            Retention::Tail(n) => n,
            Retention::None => 0,
        };
        if self.history.len() > keep {
            let drop = self.history.len() - keep;
            self.history.drain(..drop);
            self.base_rounds += drop;
        }
    }

    /// Append one completed round, stamping the absolute round number and
    /// applying the retention policy.
    fn push_history(&mut self, arm: usize, features: Vec<f64>, runtime: f64, explored: bool) {
        let round = self.rounds();
        if matches!(self.retention, Retention::None) {
            self.base_rounds += 1;
            return;
        }
        self.history.push(Observation { round, arm, features, runtime, explored });
        self.apply_retention();
    }

    /// The wrapped policy (read access, e.g. for reporting fitted models).
    pub fn policy(&self) -> &P {
        &self.policy
    }

    /// Mutable access to the wrapped policy — the checkpoint-restore hook
    /// ([`crate::persist::restore_checkpoint`] restores the policy state in
    /// place).
    pub(crate) fn policy_mut(&mut self) -> &mut P {
        &mut self.policy
    }

    /// Replace the stored history with a restored tail whose rounds end at
    /// `total_rounds` (the stats-only v3 restore path: the policy already
    /// contains every observation's effect, the tail is retained context).
    pub(crate) fn install_history(&mut self, total_rounds: usize, tail: Vec<Observation>) {
        debug_assert!(tail.len() <= total_rounds);
        self.base_rounds = total_rounds - tail.len();
        self.history = tail;
        self.apply_retention();
    }

    /// Arm metadata.
    pub fn specs(&self) -> &[ArmSpec] {
        &self.specs
    }

    /// The **retained** observations (the most recent tail under
    /// [`Retention::Tail`], everything under [`Retention::Full`]).
    /// `Observation::round` carries the absolute round number even when
    /// earlier rounds have been dropped.
    pub fn history(&self) -> &[Observation] {
        &self.history
    }

    /// Rounds recorded over the recommender's lifetime — counts retained
    /// *and* dropped observations.
    pub fn rounds(&self) -> usize {
        self.base_rounds + self.history.len()
    }

    /// Tickets currently awaiting their runtime, in ascending id order.
    pub fn open_tickets(&self) -> Vec<Ticket> {
        self.in_flight.keys().map(|&id| Ticket(id)).collect()
    }

    /// Number of rounds currently in flight.
    pub fn in_flight(&self) -> usize {
        self.in_flight.len()
    }

    /// The remembered selection of an open ticket (`None` when the ticket
    /// is not in flight). Durable serving layers read this to log the full
    /// observation (arm, context, exploration flag) alongside the runtime
    /// when a ticket is recorded.
    pub fn in_flight_round(&self, ticket: Ticket) -> Option<&InFlightRound> {
        self.in_flight.get(&ticket.0)
    }

    /// Iterate over the open rounds (ticket + remembered selection), in
    /// ascending ticket order. Used by [`crate::persist`] to checkpoint
    /// mid-flight state.
    pub fn open_rounds(&self) -> impl Iterator<Item = (Ticket, &InFlightRound)> + '_ {
        self.in_flight.iter().map(|(&id, round)| (Ticket(id), round))
    }

    /// The id the next issued ticket will get. Checkpointed alongside the
    /// open tickets: ids of rounds recorded *before* a crash must never be
    /// reissued afterwards, or a reporter retrying a lost ack would record
    /// against a fresh, unrelated round.
    pub fn next_ticket_id(&self) -> u64 {
        self.next_ticket
    }

    /// Ensure future tickets are issued at or above `next` (monotone: a
    /// lower value is ignored). The checkpoint-restore path calls this with
    /// the saved counter.
    pub fn advance_ticket_counter(&mut self, next: u64) {
        self.next_ticket = self.next_ticket.max(next);
    }

    fn issue_ticket(&mut self, arm: usize, features: Vec<f64>, explored: bool) -> Ticket {
        let ticket = Ticket(self.next_ticket);
        self.next_ticket += 1;
        self.in_flight.insert(ticket.0, InFlightRound { arm, features, explored });
        ticket
    }

    fn recommendation_for(&self, arm: usize, explored: bool, features: &[f64]) -> Recommendation {
        let predicted = self.policy.predict(arm, features).unwrap_or(f64::NAN);
        let spec = &self.specs[arm];
        Recommendation {
            arm,
            name: spec.name.clone(),
            resource_cost: spec.resource_cost,
            predicted_runtime: predicted,
            explored,
        }
    }

    /// Recommend hardware for a workflow and open a ticket for the round.
    /// Any number of tickets may be open at once; record them in any order
    /// via [`BanditWare::record_ticket`].
    ///
    /// # Errors
    /// [`crate::CoreError::NonFiniteFeature`] for a NaN or infinite
    /// feature; propagates policy validation (feature arity).
    pub fn recommend_ticketed(&mut self, features: &[f64]) -> Result<(Ticket, Recommendation)> {
        check_finite(features)?;
        let sel = self.policy.select(features)?;
        let rec = self.recommendation_for(sel.arm, sel.explored, features);
        let ticket = self.issue_ticket(sel.arm, features.to_vec(), sel.explored);
        Ok((ticket, rec))
    }

    /// Recommend hardware for a whole batch of workflows, one per row of a
    /// columnar [`FeatureFrame`]: one policy frame pass (selections are
    /// made against the same model state; for [`crate::ScaledPolicy`] the
    /// scaler runs once for the batch), then per-row ticket bookkeeping.
    /// Returns one `(ticket, recommendation)` per row, in row order. This
    /// is the layout the serving front-end builds once per coalesced
    /// burst; row-major callers transpose once with
    /// [`FeatureFrame::from_rows`].
    ///
    /// # Errors
    /// [`crate::CoreError::NonFiniteFeature`] when any row holds a NaN or
    /// infinite feature (`index` names the feature); propagates policy
    /// validation. On error no tickets are issued.
    pub fn recommend_batch_frame(
        &mut self,
        frame: &FeatureFrame,
    ) -> Result<Vec<(Ticket, Recommendation)>> {
        for f in 0..frame.n_features() {
            if let Some(&value) = frame.column(f).iter().find(|v| !v.is_finite()) {
                return Err(CoreError::NonFiniteFeature { index: f, value });
            }
        }
        // Zero-alloc select path: selections land in a recommender-owned
        // scratch buffer. The per-round work below is ticket bookkeeping
        // only (the remembered features and the recommendation's display
        // name are the two owned values the API hands out).
        let BanditWare { policy, batch_sels, batch_row, .. } = self;
        policy.select_frame_into(frame, batch_sels, batch_row)?;
        let mut out = Vec::with_capacity(self.batch_sels.len());
        for i in 0..self.batch_sels.len() {
            let sel = self.batch_sels[i];
            let x = frame.row_to_vec(i);
            let rec = self.recommendation_for(sel.arm, sel.explored, &x);
            let ticket = self.issue_ticket(sel.arm, x, sel.explored);
            out.push((ticket, rec));
        }
        Ok(out)
    }

    /// Record the observed runtime of an in-flight round. Tickets may be
    /// recorded in any order relative to their issuance.
    ///
    /// On a validation failure (e.g. [`crate::CoreError::InvalidRuntime`])
    /// the ticket **stays open** so the caller can retry with a corrected
    /// value or abandon the round with [`BanditWare::drop_ticket`].
    ///
    /// # Errors
    /// [`crate::CoreError::UnknownTicket`] for a ticket that was never
    /// issued, already recorded, or dropped; policy validation otherwise.
    pub fn record_ticket(&mut self, ticket: Ticket, runtime: f64) -> Result<()> {
        let round =
            self.in_flight.get(&ticket.0).ok_or(CoreError::UnknownTicket { ticket: ticket.0 })?;
        // Disjoint field borrow: the policy observes the borrowed features,
        // then the owned round moves out of the table into the history.
        self.policy.observe(round.arm, &round.features, runtime)?;
        // lint: allow(no-panic) -- presence established by the lookup above
        let round = self.in_flight.remove(&ticket.0).expect("present above");
        if self.legacy_pending == Some(ticket) {
            self.legacy_pending = None;
        }
        self.push_history(round.arm, round.features, runtime, round.explored);
        Ok(())
    }

    /// Atomic request validation for a record batch: every ticket open,
    /// no ticket listed twice, every runtime positive and finite. Leaves
    /// the recommender untouched; allocation-free in steady state (dedup
    /// runs over a reused sorted scratch buffer instead of a `HashSet`).
    ///
    /// Durable serving layers call this *before* touching the filesystem,
    /// so a malformed request cannot mint WAL state for a key.
    ///
    /// # Errors
    /// [`crate::CoreError::UnknownTicket`] /
    /// [`crate::CoreError::InvalidRuntime`] for the first offending row (in
    /// input order); [`crate::CoreError::InvalidParameter`] for a ticket
    /// listed twice in the batch.
    pub fn validate_record_batch(&mut self, outcomes: &[(Ticket, f64)]) -> Result<()> {
        for &(ticket, runtime) in outcomes {
            if !self.in_flight.contains_key(&ticket.0) {
                return Err(CoreError::UnknownTicket { ticket: ticket.0 });
            }
            if !runtime.is_finite() || runtime <= 0.0 {
                return Err(CoreError::InvalidRuntime(runtime));
            }
        }
        self.batch_ids.clear();
        self.batch_ids.extend(outcomes.iter().map(|&(ticket, _)| ticket.0));
        self.batch_ids.sort_unstable();
        for pair in self.batch_ids.windows(2) {
            if pair[0] == pair[1] {
                return Err(CoreError::InvalidParameter {
                    name: "outcomes",
                    detail: format!("ticket {} listed twice in one batch", pair[0]),
                });
            }
        }
        Ok(())
    }

    /// Record a batch of `(ticket, runtime)` pairs through the
    /// **columnar** observe path. Request validation is atomic
    /// ([`BanditWare::validate_record_batch`]): every ticket must be open
    /// (and unique within the batch) and every runtime positive and finite
    /// **before** anything is absorbed, so a malformed call leaves the
    /// recommender untouched. The burst is then closed out of the ticket
    /// table, staged into a reused [`ObservationFrame`], and handed to the
    /// policy as one [`Policy::observe_frame`] pass — for the contextual
    /// ε-greedy family that means per-arm grouped rank-k absorption instead
    /// of one refit per row, bitwise identical to recording the rounds one
    /// at a time in input order.
    ///
    /// Rounds the policy absorbs are consumed (history appended, legacy
    /// slot cleared); rounds it does not absorb — a mid-batch numerical
    /// failure, not a request error — are **re-opened** under their
    /// original ticket ids so the caller can retry or drop them. Retrying
    /// the open remainder can never double-count an observation: a
    /// consumed ticket in the retry surfaces as
    /// [`crate::CoreError::UnknownTicket`]. With a policy that absorbs rows in
    /// input order the open remainder is exactly the failing round and its
    /// successors; a grouped-absorption policy may absorb a non-prefix
    /// subset (rows of arms it finished before the failing arm), which only
    /// ever leaves *fewer* rounds open.
    ///
    /// Rounds whose remembered feature width disagrees with the policy's
    /// (possible only via [`BanditWare::reopen_ticket`] on a non-contextual
    /// policy, which skips the width check) cannot be staged columnar; such
    /// a batch falls back to row-by-row absorption with identical
    /// semantics.
    ///
    /// # Errors
    /// [`crate::CoreError::UnknownTicket`] for a ticket not in flight,
    /// [`crate::CoreError::InvalidParameter`] for a ticket listed twice in
    /// the batch, [`crate::CoreError::InvalidRuntime`] for a non-positive
    /// or non-finite runtime; policy validation otherwise.
    pub fn record_batch_frame(&mut self, outcomes: &[(Ticket, f64)]) -> Result<()> {
        self.record_batch_frame_logged(outcomes, |_, _, _, _| {})
    }

    /// [`BanditWare::record_batch_frame`] with a per-absorbed-round
    /// callback `log(seq, ticket, round, runtime)`, invoked in frame row
    /// order immediately before the round enters the history (`seq` is the
    /// absolute round number the observation gets). Durable serving layers
    /// use this to build a group-commit WAL buffer in the same critical
    /// section as the in-memory apply, without re-looking-up or cloning the
    /// closed rounds.
    ///
    /// # Errors
    /// As [`BanditWare::record_batch_frame`].
    pub fn record_batch_frame_logged(
        &mut self,
        outcomes: &[(Ticket, f64)],
        mut log: impl FnMut(usize, Ticket, &InFlightRound, f64),
    ) -> Result<()> {
        if outcomes.is_empty() {
            return Ok(());
        }
        self.validate_record_batch(outcomes)?;
        // Close every ticket up front (single table lookup per round; the
        // rounds move into a reused scratch vector). Rounds the policy does
        // not absorb are re-inserted below — the BTreeMap keys by id, so
        // re-opening restores the exact original table order.
        let mut rounds = std::mem::take(&mut self.batch_rounds);
        rounds.clear();
        for &(ticket, _) in outcomes {
            // lint: allow(no-panic) -- all tickets validated before the take
            rounds.push(self.in_flight.remove(&ticket.0).expect("validated above"));
        }
        // Stage the burst columnar; a round that cannot be staged (a
        // remembered width that disagrees with the policy's) sends the whole
        // batch down the row-by-row path below.
        let mut obs = std::mem::take(&mut self.batch_obs);
        obs.begin(outcomes.len(), self.policy.n_features());
        let staged = rounds.iter().enumerate().all(|(i, round)| {
            obs.set_row(i, round.arm, &round.features, outcomes[i].1, round.explored).is_ok()
        });
        let result = if staged {
            let mut absorbed = std::mem::take(&mut self.batch_absorbed);
            let result = self.policy.observe_frame(&obs, &mut absorbed, &mut self.batch_row);
            for (i, round) in rounds.drain(..).enumerate() {
                let (ticket, runtime) = outcomes[i];
                if absorbed[i] {
                    log(self.rounds(), ticket, &round, runtime);
                    if self.legacy_pending == Some(ticket) {
                        self.legacy_pending = None;
                    }
                    self.push_history(round.arm, round.features, runtime, round.explored);
                } else {
                    self.in_flight.insert(ticket.0, round);
                }
            }
            self.batch_absorbed = absorbed;
            result
        } else {
            // Ragged remembered widths: absorb row by row (the reference
            // semantics the frame path is pinned against).
            let mut failure = None;
            let mut drain = rounds.drain(..).enumerate();
            for (i, round) in &mut drain {
                let (ticket, runtime) = outcomes[i];
                match self.policy.observe(round.arm, &round.features, runtime) {
                    Ok(()) => {
                        log(self.rounds(), ticket, &round, runtime);
                        if self.legacy_pending == Some(ticket) {
                            self.legacy_pending = None;
                        }
                        self.push_history(round.arm, round.features, runtime, round.explored);
                    }
                    Err(e) => {
                        failure = Some(e);
                        self.in_flight.insert(ticket.0, round);
                        break;
                    }
                }
            }
            for (i, round) in drain {
                self.in_flight.insert(outcomes[i].0 .0, round);
            }
            match failure {
                Some(e) => Err(e),
                None => Ok(()),
            }
        };
        self.batch_obs = obs;
        self.batch_rounds = rounds;
        result
    }

    /// Abandon an in-flight round (e.g. the job was cancelled or its runtime
    /// was lost). Returns the remembered round, or `None` for a ticket that
    /// was not open.
    pub fn drop_ticket(&mut self, ticket: Ticket) -> Option<InFlightRound> {
        if self.legacy_pending == Some(ticket) {
            self.legacy_pending = None;
        }
        self.in_flight.remove(&ticket.0)
    }

    /// Re-open a ticket with a specific id — the checkpoint-restore path
    /// ([`crate::persist`]): a crash mid-flight replays the history and then
    /// re-opens the rounds that were awaiting runtimes, with their original
    /// ids, so external systems holding those tickets can still record.
    ///
    /// # Errors
    /// [`crate::CoreError::ArmOutOfRange`] /
    /// [`crate::CoreError::FeatureDimMismatch`] for inconsistent state,
    /// [`crate::CoreError::NonFiniteFeature`] for a NaN or infinite feature,
    /// and [`crate::CoreError::InvalidParameter`] for an id that is already
    /// open.
    pub fn reopen_ticket(
        &mut self,
        ticket: Ticket,
        arm: usize,
        features: &[f64],
        explored: bool,
    ) -> Result<()> {
        check_finite(features)?;
        if arm >= self.specs.len() {
            return Err(CoreError::ArmOutOfRange { arm, n_arms: self.specs.len() });
        }
        // Non-contextual policies report zero features and ignore contexts.
        if self.policy.n_features() > 0 && features.len() != self.policy.n_features() {
            return Err(CoreError::FeatureDimMismatch {
                got: features.len(),
                expected: self.policy.n_features(),
            });
        }
        if self.in_flight.contains_key(&ticket.0) {
            return Err(CoreError::InvalidParameter {
                name: "ticket",
                detail: format!("ticket {} is already open", ticket.0),
            });
        }
        self.in_flight
            .insert(ticket.0, InFlightRound { arm, features: features.to_vec(), explored });
        self.next_ticket = self.next_ticket.max(ticket.0 + 1);
        Ok(())
    }

    /// Recommend hardware for a workflow with the given features — the
    /// legacy single-slot protocol. The selection is remembered so the
    /// following [`BanditWare::record`] can attribute the runtime without
    /// the caller re-passing everything.
    ///
    /// # Errors
    /// [`crate::CoreError::RecommendationPending`] when a previous
    /// `recommend` has not been recorded yet (use the ticketed API for
    /// overlapping rounds); propagates policy validation (feature arity).
    pub fn recommend(&mut self, features: &[f64]) -> Result<Recommendation> {
        if let Some(ticket) = self.legacy_pending {
            return Err(CoreError::RecommendationPending { ticket: ticket.0 });
        }
        let (ticket, rec) = self.recommend_ticketed(features)?;
        self.legacy_pending = Some(ticket);
        Ok(rec)
    }

    /// Record the observed runtime of the **most recent**
    /// [`BanditWare::recommend`]. Unlike the ticketed path, a failed record
    /// consumes the pending slot (the caller decides how to retry).
    ///
    /// # Errors
    /// [`crate::CoreError::InvalidRuntime`] (and policy validation); calling
    /// without a pending recommendation is an
    /// [`crate::CoreError::InvalidParameter`].
    pub fn record(&mut self, runtime: f64) -> Result<()> {
        let ticket = self.legacy_pending.take().ok_or(CoreError::InvalidParameter {
            name: "pending",
            detail: "record() called without a preceding recommend()".into(),
        })?;
        let result = self.record_ticket(ticket, runtime);
        if result.is_err() {
            // Legacy semantics: the pending slot is consumed either way.
            self.in_flight.remove(&ticket.0);
        }
        result
    }

    /// Record an externally chosen `(arm, features, runtime)` triple — e.g.
    /// when warm-starting from historical traces or replaying a checkpoint.
    /// Goes through [`Policy::warm_start`], so context-learning wrappers
    /// (the feature scaler) absorb the context they never selected on.
    ///
    /// # Errors
    /// [`crate::CoreError::NonFiniteFeature`] for a NaN or infinite
    /// feature; propagates policy validation.
    pub fn record_external(&mut self, arm: usize, features: &[f64], runtime: f64) -> Result<()> {
        check_finite(features)?;
        self.policy.warm_start(arm, features, runtime)?;
        self.push_history(arm, features.to_vec(), runtime, false);
        Ok(())
    }

    /// Replay one logged observation — the WAL/checkpoint tail-replay path.
    /// Like [`BanditWare::record_external`] (the policy absorbs it through
    /// [`Policy::warm_start`]) but the original exploration flag survives
    /// into the retained history.
    ///
    /// # Errors
    /// [`crate::CoreError::NonFiniteFeature`] for a NaN or infinite
    /// feature (a log written before contexts were checked can hold one;
    /// see [`BanditWare::quarantine_round`]); propagates policy validation.
    pub fn record_replayed(&mut self, o: &Observation) -> Result<()> {
        check_finite(&o.features)?;
        self.policy.warm_start(o.arm, &o.features, o.runtime)?;
        self.push_history(o.arm, o.features.clone(), o.runtime, o.explored);
        Ok(())
    }

    /// Count one logged round that replay refuses to absorb (a non-finite
    /// context written before contexts were checked): the round counter
    /// advances, so it stays aligned with the log's sequence numbers, but
    /// neither the policy nor the retained history sees the round.
    pub fn quarantine_round(&mut self) {
        self.base_rounds += 1;
    }

    /// One full round: recommend, execute via the closure, record. Returns
    /// `(recommendation, runtime)`.
    ///
    /// # Errors
    /// Propagates recommendation/record failures.
    pub fn run_round(
        &mut self,
        features: &[f64],
        executor: impl FnOnce(&Recommendation) -> f64,
    ) -> Result<(Recommendation, f64)> {
        let rec = self.recommend(features)?;
        let runtime = executor(&rec);
        self.record(runtime)?;
        Ok((rec, runtime))
    }

    /// Pulls per arm.
    pub fn pulls(&self) -> Vec<usize> {
        self.policy.pulls()
    }

    /// Mean observed runtime per arm over the **retained** history (NaN for
    /// arms with no retained observation). Under [`Retention::Tail`] this
    /// is a windowed mean — often the more useful quantity on a drifting
    /// cluster anyway.
    pub fn mean_runtime_per_arm(&self) -> Vec<f64> {
        let mut sums = vec![0.0; self.specs.len()];
        let mut counts = vec![0usize; self.specs.len()];
        for o in &self.history {
            sums[o.arm] += o.runtime;
            counts[o.arm] += 1;
        }
        sums.iter()
            .zip(&counts)
            .map(|(&s, &c)| if c == 0 { f64::NAN } else { s / c as f64 })
            .collect()
    }

    /// Reset the policy, clear the history (and the dropped-rounds
    /// counter), and void every open ticket.
    pub fn reset(&mut self) {
        self.policy.reset();
        self.history.clear();
        self.base_rounds = 0;
        self.in_flight.clear();
        self.next_ticket = 0;
        self.legacy_pending = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BanditConfig;
    use crate::epsilon::EpsilonGreedy;
    use crate::CoreError;

    fn frame(rows: &[Vec<f64>]) -> FeatureFrame {
        FeatureFrame::from_rows(rows).unwrap()
    }

    fn make() -> BanditWare<EpsilonGreedy> {
        let specs = vec![ArmSpec::new(0, "H0", 4.0), ArmSpec::new(1, "H1", 6.0)];
        let policy =
            EpsilonGreedy::new(specs.clone(), 1, BanditConfig::paper().with_seed(1)).unwrap();
        BanditWare::new(policy, specs)
    }

    #[test]
    fn recommend_then_record_builds_history() {
        let mut bw = make();
        let rec = bw.recommend(&[10.0]).unwrap();
        assert!(rec.arm < 2);
        assert!(rec.name.starts_with('H'));
        bw.record(42.0).unwrap();
        assert_eq!(bw.rounds(), 1);
        let h = &bw.history()[0];
        assert_eq!(h.runtime, 42.0);
        assert_eq!(h.features, vec![10.0]);
        assert_eq!(h.round, 0);
        assert_eq!(bw.in_flight(), 0);
    }

    #[test]
    fn record_without_recommend_errors() {
        let mut bw = make();
        assert!(matches!(bw.record(1.0), Err(CoreError::InvalidParameter { .. })));
    }

    #[test]
    fn double_record_errors() {
        let mut bw = make();
        bw.recommend(&[1.0]).unwrap();
        bw.record(5.0).unwrap();
        assert!(bw.record(5.0).is_err());
    }

    #[test]
    fn double_recommend_is_explicit_error() {
        let mut bw = make();
        bw.recommend(&[1.0]).unwrap();
        let err = bw.recommend(&[2.0]).unwrap_err();
        assert!(matches!(err, CoreError::RecommendationPending { .. }), "{err:?}");
        // The slot is intact: recording the first round still works.
        bw.record(9.0).unwrap();
        assert_eq!(bw.rounds(), 1);
        assert_eq!(bw.history()[0].features, vec![1.0]);
        // And the protocol can continue.
        bw.recommend(&[2.0]).unwrap();
        bw.record(4.0).unwrap();
        assert_eq!(bw.rounds(), 2);
    }

    #[test]
    fn ticketed_rounds_overlap_and_record_out_of_order() {
        let mut bw = make();
        let (t1, r1) = bw.recommend_ticketed(&[1.0]).unwrap();
        let (t2, _r2) = bw.recommend_ticketed(&[2.0]).unwrap();
        let (t3, _r3) = bw.recommend_ticketed(&[3.0]).unwrap();
        assert_eq!(bw.in_flight(), 3);
        assert_ne!(t1, t2);
        assert!(r1.arm < 2);
        // Record in reverse order.
        bw.record_ticket(t3, 30.0).unwrap();
        bw.record_ticket(t1, 10.0).unwrap();
        bw.record_ticket(t2, 20.0).unwrap();
        assert_eq!(bw.in_flight(), 0);
        assert_eq!(bw.rounds(), 3);
        // History is in *record* order; features attribute correctly.
        assert_eq!(bw.history()[0].features, vec![3.0]);
        assert_eq!(bw.history()[0].runtime, 30.0);
        assert_eq!(bw.history()[1].features, vec![1.0]);
        assert_eq!(bw.history()[2].features, vec![2.0]);
        // Round numbers are record-order too.
        assert_eq!(bw.history()[2].round, 2);
    }

    #[test]
    fn unknown_and_double_tickets_error() {
        let mut bw = make();
        let (t, _) = bw.recommend_ticketed(&[1.0]).unwrap();
        bw.record_ticket(t, 5.0).unwrap();
        assert!(matches!(
            bw.record_ticket(t, 5.0),
            Err(CoreError::UnknownTicket { ticket }) if ticket == t.id()
        ));
        assert!(matches!(
            bw.record_ticket(Ticket::from_id(999), 5.0),
            Err(CoreError::UnknownTicket { ticket: 999 })
        ));
    }

    #[test]
    fn dropped_ticket_is_gone() {
        let mut bw = make();
        let (t, _) = bw.recommend_ticketed(&[7.0]).unwrap();
        let round = bw.drop_ticket(t).unwrap();
        assert_eq!(round.features, vec![7.0]);
        assert_eq!(bw.in_flight(), 0);
        assert!(bw.drop_ticket(t).is_none(), "double drop is a no-op");
        assert!(matches!(bw.record_ticket(t, 5.0), Err(CoreError::UnknownTicket { .. })));
        // Dropped rounds never reach the history or the model.
        assert_eq!(bw.rounds(), 0);
        assert_eq!(bw.pulls(), vec![0, 0]);
    }

    #[test]
    fn invalid_runtime_keeps_ticket_open() {
        let mut bw = make();
        let (t, _) = bw.recommend_ticketed(&[1.0]).unwrap();
        assert!(matches!(bw.record_ticket(t, -4.0), Err(CoreError::InvalidRuntime(_))));
        assert_eq!(bw.in_flight(), 1, "failed record leaves the round open");
        bw.record_ticket(t, 4.0).unwrap();
        assert_eq!(bw.rounds(), 1);
    }

    #[test]
    fn batch_recommend_then_batch_record() {
        let mut bw = make();
        let contexts: Vec<Vec<f64>> = (1..=5).map(|i| vec![i as f64]).collect();
        let issued = bw.recommend_batch_frame(&frame(&contexts)).unwrap();
        assert_eq!(issued.len(), 5);
        assert_eq!(bw.in_flight(), 5);
        // Ticket ids are unique and ascending in input order.
        for w in issued.windows(2) {
            assert!(w[0].0 < w[1].0);
        }
        let outcomes: Vec<(Ticket, f64)> =
            issued.iter().map(|(t, r)| (*t, 10.0 * (r.arm + 1) as f64)).collect();
        bw.record_batch_frame(&outcomes).unwrap();
        assert_eq!(bw.rounds(), 5);
        assert_eq!(bw.in_flight(), 0);
        assert_eq!(bw.pulls().iter().sum::<usize>(), 5);
    }

    #[test]
    fn batch_record_validates_atomically() {
        let mut bw = make();
        let issued = bw.recommend_batch_frame(&frame(&[vec![1.0], vec![2.0]])).unwrap();
        let (t0, t1) = (issued[0].0, issued[1].0);
        // Unknown ticket in the batch → nothing absorbed.
        let err = bw.record_batch_frame(&[(t0, 5.0), (Ticket::from_id(77), 5.0)]).unwrap_err();
        assert!(matches!(err, CoreError::UnknownTicket { ticket: 77 }));
        assert_eq!(bw.rounds(), 0);
        assert_eq!(bw.in_flight(), 2);
        // Duplicate ticket within a batch → rejected up front, named as a
        // duplicate (not as an unknown ticket — it IS in flight).
        assert!(matches!(
            bw.record_batch_frame(&[(t0, 5.0), (t0, 6.0)]),
            Err(CoreError::InvalidParameter { name: "outcomes", .. })
        ));
        assert_eq!(bw.rounds(), 0);
        // Invalid runtime anywhere → nothing absorbed.
        assert!(matches!(
            bw.record_batch_frame(&[(t0, 5.0), (t1, f64::NAN)]),
            Err(CoreError::InvalidRuntime(_))
        ));
        assert_eq!(bw.rounds(), 0);
        assert_eq!(bw.pulls(), vec![0, 0]);
        // A clean batch then succeeds.
        bw.record_batch_frame(&[(t1, 7.0), (t0, 5.0)]).unwrap();
        assert_eq!(bw.rounds(), 2);
        assert_eq!(bw.history()[0].features, vec![2.0], "record order preserved");
    }

    #[test]
    fn batch_record_policy_failure_consumes_only_the_recorded_prefix() {
        /// A policy whose refit "numerically fails" on runtimes above 1000
        /// — a stand-in for a rank-deficient least-squares failure that
        /// request validation cannot catch up front.
        #[derive(Debug)]
        struct Brittle {
            observed: usize,
        }
        impl Policy for Brittle {
            fn name(&self) -> String {
                "brittle".into()
            }
            fn n_arms(&self) -> usize {
                2
            }
            fn n_features(&self) -> usize {
                1
            }
            fn select(&mut self, _x: &[f64]) -> crate::Result<crate::policy::Selection> {
                Ok(crate::policy::Selection { arm: 0, explored: false })
            }
            fn observe(&mut self, _arm: usize, _x: &[f64], runtime: f64) -> crate::Result<()> {
                if runtime > 1000.0 {
                    return Err(CoreError::Linalg(
                        banditware_linalg::LinalgError::InsufficientData { have: 0, need: 1 },
                    ));
                }
                self.observed += 1;
                Ok(())
            }
            fn predict(&self, _arm: usize, _x: &[f64]) -> crate::Result<f64> {
                Ok(0.0)
            }
            fn pulls(&self) -> Vec<usize> {
                vec![self.observed, 0]
            }
            fn reset(&mut self) {
                self.observed = 0;
            }
        }

        let mut bw = BanditWare::new(Brittle { observed: 0 }, ArmSpec::unit_costs(2));
        let issued = bw.recommend_batch_frame(&frame(&[vec![1.0], vec![2.0], vec![3.0]])).unwrap();
        let (t0, t1, t2) = (issued[0].0, issued[1].0, issued[2].0);
        // Outcome for t1 fails inside the policy; t0 was already absorbed.
        let err = bw.record_batch_frame(&[(t0, 5.0), (t1, 5000.0), (t2, 7.0)]).unwrap_err();
        assert!(matches!(err, CoreError::Linalg(_)));
        // The recorded prefix is consumed and in the history; the failing
        // round and its successors stay open for retry.
        assert_eq!(bw.rounds(), 1);
        assert_eq!(bw.history()[0].features, vec![1.0]);
        assert_eq!(bw.open_tickets(), vec![t1, t2]);
        // Retrying the full batch cannot double-count: the consumed ticket
        // is rejected up front, leaving the model untouched.
        assert!(matches!(
            bw.record_batch_frame(&[(t0, 5.0), (t1, 6.0), (t2, 7.0)]),
            Err(CoreError::UnknownTicket { .. })
        ));
        assert_eq!(bw.rounds(), 1);
        // Retrying only the open remainder succeeds.
        bw.record_batch_frame(&[(t1, 6.0), (t2, 7.0)]).unwrap();
        assert_eq!(bw.rounds(), 3);
        assert_eq!(bw.in_flight(), 0);
    }

    #[test]
    fn legacy_and_ticketed_paths_interleave() {
        let mut bw = make();
        let (t, _) = bw.recommend_ticketed(&[5.0]).unwrap();
        // Legacy slot is independent of open tickets.
        bw.recommend(&[1.0]).unwrap();
        bw.record(11.0).unwrap();
        bw.record_ticket(t, 55.0).unwrap();
        assert_eq!(bw.rounds(), 2);
        assert_eq!(bw.history()[0].features, vec![1.0]);
        assert_eq!(bw.history()[1].features, vec![5.0]);
    }

    #[test]
    fn run_round_executes_closure() {
        let mut bw = make();
        let (rec, rt) = bw
            .run_round(&[3.0], |r| {
                // slower hardware takes longer
                100.0 + r.arm as f64 * 10.0
            })
            .unwrap();
        assert_eq!(rt, 100.0 + rec.arm as f64 * 10.0);
        assert_eq!(bw.rounds(), 1);
    }

    #[test]
    fn record_external_warm_start() {
        let mut bw = make();
        for i in 1..=10 {
            bw.record_external(0, &[i as f64], 2.0 * i as f64 + 5.0).unwrap();
        }
        assert_eq!(bw.rounds(), 10);
        assert_eq!(bw.pulls(), vec![10, 0]);
        // model learned from external data
        let pred = bw.policy().predict(0, &[20.0]).unwrap();
        assert!((pred - 45.0).abs() < 1.0, "pred {pred}");
        let means = bw.mean_runtime_per_arm();
        assert!((means[0] - 16.0).abs() < 1e-9);
        assert!(means[1].is_nan());
    }

    #[test]
    fn invalid_runtime_keeps_history_clean() {
        let mut bw = make();
        bw.recommend(&[1.0]).unwrap();
        assert!(bw.record(-1.0).is_err());
        assert_eq!(bw.rounds(), 0);
        assert_eq!(bw.in_flight(), 0, "legacy record consumes the slot on error");
        // a fresh recommendation works again
        bw.recommend(&[1.0]).unwrap();
        bw.record(3.0).unwrap();
        assert_eq!(bw.rounds(), 1);
    }

    #[test]
    fn reset_clears_everything() {
        let mut bw = make();
        bw.run_round(&[1.0], |_| 5.0).unwrap();
        let (t, _) = bw.recommend_ticketed(&[2.0]).unwrap();
        bw.reset();
        assert_eq!(bw.rounds(), 0);
        assert_eq!(bw.pulls(), vec![0, 0]);
        assert_eq!(bw.in_flight(), 0);
        assert!(bw.record(1.0).is_err(), "pending cleared");
        assert!(bw.record_ticket(t, 1.0).is_err(), "tickets voided");
        // Ticket ids restart from zero after a reset.
        let (t2, _) = bw.recommend_ticketed(&[1.0]).unwrap();
        assert_eq!(t2.id(), 0);
    }

    #[test]
    fn reopen_ticket_restores_mid_flight_state() {
        let mut bw = make();
        bw.reopen_ticket(Ticket::from_id(41), 1, &[9.0], true).unwrap();
        assert_eq!(bw.open_tickets(), vec![Ticket::from_id(41)]);
        // Duplicate / invalid reopens are rejected.
        assert!(bw.reopen_ticket(Ticket::from_id(41), 0, &[1.0], false).is_err());
        assert!(bw.reopen_ticket(Ticket::from_id(42), 9, &[1.0], false).is_err());
        assert!(bw.reopen_ticket(Ticket::from_id(43), 0, &[1.0, 2.0], false).is_err());
        // Fresh tickets never collide with a reopened id.
        let (t, _) = bw.recommend_ticketed(&[3.0]).unwrap();
        assert_eq!(t.id(), 42);
        // The reopened round records like any other.
        bw.record_ticket(Ticket::from_id(41), 12.0).unwrap();
        let h = &bw.history()[0];
        assert_eq!((h.arm, h.explored), (1, true));
        assert_eq!(h.features, vec![9.0]);
    }

    #[test]
    fn every_context_entry_point_rejects_non_finite_features() {
        let mut bw = make();
        let mut twin = make();
        let round = |bw: &mut BanditWare<EpsilonGreedy>, i: usize| {
            let x = [i as f64 % 7.0];
            let (t, rec) = bw.recommend_ticketed(&x).unwrap();
            bw.record_ticket(t, 10.0 + x[0] * (rec.arm as f64 + 1.0)).unwrap();
            (rec.arm, rec.predicted_runtime.to_bits())
        };
        for i in 0..10 {
            assert_eq!(round(&mut bw, i), round(&mut twin, i));
        }
        let is_non_finite = |r: Result<()>, bad: f64| match r {
            Err(CoreError::NonFiniteFeature { index: 0, value }) => {
                value.to_bits() == bad.to_bits()
            }
            _ => false,
        };
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(is_non_finite(bw.recommend_ticketed(&[bad]).map(drop), bad));
            assert!(is_non_finite(bw.recommend(&[bad]).map(drop), bad));
            assert!(is_non_finite(
                bw.recommend_batch_frame(&frame(&[vec![1.0], vec![bad]])).map(drop),
                bad
            ));
            assert!(is_non_finite(bw.reopen_ticket(Ticket::from_id(99), 0, &[bad], false), bad));
            assert!(is_non_finite(bw.record_external(0, &[bad], 5.0), bad));
            let o = Observation {
                round: 0,
                arm: 0,
                features: vec![bad],
                runtime: 5.0,
                explored: false,
            };
            assert!(is_non_finite(bw.record_replayed(&o), bad));
        }
        // Nothing was issued, absorbed or drawn: the streams stay identical.
        assert_eq!((bw.rounds(), bw.in_flight(), bw.next_ticket_id()), (10, 0, 10));
        for i in 10..40 {
            assert_eq!(round(&mut bw, i), round(&mut twin, i), "round {i}");
        }
    }

    #[test]
    fn quarantined_round_counts_but_is_not_absorbed() {
        let mut bw = make();
        bw.record_external(0, &[1.0], 5.0).unwrap();
        bw.quarantine_round();
        bw.record_external(1, &[2.0], 7.0).unwrap();
        assert_eq!(bw.rounds(), 3);
        assert_eq!(bw.pulls(), vec![1, 1]);
        let rounds: Vec<usize> = bw.history().iter().map(|o| o.round).collect();
        assert_eq!(rounds, vec![0, 2], "the quarantined round keeps its number");
    }

    #[test]
    fn boxed_policy_facade_works() {
        let specs = ArmSpec::unit_costs(2);
        let policy: Box<dyn Policy> = Box::new(
            EpsilonGreedy::new(specs.clone(), 1, BanditConfig::paper().with_seed(3)).unwrap(),
        );
        let mut bw: BanditWare<Box<dyn Policy>> = BanditWare::new(policy, specs);
        let issued = bw.recommend_batch_frame(&frame(&[vec![1.0], vec![2.0]])).unwrap();
        let outcomes: Vec<(Ticket, f64)> = issued.iter().map(|(t, _)| (*t, 5.0)).collect();
        bw.record_batch_frame(&outcomes).unwrap();
        assert_eq!(bw.rounds(), 2);
        assert_eq!(bw.policy().name(), "decaying-contextual-epsilon-greedy");
    }

    #[test]
    fn tail_retention_bounds_history_and_keeps_counting() {
        let mut bw = make().with_retention(Retention::Tail(5));
        for i in 0..40 {
            bw.run_round(&[i as f64], |_| 10.0 + i as f64).unwrap();
        }
        assert_eq!(bw.rounds(), 40, "round counter is lifetime-total");
        assert_eq!(bw.history().len(), 5, "history bounded at the tail");
        // The tail holds the most recent rounds with absolute numbering.
        assert_eq!(bw.history()[0].round, 35);
        assert_eq!(bw.history()[4].round, 39);
        assert_eq!(bw.history()[4].features, vec![39.0]);
        // The model saw everything, not just the tail.
        assert_eq!(bw.pulls().iter().sum::<usize>(), 40);
        // Tightening retention trims immediately.
        bw.set_retention(Retention::Tail(2));
        assert_eq!(bw.history().len(), 2);
        assert_eq!(bw.history()[0].round, 38);
        assert_eq!(bw.rounds(), 40);
        // Reset clears the dropped-rounds counter too.
        bw.reset();
        assert_eq!(bw.rounds(), 0);
        assert!(bw.history().is_empty());
    }

    #[test]
    fn none_retention_stores_nothing() {
        let mut bw = make().with_retention(Retention::None);
        for i in 0..10 {
            bw.run_round(&[i as f64], |_| 5.0).unwrap();
        }
        assert_eq!(bw.rounds(), 10);
        assert!(bw.history().is_empty());
        assert_eq!(bw.retention(), Retention::None);
        // Per-arm means over an empty retained history are all-NaN.
        assert!(bw.mean_runtime_per_arm().iter().all(|m| m.is_nan()));
    }

    #[test]
    fn in_flight_round_exposes_open_selection() {
        let mut bw = make();
        let (t, rec) = bw.recommend_ticketed(&[7.0]).unwrap();
        let round = bw.in_flight_round(t).unwrap();
        assert_eq!(round.arm, rec.arm);
        assert_eq!(round.features, vec![7.0]);
        bw.record_ticket(t, 3.0).unwrap();
        assert!(bw.in_flight_round(t).is_none());
    }

    #[test]
    fn record_replayed_preserves_exploration_flag() {
        let mut bw = make();
        let o = Observation { round: 0, arm: 1, features: vec![2.0], runtime: 8.0, explored: true };
        bw.record_replayed(&o).unwrap();
        assert_eq!(bw.history()[0].explored, true);
        assert_eq!(bw.pulls(), vec![0, 1]);
    }

    #[test]
    #[should_panic(expected = "policy arms != specs")]
    fn spec_mismatch_panics() {
        let policy = EpsilonGreedy::new(ArmSpec::unit_costs(2), 1, BanditConfig::paper()).unwrap();
        let _ = BanditWare::new(policy, ArmSpec::unit_costs(3));
    }

    #[test]
    fn predicted_runtime_populated_after_learning() {
        let mut bw = make();
        for _ in 0..30 {
            bw.run_round(&[5.0], |_| 50.0).unwrap();
        }
        let rec = bw.recommend(&[5.0]).unwrap();
        assert!((rec.predicted_runtime - 50.0).abs() < 5.0);
        assert!(rec.resource_cost > 0.0);
    }
}
