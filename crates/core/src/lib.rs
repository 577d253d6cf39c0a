//! BanditWare core: contextual-bandit policies for hardware recommendation.
//!
//! The paper's contribution is **Algorithm 1 — Decaying Contextual ε-Greedy
//! with Tolerant Selection**: per-hardware linear runtime models
//! `R(Hᵢ, x) = wᵢᵀx + bᵢ` refit by least squares after every observation, an
//! exploration probability that decays geometrically (`ε ← α·ε`), and a
//! *tolerant* exploitation step that picks the most resource-efficient
//! hardware among those predicted within `(1 + tolerance_ratio)·R̂(fastest) +
//! tolerance_seconds`.
//!
//! Layout:
//!
//! * [`arm`] — per-arm runtime estimators: [`arm::LinearArm`] (stores its
//!   data and refits exactly, the paper's step 11) and [`arm::RecursiveArm`]
//!   (incremental sufficient statistics, mathematically identical and O(m²)
//!   per update).
//! * [`tolerance`] — the tolerant-selection rule (Algorithm 1 step 7).
//! * [`policy`] — the [`policy::Policy`] trait shared by every algorithm.
//! * [`frame`] — columnar ([`frame::FeatureFrame`]) batch contexts: the
//!   serving layers transpose each coalesced burst once so the per-arm
//!   predict sweep and the scaler pass stride contiguous memory, bitwise
//!   identical to sequential single rounds. It is the only batch layout:
//!   rows are a view over it ([`frame::FeatureFrame::copy_row_into`]).
//! * [`epsilon`] — [`epsilon::DecayingEpsilonGreedy`], Algorithm 1 itself.
//! * [`linucb`], [`thompson`], [`ucb`], [`boltzmann`] — the "different and
//!   more complex contextual bandit algorithms" the paper's §5 plans as
//!   future work, implemented here for the ablation benches.
//! * [`plain`] — the classic non-contextual ε-greedy of the paper's Fig. 2.
//! * [`bandit`] — [`bandit::BanditWare`], the user-facing recommender facade
//!   that couples a policy with hardware metadata and a (retention-bounded)
//!   run history.
//! * [`snapshot`] — exact policy-state snapshots ([`snapshot::PolicyState`]):
//!   sufficient statistics, schedules, and RNG stream positions, restored
//!   bitwise.
//! * [`persist`] — the three checkpoint formats: v1/v2 observation logs
//!   (restore by replay) and v3 statistics snapshots (restore in O(m²),
//!   independent of history length).

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod arm;
pub mod bandit;
pub mod boltzmann;
pub mod config;
pub mod drift;
pub mod epsilon;
pub mod error;
pub mod frame;
pub mod linucb;
pub mod objective;
pub mod persist;
pub mod plain;
pub mod policy;
pub mod scaler;
pub mod snapshot;
pub mod thompson;
pub mod tolerance;
pub mod ucb;

pub use arm::{ArmEstimator, LinearArm, RecursiveArm};
pub use bandit::Retention;
pub use bandit::{BanditWare, InFlightRound, Observation, Recommendation, Ticket};
pub use config::BanditConfig;
pub use drift::{DiscountedArm, WindowedArm};
pub use epsilon::DecayingEpsilonGreedy;
pub use error::CoreError;
pub use frame::{FeatureFrame, ObservationFrame, PredictScratch};
pub use objective::{BudgetedEpsilonGreedy, Objective};
pub use policy::{ArmSpec, Policy, Selection};
pub use scaler::{ScaledPolicy, StandardScaler};
pub use snapshot::{ArmState, PolicyState, WelfordState};
pub use tolerance::Tolerance;

/// Result alias for bandit operations.
pub type Result<T> = std::result::Result<T, CoreError>;
