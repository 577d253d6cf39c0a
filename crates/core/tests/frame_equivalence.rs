//! Bitwise equivalence of the columnar batch path and sequential single
//! rounds.
//!
//! The frame path is the only batch API: a burst is a [`FeatureFrame`]
//! (struct-of-arrays contexts, blocked predict kernels, hoisted RNG draws)
//! on the select side and an [`ObservationFrame`] (per-arm grouped rank-k
//! folds) on the record side. Its contract is that a burst lands exactly
//! where one round at a time would: the *same* selections, the *same* RNG
//! stream, bit-for-bit the *same* predictions, and the *same* policy state.
//! These tests pin it against a reference that never batches, on
//! identically seeded twins, across bursts whose sizes and feature widths
//! cover the 4-lane block tails:
//!
//! * ε-greedy (incremental and paper-exact arms) and LinUCB: the reference
//!   is a loop of [`Policy::select`] / [`Policy::observe`] calls;
//! * [`banditware_core::ScaledPolicy`]: the reference is built from public
//!   parts — a [`StandardScaler`] fed every context of the burst, then
//!   `transform_into` per context and `select` on an unwrapped inner
//!   ε-greedy (a burst is standardized against its post-burst statistics).

use banditware_core::epsilon::{EpsilonGreedy, ExactEpsilonGreedy};
use banditware_core::linucb::LinUcb;
use banditware_core::scaler::scaled_epsilon_greedy;
use banditware_core::{
    ArmSpec, BanditConfig, BanditWare, FeatureFrame, ObservationFrame, Policy, PolicyState,
    Selection, StandardScaler, Ticket,
};

const M: usize = 7; // deliberately not a multiple of 4: exercises kernel tails
const SEED: u64 = 0xB17E_57A7;

fn specs() -> Vec<ArmSpec> {
    vec![
        ArmSpec::new(0, "small", 2.0),
        ArmSpec::new(1, "medium", 4.0),
        ArmSpec::new(2, "large", 8.0),
    ]
}

/// Deterministic context for (round, row) at width `m`.
fn context(round: usize, row: usize, m: usize) -> Vec<f64> {
    (0..m).map(|j| ((round * 131 + row * 17 + j * 5) % 101) as f64 * 0.37 - 11.0).collect()
}

/// Deterministic runtime for an arm in a context.
fn runtime(arm: usize, x: &[f64]) -> f64 {
    let s: f64 = x.iter().sum();
    10.0 + 3.0 * arm as f64 + 0.25 * s
}

// Burst sizes covering empty, tails 1..3, exact blocks, and bigger bursts.
const BURSTS: &[usize] = &[4, 1, 0, 5, 8, 3, 13, 2, 16, 7];

/// A policy driven one round at a time — the reference the frame path is
/// pinned against.
trait Sequential {
    /// Select for every context of a burst, against one model state.
    fn select_burst(&mut self, contexts: &[Vec<f64>]) -> Vec<Selection>;
    fn predict(&self, arm: usize, x: &[f64]) -> f64;
    fn observe(&mut self, arm: usize, x: &[f64], runtime: f64);
    fn state(&self) -> PolicyState;
}

/// Any policy as its own reference: one `select` / `observe` per row.
struct OneAtATime<P>(P);

impl<P: Policy> Sequential for OneAtATime<P> {
    fn select_burst(&mut self, contexts: &[Vec<f64>]) -> Vec<Selection> {
        contexts.iter().map(|x| self.0.select(x).unwrap()).collect()
    }

    fn predict(&self, arm: usize, x: &[f64]) -> f64 {
        self.0.predict(arm, x).unwrap()
    }

    fn observe(&mut self, arm: usize, x: &[f64], runtime: f64) {
        self.0.observe(arm, x, runtime).unwrap();
    }

    fn state(&self) -> PolicyState {
        self.0.snapshot()
    }
}

/// The scaled ε-greedy wrapper rebuilt from public parts.
struct ScaledByHand {
    scaler: StandardScaler,
    inner: EpsilonGreedy,
    z: Vec<f64>,
}

impl ScaledByHand {
    fn new(m: usize, seed: u64) -> Self {
        ScaledByHand {
            scaler: StandardScaler::new(m),
            inner: EpsilonGreedy::new(specs(), m, BanditConfig::paper().with_seed(seed)).unwrap(),
            z: Vec::new(),
        }
    }
}

impl Sequential for ScaledByHand {
    fn select_burst(&mut self, contexts: &[Vec<f64>]) -> Vec<Selection> {
        for x in contexts {
            self.scaler.observe(x).unwrap();
        }
        contexts
            .iter()
            .map(|x| {
                self.scaler.transform_into(x, &mut self.z).unwrap();
                self.inner.select(&self.z).unwrap()
            })
            .collect()
    }

    fn predict(&self, arm: usize, x: &[f64]) -> f64 {
        let z = self.scaler.transform(x).unwrap();
        self.inner.predict(arm, &z).unwrap()
    }

    fn observe(&mut self, arm: usize, x: &[f64], runtime: f64) {
        self.scaler.transform_into(x, &mut self.z).unwrap();
        self.inner.observe(arm, &self.z, runtime).unwrap();
    }

    fn state(&self) -> PolicyState {
        PolicyState::Scaled { scaler: self.scaler.state(), inner: Box::new(self.inner.snapshot()) }
    }
}

/// Policy level: `select_frame_into` over each burst returns exactly the
/// reference's selections (same arms, same explore draws — i.e. the same
/// RNG stream), and `observe_frame` over the burst's outcomes absorbs every
/// row and leaves the policy in exactly the reference's state (bitwise on
/// every stored float) after every burst.
fn policy_frame_path_matches<P: Policy>(mut reference: impl Sequential, mut framed: P, m: usize) {
    let mut frame = FeatureFrame::new();
    let mut obs = ObservationFrame::new();
    let (mut sels, mut absorbed, mut row) = (Vec::new(), Vec::new(), Vec::new());
    for (round, &n) in BURSTS.iter().enumerate() {
        let contexts: Vec<Vec<f64>> = (0..n).map(|r| context(round, r, m)).collect();

        let expected = reference.select_burst(&contexts);
        frame.fill_from_rows(&contexts).unwrap();
        framed.select_frame_into(&frame, &mut sels, &mut row).unwrap();
        assert_eq!(sels, expected, "m={m} round {round}: selections");

        // Absorb the burst (later bursts then exploit fitted models).
        obs.begin(n, m);
        for (i, x) in contexts.iter().enumerate() {
            let arm = expected[i].arm;
            reference.observe(arm, x, runtime(arm, x));
            obs.set_row(i, arm, x, runtime(arm, x), expected[i].explored).unwrap();
        }
        framed.observe_frame(&obs, &mut absorbed, &mut row).unwrap();
        assert!(absorbed.iter().all(|&a| a), "m={m} round {round}: every row absorbed");
        assert_eq!(framed.snapshot(), reference.state(), "m={m} round {round}: policy state");
    }
}

#[test]
fn epsilon_frame_path_matches_sequential_rounds() {
    let mk = || EpsilonGreedy::new(specs(), M, BanditConfig::paper().with_seed(SEED)).unwrap();
    policy_frame_path_matches(OneAtATime(mk()), mk(), M);
}

/// The paper-exact arm (`exact-epsilon-greedy` over the wire): its
/// `observe_frame` hands each arm's gathered block to
/// `LinearArm::absorb_block`, which appends every row and refits once.
#[test]
fn exact_epsilon_frame_path_matches_sequential_rounds() {
    let mk = || {
        ExactEpsilonGreedy::new_exact(specs(), M, BanditConfig::paper().with_seed(SEED)).unwrap()
    };
    policy_frame_path_matches(OneAtATime(mk()), mk(), M);
}

/// The default row-gather `select_frame_into` / `observe_frame` (used by
/// policies without a columnar kernel) — here via LinUCB, which selects
/// deterministically from its confidence bounds.
#[test]
fn linucb_default_gather_matches_sequential_rounds() {
    let mk = || LinUcb::new(specs(), M, 1.0, 1e-3).unwrap();
    policy_frame_path_matches(OneAtATime(mk()), mk(), M);
}

#[test]
fn scaled_frame_path_matches_scaler_plus_inner_by_hand() {
    let framed = scaled_epsilon_greedy(specs(), M, BanditConfig::paper().with_seed(SEED)).unwrap();
    policy_frame_path_matches(ScaledByHand::new(M, SEED), framed, M);
}

/// Feature widths sweeping the block tails (0..=9) all stay bitwise
/// identical to the by-hand scaled reference.
#[test]
fn scaled_frame_path_matches_by_hand_across_feature_widths() {
    for m in 0..=9usize {
        let seed = SEED ^ m as u64;
        let framed = scaled_epsilon_greedy(specs(), m, BanditConfig::paper().with_seed(seed));
        policy_frame_path_matches(ScaledByHand::new(m, seed), framed.unwrap(), m);
    }
}

/// Recorder level: `recommend_batch_frame` issues the reference's arms and
/// explore flags with bit-identical predicted runtimes, and
/// `record_batch_frame` (outcomes in reverse issue order) lands the policy
/// in the reference's state.
fn recommender_frame_path_matches<P: Policy>(
    mut reference: impl Sequential,
    mut framed: BanditWare<P>,
) {
    for (round, &n) in BURSTS.iter().enumerate() {
        let contexts: Vec<Vec<f64>> = (0..n).map(|r| context(round, r, M)).collect();

        let expected = reference.select_burst(&contexts);
        let issued = framed.recommend_batch_frame(&FeatureFrame::from_rows(&contexts).unwrap());
        let issued = issued.unwrap();
        assert_eq!(issued.len(), n, "round {round}: burst size");
        for (i, ((_, rec), sel)) in issued.iter().zip(&expected).enumerate() {
            assert_eq!((rec.arm, rec.explored), (sel.arm, sel.explored), "round {round} row {i}");
            let predicted = reference.predict(sel.arm, &contexts[i]);
            assert_eq!(
                rec.predicted_runtime.to_bits(),
                predicted.to_bits(),
                "round {round} row {i}: predicted_runtime ({} vs {predicted})",
                rec.predicted_runtime
            );
        }

        let outcomes: Vec<(Ticket, f64)> = issued
            .iter()
            .zip(&contexts)
            .rev()
            .map(|((t, rec), x)| (*t, runtime(rec.arm, x)))
            .collect();
        for (i, x) in contexts.iter().enumerate().rev() {
            reference.observe(expected[i].arm, x, runtime(expected[i].arm, x));
        }
        framed.record_batch_frame(&outcomes).unwrap();
        assert_eq!(framed.in_flight(), 0, "round {round}: every ticket closed");
    }
    assert_eq!(framed.policy().snapshot(), reference.state(), "policy state diverged");
}

#[test]
fn epsilon_recommender_frame_path_matches_sequential_rounds() {
    let mk = || EpsilonGreedy::new(specs(), M, BanditConfig::paper().with_seed(SEED)).unwrap();
    recommender_frame_path_matches(OneAtATime(mk()), BanditWare::new(mk(), specs()));
}

#[test]
fn scaled_recommender_frame_path_matches_by_hand() {
    let policy = scaled_epsilon_greedy(specs(), M, BanditConfig::paper().with_seed(SEED)).unwrap();
    recommender_frame_path_matches(ScaledByHand::new(M, SEED), BanditWare::new(policy, specs()));
}
