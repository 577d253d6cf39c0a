//! The paper's Monte-Carlo evaluation protocol.
//!
//! `n_sims` independent simulations of `n_rounds` rounds. Every round the
//! bandit selects hardware for a workflow drawn from the dataset, observes a
//! noisy runtime from the ground-truth cost model, and refits; after each
//! round the bandit is scored against the full dataset (RMSE) and a matched
//! evaluation set (accuracy). Simulations run in parallel on crossbeam
//! scoped threads; every simulation derives its own RNG seeds from the
//! experiment seed, so results are identical regardless of thread count.

use crate::matched::MatchedSet;
use crate::series::{RoundSeries, SimTrajectory};
use banditware_baselines::FullFitBaseline;
use banditware_core::tolerance::tolerant_select;
use banditware_core::{
    ArmSpec, BanditConfig, BanditWare, DecayingEpsilonGreedy, FeatureFrame, Policy, RecursiveArm,
    Tolerance,
};
use banditware_workloads::{CostModel, HardwareConfig, Trace};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Experiment parameters.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Rounds per simulation (the paper uses 50 or 100).
    pub n_rounds: usize,
    /// Independent simulations (the paper uses 10 or 100).
    pub n_sims: usize,
    /// Algorithm-1 parameters, including the selection tolerance.
    pub bandit: BanditConfig,
    /// Tolerance used when *judging* a choice on the matched set. The paper
    /// uses the same value as the selection tolerance.
    pub eval_tolerance: Tolerance,
    /// Cap on evaluation contexts (RMSE rows and matched-set size); keeps
    /// per-round scoring affordable on big traces.
    pub max_eval_contexts: usize,
    /// Master seed.
    pub seed: u64,
    /// Worker threads (0 = one per available core, capped by `n_sims`).
    pub n_threads: usize,
    /// Rounds are recommended in ticketed batches of this size (1 = the
    /// paper's strictly sequential protocol). Within a batch every
    /// selection sees the same model state — the serving deployment's
    /// behaviour when workflows arrive faster than they finish.
    pub batch_size: usize,
}

impl ExperimentConfig {
    /// The paper's default shape: 50 rounds × 100 simulations, zero
    /// tolerance, paper bandit parameters.
    pub fn paper() -> Self {
        ExperimentConfig {
            n_rounds: 50,
            n_sims: 100,
            bandit: BanditConfig::paper(),
            eval_tolerance: Tolerance::ZERO,
            max_eval_contexts: 300,
            seed: 0,
            n_threads: 0,
            batch_size: 1,
        }
    }

    /// Set both the selection and evaluation tolerance (the paper always
    /// moves them together).
    pub fn with_tolerance(mut self, t: Tolerance) -> Self {
        self.bandit = self.bandit.with_tolerance(t);
        self.eval_tolerance = t;
        self
    }

    /// Set rounds.
    pub fn with_rounds(mut self, n: usize) -> Self {
        self.n_rounds = n;
        self
    }

    /// Set simulations.
    pub fn with_sims(mut self, n: usize) -> Self {
        self.n_sims = n;
        self
    }

    /// Set the master seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Set the recommendation batch size (clamped to at least 1).
    pub fn with_batch(mut self, batch_size: usize) -> Self {
        self.batch_size = batch_size.max(1);
        self
    }
}

/// Everything a figure needs: the per-round curves plus the reference lines.
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// Aggregated per-round curves.
    pub series: RoundSeries,
    /// RMSE of the full-data fit on the full dataset (the red/orange line).
    pub full_fit_rmse: f64,
    /// Accuracy of the full-data fit on the matched set (the paper's "full
    /// fit accuracy", e.g. ≈ 34.2 % for BP3D).
    pub full_fit_accuracy: f64,
    /// Random-guess accuracy (`1 / n_arms`).
    pub random_accuracy: f64,
    /// Number of hardware settings.
    pub n_arms: usize,
}

/// Rows used for per-round RMSE scoring.
struct EvalRows {
    features: Vec<Vec<f64>>,
    hardware: Vec<usize>,
    runtime: Vec<f64>,
}

impl EvalRows {
    fn from_trace(trace: &Trace, cap: usize) -> Self {
        let n = trace.len().min(cap.max(1));
        let stride = (trace.len() / n).max(1);
        let mut features = Vec::with_capacity(n);
        let mut hardware = Vec::with_capacity(n);
        let mut runtime = Vec::with_capacity(n);
        for i in (0..trace.len()).step_by(stride).take(n) {
            features.push(trace.rows[i].features.clone());
            hardware.push(trace.rows[i].hardware);
            runtime.push(trace.rows[i].runtime);
        }
        EvalRows { features, hardware, runtime }
    }
}

/// Arm specs derived from hardware configurations.
pub fn specs_from_hardware(hardware: &[HardwareConfig]) -> Vec<ArmSpec> {
    hardware.iter().map(|h| ArmSpec::new(h.id, h.name.clone(), h.resource_cost())).collect()
}

/// Run the protocol with the paper's policy (Algorithm 1 over incremental
/// arms).
///
/// # Panics
/// Panics on an empty trace or a zero-round/zero-sim configuration.
pub fn run_experiment<M: CostModel + Sync>(
    trace: &Trace,
    model: &M,
    cfg: &ExperimentConfig,
) -> ExperimentResult {
    let n_features = trace.n_features();
    let specs = specs_from_hardware(&trace.hardware);
    let bandit_cfg = cfg.bandit;
    run_experiment_with(trace, model, cfg, move |seed| {
        DecayingEpsilonGreedy::<RecursiveArm>::new(
            specs.clone(),
            n_features,
            bandit_cfg.with_seed(seed),
        )
        .expect("valid experiment configuration")
    })
}

/// Run the protocol with an arbitrary policy factory (one policy per
/// simulation, seeded). Used by the ablation benches to compare LinUCB,
/// Thompson sampling, UCB1 and Boltzmann under identical conditions.
///
/// # Panics
/// Panics on an empty trace or a zero-round/zero-sim configuration.
pub fn run_experiment_with<M, P, F>(
    trace: &Trace,
    model: &M,
    cfg: &ExperimentConfig,
    factory: F,
) -> ExperimentResult
where
    M: CostModel + Sync,
    P: Policy,
    F: Fn(u64) -> P + Sync,
{
    assert!(!trace.is_empty(), "experiment needs a non-empty trace");
    assert!(cfg.n_rounds > 0 && cfg.n_sims > 0, "need at least one round and simulation");

    let hardware = &trace.hardware;
    let costs: Vec<f64> = hardware.iter().map(HardwareConfig::resource_cost).collect();
    let eval_rows = EvalRows::from_trace(trace, cfg.max_eval_contexts);
    let mut setup_rng = StdRng::seed_from_u64(cfg.seed.wrapping_mul(0x9E37_79B9).wrapping_add(7));
    let matched =
        MatchedSet::generate(trace, model, hardware, cfg.max_eval_contexts, &mut setup_rng);

    // Reference lines.
    let full_fit = FullFitBaseline::fit(trace).expect("full fit on generated trace");
    let selection_tol = cfg.bandit.tolerance;
    let full_fit_accuracy = matched.accuracy(cfg.eval_tolerance, |x| {
        full_fit.recommender.recommend(x, &costs, selection_tol).expect("full-fit recommendation")
    });

    // Parallel simulations.
    let n_threads = if cfg.n_threads > 0 {
        cfg.n_threads
    } else {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4)
    }
    .min(cfg.n_sims)
    .max(1);
    let mut slots: Vec<Option<SimTrajectory>> = (0..cfg.n_sims).map(|_| None).collect();
    let chunk_size = cfg.n_sims.div_ceil(n_threads);
    let factory_ref = &factory;
    let matched_ref = &matched;
    let eval_ref = &eval_rows;
    let costs_ref = &costs;
    std::thread::scope(|s| {
        for (t, chunk) in slots.chunks_mut(chunk_size).enumerate() {
            s.spawn(move || {
                for (off, slot) in chunk.iter_mut().enumerate() {
                    let sim_idx = t * chunk_size + off;
                    *slot = Some(run_single_sim(
                        trace,
                        model,
                        cfg,
                        factory_ref,
                        matched_ref,
                        eval_ref,
                        costs_ref,
                        sim_idx as u64,
                    ));
                }
            });
        }
    });
    let sims: Vec<SimTrajectory> = slots.into_iter().map(|s| s.expect("all sims ran")).collect();

    ExperimentResult {
        series: RoundSeries::aggregate(&sims),
        full_fit_rmse: full_fit.rmse,
        full_fit_accuracy,
        random_accuracy: 1.0 / hardware.len() as f64,
        n_arms: hardware.len(),
    }
}

#[allow(clippy::too_many_arguments)]
fn run_single_sim<M, P, F>(
    trace: &Trace,
    model: &M,
    cfg: &ExperimentConfig,
    factory: &F,
    matched: &MatchedSet,
    eval_rows: &EvalRows,
    costs: &[f64],
    sim_idx: u64,
) -> SimTrajectory
where
    M: CostModel + Sync,
    P: Policy,
    F: Fn(u64) -> P + Sync,
{
    let sim_seed = cfg
        .seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(sim_idx.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(1);
    // The simulation drives the same ticketed facade the serving engine
    // wraps, so batched protocols and the paper's sequential one share a
    // single code path (batch_size = 1 reproduces the sequential RNG
    // stream draw for draw).
    let mut bandit = BanditWare::new(factory(sim_seed), specs_from_hardware(&trace.hardware));
    let mut rng = StdRng::seed_from_u64(sim_seed ^ 0x5555_5555_5555_5555);
    let hardware = &trace.hardware;
    let mut traj = SimTrajectory::default();
    let mut cum_regret = 0.0;
    // Scoring scratch, reused across every round of the simulation: the
    // per-round RMSE/accuracy sweeps are the eval loop's hot path.
    let mut preds: Vec<f64> = Vec::with_capacity(eval_rows.features.len());
    let mut all_preds: Vec<f64> = Vec::with_capacity(hardware.len());
    let mut expected: Vec<f64> = vec![0.0; hardware.len()];
    // The burst's columnar layout, refilled in place every burst.
    let mut frame = FeatureFrame::new();

    let mut round = 0;
    while round < cfg.n_rounds {
        let batch = cfg.batch_size.max(1).min(cfg.n_rounds - round);
        // A burst of workflows arrives: contexts drawn from the dataset.
        // All of them are recommended against the same model state.
        let contexts: Vec<Vec<f64>> = (0..batch)
            .map(|_| trace.rows[rng.gen_range(0..trace.len())].features.clone())
            .collect();
        frame.fill_from_rows(&contexts).expect("trace rows share one arity");
        let issued = bandit.recommend_batch_frame(&frame).expect("context arity matches trace");

        // Completions feed back one by one (each runtime refits its arm),
        // so the per-round curves keep their meaning at any batch size.
        for ((ticket, rec), x) in issued.iter().zip(&contexts) {
            // Execute on the chosen hardware → noisy runtime from ground
            // truth.
            let runtime = model.sample_runtime(&hardware[rec.arm], x, &mut rng);
            bandit.record_ticket(*ticket, runtime).expect("observation is valid");

            // Regret vs the true fastest choice for this context.
            for (e, h) in expected.iter_mut().zip(hardware) {
                *e = model.expected_runtime(h, x);
            }
            let best = expected.iter().cloned().fold(f64::INFINITY, f64::min);
            cum_regret += (expected[rec.arm] - best).max(0.0);

            // Score the current models (into the reused scratch buffers).
            let policy = bandit.policy();
            preds.clear();
            preds.extend(
                eval_rows
                    .features
                    .iter()
                    .zip(&eval_rows.hardware)
                    .map(|(f, &h)| policy.predict(h, f).expect("arity matches")),
            );
            let rmse = crate::metrics::rmse(&preds, &eval_rows.runtime);
            let accuracy = matched.accuracy(cfg.eval_tolerance, |ctx| {
                policy.predict_all_into(ctx, &mut all_preds).expect("arity matches");
                tolerant_select(&all_preds, costs, cfg.bandit.tolerance).expect("non-empty arms")
            });

            traj.rmse.push(rmse);
            traj.accuracy.push(accuracy);
            traj.regret.push(cum_regret);
            traj.explored.push(if rec.explored { 1.0 } else { 0.0 });
            traj.cost.push(costs[rec.arm]);
        }
        round += batch;
    }
    traj
}

#[cfg(test)]
mod tests {
    use super::*;
    use banditware_workloads::cycles::{generate_paper_trace, CyclesModel};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_cfg() -> ExperimentConfig {
        ExperimentConfig::paper().with_rounds(40).with_sims(8).with_seed(5)
    }

    fn cycles_setup() -> (Trace, CyclesModel) {
        let model = CyclesModel::paper();
        let mut rng = StdRng::seed_from_u64(21);
        let trace = generate_paper_trace(&model, &mut rng);
        (trace, model)
    }

    #[test]
    fn rmse_decreases_and_approaches_full_fit() {
        let (trace, model) = cycles_setup();
        let cfg = small_cfg().with_tolerance(Tolerance::seconds(20.0).unwrap());
        let res = run_experiment(&trace, &model, &cfg);
        assert_eq!(res.series.len(), 40);
        let early = res.series.rmse_mean[0];
        let late = res.series.tail_rmse(5);
        assert!(late < early, "RMSE must decrease: {early} → {late}");
        // Within 2.5× of the full fit by the end (paper: parity at ~20 rounds).
        assert!(
            late < res.full_fit_rmse * 2.5,
            "late RMSE {late} vs full fit {}",
            res.full_fit_rmse
        );
    }

    #[test]
    fn accuracy_rises_above_random_on_separated_hardware() {
        let (trace, model) = cycles_setup();
        let cfg = small_cfg().with_tolerance(Tolerance::seconds(20.0).unwrap());
        let res = run_experiment(&trace, &model, &cfg);
        let tail = res.series.tail_accuracy(5);
        assert!(tail > 0.6, "tail accuracy {tail}");
        assert!(tail > res.random_accuracy * 2.0);
        assert_eq!(res.n_arms, 4);
        assert_eq!(res.random_accuracy, 0.25);
    }

    #[test]
    fn exploration_fraction_decays() {
        let (trace, model) = cycles_setup();
        let res = run_experiment(&trace, &model, &small_cfg());
        let first = res.series.explore_frac[0];
        let last = res.series.explore_frac[res.series.len() - 1];
        assert!(first > 0.9, "ε₀ = 1 explores every first round, got {first}");
        assert!(last < first, "exploration decays: {first} → {last}");
    }

    #[test]
    fn regret_is_monotone_nondecreasing() {
        let (trace, model) = cycles_setup();
        let res = run_experiment(&trace, &model, &small_cfg());
        for w in res.series.regret_mean.windows(2) {
            assert!(w[1] >= w[0] - 1e-9, "cumulative regret cannot decrease");
        }
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let (trace, model) = cycles_setup();
        let mut cfg1 = small_cfg();
        cfg1.n_threads = 1;
        let mut cfg4 = small_cfg();
        cfg4.n_threads = 4;
        let r1 = run_experiment(&trace, &model, &cfg1);
        let r4 = run_experiment(&trace, &model, &cfg4);
        assert_eq!(r1.series.rmse_mean, r4.series.rmse_mean);
        assert_eq!(r1.series.accuracy_mean, r4.series.accuracy_mean);
    }

    #[test]
    fn batched_rounds_learn_and_stay_deterministic() {
        let (trace, model) = cycles_setup();
        // Batch of 8: selections within a burst share model state, yet the
        // curves keep one entry per round and learning still converges.
        let cfg = small_cfg().with_batch(8).with_tolerance(Tolerance::seconds(20.0).unwrap());
        let res = run_experiment(&trace, &model, &cfg);
        assert_eq!(res.series.len(), 40);
        assert!(res.series.tail_rmse(5) < res.series.rmse_mean[0], "batched run must learn");
        // Batch size must not break thread-count determinism.
        let mut cfg1 = cfg.clone();
        cfg1.n_threads = 1;
        let mut cfg4 = cfg.clone();
        cfg4.n_threads = 4;
        let r1 = run_experiment(&trace, &model, &cfg1);
        let r4 = run_experiment(&trace, &model, &cfg4);
        assert_eq!(r1.series.rmse_mean, r4.series.rmse_mean);
        // A batch that does not divide n_rounds still yields n_rounds
        // entries (final short burst).
        let cfg = small_cfg().with_rounds(10).with_sims(2).with_batch(4);
        let res = run_experiment(&trace, &model, &cfg);
        assert_eq!(res.series.len(), 10);
    }

    #[test]
    fn batch_of_one_is_the_paper_protocol() {
        // The ticketed facade path at batch 1 must reproduce the raw
        // sequential `select` → `observe` loop (the pre-ticket protocol)
        // draw for draw. The reference below *is* that old loop, with the
        // same per-sim seed derivation run_single_sim uses.
        let (trace, model) = cycles_setup();
        let cfg = small_cfg().with_sims(1).with_rounds(30);
        let res = run_experiment(&trace, &model, &cfg);

        let sim_seed = cfg.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        let specs = specs_from_hardware(&trace.hardware);
        let mut policy = DecayingEpsilonGreedy::<RecursiveArm>::new(
            specs,
            trace.n_features(),
            cfg.bandit.with_seed(sim_seed),
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(sim_seed ^ 0x5555_5555_5555_5555);
        let costs: Vec<f64> = trace.hardware.iter().map(HardwareConfig::resource_cost).collect();
        let mut cum_regret = 0.0;
        for round in 0..cfg.n_rounds {
            let row = &trace.rows[rng.gen_range(0..trace.len())];
            let sel = policy.select(&row.features).unwrap();
            let rt = model.sample_runtime(&trace.hardware[sel.arm], &row.features, &mut rng);
            policy.observe(sel.arm, &row.features, rt).unwrap();
            let expected: Vec<f64> =
                trace.hardware.iter().map(|h| model.expected_runtime(h, &row.features)).collect();
            let best = expected.iter().cloned().fold(f64::INFINITY, f64::min);
            cum_regret += (expected[sel.arm] - best).max(0.0);
            // Single sim → the aggregated series is that sim's trajectory;
            // any divergence in the RNG stream or selection order shows up
            // as a mismatched choice, exploration flag, or regret.
            assert_eq!(
                res.series.explore_frac[round],
                if sel.explored { 1.0 } else { 0.0 },
                "round {round}: exploration flag diverged"
            );
            assert_eq!(
                res.series.cost_mean[round], costs[sel.arm],
                "round {round}: selected arm diverged"
            );
            assert!(
                (res.series.regret_mean[round] - cum_regret).abs() < 1e-12,
                "round {round}: regret diverged"
            );
        }
    }

    #[test]
    fn generic_policy_factory_runs() {
        use banditware_core::ucb::Ucb1;
        let (trace, model) = cycles_setup();
        let cfg = small_cfg().with_rounds(10).with_sims(2);
        let n_arms = trace.hardware.len();
        let res = run_experiment_with(&trace, &model, &cfg, |_| {
            Ucb1::new(ArmSpec::unit_costs(n_arms), 1, 2.0f64.sqrt()).unwrap()
        });
        assert_eq!(res.series.len(), 10);
    }

    #[test]
    #[should_panic(expected = "non-empty trace")]
    fn empty_trace_panics() {
        let (_, model) = cycles_setup();
        let empty = Trace::new(
            "x",
            vec!["num_tasks".into()],
            banditware_workloads::hardware::synthetic_hardware(),
        );
        let _ = run_experiment(&empty, &model, &small_cfg());
    }
}
