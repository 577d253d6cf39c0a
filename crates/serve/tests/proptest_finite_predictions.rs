//! Finite inputs give finite predictions, for every policy
//! [`build_policy`] names.
//!
//! Contexts mix magnitudes from 1e-6 to 1e6 (either sign) within one row,
//! and runtimes span (0, 1e6]. Each case drives all nine policies with the
//! same stream: first single [`Policy::select`] / [`Policy::observe`]
//! rounds, then frame bursts through [`Policy::select_frame_into`] /
//! [`Policy::observe_frame`]. Every call must succeed, every burst row must
//! be absorbed, and afterwards every arm's [`Policy::predict`] on a finite
//! probe must be finite.

use banditware_core::{ArmSpec, BanditConfig, FeatureFrame, ObservationFrame, Policy};
use banditware_serve::{build_policy, policy_names};
use proptest::prelude::*;

const N_ARMS: usize = 3;

/// A finite feature value of magnitude in [1e-6, 1e6), either sign.
fn feature() -> impl Strategy<Value = f64> {
    (1.0f64..10.0, -6i32..6, any::<bool>()).prop_map(|(mantissa, exp, negative)| {
        let v = mantissa * 10f64.powi(exp);
        if negative {
            -v
        } else {
            v
        }
    })
}

/// A runtime in (0, 1e6], log-spread so small and large ones both occur.
fn runtime() -> impl Strategy<Value = f64> {
    (1.0f64..=10.0, -6i32..=5).prop_map(|(mantissa, exp)| mantissa * 10f64.powi(exp))
}

/// One case: feature width, the observation stream, a probe context, how
/// many leading rows go one round at a time, and the burst sizes (cycled)
/// the remaining rows are split into.
type Case = (usize, Vec<(Vec<f64>, f64)>, Vec<f64>, usize, Vec<usize>);

fn case() -> impl Strategy<Value = Case> {
    (1usize..=4).prop_flat_map(|m| {
        (
            Just(m),
            prop::collection::vec((prop::collection::vec(feature(), m), runtime()), 1..48),
            prop::collection::vec(feature(), m),
            0usize..=16,
            prop::collection::vec(1usize..=9, 1..6),
        )
    })
}

fn ok<T>(r: banditware_core::Result<T>, what: &str) -> Result<T, TestCaseError> {
    r.map_err(|e| TestCaseError::fail(format!("{what}: {e}")))
}

/// Drive `policy` over the case's stream, then check every arm's
/// prediction at the probe. Policies without context features
/// (`n_features() == 0`) see the empty prefix of each row.
fn drive_and_probe(name: &str, policy: &mut dyn Policy, case: &Case) -> Result<(), TestCaseError> {
    let (_, stream, probe, singles, bursts) = case;
    let width = policy.n_features();
    let singles = (*singles).min(stream.len());
    for (x, y) in &stream[..singles] {
        let sel = ok(policy.select(&x[..width]), &format!("{name} select"))?;
        ok(policy.observe(sel.arm, &x[..width], *y), &format!("{name} observe"))?;
    }
    let mut frame = FeatureFrame::new();
    let mut obs = ObservationFrame::new();
    let (mut sels, mut absorbed, mut row) = (Vec::new(), Vec::new(), Vec::new());
    let mut rest = &stream[singles..];
    for &k in bursts.iter().cycle() {
        if rest.is_empty() {
            break;
        }
        let (burst, tail) = rest.split_at(k.min(rest.len()));
        rest = tail;
        let contexts: Vec<Vec<f64>> = burst.iter().map(|(x, _)| x[..width].to_vec()).collect();
        ok(frame.fill_from_rows(&contexts), &format!("{name} fill frame"))?;
        ok(policy.select_frame_into(&frame, &mut sels, &mut row), &format!("{name} select_frame"))?;
        obs.begin(burst.len(), width);
        for (i, ((_, y), sel)) in burst.iter().zip(&sels).enumerate() {
            ok(obs.set_row(i, sel.arm, &contexts[i], *y, sel.explored), "set_row")?;
        }
        ok(policy.observe_frame(&obs, &mut absorbed, &mut row), &format!("{name} observe_frame"))?;
        prop_assert!(absorbed.iter().all(|&a| a), "{name}: a burst row was not absorbed");
    }
    for arm in 0..policy.n_arms() {
        let p = ok(policy.predict(arm, &probe[..width]), &format!("{name} predict"))?;
        prop_assert!(p.is_finite(), "{name}: arm {arm} predicts {p} at a finite probe");
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn finite_inputs_give_finite_predictions_for_every_policy(case in case()) {
        let (m, ..) = case;
        let specs = ArmSpec::unit_costs(N_ARMS);
        let config = BanditConfig::paper().with_seed(0xF1_41_7E);
        for &name in policy_names() {
            let mut policy = build_policy(name, specs.clone(), m, &config).unwrap();
            drive_and_probe(name, policy.as_mut(), &case)?;
        }
    }
}
