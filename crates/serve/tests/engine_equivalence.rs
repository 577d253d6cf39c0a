//! Acceptance tests for the concurrent serving engine.
//!
//! The contract: a seeded run through [`Engine`] with N threads and batch
//! size B is **indistinguishable, shard by shard**, from the same per-key
//! round streams driven single-threaded through the legacy [`BanditWare`]
//! facade — and checkpoints taken from engine shards replay into
//! recommenders that keep emitting identical recommendations.

use banditware_core::persist;
use banditware_core::{
    ArmSpec, BanditConfig, BanditWare, CoreError, FeatureFrame, Observation, Policy,
    Recommendation, Ticket,
};
use banditware_serve::builder::build_policy;
use banditware_serve::stress::{draw_context, true_runtime};
use banditware_serve::{run_stress, Engine, StressPlan};

const SEED: u64 = 1234;

fn specs() -> Vec<ArmSpec> {
    vec![
        ArmSpec::new(0, "small", 1.0),
        ArmSpec::new(1, "medium", 2.0),
        ArmSpec::new(2, "large", 4.0),
    ]
}

fn engine(stripes: usize) -> Engine {
    Engine::builder(specs(), 1)
        .policy("epsilon-greedy")
        .config(BanditConfig::paper().with_seed(SEED))
        .stripes(stripes)
        .build()
        .unwrap()
}

/// A standalone facade twin of one engine shard: same policy, same per-key
/// seed, no engine, no locks, no threads.
fn shard_twin(e: &Engine, key: &str) -> BanditWare<Box<dyn Policy>> {
    let config = BanditConfig::paper().with_seed(e.shard_seed(key));
    let policy = build_policy("epsilon-greedy", specs(), 1, &config).unwrap();
    BanditWare::new(policy, specs())
}

/// The legacy single-threaded loop for one key: the exact round stream the
/// stress harness drives, replayed through the core facade one round at a
/// time — one `recommend_ticketed` per context, one `record_ticket` per
/// outcome — so the engine's batched frame path is pinned against
/// sequential single rounds.
fn legacy_loop(twin: &mut BanditWare<Box<dyn Policy>>, plan: &StressPlan, key: &str) {
    let mut rng = plan.key_rng(key);
    let mut remaining = plan.rounds_per_key;
    while remaining > 0 {
        let batch = plan.batch_size.max(1).min(remaining);
        let contexts: Vec<Vec<f64>> = (0..batch).map(|_| draw_context(&mut rng)).collect();
        let issued: Vec<(Ticket, Recommendation)> =
            contexts.iter().map(|x| twin.recommend_ticketed(x).unwrap()).collect();
        let outcomes: Vec<(Ticket, f64)> = issued
            .iter()
            .zip(&contexts)
            .map(|((t, rec), x)| (*t, true_runtime(rec.arm, x, &mut rng)))
            .collect();
        for (t, rt) in outcomes {
            twin.record_ticket(t, rt).unwrap();
        }
        remaining -= batch;
    }
}

#[test]
fn n_threads_batched_matches_single_threaded_legacy_loop() {
    let plan = StressPlan {
        n_threads: 4,
        keys_per_thread: 2,
        rounds_per_key: 48,
        batch_size: 6,
        seed: 99,
    };
    // Concurrent run: 4 threads, striped locks, batched rounds.
    let concurrent = engine(4);
    let report = run_stress(&concurrent, &plan);
    assert_eq!(report.total_rounds, 4 * 2 * 48);

    // Single-threaded reference, visiting the keys in reverse order (order
    // across shards must not matter).
    for key in plan.all_keys().iter().rev() {
        let mut twin = shard_twin(&concurrent, key);
        legacy_loop(&mut twin, &plan, key);
        let shard = concurrent.history(key).unwrap();
        assert_eq!(shard.len(), 48);
        assert_eq!(shard, twin.history(), "shard {key} diverged from the legacy loop");
    }
}

/// With batch size 1 the ticketed stream reduces exactly to the legacy
/// single-slot recommend/record protocol.
#[test]
fn batch_of_one_reduces_to_legacy_single_slot() {
    let plan =
        StressPlan { n_threads: 2, keys_per_thread: 1, rounds_per_key: 40, batch_size: 1, seed: 5 };
    let e = engine(2);
    run_stress(&e, &plan);

    for key in plan.all_keys() {
        let mut twin = shard_twin(&e, &key);
        let mut rng = plan.key_rng(&key);
        for _ in 0..plan.rounds_per_key {
            let x = draw_context(&mut rng);
            let rec = twin.recommend(&x).unwrap();
            let rt = true_runtime(rec.arm, &x, &mut rng);
            twin.record(rt).unwrap();
        }
        assert_eq!(e.history(&key).unwrap(), twin.history(), "per-call path diverged for {key}");
    }
}

/// Satellite: seeded 8-thread stress; the engine's global history is a
/// permutation-invariant deterministic set.
#[test]
fn eight_thread_stress_is_permutation_invariant() {
    let plan = StressPlan {
        n_threads: 8,
        keys_per_thread: 1,
        rounds_per_key: 32,
        batch_size: 4,
        seed: 21,
    };

    // Key the observations by value (floats via their exact debug form) so
    // comparison is order-free.
    let collect_sorted = |e: &Engine| {
        let mut all: Vec<(String, usize, String, String, bool)> = Vec::new();
        for key in e.keys() {
            for Observation { arm, features, runtime, explored, .. } in e.history(&key).unwrap() {
                all.push((
                    key.clone(),
                    arm,
                    format!("{features:?}"),
                    format!("{runtime}"),
                    explored,
                ));
            }
        }
        all.sort();
        all
    };

    let a = engine(8);
    run_stress(&a, &plan);
    let b = engine(8);
    run_stress(&b, &plan);
    let set_a = collect_sorted(&a);
    assert_eq!(set_a.len(), 8 * 32);
    assert_eq!(set_a, collect_sorted(&b), "same plan, same seed → same observation set");

    // A different stripe layout shuffles lock contention; the set is
    // unchanged.
    let c = engine(1);
    run_stress(&c, &plan);
    assert_eq!(set_a, collect_sorted(&c), "stripe layout must not leak into results");
}

/// Checkpoints from engine shards replay into recommenders that keep
/// emitting identical recommendations (the persistence contract, now
/// through the serving layer).
#[test]
fn replayed_shards_recommend_identically() {
    let plan = StressPlan {
        n_threads: 3,
        keys_per_thread: 1,
        rounds_per_key: 60,
        batch_size: 5,
        seed: 77,
    };
    let e = engine(3);
    run_stress(&e, &plan);

    for key in plan.all_keys() {
        let mut buf = Vec::new();
        e.save_shard(&key, &mut buf).unwrap();
        let snapshot = persist::load_snapshot(buf.as_slice()).unwrap();
        assert_eq!(snapshot.observations.len(), 60);

        // Two independent restores driven on an identical stream must stay
        // in lockstep (exploration draws included).
        let restore = || {
            let policy =
                build_policy("epsilon-greedy", specs(), 1, &BanditConfig::paper().with_seed(4242))
                    .unwrap();
            let mut bw = BanditWare::new(policy, specs());
            persist::restore_snapshot(&mut bw, &snapshot).unwrap();
            bw
        };
        let (mut a, mut b) = (restore(), restore());
        for i in 0..25 {
            let x = vec![(i % 9 + 1) as f64 * 7.0];
            let ra = a.recommend(&x).unwrap();
            let rb = b.recommend(&x).unwrap();
            assert_eq!(ra, rb, "replayed twins diverged for {key} at probe {i}");
            a.record(100.0 + i as f64).unwrap();
            b.record(100.0 + i as f64).unwrap();
        }
    }
}

#[test]
fn every_policy_refuses_non_finite_contexts_without_a_trace() {
    // Context-free policies (ucb1, plain ε-greedy) ignore the context when
    // selecting, yet must refuse it too: a ticket issued for it would carry
    // the non-finite value into the record path and the log.
    for &name in banditware_serve::policy_names() {
        let build = || {
            Engine::builder(specs(), 2)
                .policy(name)
                .config(BanditConfig::paper().with_seed(SEED))
                .build()
                .unwrap()
        };
        let (served, twin) = (build(), build());
        let step = |i: usize| {
            let x = [(i % 7) as f64 + 1.0, (i % 3) as f64];
            let mut out = Vec::new();
            for e in [&served, &twin] {
                let (t, rec) = e.recommend("k", &x).unwrap();
                e.record("k", t, 5.0 + rec.arm as f64 * x[0]).unwrap();
                out.push((t.id(), rec.arm, rec.predicted_runtime.to_bits()));
            }
            assert_eq!(out[0], out[1], "{name}, round {i}");
        };
        for i in 0..30 {
            step(i);
        }
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = served.recommend("k", &[1.0, bad]).unwrap_err();
            assert!(matches!(err, CoreError::NonFiniteFeature { index: 1, .. }), "{name}: {err}");
            let burst = FeatureFrame::from_rows(&[vec![1.0, 2.0], vec![bad, 2.0]]).unwrap();
            let err = served.recommend_batch_frame("k", &burst).unwrap_err();
            assert!(matches!(err, CoreError::NonFiniteFeature { index: 0, .. }), "{name}: {err}");
        }
        assert!(served.open_tickets("k").is_empty(), "{name}: no ticket issued");
        for i in 30..60 {
            step(i);
        }
        let log = |e: &Engine| {
            let mut bytes = Vec::new();
            e.save_shard("k", &mut bytes).unwrap();
            bytes
        };
        assert_eq!(log(&served), log(&twin), "{name}: history identical to the twin");
    }
}
