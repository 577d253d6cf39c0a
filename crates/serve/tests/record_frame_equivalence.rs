//! Bitwise equivalence of the columnar record path and sequential single
//! rounds.
//!
//! The record-side twin of `engine_equivalence.rs`: absorbing a burst
//! through `record_batch_frame` (staged `ObservationFrame`, per-arm grouped
//! rank-k Gram folds) leaves the policy in bit-for-bit the *same* state as
//! recording the rounds one at a time in input order — same snapshots, same
//! prediction bits, same histories, and (through [`DurableEngine`]) the
//! same WAL segment bytes. The twins are driven across burst sizes covering
//! the 4-lane block tails (0–16), feature widths 0–9, and interleaved
//! whole-burst / single-record / split-burst calls, for plain + scaled
//! ε-greedy and LinUCB.

use banditware_core::scaler::scaled_epsilon_greedy;
use banditware_core::{ArmSpec, BanditConfig, BanditWare, FeatureFrame, Policy, Ticket};
use banditware_serve::{DurableEngine, Engine, EngineBuilder, WalOptions};
use std::path::{Path, PathBuf};

const M: usize = 7; // deliberately not a multiple of 4: exercises kernel tails
const SEED: u64 = 0x5EC0_8D08;

// Burst sizes covering empty, tails 1..3, exact blocks, and bigger bursts.
const BURSTS: &[usize] = &[4, 1, 0, 5, 8, 3, 13, 2, 16, 7];

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

/// Drive identically seeded twin recommenders through the same issued
/// rounds; the `rows` twin records every round one at a time (the
/// reference semantics), the `framed` twin cycles whole-burst / single /
/// split-burst `record_batch_frame` calls. Every round probes per-arm prediction bits;
/// the end states (snapshot, history, round counters, open tickets) must
/// be identical.
fn record_frame_matches_rows<P: Policy>(
    mut rows: BanditWare<P>,
    mut framed: BanditWare<P>,
    m: usize,
) {
    let mut frame = FeatureFrame::new();
    let probe: Vec<f64> = (0..m).map(|j| 0.75 * j as f64 - 1.0).collect();
    for (round, &n) in BURSTS.iter().enumerate() {
        let contexts: Vec<Vec<f64>> = (0..n).map(|r| context(round, r, m)).collect();
        frame.fill_from_rows(&contexts).unwrap();
        let via_rows = rows.recommend_batch_frame(&frame).unwrap();
        let via_frame = framed.recommend_batch_frame(&frame).unwrap();
        assert_eq!(via_rows.len(), via_frame.len(), "m={m} round {round}: burst size");

        let outcome = |issued: &[(Ticket, banditware_core::Recommendation)]| -> Vec<(Ticket, f64)> {
            issued
                .iter()
                .enumerate()
                .map(|(i, (t, rec))| (*t, runtime(rec.arm, &contexts[i])))
                .collect()
        };
        let out_rows = outcome(&via_rows);
        let out_frame = outcome(&via_frame);

        // Reference: strictly one at a time, in input order.
        for &(t, rt) in &out_rows {
            rows.record_ticket(t, rt).unwrap();
        }
        // Candidate: interleave the three record styles across rounds.
        match round % 3 {
            0 => framed.record_batch_frame(&out_frame).unwrap(),
            1 => {
                for &(t, rt) in &out_frame {
                    framed.record_ticket(t, rt).unwrap();
                }
            }
            _ => {
                let (head, tail) = out_frame.split_at(out_frame.len() / 2);
                framed.record_batch_frame(head).unwrap();
                framed.record_batch_frame(tail).unwrap();
            }
        }

        for arm in 0..3 {
            match (rows.policy().predict(arm, &probe), framed.policy().predict(arm, &probe)) {
                (Ok(a), Ok(b)) => assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "m={m} round {round} arm {arm}: prediction bits ({a} vs {b})"
                ),
                (Err(_), Err(_)) => {}
                (a, b) => {
                    panic!("m={m} round {round} arm {arm}: predict divergence {a:?} vs {b:?}")
                }
            }
        }
    }
    assert_eq!(
        rows.policy().snapshot(),
        framed.policy().snapshot(),
        "m={m}: policy state diverged between row and frame record paths"
    );
    assert_eq!(rows.history(), framed.history(), "m={m}: histories diverged");
    assert_eq!(rows.rounds(), framed.rounds(), "m={m}: round counters diverged");
    assert_eq!(rows.open_tickets(), framed.open_tickets(), "m={m}: open tickets diverged");
}

#[test]
fn plain_epsilon_record_frame_matches_rows() {
    let mk = || {
        let policy = banditware_core::epsilon::EpsilonGreedy::new(
            specs(),
            M,
            BanditConfig::paper().with_seed(SEED),
        )
        .unwrap();
        BanditWare::new(policy, specs())
    };
    record_frame_matches_rows(mk(), mk(), M);
}

#[test]
fn scaled_epsilon_record_frame_matches_rows() {
    let mk = || {
        let policy =
            scaled_epsilon_greedy(specs(), M, BanditConfig::paper().with_seed(SEED)).unwrap();
        BanditWare::new(policy, specs())
    };
    record_frame_matches_rows(mk(), mk(), M);
}

/// The default row-gather `observe_frame` (used by policies without a
/// grouped absorption kernel) also matches — here via LinUCB.
#[test]
fn linucb_record_frame_matches_rows() {
    let mk = || {
        let policy = banditware_core::linucb::LinUcb::new(specs(), M, 1.0, 1e-3).unwrap();
        BanditWare::new(policy, specs())
    };
    record_frame_matches_rows(mk(), mk(), M);
}

/// Feature widths sweeping the rank-k fold's block tails (0..=9) all stay
/// bitwise identical between the frame record path and one-at-a-time
/// recording.
#[test]
fn record_frame_matches_rows_across_feature_widths() {
    for m in 0..=9usize {
        let mk = || {
            let policy =
                scaled_epsilon_greedy(specs(), m, BanditConfig::paper().with_seed(SEED ^ m as u64))
                    .unwrap();
            BanditWare::new(policy, specs())
        };
        record_frame_matches_rows(mk(), mk(), m);
    }
}

// ---------------------------------------------------------------------------
// Durable layer: WAL segment bytes
// ---------------------------------------------------------------------------

fn builder() -> EngineBuilder {
    Engine::builder(specs(), M).config(BanditConfig::paper().with_seed(SEED)).stripes(4)
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join("bw_wal_tests").join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// All WAL segment bytes of a key's directory, concatenated in segment
/// order (both engines stay inside one segment here — the bursts total a
/// few KiB against a 1 MiB segment cap — so this is the full log).
fn wal_bytes(key_dir: &Path) -> Vec<u8> {
    let mut segments: Vec<_> = std::fs::read_dir(key_dir)
        .unwrap()
        .filter_map(|e| e.unwrap().file_name().into_string().ok())
        .filter(|n| n.starts_with("wal-"))
        .collect();
    segments.sort();
    assert!(!segments.is_empty(), "no WAL segments under {}", key_dir.display());
    let mut bytes = Vec::new();
    for seg in segments {
        bytes.extend(std::fs::read(key_dir.join(seg)).unwrap());
    }
    bytes
}

fn probe_predictions(engine: &Engine, key: &str) -> Vec<u64> {
    let mut bits = Vec::new();
    let probe: Vec<f64> = (0..M).map(|j| 0.75 * j as f64 - 1.0).collect();
    engine
        .with_shard(key, |shard| {
            for arm in 0..3 {
                bits.push(shard.policy().predict(arm, &probe).unwrap().to_bits());
            }
        })
        .expect("shard exists");
    bits
}

/// Three twins see the same issued rounds: an in-memory [`Engine`] that
/// records one round at a time through `Engine::record` (the sequential
/// observe path, no frame code), a `DurableEngine` that records each round
/// with its own `record` call (one append per observation), and a
/// `DurableEngine` that absorbs each burst with `record_batch_frame` (one
/// grouped append per burst, grouped rank-k absorption; every third burst
/// split in two). The per-round and batched logs must hold the same
/// **segment bytes** — seqs, lines, CRCs — and all three models the same
/// prediction bits and histories.
#[test]
fn per_round_record_writes_the_wal_bytes_of_batched_record_batch_frame() {
    let dir_rounds = tmp_dir("record-per-round");
    let dir_batched = tmp_dir("record-batched");
    let sequential = builder().build().unwrap();
    let (per_round, _) = DurableEngine::open(builder(), WalOptions::new(&dir_rounds)).unwrap();
    let (batched, _) = DurableEngine::open(builder(), WalOptions::new(&dir_batched)).unwrap();

    let mut frame = FeatureFrame::new();
    for (round, &n) in BURSTS.iter().enumerate() {
        let contexts: Vec<Vec<f64>> = (0..n).map(|r| context(round, r, M)).collect();
        frame.fill_from_rows(&contexts).unwrap();
        let issued = sequential.recommend_batch_frame("w", &frame).unwrap();
        let via_rounds = per_round.recommend_batch_frame("w", &frame).unwrap();
        let via_batch = batched.recommend_batch_frame("w", &frame).unwrap();
        for (i, (t, rec)) in issued.iter().enumerate() {
            for (tb, rb) in [&via_rounds[i], &via_batch[i]] {
                assert_eq!((t.id(), rec.arm), (tb.id(), rb.arm), "round {round}: selections");
            }
        }
        let outcomes: Vec<(Ticket, f64)> = issued
            .iter()
            .enumerate()
            .map(|(i, (t, rec))| (*t, runtime(rec.arm, &contexts[i])))
            .collect();
        for &(t, rt) in &outcomes {
            sequential.record("w", t, rt).unwrap();
            per_round.record("w", t, rt).unwrap();
        }
        if round % 3 == 2 {
            let (head, tail) = outcomes.split_at(n / 2);
            batched.record_batch_frame("w", head).unwrap();
            batched.record_batch_frame("w", tail).unwrap();
        } else {
            batched.record_batch_frame("w", &outcomes).unwrap();
        }
    }

    let reference = probe_predictions(&sequential, "w");
    assert_eq!(probe_predictions(per_round.engine(), "w"), reference, "per-round model");
    assert_eq!(probe_predictions(batched.engine(), "w"), reference, "batched model");
    let history = sequential.history("w").unwrap();
    assert_eq!(per_round.engine().history("w").unwrap(), history, "per-round history");
    assert_eq!(batched.engine().history("w").unwrap(), history, "batched history");
    assert_eq!(
        wal_bytes(&dir_rounds.join("kw")),
        wal_bytes(&dir_batched.join("kw")),
        "WAL segment bytes diverged between per-round records and group commits"
    );

    drop(per_round);
    drop(batched);
    let _ = std::fs::remove_dir_all(&dir_rounds);
    let _ = std::fs::remove_dir_all(&dir_batched);
}
