//! Crash-recovery integration tests for the per-shard WAL: kill an engine
//! (by dropping it) mid-flight and verify a reopened one carries exactly
//! the recorded state — through bare segments, snapshot + tail, rotation,
//! and a torn final line.

use banditware_core::{ArmSpec, BanditConfig, CoreError, FeatureFrame, Retention, Ticket};
use banditware_serve::crc::crc32;
use banditware_serve::{DurableEngine, Engine, EngineBuilder, ServeError, WalOptions};
use std::path::PathBuf;

const N_FEATURES: usize = 2;

fn builder() -> EngineBuilder {
    Engine::builder(ArmSpec::unit_costs(3), N_FEATURES)
        .config(BanditConfig::paper().with_epsilon0(0.2).with_seed(77))
        .stripes(4)
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join("bw_wal_tests").join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn frame(rows: &[Vec<f64>]) -> FeatureFrame {
    FeatureFrame::from_rows(rows).unwrap()
}

fn context(i: usize) -> Vec<f64> {
    vec![(i % 9) as f64 + 0.5, ((i * 3) % 7) as f64]
}

fn probe_predictions(engine: &Engine, key: &str) -> Vec<u64> {
    let mut bits = Vec::new();
    for probe in [[1.0, 2.0], [5.5, 0.0], [8.0, 6.0]] {
        engine
            .with_shard(key, |shard| {
                for arm in 0..3 {
                    bits.push(shard.policy().predict(arm, &probe).unwrap().to_bits());
                }
            })
            .expect("shard exists");
    }
    bits
}

#[test]
fn crash_and_recover_mid_flight() {
    let dir = tmp_dir("mid-flight");
    let (engine, report) = DurableEngine::open(builder(), WalOptions::new(&dir)).unwrap();
    assert!(report.keys.is_empty(), "fresh directory recovers nothing");

    // Two tenants, overlapping rounds, one ticket left open per tenant.
    let mut open = Vec::new();
    for key in ["tenant-a", "tenant-b"] {
        for i in 0..25 {
            let x = context(i);
            let (t, rec) = engine.recommend(key, &x).unwrap();
            engine.record(key, t, 10.0 + rec.arm as f64 + x[0]).unwrap();
        }
        let (t, _) = engine.recommend(key, &[9.0, 1.0]).unwrap();
        open.push((key, t));
    }
    let before_a = probe_predictions(engine.engine(), "tenant-a");
    let rounds_a = engine.engine().with_shard("tenant-a", |s| s.rounds()).unwrap();
    drop(engine); // the crash: no graceful shutdown, no compaction

    let (revived, report) = DurableEngine::open(builder(), WalOptions::new(&dir)).unwrap();
    assert_eq!(report.keys, vec!["tenant-a".to_string(), "tenant-b".to_string()]);
    assert_eq!(report.snapshots_loaded, 0, "no compaction ran; pure WAL replay");
    assert_eq!(report.replayed, 50);
    assert!(!report.torn_tail);

    // Model state is carried exactly (replay of a never-compacted log is
    // the same warm-start arithmetic the shard applied live).
    assert_eq!(probe_predictions(revived.engine(), "tenant-a"), before_a);
    assert_eq!(revived.engine().with_shard("tenant-a", |s| s.rounds()).unwrap(), rounds_a);

    // Open tickets died with the process: their runtimes are rejected
    // loudly, not misattributed.
    for (key, t) in open {
        assert!(revived.record(key, t, 1.0).unwrap_err().is_unknown_ticket());
    }

    // And the revived engine keeps serving + logging.
    let (t, _) = revived.recommend("tenant-a", &[2.0, 2.0]).unwrap();
    revived.record("tenant-a", t, 21.0).unwrap();
    assert_eq!(revived.engine().with_shard("tenant-a", |s| s.rounds()).unwrap(), rounds_a + 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn compaction_supersedes_segments_and_restores_bitwise() {
    let dir = tmp_dir("compact");
    let (engine, _) = DurableEngine::open(builder(), WalOptions::new(&dir)).unwrap();

    for i in 0..40 {
        let contexts: Vec<Vec<f64>> = (0..4).map(|j| context(i * 4 + j)).collect();
        let issued = engine.recommend_batch_frame("w", &frame(&contexts)).unwrap();
        let outcomes: Vec<(Ticket, f64)> =
            issued.iter().map(|(t, r)| (*t, 10.0 + r.arm as f64)).collect();
        engine.record_batch_frame("w", &outcomes).unwrap();
    }
    // Leave a round in flight across the compaction AND the crash.
    let (held, held_rec) = engine.recommend("w", &[4.0, 4.0]).unwrap();

    engine.compact("w").unwrap();
    let key_dir = dir.join("kw");
    assert!(key_dir.join("snapshot.v3").exists());
    let segments: Vec<_> = std::fs::read_dir(&key_dir)
        .unwrap()
        .filter_map(|e| e.unwrap().file_name().into_string().ok())
        .filter(|n| n.starts_with("wal-"))
        .collect();
    assert!(segments.is_empty(), "compaction deletes superseded segments: {segments:?}");

    // A short tail after the compaction.
    for i in 0..5 {
        let (t, rec) = engine.recommend("w", &context(900 + i)).unwrap();
        engine.record("w", t, 30.0 + rec.arm as f64).unwrap();
    }
    let before = probe_predictions(engine.engine(), "w");
    let rounds = engine.engine().with_shard("w", |s| s.rounds()).unwrap();
    drop(engine);

    let (revived, report) = DurableEngine::open(builder(), WalOptions::new(&dir)).unwrap();
    assert_eq!(report.snapshots_loaded, 1);
    assert_eq!(report.replayed, 5, "only the post-compaction tail replays");
    assert_eq!(probe_predictions(revived.engine(), "w"), before);
    assert_eq!(revived.engine().with_shard("w", |s| s.rounds()).unwrap(), rounds);

    // The ticket held across compaction + crash was in the snapshot: the
    // surviving reporter can still record it, attributed to the original
    // selection.
    revived.record("w", held, 55.0).unwrap();
    let last = revived.engine().with_shard("w", |s| s.history().last().unwrap().clone()).unwrap();
    assert_eq!(last.arm, held_rec.arm);
    assert_eq!(last.features, vec![4.0, 4.0]);
    assert_eq!(last.runtime, 55.0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn segments_rotate_at_size_threshold_and_replay_in_order() {
    let dir = tmp_dir("rotate");
    let options = WalOptions::new(&dir).segment_max_bytes(256);
    let (engine, _) = DurableEngine::open(builder(), options.clone()).unwrap();
    for i in 0..60 {
        let (t, rec) = engine.recommend("k", &context(i)).unwrap();
        engine.record("k", t, 5.0 + rec.arm as f64).unwrap();
    }
    let key_dir = dir.join("kk");
    let n_segments = std::fs::read_dir(&key_dir)
        .unwrap()
        .filter_map(|e| e.unwrap().file_name().into_string().ok())
        .filter(|n| n.starts_with("wal-"))
        .count();
    assert!(n_segments > 3, "256-byte threshold must rotate: {n_segments} segments");

    let before = probe_predictions(engine.engine(), "k");
    drop(engine);
    let (revived, report) = DurableEngine::open(builder(), options).unwrap();
    assert_eq!(report.replayed, 60);
    assert_eq!(probe_predictions(revived.engine(), "k"), before);
    // Appends after recovery land in the highest segment (no index reuse
    // that would shadow older records).
    let (t, _) = revived.recommend("k", &context(999)).unwrap();
    revived.record("k", t, 9.0).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_final_line_is_discarded_not_fatal() {
    let dir = tmp_dir("torn");
    let (engine, _) = DurableEngine::open(builder(), WalOptions::new(&dir)).unwrap();
    for i in 0..10 {
        let (t, rec) = engine.recommend("k", &context(i)).unwrap();
        engine.record("k", t, 5.0 + rec.arm as f64).unwrap();
    }
    drop(engine);

    // Simulate a crash mid-append: truncate the last line of the active
    // segment.
    let seg = dir.join("kk").join("wal-1.log");
    let text = std::fs::read_to_string(&seg).unwrap();
    let truncated = &text[..text.len() - 9];
    assert!(!truncated.ends_with('\n'));
    std::fs::write(&seg, truncated).unwrap();

    let (revived, report) = DurableEngine::open(builder(), WalOptions::new(&dir)).unwrap();
    assert!(report.torn_tail, "torn tail detected");
    assert_eq!(report.replayed, 9, "the 9 intact records replay");
    assert_eq!(revived.engine().with_shard("k", |s| s.rounds()).unwrap(), 9);

    // Corruption anywhere else IS fatal: garble a middle line.
    drop(revived);
    let text = std::fs::read_to_string(&seg).unwrap();
    let garbled = text.replacen("obs,3,", "xxx,3,", 1);
    assert_ne!(garbled, text);
    std::fs::write(&seg, garbled).unwrap();
    assert!(DurableEngine::open(builder(), WalOptions::new(&dir)).is_err());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn crc_bad_final_line_is_truncated_before_new_appends() {
    // A newline-terminated final line with a flipped bit is tolerated as a
    // torn tail by recovery — but it must not be *left* there: appending
    // after it would turn it into permanent mid-file corruption that fails
    // every later recovery.
    let dir = tmp_dir("bad-tail-append");
    let (engine, _) = DurableEngine::open(builder(), WalOptions::new(&dir)).unwrap();
    for i in 0..8 {
        let (t, rec) = engine.recommend("k", &context(i)).unwrap();
        engine.record("k", t, 5.0 + rec.arm as f64).unwrap();
    }
    drop(engine);

    // Flip a digit in the *final* line, keeping its trailing newline.
    let seg = dir.join("kk").join("wal-1.log");
    let text = std::fs::read_to_string(&seg).unwrap();
    let last = text.lines().last().unwrap().to_string();
    let garbled_last = last.replacen("5", "6", 1);
    assert_ne!(garbled_last, last);
    std::fs::write(&seg, text.replacen(&last, &garbled_last, 1)).unwrap();

    let (revived, report) = DurableEngine::open(builder(), WalOptions::new(&dir)).unwrap();
    assert!(report.torn_tail, "damaged final line tolerated as torn");
    assert_eq!(report.replayed, 7);
    // Keep serving: the append path must truncate the damaged line first.
    for i in 0..5 {
        let (t, rec) = revived.recommend("k", &context(100 + i)).unwrap();
        revived.record("k", t, 9.0 + rec.arm as f64).unwrap();
    }
    drop(revived);

    // The next recovery is clean — no mid-file corruption, nothing torn.
    let (again, report) = DurableEngine::open(builder(), WalOptions::new(&dir)).unwrap();
    assert!(!report.torn_tail, "damaged line was truncated, not buried");
    assert_eq!(report.replayed, 12);
    assert_eq!(again.engine().with_shard("k", |s| s.rounds()).unwrap(), 12);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn advertised_sealed_segment_gets_no_torn_tail_tolerance() {
    use banditware_serve::Durability;
    // Torn-tail tolerance exists for the unsealed active tail. A segment
    // the MANIFEST advertises was sealed and fsynced first — damage to its
    // final line is corruption of an acknowledged durable record and must
    // fail recovery loudly, even when it happens to be the last segment on
    // disk.
    let dir = tmp_dir("sealed-tail");
    let options = WalOptions::new(&dir).segment_max_bytes(200);
    let b = || builder().durability(Durability::FsyncPerRotation);
    let (engine, _) = DurableEngine::open(b(), options.clone()).unwrap();
    // Record until the first rotation seals + advertises wal-1; stop there
    // so no successor file exists (it is created lazily on next append).
    let manifest = dir.join("kk").join("MANIFEST");
    let mut i = 0;
    while !(manifest.exists() && std::fs::read_to_string(&manifest).unwrap().contains("segment,1,"))
    {
        let (t, rec) = engine.recommend("k", &context(i)).unwrap();
        engine.record("k", t, 5.0 + rec.arm as f64).unwrap();
        i += 1;
        assert!(i < 100, "rotation never happened");
    }
    drop(engine);
    let seg = dir.join("kk").join("wal-1.log");
    assert!(!dir.join("kk").join("wal-2.log").exists(), "successor is lazy");

    // Flip a digit in the advertised segment's final line (newline kept).
    let text = std::fs::read_to_string(&seg).unwrap();
    let last = text.lines().last().unwrap().to_string();
    let garbled = last.replacen("5", "6", 1);
    assert_ne!(garbled, last);
    std::fs::write(&seg, text.replacen(&last, &garbled, 1)).unwrap();

    let err = DurableEngine::open(b(), options).unwrap_err();
    assert!(
        matches!(err, ServeError::Corrupt { .. }),
        "durable acknowledged record must not be silently discarded: {err:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bit_flip_in_a_float_field_is_a_precise_checksum_error() {
    // The corruption the old format could not see: a flipped digit inside
    // a runtime/feature field still parses as a valid record. The per-line
    // CRC rejects it with the file, the line, and both checksums.
    let dir = tmp_dir("bitflip");
    let (engine, _) = DurableEngine::open(builder(), WalOptions::new(&dir)).unwrap();
    for i in 0..10 {
        let (t, rec) = engine.recommend("k", &context(i)).unwrap();
        engine.record("k", t, 5.0 + rec.arm as f64).unwrap();
    }
    drop(engine);

    let seg = dir.join("kk").join("wal-1.log");
    let text = std::fs::read_to_string(&seg).unwrap();
    // Garble one digit of a *feature* field on a middle line (line 5 of
    // the file is record i=3, whose context starts 3.5): the line still
    // parses, only the checksum knows.
    let line = text.lines().nth(4).unwrap().to_string();
    let garbled_line = line.replacen("3.5", "3.7", 1);
    assert_ne!(garbled_line, line, "fixture must actually change a digit");
    let garbled = text.replacen(&line, &garbled_line, 1);
    std::fs::write(&seg, garbled).unwrap();

    let err = DurableEngine::open(builder(), WalOptions::new(&dir)).unwrap_err();
    match &err {
        ServeError::Corrupt { path, line, detail } => {
            assert!(path.ends_with("wal-1.log"), "{path}");
            assert_eq!(*line, 5);
            assert!(detail.contains("checksum mismatch"), "{detail}");
            assert!(detail.contains("stored") && detail.contains("computed"), "{detail}");
        }
        other => panic!("expected ServeError::Corrupt, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn non_finite_record_is_quarantined_not_fatal() {
    // A log written before contexts were checked can hold a record with a
    // NaN context. Recovery counts that round but does not absorb it, so
    // the key (and every other key) still opens, and the model matches a
    // log that never held the record.
    let dir = tmp_dir("nan-record");
    let (engine, _) = DurableEngine::open(builder(), WalOptions::new(&dir)).unwrap();
    for i in 0..12 {
        let (t, rec) = engine.recommend("k", &context(i)).unwrap();
        engine.record("k", t, 5.0 + rec.arm as f64 * context(i)[0]).unwrap();
    }
    drop(engine);

    // Line 6 of the segment is record i=4 (line 1 is the header). Replace
    // its first feature with NaN under a valid checksum.
    let seg = dir.join("kk").join("wal-1.log");
    let text = std::fs::read_to_string(&seg).unwrap();
    let line = text.lines().nth(5).unwrap();
    let (body, _) = line.rsplit_once(",c").unwrap();
    let mut fields: Vec<&str> = body.split(',').collect();
    fields[6] = "NaN";
    let body = fields.join(",");
    let poisoned = format!("{body},c{:08x}", crc32(body.as_bytes()));
    std::fs::write(&seg, text.replacen(line, &poisoned, 1)).unwrap();
    // The twin's log never held the record.
    let twin_dir = tmp_dir("nan-record-twin");
    std::fs::create_dir_all(twin_dir.join("kk")).unwrap();
    std::fs::write(
        twin_dir.join("kk").join("wal-1.log"),
        text.replacen(&format!("{line}\n"), "", 1),
    )
    .unwrap();

    let (engine, report) = DurableEngine::open(builder(), WalOptions::new(&dir)).unwrap();
    let (twin, twin_report) = DurableEngine::open(builder(), WalOptions::new(&twin_dir)).unwrap();
    assert_eq!((report.replayed, report.quarantined_records), (11, 1));
    assert_eq!((twin_report.replayed, twin_report.quarantined_records), (11, 0));
    assert_eq!(probe_predictions(engine.engine(), "k"), probe_predictions(twin.engine(), "k"));
    // The quarantined round still counts, so new records continue the
    // log's numbering.
    assert_eq!(report.watermarks, vec![("k".to_string(), 12)]);
    let kept: Vec<usize> = engine.engine().history("k").unwrap().iter().map(|o| o.round).collect();
    assert_eq!(kept, (0..12).filter(|&r| r != 4).collect::<Vec<_>>());

    // Live appends, a compaction and another crash keep the state.
    for i in 12..20 {
        let (t, rec) = engine.recommend("k", &context(i)).unwrap();
        engine.record("k", t, 5.0 + rec.arm as f64 * context(i)[0]).unwrap();
    }
    engine.compact("k").unwrap();
    let before = probe_predictions(engine.engine(), "k");
    drop(engine);
    let (revived, report) = DurableEngine::open(builder(), WalOptions::new(&dir)).unwrap();
    assert_eq!((report.snapshots_loaded, report.quarantined_records), (1, 0));
    assert_eq!(report.watermarks, vec![("k".to_string(), 20)]);
    assert_eq!(probe_predictions(revived.engine(), "k"), before);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&twin_dir);
}

#[test]
fn durability_knob_controls_what_the_manifest_advertises() {
    use banditware_serve::Durability;
    let run = |durability: Durability, name: &str| -> (std::path::PathBuf, bool) {
        let dir = tmp_dir(name);
        let options = WalOptions::new(&dir).segment_max_bytes(512);
        let b = builder().durability(durability);
        let (engine, _) = DurableEngine::open(b, options).unwrap();
        for i in 0..40 {
            let (t, rec) = engine.recommend("k", &context(i)).unwrap();
            engine.record("k", t, 5.0 + rec.arm as f64).unwrap();
        }
        let manifest = dir.join("kk").join("MANIFEST");
        let advertised =
            manifest.exists() && std::fs::read_to_string(&manifest).unwrap().contains("segment,");
        (dir, advertised)
    };
    // Flush never fsyncs at seal, so sealed segments are not advertised
    // until a ship forces the sync; the fsync policies advertise eagerly.
    let (dir, advertised) = run(Durability::Flush, "durability-flush");
    assert!(!advertised, "Flush must not advertise un-fsynced segments");
    let _ = std::fs::remove_dir_all(&dir);
    for (durability, name) in [
        (Durability::FsyncPerRotation, "durability-rotate"),
        (Durability::FsyncPerBatch, "durability-batch"),
    ] {
        let (dir, advertised) = run(durability, name);
        assert!(advertised, "{durability:?} advertises sealed segments");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn bounded_retention_keeps_snapshots_small() {
    let dir = tmp_dir("retention");
    let options = WalOptions::new(&dir);
    let b = || builder().retention(Retention::Tail(4));
    let (engine, _) = DurableEngine::open(b(), options.clone()).unwrap();
    for i in 0..200 {
        let (t, rec) = engine.recommend("big", &context(i)).unwrap();
        engine.record("big", t, 5.0 + rec.arm as f64).unwrap();
    }
    engine.compact("big").unwrap();
    let snapshot_len = std::fs::metadata(dir.join("kbig").join("snapshot.v3")).unwrap().len();
    let before = probe_predictions(engine.engine(), "big");
    drop(engine);

    // Run the same workload 5× longer: the snapshot must not grow with
    // history length (policy state + bounded tail only).
    let dir2 = tmp_dir("retention-long");
    let (engine, _) = DurableEngine::open(b(), WalOptions::new(&dir2)).unwrap();
    for i in 0..1000 {
        let (t, rec) = engine.recommend("big", &context(i)).unwrap();
        engine.record("big", t, 5.0 + rec.arm as f64).unwrap();
    }
    engine.compact("big").unwrap();
    let snapshot_len_5x = std::fs::metadata(dir2.join("kbig").join("snapshot.v3")).unwrap().len();
    assert!(
        snapshot_len_5x < snapshot_len * 2,
        "snapshot grew with history: {snapshot_len} -> {snapshot_len_5x} bytes"
    );
    drop(engine);

    // And the short one restores exactly.
    let (revived, report) = DurableEngine::open(b(), options).unwrap();
    assert_eq!(report.snapshots_loaded, 1);
    assert_eq!(report.replayed, 0);
    assert_eq!(probe_predictions(revived.engine(), "big"), before);
    assert_eq!(revived.engine().with_shard("big", |s| s.rounds()).unwrap(), 200);
    assert!(revived.engine().with_shard("big", |s| s.history().len()).unwrap() <= 4);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&dir2);
}

#[test]
fn zero_byte_segment_still_gets_its_header() {
    // A crash between segment-file creation and the header write leaves an
    // empty wal-N.log; the next appender must write the magic line anyway
    // or the following recovery rejects the segment.
    let dir = tmp_dir("zero-byte");
    let (engine, _) = DurableEngine::open(builder(), WalOptions::new(&dir)).unwrap();
    let (t, _) = engine.recommend("k", &context(0)).unwrap();
    let seg = dir.join("kk").join("wal-1.log");
    std::fs::create_dir_all(seg.parent().unwrap()).unwrap();
    std::fs::write(&seg, b"").unwrap(); // the truncated-at-birth segment
    engine.record("k", t, 5.0).unwrap();
    let text = std::fs::read_to_string(&seg).unwrap();
    assert!(text.starts_with("banditware-wal v2,1,"), "header written into empty segment");
    drop(engine);
    let (_revived, report) = DurableEngine::open(builder(), WalOptions::new(&dir)).unwrap();
    assert_eq!(report.replayed, 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stray_records_do_not_mint_phantom_tenant_dirs() {
    let dir = tmp_dir("phantom");
    let (engine, _) = DurableEngine::open(builder(), WalOptions::new(&dir)).unwrap();
    // Record against keys that never recommended: rejected AND no
    // directory appears on disk.
    assert!(engine.record("typo-key", Ticket::from_id(0), 1.0).unwrap_err().is_unknown_ticket());
    assert!(engine.record_batch_frame("typo-batch", &[(Ticket::from_id(0), 1.0)]).is_err());
    // A real key with an unknown ticket: shard exists, ticket doesn't —
    // still no WAL dir until a record succeeds.
    engine.engine().register("real").unwrap();
    assert!(engine.record("real", Ticket::from_id(7), 1.0).is_err());
    // An open ticket with an invalid runtime: rejected before the
    // filesystem is touched, and the ticket stays open.
    let (t, _) = engine.recommend("open", &context(0)).unwrap();
    for bad in [f64::NAN, -1.0] {
        let err = engine.record("open", t, bad).unwrap_err();
        assert!(matches!(err, ServeError::Core(CoreError::InvalidRuntime(_))), "{bad}: {err}");
    }
    assert_eq!(engine.engine().open_tickets("open"), vec![t]);
    assert!(!dir.join("ktypo-key").exists());
    assert!(!dir.join("ktypo-batch").exists());
    assert!(!dir.join("kreal").exists());
    assert!(!dir.join("kopen").exists());
    drop(engine);
    let (_revived, report) = DurableEngine::open(builder(), WalOptions::new(&dir)).unwrap();
    assert!(report.keys.is_empty(), "no phantom tenants recovered: {:?}", report.keys);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn batch_record_is_one_group_commit_and_validates_atomically() {
    let dir = tmp_dir("batch");
    let (engine, _) = DurableEngine::open(builder(), WalOptions::new(&dir)).unwrap();
    let contexts: Vec<Vec<f64>> = (0..6).map(context).collect();
    let issued = engine.recommend_batch_frame("k", &frame(&contexts)).unwrap();
    let (t0, t1) = (issued[0].0, issued[1].0);

    // A malformed batch leaves engine AND log untouched.
    assert!(engine.record_batch_frame("k", &[(t0, 5.0), (Ticket::from_id(99), 5.0)]).is_err());
    assert!(engine.record_batch_frame("k", &[(t0, 5.0), (t0, 6.0)]).is_err());
    assert!(engine.record_batch_frame("k", &[(t0, 5.0), (t1, f64::NAN)]).is_err());
    assert_eq!(engine.engine().with_shard("k", |s| s.rounds()).unwrap(), 0);
    let seg = dir.join("kk").join("wal-1.log");
    assert!(!seg.exists(), "no observation lines before a valid record");

    // A clean batch lands as one flushed group.
    let outcomes: Vec<(Ticket, f64)> =
        issued.iter().map(|(t, r)| (*t, 10.0 + r.arm as f64)).collect();
    engine.record_batch_frame("k", &outcomes).unwrap();
    let lines = std::fs::read_to_string(&seg).unwrap();
    assert_eq!(lines.lines().filter(|l| l.starts_with("obs,")).count(), 6);
    assert!(engine.record_batch_frame("k", &[]).is_ok(), "empty batch is a no-op");
    assert!(engine
        .record_batch_frame("ghost", &[(Ticket::from_id(1), 2.0)])
        .unwrap_err()
        .is_unknown_ticket());
    let _ = std::fs::remove_dir_all(&dir);
}
