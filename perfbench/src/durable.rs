//! durable-ingest: in process through `DurableEngine` with the default
//! `Durability::Flush`, Cycles tenants, bursts of 16 as one
//! `recommend_batch_frame` then one `record_batch_frame`, and `compact_all`
//! every [`COMPACT_EVERY`] records.

use crate::gen::{Req, Stream};
use crate::host::ProcCounters;
use crate::layers::{self, WalTwin};
use crate::replay::{self, Twins};
use crate::trace::Tracer;
use crate::{Ctx, Fault, RunOut, Tickets, Window, FAULT_BURST};
use banditware_core::persist::{load_checkpoint, Checkpoint};
use banditware_core::{FeatureFrame, Ticket};
use banditware_serve::{DurableEngine, WalOptions};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Records between two `compact_all` calls: three quarters of a window, so
/// every window compacts once and the recovery check still replays a log
/// tail.
pub const COMPACT_EVERY: u64 = 393_216;

/// Contexts the recovery check compares predictions on.
const PROBES: [f64; 4] = [100.0, 230.0, 370.0, 500.0];

/// What the untimed pre-run leaves behind: a WAL directory (snapshots plus
/// a log tail) and, for the replay twins, each tenant's checkpoint.
pub struct DurableState {
    keys: Vec<String>,
    golden: PathBuf,
    ckpts: Vec<Checkpoint>,
}

fn open(
    ctx: &Ctx,
    dir: &Path,
) -> Result<(DurableEngine, banditware_serve::RecoveryReport), String> {
    DurableEngine::open(ctx.builder(), WalOptions::new(dir))
        .map_err(|e| format!("open {}: {e}", dir.display()))
}

fn copy_dir(src: &Path, dst: &Path) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(dst);
    std::fs::create_dir_all(dst).map_err(|e| format!("mkdir: {e}"))?;
    for entry in std::fs::read_dir(src).map_err(|e| format!("read_dir: {e}"))? {
        let entry = entry.map_err(|e| format!("read_dir: {e}"))?;
        let to = dst.join(entry.file_name());
        if entry.file_type().map_err(|e| e.to_string())?.is_dir() {
            copy_dir(&entry.path(), &to)?;
        } else {
            std::fs::copy(entry.path(), &to).map_err(|e| format!("copy: {e}"))?;
        }
    }
    Ok(())
}

/// Train every tenant online (recommend then record, bursts of 16),
/// compacting once three quarters in so recovery finds snapshots plus a
/// log tail.
pub fn prerun(ctx: &Ctx) -> Result<DurableState, String> {
    let keys = ctx.keys();
    let golden = ctx.work.join("golden");
    let (d, _) = open(ctx, &golden)?;
    let mut rng =
        rand::SeedableRng::seed_from_u64(crate::gen::mix(ctx.seed, crate::gen::SALT_TRAIN));
    let burst = ctx.workload.burst();
    let rounds = ctx.workload.train_rounds();
    let mut frame = FeatureFrame::new();
    let mut compacted = false;
    for r in (0..rounds).step_by(burst) {
        if !compacted && r >= rounds * 3 / 4 {
            d.compact_all().map_err(|e| format!("compact: {e}"))?;
            compacted = true;
        }
        for key in &keys {
            let xs: Vec<Vec<f64>> = (0..burst).map(|_| ctx.oracle.context(&mut rng)).collect();
            frame.fill_from_rows(&xs).map_err(|e| e.to_string())?;
            let recs = d.recommend_batch_frame(key, &frame).map_err(|e| format!("train: {e}"))?;
            let outcomes: Vec<(Ticket, f64)> = recs
                .iter()
                .zip(&xs)
                .map(|((t, rec), x)| (*t, ctx.oracle.sample(rec.arm, x, &mut rng)))
                .collect();
            d.record_batch_frame(key, &outcomes).map_err(|e| format!("train: {e}"))?;
        }
    }
    let mut ckpts = Vec::new();
    for key in &keys {
        let mut bytes = Vec::new();
        d.engine()
            .save_shard_checkpoint(key, &mut bytes)
            .map_err(|e| format!("checkpoint: {e}"))?;
        ckpts.push(load_checkpoint(bytes.as_slice()).map_err(|e| format!("checkpoint: {e}"))?);
    }
    Ok(DurableState { keys, golden, ckpts })
}

/// Per key: rounds and the bit patterns of every arm's prediction on
/// [`PROBES`].
fn model_view(d: &DurableEngine, keys: &[String], n_arms: usize) -> Vec<(usize, Vec<u64>)> {
    keys.iter()
        .map(|key| {
            d.engine()
                .with_shard(key, |s| {
                    let bits = PROBES
                        .iter()
                        .flat_map(|&x| (0..n_arms).map(move |a| (a, x)))
                        .map(|(a, x)| s.policy().predict(a, &[x]).map_or(u64::MAX, f64::to_bits))
                        .collect();
                    (s.rounds(), bits)
                })
                .unwrap_or((0, Vec::new()))
        })
        .collect()
}

/// Remove the last logged record of the first tenant whose newest segment
/// holds one (the `lose-wal-record` fault).
fn cut_last_record(dir: &Path) -> Result<(), String> {
    let mut key_dirs: Vec<PathBuf> =
        std::fs::read_dir(dir).map_err(|e| e.to_string())?.flatten().map(|e| e.path()).collect();
    key_dirs.sort();
    for kd in key_dirs {
        let mut segs: Vec<(u64, PathBuf)> = std::fs::read_dir(&kd)
            .map_err(|e| e.to_string())?
            .flatten()
            .filter_map(|e| {
                let name = e.file_name().to_string_lossy().to_string();
                let idx = name.strip_prefix("wal-")?.strip_suffix(".log")?.parse().ok()?;
                Some((idx, e.path()))
            })
            .collect();
        segs.sort();
        let Some((_, seg)) = segs.last() else { continue };
        let text = std::fs::read_to_string(seg).map_err(|e| e.to_string())?;
        let lines: Vec<&str> = text.lines().collect();
        if lines.len() >= 2 {
            let kept = lines[..lines.len() - 1].join("\n") + "\n";
            return std::fs::write(seg, kept).map_err(|e| e.to_string());
        }
    }
    Err("no logged record to cut".into())
}

pub fn window(
    ctx: &Ctx,
    st: &DurableState,
    w: usize,
    traced: bool,
    tracer: &mut Tracer,
    out: &mut RunOut,
) -> Result<(), String> {
    let live = ctx.work.join("live");
    copy_dir(&st.golden, &live)?;

    // Set-up: recover the prior log.
    out.probe_host(true)?;
    let t0 = Instant::now();
    let opened = open(ctx, &live);
    let setup_s = t0.elapsed().as_secs_f64();
    let setup_ref_s = out.scaled(setup_s);
    let (d, report) = match opened {
        Ok(x) => {
            out.setup.ok();
            x
        }
        Err(e) => {
            out.setup.fail();
            return Err(e);
        }
    };
    let recovered: usize = report.watermarks.iter().map(|(_, n)| n).sum();
    out.live_recover.push((report.replayed as f64, setup_s * 1e9 / recovered.max(1) as f64));
    let base = d.engine().stats();
    let n_keys = st.keys.len();
    let mut acked_per_key = vec![0u64; n_keys];
    let mut tickets = Tickets::new(n_keys);
    tracer.reserve(if traced { ctx.bursts * 20 } else { 0 });
    let mut acked = 0u64;

    // Measured phase.
    let mut stream = Stream::new(ctx.workload, ctx.seed);
    let mut reqs: Vec<Req> = Vec::new();
    let mut frame = FeatureFrame::new();
    let mut since_compact = 0u64;
    let mut busy = 0.0;
    let p0 = ProcCounters::sample();
    let wall = Instant::now();
    for b in 0..ctx.bursts {
        out.probe_host(false)?;
        stream.next_burst(&ctx.oracle, &mut reqs);
        let round = (w * ctx.bursts + b) as u32;
        let k = reqs[0].key;
        let key = &st.keys[k];
        let xs: Vec<Vec<f64>> = reqs.iter().map(|r| r.x.clone()).collect();
        frame.fill_from_rows(&xs).map_err(|e| e.to_string())?;
        let tb = Instant::now();
        let t = Instant::now();
        let recs = tracer
            .leaf("live.wal.recommend_batch_frame", round, || d.recommend_batch_frame(key, &frame));
        let lat = t.elapsed().as_nanos() as u64;
        let Ok(recs) = recs else {
            for _ in &reqs {
                out.measured.fail();
                out.rec_lat.push_failed();
            }
            continue;
        };
        if traced && b == 0 {
            out.engine_in_flight = out.engine_in_flight.max(d.engine().stats().in_flight as f64);
        }
        let mut outcomes = Vec::with_capacity(recs.len());
        let mut dropped = 0;
        for (i, ((t, rec), r)) in recs.iter().zip(&reqs).enumerate() {
            out.measured.ok();
            if !traced {
                out.rec_ns(lat);
                out.quality(ctx.oracle.is_good_pick(rec.arm, &r.x), rec.explored);
            }
            tickets.issue(k, t.id());
            let y = stream.runtime(&ctx.oracle, rec.arm, &r.x);
            if w == 0 && b == FAULT_BURST && i == 1 && ctx.fault == Fault::DropRecord {
                dropped += 1; // lost on the way; the caller still counts it
                continue;
            }
            outcomes.push((*t, y));
        }
        tickets.end_burst();
        let t = Instant::now();
        let done = tracer
            .leaf("live.wal.record_batch_frame", round, || d.record_batch_frame(key, &outcomes));
        let lat = t.elapsed().as_nanos() as u64;
        let n = outcomes.len() as u64;
        if done.is_ok() {
            acked += n + dropped;
            acked_per_key[k] += n + dropped;
        }
        for _ in 0..n {
            if done.is_ok() {
                out.measured.ok();
            } else {
                out.measured.fail();
            }
            if !traced {
                if done.is_ok() {
                    out.recd_ns(lat);
                } else {
                    out.recd_lat.push_failed();
                }
            }
        }
        since_compact += n;
        if since_compact >= COMPACT_EVERY {
            since_compact = 0;
            let t = Instant::now();
            d.compact_all().map_err(|e| format!("compact: {e}"))?;
            out.live_compact_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
        busy += out.scaled(tb.elapsed().as_secs_f64());
    }
    let wall_s = wall.elapsed().as_secs_f64();
    let proc = ProcCounters::sample().since(p0);

    let stats = d.engine().stats();
    let (n_issued, duplicates) = (tickets.issued, tickets.duplicates);
    let want_recorded = base.recorded_rounds as u64 + acked;
    let want_in_flight = base.in_flight as u64 + n_issued - acked;
    out.check(
        "tickets",
        duplicates == 0
            && stats.recorded_rounds as u64 == want_recorded
            && stats.in_flight as u64 == want_in_flight,
        format!(
            "window {w}: issued {n_issued}, duplicates {duplicates}, recorded {} (want {want_recorded}), \
             in_flight {} (want {want_in_flight})",
            stats.recorded_rounds, stats.in_flight
        ),
    );
    out.engine_keys = stats.keys as f64;

    // Recovery: reopening the log restores every acknowledged record per
    // key, and the reopened models predict bitwise like the live ones.
    let n_arms = ctx.oracle.n_arms();
    let live_view = model_view(&d, &st.keys, n_arms);
    drop(d);
    if w == 0 && ctx.fault == Fault::LoseWalRecord {
        cut_last_record(&live)?;
    }
    let (reopened, _) = open(ctx, &live)?;
    out.check.ok();
    let view = model_view(&reopened, &st.keys, n_arms);
    let base_rounds: Vec<usize> = st
        .keys
        .iter()
        .map(|key| report.watermarks.iter().find(|(k, _)| k == key).map_or(0, |(_, n)| *n))
        .collect();
    let bad = (0..n_keys).find(|&i| {
        view[i].0 as u64 != base_rounds[i] as u64 + acked_per_key[i] || view[i] != live_view[i]
    });
    out.check(
        "recovery",
        bad.is_none(),
        match bad {
            Some(i) => format!(
                "window {w}: {} recovered {} rounds (acknowledged {}, live {}), predictions equal: {}",
                st.keys[i],
                view[i].0,
                base_rounds[i] as u64 + acked_per_key[i],
                live_view[i].0,
                view[i].1 == live_view[i].1
            ),
            None => format!("window {w}: {n_keys} keys recovered every acknowledged record"),
        },
    );
    drop(reopened);

    if traced {
        let dir = ctx.work.join("durable-twin");
        let (dt, before) = layers::durable_twin(ctx, &st.keys, &st.ckpts, &dir)?;
        let mut twins = Twins::new(
            ctx.builder(),
            &ctx.oracle.specs(),
            &st.keys,
            &st.ckpts,
            true,
            ctx.workload.n_features(),
            Some(&dt),
        )?;
        let mark = tracer.mark();
        let rep = replay::replay(
            ctx.workload,
            ctx.seed,
            &ctx.oracle,
            &st.keys,
            ctx.bursts,
            &mut twins,
            tracer,
            (w * ctx.bursts) as u32,
        )?;
        out.check(
            "layer-twins",
            rep.twin_mismatches == 0,
            format!(
                "{} group(s) where engine, core and durable twins disagreed",
                rep.twin_mismatches
            ),
        );
        drop(twins);
        let wal = WalTwin::measure(ctx, dt, &dir, before, rep.rounds)?;
        let spans = tracer.summarize(mark);
        layers::record_window(ctx, out, &spans, &rep, &wal);
    }
    out.push_window(Window {
        setup_s: setup_ref_s,
        busy_s: busy,
        wall_s,
        rounds: (ctx.bursts * ctx.workload.burst()) as u64,
        proc,
        traced,
        speed: 1.0,
        lat: Default::default(),
    });
    Ok(())
}
