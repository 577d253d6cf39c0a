//! Per-layer metrics (`--trace 1`): which crate each round's time goes to.
//!
//! The client side comes from spans around `NetClient::send_*`, `flush`
//! and `wait` in traced windows; the server side from the in-process
//! replay (see [`crate::replay`]); kernels from calls into `linalg` at the
//! workload's shapes; process counters from `/proc/self` over the
//! untraced windows of the same run.

use crate::gen::Workload;
use crate::replay::ReplayOut;
use crate::stats;
use crate::trace::SelfTime;
use crate::{Ctx, RunOut};
use banditware_core::persist::Checkpoint;
use banditware_linalg::{LinearFit, Matrix, NormalEquations, SolveScratch, UpdatableCholesky};
use banditware_serve::{DurableEngine, WalOptions};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Per-layer metrics (`--trace 1`): name and unit.
pub const LAYER: [(&str, &str); 30] = [
    ("net.client_send_ns_per_req", "ns"),
    ("net.decode_ns_per_req", "ns"),
    ("net.encode_ns_per_resp", "ns"),
    ("net.wire_bytes_per_round", "B"),
    ("net.group_size_mean", "count"),
    ("net.residual_ns_per_round", "ns"),
    ("proc.ctx_switches_per_round", "count"),
    ("proc.write_syscalls_per_round", "count"),
    ("net.tcp_segments_per_round", "count"),
    ("engine.recommend_ns_per_req", "ns"),
    ("engine.record_ns_per_req", "ns"),
    ("engine.keys", "count"),
    ("engine.in_flight", "count"),
    ("core.select_ns_per_req", "ns"),
    ("core.absorb_ns_per_req", "ns"),
    ("core.explore_share", "ratio"),
    ("linalg.dot_ns", "ns"),
    ("linalg.cholupdate_ns", "ns"),
    ("linalg.gram_fold_ns_per_row", "ns"),
    ("linalg.flops_per_round", "flop"),
    ("linalg.bytes_per_round", "B"),
    ("wal.append_ns_per_record", "ns"),
    ("wal.bytes_per_record", "B"),
    ("wal.segments_per_krecord", "count"),
    ("wal.compact_ms", "ms"),
    ("wal.replayed_records", "count"),
    ("wal.recover_ns_per_record", "ns"),
    ("proc.cpu_util", "ratio"),
    ("proc.cpu_ms_per_kround", "ms"),
    ("trace.overhead_pct", "%"),
];

/// Bytes and segment files under a WAL directory.
#[derive(Debug, Clone, Copy, Default)]
pub struct DirStats {
    bytes: u64,
    segments: u64,
}

impl DirStats {
    pub fn of(dir: &Path) -> DirStats {
        let mut s = DirStats::default();
        let Ok(entries) = std::fs::read_dir(dir) else { return s };
        for e in entries.flatten() {
            let Ok(ft) = e.file_type() else { continue };
            if ft.is_dir() {
                let sub = DirStats::of(&e.path());
                s.bytes += sub.bytes;
                s.segments += sub.segments;
            } else {
                s.bytes += e.metadata().map_or(0, |m| m.len());
                let name = e.file_name();
                let name = name.to_string_lossy();
                s.segments += u64::from(name.starts_with("wal-") && name.ends_with(".log"));
            }
        }
        s
    }
}

/// A `DurableEngine` twin in a fresh `dir`, restored from the same
/// checkpoints as the in-memory twins, so all three serve identical picks.
pub fn durable_twin(
    ctx: &Ctx,
    keys: &[String],
    ckpts: &[Checkpoint],
    dir: &Path,
) -> Result<(DurableEngine, DirStats), String> {
    let _ = std::fs::remove_dir_all(dir);
    let (d, _) = DurableEngine::open(ctx.builder(), WalOptions::new(dir))
        .map_err(|e| format!("durable twin: {e}"))?;
    for (key, ckpt) in keys.iter().zip(ckpts) {
        d.engine().restore_shard_checkpoint(key, ckpt).map_err(|e| format!("restore: {e}"))?;
    }
    Ok((d, DirStats::of(dir)))
}

/// WAL measurements from a replay's durable twin.
pub struct WalTwin {
    bytes_per_record: f64,
    segments_per_krecord: f64,
    compact_ms: f64,
    replayed: f64,
    recover_ns_per_record: f64,
}

impl WalTwin {
    /// After a replay of `records` records: log growth since `before`, one
    /// timed `compact_all`, then one timed reopen.
    pub fn measure(
        ctx: &Ctx,
        d: DurableEngine,
        dir: &Path,
        before: DirStats,
        records: u64,
    ) -> Result<WalTwin, String> {
        let after = DirStats::of(dir);
        let t = Instant::now();
        d.compact_all().map_err(|e| format!("twin compact: {e}"))?;
        let compact_ms = t.elapsed().as_secs_f64() * 1e3;
        drop(d);
        let t = Instant::now();
        let (reopened, report) = DurableEngine::open(ctx.builder(), WalOptions::new(dir))
            .map_err(|e| format!("twin reopen: {e}"))?;
        let ns = t.elapsed().as_nanos() as f64;
        drop(reopened);
        let recovered: usize = report.watermarks.iter().map(|(_, n)| n).sum();
        let records = records.max(1) as f64;
        Ok(WalTwin {
            bytes_per_record: after.bytes.saturating_sub(before.bytes) as f64 / records,
            segments_per_krecord: after.segments.saturating_sub(before.segments) as f64 * 1e3
                / records,
            compact_ms,
            replayed: report.replayed as f64,
            recover_ns_per_record: ns / recovered.max(1) as f64,
        })
    }
}

/// Turn one traced window's spans and replay into per-layer values.
pub fn record_window(
    ctx: &Ctx,
    out: &mut RunOut,
    spans: &BTreeMap<&'static str, SelfTime>,
    rep: &ReplayOut,
    wal: &WalTwin,
) {
    let ns = |name: &str| spans.get(name).map_or(0.0, |t| t.self_ns as f64);
    let count = |name: &str| spans.get(name).map_or(0, |t| t.count) as f64;
    let rounds = rep.rounds.max(1) as f64;
    let tcp = ctx.workload != Workload::DurableIngest;
    let client_send = if tcp {
        let send = ["live.client.send_recommend", "live.client.send_record"];
        send.iter().map(|n| ns(n)).sum::<f64>()
            / send.iter().map(|n| count(n)).sum::<f64>().max(1.0)
    } else {
        ns("net.client_encode") / rep.requests.max(1) as f64
    };
    // Replayed self time per round of the steps a live round blocks on.
    let on_path = if tcp {
        2.0 * client_send
            + [
                "net.decode",
                "net.stage",
                "engine.recommend_batch_frame",
                "engine.record_batch_frame",
                "net.encode",
            ]
            .iter()
            .map(|n| ns(n))
            .sum::<f64>()
                / rounds
    } else {
        (ns("wal.recommend_batch_frame") + ns("wal.record_batch_frame")) / rounds
    };
    out.on_path_ns.push(on_path);
    let mut m = BTreeMap::new();
    m.insert("net.client_send_ns_per_req", client_send);
    m.insert("net.decode_ns_per_req", ns("net.decode") / rep.requests.max(1) as f64);
    m.insert("net.encode_ns_per_resp", ns("net.encode") / rep.responses.max(1) as f64);
    m.insert("net.wire_bytes_per_round", rep.wire_bytes as f64 / rounds);
    m.insert("net.group_size_mean", rep.rounds as f64 / rep.groups.max(1) as f64);
    m.insert(
        "engine.recommend_ns_per_req",
        (ns("engine.recommend_batch_frame") - ns("core.recommend_batch_frame")) / rounds,
    );
    m.insert(
        "engine.record_ns_per_req",
        (ns("engine.record_batch_frame") - ns("core.record_batch_frame")) / rounds,
    );
    m.insert("core.select_ns_per_req", ns("core.recommend_batch_frame") / rounds);
    m.insert("core.absorb_ns_per_req", ns("core.record_batch_frame") / rounds);
    m.insert(
        "wal.append_ns_per_record",
        (ns("wal.record_batch_frame") - ns("engine.record_batch_frame")) / rounds,
    );
    m.insert("wal.bytes_per_record", wal.bytes_per_record);
    m.insert("wal.segments_per_krecord", wal.segments_per_krecord);
    m.insert("wal.compact_ms", wal.compact_ms);
    m.insert("wal.replayed_records", wal.replayed);
    m.insert("wal.recover_ns_per_record", wal.recover_ns_per_record);
    out.layers.push(m);
}

/// One rank-1 update of a `dim × dim` factor.
fn cholupdate_ns(dim: usize) -> f64 {
    let mut chol = UpdatableCholesky::decompose(&Matrix::identity(dim)).expect("identity is SPD");
    let ws: Vec<Vec<f64>> = (0..16)
        .map(|r| (0..dim).map(|i| (((r * 31 + i * 17) % 13) as f64 - 6.0) * 0.01).collect())
        .collect();
    let mut i = 0;
    crate::host::median_ns_per_call(9, 2_000, || {
        let _ = chol.update(&ws[i % ws.len()]);
        i += 1;
    })
}

/// `NormalEquations::push_block` of `k` rows at `m` features with a live
/// factor (the serving configuration), per row.
fn gram_fold_ns_per_row(m: usize, k: usize) -> f64 {
    let row =
        |r: usize| -> Vec<f64> { (0..m).map(|i| 1.0 + ((r * 7 + i * 3) % 11) as f64).collect() };
    let mut acc = NormalEquations::new(m);
    for r in 0..(4 * m + 8) {
        acc.push(&row(r), 10.0 + r as f64).expect("shape matches");
    }
    let mut fit = LinearFit::zeros(m);
    let _ = acc.solve_into(1e-3, &mut SolveScratch::new(), &mut fit);
    let mut xcols = vec![0.0; m * k];
    for r in 0..k {
        for (f, v) in row(r + 3).into_iter().enumerate() {
            xcols[f * k + r] = v;
        }
    }
    let ys: Vec<f64> = (0..k).map(|r| 20.0 + r as f64).collect();
    let iters = (20_000 / (m * m * k).max(1)).clamp(20, 20_000);
    crate::host::median_ns_per_call(9, iters, || {
        let _ = acc.push_block(&xcols, &ys);
    }) / k as f64
}

/// The per-layer metrics of a traced run.
pub fn finish(ctx: &Ctx, out: &mut RunOut) -> Vec<(&'static str, &'static str, f64)> {
    let mut per_window: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for w in &out.layers {
        for (k, v) in w {
            per_window.entry(k).or_default().push(*v);
        }
    }
    let mut med = |k: &str| per_window.get_mut(k).map_or(0.0, |v| stats::median(v));
    let mut v: BTreeMap<&'static str, f64> = BTreeMap::new();
    for (name, _) in LAYER {
        v.insert(name, med(name));
    }
    let untraced_rps = out.rounds_per_s(false);
    let traced_rps = out.rounds_per_s(true);
    let on_path = stats::median(&mut out.on_path_ns);
    v.insert("net.residual_ns_per_round", 1e9 / untraced_rps - on_path);
    let per_round = |f: &dyn Fn(&crate::Window) -> f64| out.mid_mean_over(false, f);
    v.insert(
        "proc.ctx_switches_per_round",
        per_round(&|w| w.proc.ctx_switches as f64 / w.rounds as f64),
    );
    v.insert(
        "proc.write_syscalls_per_round",
        per_round(&|w| w.proc.write_syscalls as f64 / w.rounds as f64),
    );
    v.insert(
        "net.tcp_segments_per_round",
        per_round(&|w| w.proc.tcp_out_segs as f64 / w.rounds as f64),
    );
    v.insert("proc.cpu_util", per_round(&|w| w.proc.cpu_ns as f64 / (w.wall_s * 1e9)));
    v.insert(
        "proc.cpu_ms_per_kround",
        per_round(&|w| w.proc.cpu_ns as f64 / 1e6 / (w.rounds as f64 / 1e3)),
    );
    v.insert("engine.keys", out.engine_keys);
    v.insert("engine.in_flight", out.engine_in_flight);
    v.insert("core.explore_share", out.explored as f64 / out.picks.max(1) as f64);
    v.insert("trace.overhead_pct", (untraced_rps / traced_rps - 1.0) * 100.0);
    if ctx.workload == Workload::DurableIngest {
        // The live run compacts and recovers on its own; its numbers are
        // the ones set-up and tail latency depend on.
        let mut replayed: Vec<f64> = out.live_recover.iter().map(|r| r.0).collect();
        let mut rec_ns: Vec<f64> = out.live_recover.iter().map(|r| r.1).collect();
        v.insert("wal.compact_ms", stats::median(&mut out.live_compact_ms));
        v.insert("wal.replayed_records", stats::median(&mut replayed));
        v.insert("wal.recover_ns_per_record", stats::median(&mut rec_ns));
    }

    // Kernels at the workload's shapes: the arm's Gram and factor are
    // (m + 1)², the prediction a dot of length m.
    let m = ctx.workload.n_features();
    let d = (m + 1) as f64;
    let k = v["net.group_size_mean"].round().max(1.0);
    v.insert("linalg.dot_ns", crate::host::dot_ns(m, 100_000));
    v.insert("linalg.cholupdate_ns", cholupdate_ns(m + 1));
    v.insert("linalg.gram_fold_ns_per_row", gram_fold_ns_per_row(m, k as usize));
    // Computed work per round: select = one dot per arm; record = rank-1
    // Gram fold d(d+1) + moment axpy 2d + cholupdate 2d² per row, plus one
    // factor solve 2d² per group of k rows.
    let arms = ctx.oracle.n_arms() as f64;
    let select_flops = arms * 2.0 * m as f64;
    let record_flops = d * (d + 1.0) + 2.0 * d + 2.0 * d * d + 2.0 * d * d / k;
    v.insert("linalg.flops_per_round", select_flops + record_flops);
    // Bytes: select reads every arm's weights and the context; record reads
    // and writes the upper-triangle Gram and factor, and the solve reads
    // the factor once per group.
    let tri = d * (d + 1.0) / 2.0;
    let select_bytes = 8.0 * (arms * d + m as f64);
    let record_bytes = 8.0 * (2.0 * tri + 2.0 * tri + 2.0 * d) + 8.0 * tri / k;
    v.insert("linalg.bytes_per_round", select_bytes + record_bytes);
    LAYER.iter().map(|(n, u)| (*n, *u, v[n])).collect()
}
