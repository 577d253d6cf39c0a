//! The TCP workloads: bp3d-fleet (one connection, pipelined bursts of 64
//! across Zipf-skewed keys) and wide-hot-tenant (two connections on one
//! m = 64 key, one request in flight on each, in waves).

use crate::gen::{mix, Req, Stream, Workload, SALT_TRAIN};
use crate::host::ProcCounters;
use crate::layers::DirStats;
use crate::replay::{self, Fnv, Twins};
use crate::trace::Tracer;
use crate::{layers, Ctx, Fault, RunOut, Tickets, Window, FAULT_BURST};
use banditware_core::persist::{load_checkpoint, Checkpoint};
use banditware_net::{NetClient, NetServer, Response, ServerConfig};
use banditware_serve::Engine;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// What the untimed pre-run leaves behind: one v3 checkpoint per tenant.
pub struct TcpState {
    keys: Vec<String>,
    ckpt_dir: PathBuf,
}

/// Train every tenant (round-robin arms over seeded contexts, as an offline
/// trace would) and checkpoint each to a file.
pub fn prerun(ctx: &Ctx) -> Result<TcpState, String> {
    let engine = ctx.builder().build().map_err(|e| format!("build: {e}"))?;
    let keys = ctx.keys();
    let n_arms = ctx.oracle.n_arms();
    let mut rng = StdRng::seed_from_u64(mix(ctx.seed, SALT_TRAIN));
    for key in &keys {
        for r in 0..ctx.workload.train_rounds() {
            let x = ctx.oracle.context(&mut rng);
            let arm = r % n_arms;
            let y = ctx.oracle.sample(arm, &x, &mut rng);
            engine
                .with_shard_mut(key, |s| s.record_external(arm, &x, y))
                .and_then(|r| r)
                .map_err(|e| format!("train {key}: {e}"))?;
        }
    }
    let ckpt_dir = ctx.work.join("ckpt");
    std::fs::create_dir_all(&ckpt_dir).map_err(|e| format!("mkdir: {e}"))?;
    for key in &keys {
        let mut bytes = Vec::new();
        engine.save_shard_checkpoint(key, &mut bytes).map_err(|e| format!("checkpoint: {e}"))?;
        std::fs::write(ckpt_dir.join(format!("{key}.v3")), bytes)
            .map_err(|e| format!("write checkpoint: {e}"))?;
    }
    Ok(TcpState { keys, ckpt_dir })
}

/// Read and parse every tenant checkpoint.
fn load(st: &TcpState) -> Result<Vec<Checkpoint>, String> {
    st.keys
        .iter()
        .map(|key| {
            let f = std::fs::File::open(st.ckpt_dir.join(format!("{key}.v3")))
                .map_err(|e| format!("open checkpoint: {e}"))?;
            load_checkpoint(std::io::BufReader::new(f))
                .map_err(|e| format!("parse checkpoint: {e}"))
        })
        .collect()
}

/// Client-side view of one window's traffic, for the ticket check.
struct Ledger {
    tickets: Tickets,
    /// Records the client counts as acknowledged.
    acked: u64,
}

pub fn window(
    ctx: &Ctx,
    st: &TcpState,
    w: usize,
    traced: bool,
    tracer: &mut Tracer,
    out: &mut RunOut,
) -> Result<(), String> {
    let wide = ctx.workload == Workload::WideHotTenant;
    let n_conns = if wide { 2 } else { 1 };

    // Set-up: restore the trained tenants, bind, first Pong.
    out.probe_host(true)?;
    let t0 = Instant::now();
    let ckpts = load(st)?;
    let engine = ctx.builder().build().map_err(|e| format!("build: {e}"))?;
    for (key, ckpt) in st.keys.iter().zip(&ckpts) {
        engine.restore_shard_checkpoint(key, ckpt).map_err(|e| format!("restore: {e}"))?;
    }
    let engine = Arc::new(engine);
    let mut server = NetServer::bind(Arc::clone(&engine), "127.0.0.1:0", ServerConfig::default())
        .map_err(|e| format!("bind: {e}"))?;
    let mut clients = Vec::new();
    for _ in 0..n_conns {
        let mut c = NetClient::connect(server.local_addr()).map_err(|e| format!("connect: {e}"))?;
        match c.ping() {
            Ok(()) => out.setup.ok(),
            Err(e) => {
                out.setup.fail();
                return Err(format!("ping: {e}"));
            }
        }
        clients.push(c);
    }
    let setup_s = out.scaled(t0.elapsed().as_secs_f64());
    let base = engine.stats();

    // Measured phase. `busy` counts the rounds only, not the generation
    // of the next burst's inputs nor the client's bookkeeping.
    let mut stream = Stream::new(ctx.workload, ctx.seed);
    let mut reqs: Vec<Req> = Vec::new();
    // Everything the loop appends to is sized up front: a rehash or a
    // vector doubling inside the loop would land in the latencies.
    let rounds = ctx.bursts * ctx.workload.burst();
    let mut ledger = Ledger { tickets: Tickets::new(st.keys.len()), acked: 0 };
    tracer.reserve(if traced { rounds * 8 } else { 0 });
    let mut hashes = Vec::with_capacity(ctx.bursts);
    let mut busy = 0.0;
    let live_mark = tracer.mark();
    let p0 = ProcCounters::sample();
    let wall = Instant::now();
    for b in 0..ctx.bursts {
        out.probe_host(false)?;
        stream.next_burst(&ctx.oracle, &mut reqs);
        let round = (w * ctx.bursts + b) as u32;
        let fault = if w == 0 && b == FAULT_BURST { ctx.fault } else { Fault::None };
        let probe = (traced && b == 0).then_some(&*engine);
        let (hash, secs) = if wide {
            let t = Instant::now();
            let hash = wave(
                ctx,
                st,
                &mut clients,
                &reqs,
                &mut stream,
                round,
                traced,
                tracer,
                &mut ledger,
                out,
                probe,
            );
            (hash, t.elapsed().as_secs_f64())
        } else {
            burst(
                ctx,
                st,
                &mut clients[0],
                &reqs,
                &mut stream,
                round,
                traced,
                tracer,
                &mut ledger,
                out,
                fault,
                probe,
            )
        };
        busy += out.scaled(secs);
        hashes.push(hash);
        ledger.tickets.end_burst();
    }
    let wall_s = wall.elapsed().as_secs_f64();
    let proc = ProcCounters::sample().since(p0);

    // Checks: every issued ticket recorded exactly once, and the engine's
    // counters agree with the client's.
    let stats = engine.stats();
    let issued = ledger.tickets.issued;
    let want_recorded = base.recorded_rounds as u64 + ledger.acked;
    let want_in_flight = base.in_flight as u64 + issued - ledger.acked;
    out.check(
        "tickets",
        ledger.tickets.duplicates == 0
            && stats.recorded_rounds as u64 == want_recorded
            && stats.in_flight as u64 == want_in_flight,
        format!(
            "window {w}: issued {issued}, duplicates {}, recorded {} (want {want_recorded}), \
             in_flight {} (want {want_in_flight})",
            ledger.tickets.duplicates, stats.recorded_rounds, stats.in_flight
        ),
    );
    out.engine_keys = stats.keys as f64;
    drop(clients);
    server.shutdown();
    drop(engine);

    // The bitwise twin: an in-process engine restored from the same state
    // and fed the same stream must reproduce the TCP recommendation stream.
    // Two connections on one key interleave nondeterministically, so
    // wide-hot-tenant has no bitwise twin; its traced replay still runs.
    if !wide || traced {
        let dir = ctx.work.join("durable-twin");
        let (durable, before) = if traced {
            let (d, before) = layers::durable_twin(ctx, &st.keys, &ckpts, &dir)?;
            (Some(d), before)
        } else {
            (None, DirStats::default())
        };
        let mut twins = Twins::new(
            ctx.builder(),
            &ctx.oracle.specs(),
            &st.keys,
            &ckpts,
            traced,
            ctx.workload.n_features(),
            durable.as_ref(),
        )?;
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
        if !wide {
            let first_bad = hashes.iter().zip(&rep.hashes).position(|(a, b)| a != b);
            out.check(
                "twin",
                first_bad.is_none() && hashes.len() == rep.hashes.len(),
                match first_bad {
                    Some(b) => format!("window {w}: TCP stream differs from the twin at burst {b}"),
                    None => format!("window {w}: {} bursts bitwise equal", hashes.len()),
                },
            );
        }
        if traced {
            out.check(
                "layer-twins",
                rep.twin_mismatches == 0,
                format!(
                    "{} group(s) where engine, core and durable twins disagreed",
                    rep.twin_mismatches
                ),
            );
            drop(twins);
            let d = durable.expect("traced windows build a durable twin");
            let wal = layers::WalTwin::measure(ctx, d, &dir, before, rep.rounds)?;
            let spans = tracer.summarize(live_mark);
            layers::record_window(ctx, out, &spans, &rep, &wal);
        }
    }
    out.push_window(Window {
        setup_s,
        busy_s: busy,
        wall_s,
        rounds: rounds as u64,
        proc,
        traced,
        speed: 1.0,
        lat: Default::default(),
    });
    Ok(())
}

/// One pipelined burst on one connection. Returns the hash of the
/// recommendation replies in request order and the exchange's duration.
#[allow(clippy::too_many_arguments)]
fn burst(
    ctx: &Ctx,
    st: &TcpState,
    c: &mut NetClient,
    reqs: &[Req],
    stream: &mut Stream,
    round: u32,
    traced: bool,
    tracer: &mut Tracer,
    ledger: &mut Ledger,
    out: &mut RunOut,
    fault: Fault,
    probe: Option<&Engine>,
) -> (u64, f64) {
    // The exchange: every recommend, one flush, every reply; then every
    // record, one flush, every acknowledgement. Replies are only collected
    // here, with their arrival times; the bookkeeping below stays out of
    // the timed exchange and out of the latencies.
    let start = Instant::now();
    let ids: Vec<u64> = reqs
        .iter()
        .map(|r| {
            tracer.leaf("live.client.send_recommend", round, || {
                c.send_recommend(&st.keys[r.key], &r.x)
            })
        })
        .collect();
    let sent = Instant::now();
    let flushed = tracer.leaf("live.client.flush", round, || c.flush()).is_ok();
    let mut replies = Vec::with_capacity(reqs.len());
    for id in &ids {
        let reply = if flushed {
            tracer.leaf("live.client.wait", round, || c.wait(*id)).ok()
        } else {
            None
        };
        replies.push((reply, sent.elapsed().as_nanos() as u64));
    }
    if let Some(engine) = probe {
        out.engine_in_flight = out.engine_in_flight.max(engine.stats().in_flight as f64);
    }
    let mut rids = Vec::with_capacity(reqs.len());
    for (i, (reply, _)) in replies.iter().enumerate() {
        let Some(Response::Recommend { ticket, arm, .. }) = reply else { continue };
        let y = stream.runtime(&ctx.oracle, *arm as usize, &reqs[i].x);
        if fault == Fault::DropRecord && i == 1 {
            // Lost on the way: the client still counts it as recorded.
            ledger.acked += 1;
            continue;
        }
        let key = &st.keys[reqs[i].key];
        rids.push(tracer.leaf("live.client.send_record", round, || c.send_record(key, *ticket, y)));
    }
    let sent = Instant::now();
    let flushed = tracer.leaf("live.client.flush", round, || c.flush()).is_ok();
    let mut acks = Vec::with_capacity(rids.len());
    for id in rids {
        let reply =
            if flushed { tracer.leaf("live.client.wait", round, || c.wait(id)).ok() } else { None };
        acks.push((matches!(reply, Some(Response::RecordOk)), sent.elapsed().as_nanos() as u64));
    }
    let exchange = start.elapsed().as_secs_f64();

    let mut hash = Fnv::new();
    for (i, (reply, lat)) in replies.into_iter().enumerate() {
        match reply {
            Some(Response::Recommend {
                ticket,
                arm,
                explored,
                mut predicted_runtime,
                resource_cost,
                name,
            }) => {
                if fault == Fault::FlipBit && i == 0 {
                    predicted_runtime = f64::from_bits(predicted_runtime.to_bits() ^ 1);
                }
                hash.rec(
                    reqs[i].key,
                    ticket,
                    arm as usize,
                    explored,
                    predicted_runtime,
                    resource_cost,
                    &name,
                );
                out.measured.ok();
                if !traced {
                    out.rec_ns(lat);
                    out.quality(ctx.oracle.is_good_pick(arm as usize, &reqs[i].x), explored);
                }
                ledger.tickets.issue(reqs[i].key, ticket);
            }
            _ => {
                out.measured.fail();
                if !traced {
                    out.rec_lat.push_failed();
                }
            }
        }
    }
    for (ok, lat) in acks {
        if ok {
            out.measured.ok();
            ledger.acked += 1;
            if !traced {
                out.recd_ns(lat);
            }
        } else {
            out.measured.fail();
            if !traced {
                out.recd_lat.push_failed();
            }
        }
    }
    (hash.finish(), exchange)
}

/// One wave over the two connections: each sends one recommend and waits
/// for it, then one record and waits for it.
///
/// Both requests of a step are sent together and contend for the tenant's
/// one stripe, so one of them always waits for the other: taken one by
/// one, their latencies would split into two modes of equal weight, and a
/// p50 between them flips from run to run. Like the requests of a batch
/// call, both get the step's latency instead, from the first send to the
/// last reply: the time the client waits.
#[allow(clippy::too_many_arguments)]
fn wave(
    ctx: &Ctx,
    st: &TcpState,
    clients: &mut [NetClient],
    reqs: &[Req],
    stream: &mut Stream,
    round: u32,
    traced: bool,
    tracer: &mut Tracer,
    ledger: &mut Ledger,
    out: &mut RunOut,
    probe: Option<&Engine>,
) -> u64 {
    let start = Instant::now();
    let mut pending = Vec::with_capacity(clients.len());
    for (c, r) in clients.iter_mut().zip(reqs) {
        let id = tracer
            .leaf("live.client.send_recommend", round, || c.send_recommend(&st.keys[r.key], &r.x));
        let ok = tracer.leaf("live.client.flush", round, || c.flush()).is_ok();
        pending.push((id, ok));
    }
    let mut replies = Vec::with_capacity(clients.len());
    for (c, (id, ok)) in clients.iter_mut().zip(pending) {
        replies.push(if ok {
            tracer.leaf("live.client.wait", round, || c.wait(id)).ok()
        } else {
            None
        });
    }
    let lat = start.elapsed().as_nanos() as u64;
    // What each connection records: its ticket and the runtime observed.
    let mut outcomes = Vec::with_capacity(clients.len());
    for (r, reply) in reqs.iter().zip(replies) {
        match reply {
            Some(Response::Recommend { ticket, arm, explored, .. }) => {
                out.measured.ok();
                if !traced {
                    out.rec_ns(lat);
                    out.quality(ctx.oracle.is_good_pick(arm as usize, &r.x), explored);
                }
                ledger.tickets.issue(r.key, ticket);
                outcomes.push(Some((ticket, stream.runtime(&ctx.oracle, arm as usize, &r.x))));
            }
            _ => {
                out.measured.fail();
                if !traced {
                    out.rec_lat.push_failed();
                }
                outcomes.push(None);
            }
        }
    }
    if let Some(engine) = probe {
        out.engine_in_flight = out.engine_in_flight.max(engine.stats().in_flight as f64);
    }
    let start = Instant::now();
    let mut pending = Vec::with_capacity(clients.len());
    for (ci, (r, outcome)) in reqs.iter().zip(outcomes).enumerate() {
        let Some((ticket, y)) = outcome else { continue };
        let key = &st.keys[r.key];
        let c = &mut clients[ci];
        let id = tracer.leaf("live.client.send_record", round, || c.send_record(key, ticket, y));
        let ok = tracer.leaf("live.client.flush", round, || c.flush()).is_ok();
        pending.push((ci, id, ok));
    }
    let mut replies = Vec::with_capacity(pending.len());
    for (ci, id, ok) in pending {
        let c = &mut clients[ci];
        replies.push(if ok {
            tracer.leaf("live.client.wait", round, || c.wait(id)).ok()
        } else {
            None
        });
    }
    let lat = start.elapsed().as_nanos() as u64;
    for reply in replies {
        if let Some(Response::RecordOk) = reply {
            out.measured.ok();
            ledger.acked += 1;
            if !traced {
                out.recd_ns(lat);
            }
        } else {
            out.measured.fail();
            if !traced {
                out.recd_lat.push_failed();
            }
        }
    }
    0
}
