//! In-process replay of a window's generated stream.
//!
//! The replay feeds the same bursts through the program's public functions
//! the way the server handles them: request frames are encoded and parsed
//! (`frame::parse_frame` + `protocol::decode_request`), grouped per
//! (key, op) as `execute_batch` groups a burst, executed through
//! `Engine::*_batch_frame`, and answered (`protocol::encode_response` +
//! `frame::encode_frame`). It serves two ends:
//!
//! * the bitwise twin check: an `Engine` restored from the same state as
//!   the server must produce the recommendation stream the client saw;
//! * the per-layer trace: with twins enabled, each group also runs through
//!   a core `BanditWare` twin (built with `build_policy` and the key's
//!   `shard_seed`) and a `DurableEngine` twin, so engine overhead (engine
//!   minus core) and WAL cost (durable minus in-memory) are measured on the
//!   workload's own shapes.

use crate::gen::{Oracle, Req, Stream, Workload};
use crate::trace::Tracer;
use banditware_core::persist::{self, Checkpoint};
use banditware_core::{ArmSpec, BanditWare, FeatureFrame, Policy, Recommendation, Ticket};
use banditware_net::frame::{encode_frame, parse_frame, FrameEvent};
use banditware_net::protocol::{decode_request, encode_request, encode_response};
use banditware_net::{Request, Response};
use banditware_serve::{build_policy, DurableEngine, Engine};

/// FNV-1a over a recommendation stream: both the TCP client and the twin
/// hash every field of every reply in request order.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    #[allow(clippy::too_many_arguments)]
    pub fn rec(
        &mut self,
        key: usize,
        ticket: u64,
        arm: usize,
        explored: bool,
        predicted: f64,
        cost: f64,
        name: &str,
    ) {
        self.bytes(&(key as u64).to_le_bytes());
        self.bytes(&ticket.to_le_bytes());
        self.bytes(&(arm as u64).to_le_bytes());
        self.bytes(&[u8::from(explored)]);
        self.bytes(&predicted.to_bits().to_le_bytes());
        self.bytes(&cost.to_bits().to_le_bytes());
        self.bytes(name.as_bytes());
    }

    pub fn word(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

type Core = BanditWare<Box<dyn Policy>>;

/// A standalone core bandit matching the engine's shard for `key`.
fn core_twin(
    engine: &Engine,
    specs: &[ArmSpec],
    key: &str,
    n_features: usize,
    ckpt: &Checkpoint,
) -> Result<Core, String> {
    let config = engine.config().with_seed(engine.shard_seed(key));
    let specs = specs.to_vec();
    let policy = build_policy(engine.policy_name(), specs.clone(), n_features, &config)
        .map_err(|e| format!("build_policy: {e}"))?;
    let mut core = BanditWare::new(policy, specs).with_retention(engine.retention());
    persist::restore_checkpoint(&mut core, ckpt).map_err(|e| format!("core restore: {e}"))?;
    Ok(core)
}

/// The objects one replay runs against.
pub struct Twins<'a> {
    pub engine: Engine,
    pub cores: Vec<Core>,
    pub durable: Option<&'a DurableEngine>,
}

impl<'a> Twins<'a> {
    /// An in-memory engine twin restored from `ckpts`, plus core twins when
    /// `with_cores`.
    pub fn new(
        builder: banditware_serve::EngineBuilder,
        specs: &[ArmSpec],
        keys: &[String],
        ckpts: &[Checkpoint],
        with_cores: bool,
        n_features: usize,
        durable: Option<&'a DurableEngine>,
    ) -> Result<Twins<'a>, String> {
        let engine = builder.build().map_err(|e| format!("twin build: {e}"))?;
        let mut cores = Vec::new();
        for (key, ckpt) in keys.iter().zip(ckpts) {
            engine.restore_shard_checkpoint(key, ckpt).map_err(|e| format!("twin restore: {e}"))?;
            if with_cores {
                cores.push(core_twin(&engine, specs, key, n_features, ckpt)?);
            }
        }
        Ok(Twins { engine, cores, durable })
    }
}

/// What one replay produced.
#[derive(Default)]
pub struct ReplayOut {
    /// Per-burst hash of the engine twin's recommendations.
    pub hashes: Vec<u64>,
    /// Groups where the engine, core and durable twins disagreed.
    pub twin_mismatches: u64,
    pub requests: u64,
    pub responses: u64,
    pub rounds: u64,
    pub groups: u64,
    pub wire_bytes: u64,
}

/// Whether two twins served the same picks, bit for bit.
fn same(a: &[(Ticket, Recommendation)], b: &[(Ticket, Recommendation)]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|((ta, ra), (tb, rb))| {
            ta == tb
                && ra.arm == rb.arm
                && ra.explored == rb.explored
                && ra.predicted_runtime.to_bits() == rb.predicted_runtime.to_bits()
        })
}

/// Group burst positions per key in order of first appearance, as the
/// server coalesces one readiness pass. Wide-hot-tenant requests arrive one
/// per connection read, so each is its own group.
fn groups_of(workload: Workload, reqs: &[Req]) -> Vec<(usize, Vec<usize>)> {
    let mut groups: Vec<(usize, Vec<usize>)> = Vec::new();
    for (i, r) in reqs.iter().enumerate() {
        let found = if workload == Workload::WideHotTenant {
            None
        } else {
            groups.iter_mut().find(|(k, _)| *k == r.key)
        };
        match found {
            Some((_, idxs)) => idxs.push(i),
            None => groups.push((r.key, vec![i])),
        }
    }
    groups
}

/// Encode requests as the client would and parse them back as the server
/// does; returns the decoded requests in arrival order.
fn wire_round_trip(
    reqs: Vec<Request>,
    tracer: &mut Tracer,
    round: u32,
    out: &mut ReplayOut,
) -> Result<Vec<Request>, String> {
    let mut wire = Vec::new();
    tracer.leaf("net.client_encode", round, || {
        let mut payload = Vec::new();
        for (id, req) in reqs.iter().enumerate() {
            encode_request(id as u64 + 1, req, &mut payload);
            encode_frame(&payload, &mut wire);
        }
    });
    out.wire_bytes += wire.len() as u64;
    out.requests += reqs.len() as u64;
    tracer.leaf("net.decode", round, || {
        let mut decoded = Vec::with_capacity(reqs.len());
        let mut at = 0;
        while at < wire.len() {
            match parse_frame(&wire[at..]) {
                Ok(FrameEvent::Payload { start, end, consumed }) => {
                    let (_, req) = decode_request(&wire[at + start..at + end])
                        .map_err(|e| format!("decode: {e}"))?;
                    decoded.push(req);
                    at += consumed;
                }
                _ => return Err("replay: unparseable request frame".to_string()),
            }
        }
        Ok(decoded)
    })
}

fn encode_replies(resps: &[Response], tracer: &mut Tracer, round: u32, out: &mut ReplayOut) {
    let bytes = tracer.leaf("net.encode", round, || {
        let (mut payload, mut frame, mut total) = (Vec::new(), Vec::new(), 0usize);
        for (id, resp) in resps.iter().enumerate() {
            encode_response(id as u64 + 1, resp, &mut payload);
            frame.clear();
            encode_frame(&payload, &mut frame);
            total += frame.len();
        }
        total
    });
    out.wire_bytes += bytes as u64;
    out.responses += resps.len() as u64;
}

/// Replay `bursts` bursts of the run's stream through `twins`.
#[allow(clippy::too_many_arguments)]
pub fn replay(
    workload: Workload,
    seed: u64,
    oracle: &Oracle,
    keys: &[String],
    bursts: usize,
    twins: &mut Twins<'_>,
    tracer: &mut Tracer,
    round_base: u32,
) -> Result<ReplayOut, String> {
    let mut out = ReplayOut::default();
    let mut stream = Stream::new(workload, seed);
    let mut reqs = Vec::new();
    let mut frame = FeatureFrame::new();
    let full = !twins.cores.is_empty();
    for b in 0..bursts {
        let round = round_base + b as u32;
        stream.next_burst(oracle, &mut reqs);
        let burst_span = tracer.begin("replay.burst", round);
        let groups = groups_of(workload, &reqs);
        out.groups += groups.len() as u64;

        // Recommend half of the round.
        let wire: Vec<Request> = reqs
            .iter()
            .map(|r| Request::Recommend { key: keys[r.key].clone(), features: r.x.clone() })
            .collect();
        let mut decoded = wire_round_trip(wire, tracer, round, &mut out)?;
        let mut served: Vec<Option<(Ticket, Recommendation)>> = vec![None; reqs.len()];
        for (k, idxs) in &groups {
            let rows: Vec<Vec<f64>> = idxs
                .iter()
                .map(|&i| match &mut decoded[i] {
                    Request::Recommend { features, .. } => std::mem::take(features),
                    _ => Vec::new(),
                })
                .collect();
            tracer
                .leaf("net.stage", round, || frame.fill_from_rows(&rows))
                .map_err(|e| e.to_string())?;
            let key = &keys[*k];
            let got = tracer
                .leaf("engine.recommend_batch_frame", round, || {
                    twins.engine.recommend_batch_frame(key, &frame)
                })
                .map_err(|e| format!("twin recommend: {e}"))?;
            if full {
                let core = &mut twins.cores[*k];
                let c = tracer
                    .leaf("core.recommend_batch_frame", round, || {
                        core.recommend_batch_frame(&frame)
                    })
                    .map_err(|e| format!("core recommend: {e}"))?;
                if !same(&got, &c) {
                    out.twin_mismatches += 1;
                }
                if let Some(d) = twins.durable {
                    let dr = tracer
                        .leaf("wal.recommend_batch_frame", round, || {
                            d.recommend_batch_frame(key, &frame)
                        })
                        .map_err(|e| format!("durable recommend: {e}"))?;
                    if !same(&got, &dr) {
                        out.twin_mismatches += 1;
                    }
                }
            }
            for (&i, pick) in idxs.iter().zip(got) {
                served[i] = Some(pick);
            }
        }
        let mut hash = Fnv::new();
        let mut resps = Vec::with_capacity(reqs.len());
        for (i, pick) in served.iter().enumerate() {
            let (t, rec) = pick.as_ref().ok_or("replay: request left unserved")?;
            hash.rec(
                reqs[i].key,
                t.id(),
                rec.arm,
                rec.explored,
                rec.predicted_runtime,
                rec.resource_cost,
                &rec.name,
            );
            resps.push(Response::Recommend {
                ticket: t.id(),
                arm: rec.arm as u32,
                explored: rec.explored,
                predicted_runtime: rec.predicted_runtime,
                resource_cost: rec.resource_cost,
                name: rec.name.to_string(),
            });
        }
        out.hashes.push(hash.finish());
        encode_replies(&resps, tracer, round, &mut out);

        // Record half, with the runtimes the client observes.
        let outcomes: Vec<(Ticket, f64)> = served
            .iter()
            .zip(&reqs)
            .map(|(pick, r)| {
                let (t, rec) = pick.as_ref().expect("every request was served above");
                (*t, stream.runtime(oracle, rec.arm, &r.x))
            })
            .collect();
        let wire: Vec<Request> = reqs
            .iter()
            .zip(&outcomes)
            .map(|(r, (t, y))| Request::Record {
                key: keys[r.key].clone(),
                ticket: t.id(),
                runtime: *y,
            })
            .collect();
        wire_round_trip(wire, tracer, round, &mut out)?;
        for (k, idxs) in &groups {
            let key = &keys[*k];
            let batch: Vec<(Ticket, f64)> = idxs.iter().map(|&i| outcomes[i]).collect();
            tracer
                .leaf("engine.record_batch_frame", round, || {
                    twins.engine.record_batch_frame(key, &batch)
                })
                .map_err(|e| format!("twin record: {e}"))?;
            if full {
                let core = &mut twins.cores[*k];
                tracer
                    .leaf("core.record_batch_frame", round, || core.record_batch_frame(&batch))
                    .map_err(|e| format!("core record: {e}"))?;
                if let Some(d) = twins.durable {
                    tracer
                        .leaf("wal.record_batch_frame", round, || d.record_batch_frame(key, &batch))
                        .map_err(|e| format!("durable record: {e}"))?;
                }
            }
        }
        encode_replies(&vec![Response::RecordOk; reqs.len()], tracer, round, &mut out);
        out.rounds += reqs.len() as u64;
        tracer.end(burst_span);
    }
    Ok(out)
}
