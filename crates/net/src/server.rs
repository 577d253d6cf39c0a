//! The TCP front-end over a shared [`Engine`].
//!
//! ## Serving
//!
//! A blocking acceptor hands each accepted connection, round-robin, to a
//! small fixed pool of epoll event loops ([`crate::reactor`]) running
//! nonblocking sockets. Connection count costs no threads, and each loop
//! wake coalesces requests **across every ready connection**, so batch
//! efficiency grows with concurrency instead of being capped per socket.
//!
//! ## Batching at the socket boundary
//!
//! Requests parsed in one readiness pass — plus whatever else arrives
//! within the configured accumulation window — are **coalesced per tenant
//! key** and fed to [`Engine::recommend_batch_frame`] /
//! [`Engine::record_batch_frame`], so a burst of n rounds costs one
//! shard-lock acquisition per key and one response write per connection
//! instead of n of each. Coalescing preserves per-key operation order (a
//! key's recommends and records never reorder relative to each other) but
//! completes whole groups at a time, so responses legitimately return out
//! of order across keys — which is why the protocol carries request IDs.
//!
//! ## Damage policy
//!
//! * Payload bit-flip (CRC fails, boundary intact): typed
//!   [`ErrorCode::Malformed`] response, connection continues at the next
//!   frame boundary.
//! * Undecodable payload (CRC clean, body nonsense): typed
//!   [`ErrorCode::Malformed`] response echoing the request ID when the
//!   header was long enough to carry one.
//! * Oversized length header: typed [`ErrorCode::Oversized`] response, then
//!   the connection closes — with the length field untrusted there is no
//!   next boundary to resynchronize to.
//! * Torn frame at EOF / peer reset: the connection closes quietly.
//! * Accept past [`ServerConfig::max_connections`]: typed
//!   [`ErrorCode::Busy`] response, then the new connection closes;
//!   established connections are unaffected.
//!
//! The handlers never panic on input bytes; every decode is bounds-checked.

use crate::error::{ErrorCode, NetResult};
use crate::frame::encode_frame;
use crate::protocol::{decode_request, encode_response, Request, Response, UNKNOWN_REQUEST_ID};
use crate::reactor::{self, ReactorHandle};
use banditware_core::{CoreError, FeatureFrame, Ticket};
use banditware_serve::Engine;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
// lint: timing-module -- the busy-reject linger is bounded in wall time by design
use std::time::{Duration, Instant};

/// How often an idle reactor wakes up to check the shutdown flag.
pub(crate) const POLL: Duration = Duration::from_millis(25);

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// How long a batch keeps accumulating frames after the first one
    /// before processing (`Duration::ZERO` — the default — processes
    /// whatever each readiness pass delivered: pipelined bursts still
    /// coalesce naturally, and single sync requests see no added latency).
    pub batch_window: Duration,
    /// Event-loop threads; `0` (the default) resolves to
    /// `min(available cores, 4)`.
    pub reactor_threads: usize,
    /// Accept ceiling: a connection arriving while this many are
    /// established gets a typed [`ErrorCode::Busy`] frame and a graceful
    /// close instead of service. `usize::MAX` (the default) never rejects.
    pub max_connections: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            batch_window: Duration::ZERO,
            reactor_threads: 0,
            max_connections: usize::MAX,
        }
    }
}

impl ServerConfig {
    /// Builder-style accumulation window.
    #[must_use]
    pub fn with_batch_window(mut self, window: Duration) -> Self {
        self.batch_window = window;
        self
    }

    /// Builder-style reactor thread count (`0` = auto).
    #[must_use]
    pub fn with_reactor_threads(mut self, threads: usize) -> Self {
        self.reactor_threads = threads;
        self
    }

    /// Builder-style connection ceiling.
    #[must_use]
    pub fn with_max_connections(mut self, max: usize) -> Self {
        self.max_connections = max;
        self
    }

    /// The reactor pool size this configuration resolves to.
    pub fn resolved_reactor_threads(&self) -> usize {
        if self.reactor_threads > 0 {
            return self.reactor_threads;
        }
        std::thread::available_parallelism().map_or(1, |n| n.get().min(4))
    }
}

/// A running TCP server. Dropping it (or calling [`NetServer::shutdown`])
/// stops the acceptor and joins every serving thread.
#[derive(Debug)]
pub struct NetServer {
    local_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
    reactors: Vec<ReactorHandle>,
}

impl NetServer {
    /// Bind `addr` (use port 0 for an ephemeral port) and start accepting.
    /// The engine is shared: several servers (or in-process callers) may
    /// serve the same one concurrently.
    ///
    /// # Errors
    /// [`NetError::Io`] on bind failure.
    pub fn bind(
        engine: Arc<Engine>,
        addr: impl ToSocketAddrs,
        config: ServerConfig,
    ) -> NetResult<NetServer> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        // Established-connection count, shared by the acceptor (ceiling
        // check) and the reactors (which retire connections).
        let live = Arc::new(AtomicUsize::new(0));
        let max_connections = config.max_connections;

        let reactors = reactor::spawn_reactors(
            &engine,
            config.resolved_reactor_threads(),
            config.batch_window,
            &shutdown,
            &live,
        )?;

        let acceptor = {
            let shutdown = Arc::clone(&shutdown);
            let live = Arc::clone(&live);
            let dispatch: Vec<Arc<reactor::ReactorShared>> =
                reactors.iter().map(|r| Arc::clone(&r.shared)).collect();
            std::thread::spawn(move || {
                let mut next = 0usize;
                for stream in listener.incoming() {
                    if shutdown.load(Ordering::Acquire) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    if live.load(Ordering::Acquire) >= max_connections {
                        reject_busy(stream);
                        continue;
                    }
                    live.fetch_add(1, Ordering::AcqRel);
                    let target = &dispatch[next % dispatch.len()];
                    next = next.wrapping_add(1);
                    target
                        .inbox
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner)
                        .push_back(stream);
                    target.wake.wake();
                }
            })
        };
        Ok(NetServer { local_addr, shutdown, acceptor: Some(acceptor), reactors })
    }

    /// The bound address (the real port when bound with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stop accepting, wake every connection, and join all threads.
    /// Idempotent.
    pub fn shutdown(&mut self) {
        if self.shutdown.swap(true, Ordering::AcqRel) {
            return;
        }
        // Unblock the acceptor's `accept` with a throwaway connection.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        for r in std::mem::take(&mut self.reactors) {
            r.shared.wake.wake();
            let _ = r.handle.join();
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Answer a connection arriving past the ceiling with a typed `Busy` frame
/// (unknown request ID — it rejects the connection, not any one request)
/// and close gracefully.
fn reject_busy(mut stream: TcpStream) {
    let mut payload = Vec::new();
    encode_response(
        UNKNOWN_REQUEST_ID,
        &Response::Error { code: ErrorCode::Busy, message: "server at connection capacity".into() },
        &mut payload,
    );
    let mut frame = Vec::new();
    encode_frame(&payload, &mut frame);
    let _ = stream.set_nodelay(true);
    let _ = stream.write_all(&frame);
    let _ = stream.shutdown(std::net::Shutdown::Write);
    // The client has usually already written its first request; dropping
    // the socket with those bytes unread can turn the close into an RST
    // that discards the in-flight Busy frame. Linger briefly reading until
    // the peer closes so the typed rejection reliably arrives. Bounded in
    // time so a hostile dribbler cannot pin the acceptor.
    let deadline = Instant::now() + Duration::from_millis(500);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
    let mut sink = [0u8; 4096];
    loop {
        match stream.read(&mut sink) {
            Ok(0) => break,
            Ok(_) => {}
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut
                    || e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => break,
        }
        if Instant::now() >= deadline {
            break;
        }
    }
}

/// One parsed inbound item, in arrival order.
pub(crate) enum Inbound {
    /// A decoded request, tagged with its wire request ID.
    Request(u64, Request),
    /// Already answered at parse time (CRC failure, undecodable payload).
    Reject(u64, Response),
}

/// Requests grouped for batched execution, in creation order. Each entry in
/// `ids` pairs the originating connection slot with the wire request ID, so
/// responses route back across connections.
enum Group {
    Recommend { key: String, ids: Vec<(usize, u64)>, contexts: Vec<Vec<f64>> },
    Record { key: String, ids: Vec<(usize, u64)>, outcomes: Vec<(Ticket, f64)> },
    Checkpoint { slot: usize, id: u64, key: String },
    Ping { slot: usize, id: u64 },
    Reject { slot: usize, id: u64, resp: Response },
}

/// Reusable buffers for [`execute_batch`], so steady-state batching
/// allocates nothing per wake.
pub(crate) struct BatchScratch {
    /// Columnar staging for recommend bursts: each coalesced burst is
    /// transposed once here, outside the stripe lock.
    burst: FeatureFrame,
    payload: Vec<u8>,
    frame: Vec<u8>,
}

impl BatchScratch {
    pub(crate) fn new() -> BatchScratch {
        BatchScratch { burst: FeatureFrame::new(), payload: Vec::new(), frame: Vec::new() }
    }
}

/// Decode one CRC-clean payload, salvaging the request ID from the fixed
/// header position on decode failure so the error response routes back to
/// the right caller.
pub(crate) fn parse_payload(payload: &[u8]) -> Inbound {
    match decode_request(payload) {
        Ok((id, req)) => Inbound::Request(id, req),
        Err(e) => {
            let id = if payload.len() >= 9 {
                // lint: allow(no-panic) -- length >= 9 checked by the enclosing if
                u64::from_le_bytes(payload[1..9].try_into().expect("9-byte header"))
            } else {
                UNKNOWN_REQUEST_ID
            };
            Inbound::Reject(
                id,
                Response::Error { code: ErrorCode::Malformed, message: e.to_string() },
            )
        }
    }
}

/// The batching core of every reactor wake: coalesce the pending requests
/// — **across connections** — into per-(key, operation) groups, execute
/// each group through the engine's columnar batch entry points, and hand
/// every encoded response frame to `sink` tagged with the connection slot
/// it belongs to.
pub(crate) fn execute_batch(
    engine: &Engine,
    pending: &mut Vec<(usize, Inbound)>,
    scratch: &mut BatchScratch,
    sink: &mut dyn FnMut(usize, &[u8]),
) {
    let mut groups: Vec<Group> = Vec::new();
    // Per key: the index of its most recent group. A same-key same-op
    // request appends there (coalescing across interleaved other-key — and
    // other-connection — traffic); a same-key *different*-op request starts
    // a fresh group, so one key's recommend/record order is never
    // reordered.
    let mut last_group: HashMap<String, usize> = HashMap::new();
    for (slot, inbound) in pending.drain(..) {
        match inbound {
            Inbound::Reject(id, resp) => groups.push(Group::Reject { slot, id, resp }),
            Inbound::Request(id, Request::Ping) => groups.push(Group::Ping { slot, id }),
            Inbound::Request(id, Request::Checkpoint { key }) => {
                last_group.remove(&key);
                groups.push(Group::Checkpoint { slot, id, key });
            }
            Inbound::Request(id, Request::Recommend { key, features }) => {
                if let Some(&gi) = last_group.get(&key) {
                    if let Group::Recommend { ids, contexts, .. } = &mut groups[gi] {
                        ids.push((slot, id));
                        contexts.push(features);
                        continue;
                    }
                }
                last_group.insert(key.clone(), groups.len());
                groups.push(Group::Recommend {
                    key,
                    ids: vec![(slot, id)],
                    contexts: vec![features],
                });
            }
            Inbound::Request(id, Request::Record { key, ticket, runtime }) => {
                if let Some(&gi) = last_group.get(&key) {
                    if let Group::Record { ids, outcomes, .. } = &mut groups[gi] {
                        ids.push((slot, id));
                        outcomes.push((Ticket::from_id(ticket), runtime));
                        continue;
                    }
                }
                last_group.insert(key.clone(), groups.len());
                groups.push(Group::Record {
                    key,
                    ids: vec![(slot, id)],
                    outcomes: vec![(Ticket::from_id(ticket), runtime)],
                });
            }
        }
    }

    let BatchScratch { burst, payload, frame } = scratch;
    let mut push = |slot: usize, id: u64, resp: &Response, sink: &mut dyn FnMut(usize, &[u8])| {
        encode_response(id, resp, payload);
        frame.clear();
        encode_frame(payload, frame);
        sink(slot, frame);
    };

    for group in groups {
        match group {
            Group::Reject { slot, id, resp } => push(slot, id, &resp, sink),
            Group::Ping { slot, id } => push(slot, id, &Response::Pong, sink),
            Group::Checkpoint { slot, id, key } => {
                let mut bytes = Vec::new();
                match engine.save_shard_checkpoint(&key, &mut bytes) {
                    Ok(()) => push(slot, id, &Response::Checkpoint { bytes }, sink),
                    Err(e) => {
                        let code = match &e {
                            CoreError::InvalidParameter { .. } => ErrorCode::Unsupported,
                            _ => ErrorCode::Engine,
                        };
                        push(slot, id, &Response::Error { code, message: e.to_string() }, sink);
                    }
                }
            }
            Group::Recommend { key, ids, contexts } => {
                // Build the frame once per coalesced burst and drive the
                // columnar engine path; a ragged burst (or any batch
                // validation failure) falls through to the per-request
                // retry below.
                let batched = burst
                    .fill_from_rows(&contexts)
                    .and_then(|()| engine.recommend_batch_frame(&key, burst));
                match batched {
                    Ok(results) => {
                        for ((slot, id), (ticket, rec)) in ids.iter().zip(results) {
                            push(
                                *slot,
                                *id,
                                &Response::Recommend {
                                    ticket: ticket.id(),
                                    arm: rec.arm as u32,
                                    explored: rec.explored,
                                    predicted_runtime: rec.predicted_runtime,
                                    resource_cost: rec.resource_cost,
                                    name: rec.name.to_string(),
                                },
                                sink,
                            );
                        }
                    }
                    Err(_) => {
                        // Batch validation is atomic; retry individually so
                        // each request gets its own verdict.
                        for ((slot, id), x) in ids.iter().zip(&contexts) {
                            match engine.recommend(&key, x) {
                                Ok((ticket, rec)) => push(
                                    *slot,
                                    *id,
                                    &Response::Recommend {
                                        ticket: ticket.id(),
                                        arm: rec.arm as u32,
                                        explored: rec.explored,
                                        predicted_runtime: rec.predicted_runtime,
                                        resource_cost: rec.resource_cost,
                                        name: rec.name.to_string(),
                                    },
                                    sink,
                                ),
                                Err(e) => push(
                                    *slot,
                                    *id,
                                    &Response::Error {
                                        code: ErrorCode::Engine,
                                        message: e.to_string(),
                                    },
                                    sink,
                                ),
                            }
                        }
                    }
                }
            }
            Group::Record { key, ids, outcomes } => {
                // Columnar frame absorption for the coalesced burst (one
                // WAL group commit, per-arm rank-k folds); bitwise
                // identical to per-request recording.
                match engine.record_batch_frame(&key, &outcomes) {
                    Ok(()) => {
                        for (slot, id) in ids {
                            push(slot, id, &Response::RecordOk, sink);
                        }
                    }
                    Err(_) => {
                        for ((slot, id), (ticket, runtime)) in ids.iter().zip(&outcomes) {
                            match engine.record(&key, *ticket, *runtime) {
                                Ok(()) => push(*slot, *id, &Response::RecordOk, sink),
                                Err(e) => push(
                                    *slot,
                                    *id,
                                    &Response::Error {
                                        code: ErrorCode::Engine,
                                        message: e.to_string(),
                                    },
                                    sink,
                                ),
                            }
                        }
                    }
                }
            }
        }
    }
}
