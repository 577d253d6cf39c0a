//! Network serving front-end for the BanditWare engine: a framed TCP
//! protocol, an epoll reactor server, and a blocking client.
//!
//! The paper's recommend→observe loop, reachable by out-of-process
//! clients. The design goal is that the wire adds framing, not
//! semantics — a client driving `recommend`/`record` over TCP sees a
//! **bitwise-identical** recommendation stream to calling the in-process
//! [`banditware_serve::Engine`] with the same seed and schedule, because
//! floats travel as raw IEEE-754 bits and the server feeds coalesced bursts
//! to the engine's columnar `recommend_batch_frame`/`record_batch_frame`
//! entry points, which are pinned bitwise equal to sequential single
//! rounds.
//!
//! ```text
//!  clients                   server (pool of epoll reactor loops)
//!  ───────                   ─────────────────────────────────────────
//!  [len|payload|crc] ───────▶ read every ready connection, parse frames
//!  [len|payload|crc] ───────▶ coalesce per (key, op) ACROSS connections
//!                             within the window
//!                             └─▶ Engine::recommend_batch_frame /
//!                                 record_batch_frame
//!  ◀─────── [len|payload|crc] one write per connection per wake,
//!                             responses matched by request ID
//! ```
//!
//! * [`frame`] — the outer `[len][payload][crc32]` envelope (CRC32 shared
//!   with the serve crate's WAL).
//! * [`protocol`] — opcodes, request/response bodies, bounds-checked
//!   decoding.
//! * [`server`] — [`NetServer`]: the acceptor, which deals connections to
//!   the reactor loops, and the batching core every loop wake runs.
//! * [`client`] — [`NetClient`]: sync calls and explicit pipelining.
//!
//! `std::net` only — consistent with the workspace's zero-registry-deps
//! policy.

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod client;
pub(crate) mod conn;
pub mod error;
pub mod frame;
pub mod protocol;
pub(crate) mod reactor;
pub mod server;
pub(crate) mod sys_epoll;

pub use client::{NetClient, RemoteRecommendation};
pub use error::{ErrorCode, NetError, NetResult};
pub use protocol::{Request, Response};
pub use server::{NetServer, ServerConfig};
