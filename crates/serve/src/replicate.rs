//! Snapshot + segment replication to a standby engine.
//!
//! A production deployment of the paper's always-on learning loop cannot
//! have a single engine be both the learner and the only copy of its
//! sufficient statistics. This module ships a primary
//! [`DurableEngine`]'s durable state — compacted `snapshot.v3` files plus
//! sealed, checksummed WAL segments, exactly as advertised by each key's
//! `MANIFEST` — to one or more follower directories, and runs a
//! [`FollowerEngine`] over the replica that can take over on failover.
//!
//! ## Roles
//!
//! * [`Replicator`] — the shipping loop. [`Replicator::ship_all`] asks the
//!   primary to make its sealed log durable ([`crate::wal::Durability`]-aware: a
//!   `Flush`-mode primary fsyncs lazily, at ship time), verifies every
//!   file against its manifest length + CRC32 **before** sending (primary
//!   bit-rot is caught at the source), installs data files first and the
//!   manifest last — a follower only ever trusts files its manifest
//!   lists, and every listed file is already present when the manifest
//!   arrives — then removes destination segments the new snapshot
//!   superseded.
//! * [`SegmentTransport`] — where the bytes go. [`FsTransport`] installs
//!   into a local directory (atomic temp-file + rename); a network
//!   transport implements the same three operations and slots in without
//!   touching the rest of the machinery.
//! * [`FollowerEngine`] — the standby. [`FollowerEngine::catch_up`]
//!   applies whatever the replica directory advertises through the same
//!   replay path crash recovery uses: snapshot restore (bitwise-faithful,
//!   O(m²)) plus in-order segment replay deduplicated on the absolute
//!   observation sequence. It tracks an **applied-sequence watermark** per
//!   tenant key — `watermark(key)` is the number of rounds applied, i.e.
//!   the next sequence number expected — serves read-only, exploit-only
//!   predictions (no RNG is consumed, no ticket opened: the follower's
//!   state stays byte-identical to what replication delivered), and
//!   [`FollowerEngine::promote`]s into a full [`DurableEngine`] by
//!   reopening the replica through standard recovery.
//!
//! ## Corruption
//!
//! A shipped file whose bytes do not match its manifest entry — one
//! flipped bit anywhere — is **quarantined**: renamed to
//! `<name>.quarantined`, reported in [`CatchUpReport::quarantined`], and
//! never applied; segments after it in the same key are not applied either
//! (replay order is part of correctness). The next ship re-sends the
//! missing file and catch-up resumes.
//!
//! ## What a follower can lose
//!
//! Replication ships durable state only: records in the primary's active
//! (unsealed) segment are invisible to the follower until a rotation seals
//! them or a ship with `seal_active` forces one. Follower staleness is
//! therefore bounded by the segment rotation threshold — the
//! `BENCH_PR5.json` trajectory pins catch-up throughput and the staleness
//! bound across rotation sizes.

use crate::builder::EngineBuilder;
use crate::crc::crc32;
use crate::engine::Engine;
use crate::error::{ServeError, ServeResult};
use crate::wal::{
    decode_key, encode_key, io_err, read_manifest, replay_segment, segment_index, segment_name,
    DurableEngine, FileMeta, RecoveryReport, ReplayStats, WalOptions, MANIFEST_FILE, SNAPSHOT_FILE,
};
use banditware_core::{persist, Recommendation};
use std::collections::{BTreeSet, HashMap};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Where shipped files land. Implementations must make [`install`]
/// atomic — a reader at the destination sees the old file or the new file,
/// never a torn one — because the follower applies files as soon as a
/// manifest names them.
///
/// [`install`]: SegmentTransport::install
pub trait SegmentTransport: Send + Sync + std::fmt::Debug {
    /// Atomically install `bytes` as `<key_dir>/<name>` at the destination,
    /// replacing any existing file of that name.
    ///
    /// # Errors
    /// [`ServeError::Transport`] on delivery failure.
    fn install(&self, key_dir: &str, name: &str, bytes: &[u8]) -> ServeResult<()>;

    /// File names already present at the destination for `key_dir` (an
    /// unknown/empty key directory is `Ok(vec![])`, not an error).
    ///
    /// # Errors
    /// [`ServeError::Transport`] on listing failure.
    fn existing(&self, key_dir: &str) -> ServeResult<Vec<String>>;

    /// Remove `<key_dir>/<name>` at the destination (missing is fine).
    ///
    /// # Errors
    /// [`ServeError::Transport`] on removal failure.
    fn remove(&self, key_dir: &str, name: &str) -> ServeResult<()>;
}

fn transport_err(op: &'static str) -> impl Fn(std::io::Error) -> ServeError {
    move |e| ServeError::Transport { op, detail: e.to_string() }
}

/// Local-filesystem transport: the follower directory lives on this host
/// (or on anything mounted to look like it). Installs are temp-file +
/// rename, so a concurrently running [`FollowerEngine`] never reads a torn
/// file.
#[derive(Debug, Clone)]
pub struct FsTransport {
    root: PathBuf,
}

impl FsTransport {
    /// A transport delivering into `root` (one subdirectory per key,
    /// mirroring the primary's layout).
    pub fn new(root: impl Into<PathBuf>) -> Self {
        FsTransport { root: root.into() }
    }

    /// The destination root.
    pub fn root(&self) -> &Path {
        &self.root
    }
}

impl SegmentTransport for FsTransport {
    fn install(&self, key_dir: &str, name: &str, bytes: &[u8]) -> ServeResult<()> {
        let io = transport_err("install");
        let dir = self.root.join(key_dir);
        fs::create_dir_all(&dir).map_err(&io)?;
        let tmp = dir.join(format!("{name}.ship-tmp"));
        fs::write(&tmp, bytes).map_err(&io)?;
        fs::rename(&tmp, dir.join(name)).map_err(&io)?;
        Ok(())
    }

    fn existing(&self, key_dir: &str) -> ServeResult<Vec<String>> {
        let io = transport_err("list");
        match fs::read_dir(self.root.join(key_dir)) {
            Ok(entries) => {
                let mut names = Vec::new();
                for entry in entries {
                    if let Some(name) = entry.map_err(&io)?.file_name().to_str() {
                        names.push(name.to_string());
                    }
                }
                Ok(names)
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Vec::new()),
            Err(e) => Err(io(e)),
        }
    }

    fn remove(&self, key_dir: &str, name: &str) -> ServeResult<()> {
        match fs::remove_file(self.root.join(key_dir).join(name)) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(transport_err("remove")(e)),
        }
    }
}

/// What one [`Replicator::ship_all`] pass delivered.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShipReport {
    /// Keys examined, sorted.
    pub keys: Vec<String>,
    /// Snapshots installed at the destination (unchanged ones are skipped).
    pub snapshots_shipped: usize,
    /// Segments installed at the destination.
    pub segments_shipped: usize,
    /// Total payload bytes sent (manifests excluded).
    pub bytes_shipped: u64,
    /// Destination segments removed because a shipped snapshot superseded
    /// them.
    pub superseded_removed: usize,
}

/// Ships a primary's durable state to one destination. Create one
/// `Replicator` per follower; each tracks what it has already delivered so
/// an unchanged snapshot is not re-sent.
#[derive(Debug)]
pub struct Replicator {
    transport: Box<dyn SegmentTransport>,
    /// CRC of the snapshot last installed per key.
    shipped_snapshots: Mutex<HashMap<String, u32>>,
}

impl Replicator {
    /// A replicator delivering through `transport`.
    pub fn new(transport: impl SegmentTransport + 'static) -> Self {
        Replicator { transport: Box::new(transport), shipped_snapshots: Mutex::new(HashMap::new()) }
    }

    fn shipped_snapshot(&self, key: &str) -> ServeResult<Option<u32>> {
        let map = self.shipped_snapshots.lock().map_err(|_| {
            self.shipped_snapshots.clear_poison();
            ServeError::LockPoisoned { what: "replicator ship cache" }
        })?;
        Ok(map.get(key).copied())
    }

    fn note_shipped_snapshot(&self, key: &str, crc: u32) -> ServeResult<()> {
        let mut map = self.shipped_snapshots.lock().map_err(|_| {
            self.shipped_snapshots.clear_poison();
            ServeError::LockPoisoned { what: "replicator ship cache" }
        })?;
        map.insert(key.to_string(), crc);
        Ok(())
    }

    /// Ship every key the primary serves. With `seal_active`, each key's
    /// active segment is sealed first, so everything recorded before this
    /// call reaches the follower (otherwise only already-sealed segments
    /// and snapshots ship, and staleness is bounded by the rotation
    /// threshold).
    ///
    /// # Errors
    /// [`ServeError::Corrupt`] when a source file fails its own manifest
    /// checksum (primary bit-rot — nothing is shipped for that key);
    /// [`ServeError::Transport`] on delivery failures.
    pub fn ship_all(&self, primary: &DurableEngine, seal_active: bool) -> ServeResult<ShipReport> {
        let mut report = ShipReport::default();
        for key in primary.engine().keys() {
            self.ship_key(primary, &key, seal_active, &mut report)?;
            report.keys.push(key);
        }
        Ok(report)
    }

    /// Ship one key (see [`Replicator::ship_all`]).
    ///
    /// # Errors
    /// See [`Replicator::ship_all`].
    pub fn ship_key(
        &self,
        primary: &DurableEngine,
        key: &str,
        seal_active: bool,
        report: &mut ShipReport,
    ) -> ServeResult<()> {
        let enc = encode_key(key);
        // Phase 1, appender locked (briefly): make the durable set
        // consistent and remember it. Everything the manifest lists is
        // immutable once sealed, so the lock is NOT held across transport
        // IO — a slow network ship must not stall the key's record path
        // (which waits on this mutex while holding its stripe lock).
        let (manifest, dir) = primary.with_key_wal(key, |wal| {
            Ok((wal.sync_for_ship(seal_active)?, wal.dir().to_path_buf()))
        })?;
        // Phase 2, no locks: read, verify, send. A compaction racing this
        // ship can only *delete* advertised segments or *replace* the
        // snapshot; both are detected below and back this key's ship off
        // to the next pass — the manifest is installed last, so the
        // destination stays consistent with whatever was fully delivered.
        let io = transport_err("read-source");
        // Ordered so the superseded-segment sweep below deletes in a
        // stable order.
        let existing: BTreeSet<String> = self.transport.existing(&enc)?.into_iter().collect();
        if let Some(meta) = manifest.snapshot {
            let unchanged =
                self.shipped_snapshot(key)? == Some(meta.crc) && existing.contains(SNAPSHOT_FILE);
            if !unchanged {
                let path = dir.join(SNAPSHOT_FILE);
                let bytes = match fs::read(&path) {
                    Ok(bytes) => bytes,
                    Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(()),
                    Err(e) => return Err(io(e)),
                };
                if let Err(err) = verify_against_manifest(&path, &bytes, meta) {
                    // A racing compact may have swapped the snapshot under
                    // us; only an unchanged manifest makes this bit-rot.
                    return match read_manifest(&dir)? {
                        Some(live) if live.snapshot != manifest.snapshot => Ok(()),
                        _ => Err(err),
                    };
                }
                self.transport.install(&enc, SNAPSHOT_FILE, &bytes)?;
                self.note_shipped_snapshot(key, meta.crc)?;
                report.snapshots_shipped += 1;
                report.bytes_shipped += bytes.len() as u64;
            }
        }
        for (idx, meta) in &manifest.segments {
            let name = segment_name(*idx);
            if existing.contains(&name) {
                // Sealed segments are immutable (enforced by the WAL: a
                // restart never extends an advertised segment), so a
                // same-named destination file is the same bytes. If a
                // replica directory is reused across unrelated primaries
                // the follower quarantines the mismatch and the *next*
                // ship re-sends — one healing cycle, not a stall.
                continue;
            }
            let path = dir.join(&name);
            let bytes = match fs::read(&path) {
                Ok(bytes) => bytes,
                // Deleted by a racing compact: the next pass ships the
                // snapshot that superseded it.
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(()),
                Err(e) => return Err(io(e)),
            };
            // Sealed segments are immutable and only ever deleted, so a
            // mismatch here is genuine source bit-rot.
            verify_against_manifest(&path, &bytes, *meta)?;
            self.transport.install(&enc, &name, &bytes)?;
            report.segments_shipped += 1;
            report.bytes_shipped += bytes.len() as u64;
        }
        // Manifest last: every file it names is now at the destination.
        self.transport.install(&enc, MANIFEST_FILE, manifest.to_text().as_bytes())?;
        // Finally, drop destination segments the snapshot superseded.
        for name in &existing {
            if let Some(idx) = segment_index(name) {
                if idx < manifest.floor {
                    self.transport.remove(&enc, name)?;
                    report.superseded_removed += 1;
                }
            }
        }
        Ok(())
    }
}

/// Reject a source file whose bytes disagree with the manifest that
/// advertises it — ship nothing rather than replicate bit-rot.
fn verify_against_manifest(path: &Path, bytes: &[u8], meta: FileMeta) -> ServeResult<()> {
    let crc = crc32(bytes);
    if bytes.len() as u64 != meta.bytes || crc != meta.crc {
        return Err(ServeError::Corrupt {
            path: path.display().to_string(),
            line: 0,
            detail: format!(
                "file disagrees with its manifest entry: {} bytes crc {crc:08x}, manifest says \
                 {} bytes crc {:08x}",
                bytes.len(),
                meta.bytes,
                meta.crc
            ),
        });
    }
    Ok(())
}

/// What one [`FollowerEngine::catch_up`] pass applied.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CatchUpReport {
    /// Keys with a manifest at the replica, sorted.
    pub keys: Vec<String>,
    /// Keys rebuilt from a newly shipped snapshot.
    pub snapshots_applied: usize,
    /// Observation records applied.
    pub replayed: usize,
    /// Records skipped because the applied state already covered them.
    pub skipped: usize,
    /// Records counted but not absorbed because their context is
    /// non-finite (see [`RecoveryReport::quarantined_records`]).
    pub quarantined_records: usize,
    /// Files quarantined (renamed to `<name>.quarantined`, never applied):
    /// `(path, reason)`.
    pub quarantined: Vec<(String, String)>,
    /// Per-key applied-sequence watermark after this pass, sorted by key.
    pub watermarks: Vec<(String, usize)>,
}

/// Per-key progress of a follower.
#[derive(Debug, Clone, Copy, Default)]
struct AppliedKey {
    /// CRC of the snapshot this key's shard was last rebuilt from.
    snapshot_crc: Option<u32>,
    /// Highest segment index fully applied.
    applied_seg: u64,
    /// Rounds applied (the next expected absolute sequence number).
    watermark: usize,
}

/// A read-only standby serving replicated state. See the module docs for
/// the role; the essential invariant is that everything is applied through
/// the **same replay path crash recovery uses**, so a promoted follower is
/// indistinguishable from a primary that recovered from the same files.
pub struct FollowerEngine {
    engine: Engine,
    builder: EngineBuilder,
    options: WalOptions,
    applied: Mutex<HashMap<String, AppliedKey>>,
}

impl std::fmt::Debug for FollowerEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FollowerEngine").field("dir", &self.options.dir).finish_non_exhaustive()
    }
}

impl FollowerEngine {
    /// Open a follower over `options.dir` (the replication destination) and
    /// apply everything already shipped. The builder must match the
    /// primary's — policy name, config, seed — or shipped snapshots will
    /// refuse to restore.
    ///
    /// # Errors
    /// Shard-construction/config mismatches and filesystem failures;
    /// corrupt shipped files are quarantined and *reported*, not errors.
    pub fn open(builder: EngineBuilder, options: WalOptions) -> ServeResult<(Self, CatchUpReport)> {
        let engine = builder.clone().build()?;
        fs::create_dir_all(&options.dir).map_err(io_err("follower-open"))?;
        let follower =
            FollowerEngine { engine, builder, options, applied: Mutex::new(HashMap::new()) };
        let report = follower.catch_up()?;
        Ok((follower, report))
    }

    /// The replicated engine (read-only surface: histories, stats, keys).
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// The replica directory this follower applies from.
    pub fn dir(&self) -> &Path {
        &self.options.dir
    }

    /// The applied-sequence watermark of one key: how many rounds of the
    /// primary's stream this follower has applied (`None` for a key it has
    /// never seen). The primary's `rounds()` minus this is the follower's
    /// staleness in records.
    pub fn watermark(&self, key: &str) -> Option<usize> {
        self.engine.with_shard(key, |shard| shard.rounds())
    }

    /// All per-key watermarks, sorted by key.
    pub fn watermarks(&self) -> Vec<(String, usize)> {
        self.engine
            .keys()
            .into_iter()
            .filter_map(|key| {
                let w = self.watermark(&key)?;
                Some((key, w))
            })
            .collect()
    }

    /// Apply everything newly shipped to the replica directory. Cheap when
    /// nothing changed (manifest read per key); incremental otherwise —
    /// only segments above each key's applied index are replayed, and a
    /// changed snapshot rebuilds the key in O(m² + tail).
    ///
    /// # Errors
    /// Filesystem failures and config mismatches; corrupt shipped files
    /// are quarantined and reported in the returned
    /// [`CatchUpReport::quarantined`] instead of failing the pass.
    pub fn catch_up(&self) -> ServeResult<CatchUpReport> {
        let io = io_err("follower-catch-up");
        let mut applied = self.applied.lock().map_err(|_| {
            self.applied.clear_poison();
            ServeError::LockPoisoned { what: "follower applied map" }
        })?;
        let mut report = CatchUpReport::default();
        let mut key_dirs: Vec<(String, PathBuf)> = Vec::new();
        for entry in fs::read_dir(&self.options.dir).map_err(&io)? {
            let entry = entry.map_err(&io)?;
            if !entry.file_type().map_err(&io)?.is_dir() {
                continue;
            }
            if let Some(key) = entry.file_name().to_str().and_then(decode_key) {
                key_dirs.push((key, entry.path()));
            }
        }
        key_dirs.sort();
        for (key, dir) in key_dirs {
            if self.catch_up_key(&key, &dir, &mut applied, &mut report)? {
                report.keys.push(key);
            }
        }
        report.watermarks = applied
            .iter() // lint: allow(determinism) -- sorted immediately below
            .map(|(key, state)| (key.clone(), state.watermark))
            .collect();
        report.watermarks.sort();
        Ok(report)
    }

    /// Apply one key directory; `true` when a manifest was present (only
    /// then does the key get a tracked watermark entry).
    fn catch_up_key(
        &self,
        key: &str,
        dir: &Path,
        applied: &mut HashMap<String, AppliedKey>,
        report: &mut CatchUpReport,
    ) -> ServeResult<bool> {
        let io = io_err("follower-catch-up");
        let manifest = match read_manifest(dir) {
            Ok(Some(manifest)) => manifest,
            Ok(None) => return Ok(false), // nothing advertised yet
            Err(e @ ServeError::Manifest { .. }) => {
                // A torn/garbled manifest is quarantined like any other
                // damaged file; the next ship re-installs it. (A transient
                // read failure, by contrast, propagates — renaming a
                // healthy manifest away over an EIO would stall the key.)
                quarantine(&dir.join(MANIFEST_FILE), e.to_string(), report)?;
                return Ok(false);
            }
            Err(e) => return Err(e),
        };
        let state = applied.entry(key.to_string()).or_default();
        // A changed snapshot rebuilds the key from scratch: restore the
        // exact state, then replay the (all post-snapshot) listed segments.
        if let Some(meta) = manifest.snapshot {
            if state.snapshot_crc != Some(meta.crc) {
                let path = dir.join(SNAPSHOT_FILE);
                let bytes = match fs::read(&path) {
                    Ok(bytes) => bytes,
                    // Listed but not present: an interrupted ship; the next
                    // one completes it. Apply nothing this pass.
                    Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(true),
                    Err(e) => return Err(io(e)),
                };
                if let Err(err) = verify_against_manifest(&path, &bytes, meta) {
                    quarantine(&path, err.to_string(), report)?;
                    return Ok(true);
                }
                let checkpoint = match persist::load_checkpoint(bytes.as_slice()) {
                    Ok(checkpoint) => checkpoint,
                    Err(e) => {
                        // Checksum-valid but unparseable: the primary wrote
                        // (and checksummed) garbage. Quarantine rather than
                        // loop on it forever.
                        quarantine(&path, e.to_string(), report)?;
                        return Ok(true);
                    }
                };
                self.engine.restore_shard_checkpoint(key, &checkpoint)?;
                state.snapshot_crc = Some(meta.crc);
                state.applied_seg = 0;
                report.snapshots_applied += 1;
            }
        }
        let mut stats = ReplayStats::default();
        for (&idx, meta) in manifest.segments.range(state.applied_seg + 1..) {
            let name = segment_name(idx);
            let path = dir.join(&name);
            let bytes = match fs::read(&path) {
                Ok(bytes) => bytes,
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => break, // not shipped yet
                Err(e) => return Err(io(e)),
            };
            if let Err(err) = verify_against_manifest(&path, &bytes, *meta) {
                quarantine(&path, err.to_string(), report)?;
                // Replay order is part of correctness: nothing after a
                // damaged segment is applied until a re-ship heals it.
                break;
            }
            match replay_segment(&self.engine, key, &path, idx, false, &mut stats) {
                Ok(()) => state.applied_seg = idx,
                Err(ServeError::Corrupt { detail, .. }) => {
                    // Whole-file CRC passed but a line failed: the primary
                    // checksummed damaged data. Same quarantine discipline.
                    quarantine(&path, detail, report)?;
                    break;
                }
                Err(e) => return Err(e),
            }
        }
        report.replayed += stats.replayed;
        report.skipped += stats.skipped;
        report.quarantined_records += stats.quarantined_records;
        state.watermark = self.engine.with_shard(key, |shard| shard.rounds()).unwrap_or(0);
        Ok(true)
    }

    /// Current per-arm runtime predictions for a key (`None` for a key this
    /// follower has no state for). Read-only: no RNG is consumed.
    ///
    /// # Errors
    /// Feature-arity validation.
    pub fn predict(&self, key: &str, features: &[f64]) -> ServeResult<Option<Vec<f64>>> {
        self.engine
            .with_shard(key, |shard| shard.policy().predict_all(features))
            .transpose()
            .map_err(Into::into)
    }

    /// Exploit-only recommendation from the replicated state (`None` for an
    /// unknown key): the policy's **own exploitation rule**
    /// ([`banditware_core::Policy::exploit`]) — LinUCB's LCB argmin, the
    /// budgeted objective, Boltzmann's distribution mode, tolerant
    /// selection for the ε-greedy family — with **no** exploration draw,
    /// no RNG consumption, and no ticket opened, so serving reads never
    /// perturb the state replication delivered. A follower therefore
    /// answers arm-for-arm what a just-promoted primary's exploit path
    /// would (pinned across every builder policy in the tests below).
    ///
    /// # Errors
    /// Feature-arity validation.
    pub fn recommend(&self, key: &str, features: &[f64]) -> ServeResult<Option<Recommendation>> {
        self.engine
            .with_shard(key, |shard| -> banditware_core::Result<Recommendation> {
                let costs: Vec<f64> = shard.specs().iter().map(|s| s.resource_cost).collect();
                let arm = shard.policy().exploit(features, &costs)?;
                let spec = &shard.specs()[arm];
                Ok(Recommendation {
                    arm,
                    name: spec.name.clone(),
                    resource_cost: spec.resource_cost,
                    predicted_runtime: shard.policy().predict(arm, features).unwrap_or(f64::NAN),
                    explored: false,
                })
            })
            .transpose()
            .map_err(Into::into)
    }

    /// Fail over: consume the follower and reopen the replica directory as
    /// a full [`DurableEngine`], through the standard recovery path — the
    /// promoted engine trusts exactly what is on its own disk, applies it
    /// the same way a crashed primary would, and then serves (and logs)
    /// like any primary. Returns the recovery report alongside the engine;
    /// its [`RecoveryReport::watermarks`] are the promoted per-key
    /// positions.
    ///
    /// Before reopening, every manifest-listed file is verified to exist
    /// and match its checksum: promoting over a quarantined (or
    /// half-shipped) replica would silently serve with a **hole** in the
    /// replayed stream — recovery globs whatever segments exist and cannot
    /// see a renamed one missing from the middle. Re-replicate, catch up,
    /// and promote again.
    ///
    /// # Errors
    /// [`ServeError::Manifest`] when a listed file is missing (quarantined
    /// or an interrupted ship); [`ServeError::Corrupt`] when one fails its
    /// checksum; otherwise see [`DurableEngine::open`].
    pub fn promote(self) -> ServeResult<(DurableEngine, RecoveryReport)> {
        verify_replica_integrity(&self.options.dir)?;
        DurableEngine::open(self.builder, self.options)
    }
}

/// Every file every key's manifest lists must be present and checksum-clean
/// before a replica may be promoted (see [`FollowerEngine::promote`]).
fn verify_replica_integrity(root: &Path) -> ServeResult<()> {
    let io = io_err("promote-verify");
    for entry in fs::read_dir(root).map_err(&io)? {
        let entry = entry.map_err(&io)?;
        if !entry.file_type().map_err(&io)?.is_dir() {
            continue;
        }
        let dir = entry.path();
        if entry.file_name().to_str().and_then(decode_key).is_none() {
            continue;
        }
        let Some(manifest) = read_manifest(&dir)? else { continue };
        let mut listed: Vec<(PathBuf, FileMeta)> = Vec::new();
        if let Some(meta) = manifest.snapshot {
            listed.push((dir.join(SNAPSHOT_FILE), meta));
        }
        for (idx, meta) in &manifest.segments {
            listed.push((dir.join(segment_name(*idx)), *meta));
        }
        for (path, meta) in listed {
            let bytes = match fs::read(&path) {
                Ok(bytes) => bytes,
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                    return Err(ServeError::Manifest {
                        path: path.display().to_string(),
                        detail: "manifest-listed file is missing (quarantined or an \
                                 interrupted ship) — re-replicate before promoting"
                            .into(),
                    });
                }
                Err(e) => return Err(io(e)),
            };
            verify_against_manifest(&path, &bytes, meta)?;
        }
    }
    Ok(())
}

/// Move a damaged file out of the apply path, never deleting data.
fn quarantine(path: &Path, reason: String, report: &mut CatchUpReport) -> ServeResult<()> {
    let target = PathBuf::from(format!("{}.quarantined", path.display()));
    fs::rename(path, &target).map_err(io_err("quarantine"))?;
    report.quarantined.push((target.display().to_string(), reason));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use banditware_core::{ArmSpec, BanditConfig};

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("bw_replicate_unit")
            .join(format!("{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn builder() -> EngineBuilder {
        Engine::builder(ArmSpec::unit_costs(3), 1)
            .policy("linucb")
            .config(BanditConfig::paper().with_seed(7))
    }

    #[test]
    fn fs_transport_installs_atomically_and_lists() {
        let root = tmp_dir("transport");
        let t = FsTransport::new(&root);
        assert_eq!(t.existing("kw").unwrap(), Vec::<String>::new(), "missing dir is empty");
        t.install("kw", "wal-1.log", b"hello").unwrap();
        t.install("kw", "wal-1.log", b"replaced").unwrap();
        assert_eq!(fs::read(root.join("kw/wal-1.log")).unwrap(), b"replaced");
        let names = t.existing("kw").unwrap();
        assert_eq!(names, vec!["wal-1.log".to_string()]);
        t.remove("kw", "wal-1.log").unwrap();
        t.remove("kw", "wal-1.log").unwrap(); // idempotent
        assert!(t.existing("kw").unwrap().is_empty());
        assert_eq!(t.root(), root.as_path());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn ship_then_catch_up_then_promote_round_trip() {
        let primary_dir = tmp_dir("primary");
        let replica_dir = tmp_dir("replica");
        let (primary, _) = DurableEngine::open(builder(), WalOptions::new(&primary_dir)).unwrap();
        for i in 0..30 {
            let (t, rec) = primary.recommend("wf", &[(i % 7) as f64 + 1.0]).unwrap();
            primary.record("wf", t, 10.0 + rec.arm as f64).unwrap();
        }
        let replicator = Replicator::new(FsTransport::new(&replica_dir));
        let report = replicator.ship_all(&primary, true).unwrap();
        assert_eq!(report.keys, vec!["wf".to_string()]);
        assert_eq!(report.segments_shipped, 1, "sealed active segment shipped");

        let (follower, catch_up) =
            FollowerEngine::open(builder(), WalOptions::new(&replica_dir)).unwrap();
        assert_eq!(catch_up.replayed, 30);
        assert!(catch_up.quarantined.is_empty());
        assert_eq!(follower.watermark("wf"), Some(30));
        assert_eq!(catch_up.watermarks, vec![("wf".to_string(), 30)]);
        let rec = follower.recommend("wf", &[3.0]).unwrap().expect("replicated key");
        assert!(!rec.explored, "follower never explores");
        assert!(follower.recommend("ghost", &[3.0]).unwrap().is_none());
        assert_eq!(follower.predict("wf", &[3.0]).unwrap().unwrap().len(), 3);

        // An idempotent second pass applies nothing new.
        let again = replicator.ship_all(&primary, false).unwrap();
        assert_eq!(again.segments_shipped, 0);
        assert_eq!(again.snapshots_shipped, 0);
        let catch_up = follower.catch_up().unwrap();
        assert_eq!(catch_up.replayed, 0);

        // Promotion serves and logs like any primary.
        drop(primary);
        let (promoted, recovery) = follower.promote().unwrap();
        assert_eq!(recovery.watermarks, vec![("wf".to_string(), 30)]);
        let (t, rec) = promoted.recommend("wf", &[2.0]).unwrap();
        promoted.record("wf", t, 10.0 + rec.arm as f64).unwrap();
        assert_eq!(promoted.engine().with_shard("wf", |s| s.rounds()).unwrap(), 31);
        let _ = fs::remove_dir_all(&primary_dir);
        let _ = fs::remove_dir_all(&replica_dir);
    }

    /// One probe's serving outcomes across the three rules under test.
    struct ProbeArms {
        /// What the follower served.
        follower: usize,
        /// What the promoted engine's `Policy::exploit` picks.
        exploit: usize,
        /// What the old (buggy) tolerant-selection-over-means rule picks.
        old_rule: usize,
    }

    /// Ship a trained primary, serve each probe through the follower, then
    /// promote and report — per probe — the follower's arm, the promoted
    /// exploit arm, and the arm the pre-fix tolerant-over-means rule would
    /// have served.
    fn follower_vs_promoted(
        name: &str,
        builder: impl Fn() -> EngineBuilder,
        rounds: usize,
        runtime_for: impl Fn(usize, usize) -> f64,
        probes: &[Vec<f64>],
    ) -> Vec<ProbeArms> {
        let primary_dir = tmp_dir(&format!("agree-primary-{name}"));
        let replica_dir = tmp_dir(&format!("agree-replica-{name}"));
        let (primary, _) = DurableEngine::open(builder(), WalOptions::new(&primary_dir)).unwrap();
        for i in 0..rounds {
            let x = [(i % 7) as f64 + 1.0];
            let (t, rec) = primary.recommend("wf", &x).unwrap();
            primary.record("wf", t, runtime_for(i, rec.arm)).unwrap();
        }
        let replicator = Replicator::new(FsTransport::new(&replica_dir));
        replicator.ship_all(&primary, true).unwrap();
        let (follower, _) = FollowerEngine::open(builder(), WalOptions::new(&replica_dir)).unwrap();
        let follower_arms: Vec<usize> = probes
            .iter()
            .map(|x| follower.recommend("wf", x).unwrap().expect("replicated key").arm)
            .collect();
        drop(primary);
        let (promoted, _) = follower.promote().unwrap();
        let tolerance = promoted.engine().config().tolerance;
        let out = probes
            .iter()
            .zip(follower_arms)
            .map(|(x, follower_arm)| {
                promoted
                    .engine()
                    .with_shard("wf", |s| {
                        let costs: Vec<f64> = s.specs().iter().map(|sp| sp.resource_cost).collect();
                        let preds = s.policy().predict_all(x).unwrap();
                        ProbeArms {
                            follower: follower_arm,
                            exploit: s.policy().exploit(x, &costs).unwrap(),
                            old_rule: banditware_core::tolerance::tolerant_select(
                                &preds, &costs, tolerance,
                            )
                            .unwrap(),
                        }
                    })
                    .expect("promoted key")
            })
            .collect();
        let _ = fs::remove_dir_all(&primary_dir);
        let _ = fs::remove_dir_all(&replica_dir);
        out
    }

    /// The PR-6 exploit-rule pin: a follower answers arm-for-arm what a
    /// just-promoted primary's `Policy::exploit` path would, for **every**
    /// builder policy (the replica and the promoted engine rebuild the same
    /// state from the same shipped files, so any disagreement is a serving
    /// rule divergence, exactly the old tolerant-over-means bug).
    #[test]
    fn follower_agrees_with_promoted_exploit_for_all_policies() {
        for name in crate::builder::policy_names() {
            let builder = || {
                Engine::builder(ArmSpec::unit_costs(3), 1)
                    .policy(*name)
                    .config(BanditConfig::paper().with_seed(11))
            };
            let probes = vec![vec![1.5], vec![4.0], vec![6.5]];
            for (i, arms) in follower_vs_promoted(
                name,
                builder,
                40,
                |i, arm| 10.0 + arm as f64 * 3.0 + (i % 3) as f64,
                &probes,
            )
            .into_iter()
            .enumerate()
            {
                assert_eq!(
                    arms.follower, arms.exploit,
                    "policy {name:?}: follower arm {} != promoted exploit arm {} for probe {i}",
                    arms.follower, arms.exploit
                );
            }
        }
    }

    /// Regression (previously failing): LinUCB's exploitation rule is the
    /// LCB argmin, not tolerant selection over means. Train one arm heavily
    /// and leave a near-as-good arm with few pulls: its wide confidence
    /// interval drags its LCB below the favorite's, so the two rules pick
    /// different arms — and the follower must serve the LCB one.
    #[test]
    fn follower_serves_linucb_lcb_argmin_not_tolerant_means() {
        let builder = || {
            Engine::builder(ArmSpec::unit_costs(3), 1)
                .policy("linucb")
                .config(BanditConfig::paper().with_seed(3))
        };
        // Runtime by arm: arm 0 fastest (pulled most once LCBs settle),
        // arm 1 slightly slower (few pulls), arm 2 far slower (one pull —
        // the widest CI). Probing *below* the training range (contexts are
        // 1..=7) puts the ridge-shrunk, wide-interval arms in play: at
        // x=0.72 the LCB argmin and the mean argmin provably differ
        // (deterministic — LinUCB consumes no RNG).
        let probes = vec![vec![0.72]];
        let arms = follower_vs_promoted(
            "linucb-lcb",
            builder,
            60,
            |_, arm| [10.0, 11.0, 30.0][arm],
            &probes,
        )
        .remove(0);
        assert_eq!(arms.follower, arms.exploit, "follower must serve the LCB argmin");
        // The engineered state actually discriminates: the pre-fix rule
        // picks a different arm for this probe, so this test fails against
        // the old follower serving path.
        assert_ne!(
            arms.exploit, arms.old_rule,
            "probe must separate the LCB argmin from tolerant-over-means"
        );
    }

    /// Regression (previously failing): the budgeted policy exploits by
    /// scalarized objective (runtime-only in the builder wiring), while the
    /// old follower rule applied the engine's *tolerance* to raw resource
    /// costs — with a 5-second tolerance and a cheap arm within 5s of the
    /// fastest, the two rules provably diverge.
    #[test]
    fn follower_serves_budgeted_objective_not_tolerant_means() {
        let specs =
            vec![ArmSpec::new(0, "fast-expensive", 10.0), ArmSpec::new(1, "slow-cheap", 1.0)];
        let config = BanditConfig::paper()
            .with_seed(5)
            .with_tolerance(banditware_core::Tolerance::seconds(5.0).unwrap());
        let builder = {
            let specs = specs.clone();
            move || {
                Engine::builder(specs.clone(), 1).policy("budgeted-epsilon-greedy").config(config)
            }
        };
        // Arm 0 runs in ~10s, arm 1 in ~13s: within the 5s tolerance, so
        // the old rule would serve the cheap arm 1; the budgeted
        // runtime-only objective exploits arm 0.
        let probes = vec![vec![3.0]];
        let arms = follower_vs_promoted(
            "budgeted-objective",
            builder,
            60,
            |_, arm| [10.0, 13.0][arm],
            &probes,
        )
        .remove(0);
        assert_eq!(arms.follower, arms.exploit, "follower must serve the budgeted objective");
        assert_eq!(arms.exploit, 0, "runtime-only objective exploits the fastest arm");
        assert_eq!(
            arms.old_rule, 1,
            "the 5s tolerance makes the pre-fix rule serve the cheap arm — \
             this test fails against the old follower serving path"
        );
    }
}
