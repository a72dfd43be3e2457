//! The session front-end: many named, durable machine instances served
//! concurrently.
//!
//! A [`SessionStore`] owns a directory; each session gets a
//! subdirectory holding its journal segments and snapshots. Sessions
//! are `Sync` — worker threads share a session handle, while different
//! sessions proceed in parallel. Within a session a commit lock gives
//! writes a total order, and a query waits only for the machine lock,
//! never for a journal fsync (see [`Session`] for the lock order and
//! the read semantics).
//!
//! Durability contract: [`Session::apply`] returns only after the
//! request is (a) applied to the in-memory machine and (b) appended to
//! the journal batch; the batch becomes durable at group-commit
//! boundaries (every `group_commit` frames) and on [`Session::sync`].
//! Recovery reproduces exactly the durable prefix: snapshot + journal-
//! tail replay equals the uninterrupted machine at the last committed
//! frame, byte for byte — the Dyn-FO answer to "start over and muddle
//! through": never recompute a history, only replay a bounded tail.

use crate::error::ServeError;
use crate::journal::{
    parse_segment_name, read_segment, segment_path, JournalWriter, JOURNAL_VERSION,
    MIN_JOURNAL_VERSION,
};
use crate::codec::{crc32, Reader, Writer};
use crate::obs::SessionObs;
use crate::snapshot::{
    encode_snapshot, parse_snapshot_name, persist_snapshot, read_snapshot, snapshot_path,
};
use dynfo_core::{DynFoMachine, DynFoProgram, Request};
use dynfo_logic::{Elem, Structure};
use dynfo_obs::ObsHandle;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, RwLock};

/// Store-wide durability policy.
#[derive(Clone, Copy, Debug)]
pub struct StoreConfig {
    /// Take a snapshot (and rotate the journal segment) every this many
    /// requests; 0 disables automatic snapshots.
    pub snapshot_every: u64,
    /// Group commit: fsync the journal after this many frames. 1 means
    /// every request is durable before `apply` returns.
    pub group_commit: usize,
    /// "Start over and muddle through" cadence: run the program's full
    /// recompute pass ([`DynFoMachine::recompute`]) after every this
    /// many requests; 0 disables it. The cadence is keyed on the
    /// absolute journal sequence number, so snapshot + tail replay
    /// reproduce the recompute points — and therefore the machine state
    /// — byte for byte. Programs without a recompute pass treat each
    /// firing as a no-op. With a nonzero cadence [`Session::apply_batch`]
    /// steps the machine frame by frame (the journal records no batch
    /// boundaries, so recovery could not otherwise replay a mid-batch
    /// recompute at the same point), trading batch-level validation
    /// atomicity for replayability.
    pub recompute_every: u64,
}

impl Default for StoreConfig {
    fn default() -> StoreConfig {
        StoreConfig {
            recompute_every: 0,
            snapshot_every: 256,
            group_commit: 1,
        }
    }
}

/// What recovery found and did for one session.
#[derive(Clone, Debug, Default)]
pub struct RecoveryReport {
    /// Sequence number of the snapshot recovery started from (0 = none,
    /// started from the empty initial structure).
    pub snapshot_seq: u64,
    /// Journal frames replayed on top of the snapshot.
    pub replayed: u64,
    /// Everything suspicious seen on the way: torn frames, corrupt or
    /// unreadable snapshots that were skipped. Empty on a clean start.
    pub anomalies: Vec<String>,
    /// Which rung of the degradation ladder recovery landed on — also
    /// published as the `serve.recovery.rung` gauge:
    ///
    /// * `0` — fresh session, nothing to recover;
    /// * `1` — restored from the newest snapshot on disk;
    /// * `2` — newest snapshot was unusable, fell back to an older one;
    /// * `3` — no usable snapshot at all, replayed the whole journal
    ///   from the empty initial structure ("muddle through").
    pub rung: u8,
}

/// Magic bytes of the per-session `meta` file.
const META_MAGIC: &[u8; 4] = b"DYNM";
/// Meta layout version. v1 carried `program_name, n`; v2 appends the
/// journal codec version the session's segments are written with, so a
/// binary that only speaks an older codec refuses the session up front
/// with a typed error instead of tripping over an unknown frame tag
/// mid-replay.
const META_VERSION: u16 = 2;
/// Oldest meta layout this binary reads (v1 implies journal codec 1).
const MIN_META_VERSION: u16 = 1;

/// Write the immutable session metadata (program name, universe size,
/// journal codec version) once, atomically, at session creation.
fn write_meta(dir: &Path, program_name: &str, n: Elem) -> Result<(), ServeError> {
    let mut w = Writer::new();
    w.put_bytes(META_MAGIC);
    w.put_u16(META_VERSION);
    w.put_str(program_name);
    w.put_u32(n);
    w.put_u16(JOURNAL_VERSION);
    let crc = crc32(w.as_bytes());
    w.put_u32(crc);
    let tmp = dir.join(".tmp-meta");
    let path = dir.join("meta");
    std::fs::write(&tmp, w.as_bytes()).map_err(|e| ServeError::io(&tmp, e))?;
    std::fs::rename(&tmp, &path).map_err(|e| ServeError::io(&path, e))?;
    Ok(())
}

/// Read back the session metadata: `(program_name, n)`. Validates the
/// recorded journal codec version against what this binary reads,
/// returning [`ServeError::UnsupportedCodec`] on mismatch.
fn read_meta(dir: &Path) -> Result<(String, Elem), ServeError> {
    let path = dir.join("meta");
    let bytes = std::fs::read(&path).map_err(|e| ServeError::io(&path, e))?;
    if bytes.len() < 4 + 2 + 4 {
        return Err(ServeError::Corrupt("meta file too short".to_string()));
    }
    let (body, trailer) = bytes.split_at(bytes.len() - 4);
    let stored_crc = u32::from_le_bytes(trailer.try_into().unwrap());
    if crc32(body) != stored_crc {
        return Err(ServeError::Corrupt("meta file CRC mismatch".to_string()));
    }
    let mut r = Reader::new(body);
    let magic = r.get_bytes(4, "meta magic").map_err(ServeError::Decode)?;
    if magic != META_MAGIC {
        return Err(ServeError::Corrupt("meta file has bad magic".to_string()));
    }
    let version = r.get_u16("meta version").map_err(ServeError::Decode)?;
    if !(MIN_META_VERSION..=META_VERSION).contains(&version) {
        return Err(ServeError::Corrupt(format!(
            "unsupported meta version {version}"
        )));
    }
    let name = r
        .get_str("program name")
        .map_err(ServeError::Decode)?
        .to_string();
    let n = r.get_u32("universe size").map_err(ServeError::Decode)?;
    let codec = if version >= 2 {
        r.get_u16("journal codec version")
            .map_err(ServeError::Decode)?
    } else {
        1 // v1 metas predate bulk frames: codec 1 by construction
    };
    if !(MIN_JOURNAL_VERSION..=JOURNAL_VERSION).contains(&codec) {
        return Err(ServeError::UnsupportedCodec {
            found: codec,
            min: MIN_JOURNAL_VERSION,
            max: JOURNAL_VERSION,
        });
    }
    Ok((name, n))
}

/// Number of independent locks the session map is split across.
/// Lookups and opens on different shards never contend, so a worker
/// pool serving many sessions is not serialized on one map lock.
const STORE_SHARDS: usize = 16;

/// A collection of named durable sessions rooted at one directory.
///
/// The name → session map is sharded across [`STORE_SHARDS`]
/// independent `RwLock`s keyed by a hash of the session name; all
/// operations on one session touch exactly one shard.
pub struct SessionStore {
    root: PathBuf,
    config: StoreConfig,
    obs: ObsHandle,
    shards: Vec<RwLock<BTreeMap<String, Arc<Session>>>>,
}

/// Which shard a session name lives in (stable for the store's life).
fn shard_index(name: &str) -> usize {
    use std::hash::{Hash, Hasher};
    let mut h = dynfo_logic::fxhash::FxHasher::default();
    name.hash(&mut h);
    (h.finish() as usize) % STORE_SHARDS
}

impl SessionStore {
    /// Open (creating if needed) a store rooted at `root`, recording
    /// metrics to the process-global registry.
    pub fn open(root: impl Into<PathBuf>, config: StoreConfig) -> Result<SessionStore, ServeError> {
        SessionStore::open_with_obs(root, config, ObsHandle::default())
    }

    /// Like [`SessionStore::open`], but route the store's session-scoped
    /// metrics (snapshot duration, recovery rung, per-session request
    /// counters) through `obs` — a private registry in tests, or
    /// [`ObsHandle::disabled`] to record nothing.
    pub fn open_with_obs(
        root: impl Into<PathBuf>,
        config: StoreConfig,
        obs: ObsHandle,
    ) -> Result<SessionStore, ServeError> {
        let root = root.into();
        std::fs::create_dir_all(&root).map_err(|e| ServeError::io(&root, e))?;
        Ok(SessionStore {
            root,
            config,
            obs,
            shards: (0..STORE_SHARDS)
                .map(|_| RwLock::new(BTreeMap::new()))
                .collect(),
        })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Get the open session `name`, or open it — recovering from disk
    /// if its directory exists, creating it fresh otherwise.
    ///
    /// `program` and `n` describe the machine to run; reopening an
    /// existing session with a different program name or universe size
    /// is an error.
    pub fn session(
        &self,
        name: &str,
        program: &DynFoProgram,
        n: Elem,
    ) -> Result<Arc<Session>, ServeError> {
        if name.is_empty()
            || !name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_')
        {
            return Err(ServeError::Corrupt(format!(
                "session name {name:?} must be non-empty [A-Za-z0-9_-]"
            )));
        }
        let shard = &self.shards[shard_index(name)];
        if let Some(s) = shard.read().unwrap().get(name) {
            if s.program_name() != program.name() {
                return Err(ServeError::Corrupt(format!(
                    "session {name} is open with program {}, requested {}",
                    s.program_name(),
                    program.name()
                )));
            }
            return Ok(Arc::clone(s));
        }
        let mut map = shard.write().unwrap();
        // Double-checked: another thread may have opened it meanwhile.
        if let Some(s) = map.get(name) {
            return Ok(Arc::clone(s));
        }
        let session = Arc::new(Session::open(
            self.root.join(name),
            name,
            program,
            n,
            self.config,
            &self.obs,
        )?);
        map.insert(name.to_string(), Arc::clone(&session));
        Ok(session)
    }

    /// The open session `name`, if any.
    pub fn get(&self, name: &str) -> Option<Arc<Session>> {
        self.shards[shard_index(name)]
            .read()
            .unwrap()
            .get(name)
            .cloned()
    }

    /// Names of all open sessions, sorted.
    pub fn session_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .shards
            .iter()
            .flat_map(|s| s.read().unwrap().keys().cloned().collect::<Vec<_>>())
            .collect();
        names.sort_unstable();
        names
    }

    /// Graceful shutdown: commit every session's journal batch.
    pub fn shutdown(self) -> Result<(), ServeError> {
        for shard in &self.shards {
            for s in shard.read().unwrap().values() {
                s.sync()?;
            }
        }
        Ok(())
    }

    /// Simulated `kill -9`: drop every session *without* committing
    /// buffered frames or writing anything. All volatile state is lost;
    /// only what was group-committed survives on disk.
    pub fn crash(self) {
        // JournalWriter deliberately does not flush on Drop, so simply
        // dropping the map is the crash.
        drop(self);
    }
}

/// One named durable machine instance.
///
/// Two locks, always taken in the order commit → machine (no path takes
/// them the other way round):
///
/// * `commit` guards the durable side — the sequence number, the
///   journal writer, the rotated-fsync count and the kill hook. A write
///   holds it from sequence assignment through journal append, fsync,
///   snapshot and rotation, so the journal records exactly the applied
///   requests in order.
/// * `machine` guards the in-memory machine. It is held only while the
///   machine applies, recomputes, answers or is encoded — never across
///   a journal append, an fsync or a snapshot write.
///
/// Queries take the machine lock alone, so a reader waits for at most
/// one in-memory apply, not for the writer's `sync_data`. A query sees
/// every request whose `apply` has returned, and may also see one whose
/// fsync is still in flight — the same contract `group_commit > 1`
/// already gives. Durability is unchanged: [`Session::durable_seq`]
/// is the crash-safe watermark.
pub struct Session {
    name: String,
    program_name: String,
    dir: PathBuf,
    config: StoreConfig,
    recovery: RecoveryReport,
    obs: SessionObs,
    commit: Mutex<Commit>,
    machine: Mutex<DynFoMachine>,
}

/// The durable side of a session, guarded by its commit lock.
struct Commit {
    /// Requests applied over the session's lifetime (== the sequence
    /// number of the latest frame).
    seq: u64,
    journal: JournalWriter,
    /// Fsyncs issued by journal segments already rotated away; the live
    /// segment's count is added on read (see [`Session::fsyncs`]).
    rotated_fsyncs: u64,
    /// Fault hook: journal/snapshot writes stop after this sequence
    /// number — the "process" died right after durably logging frame k.
    killed_after: Option<u64>,
}

impl Session {
    fn open(
        dir: PathBuf,
        name: &str,
        program: &DynFoProgram,
        n: Elem,
        config: StoreConfig,
        handle: &ObsHandle,
    ) -> Result<Session, ServeError> {
        // Before the directory or any structure exists: a universe past
        // the budget is a typed error, not an allocation.
        program.check_size(n)?;
        let obs = SessionObs::new(handle, name);
        let fresh = !dir.exists();
        if fresh {
            std::fs::create_dir_all(&dir).map_err(|e| ServeError::io(&dir, e))?;
        }
        let (machine, seq, journal, recovery) = if fresh {
            write_meta(&dir, program.name(), n)?;
            let journal = JournalWriter::create_with_obs(
                &segment_path(&dir, 0),
                config.group_commit,
                obs.journal.clone(),
            )?;
            (
                DynFoMachine::new(program.clone(), n).with_obs(handle),
                0,
                journal,
                RecoveryReport::default(),
            )
        } else {
            let (stored_name, stored_n) = read_meta(&dir)?;
            if stored_name != program.name() || stored_n != n {
                return Err(ServeError::Corrupt(format!(
                    "session {name} was created for program {stored_name} with n={stored_n}, \
                     reopened for {} with n={n}",
                    program.name()
                )));
            }
            recover(&dir, program, n, config, handle, obs.journal.clone())?
        };
        obs.recovery_rung.set(recovery.rung as i64);
        obs.recovery_replayed.add(recovery.replayed);
        Ok(Session {
            name: name.to_string(),
            program_name: program.name().to_string(),
            dir,
            config,
            recovery,
            obs,
            commit: Mutex::new(Commit {
                seq,
                journal,
                rotated_fsyncs: 0,
                killed_after: None,
            }),
            machine: Mutex::new(machine),
        })
    }

    /// The session's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The session's on-disk directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The program this session runs (by name).
    pub fn program_name(&self) -> &str {
        &self.program_name
    }

    /// What recovery found when this session was (re)opened.
    pub fn recovery_report(&self) -> &RecoveryReport {
        &self.recovery
    }

    /// Requests applied so far (the journal sequence number).
    pub fn seq(&self) -> u64 {
        self.commit.lock().unwrap().seq
    }

    /// Highest sequence number whose journal frame is fsynced — the
    /// crash-durable watermark. Always ≤ [`Session::seq`]; the gap is
    /// the group-commit buffer plus any commit whose `sync_data` has
    /// not returned yet. Log shipping caps `FetchLog` replies here so a
    /// follower never replays an entry a primary power-loss could
    /// still roll back.
    pub fn durable_seq(&self) -> u64 {
        self.commit.lock().unwrap().journal.durable_seq()
    }

    /// Apply one request: machine update + journal append, atomically
    /// ordered within this session. Returns the sequence number the
    /// request was assigned. A malformed request is rejected before any
    /// state or disk change.
    ///
    /// The machine lock is released before the journal append, so
    /// queries proceed while this call waits on its fsync.
    pub fn apply(&self, req: &Request) -> Result<u64, ServeError> {
        let mut commit = self.commit.lock().unwrap();
        let seq = commit.seq + 1;
        {
            let mut machine = self.machine.lock().unwrap();
            machine.apply(req)?;
            self.obs.requests.inc();
            commit.seq = seq;
            // Recompute before any snapshot so a checkpoint at this seq
            // captures the post-recompute state — exactly what replay
            // produces when it reaches the same sequence number.
            if self.config.recompute_every > 0 && seq.is_multiple_of(self.config.recompute_every) {
                machine.recompute()?;
            }
        }
        if !commit.is_killed(seq) {
            commit.journal.append(seq, req)?;
            if self.config.snapshot_every > 0 && seq.is_multiple_of(self.config.snapshot_every) {
                self.checkpoint_locked(&mut commit)?;
            }
        }
        Ok(seq)
    }

    /// Apply a batch of requests under one lock acquisition and one
    /// journal group commit. Returns the sequence number of the batch's
    /// last frame (the current one for an empty batch).
    ///
    /// The machine validates the whole batch up front
    /// ([`DynFoMachine::apply_batch`]): a malformed frame rejects the
    /// batch with nothing applied and nothing journaled. Applied frames
    /// are appended without intermediate fsyncs and committed together
    /// at the end, so a batch of K requests costs one write + fsync
    /// instead of up to K — this changes the durability granularity
    /// from `group_commit` frames to the batch: a crash before the
    /// batch's commit loses the whole batch (never a prefix of it
    /// interleaved with later writes), and recovery lands exactly on
    /// the last durable frame.
    ///
    /// An evaluation failure mid-batch journals and keeps the applied
    /// prefix — identical to issuing the requests one at a time — and
    /// surfaces the machine's error as [`ServeError::Batch`], whose
    /// `seq` is the prefix's last frame.
    ///
    /// With [`StoreConfig::recompute_every`] nonzero the machine is
    /// stepped frame by frame instead (recompute points must land on
    /// exact sequence numbers for replay to reproduce them), so a
    /// malformed frame keeps the applied prefix rather than rejecting
    /// the whole batch; journaling and group commit are unchanged.
    pub fn apply_batch(&self, reqs: &[Request]) -> Result<u64, ServeError> {
        let mut commit = self.commit.lock().unwrap();
        let start = commit.seq;
        if reqs.is_empty() {
            return Ok(start);
        }
        let (applied, failure) = {
            let mut machine = self.machine.lock().unwrap();
            if self.config.recompute_every > 0 {
                apply_frames(&mut machine, reqs, start, self.config.recompute_every)
            } else {
                match machine.apply_batch(reqs) {
                    Ok(_) => (reqs.len(), None),
                    Err(be) => (be.applied, Some((be.index, be.error))),
                }
            }
        };
        self.obs.requests.add(applied as u64);
        for (k, req) in reqs[..applied].iter().enumerate() {
            let seq = start + 1 + k as u64;
            if !commit.is_killed(seq) {
                commit.journal.append_deferred(seq, req)?;
            }
        }
        commit.seq = start + applied as u64;
        let seq = commit.seq;
        if applied > 0 && !commit.is_killed(seq) {
            commit.journal.commit()?;
            // Snapshot if the batch crossed a boundary (the snapshot
            // lands at the batch end, not the exact multiple; recovery
            // handles arbitrary snapshot positions).
            if self.config.snapshot_every > 0
                && seq / self.config.snapshot_every > start / self.config.snapshot_every
            {
                self.checkpoint_locked(&mut commit)?;
            }
        }
        match failure {
            None => Ok(seq),
            Some((index, error)) => Err(ServeError::Batch {
                index,
                seq,
                source: Box::new(ServeError::from(error)),
            }),
        }
    }

    /// Journal fsyncs issued over this session's lifetime, all segments
    /// included — divide by [`Session::seq`] for fsyncs per request.
    pub fn fsyncs(&self) -> u64 {
        let commit = self.commit.lock().unwrap();
        commit.rotated_fsyncs + commit.journal.syncs()
    }

    /// Admission weight of a write: each plain request counts 1, a bulk
    /// request counts its live Δ-popcount against the machine's current
    /// state (see [`DynFoMachine::bulk_delta_count`]). Only a bulk
    /// request takes the machine lock. A request that fails to validate
    /// or evaluate weighs 1 — admission is a load estimate, and
    /// `apply`/`apply_batch` own the typed rejection.
    pub fn write_weight(&self, reqs: &[Request]) -> u64 {
        if !reqs.iter().any(Request::is_bulk) {
            return reqs.len() as u64;
        }
        let machine = self.machine.lock().unwrap();
        reqs.iter()
            .map(|req| machine.bulk_delta_count(req).unwrap_or(1) as u64)
            .sum()
    }

    /// Answer the program's boolean query.
    pub fn query(&self) -> Result<bool, ServeError> {
        Ok(self.machine.lock().unwrap().query()?)
    }

    /// Answer a named query with arguments.
    pub fn query_named(&self, name: &str, args: &[Elem]) -> Result<bool, ServeError> {
        Ok(self.machine.lock().unwrap().query_named(name, args)?)
    }

    /// A clone of the current auxiliary structure (tests, diagnostics).
    pub fn state(&self) -> Structure {
        self.machine.lock().unwrap().state().clone()
    }

    /// Force the journal batch to disk now.
    pub fn sync(&self) -> Result<(), ServeError> {
        let mut commit = self.commit.lock().unwrap();
        let seq = commit.seq;
        if commit.is_killed(seq) {
            return Ok(());
        }
        commit.journal.commit()
    }

    /// Commit the journal batch and seal the active segment (rotate to
    /// a fresh one, no snapshot). Graceful shutdown calls this so the
    /// final segment on disk is complete and immutable; replication
    /// uses the sealed boundary as a shipping unit. A segment with no
    /// frames is left in place.
    pub fn seal_segment(&self) -> Result<(), ServeError> {
        let mut commit = self.commit.lock().unwrap();
        let seq = commit.seq;
        if commit.is_killed(seq) {
            return Ok(());
        }
        commit.journal.commit()?;
        commit.rotate(&self.dir, self.config, &self.obs)
    }

    /// The canonical snapshot encoding of the current machine state at
    /// the current sequence number — the byte-identical comparison
    /// anchor for replication tests (a follower that replayed the same
    /// durable prefix must produce exactly these bytes). Holds the
    /// commit lock so the sequence number and the state agree.
    pub fn snapshot_bytes(&self) -> Vec<u8> {
        let commit = self.commit.lock().unwrap();
        encode_snapshot(&self.machine.lock().unwrap(), commit.seq)
    }

    /// Force a snapshot + segment rotation now.
    pub fn checkpoint(&self) -> Result<(), ServeError> {
        let mut commit = self.commit.lock().unwrap();
        let seq = commit.seq;
        if commit.is_killed(seq) {
            return Ok(());
        }
        self.checkpoint_locked(&mut commit)
    }

    /// Fault hook: pretend the process dies right after journal frame
    /// `seq` becomes durable — every later journal append, commit, and
    /// snapshot silently vanishes, while the in-memory machine keeps
    /// running (that state is exactly what a real crash would lose).
    pub fn kill_after_frame(&self, seq: u64) {
        self.commit.lock().unwrap().killed_after = Some(seq);
    }

    /// Commit the journal, snapshot the machine at `commit.seq` and
    /// rotate to a fresh segment. The caller holds the commit lock, so
    /// no write moves the machine past `commit.seq` meanwhile; the
    /// machine lock is held only for the encode, and readers do not
    /// wait out the snapshot's `sync_all`.
    fn checkpoint_locked(&self, commit: &mut Commit) -> Result<(), ServeError> {
        commit.journal.commit()?;
        let started = dynfo_obs::clock();
        let bytes = encode_snapshot(&self.machine.lock().unwrap(), commit.seq);
        persist_snapshot(&self.dir, commit.seq, &bytes)?;
        self.obs.snapshot_ns.observe_since(started);
        // Rotate: later frames land in a fresh segment based at the
        // snapshot, so recovery from this snapshot reads only segments
        // with base ≥ seq.
        commit.rotate(&self.dir, self.config, &self.obs)
    }
}

impl Commit {
    fn is_killed(&self, seq: u64) -> bool {
        self.killed_after.is_some_and(|k| seq > k)
    }

    /// Replace the (committed) active segment with a fresh one based at
    /// the current sequence number. A segment with no frames already is
    /// that fresh segment and stays in place, so a second checkpoint or
    /// seal at one sequence number is a no-op here.
    fn rotate(
        &mut self,
        dir: &Path,
        config: StoreConfig,
        obs: &SessionObs,
    ) -> Result<(), ServeError> {
        if self.journal.committed_frames() == 0 {
            return Ok(());
        }
        self.rotated_fsyncs += self.journal.syncs();
        self.journal = JournalWriter::create_with_obs(
            &segment_path(dir, self.seq),
            config.group_commit,
            obs.journal.clone(),
        )?;
        // The caller's commit made everything through `seq` durable;
        // the fresh writer carries the watermark across the rotation.
        self.journal.set_durable_seq(self.seq);
        Ok(())
    }
}

/// Frame-by-frame batch application for sessions with a recompute
/// cadence: each frame lands on its exact sequence number and the
/// recompute pass fires at every multiple, mirroring what recovery
/// replay does. Returns the frames applied and, on failure, the failing
/// index and error — shaped like the machine's own `apply_batch`.
fn apply_frames(
    machine: &mut DynFoMachine,
    reqs: &[Request],
    start: u64,
    recompute_every: u64,
) -> (usize, Option<(usize, dynfo_core::MachineError)>) {
    for (index, req) in reqs.iter().enumerate() {
        if let Err(e) = machine.apply(req) {
            return (index, Some((index, e)));
        }
        let seq = start + 1 + index as u64;
        if seq.is_multiple_of(recompute_every) {
            if let Err(e) = machine.recompute() {
                // The frame itself applied; count it before failing.
                return (index + 1, Some((index, e)));
            }
        }
    }
    (reqs.len(), None)
}

/// Drain per-session request queues on `workers` scoped threads.
///
/// Each entry pairs a session with its queued requests. A worker claims
/// one queue at a time and pushes it through [`Session::apply_batch`]
/// in chunks of `batch` requests, so the per-session order is exactly
/// the queue order while distinct sessions drain in parallel; each
/// request still evaluates on the one thread that drains its queue.
/// Queues should reference distinct sessions; two queues for the same
/// session stay safe (the commit lock still serializes batches)
/// but their interleaving is unspecified.
///
/// Returns the total number of requests applied. A failing queue stops
/// at its failure (later queues still drain); the error of the
/// lowest-indexed failing queue is reported, deterministically.
pub fn drain_queues(
    queues: &[(Arc<Session>, Vec<Request>)],
    batch: usize,
    workers: usize,
) -> Result<usize, ServeError> {
    use std::sync::atomic::{AtomicUsize, Ordering};
    let batch = batch.max(1);
    let next = AtomicUsize::new(0);
    let applied = AtomicUsize::new(0);
    let failures: Mutex<Vec<(usize, ServeError)>> = Mutex::new(Vec::new());
    let workers = workers.clamp(1, queues.len().max(1));
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let q = next.fetch_add(1, Ordering::Relaxed);
                let Some((session, reqs)) = queues.get(q) else {
                    break;
                };
                for chunk in reqs.chunks(batch) {
                    match session.apply_batch(chunk) {
                        Ok(_) => {
                            applied.fetch_add(chunk.len(), Ordering::Relaxed);
                        }
                        Err(e) => {
                            failures.lock().unwrap().push((q, e));
                            break;
                        }
                    }
                }
            });
        }
    });
    let mut failures = failures.into_inner().unwrap();
    failures.sort_by_key(|(q, _)| *q);
    match failures.into_iter().next() {
        Some((_, e)) => Err(e),
        None => Ok(applied.into_inner()),
    }
}

/// Rebuild a session's machine from its directory: newest valid
/// snapshot, then replay of every journaled frame after it.
///
/// Degradation ladder, newest first: a corrupt or missing snapshot
/// falls back to the next older one, and with no usable snapshot at all
/// recovery starts over from the empty initial structure and replays
/// the whole journal ("muddle through") — slower, never wrong.
fn recover(
    dir: &Path,
    program: &DynFoProgram,
    n: Elem,
    config: StoreConfig,
    obs: &ObsHandle,
    journal_obs: crate::obs::JournalObs,
) -> Result<(DynFoMachine, u64, JournalWriter, RecoveryReport), ServeError> {
    let mut report = RecoveryReport::default();

    // Inventory the directory.
    let mut snapshots: Vec<u64> = Vec::new();
    let mut segments: Vec<u64> = Vec::new();
    for entry in std::fs::read_dir(dir).map_err(|e| ServeError::io(dir, e))? {
        let entry = entry.map_err(|e| ServeError::io(dir, e))?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if let Some(seq) = parse_snapshot_name(&name) {
            snapshots.push(seq);
        } else if let Some(base) = parse_segment_name(&name) {
            segments.push(base);
        }
    }
    snapshots.sort_unstable_by(|a, b| b.cmp(a)); // newest first
    segments.sort_unstable(); // oldest first

    // Newest snapshot that actually decodes and fits the program.
    let mut machine = None;
    let mut snap_seq = 0;
    let mut used_rank = None;
    for (rank, &seq) in snapshots.iter().enumerate() {
        match read_snapshot(&snapshot_path(dir, seq), program, n) {
            Ok((m, stored_seq)) => {
                if stored_seq != seq {
                    report.anomalies.push(format!(
                        "snapshot {seq}: file name disagrees with stored seq {stored_seq}; skipped"
                    ));
                    continue;
                }
                machine = Some(m);
                snap_seq = seq;
                used_rank = Some(rank);
                break;
            }
            Err(e) => report
                .anomalies
                .push(format!("snapshot {seq} unusable ({e}); falling back")),
        }
    }
    let mut machine = machine
        .unwrap_or_else(|| DynFoMachine::new(program.clone(), n))
        .with_obs(obs);
    report.snapshot_seq = snap_seq;
    report.rung = match used_rank {
        Some(0) => 1, // newest snapshot held
        Some(_) => 2, // fell back to an older snapshot
        None => 3,    // no usable snapshot: full journal replay
    };

    // Replay the tail. A segment is skipped entirely when the *next*
    // segment starts at or before the snapshot (all its frames are
    // already in the snapshot) — with rotation at snapshot boundaries
    // this touches only the tail, making recovery O(snapshot + tail).
    let mut seq = snap_seq;
    let mut tail_writer: Option<JournalWriter> = None;
    for (i, &base) in segments.iter().enumerate() {
        let covered = segments.get(i + 1).is_some_and(|&next| next <= snap_seq);
        if covered {
            continue;
        }
        let is_last = i + 1 == segments.len();
        let path = segment_path(dir, base);
        let read = read_segment(&path)?;
        if let Some(anomaly) = &read.anomaly {
            report
                .anomalies
                .push(format!("segment {base}: {anomaly}; tail truncated"));
            if !is_last {
                return Err(ServeError::Corrupt(format!(
                    "segment {base} is damaged mid-history ({anomaly}); later segments exist"
                )));
            }
        }
        let frames_in_segment = read.entries.len() as u64;
        for entry in read.entries {
            if entry.seq <= seq {
                continue; // already in the snapshot
            }
            if entry.seq != seq + 1 {
                return Err(ServeError::Corrupt(format!(
                    "journal gap: expected seq {}, found {}",
                    seq + 1,
                    entry.seq
                )));
            }
            machine.apply(&entry.request)?;
            // Replay the recompute cadence at the same absolute
            // sequence numbers the live session fired it, so the
            // recovered machine is byte-identical to the pre-crash one.
            if config.recompute_every > 0 && entry.seq.is_multiple_of(config.recompute_every) {
                machine.recompute()?;
            }
            seq = entry.seq;
            report.replayed += 1;
        }
        if is_last {
            tail_writer = Some(JournalWriter::reopen_with_obs(
                &path,
                read.valid_len,
                frames_in_segment,
                config.group_commit,
                journal_obs.clone(),
            )?);
        }
    }

    let mut journal = match tail_writer {
        Some(w) => w,
        // No segments at all (e.g. a bare snapshot was copied in):
        // start a fresh one at the current position.
        None => JournalWriter::create_with_obs(
            &segment_path(dir, seq),
            config.group_commit,
            journal_obs,
        )?,
    };
    // Everything recovery replayed was read *from* disk, so the
    // durable watermark starts at the recovered position.
    journal.set_durable_seq(seq);
    Ok((machine, seq, journal, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scratch_dir;
    use dynfo_core::programs::{parity, reach_u};

    #[test]
    fn fresh_session_applies_and_queries() {
        let root = scratch_dir("store-fresh");
        let store = SessionStore::open(&root, StoreConfig::default()).unwrap();
        let s = store.session("net", &reach_u::program(), 8).unwrap();
        s.apply(&Request::ins("E", [0, 1])).unwrap();
        s.apply(&Request::ins("E", [1, 2])).unwrap();
        assert!(s.query_named("connected", &[0, 2]).unwrap());
        assert_eq!(s.seq(), 2);
        store.shutdown().unwrap();
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn queries_wait_for_the_machine_lock_only() {
        use std::sync::mpsc;
        use std::time::Duration;
        let root = scratch_dir("store-split-lock");
        let store = SessionStore::open(&root, StoreConfig::default()).unwrap();
        let s = store.session("net", &reach_u::program(), 8).unwrap();
        s.apply(&Request::ins("E", [0, 1])).unwrap();
        let s = &*s;
        // Stand in for a writer parked in the journal's `sync_data`.
        let commit = s.commit.lock().unwrap();
        std::thread::scope(move |scope| {
            let (read_tx, read_rx) = mpsc::channel();
            scope.spawn(move || {
                let connected = s.query_named("connected", &[0, 1]).unwrap();
                let query = s.query().is_ok();
                read_tx.send((connected, query, s.state())).unwrap();
            });
            let (connected, query, state) = read_rx
                .recv_timeout(Duration::from_secs(10))
                .expect("a read waited for the commit lock");
            assert!(connected && query);
            assert_eq!(state.size(), 8);

            let (write_tx, write_rx) = mpsc::channel();
            scope.spawn(move || write_tx.send(s.apply(&Request::ins("E", [1, 2]))).unwrap());
            assert!(
                write_rx.recv_timeout(Duration::from_millis(200)).is_err(),
                "apply returned while another thread held the commit lock"
            );
            drop(commit);
            let seq = write_rx.recv_timeout(Duration::from_secs(10)).unwrap();
            assert_eq!(seq.unwrap(), 2, "apply returns the seq it assigned");
        });
        assert!(s.query_named("connected", &[0, 2]).unwrap());
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn restart_recovers_exact_state() {
        let root = scratch_dir("store-restart");
        {
            let store = SessionStore::open(&root, StoreConfig::default()).unwrap();
            let s = store.session("net", &reach_u::program(), 8).unwrap();
            for (a, b) in [(0, 1), (1, 2), (2, 3), (4, 5)] {
                s.apply(&Request::ins("E", [a, b])).unwrap();
            }
            s.apply(&Request::del("E", [2, 3])).unwrap();
            store.shutdown().unwrap();
        }
        let mut reference = DynFoMachine::new(reach_u::program(), 8);
        for (a, b) in [(0, 1), (1, 2), (2, 3), (4, 5)] {
            reference.apply(&Request::ins("E", [a, b])).unwrap();
        }
        reference.apply(&Request::del("E", [2, 3])).unwrap();

        let store = SessionStore::open(&root, StoreConfig::default()).unwrap();
        let s = store.session("net", &reach_u::program(), 8).unwrap();
        assert_eq!(s.seq(), 5);
        assert_eq!(s.state(), *reference.state());
        assert_eq!(s.recovery_report().replayed, 5);
        assert!(s.recovery_report().anomalies.is_empty());
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn a_snapshot_of_another_universe_is_skipped() {
        // A CRC-valid REACH_u snapshot over n = 8, dropped into an n = 16
        // session's directory at the journal's head: recovery must not
        // adopt it, but fall back — here, with no older snapshot, to a
        // replay of the whole journal.
        let root = scratch_dir("store-foreign-n");
        let program = reach_u::program();
        let reqs: Vec<Request> = [(0, 1), (1, 2), (9, 12), (12, 15), (2, 9)]
            .map(|(a, b)| Request::ins("E", [a, b]))
            .into_iter()
            .chain([Request::del("E", [1, 2])])
            .collect();
        {
            let store = SessionStore::open(&root, StoreConfig::default()).unwrap();
            let s = store.session("wide", &program, 16).unwrap();
            for r in &reqs {
                s.apply(r).unwrap();
            }
            store.shutdown().unwrap();
        }
        let mut small = DynFoMachine::new(program.clone(), 8);
        small.apply(&Request::ins("E", [0, 1])).unwrap();
        let seq = reqs.len() as u64;
        persist_snapshot(&root.join("wide"), seq, &encode_snapshot(&small, seq)).unwrap();

        let store = SessionStore::open(&root, StoreConfig::default()).unwrap();
        let s = store.session("wide", &program, 16).unwrap();
        let report = s.recovery_report();
        assert_eq!(report.rung, 3, "{:?}", report.anomalies);
        assert_eq!(report.replayed, reqs.len() as u64);
        assert!(
            report.anomalies.iter().any(|a| a.contains("n = 8")),
            "no anomaly names the foreign universe: {:?}",
            report.anomalies
        );
        let mut reference = program.initial_structure(16);
        for r in &reqs {
            reference = dynfo_testutil::reference_step(&program, &reference, r);
        }
        assert_eq!(s.state(), reference);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn opening_past_the_size_budget_is_a_typed_error() {
        let root = scratch_dir("store-too-large");
        let store = SessionStore::open(&root, StoreConfig::default()).unwrap();
        match store.session("huge", &reach_u::program(), 100_000) {
            Err(ServeError::Machine(dynfo_core::MachineError::TooLarge { bits, budget })) => {
                assert!(bits > budget)
            }
            Err(e) => panic!("expected TooLarge, got {e}"),
            Ok(_) => panic!("a session past the budget opened"),
        }
        assert!(!root.join("huge").exists(), "a refused session left a directory");
        let s = store.session("small", &reach_u::program(), 8).unwrap();
        s.apply(&Request::ins("E", [0, 1])).unwrap();
        assert!(s.query_named("connected", &[0, 1]).unwrap());
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn snapshot_policy_rotates_segments() {
        let root = scratch_dir("store-rotate");
        let config = StoreConfig {
            recompute_every: 0,
            snapshot_every: 4,
            group_commit: 1,
        };
        {
            let store = SessionStore::open(&root, config).unwrap();
            let s = store.session("bits", &parity::program(), 16).unwrap();
            for i in 0..10u32 {
                s.apply(&Request::ins("M", [i])).unwrap();
            }
            store.shutdown().unwrap();
        }
        let dir = root.join("bits");
        let mut snaps = 0;
        let mut segs = 0;
        for e in std::fs::read_dir(&dir).unwrap() {
            let name = e.unwrap().file_name();
            let name = name.to_string_lossy().into_owned();
            if parse_snapshot_name(&name).is_some() {
                snaps += 1;
            }
            if parse_segment_name(&name).is_some() {
                segs += 1;
            }
        }
        assert_eq!(snaps, 2, "snapshots at seq 4 and 8");
        assert_eq!(segs, 3, "segments based at 0, 4, 8");
        // Recovery starts at snapshot 8 and replays only frames 9, 10.
        let store = SessionStore::open(&root, config).unwrap();
        let s = store.session("bits", &parity::program(), 16).unwrap();
        assert_eq!(s.recovery_report().snapshot_seq, 8);
        assert_eq!(s.recovery_report().replayed, 2);
        assert_eq!(s.seq(), 10);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn bad_requests_are_rejected_without_poisoning_the_session() {
        let root = scratch_dir("store-reject");
        let store = SessionStore::open(&root, StoreConfig::default()).unwrap();
        let s = store.session("net", &reach_u::program(), 8).unwrap();
        s.apply(&Request::ins("E", [0, 1])).unwrap();
        // Unknown relation, wrong arity, out of universe: all errors,
        // none journaled, none applied.
        assert!(s.apply(&Request::ins("Q", [0, 1])).is_err());
        assert!(s.apply(&Request::ins("E", [0])).is_err());
        assert!(s.apply(&Request::ins("E", [0, 99])).is_err());
        assert!(s.query_named("no_such_query", &[]).is_err());
        assert_eq!(s.seq(), 1);
        s.apply(&Request::ins("E", [1, 2])).unwrap();
        assert!(s.query_named("connected", &[0, 2]).unwrap());
        store.shutdown().unwrap();
        // The journal holds exactly the two good frames.
        let store = SessionStore::open(&root, StoreConfig::default()).unwrap();
        let s = store.session("net", &reach_u::program(), 8).unwrap();
        assert_eq!(s.seq(), 2);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn sessions_are_isolated() {
        let root = scratch_dir("store-isolated");
        let store = SessionStore::open(&root, StoreConfig::default()).unwrap();
        let a = store.session("a", &parity::program(), 8).unwrap();
        let b = store.session("b", &parity::program(), 8).unwrap();
        a.apply(&Request::ins("M", [1])).unwrap();
        assert!(a.query().unwrap(), "odd count in a");
        assert!(!b.query().unwrap(), "b untouched");
        assert_eq!(store.session_names(), vec!["a", "b"]);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn reopening_with_wrong_shape_fails() {
        let root = scratch_dir("store-shape");
        {
            let store = SessionStore::open(&root, StoreConfig::default()).unwrap();
            let s = store.session("net", &reach_u::program(), 8).unwrap();
            s.apply(&Request::ins("E", [0, 1])).unwrap();
            store.shutdown().unwrap();
        }
        let store = SessionStore::open(&root, StoreConfig::default()).unwrap();
        assert!(
            store.session("net", &parity::program(), 8).is_err(),
            "wrong program must not recover"
        );
        assert!(
            store.session("net", &reach_u::program(), 16).is_err(),
            "wrong universe size must not recover"
        );
        assert!(store.session("bad name!", &reach_u::program(), 8).is_err());
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn apply_batch_is_durable_at_batch_end() {
        let root = scratch_dir("store-batch");
        let config = StoreConfig {
            recompute_every: 0,
            snapshot_every: 0,
            group_commit: 1_000, // never auto-commits: durability must
                                 // come from the batch-end commit
        };
        let reqs: Vec<Request> = [(0, 1), (1, 2), (2, 3), (4, 5)]
            .iter()
            .map(|&(a, b)| Request::ins("E", [a, b]))
            .collect();
        {
            let store = SessionStore::open(&root, config).unwrap();
            let s = store.session("net", &reach_u::program(), 8).unwrap();
            s.apply_batch(&reqs).unwrap();
            assert_eq!(s.seq(), 4);
            assert_eq!(s.fsyncs(), 1, "one group commit covers the batch");
            store.crash(); // no shutdown: only the commit persists it
        }
        let mut reference = DynFoMachine::new(reach_u::program(), 8);
        reference.apply_all(&reqs).unwrap();
        let store = SessionStore::open(&root, config).unwrap();
        let s = store.session("net", &reach_u::program(), 8).unwrap();
        assert_eq!(s.seq(), 4);
        assert_eq!(s.state(), *reference.state());
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn apply_batch_rejects_bad_frames_without_advancing() {
        let root = scratch_dir("store-batch-reject");
        let store = SessionStore::open(&root, StoreConfig::default()).unwrap();
        let s = store.session("net", &reach_u::program(), 8).unwrap();
        s.apply(&Request::ins("E", [0, 1])).unwrap();
        let batch = vec![
            Request::ins("E", [1, 2]),
            Request::ins("E", [0, 99]), // out of universe
        ];
        assert!(s.apply_batch(&batch).is_err());
        assert_eq!(s.seq(), 1, "validation failure applies nothing");
        assert!(s.apply_batch(&[]).is_ok(), "empty batch is a no-op");
        assert_eq!(s.seq(), 1);
        store.shutdown().unwrap();
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn fsyncs_are_amortized_and_survive_rotation() {
        let root = scratch_dir("store-fsyncs");
        let per_request = StoreConfig {
            recompute_every: 0,
            snapshot_every: 0,
            group_commit: 1,
        };
        let batched = StoreConfig {
            recompute_every: 0,
            snapshot_every: 4, // force checkpoint rotation mid-stream
            group_commit: 1_000,
        };
        let reqs: Vec<Request> = (0..12u32).map(|i| Request::ins("M", [i])).collect();

        let store_a = SessionStore::open(root.join("a"), per_request).unwrap();
        let a = store_a.session("bits", &parity::program(), 16).unwrap();
        for r in &reqs {
            a.apply(r).unwrap();
        }
        assert_eq!(a.fsyncs(), 12, "group_commit=1 syncs every request");

        let store_b = SessionStore::open(root.join("b"), batched).unwrap();
        let b = store_b.session("bits", &parity::program(), 16).unwrap();
        for chunk in reqs.chunks(4) {
            b.apply_batch(chunk).unwrap();
        }
        assert_eq!(b.state(), a.state());
        assert_eq!(
            b.fsyncs(),
            3,
            "one sync per batch, counted across journal rotations"
        );
        store_a.shutdown().unwrap();
        store_b.shutdown().unwrap();
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn kill_mid_batch_loses_the_whole_batch() {
        let root = scratch_dir("store-batch-kill");
        let config = StoreConfig {
            recompute_every: 0,
            snapshot_every: 0,
            group_commit: 1_000,
        };
        {
            let store = SessionStore::open(&root, config).unwrap();
            let s = store.session("net", &reach_u::program(), 8).unwrap();
            s.apply_batch(&[Request::ins("E", [0, 1])]).unwrap();
            // Crash after frame 3: the second batch's commit is reached
            // only at its end (seq 5), so none of its frames persist —
            // the batch is the unit of durability.
            s.kill_after_frame(3);
            s.apply_batch(&[
                Request::ins("E", [1, 2]),
                Request::ins("E", [2, 3]),
                Request::ins("E", [3, 4]),
                Request::ins("E", [4, 5]),
            ])
            .unwrap();
            store.crash();
        }
        let store = SessionStore::open(&root, config).unwrap();
        let s = store.session("net", &reach_u::program(), 8).unwrap();
        assert_eq!(s.seq(), 1, "only the first committed batch survives");
        assert!(!s.query_named("connected", &[1, 2]).unwrap());
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn durable_seq_advances_only_on_fsync_and_survives_rotation() {
        let root = scratch_dir("store-durable-seq");
        let config = StoreConfig {
            recompute_every: 0,
            snapshot_every: 0,
            group_commit: 1_000, // nothing commits until forced
        };
        {
            let store = SessionStore::open(&root, config).unwrap();
            let s = store.session("net", &reach_u::program(), 8).unwrap();
            for (a, b) in [(0, 1), (1, 2), (2, 3)] {
                s.apply(&Request::ins("E", [a, b])).unwrap();
            }
            assert_eq!(s.seq(), 3);
            assert_eq!(s.durable_seq(), 0, "buffered frames are not durable");
            s.sync().unwrap();
            assert_eq!(s.durable_seq(), 3, "commit advances the watermark");
            s.apply(&Request::ins("E", [3, 4])).unwrap();
            assert_eq!(s.durable_seq(), 3, "the new frame is back in the buffer");
            s.seal_segment().unwrap();
            assert_eq!(s.durable_seq(), 4, "sealing commits and spans rotation");
            s.apply(&Request::ins("E", [4, 5])).unwrap();
            s.checkpoint().unwrap();
            assert_eq!(s.durable_seq(), 5, "checkpoint rotation carries it too");
            store.shutdown().unwrap();
        }
        // Recovery seeds the watermark at the recovered position.
        let store = SessionStore::open(&root, config).unwrap();
        let s = store.session("net", &reach_u::program(), 8).unwrap();
        assert_eq!(s.seq(), 5);
        assert_eq!(s.durable_seq(), 5, "recovered frames came from disk");
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn two_stores_report_separate_journal_metrics() {
        use dynfo_obs::Registry;
        let root = scratch_dir("store-split-obs");
        let reg_a = Arc::new(Registry::new());
        let reg_b = Arc::new(Registry::new());
        let store_a = SessionStore::open_with_obs(
            root.join("a"),
            StoreConfig::default(),
            ObsHandle::with_registry(Arc::clone(&reg_a)),
        )
        .unwrap();
        let store_b = SessionStore::open_with_obs(
            root.join("b"),
            StoreConfig::default(),
            ObsHandle::with_registry(Arc::clone(&reg_b)),
        )
        .unwrap();
        let a = store_a.session("bits", &parity::program(), 8).unwrap();
        let b = store_b.session("bits", &parity::program(), 8).unwrap();
        for i in 0..5u32 {
            a.apply(&Request::ins("M", [i])).unwrap();
        }
        b.apply(&Request::ins("M", [0])).unwrap();
        let fsyncs = |reg: &Registry| reg.histogram("serve.journal.fsync_ns").count();
        assert_eq!(fsyncs(&reg_a), 5, "primary's fsyncs on its registry");
        assert_eq!(fsyncs(&reg_b), 1, "replica-style store counts its own");
        store_a.shutdown().unwrap();
        store_b.shutdown().unwrap();
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn seal_segment_rotates_and_recovers_cleanly() {
        let root = scratch_dir("store-seal");
        let config = StoreConfig {
            recompute_every: 0,
            snapshot_every: 0,
            group_commit: 1_000,
        };
        {
            let store = SessionStore::open(&root, config).unwrap();
            let s = store.session("net", &reach_u::program(), 8).unwrap();
            s.apply(&Request::ins("E", [0, 1])).unwrap();
            s.apply(&Request::ins("E", [1, 2])).unwrap();
            s.seal_segment().unwrap();
            s.seal_segment().unwrap(); // idempotent on an empty segment
            s.apply(&Request::ins("E", [2, 3])).unwrap();
            s.sync().unwrap();
            store.crash();
        }
        let dir = root.join("net");
        let mut bases: Vec<u64> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| parse_segment_name(&e.unwrap().file_name().to_string_lossy()))
            .collect();
        bases.sort_unstable();
        assert_eq!(bases, vec![0, 2], "sealed at seq 2, live tail based there");
        let store = SessionStore::open(&root, config).unwrap();
        let s = store.session("net", &reach_u::program(), 8).unwrap();
        assert_eq!(s.seq(), 3);
        assert!(s.query_named("connected", &[0, 3]).unwrap());
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn checkpoints_and_seals_at_one_seq_do_not_collide() {
        let root = scratch_dir("store-checkpoint-twice");
        let store = SessionStore::open(&root, StoreConfig::default()).unwrap();
        let s = store.session("net", &reach_u::program(), 8).unwrap();
        s.apply(&Request::ins("E", [0, 1])).unwrap();
        s.checkpoint().unwrap();
        s.checkpoint().unwrap();
        s.seal_segment().unwrap();
        s.checkpoint().unwrap();
        s.apply(&Request::ins("E", [1, 2])).unwrap();
        s.seal_segment().unwrap();
        s.checkpoint().unwrap();
        assert_eq!(
            s.fsyncs(),
            2,
            "one journal fsync per write, none lost to rotation"
        );
        store.crash();
        let store = SessionStore::open(&root, StoreConfig::default()).unwrap();
        let s = store.session("net", &reach_u::program(), 8).unwrap();
        assert_eq!(s.seq(), 2);
        assert!(s.query_named("connected", &[0, 2]).unwrap());
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn apply_batch_error_carries_failing_index() {
        let root = scratch_dir("store-batch-index");
        let store = SessionStore::open(&root, StoreConfig::default()).unwrap();
        let s = store.session("net", &reach_u::program(), 8).unwrap();
        let batch = vec![
            Request::ins("E", [0, 1]),
            Request::ins("E", [0, 99]), // out of universe
            Request::ins("E", [1, 2]),
        ];
        match s.apply_batch(&batch) {
            Err(ServeError::Batch { index, seq, source }) => {
                assert_eq!(index, 1, "the offending frame's position");
                assert_eq!(seq, 0, "nothing applied, nothing assigned");
                assert!(matches!(*source, ServeError::Machine(_)));
            }
            other => panic!("expected ServeError::Batch, got {other:?}"),
        }
        assert_eq!(s.seq(), 0, "validation failure applies nothing");
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn meta_rejects_newer_codec_with_typed_error() {
        use crate::journal::JOURNAL_VERSION;
        let root = scratch_dir("store-meta-codec");
        let program = reach_u::program();
        {
            let store = SessionStore::open(&root, StoreConfig::default()).unwrap();
            store.session("net", &program, 8).unwrap();
            store.shutdown().unwrap();
        }
        // Rewrite the meta claiming a codec from the future — what an
        // old binary sees after a newer one created the session.
        let mut w = Writer::new();
        w.put_bytes(META_MAGIC);
        w.put_u16(META_VERSION);
        w.put_str(program.name());
        w.put_u32(8);
        w.put_u16(JOURNAL_VERSION + 1);
        let crc = crc32(w.as_bytes());
        w.put_u32(crc);
        std::fs::write(root.join("net").join("meta"), w.as_bytes()).unwrap();
        let store = SessionStore::open(&root, StoreConfig::default()).unwrap();
        match store.session("net", &program, 8) {
            Err(ServeError::UnsupportedCodec { found, min, max }) => {
                assert_eq!(found, JOURNAL_VERSION + 1);
                assert_eq!((min, max), (super::MIN_JOURNAL_VERSION, JOURNAL_VERSION));
            }
            Err(other) => panic!("expected UnsupportedCodec, got {other:?}"),
            Ok(_) => panic!("expected UnsupportedCodec, got a session"),
        }
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn v1_meta_remains_readable() {
        let root = scratch_dir("store-meta-v1");
        let program = reach_u::program();
        {
            let store = SessionStore::open(&root, StoreConfig::default()).unwrap();
            let s = store.session("net", &program, 8).unwrap();
            s.apply(&Request::ins("E", [0, 1])).unwrap();
            store.shutdown().unwrap();
        }
        // Downgrade the meta to the v1 layout (no codec field): still
        // readable, codec implied 1.
        let mut w = Writer::new();
        w.put_bytes(META_MAGIC);
        w.put_u16(1);
        w.put_str(program.name());
        w.put_u32(8);
        let crc = crc32(w.as_bytes());
        w.put_u32(crc);
        std::fs::write(root.join("net").join("meta"), w.as_bytes()).unwrap();
        let store = SessionStore::open(&root, StoreConfig::default()).unwrap();
        let s = store.session("net", &program, 8).unwrap();
        assert_eq!(s.seq(), 1);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn bulk_frames_journal_and_recover() {
        use dynfo_logic::formula::{and, forall, lt, not, v};
        let root = scratch_dir("store-bulk");
        // δ = the successor chain 0→1→…→7.
        let delta = and([
            lt(v("x0"), v("x1")),
            forall(["z"], not(and([lt(v("x0"), v("z")), lt(v("z"), v("x1"))]))),
        ]);
        let bulk = Request::bulk_ins("E", delta);
        {
            let store = SessionStore::open(&root, StoreConfig::default()).unwrap();
            let s = store.session("net", &reach_u::program(), 8).unwrap();
            s.apply(&bulk).unwrap();
            assert!(s.query_named("connected", &[0, 7]).unwrap());
            store.crash(); // group_commit=1: the bulk frame is durable
        }
        let mut reference = DynFoMachine::new(reach_u::program(), 8);
        reference.apply(&bulk).unwrap();
        let store = SessionStore::open(&root, StoreConfig::default()).unwrap();
        let s = store.session("net", &reach_u::program(), 8).unwrap();
        assert_eq!(s.seq(), 1, "one frame covers the whole bulk change");
        assert_eq!(s.state(), *reference.state());
        assert!(s.query_named("connected", &[0, 7]).unwrap());
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn drain_queues_matches_sequential_replay() {
        let root = scratch_dir("store-drain");
        let store = SessionStore::open(&root, StoreConfig::default()).unwrap();
        let mut queues = Vec::new();
        let mut references = Vec::new();
        for q in 0..5u32 {
            let s = store
                .session(&format!("net{q}"), &reach_u::program(), 8)
                .unwrap();
            let reqs: Vec<Request> = (0..20u32)
                .map(|i| {
                    let a = (i * 7 + q) % 8;
                    let b = (i * 3 + q + 1) % 8;
                    if i % 5 == 4 {
                        Request::del("E", [a, b])
                    } else {
                        Request::ins("E", [a, b])
                    }
                })
                .collect();
            let mut reference = DynFoMachine::new(reach_u::program(), 8);
            reference.apply_all(&reqs).unwrap();
            references.push(reference);
            queues.push((s, reqs));
        }
        let applied = drain_queues(&queues, 8, 4).unwrap();
        assert_eq!(applied, 100);
        for (q, (s, _)) in queues.iter().enumerate() {
            assert_eq!(s.seq(), 20, "queue {q} fully drained");
            assert_eq!(s.state(), *references[q].state());
        }
        store.shutdown().unwrap();
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn drain_queues_reports_failure_without_stalling_others() {
        let root = scratch_dir("store-drain-fail");
        let store = SessionStore::open(&root, StoreConfig::default()).unwrap();
        let good = store.session("good", &reach_u::program(), 8).unwrap();
        let bad = store.session("bad", &reach_u::program(), 8).unwrap();
        let queues = vec![
            (
                Arc::clone(&bad),
                vec![Request::ins("E", [0, 1]), Request::ins("E", [0, 99])],
            ),
            (
                Arc::clone(&good),
                (0..6u32).map(|i| Request::ins("E", [i, i + 1])).collect(),
            ),
        ];
        let err = drain_queues(&queues, 4, 2);
        assert!(err.is_err(), "bad queue's error is surfaced");
        assert_eq!(good.seq(), 6, "healthy queues drain to completion");
        assert!(good.query_named("connected", &[0, 6]).unwrap());
        store.shutdown().unwrap();
        std::fs::remove_dir_all(&root).unwrap();
    }
}
