//! The multi-threaded serving front-end: a TCP listener, one handler
//! thread per connection, per-connection sessions resolved through the
//! shared [`SessionStore`], admission control on every write, and a
//! graceful drain on shutdown.
//!
//! ## Threading model
//!
//! The accept loop runs on its own thread; each accepted connection
//! gets a handler thread that owns the socket end to end (the frame
//! protocol is strictly request/response per connection, so no demux is
//! needed). Sessions are shared: many connections may bind the same
//! session name. The session's commit lock in `dynfo-serve` serializes
//! their writes, and each write answers with the sequence number it was
//! assigned; queries take only the machine lock, so a reader never
//! waits out a writer's fsync. Connections on different sessions
//! proceed in parallel — the network mirror of the store's sharding.
//!
//! ## Backpressure
//!
//! Every write passes [`Admission`] first. A shed write costs the
//! server a frame decode and one small response — it never takes the
//! commit lock or touches the journal, and only a bulk write reads the
//! machine (for its weight) — and tells the client
//! `Overloaded` in a typed frame so it can back off. Queries bypass
//! admission entirely.
//!
//! ## Shutdown
//!
//! [`Server::shutdown`] (or SIGTERM/ctrl-c via
//! [`install_signal_handlers`] + a caller loop) stops the accept loop,
//! lets every handler finish the frame it is reading or serving, then
//! commits each session's group-commit buffer with a final fsync and
//! seals its active journal segment. Nothing acknowledged is ever lost
//! by a clean exit.

use crate::backpressure::{Admission, AdmissionConfig};
use crate::error::NetError;
use crate::obs::ServerObs;
use crate::proto::{
    clamp_metrics_text, log_chunk_fit, read_hello, write_hello, write_message, ErrorCode, Message,
    MAX_BATCH, MAX_WIRE_FRAME, WIRE_VERSION,
};
use crate::registry::ProgramRegistry;
use dynfo_obs::ObsHandle;
use dynfo_serve::codec::crc32;
use dynfo_serve::{read_log_after, ServeError, Session, SessionStore, StoreConfig};
use std::io::Read;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Server-wide configuration.
#[derive(Clone, Copy, Debug)]
pub struct ServerConfig {
    /// Durability policy for the store the server fronts.
    pub store: StoreConfig,
    /// Backpressure thresholds.
    pub admission: AdmissionConfig,
    /// Refuse writes with a typed `ReadOnly` error (replica mode).
    pub read_only: bool,
    /// Granularity at which idle connections notice a shutdown.
    pub idle_poll: Duration,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            store: StoreConfig::default(),
            admission: AdmissionConfig::default(),
            read_only: false,
            idle_poll: Duration::from_millis(50),
        }
    }
}

/// State shared by the accept loop and every connection handler.
struct Shared {
    store: Arc<SessionStore>,
    registry: Arc<ProgramRegistry>,
    config: ServerConfig,
    stop: AtomicBool,
    obs: ServerObs,
    handle: ObsHandle,
    admission: Admission,
}

/// A running server: listener thread + per-connection handler threads.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<std::thread::JoinHandle<()>>,
    conns: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
}

impl Server {
    /// Bind `addr` (use port 0 for an ephemeral port) and start
    /// serving `store`'s sessions. Metrics — and the admission
    /// controller's load signals — resolve against `handle`, which
    /// should be the same handle the store was opened with.
    pub fn start(
        addr: &str,
        store: Arc<SessionStore>,
        registry: Arc<ProgramRegistry>,
        config: ServerConfig,
        handle: ObsHandle,
    ) -> Result<Server, NetError> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let shared = Arc::new(Shared {
            store,
            registry,
            config,
            stop: AtomicBool::new(false),
            obs: ServerObs::new(&handle),
            handle: handle.clone(),
            admission: Admission::new(config.admission, &handle),
        });
        let conns: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>> =
            Arc::new(Mutex::new(Vec::new()));
        let accept = {
            let shared = Arc::clone(&shared);
            let conns = Arc::clone(&conns);
            std::thread::Builder::new()
                .name("dynfo-net-accept".into())
                .spawn(move || accept_loop(listener, shared, conns))
                .map_err(NetError::Io)?
        };
        Ok(Server {
            addr: local,
            shared,
            accept: Some(accept),
            conns,
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The store this server fronts.
    pub fn store(&self) -> &Arc<SessionStore> {
        &self.shared.store
    }

    /// Writes currently admitted and in flight.
    pub fn inflight_writes(&self) -> i64 {
        self.shared.admission.inflight()
    }

    /// Graceful shutdown: stop accepting, drain every connection's
    /// in-flight frame, then flush each session's group-commit buffer
    /// with a final fsync and seal its active journal segment.
    pub fn shutdown(mut self) -> Result<(), NetError> {
        self.shared.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.accept.take() {
            let _ = t.join();
        }
        let handles: Vec<_> = std::mem::take(&mut *self.conns.lock().unwrap());
        for h in handles {
            let _ = h.join();
        }
        for name in self.shared.store.session_names() {
            if let Some(s) = self.shared.store.get(&name) {
                s.sync().map_err(NetError::Serve)?;
                s.seal_segment().map_err(NetError::Serve)?;
            }
        }
        Ok(())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Abandoned without `shutdown()`: stop the threads (no drain
        // guarantees, exactly like a dying process) but never leak them.
        self.shared.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.accept.take() {
            let _ = t.join();
        }
        let handles: Vec<_> = std::mem::take(&mut *self.conns.lock().unwrap());
        for h in handles {
            let _ = h.join();
        }
    }
}

/// Join (and drop) every handler thread that has already exited, so a
/// long-running server's handle list tracks *live* connections instead
/// of growing with every connection ever served.
fn reap_finished(conns: &Mutex<Vec<std::thread::JoinHandle<()>>>) {
    let mut guard = conns.lock().unwrap();
    let mut i = 0;
    while i < guard.len() {
        if guard[i].is_finished() {
            let _ = guard.swap_remove(i).join();
        } else {
            i += 1;
        }
    }
}

fn accept_loop(
    listener: TcpListener,
    shared: Arc<Shared>,
    conns: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
) {
    while !shared.stop.load(Ordering::SeqCst) {
        reap_finished(&conns);
        match listener.accept() {
            Ok((stream, _peer)) => {
                let shared = Arc::clone(&shared);
                let handle = std::thread::Builder::new()
                    .name("dynfo-net-conn".into())
                    .spawn(move || {
                        shared.obs.conns.add(1);
                        let _ = serve_connection(stream, &shared);
                        shared.obs.conns.add(-1);
                    });
                if let Ok(h) = handle {
                    conns.lock().unwrap().push(h);
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    }
}

/// Per-connection state: the session this connection bound via `Open`.
struct Conn {
    session: Option<Arc<Session>>,
}

fn serve_connection(mut stream: TcpStream, shared: &Shared) -> Result<(), NetError> {
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(shared.config.idle_poll))?;

    // Handshake: validate the client's hello, answer with ours. A
    // version mismatch gets a typed error so old clients fail loudly.
    let version = match read_hello(&mut stream) {
        Ok(v) => v,
        Err(e) => {
            shared.obs.decode_errors.inc();
            return Err(e);
        }
    };
    if version != WIRE_VERSION {
        shared.obs.decode_errors.inc();
        let _ = write_message(
            &mut stream,
            &Message::Err {
                code: ErrorCode::VersionMismatch,
                detail: format!("server speaks version {WIRE_VERSION}, client sent {version}"),
            },
        );
        return Err(NetError::Corrupt(format!("client version {version}")));
    }
    write_hello(&mut stream)?;

    let mut conn = Conn { session: None };
    loop {
        let msg = match read_frame_polling(&mut stream, shared) {
            Ok(Some(m)) => m,
            Ok(None) => return Ok(()), // clean close or drained shutdown
            Err(e) => {
                // Malformed input errors the connection: one typed
                // response, then hang up. Never panic, never trust the
                // rest of the stream.
                shared.obs.decode_errors.inc();
                let _ = write_message(
                    &mut stream,
                    &Message::Err {
                        code: ErrorCode::Malformed,
                        detail: e.to_string(),
                    },
                );
                return Err(e);
            }
        };
        shared.obs.requests.inc();
        let started = dynfo_obs::clock();
        let reply = dispatch(shared, &mut conn, msg);
        shared.obs.request_ns.observe_since(started);
        write_message(&mut stream, &reply)?;
    }
}

/// How many idle-poll intervals a *started* frame may stall once
/// shutdown is requested before the connection is aborted. A peer that
/// committed to a frame gets this grace to finish it (10 × the default
/// 50 ms poll = 500 ms); past that it is holding the drain hostage.
const SHUTDOWN_MID_FRAME_GRACE_POLLS: u32 = 10;

/// Read one frame, polling the stop flag while idle. Returns `None` on
/// clean close, or when shutdown was requested and the connection sits
/// at a frame boundary (the drain point: an in-flight frame is always
/// finished and answered first — but only within a bounded grace; a
/// peer stalled mid-frame cannot wedge [`Server::shutdown`] forever).
fn read_frame_polling(stream: &mut TcpStream, shared: &Shared) -> Result<Option<Message>, NetError> {
    // Counts consecutive idle polls under a requested shutdown while a
    // frame is partially read; any byte of progress resets it.
    let mut drain_polls = 0u32;
    let stalled_draining = |drain_polls: &mut u32| -> Result<(), NetError> {
        if !shared.stop.load(Ordering::SeqCst) {
            return Ok(());
        }
        *drain_polls += 1;
        if *drain_polls >= SHUTDOWN_MID_FRAME_GRACE_POLLS {
            return Err(NetError::Corrupt(
                "peer stalled mid-frame past the shutdown drain grace".to_string(),
            ));
        }
        Ok(())
    };
    let mut header = [0u8; 8];
    let mut filled = 0;
    while filled < header.len() {
        match stream.read(&mut header[filled..]) {
            Ok(0) => {
                return if filled == 0 {
                    Ok(None)
                } else {
                    Err(NetError::Corrupt(format!(
                        "stream closed {filled} bytes into a frame header"
                    )))
                }
            }
            Ok(n) => {
                filled += n;
                drain_polls = 0;
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if filled == 0 {
                    if shared.stop.load(Ordering::SeqCst) {
                        return Ok(None);
                    }
                } else {
                    stalled_draining(&mut drain_polls)?;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(NetError::Io(e)),
        }
    }
    let len = u32::from_le_bytes(header[0..4].try_into().unwrap());
    let crc = u32::from_le_bytes(header[4..8].try_into().unwrap());
    if len > MAX_WIRE_FRAME {
        return Err(NetError::Corrupt(format!(
            "frame length {len} exceeds maximum {MAX_WIRE_FRAME}"
        )));
    }
    let mut payload = vec![0u8; len as usize];
    let mut got = 0;
    while got < payload.len() {
        match stream.read(&mut payload[got..]) {
            Ok(0) => {
                return Err(NetError::Corrupt(format!(
                    "stream closed {got} bytes into a {len}-byte payload"
                )))
            }
            Ok(n) => {
                got += n;
                drain_polls = 0;
            }
            // Mid-frame timeouts keep reading even under shutdown — the
            // peer already committed to this frame — but only within
            // the drain grace, or a stalled peer blocks shutdown.
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                stalled_draining(&mut drain_polls)?;
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(NetError::Io(e)),
        }
    }
    if crc32(&payload) != crc {
        return Err(NetError::Corrupt("frame CRC mismatch".to_string()));
    }
    crate::proto::decode_payload(&payload).map(Some)
}

fn err(code: ErrorCode, detail: impl Into<String>) -> Message {
    Message::Err {
        code,
        detail: detail.into(),
    }
}

fn serve_error_reply(e: &ServeError) -> Message {
    match e {
        ServeError::Machine(m) => err(ErrorCode::Machine, m.to_string()),
        other => err(ErrorCode::Internal, other.to_string()),
    }
}

fn dispatch(shared: &Shared, conn: &mut Conn, msg: Message) -> Message {
    match msg {
        Message::Open { session, program, n } => {
            let Some(prog) = shared.registry.get(&program) else {
                return err(
                    ErrorCode::NoSession,
                    format!("unknown program {program:?} (registry: {:?})", shared.registry.names()),
                );
            };
            match shared.store.session(&session, prog, n) {
                Ok(s) => {
                    let seq = s.seq();
                    conn.session = Some(s);
                    Message::Ok { seq }
                }
                Err(e) => serve_error_reply(&e),
            }
        }
        Message::Apply(req) => match write_gate(shared, conn) {
            Ok(session) => {
                // A bulk write is admitted at the weight of its live
                // defined set, not as one request — the evaluation and
                // maintenance cost it admits scales with Δ.
                let weight = session.write_weight(std::slice::from_ref(&req));
                let _permit = match shared.admission.try_admit(weight) {
                    Ok(p) => p,
                    Err(why) => {
                        shared.obs.shed.inc();
                        return err(ErrorCode::Overloaded, why.detail(shared.admission.config()));
                    }
                };
                match session.apply(&req) {
                    Ok(seq) => Message::Ok { seq },
                    Err(e) => serve_error_reply(&e),
                }
            }
            Err(reply) => reply,
        },
        Message::ApplyBatch(reqs) => match write_gate(shared, conn) {
            Ok(session) => {
                let weight = session.write_weight(&reqs);
                let _permit = match shared.admission.try_admit(weight) {
                    Ok(p) => p,
                    Err(why) => {
                        shared.obs.shed.inc();
                        return err(ErrorCode::Overloaded, why.detail(shared.admission.config()));
                    }
                };
                match session.apply_batch(&reqs) {
                    Ok(seq) => Message::Ok { seq },
                    Err(ServeError::Batch { index, seq, source }) => Message::BatchErr {
                        index: index.min(u32::MAX as usize) as u32,
                        seq,
                        code: match source.as_ref() {
                            ServeError::Machine(_) => ErrorCode::Machine,
                            _ => ErrorCode::Internal,
                        },
                        detail: source.to_string(),
                    },
                    Err(e) => serve_error_reply(&e),
                }
            }
            Err(reply) => reply,
        },
        Message::Query { name, args } => {
            let Some(session) = conn.session.as_ref() else {
                return err(ErrorCode::NoSession, "no session bound; send Open first");
            };
            let started = dynfo_obs::clock();
            let outcome = if name.is_empty() {
                session.query()
            } else {
                session.query_named(&name, &args)
            };
            shared.obs.query_ns.observe_since(started);
            match outcome {
                Ok(value) => Message::Answer { value },
                Err(e) => serve_error_reply(&e),
            }
        }
        Message::Metrics => Message::MetricsText {
            // Clamped to the frame limit: the registry grows without
            // bound, the wire frame does not.
            text: match shared.handle.registry() {
                Some(reg) => clamp_metrics_text(reg.render_prometheus()),
                None => String::new(),
            },
        },
        Message::FetchLog { after_seq, max } => {
            let Some(session) = conn.session.as_ref() else {
                return err(ErrorCode::NoSession, "no session bound; send Open first");
            };
            let max = max.min(MAX_BATCH) as usize;
            // Ship nothing past the fsync watermark: a racing group
            // commit's frames are visible on disk before its sync_data
            // returns, and those must not reach a follower until a
            // crash could no longer roll them back.
            let durable = session.durable_seq();
            match read_log_after(session.dir(), after_seq, max) {
                Ok(mut entries) => {
                    if let Some(cut) = entries.iter().position(|e| e.seq > durable) {
                        entries.truncate(cut);
                    }
                    // Cap by encoded bytes too: MAX_BATCH entries can
                    // outgrow the frame the peer will accept.
                    entries.truncate(log_chunk_fit(&entries));
                    Message::LogChunk {
                        primary_seq: session.seq(),
                        entries,
                    }
                }
                Err(e) => serve_error_reply(&e),
            }
        }
        Message::Ping => Message::Pong,
        // Server-to-client kinds arriving at the server are protocol
        // violations; answer typed and keep the connection (they are
        // well-formed, just nonsensical).
        Message::Ok { .. }
        | Message::Answer { .. }
        | Message::Err { .. }
        | Message::BatchErr { .. }
        | Message::MetricsText { .. }
        | Message::LogChunk { .. }
        | Message::Pong => err(ErrorCode::Malformed, "client sent a server-side message kind"),
    }
}

/// The common write preconditions: not read-only, session bound.
fn write_gate<'c>(shared: &Shared, conn: &'c mut Conn) -> Result<&'c Arc<Session>, Message> {
    if shared.config.read_only {
        return Err(err(
            ErrorCode::ReadOnly,
            "this server is a read replica; send writes to the primary",
        ));
    }
    match conn.session.as_ref() {
        Some(s) => Ok(s),
        None => Err(err(ErrorCode::NoSession, "no session bound; send Open first")),
    }
}

// ---------------------------------------------------------------------
// Process signals: SIGTERM / SIGINT set a flag the serving loop polls.
// ---------------------------------------------------------------------

static SIGNAL_SHUTDOWN: AtomicBool = AtomicBool::new(false);

/// True once SIGTERM or SIGINT (ctrl-c) has been received after
/// [`install_signal_handlers`]. Binaries poll this and call
/// [`Server::shutdown`] when it flips.
pub fn shutdown_requested() -> bool {
    SIGNAL_SHUTDOWN.load(Ordering::SeqCst)
}

/// Request shutdown programmatically (tests; also lets an embedder wire
/// its own signal source to the same drain path).
pub fn request_shutdown() {
    SIGNAL_SHUTDOWN.store(true, Ordering::SeqCst);
}

#[cfg(unix)]
extern "C" fn on_signal(_sig: i32) {
    // Only async-signal-safe work here: one atomic store.
    SIGNAL_SHUTDOWN.store(true, Ordering::SeqCst);
}

/// Install SIGTERM and SIGINT handlers that flip
/// [`shutdown_requested`]. No-op on non-Unix targets.
pub fn install_signal_handlers() {
    #[cfg(unix)]
    {
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        unsafe {
            signal(SIGINT, on_signal as *const () as usize);
            signal(SIGTERM, on_signal as *const () as usize);
        }
    }
}
