//! The network client for the serve front door: submit jobs to a
//! remote `eqasm-cli serve --listen` coordinator, poll their
//! progress, and stream [`PartialResult`] snapshots — each one a
//! **bit-identical prefix** of the final aggregate, exactly as an
//! in-process [`crate::serve::JobHandle`] poller would see.
//!
//! ## Shape
//!
//! * [`Client::connect`] performs the wire handshake (exact version
//!   match, optional PSK) against the coordinator's acceptor;
//! * [`Client::submit`] sends any [`Submission`] — a prebuilt
//!   [`crate::Job`] or a declarative [`crate::WorkloadSpec`] — and
//!   returns one [`RemoteJobHandle`] per job it expanded to, mirroring
//!   the in-process `JobQueue::submit` API;
//! * [`RemoteJobHandle::poll`] fetches one snapshot,
//!   [`RemoteJobHandle::watch`] streams snapshots until completion
//!   (invoking a callback on each *new* prefix), and
//!   [`RemoteJobHandle::wait`] blocks until the final
//!   [`crate::JobResult`].
//!
//! ## Determinism across the client wire
//!
//! Every deterministic field (histograms, machine stats,
//! mean-`P(|1⟩)`) crosses the wire by bit pattern, so the result a
//! remote client receives is byte-for-byte the result
//! [`crate::ShotEngine::run_job`] would compute for the same job —
//! the serve queue's invariant, now provable from another process on
//! another host (asserted in `tests/client.rs` and in CI).
//!
//! ## Concurrency model
//!
//! One `Client` is one connection, and requests on it are sequential:
//! handles cloned from the same client share the connection behind a
//! mutex, so a long [`RemoteJobHandle::watch`] holds off other
//! requests on *that* client. Connections are cheap — open one client
//! per concurrent watcher when that matters.

use std::net::TcpStream;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::aggregate::JobResult;
use crate::error::RuntimeError;
use crate::net::{handshake, ConnectOptions};
use crate::serve::{PartialResult, Submission};
use crate::wire::{self, ErrorKind, ErrorMsg, RemoteJobInfo, SubmitAck, WireError};

/// How many times a broken [`RemoteJobHandle::watch`] stream retries
/// the connection before surfacing the transport error.
const WATCH_RECONNECT_ATTEMPTS: u32 = 3;

/// Pause between watch reconnect attempts — long enough for a serve
/// restart's listener to come back, short enough that a live stream's
/// resume is prompt.
const WATCH_RECONNECT_BACKOFF: Duration = Duration::from_millis(200);

/// The shared connection state behind a [`Client`] and its handles.
struct ClientConn {
    stream: TcpStream,
    addr: String,
    server_name: String,
    /// The options this connection was opened with — kept so a broken
    /// watch stream can transparently re-handshake (same deadline,
    /// same PSK).
    options: ConnectOptions,
}

impl ClientConn {
    fn transport(&self, e: impl std::fmt::Display) -> RuntimeError {
        RuntimeError::Transport {
            backend: format!("{} ({})", self.server_name, self.addr),
            message: e.to_string(),
        }
    }

    /// One request/response round trip.
    fn request(&mut self, tag: u8, payload: &[u8]) -> Result<(u8, Vec<u8>), RuntimeError> {
        wire::write_frame(&mut self.stream, tag, payload).map_err(|e| self.transport(e))?;
        wire::read_frame(&mut self.stream).map_err(|e| self.transport(e))
    }

    /// Reads one streamed frame (no request side).
    fn next_frame(&mut self) -> Result<(u8, Vec<u8>), RuntimeError> {
        wire::read_frame(&mut self.stream).map_err(|e| self.transport(e))
    }

    /// Maps a typed server error onto the runtime error space.
    fn remote_error(&self, payload: &[u8]) -> RuntimeError {
        match ErrorMsg::decode(payload) {
            Ok(msg) => match msg.kind {
                ErrorKind::AuthFailed => RuntimeError::Auth(msg.message),
                _ => RuntimeError::Service(msg.to_string()),
            },
            Err(e) => self.transport(format!("undecodable error frame: {e}")),
        }
    }

    /// Re-opens and re-handshakes this connection in place (same
    /// address, same options). Job ids survive — they are scoped to
    /// the acceptor, not the connection (and journal recovery keeps
    /// them stable across a coordinator restart too).
    fn reconnect(&mut self) -> Result<(), RuntimeError> {
        let (stream, ack) = handshake(&self.addr, &self.options).map_err(|e| match e {
            WireError::AuthFailed { message } => RuntimeError::Auth(message),
            e => self.transport(e),
        })?;
        self.stream = stream;
        self.server_name = ack.name;
        Ok(())
    }
}

/// A connection to a remote serve coordinator — the network
/// counterpart of holding a [`crate::serve::JobQueue`] in process.
#[derive(Clone)]
pub struct Client {
    conn: Arc<Mutex<ClientConn>>,
}

impl Client {
    /// Connects to a `serve --listen` coordinator with default
    /// options (the [`crate::DEFAULT_IO_TIMEOUT`] request deadline,
    /// no PSK).
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Transport`] when the coordinator is
    /// unreachable or speaks another protocol version;
    /// [`RuntimeError::Auth`] when PSK authentication fails.
    pub fn connect(addr: impl Into<String>) -> Result<Client, RuntimeError> {
        Client::connect_opts(addr, ConnectOptions::default())
    }

    /// [`Client::connect`] with explicit [`ConnectOptions`] (request
    /// deadline, pre-shared key).
    pub fn connect_opts(
        addr: impl Into<String>,
        options: ConnectOptions,
    ) -> Result<Client, RuntimeError> {
        let addr = addr.into();
        let (stream, ack) = handshake(&addr, &options).map_err(|e| match e {
            WireError::AuthFailed { message } => RuntimeError::Auth(message),
            e => RuntimeError::Transport {
                backend: format!("serve {addr}"),
                message: e.to_string(),
            },
        })?;
        Ok(Client {
            conn: Arc::new(Mutex::new(ClientConn {
                stream,
                addr,
                server_name: ack.name,
                options,
            })),
        })
    }

    /// The coordinator's self-reported name.
    pub fn server_name(&self) -> String {
        self.conn
            .lock()
            .expect("client connection poisoned")
            .server_name
            .clone()
    }

    /// Submits work to the remote queue and returns one
    /// [`RemoteJobHandle`] per job it expanded to — one for a
    /// [`Submission::job`], the spec's `weight` instances for a
    /// [`Submission::workload`].
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Service`] for server-side rejections
    /// (admission caps render as their full message; spec build
    /// failures likewise); [`RuntimeError::Transport`] when the
    /// connection fails.
    pub fn submit(
        &self,
        submission: impl Into<Submission>,
    ) -> Result<Vec<RemoteJobHandle>, RuntimeError> {
        let submission = submission.into();
        let mut conn = self.conn.lock().expect("client connection poisoned");
        let payload = wire::encode_submission(&submission)
            .map_err(|e| RuntimeError::Service(format!("submission cannot be encoded: {e}")))?;
        let (tag, resp) = conn.request(wire::tag::SUBMIT, &payload)?;
        match tag {
            wire::tag::SUBMIT_ACK => {
                let ack = SubmitAck::decode(&resp)
                    .map_err(|e| conn.transport(format!("undecodable submit ack: {e}")))?;
                Ok(ack
                    .jobs
                    .into_iter()
                    .map(|info| RemoteJobHandle {
                        conn: Arc::clone(&self.conn),
                        info,
                    })
                    .collect())
            }
            wire::tag::ERROR => Err(conn.remote_error(&resp)),
            other => Err(conn.transport(format!("unexpected submit response tag {other:#04x}"))),
        }
    }

    /// Submits several independent submissions in one pipelined pass:
    /// every `SUBMIT` frame is written before the first ack is read,
    /// so a batch pays one round-trip latency instead of one per
    /// submission — the batching lever the load generator leans on
    /// when its pacer releases a burst of overdue ticks at once.
    ///
    /// The reactor answers frames on one connection strictly in
    /// order, so acks are matched to submissions positionally. The
    /// outer `Err` is transport-level (the connection broke — none of
    /// the remaining acks are recoverable); the inner per-submission
    /// results carry server-side rejections (admission caps, bad
    /// specs) without poisoning their neighbours.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Transport`] when writing or reading frames
    /// fails mid-batch; [`RuntimeError::Service`] when a submission
    /// cannot be encoded (detected before anything is written).
    pub fn submit_batch(
        &self,
        submissions: &[Submission],
    ) -> Result<Vec<Result<Vec<RemoteJobHandle>, RuntimeError>>, RuntimeError> {
        let mut conn = self.conn.lock().expect("client connection poisoned");
        // Encode everything up front: a mid-batch encode failure would
        // desynchronise the positional ack matching.
        let mut payloads = Vec::with_capacity(submissions.len());
        for submission in submissions {
            payloads.push(wire::encode_submission(submission).map_err(|e| {
                RuntimeError::Service(format!("submission cannot be encoded: {e}"))
            })?);
        }
        for payload in &payloads {
            wire::write_frame(&mut conn.stream, wire::tag::SUBMIT, payload)
                .map_err(|e| conn.transport(e))?;
        }
        let mut out = Vec::with_capacity(payloads.len());
        for _ in 0..payloads.len() {
            let (tag, resp) = conn.next_frame()?;
            out.push(match tag {
                wire::tag::SUBMIT_ACK => {
                    let ack = SubmitAck::decode(&resp)
                        .map_err(|e| conn.transport(format!("undecodable submit ack: {e}")))?;
                    Ok(ack
                        .jobs
                        .into_iter()
                        .map(|info| RemoteJobHandle {
                            conn: Arc::clone(&self.conn),
                            info,
                        })
                        .collect())
                }
                wire::tag::ERROR => Err(conn.remote_error(&resp)),
                other => {
                    return Err(
                        conn.transport(format!("unexpected submit response tag {other:#04x}"))
                    )
                }
            });
        }
        Ok(out)
    }

    /// Fetches the current snapshot of the job with coordinator id
    /// `job_id` — jobs submitted on *other* connections included,
    /// which is what `eqasm-cli status --job <id>` relies on.
    ///
    /// # Errors
    ///
    /// As [`RemoteJobHandle::poll`].
    pub fn poll_id(&self, job_id: u64) -> Result<PartialResult, RuntimeError> {
        poll_on(&self.conn, job_id)
    }

    /// Streams snapshots of job `job_id` until completion, then
    /// returns its final result — see [`RemoteJobHandle::watch`].
    ///
    /// # Errors
    ///
    /// As [`RemoteJobHandle::watch`].
    pub fn watch_id(
        &self,
        job_id: u64,
        on_snapshot: impl FnMut(&PartialResult),
    ) -> Result<JobResult, RuntimeError> {
        watch_on(&self.conn, job_id, None, on_snapshot)
    }

    /// Like [`Client::watch_id`], but seeded with a resume point: the
    /// stream delivers only prefixes with strictly more than
    /// `resume_after` folded batches (plus the completion frame).
    ///
    /// This is the cross-*process* half of subscription resume: a
    /// watcher that died can restart, pass the last prefix its
    /// previous life reported, and the reassembled stream is
    /// indistinguishable from an unbroken watch — no re-delivery, no
    /// skips. (`eqasm-cli watch --resume-after <batches>` rides this.)
    ///
    /// # Errors
    ///
    /// As [`RemoteJobHandle::watch`].
    pub fn watch_id_from(
        &self,
        job_id: u64,
        resume_after: Option<u64>,
        on_snapshot: impl FnMut(&PartialResult),
    ) -> Result<JobResult, RuntimeError> {
        watch_on(&self.conn, job_id, resume_after, on_snapshot)
    }

    /// Blocks until job `job_id` completes and returns its final
    /// result.
    ///
    /// # Errors
    ///
    /// As [`RemoteJobHandle::wait`].
    pub fn wait_id(&self, job_id: u64) -> Result<JobResult, RuntimeError> {
        watch_on(&self.conn, job_id, None, |_| {})
    }
}

/// One `POLL` round trip on a shared connection.
fn poll_on(conn: &Arc<Mutex<ClientConn>>, job_id: u64) -> Result<PartialResult, RuntimeError> {
    let mut conn = conn.lock().expect("client connection poisoned");
    let (tag, resp) = conn.request(wire::tag::POLL, &wire::encode_job_id(job_id))?;
    match tag {
        wire::tag::SNAPSHOT => wire::decode_partial_result(&resp)
            .map_err(|e| conn.transport(format!("undecodable snapshot: {e}"))),
        wire::tag::ERROR => Err(conn.remote_error(&resp)),
        other => Err(conn.transport(format!("unexpected poll response tag {other:#04x}"))),
    }
}

/// One `SUBSCRIBE` stream on a shared connection: new-prefix
/// snapshots to the callback, final result (or failure) returned.
///
/// **Resumable**: when the transport breaks mid-stream, the watch
/// re-handshakes (a few attempts, short backoff) and re-subscribes
/// with the last prefix it already folded, so the server skips
/// everything at or below it. The callback sees every prefix exactly
/// once, never out of order — the reassembled stream is
/// indistinguishable from an unbroken watch.
fn watch_on(
    conn: &Arc<Mutex<ClientConn>>,
    job_id: u64,
    resume_after: Option<u64>,
    mut on_snapshot: impl FnMut(&PartialResult),
) -> Result<JobResult, RuntimeError> {
    let mut conn = conn.lock().expect("client connection poisoned");
    // Highest batches_done the callback has seen — the resume point,
    // and the monotonic filter that drops keepalive re-sends and
    // post-reconnect replays alike. Seeded by the caller when a
    // previous watcher (possibly a previous *process*) already folded
    // a prefix.
    let mut last_batches: Option<u64> = resume_after;
    let mut attempts_left = WATCH_RECONNECT_ATTEMPTS;
    'subscribe: loop {
        let sub = wire::Subscribe {
            job_id,
            resume_after: last_batches,
        };
        if let Err(e) = wire::write_frame(
            &mut conn.stream,
            wire::tag::SUBSCRIBE,
            &wire::encode_subscribe(&sub),
        ) {
            resume_or_fail(&mut conn, &mut attempts_left, e)?;
            continue 'subscribe;
        }
        loop {
            let (tag, payload) = match conn.next_frame() {
                Ok(frame) => frame,
                Err(e) => {
                    // Only transport failures resume; typed server
                    // errors below are answers, not outages.
                    let RuntimeError::Transport { message, .. } = e else {
                        return Err(e);
                    };
                    resume_or_fail(&mut conn, &mut attempts_left, message)?;
                    continue 'subscribe;
                }
            };
            match tag {
                wire::tag::SNAPSHOT => {
                    let snapshot = wire::decode_partial_result(&payload)
                        .map_err(|e| conn.transport(format!("undecodable snapshot: {e}")))?;
                    // Keepalives repeat the last prefix so slow jobs
                    // survive the read deadline; only strictly-new
                    // prefixes (or the completion frame) reach the
                    // caller.
                    let batches = snapshot.batches_done as u64;
                    let newer = last_batches.is_none_or(|seen| batches > seen);
                    if newer || snapshot.done {
                        last_batches = Some(last_batches.unwrap_or(0).max(batches));
                        on_snapshot(&snapshot);
                    }
                }
                wire::tag::RESULT => {
                    return wire::decode_job_result(&payload)
                        .map_err(|e| conn.transport(format!("undecodable result: {e}")))
                }
                wire::tag::ERROR => return Err(conn.remote_error(&payload)),
                other => {
                    return Err(conn.transport(format!("unexpected subscription tag {other:#04x}")))
                }
            }
        }
    }
}

/// Re-opens a broken watch connection, spending one attempt per call;
/// surfaces the original failure once the budget is gone (a job that
/// outlives the server should fail as a transport error, not retry
/// forever).
fn resume_or_fail(
    conn: &mut ClientConn,
    attempts_left: &mut u32,
    cause: impl std::fmt::Display,
) -> Result<(), RuntimeError> {
    loop {
        if *attempts_left == 0 {
            return Err(conn.transport(format!("subscription stream broke: {cause}")));
        }
        *attempts_left -= 1;
        std::thread::sleep(WATCH_RECONNECT_BACKOFF);
        match conn.reconnect() {
            Ok(()) => return Ok(()),
            Err(RuntimeError::Transport { .. }) => continue,
            // Auth/protocol regressions on the fresh connection are
            // terminal — retrying cannot fix a rejected key.
            Err(e) => return Err(e),
        }
    }
}

impl std::fmt::Debug for Client {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let conn = self.conn.lock().expect("client connection poisoned");
        f.debug_struct("Client")
            .field("addr", &conn.addr)
            .field("server", &conn.server_name)
            .finish()
    }
}

/// A polling handle to one job queued on a remote coordinator — the
/// network counterpart of [`crate::serve::JobHandle`].
#[derive(Clone)]
pub struct RemoteJobHandle {
    conn: Arc<Mutex<ClientConn>>,
    info: RemoteJobInfo,
}

impl RemoteJobHandle {
    /// The coordinator-assigned job id (stable across connections to
    /// the same acceptor — `eqasm-cli status --job <id>` uses it).
    pub fn job_id(&self) -> u64 {
        self.info.job_id
    }

    /// The job's display name.
    pub fn name(&self) -> &str {
        &self.info.name
    }

    /// Total shots the job was submitted with.
    pub fn shots(&self) -> u64 {
        self.info.shots
    }

    /// Fetches the job's current [`PartialResult`] snapshot — an
    /// exact prefix of the final aggregate.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Transport`] on connection failure,
    /// [`RuntimeError::Service`] if the coordinator no longer knows
    /// the job id.
    pub fn poll(&self) -> Result<PartialResult, RuntimeError> {
        poll_on(&self.conn, self.info.job_id)
    }

    /// Subscribes to the job's progress: `on_snapshot` is invoked for
    /// every *new* folded prefix (server keepalive re-sends are
    /// deduplicated), ending with a snapshot whose `done` is true;
    /// the final [`JobResult`] is then returned — bit-identical to
    /// running the job locally.
    ///
    /// Holds this client's connection for the duration; open another
    /// [`Client`] to watch jobs concurrently.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Service`] when the job failed server-side,
    /// [`RuntimeError::Transport`] when the stream breaks.
    pub fn watch(
        &self,
        on_snapshot: impl FnMut(&PartialResult),
    ) -> Result<JobResult, RuntimeError> {
        watch_on(&self.conn, self.info.job_id, None, on_snapshot)
    }

    /// Blocks until the job completes and returns its final result —
    /// bit-identical to [`crate::ShotEngine::run_job`] on the same
    /// job. Implemented as a subscription that discards intermediate
    /// snapshots.
    ///
    /// # Errors
    ///
    /// As [`RemoteJobHandle::watch`].
    pub fn wait(&self) -> Result<JobResult, RuntimeError> {
        watch_on(&self.conn, self.info.job_id, None, |_| {})
    }
}

impl std::fmt::Debug for RemoteJobHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RemoteJobHandle")
            .field("job_id", &self.info.job_id)
            .field("name", &self.info.name)
            .field("shots", &self.info.shots)
            .finish()
    }
}
