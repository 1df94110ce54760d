//! The open-loop generator: one process, two threads, two connections.
//!
//! * The calling thread is the **pacer**: it sends pre-encoded `SUBMIT`
//!   frames on the submit connection at their scheduled times and never
//!   slows down when the coordinator lags.
//! * One receiver thread reads both connections (`ppoll`, ns timeout).
//!   Each `SUBMIT_ACK` is answered with a pipelined `SUBSCRIBE` on the
//!   stream connection, so every job streams its snapshots. The
//!   coordinator serves one subscription per connection at a time, in
//!   order; a job that finishes while an earlier one still streams
//!   would be seen late, so the receiver also `POLL`s (on the submit
//!   connection) the next few jobs behind the stream's head every
//!   [`POLL_INTERVAL`]. A job is complete when either path first shows
//!   it done.
//!
//! Completion-timing resolution: in-order completions are pushed
//! (one reactor wake-up plus a loopback write, tens of µs); out-of-order
//! ones are seen within [`POLL_INTERVAL`] plus one poll round trip.
//! Latency runs from each job's *scheduled* send time.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use eqasm_runtime::loadgen::{scrape_metrics, MetricsSnapshot};
use eqasm_runtime::wire::{self, tag, ErrorMsg, Hello, HelloAck, SubmitAck, Subscribe};
use eqasm_runtime::{JobResult, PartialResult, Submission};

use crate::trace::Spans;

/// How often the receiver polls jobs queued behind the stream's head.
pub const POLL_INTERVAL: Duration = Duration::from_micros(250);

/// Jobs behind the head polled per round: with two execution slots and
/// tenant-fair batch interleaving, out-of-order finishers sit near the
/// front.
const POLL_DEPTH: usize = 4;

/// Opens a connection and runs the wire handshake.
fn connect(addr: &str) -> Result<TcpStream, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    let hello = Hello {
        version: wire::PROTOCOL_VERSION,
    };
    wire::write_frame(&mut stream, tag::HELLO, &hello.encode())
        .map_err(|e| format!("hello to {addr}: {e}"))?;
    let (t, payload) = wire::read_frame(&mut stream).map_err(|e| format!("hello ack: {e}"))?;
    if t != tag::HELLO_ACK {
        return Err(format!("{addr} answered the handshake with tag {t:#04x}"));
    }
    let ack = HelloAck::decode(&payload).map_err(|e| format!("hello ack: {e}"))?;
    if ack.version != wire::PROTOCOL_VERSION {
        return Err(format!(
            "{addr} negotiated wire v{}, the benchmark speaks v{}",
            ack.version,
            wire::PROTOCOL_VERSION
        ));
    }
    Ok(stream)
}

/// A `SUBMIT` frame, encoded before the window opens.
pub fn submit_frame(submission: &Submission) -> Result<Vec<u8>, String> {
    let payload = wire::encode_submission(submission).map_err(|e| e.to_string())?;
    wire::encode_frame(tag::SUBMIT, &payload).map_err(|e| e.to_string())
}

/// How one offered job ended.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    Ok,
    Failed(String),
    Refused(String),
    TimedOut,
}

/// Everything observed about one offered job (times in ns from the
/// window's start).
#[derive(Debug, Clone)]
pub struct JobRec {
    pub scheduled_ns: u64,
    pub sent_ns: u64,
    pub acked_ns: Option<u64>,
    pub job_id: Option<u64>,
    pub subscribed_ns: Option<u64>,
    pub done_ns: Option<u64>,
    pub seen_by_poll: bool,
    pub outcome: Option<Outcome>,
    /// `SNAPSHOT` frames streamed for this job.
    pub snapshots: u32,
    pub final_snapshot: Option<PartialResult>,
    pub result: Option<JobResult>,
}

/// One window's settings.
#[derive(Debug, Clone, Copy)]
pub struct WindowConfig {
    pub rate: f64,
    pub duration: Duration,
    /// How long after the last send jobs may still complete.
    pub drain: Duration,
    /// Stop limit: offered-but-unfinished jobs at which sending stops.
    pub stop_backlog: usize,
}

/// What a window measured.
#[derive(Debug)]
pub struct WindowReport {
    pub jobs: Vec<JobRec>,
    /// The generator's own lateness per send, in ms: how long after its
    /// due time (or after the previous write returned, if later) the
    /// pacer started writing it.
    pub lateness_ms: Vec<f64>,
    /// Per send, how far past its due time the previous write blocked
    /// the pacer (in ms): the coordinator not reading its socket.
    pub backpressure_ms: Vec<f64>,
    /// Wall time from the window's start to its last send.
    pub send_span: Duration,
    /// Wall time from the window's start until every job ended.
    pub total_span: Duration,
    /// This process's CPU seconds over the window.
    pub gen_cpu_s: f64,
    pub polls: u64,
    /// Whether the stop limit ended sending early.
    pub stopped_early: bool,
    /// The coordinator's `/metrics` right after the last send.
    pub send_end: MetricsSnapshot,
    pub spans: Option<Spans>,
}

impl WindowReport {
    pub fn count(&self, pred: impl Fn(&Outcome) -> bool) -> u64 {
        self.jobs
            .iter()
            .filter(|j| j.outcome.as_ref().is_some_and(&pred))
            .count() as u64
    }
}

enum Expect {
    Submit(usize),
    Poll(usize),
}

/// Shared between the pacer and the receiver.
struct Shared {
    /// Write half of the submit connection. A writer queues its
    /// [`Expect`] (under `expect`) while holding this lock, so responses
    /// and expectations stay in wire order.
    writer: Mutex<TcpStream>,
    /// What each outstanding response on the submit connection answers.
    /// Locked on its own, so the receiver never waits on a blocked write.
    expect: Mutex<VecDeque<Expect>>,
    /// Send times (ns), written by the pacer before its frame goes out.
    sent_ns: Vec<AtomicU64>,
    sent: AtomicUsize,
    ended: AtomicUsize,
    /// ns from the window start at which sending ended (0 = still
    /// sending).
    send_done_ns: AtomicU64,
    failed: AtomicBool,
}

/// Offers `frames[i]` at `i / rate` seconds for `duration`, then waits
/// for the offered jobs to end. `frames` must hold at least
/// `rate * duration + 1` frames.
pub fn run_window(
    addr: &str,
    metrics_addr: &str,
    frames: &[Vec<u8>],
    cfg: WindowConfig,
    trace: bool,
) -> Result<WindowReport, String> {
    let submit = connect(addr)?;
    let stream = connect(addr)?;
    let total = ((cfg.rate * cfg.duration.as_secs_f64()).ceil() as usize).min(frames.len());
    let shared = Shared {
        writer: Mutex::new(submit.try_clone().map_err(|e| e.to_string())?),
        expect: Mutex::new(VecDeque::new()),
        sent_ns: (0..total).map(|_| AtomicU64::new(0)).collect(),
        sent: AtomicUsize::new(0),
        ended: AtomicUsize::new(0),
        send_done_ns: AtomicU64::new(0),
        failed: AtomicBool::new(false),
    };
    let cpu_before = crate::sys::cpu_seconds("self").map_err(|e| e.to_string())?;
    let start = Instant::now() + Duration::from_millis(2);
    let (pacer, receiver) = std::thread::scope(|scope| {
        let receiver = scope.spawn(|| receive(&shared, submit, stream, start, cfg, trace));
        let pacer = pace(&shared, frames, total, start, cfg, metrics_addr);
        (pacer, receiver.join())
    });
    let gen_cpu_s = crate::sys::cpu_seconds("self").map_err(|e| e.to_string())? - cpu_before;
    let Paced {
        lateness_ms,
        backpressure_ms,
        stopped_early,
        send_span,
        send_end,
    } = pacer?;
    let (mut jobs, polls, spans, total_span) =
        receiver.map_err(|_| "generator receiver panicked".to_owned())??;
    jobs.truncate(shared.sent.load(Ordering::SeqCst));
    for (i, job) in jobs.iter_mut().enumerate() {
        job.sent_ns = shared.sent_ns[i].load(Ordering::SeqCst);
        if job.outcome.is_none() {
            job.outcome = Some(Outcome::TimedOut);
        }
    }
    Ok(WindowReport {
        jobs,
        lateness_ms,
        backpressure_ms,
        send_span,
        total_span,
        gen_cpu_s,
        polls,
        stopped_early,
        send_end,
        spans,
    })
}

/// The pacer: sends on schedule until the window ends or the backlog
/// stop limit trips.
fn pace(
    shared: &Shared,
    frames: &[Vec<u8>],
    total: usize,
    start: Instant,
    cfg: WindowConfig,
    metrics_addr: &str,
) -> Result<Paced, String> {
    let mut lateness = Vec::with_capacity(total);
    let mut backpressure = Vec::with_capacity(total);
    let mut stopped_early = false;
    let mut last_write_end = start;
    let result = (|| {
        for (i, frame) in frames.iter().enumerate().take(total) {
            let due = start + Duration::from_secs_f64(i as f64 / cfg.rate);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            if shared.failed.load(Ordering::SeqCst) {
                return Err("generator receiver failed".to_owned());
            }
            let backlog = i - shared.ended.load(Ordering::SeqCst);
            if backlog > cfg.stop_backlog {
                stopped_early = true;
                break;
            }
            let mut writer = shared.writer.lock().expect("submit writer poisoned");
            let sent = Instant::now();
            shared.sent_ns[i].store(ns(start, sent), Ordering::SeqCst);
            shared
                .expect
                .lock()
                .expect("expect queue poisoned")
                .push_back(Expect::Submit(i));
            writer
                .write_all(frame)
                .map_err(|e| format!("submit write: {e}"))?;
            drop(writer);
            shared.sent.store(i + 1, Ordering::SeqCst);
            let ms = |d: Duration| d.as_secs_f64() * 1e3;
            lateness.push(ms(sent.saturating_duration_since(due.max(last_write_end))));
            backpressure.push(ms(last_write_end.saturating_duration_since(due)));
            last_write_end = Instant::now();
        }
        Ok(())
    })();
    let send_span = start.elapsed();
    let send_end = scrape_metrics(metrics_addr, Duration::from_secs(5))
        .map_err(|e| format!("scrape at send end: {e}"));
    shared
        .send_done_ns
        .store(ns(start, Instant::now()).max(1), Ordering::SeqCst);
    let out = result.and_then(|()| {
        Ok(Paced {
            lateness_ms: lateness,
            backpressure_ms: backpressure,
            stopped_early,
            send_span,
            send_end: send_end?,
        })
    });
    if out.is_err() {
        shared.failed.store(true, Ordering::SeqCst);
    }
    out
}

/// What the pacer observed.
struct Paced {
    lateness_ms: Vec<f64>,
    backpressure_ms: Vec<f64>,
    stopped_early: bool,
    send_span: Duration,
    send_end: MetricsSnapshot,
}

fn ns(start: Instant, t: Instant) -> u64 {
    t.saturating_duration_since(start).as_nanos() as u64
}

type Received = (Vec<JobRec>, u64, Option<Spans>, Duration);

fn receive(
    shared: &Shared,
    submit: TcpStream,
    stream: TcpStream,
    start: Instant,
    cfg: WindowConfig,
    trace: bool,
) -> Result<Received, String> {
    let out = receive_inner(shared, submit, stream, start, cfg, trace);
    if out.is_err() {
        shared.failed.store(true, Ordering::SeqCst);
    }
    out
}

fn receive_inner(
    shared: &Shared,
    mut submit: TcpStream,
    mut stream: TcpStream,
    start: Instant,
    cfg: WindowConfig,
    trace: bool,
) -> Result<Received, String> {
    let n = shared.sent_ns.len();
    let mut jobs: Vec<JobRec> = (0..n)
        .map(|i| JobRec {
            scheduled_ns: (i as f64 / cfg.rate * 1e9) as u64,
            sent_ns: 0,
            acked_ns: None,
            job_id: None,
            subscribed_ns: None,
            done_ns: None,
            seen_by_poll: false,
            outcome: None,
            snapshots: 0,
            final_snapshot: None,
            result: None,
        })
        .collect();
    let mut spans = trace.then(|| Spans::new(start));
    // Jobs subscribed on the stream connection, in subscription order;
    // the front is the one the coordinator is streaming.
    let mut chain: VecDeque<usize> = VecDeque::new();
    let mut submit_reader = wire::FrameReader::new(wire::MAX_FRAME_LEN);
    let mut stream_reader = wire::FrameReader::new(wire::MAX_FRAME_LEN);
    let mut buf = vec![0u8; 1 << 16];
    let mut polls_in_flight = 0usize;
    let mut polls = 0u64;
    let mut next_poll = Instant::now();
    let fds = [submit.as_raw_fd(), stream.as_raw_fd()];
    let mut ended = 0usize;
    loop {
        let send_done = shared.send_done_ns.load(Ordering::SeqCst);
        if send_done > 0 {
            if ended >= shared.sent.load(Ordering::SeqCst) {
                break;
            }
            if Instant::now() > start + Duration::from_nanos(send_done) + cfg.drain {
                break;
            }
        }
        if shared.failed.load(Ordering::SeqCst) {
            return Err("generator pacer failed".to_owned());
        }
        let waiting_behind = chain.iter().skip(1).any(|&i| jobs[i].done_ns.is_none());
        let now = Instant::now();
        let timeout = if waiting_behind && polls_in_flight == 0 {
            next_poll.saturating_duration_since(now)
        } else {
            Duration::from_millis(1)
        };
        let ready = crate::sys::wait_readable(&fds, timeout).map_err(|e| e.to_string())?;
        if ready[0] {
            let got = submit
                .read(&mut buf)
                .map_err(|e| format!("submit read: {e}"))?;
            if got == 0 {
                return Err("coordinator closed the submit connection".to_owned());
            }
            submit_reader.extend(&buf[..got]);
            while let Some((t, payload)) = submit_reader.next_frame().map_err(|e| e.to_string())? {
                let at = ns(start, Instant::now());
                let expect = shared
                    .expect
                    .lock()
                    .expect("expect queue poisoned")
                    .pop_front()
                    .ok_or("response with no request outstanding")?;
                match expect {
                    Expect::Submit(i) => match t {
                        tag::SUBMIT_ACK => {
                            let ack = SubmitAck::decode(&payload).map_err(|e| e.to_string())?;
                            let id = ack.jobs.first().ok_or("empty submit ack")?.job_id;
                            let sub = Subscribe {
                                job_id: id,
                                resume_after: None,
                            };
                            wire::write_frame(
                                &mut stream,
                                tag::SUBSCRIBE,
                                &wire::encode_subscribe(&sub),
                            )
                            .map_err(|e| format!("subscribe write: {e}"))?;
                            let job = &mut jobs[i];
                            job.sent_ns = shared.sent_ns[i].load(Ordering::SeqCst);
                            job.acked_ns = Some(at);
                            job.job_id = Some(id);
                            job.subscribed_ns = Some(ns(start, Instant::now()));
                            chain.push_back(i);
                        }
                        tag::ERROR => {
                            let msg = ErrorMsg::decode(&payload)
                                .map(|m| m.to_string())
                                .unwrap_or_else(|e| e.to_string());
                            let job = &mut jobs[i];
                            job.sent_ns = shared.sent_ns[i].load(Ordering::SeqCst);
                            job.acked_ns = Some(at);
                            job.done_ns = Some(at);
                            job.outcome = Some(if msg.to_lowercase().contains("admission") {
                                Outcome::Refused(msg)
                            } else {
                                Outcome::Failed(msg)
                            });
                            ended += 1;
                            shared.ended.store(ended, Ordering::SeqCst);
                        }
                        other => return Err(format!("unexpected submit response {other:#04x}")),
                    },
                    Expect::Poll(i) => {
                        polls_in_flight -= 1;
                        if t == tag::SNAPSHOT {
                            let snap =
                                wire::decode_partial_result(&payload).map_err(|e| e.to_string())?;
                            if snap.done && jobs[i].done_ns.is_none() {
                                jobs[i].done_ns = Some(at);
                                jobs[i].seen_by_poll = true;
                            }
                        }
                    }
                }
            }
        }
        if ready[1] {
            let got = stream
                .read(&mut buf)
                .map_err(|e| format!("stream read: {e}"))?;
            if got == 0 {
                return Err("coordinator closed the stream connection".to_owned());
            }
            stream_reader.extend(&buf[..got]);
            while let Some((t, payload)) = stream_reader.next_frame().map_err(|e| e.to_string())? {
                let at = ns(start, Instant::now());
                let &i = chain.front().ok_or("stream frame with no subscription")?;
                let job = &mut jobs[i];
                match t {
                    tag::SNAPSHOT => {
                        job.snapshots += 1;
                        let snap =
                            wire::decode_partial_result(&payload).map_err(|e| e.to_string())?;
                        if snap.done {
                            job.done_ns.get_or_insert(at);
                            job.final_snapshot = Some(snap);
                        }
                        continue;
                    }
                    tag::RESULT => {
                        job.result =
                            Some(wire::decode_job_result(&payload).map_err(|e| e.to_string())?);
                        job.outcome = Some(Outcome::Ok);
                    }
                    tag::ERROR => {
                        let msg = ErrorMsg::decode(&payload)
                            .map(|m| m.to_string())
                            .unwrap_or_else(|e| e.to_string());
                        job.outcome = Some(Outcome::Failed(msg));
                    }
                    other => return Err(format!("unexpected stream frame {other:#04x}")),
                }
                job.done_ns.get_or_insert(at);
                chain.pop_front();
                ended += 1;
                shared.ended.store(ended, Ordering::SeqCst);
                if let Some(spans) = spans.as_mut() {
                    record_spans(spans, start, i, job);
                }
            }
        }
        let now = Instant::now();
        if polls_in_flight == 0 && now >= next_poll {
            let behind: Vec<usize> = chain
                .iter()
                .skip(1)
                .copied()
                .filter(|&i| jobs[i].done_ns.is_none())
                .take(POLL_DEPTH)
                .collect();
            // Never wait behind the pacer's write: skip this round.
            let writer = if behind.is_empty() {
                None
            } else {
                shared.writer.try_lock().ok()
            };
            if let Some(mut writer) = writer {
                for i in behind {
                    let id = jobs[i].job_id.expect("subscribed jobs are acked");
                    shared
                        .expect
                        .lock()
                        .expect("expect queue poisoned")
                        .push_back(Expect::Poll(i));
                    wire::write_frame(&mut *writer, tag::POLL, &wire::encode_job_id(id))
                        .map_err(|e| format!("poll write: {e}"))?;
                    polls_in_flight += 1;
                    polls += 1;
                }
                next_poll = now + POLL_INTERVAL;
            }
        }
    }
    Ok((jobs, polls, spans, start.elapsed()))
}

/// Spans of one finished job: the job itself (scheduled → done) with
/// the generator's send delay, the submit round trip and the result
/// stream as children.
fn record_spans(spans: &mut Spans, start: Instant, i: usize, job: &JobRec) {
    let at = |n: u64| start + Duration::from_nanos(n);
    let done = job.done_ns.unwrap_or(0);
    let root = spans.push("job", at(job.scheduled_ns), at(done), None, i as u64);
    spans.push(
        "gen.send_delay",
        at(job.scheduled_ns),
        at(job.sent_ns.max(job.scheduled_ns)),
        Some(root),
        i as u64,
    );
    if let Some(acked) = job.acked_ns {
        spans.push(
            "client.submit",
            at(job.sent_ns),
            at(acked),
            Some(root),
            i as u64,
        );
    }
    if let Some(sub) = job.subscribed_ns {
        spans.push("client.stream", at(sub), at(done), Some(root), i as u64);
    }
}
