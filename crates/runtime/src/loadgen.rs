//! Client-side instruments for the serve front door: the `/metrics`
//! scraper and the subscriber-churn checker.
//!
//! [`scrape_metrics`] reads a coordinator's (or worker's) Prometheus
//! exposition into a [`MetricsSnapshot`] — server-side truth, never
//! stdout. [`scrape_with_retry`] rides out one mid-scrape restart.
//! The repository benchmark (`servebench`) uses the scraper to
//! bracket the serve knee.
//!
//! [`churn_sweep`] cycles watchers against a running coordinator —
//! connect, `SUBSCRIBE` (with a resume point), read a few snapshots,
//! disconnect — and verifies resume correctness on every reconnect
//! while reporting cycle and reactor-wakeup rates (`eqasm-cli churn`).

use std::collections::BTreeMap;
use std::fmt;
use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use crate::client::Client;
use crate::error::RuntimeError;
use crate::metrics::{default_registry, Counter};
use crate::net::ConnectOptions;
use crate::serve::Submission;
use crate::wire;
use crate::workload::WorkloadSpec;

/// `eqasm_loadgen_churn_cycles_total`, registered in
/// [`default_registry`] (catalogued in METRICS.md).
fn churn_cycles() -> &'static Counter {
    static CYCLES: OnceLock<Arc<Counter>> = OnceLock::new();
    CYCLES.get_or_init(|| {
        default_registry().counter(
            "eqasm_loadgen_churn_cycles_total",
            "Completed subscriber-churn cycles (connect, subscribe, disconnect).",
        )
    })
}

// ---------------------------------------------------------------------------
// /metrics scraping — server-side truth
// ---------------------------------------------------------------------------

/// A `/metrics` scrape failure: which endpoint, and what went wrong.
/// Typed so a caller can retry a mid-scrape coordinator restart once
/// and then *degrade* (report without server counters) instead of
/// aborting.
#[derive(Debug, Clone)]
pub struct ScrapeError {
    /// The metrics endpoint address.
    pub addr: String,
    /// What failed.
    pub detail: String,
}

impl fmt::Display for ScrapeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "metrics scrape of {} failed: {}", self.addr, self.detail)
    }
}

impl std::error::Error for ScrapeError {}

impl From<ScrapeError> for RuntimeError {
    fn from(e: ScrapeError) -> RuntimeError {
        RuntimeError::Transport {
            backend: format!("metrics {}", e.addr),
            message: e.detail,
        }
    }
}

/// One parsed `/metrics` exposition: series name (labels included,
/// exactly as exposed) to sample value.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    series: BTreeMap<String, f64>,
}

impl MetricsSnapshot {
    /// Parses Prometheus text format v0.0.4: comment and blank lines
    /// are skipped, each sample line is `name[{labels}] value`.
    /// Unparseable lines are ignored — a scrape should degrade, not
    /// abort, on exotic series.
    pub fn parse(text: &str) -> MetricsSnapshot {
        let mut series = BTreeMap::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            // The value is the last whitespace-separated token; the
            // name (with its optional label set) is everything before
            // it. Label values may themselves contain spaces, hence
            // rsplit rather than split.
            if let Some((name, value)) = line.rsplit_once(char::is_whitespace) {
                if let Ok(v) = value.trim().parse::<f64>() {
                    series.insert(name.trim().to_owned(), v);
                }
            }
        }
        MetricsSnapshot { series }
    }

    /// The sample for `series` (full name, labels included), if
    /// exposed.
    pub fn get(&self, series: &str) -> Option<f64> {
        self.series.get(series).copied()
    }

    /// Like [`MetricsSnapshot::get`], defaulting to zero — the right
    /// reading for counters, which only appear once their subsystem
    /// has run.
    pub fn value(&self, series: &str) -> f64 {
        self.get(series).unwrap_or(0.0)
    }

    /// Number of series in the snapshot.
    pub fn len(&self) -> usize {
        self.series.len()
    }

    /// Whether the snapshot holds no series at all.
    pub fn is_empty(&self) -> bool {
        self.series.is_empty()
    }
}

/// Scrapes `http://{addr}/metrics` once. A hand-rolled HTTP/1.0 GET —
/// the exact counterpart of the crate's own [`crate::MetricsServer`]
/// responder, so no HTTP client dependency enters the build.
///
/// # Errors
///
/// [`ScrapeError`] on connect/read failure or a non-200 answer.
pub fn scrape_metrics(addr: &str, timeout: Duration) -> Result<MetricsSnapshot, ScrapeError> {
    let fail = |detail: String| ScrapeError {
        addr: addr.to_owned(),
        detail,
    };
    let sock = addr
        .to_socket_addrs()
        .map_err(|e| fail(format!("cannot resolve: {e}")))?
        .next()
        .ok_or_else(|| fail("resolves to no address".into()))?;
    let mut stream =
        TcpStream::connect_timeout(&sock, timeout).map_err(|e| fail(format!("connect: {e}")))?;
    stream
        .set_read_timeout(Some(timeout))
        .and_then(|()| stream.set_write_timeout(Some(timeout)))
        .map_err(|e| fail(format!("deadline: {e}")))?;
    stream
        .write_all(format!("GET /metrics HTTP/1.0\r\nHost: {addr}\r\n\r\n").as_bytes())
        .map_err(|e| fail(format!("request: {e}")))?;
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .map_err(|e| fail(format!("read: {e}")))?;
    let (head, body) = response
        .split_once("\r\n\r\n")
        .ok_or_else(|| fail("no header/body separator in response".into()))?;
    let status = head.lines().next().unwrap_or_default();
    if !status.contains(" 200") {
        return Err(fail(format!("status `{status}`")));
    }
    Ok(MetricsSnapshot::parse(body))
}

/// How long a failed scrape waits before its one retry — enough for a
/// supervised coordinator restart to re-bind its metrics listener.
const SCRAPE_RETRY_PAUSE: Duration = Duration::from_millis(500);

/// [`scrape_metrics`] with exactly one retry after a short pause.
/// A coordinator restarting mid-scrape (crash + supervisor, rolling
/// deploy) drops the first connection; the retry lands on the fresh
/// process. Still failing after the retry is a real outage and
/// surfaces as the typed [`ScrapeError`] of the *second* attempt,
/// with the first attempt's failure folded into the detail.
///
/// # Errors
///
/// [`ScrapeError`] when both attempts fail.
pub fn scrape_with_retry(addr: &str, timeout: Duration) -> Result<MetricsSnapshot, ScrapeError> {
    match scrape_metrics(addr, timeout) {
        Ok(snap) => Ok(snap),
        Err(first) => {
            std::thread::sleep(SCRAPE_RETRY_PAUSE);
            scrape_metrics(addr, timeout).map_err(|second| ScrapeError {
                addr: addr.to_owned(),
                detail: format!("{} (first attempt: {})", second.detail, first.detail),
            })
        }
    }
}

// ---------------------------------------------------------------------------
// Subscriber-churn sweep
// ---------------------------------------------------------------------------

/// Where a sweep points: the coordinator's front door, connect
/// options (deadline, PSK), and its `/metrics` endpoint.
#[derive(Debug, Clone)]
pub struct SweepTarget {
    /// The serve front door (`host:port`).
    pub connect: String,
    /// Connect options for every generated connection.
    pub options: ConnectOptions,
    /// The coordinator's `/metrics` endpoint; `None` runs the sweep
    /// client-side only.
    pub metrics: Option<String>,
}

impl SweepTarget {
    /// A target with default connect options and no metrics endpoint.
    pub fn new(connect: impl Into<String>) -> SweepTarget {
        SweepTarget {
            connect: connect.into(),
            options: ConnectOptions::default(),
            metrics: None,
        }
    }

    /// Returns the target with the given connect options.
    pub fn with_options(mut self, options: ConnectOptions) -> SweepTarget {
        self.options = options;
        self
    }

    /// Returns the target with the given `/metrics` endpoint.
    pub fn with_metrics(mut self, addr: impl Into<String>) -> SweepTarget {
        self.metrics = Some(addr.into());
        self
    }
}

/// Scrape deadline for the churn sweep's boundary scrapes.
const SCRAPE_TIMEOUT: Duration = Duration::from_secs(5);

/// Parameters of a subscriber-churn sweep.
#[derive(Debug, Clone)]
pub struct ChurnConfig {
    /// Concurrent churn workers (each cycles its own connections).
    pub workers: usize,
    /// How long to churn.
    pub duration: Duration,
    /// Snapshots a worker reads before disconnecting — small values
    /// churn hardest.
    pub snapshots_per_cycle: u64,
}

impl Default for ChurnConfig {
    fn default() -> ChurnConfig {
        ChurnConfig {
            workers: 8,
            duration: Duration::from_secs(5),
            snapshots_per_cycle: 2,
        }
    }
}

/// What a churn sweep observed.
#[derive(Debug, Clone)]
pub struct ChurnReport {
    /// Completed connect→subscribe→disconnect cycles.
    pub cycles: u64,
    /// Cycles that subscribed with a resume point (reconnects).
    pub resumed_cycles: u64,
    /// Snapshots delivered across all cycles.
    pub snapshots: u64,
    /// Resume-correctness violations: a snapshot older than the
    /// resume point, or a stream that went backwards. Zero or the
    /// reactor is broken.
    pub resume_violations: u64,
    /// Long-running jobs driven (resubmissions included).
    pub jobs_driven: u64,
    /// Wall-clock the sweep ran for.
    pub duration: Duration,
    /// Cycles per second across all workers.
    pub cycles_per_sec: f64,
    /// Server-side reactor wakeups per second over the sweep, when
    /// metrics were scraped.
    pub reactor_wakeups_per_sec: Option<f64>,
    /// Server-side `eqasm_subscription_resumes_total` delta.
    pub server_resumes: Option<u64>,
}

/// Shared churn scoreboard.
#[derive(Default)]
struct ChurnAccum {
    cycles: u64,
    resumed_cycles: u64,
    snapshots: u64,
    resume_violations: u64,
    jobs_driven: u64,
}

/// Submits generation `generation` of the churn sweep's long-running
/// job: the template as given (its `shots` included), renamed and
/// reseeded per generation.
fn submit_churn_job(
    control: &Client,
    template: &WorkloadSpec,
    generation: u64,
) -> Result<u64, RuntimeError> {
    let mut spec = template.clone();
    spec.weight = 1;
    spec.name = format!("{}-churn{generation}", spec.name);
    spec.base_seed = spec.base_seed.wrapping_add(generation);
    let handles = control.submit(Submission::workload("churn", spec))?;
    Ok(handles[0].job_id())
}

/// Drives the subscriber-churn sweep: `workers` threads repeatedly
/// connect, `SUBSCRIBE` to a shared long-running job (with a resume
/// point after the first cycle), read a few snapshots, and hard-drop
/// the connection — the path that parked-subscriber tests cannot
/// cover. The job is `job_template` as given, resubmitted as a new
/// generation whenever it completes mid-sweep, so its `shots` sets
/// how long each generation lives. Every reconnect asserts resume
/// correctness: no delivered snapshot may precede the resume point,
/// and no stream may go backwards.
///
/// # Errors
///
/// [`RuntimeError`] when the control connection or initial job
/// submission fails; per-cycle transport failures are counted, not
/// fatal.
pub fn churn_sweep(
    job_template: &WorkloadSpec,
    target: &SweepTarget,
    config: &ChurnConfig,
) -> Result<ChurnReport, RuntimeError> {
    if config.workers == 0 {
        return Err(RuntimeError::Spec("churn needs at least one worker".into()));
    }
    let control = Client::connect_opts(&target.connect, target.options.clone())?;
    let first_id = submit_churn_job(&control, job_template, 0)?;

    // (job id, generation): workers reset their resume point when the
    // generation moves under them.
    let current = Arc::new(Mutex::new((first_id, 0u64)));
    let control = Arc::new(Mutex::new(control));
    let accum = Arc::new(Mutex::new(ChurnAccum {
        jobs_driven: 1,
        ..ChurnAccum::default()
    }));

    let before = target
        .metrics
        .as_deref()
        .and_then(|addr| scrape_with_retry(addr, SCRAPE_TIMEOUT).ok());
    let started = Instant::now();
    let deadline = started + config.duration;

    let mut threads = Vec::new();
    for _ in 0..config.workers {
        let target = target.clone();
        let current = Arc::clone(&current);
        let control = Arc::clone(&control);
        let accum = Arc::clone(&accum);
        let job_template = job_template.clone();
        let config = config.clone();
        threads.push(std::thread::spawn(move || {
            // The worker's resume point, valid for (job, generation).
            let mut last_seen: Option<u64> = None;
            let mut my_generation = {
                let c = current.lock().expect("current job poisoned");
                c.1
            };
            while Instant::now() < deadline {
                let (job_id, generation) = *current.lock().expect("current job poisoned");
                if generation != my_generation {
                    last_seen = None;
                    my_generation = generation;
                }
                // Raw subscribe: the Client API intentionally has no
                // "abandon a live stream" — churn needs exactly that,
                // so it speaks the wire directly.
                let Ok((mut stream, _)) = crate::net::handshake(&target.connect, &target.options)
                else {
                    std::thread::sleep(Duration::from_millis(20));
                    continue;
                };
                let sub = wire::Subscribe {
                    job_id,
                    resume_after: last_seen,
                };
                if wire::write_frame(
                    &mut stream,
                    wire::tag::SUBSCRIBE,
                    &wire::encode_subscribe(&sub),
                )
                .is_err()
                {
                    continue;
                }
                let mut stream_max: Option<u64> = None;
                let mut read = 0u64;
                let mut job_over = false;
                while read < config.snapshots_per_cycle && Instant::now() < deadline {
                    let Ok((tag, payload)) = wire::read_frame(&mut stream) else {
                        break;
                    };
                    match tag {
                        wire::tag::SNAPSHOT => {
                            let Ok(snap) = wire::decode_partial_result(&payload) else {
                                break;
                            };
                            let batches = snap.batches_done as u64;
                            let mut a = accum.lock().expect("churn accum poisoned");
                            a.snapshots += 1;
                            // Resume correctness: nothing older than
                            // the resume point (keepalives may repeat
                            // *at* it), nothing going backwards.
                            if sub.resume_after.is_some_and(|r| batches < r)
                                || stream_max.is_some_and(|m| batches < m)
                            {
                                a.resume_violations += 1;
                            }
                            drop(a);
                            stream_max = Some(stream_max.unwrap_or(0).max(batches));
                            read += 1;
                            if snap.done {
                                job_over = true;
                                break;
                            }
                        }
                        wire::tag::RESULT | wire::tag::ERROR => {
                            job_over = true;
                            break;
                        }
                        _ => break,
                    }
                }
                // Hard disconnect mid-stream: drop the socket with
                // the subscription still live.
                drop(stream);
                {
                    let mut a = accum.lock().expect("churn accum poisoned");
                    a.cycles += 1;
                    if sub.resume_after.is_some() {
                        a.resumed_cycles += 1;
                    }
                }
                churn_cycles().inc();
                if let Some(m) = stream_max {
                    last_seen = Some(last_seen.unwrap_or(0).max(m));
                }
                if job_over {
                    // First worker to notice rolls the generation.
                    let mut c = current.lock().expect("current job poisoned");
                    if c.0 == job_id && Instant::now() < deadline {
                        let submitted = submit_churn_job(
                            &control.lock().expect("control client poisoned"),
                            &job_template,
                            generation + 1,
                        );
                        if let Ok(new_id) = submitted {
                            *c = (new_id, generation + 1);
                            accum.lock().expect("churn accum poisoned").jobs_driven += 1;
                        }
                    }
                    drop(c);
                    last_seen = None;
                }
            }
        }));
    }
    for t in threads {
        let _ = t.join();
    }
    let elapsed = started.elapsed();

    let after = target
        .metrics
        .as_deref()
        .and_then(|addr| scrape_with_retry(addr, SCRAPE_TIMEOUT).ok());
    let (reactor_wakeups_per_sec, server_resumes) = match (before, after) {
        (Some(b), Some(a)) => (
            Some(
                (a.value("eqasm_net_reactor_wakeups_total")
                    - b.value("eqasm_net_reactor_wakeups_total"))
                .max(0.0)
                    / elapsed.as_secs_f64().max(f64::MIN_POSITIVE),
            ),
            Some(
                (a.value("eqasm_subscription_resumes_total")
                    - b.value("eqasm_subscription_resumes_total"))
                .max(0.0) as u64,
            ),
        ),
        _ => (None, None),
    };

    let a = accum.lock().expect("churn accum poisoned");
    Ok(ChurnReport {
        cycles: a.cycles,
        resumed_cycles: a.resumed_cycles,
        snapshots: a.snapshots,
        resume_violations: a.resume_violations,
        jobs_driven: a.jobs_driven,
        duration: elapsed,
        cycles_per_sec: a.cycles as f64 / elapsed.as_secs_f64().max(f64::MIN_POSITIVE),
        reactor_wakeups_per_sec,
        server_resumes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_snapshot_parses_the_exposition_format() {
        let text = "# HELP eqasm_queue_depth Shot batches queued.\n\
                    # TYPE eqasm_queue_depth gauge\n\
                    eqasm_queue_depth 17\n\
                    eqasm_shots_completed_total 123456\n\
                    eqasm_jobs_completed_total{outcome=\"ok\"} 41\n\
                    eqasm_jobs_completed_total{outcome=\"failed\"} 1\n\
                    not a sample line\n\
                    eqasm_scrape_micros 153.25\n";
        let snap = MetricsSnapshot::parse(text);
        assert_eq!(snap.get("eqasm_queue_depth"), Some(17.0));
        assert_eq!(snap.get("eqasm_shots_completed_total"), Some(123456.0));
        assert_eq!(
            snap.get("eqasm_jobs_completed_total{outcome=\"ok\"}"),
            Some(41.0)
        );
        assert_eq!(snap.get("eqasm_scrape_micros"), Some(153.25));
        assert_eq!(snap.get("missing"), None);
        assert_eq!(snap.value("missing"), 0.0);
        assert_eq!(snap.len(), 5);
    }
}
