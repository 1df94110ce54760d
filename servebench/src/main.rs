//! `servebench`: drives a real `eqasm-cli serve` coordinator from
//! outside with an open-loop generator and reports end-to-end metrics
//! (`--trace 0`) or the per-layer ledger (`--trace 1`) of one workload.
//! See `README.md` next to this crate for workloads, metrics and the
//! command that runs it.

mod coord;
mod gen;
mod layers;
mod report;
mod stats;
mod sys;
mod trace;
mod verify;
mod workload;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use eqasm_runtime::loadgen::MetricsSnapshot;
use eqasm_runtime::{default_batch_size, Client};

use coord::Coordinator;
use gen::{Outcome, WindowConfig, WindowReport};
use stats::{median, percentile, sorted, tail, Bracket, Tail};
use workload::{Planned, Workload};

/// [`tail`], or the maximum (level 1) when the sample is too small to
/// support a percentile with ten samples beyond it.
fn tail_or_max(sorted: &[f64]) -> Tail {
    tail(sorted).unwrap_or(Tail {
        value: sorted.last().copied().unwrap_or(0.0),
        level: 1.0,
        samples: sorted.len(),
    })
}

/// Coordinator set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// A rung whose generator ran later than this against its schedule (at
/// its tail percentile) did not offer the rate it claims.
const GEN_LATE_BOUND_MS: f64 = 5.0;
/// A fixed-rate part is valid when the generator's own lateness p90 is
/// at most this. Undisturbed, the pacer wakes ~0.1 ms late; more means
/// the host stalled the generator too, and such a part is measured
/// again rather than counted.
const GEN_LATE_VALID_P90_MS: f64 = 0.25;
/// Re-measured parts allowed per run (keeps a run's length bounded on a
/// host that stays disturbed; the last attempt then counts, flagged).
const MAX_RETRIES: usize = 3;
/// A stable rung completes at least (1 - ε) of the jobs due.
const COMPLETION_EPSILON: f64 = 0.05;
/// Rate search: ramp factor, bisection tolerance (hi/lo), rung cap.
const RAMP_FACTOR: f64 = 1.5;
const BRACKET_TOLERANCE: f64 = 1.055;
const MAX_RUNGS: usize = 9;
/// Shares of `--seconds` for the fixed-rate parts together and for each
/// rung; a rung also lasts long enough to offer [`RUNG_MIN_JOBS`].
const FIXED_SHARE: f64 = 0.5;
const RUNG_SHARE: f64 = 0.1;
const RUNG_MIN_JOBS: f64 = 80.0;
/// The fixed-rate measurement is split into this many parts, spread
/// between the search's rungs; each figure is the median over parts, so
/// a slow spell of a shared host moves one part, not the figure.
const FIXED_PARTS: usize = 5;
/// Stop limit: sending stops once this many seconds of offered traffic
/// are unfinished.
const STOP_BACKLOG_S: f64 = 0.75;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    cli: PathBuf,
    workdir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut cli = None;
    let mut workdir = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload `{value}` (expected {})", names.join("|"))
                })?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1.0..=600.0).contains(&s) {
                    return Err("--seconds must be within 1..=600".to_owned());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                })
            }
            "--cli" => cli = Some(PathBuf::from(value)),
            "--workdir" => workdir = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        cli: cli.ok_or("--cli is required")?,
        workdir: workdir.ok_or("--workdir is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("servebench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(outcome) => match outcome.to_json() {
            Ok(json) => {
                println!("{json}");
                if outcome.correct {
                    ExitCode::SUCCESS
                } else {
                    eprintln!("servebench: output check failed");
                    ExitCode::FAILURE
                }
            }
            Err(e) => {
                eprintln!("servebench: {e}");
                ExitCode::from(2)
            }
        },
        Err(e) => {
            eprintln!("servebench: {e}");
            ExitCode::from(2)
        }
    }
}

/// A fixed-rate or rung window with the coordinator readings around it.
struct Measured {
    planned: Vec<Planned>,
    report: WindowReport,
    before: MetricsSnapshot,
    after: MetricsSnapshot,
    coord_cpu_s: f64,
    rate: f64,
}

impl Measured {
    fn delta(&self, series: &str) -> f64 {
        self.after.value(series) - self.before.value(series)
    }

    /// Sum of a wire family's deltas over the front door's frame kinds.
    fn delta_family(&self, family: &str) -> f64 {
        WIRE_FRAME_LABELS
            .iter()
            .map(|l| self.delta(&format!("{family}{l}")))
            .sum()
    }

    fn ok(&self) -> u64 {
        self.report.count(|o| *o == Outcome::Ok)
    }

    fn missing(&self) -> u64 {
        self.report.jobs.len() as u64 - self.ok()
    }

    /// Latencies in ms, sorted; a job that did not complete counts as
    /// missing any limit (it sorts last at the drain deadline).
    fn latencies_ms(&self, miss_ms: f64) -> Vec<f64> {
        Measured::latencies(&self.report.jobs, miss_ms)
    }

    fn latencies(jobs: &[gen::JobRec], miss_ms: f64) -> Vec<f64> {
        sorted(
            jobs.iter()
                .map(|j| match (&j.outcome, j.done_ns) {
                    (Some(Outcome::Ok), Some(done)) => {
                        (done.saturating_sub(j.scheduled_ns)) as f64 / 1e6
                    }
                    _ => miss_ms,
                })
                .collect(),
        )
    }

    fn gen_late_tail(&self) -> Tail {
        tail_or_max(&sorted(self.report.lateness_ms.clone()))
    }

    /// Mean batches per job, as the coordinator partitions them (its
    /// queue depth counts batches).
    fn batches_per_job(&self) -> f64 {
        let batches: u64 = self
            .planned
            .iter()
            .take(self.report.jobs.len())
            .map(|p| p.spec.shots.div_ceil(default_batch_size(p.spec.shots)))
            .sum();
        batches as f64 / self.report.jobs.len().max(1) as f64
    }
}

/// Every `{dir,frame}` label pair of `eqasm_wire_frames_total`.
const WIRE_FRAME_LABELS: &[&str] = &[
    "{dir=\"in\",frame=\"submit\"}",
    "{dir=\"in\",frame=\"poll\"}",
    "{dir=\"in\",frame=\"subscribe\"}",
    "{dir=\"in\",frame=\"hello\"}",
    "{dir=\"out\",frame=\"submit_ack\"}",
    "{dir=\"out\",frame=\"snapshot\"}",
    "{dir=\"out\",frame=\"result\"}",
    "{dir=\"out\",frame=\"error\"}",
    "{dir=\"out\",frame=\"hello_ack\"}",
];

fn drain_for(p: &workload::Params) -> Duration {
    Duration::from_secs_f64((p.limit_ms * 40.0 / 1e3).max(3.0))
}

fn window(
    coord: &Coordinator,
    w: Workload,
    seed: u64,
    stream: u64,
    rate: f64,
    duration: Duration,
    trace: bool,
) -> Result<Measured, String> {
    let p = w.params();
    let n = (rate * duration.as_secs_f64()).ceil() as u64 + 1;
    let planned: Vec<Planned> = (0..n).map(|i| w.job(seed, stream, i)).collect();
    let frames = planned
        .iter()
        .map(|p| gen::submit_frame(&p.submission()))
        .collect::<Result<Vec<_>, _>>()?;
    let before = coord.scrape()?;
    let cpu_before = coord.cpu_seconds()?;
    let cfg = WindowConfig {
        rate,
        duration,
        drain: drain_for(&p),
        stop_backlog: (rate * STOP_BACKLOG_S).max(20.0) as usize,
    };
    let report = gen::run_window(&coord.addr, &coord.metrics_addr, &frames, cfg, trace)?;
    let coord_cpu_s = coord.cpu_seconds()? - cpu_before;
    let after = settle(coord, &before, report.jobs.len() as f64)?;
    Ok(Measured {
        planned,
        report,
        before,
        after,
        coord_cpu_s,
        rate,
    })
}

/// Waits until the coordinator has finished every job offered since
/// `before` (timed-out ones included), so the next window starts on an
/// idle queue; returns the final scrape.
fn settle(
    coord: &Coordinator,
    before: &MetricsSnapshot,
    offered: f64,
) -> Result<MetricsSnapshot, String> {
    let finished = |s: &MetricsSnapshot| {
        ["ok", "failed"]
            .iter()
            .map(|o| {
                let series = format!("eqasm_jobs_completed_total{{outcome=\"{o}\"}}");
                s.value(&series) - before.value(&series)
            })
            .sum::<f64>()
    };
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let now = coord.scrape()?;
        if finished(&now) >= offered || Instant::now() > deadline {
            return Ok(now);
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Spawns a coordinator and fills its caches; returns it with the
/// seconds from spawn to warm.
fn set_up(args: &Args, tag: &str) -> Result<(Coordinator, f64), String> {
    let w = args.workload;
    let start = Instant::now();
    let coord = Coordinator::spawn(&args.cli, &args.workdir, tag, w.params().journaled)?;
    let client = Client::connect(coord.addr.as_str()).map_err(|e| e.to_string())?;
    let mut handles = Vec::new();
    for p in w.warmup() {
        handles.extend(client.submit(p.submission()).map_err(|e| e.to_string())?);
    }
    for h in handles {
        h.wait().map_err(|e| format!("warm-up job: {e}"))?;
    }
    Ok((coord, start.elapsed().as_secs_f64()))
}

/// One rung of the sustainable-rate search and its verdict.
struct Rung {
    rate: f64,
    offered: usize,
    missing: u64,
    p50_ms: f64,
    tail: Tail,
    depth_end: f64,
    server_done: f64,
    due: usize,
    gen_late: Tail,
    verdict: Vec<&'static str>,
}

fn judge(m: &Measured, p: &workload::Params) -> Rung {
    let r = &m.report;
    let miss_ms = drain_for(p).as_secs_f64() * 1e3;
    let lat = m.latencies_ms(miss_ms);
    let tail = tail_or_max(&lat);
    let limit_ns = (p.limit_ms * 1e6) as u64;
    let horizon = (r.send_span.as_nanos() as u64).saturating_sub(limit_ns);
    let due = r.jobs.iter().filter(|j| j.scheduled_ns <= horizon).count();
    let ok_series = "eqasm_jobs_completed_total{outcome=\"ok\"}";
    let server_done = r.send_end.value(ok_series) - m.before.value(ok_series);
    let depth_end = r.send_end.value("eqasm_queue_depth");
    let depth_bound = (2.0 * m.rate * p.limit_ms / 1e3).max(4.0) * m.batches_per_job();
    let gen_late = m.gen_late_tail();
    let mut verdict = Vec::new();
    if m.missing() > 0 {
        verdict.push("failures");
    }
    if r.stopped_early {
        verdict.push("stop-limit");
    }
    if tail.value > p.limit_ms {
        verdict.push("latency");
    }
    if depth_end > depth_bound {
        verdict.push("queue-growing");
    }
    if server_done < (1.0 - COMPLETION_EPSILON) * due as f64 {
        verdict.push("completion-lag");
    }
    if gen_late.value > GEN_LATE_BOUND_MS {
        verdict.push("generator-late");
    }
    Rung {
        rate: m.rate,
        offered: r.jobs.len(),
        missing: m.missing(),
        p50_ms: percentile(&lat, 0.5).unwrap_or(miss_ms),
        tail,
        depth_end,
        server_done,
        due,
        gen_late,
        verdict,
    }
}

fn rung_table(rungs: &[Rung]) -> String {
    let mut out = String::from(
        "rung  rate/s  offered  missing  p50_ms  tail_ms (level)  depth_end  done/due  gen_late_ms  verdict\n",
    );
    for (i, r) in rungs.iter().enumerate() {
        out.push_str(&format!(
            "{i:>4}  {:>6.1}  {:>7}  {:>7}  {:>6.2}  {:>7.2} (p{:<4})  {:>9}  {:>4}/{:<4}  {:>11.3}  {}{}\n",
            r.rate,
            r.offered,
            r.missing,
            r.p50_ms,
            r.tail.value,
            r.tail.level * 100.0,
            r.depth_end,
            r.server_done,
            r.due,
            r.gen_late.value,
            if r.verdict.is_empty() { "stable" } else { "unstable: " },
            r.verdict.join(",")
        ));
    }
    out
}

/// The sustainable-rate search, one rung at a time on a fresh stream
/// per rung.
struct Search {
    bracket: Bracket,
    rungs: Vec<Rung>,
}

impl Search {
    fn new(p: &workload::Params) -> Search {
        Search {
            bracket: Bracket::new(
                p.search_start,
                RAMP_FACTOR,
                BRACKET_TOLERANCE,
                p.search_floor,
                p.search_ceiling,
            ),
            rungs: Vec::new(),
        }
    }

    fn done(&self) -> bool {
        self.rungs.len() == MAX_RUNGS || self.bracket.next_rate().is_none()
    }

    /// Runs the next rung; false once the search is finished.
    fn step(
        &mut self,
        coord: &Coordinator,
        args: &Args,
        checked: &mut verify::Checked,
    ) -> Result<bool, String> {
        if self.done() {
            return Ok(false);
        }
        let rate = self.bracket.next_rate().expect("not done");
        let w = args.workload;
        let n = self.rungs.len();
        let rung_len =
            Duration::from_secs_f64((args.seconds * RUNG_SHARE).max(RUNG_MIN_JOBS / rate));
        let m = window(coord, w, args.seed, 1 + n as u64, rate, rung_len, false)?;
        verify::ledger(
            &format!("rung {n}"),
            &m.report,
            m.delta("eqasm_shots_completed_total"),
            checked,
        );
        let rung = judge(&m, &w.params());
        self.bracket.record(rate, rung.verdict.is_empty());
        self.rungs.push(rung);
        Ok(true)
    }

    fn sustainable(&self, p: &workload::Params) -> f64 {
        self.bracket
            .sustainable()
            .unwrap_or(p.search_floor / RAMP_FACTOR)
    }
}

fn context(args: &Args) -> String {
    let commit = std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown (not a git checkout)".to_owned());
    format!(
        "context: workload={} seed={} seconds={} trace={} commit={} available_parallelism={} \
         cpu=\"{}\" workdir_fs={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        commit,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        sys::cpu_model(),
        sys::fs_type(&args.workdir),
    )
}

fn run(args: &Args) -> Result<report::Outcome, String> {
    std::fs::create_dir_all(&args.workdir)
        .map_err(|e| format!("create {}: {e}", args.workdir.display()))?;
    println!("{}", context(args));
    let w = args.workload;
    let p = w.params();
    let mut warnings = Vec::new();
    let mut setups = Vec::new();
    let mut coord = None;
    for k in 0..SETUPS {
        let (c, secs) = set_up(args, &format!("{}-{k}", w.name()))?;
        setups.push(secs);
        if k + 1 < SETUPS {
            warnings.extend(c.stop().warnings);
        } else {
            coord = Some(c);
        }
    }
    let coord = coord.expect("at least one set-up");
    if let Some(dir) = coord.journal_dir() {
        println!(
            "journal: {} (fs {}, batch fsync)",
            dir.display(),
            sys::fs_type(dir)
        );
    }
    let mut checked = verify::Checked::default();
    let outcome = if args.trace {
        traced(args, &coord, &mut checked)?
    } else {
        untraced(args, &coord, &mut checked, &setups)?
    };
    let (metrics, windows) = outcome;
    let stop = coord.stop();
    warnings.extend(stop.warnings);
    if !stop.clean {
        checked
            .problems
            .push("coordinator did not drain cleanly on SIGTERM".to_owned());
    }
    for m in &windows {
        verify::fingerprints(
            &m.planned,
            &m.report,
            p.verify_sample,
            args.seed,
            &mut checked,
        )?;
    }
    for warning in &warnings {
        println!("coordinator warning (recorded, not a failure): {warning}");
    }
    println!(
        "checks: {} results compared with a serial ShotEngine reference; {} problem(s)",
        checked.fingerprints,
        checked.problems.len()
    );
    for problem in &checked.problems {
        println!("CHECK FAILED: {problem}");
    }
    for (name, value) in &metrics {
        println!("{name} = {value} {}", report::unit_of(name).unwrap_or("?"));
    }
    let attempted: u64 = windows.iter().map(|m| m.report.jobs.len() as u64).sum();
    let failed: u64 = windows.iter().map(Measured::missing).sum();
    Ok(report::Outcome {
        correct: checked.problems.is_empty(),
        attempted: attempted.max(1),
        failed,
        metrics,
    })
}

type Metrics = BTreeMap<&'static str, f64>;

/// A fixed-rate window, measured again (while the run's retry budget
/// lasts) when the generator's own lateness shows the host stalled it.
/// `first_rss` takes the coordinator's peak RSS after the run's first
/// window, so it covers the same traffic whatever is re-measured.
fn fixed_window(
    args: &Args,
    coord: &Coordinator,
    duration: Duration,
    stream: u64,
    trace: bool,
    retries: &mut usize,
    first_rss: &mut Option<f64>,
) -> Result<Measured, String> {
    let p = args.workload.params();
    for attempt in 0.. {
        let stream = stream + 1000 * attempt;
        let m = window(
            coord,
            args.workload,
            args.seed,
            stream,
            p.fixed_rps,
            duration,
            trace,
        )?;
        if first_rss.is_none() {
            *first_rss = Some(coord.peak_rss_mib()?);
        }
        let late = percentile(&sorted(m.report.lateness_ms.clone()), 0.9).unwrap_or(0.0);
        if late <= GEN_LATE_VALID_P90_MS {
            return Ok(m);
        }
        if *retries == 0 {
            println!(
                "counted despite a disturbed generator (retry budget spent): lateness p90 {late:.3} ms"
            );
            return Ok(m);
        }
        *retries -= 1;
        println!(
            "invalid window (not counted): generator lateness p90 {late:.3} ms exceeds \
             {GEN_LATE_VALID_P90_MS} ms"
        );
    }
    unreachable!("the attempt loop returns")
}

fn untraced(
    args: &Args,
    coord: &Coordinator,
    checked: &mut verify::Checked,
    setups: &[f64],
) -> Result<(Metrics, Vec<Measured>), String> {
    let p = args.workload.params();
    let part_len = Duration::from_secs_f64(args.seconds * FIXED_SHARE / FIXED_PARTS as f64);
    let mut search = Search::new(&p);
    let mut parts: Vec<Measured> = Vec::new();
    let mut rss = None;
    let mut retries = MAX_RETRIES;
    // Parts and rungs alternate, so both sample the whole run.
    let rungs_per_gap = MAX_RUNGS.div_ceil(FIXED_PARTS);
    for k in 0..FIXED_PARTS {
        let part = fixed_window(
            args,
            coord,
            part_len,
            100 + k as u64,
            false,
            &mut retries,
            &mut rss,
        )?;
        verify::ledger(
            &format!("fixed part {k}"),
            &part.report,
            part.delta("eqasm_shots_completed_total"),
            checked,
        );
        parts.push(part);
        for _ in 0..rungs_per_gap {
            search.step(coord, args, checked)?;
        }
    }
    while search.step(coord, args, checked)? {}
    print!("{}", rung_table(&search.rungs));
    if let Some(hi) = search.bracket.unstable() {
        println!(
            "knee bracket: stable at {:.1} jobs/s, unstable at {hi:.1} jobs/s",
            search.sustainable(&p)
        );
    }

    let miss_ms = drain_for(&p).as_secs_f64() * 1e3;
    let mut p50s = Vec::new();
    let mut tails = Vec::new();
    let mut cpus = Vec::new();
    for (k, part) in parts.iter().enumerate() {
        let lat = part.latencies_ms(miss_ms);
        let t = tail_or_max(&lat);
        let p50 = percentile(&lat, 0.5).expect("jobs offered");
        let cpu = part.coord_cpu_s * 1e3 / part.ok().max(1) as f64;
        println!(
            "fixed part {k}: {} jobs at {:.1} jobs/s, latency p50 {p50:.3} ms, tail {:.3} ms at {}, \
             coordinator cpu {cpu:.3} ms/job, generator lateness {:.3} ms at {}, max backpressure {:.3} ms, \
             {} polls ({} completions first seen by a poll), generator cpu share {:.3}",
            part.report.jobs.len(),
            p.fixed_rps,
            t.value,
            t.describe(),
            part.gen_late_tail().value,
            part.gen_late_tail().describe(),
            part.report.backpressure_ms.iter().copied().fold(0.0, f64::max),
            part.report.polls,
            part.report.jobs.iter().filter(|j| j.seen_by_poll).count(),
            gen_cpu_share(&part.report),
        );
        p50s.push(p50);
        tails.push(t.value);
        cpus.push(cpu);
    }
    let all_lat = sorted(parts.iter().flat_map(|m| m.latencies_ms(miss_ms)).collect());
    let whole = tail_or_max(&all_lat);
    println!(
        "all parts: {} jobs, latency p50 {:.3} ms, tail {:.3} ms at {}; {} part(s) re-measured; \
         set-ups {setups:?} s",
        all_lat.len(),
        percentile(&all_lat, 0.5).expect("jobs offered"),
        whole.value,
        whole.describe(),
        MAX_RETRIES - retries,
    );
    let late = sorted(
        parts
            .iter()
            .flat_map(|m| m.report.lateness_ms.iter().copied())
            .collect(),
    );
    let offered: usize = parts.iter().map(|m| m.report.jobs.len()).sum();
    let ok: u64 = parts.iter().map(Measured::ok).sum();
    let mut m = Metrics::new();
    m.insert("setup_s", median(setups).expect("setups ran"));
    m.insert("sustainable_rps", search.sustainable(&p));
    m.insert("latency_p50_ms", median(&p50s).expect("parts ran"));
    m.insert("latency_tail_ms", median(&tails).expect("parts ran"));
    m.insert("completed_ratio", ok as f64 / offered as f64);
    m.insert("coord_cpu_ms_per_job", median(&cpus).expect("parts ran"));
    m.insert("peak_rss_mb", rss.expect("a part ran"));
    println!(
        "generator: own lateness p90 {:.4} ms over all parts (validity limit {GEN_LATE_VALID_P90_MS} ms)",
        percentile(&late, 0.9).expect("jobs offered")
    );
    Ok((m, parts))
}

fn gen_cpu_share(r: &WindowReport) -> f64 {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
    r.gen_cpu_s / (r.total_span.as_secs_f64() * cores)
}

fn traced(
    args: &Args,
    coord: &Coordinator,
    checked: &mut verify::Checked,
) -> Result<(Metrics, Vec<Measured>), String> {
    let w = args.workload;
    let p = w.params();
    let half = Duration::from_secs_f64(args.seconds * FIXED_SHARE / 2.0);
    let mut retries = MAX_RETRIES;
    let mut rss = None;
    let plain = fixed_window(args, coord, half, 0, false, &mut retries, &mut rss)?;
    let traced = fixed_window(args, coord, half, 100, true, &mut retries, &mut rss)?;
    for (label, m) in [("untraced window", &plain), ("traced window", &traced)] {
        verify::ledger(
            label,
            &m.report,
            m.delta("eqasm_shots_completed_total"),
            checked,
        );
    }
    let miss_ms = drain_for(&p).as_secs_f64() * 1e3;
    let p50 = |m: &Measured| percentile(&m.latencies_ms(miss_ms), 0.5).expect("jobs offered");
    let mut metrics = Metrics::new();
    metrics.insert(
        "trace.overhead_pct",
        (p50(&traced) / p50(&plain) - 1.0) * 100.0,
    );

    let jobs = traced.ok().max(1) as f64;
    let ratio = |hits: f64, misses: f64| {
        if hits + misses > 0.0 {
            hits / (hits + misses)
        } else {
            0.0
        }
    };
    metrics.insert(
        "prefix.hit_ratio",
        ratio(
            traced.delta("eqasm_prefix_cache_hits_total"),
            traced.delta("eqasm_prefix_cache_misses_total"),
        ),
    );
    let executed = traced.delta("eqasm_shots_executed_total");
    metrics.insert(
        "prefix.fork_share",
        if executed > 0.0 {
            traced.delta("eqasm_prefix_fork_shots_total") / executed
        } else {
            0.0
        },
    );
    let snaps: Vec<_> = traced
        .report
        .jobs
        .iter()
        .filter_map(|j| j.final_snapshot.as_ref())
        .collect();
    let waits = sorted(
        snaps
            .iter()
            .map(|s| s.queue_wait.as_secs_f64() * 1e3)
            .collect(),
    );
    let active = sorted(snaps.iter().map(|s| s.active.as_secs_f64() * 1e3).collect());
    metrics.insert(
        "serve.queue_wait_p50_ms",
        percentile(&waits, 0.5).unwrap_or(0.0),
    );
    metrics.insert(
        "serve.queue_wait_tail_ms",
        tail(&waits).map_or(0.0, |t| t.value),
    );
    metrics.insert(
        "serve.active_p50_ms",
        percentile(&active, 0.5).unwrap_or(0.0),
    );
    metrics.insert(
        "serve.program_cache_hit_ratio",
        ratio(
            traced.delta("eqasm_program_cache_hits_total"),
            traced.delta("eqasm_program_cache_misses_total"),
        ),
    );
    metrics.insert(
        "serve.queue_depth_end",
        traced.report.send_end.value("eqasm_queue_depth"),
    );
    let frames = traced.delta_family("eqasm_wire_frames_total");
    let bytes = traced.delta_family("eqasm_wire_bytes_total");
    metrics.insert("wire.frames_per_job", frames / jobs);
    metrics.insert("wire.bytes_per_job", bytes / jobs);
    metrics.insert(
        "net.wakeups_per_job",
        traced.delta("eqasm_net_reactor_wakeups_total") / jobs,
    );
    metrics.insert(
        "net.snapshots_per_job",
        traced.delta("eqasm_wire_frames_total{dir=\"out\",frame=\"snapshot\"}") / jobs,
    );
    let appends = traced.delta("eqasm_journal_appends_total");
    let fsyncs = traced.delta("eqasm_journal_fsyncs_total");
    metrics.insert("journal.records_per_job", appends / jobs);
    metrics.insert(
        "journal.bytes_per_job",
        traced.delta("eqasm_journal_bytes_total") / jobs,
    );
    metrics.insert(
        "journal.records_per_fsync",
        if fsyncs > 0.0 { appends / fsyncs } else { 0.0 },
    );
    let rtts: Vec<f64> = traced
        .report
        .jobs
        .iter()
        .filter_map(|j| j.acked_ns.map(|a| a.saturating_sub(j.sent_ns) as f64 / 1e3))
        .collect();
    metrics.insert("client.submit_rtt_us", median(&rtts).unwrap_or(0.0));
    metrics.insert("gen.cpu_share", gen_cpu_share(&traced.report));
    metrics.insert(
        "gen.late_p90_ms",
        percentile(&sorted(traced.report.lateness_ms.clone()), 0.9).expect("jobs offered"),
    );

    let warmup = w.warmup();
    let inputs = layers::Inputs {
        planned: &traced.planned,
        warmup: &warmup,
        snapshots: snaps,
        addr: &coord.addr,
        workdir: &args.workdir,
    };
    let mut layer_spans = trace::Spans::new(Instant::now());
    metrics.extend(layers::measure(&inputs, &mut layer_spans)?);

    let window_spans = traced
        .report
        .spans
        .as_ref()
        .expect("traced window records spans");
    let stem = format!("spans-{}-{}", w.name(), args.seed);
    for (suffix, spans) in [("window", window_spans), ("layers", &layer_spans)] {
        let path = args.workdir.join(format!("{stem}-{suffix}.tsv"));
        spans
            .write(&path)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        println!("spans: {} ({} spans)", path.display(), spans.spans().len());
        println!(
            "{:<32} {:>8} {:>12} {:>12}",
            "span", "calls", "total_ms", "self_ms"
        );
        for (name, t) in trace::by_name(spans.spans()) {
            println!(
                "{name:<32} {:>8} {:>12.3} {:>12.3}",
                t.calls,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6
            );
        }
    }
    Ok((metrics, vec![plain, traced]))
}
