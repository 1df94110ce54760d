//! The per-layer ledger: the workload's generated inputs pushed through
//! each layer's public functions one layer at a time, every call timed
//! as a span. Metrics are derived from the spans' self times.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use eqasm_asm::{assemble, format_instruction};
use eqasm_core::{Instantiation, MicroInstruction, PulseKind};
use eqasm_microarch::{QuMa, TraceKind};
use eqasm_quantum::StabilizerBackend;
use eqasm_quantum::{gates, Backend, CMatrix, Clifford, DensityBackend, NoiseModel, PureBackend};
use eqasm_runtime::serve::{JobQueue, ServeConfig};
use eqasm_runtime::{
    default_batch_size, partition_shots, wire, BatchOut, ExecBackend, FsyncPolicy, Histogram, Job,
    JournalConfig, LocalBackend, PartialResult,
};

use crate::trace::{by_name, Spans};
use crate::workload::Planned;

/// Minimum time spent repeating one measurement, so short calls are
/// averaged over many repetitions.
const MIN_SAMPLE: Duration = Duration::from_millis(25);

/// Distinct program shapes measured per layer.
const MAX_SHAPES: usize = 8;

/// Full replays per shape whose simulated cycles are counted.
const COUNTED_SHOTS: u64 = 8;

/// Gate-stream replays timed per span.
const REPLAYS_PER_SPAN: u64 = 8;

/// Jobs pushed through the execution and journal layers.
const JOB_SAMPLE: usize = 12;

/// The layer ledger's inputs.
pub struct Inputs<'a> {
    /// The traced window's generated submissions.
    pub planned: &'a [Planned],
    /// Cache-filling submissions, run before timing the exec layer.
    pub warmup: &'a [Planned],
    /// Final snapshots streamed in the traced window.
    pub snapshots: Vec<&'a PartialResult>,
    /// Coordinator front-door address (for pings).
    pub addr: &'a str,
    /// Work directory for the in-process journal.
    pub workdir: &'a std::path::Path,
}

/// Runs every isolated layer measurement, recording spans into `spans`
/// and returning the derived metrics.
pub fn measure(
    inputs: &Inputs<'_>,
    spans: &mut Spans,
) -> Result<BTreeMap<&'static str, f64>, String> {
    let shapes = distinct_shapes(inputs.planned)?;
    let mut m = BTreeMap::new();
    asm(&shapes, spans, &mut m)?;
    microarch(&shapes, spans, &mut m)?;
    quantum(&shapes, spans, &mut m)?;
    let outs = exec(inputs, spans, &mut m)?;
    aggregate(&outs, spans, &mut m);
    wire_layer(inputs, spans, &mut m)?;
    net(inputs.addr, spans, &mut m)?;
    journal(inputs, spans, &mut m)?;
    Ok(m)
}

/// A program shape with the source text it assembles from.
struct Shape {
    job: Job,
    text: String,
}

fn distinct_shapes(planned: &[Planned]) -> Result<Vec<Shape>, String> {
    let mut seen = std::collections::BTreeSet::new();
    let mut shapes = Vec::new();
    for p in planned {
        if shapes.len() == MAX_SHAPES {
            break;
        }
        if !seen.insert(format!("{:?}|{:?}", p.spec.kind, p.spec.config)) {
            continue;
        }
        let job = p.reference_job().map_err(|e| e.to_string())?;
        let text = match &p.spec.kind {
            eqasm_runtime::WorkloadKind::Source { text } => text.clone(),
            _ => source_of(&job.program, &job.inst),
        };
        shapes.push(Shape { job, text });
    }
    Ok(shapes)
}

fn source_of(program: &[eqasm_core::Instruction], inst: &Instantiation) -> String {
    let mut text: Vec<String> = program
        .iter()
        .map(|i| format_instruction(i, inst))
        .collect();
    text.push(String::new());
    text.join("\n")
}

/// Calls `f` `per_span` times inside each span named `name`, until
/// [`MIN_SAMPLE`] has passed (at least three spans): calls shorter than
/// a microsecond are timed in batches, not one clock pair each.
/// Returns the calls made.
fn batched(spans: &mut Spans, name: &'static str, per_span: u64, mut f: impl FnMut()) -> u64 {
    let start = Instant::now();
    let mut n = 0;
    while n < 3 || start.elapsed() < MIN_SAMPLE {
        spans.time(name, None, || (0..per_span).for_each(|_| f()));
        n += 1;
    }
    n * per_span
}

/// Self time of every span named `name`, in ns per call.
fn per_call_ns(spans: &Spans, name: &str, calls: u64) -> f64 {
    if calls == 0 {
        0.0
    } else {
        total_s(spans, name) * 1e9 / calls as f64
    }
}

fn total_s(spans: &Spans, name: &str) -> f64 {
    by_name(spans.spans())
        .get(name)
        .map_or(0.0, |t| t.self_ns as f64 / 1e9)
}

fn asm(
    shapes: &[Shape],
    spans: &mut Spans,
    m: &mut BTreeMap<&'static str, f64>,
) -> Result<(), String> {
    let mut per_pass = 0usize;
    for s in shapes {
        per_pass += assemble(&s.text, &s.job.inst)
            .map_err(|e| format!("assemble {}: {e}", s.job.name))?
            .len();
    }
    let passes = batched(spans, "asm.assemble_pass", 1, || {
        for s in shapes {
            std::hint::black_box(assemble(&s.text, &s.job.inst).ok());
        }
    });
    let secs = total_s(spans, "asm.assemble_pass");
    m.insert(
        "asm.instr_per_s",
        (passes as usize * per_pass) as f64 / secs,
    );
    m.insert(
        "asm.us_per_program",
        per_call_ns(spans, "asm.assemble_pass", passes * shapes.len() as u64) / 1e3,
    );
    Ok(())
}

fn machine(job: &Job, trace: bool) -> Result<QuMa, String> {
    let mut config = job.config.clone();
    config.record_trace = trace;
    let mut q = QuMa::new(job.inst.clone(), config);
    q.load(&job.program)
        .map_err(|e| format!("load {}: {e}", job.name))?;
    Ok(q)
}

fn microarch(
    shapes: &[Shape],
    spans: &mut Spans,
    m: &mut BTreeMap<&'static str, f64>,
) -> Result<(), String> {
    // Host time per simulated cycle over however many replays fill the
    // sample; simulated cycles per shot over a fixed set of shots, so it
    // repeats exactly for a seed.
    let mut timed_cycles = 0u64;
    let mut counted_cycles = 0u64;
    let mut counted_shots = 0u64;
    let (mut loads, mut prefixes, mut forks) = (0, 0, 0);
    for s in shapes {
        let job = &s.job;
        let mut q = machine(job, false)?;
        loads += batched(spans, "microarch.load", 8, || {
            std::hint::black_box(machine(job, false).ok());
        });
        // Full replays: simulated cycles per shot and host ns per cycle.
        let replay_start = Instant::now();
        let mut k = 0;
        while k < COUNTED_SHOTS || replay_start.elapsed() < MIN_SAMPLE {
            let r = spans.time("microarch.run_shot", None, || q.run_shot(job.shot_seed(k)));
            timed_cycles += r.stats.classical_cycles;
            if k < COUNTED_SHOTS {
                counted_cycles += r.stats.classical_cycles;
                counted_shots += 1;
            }
            k += 1;
        }
        if let Some(snap) = q.run_prefix(job.base_seed) {
            prefixes += batched(spans, "microarch.run_prefix", 2, || {
                std::hint::black_box(q.run_prefix(job.base_seed));
            });
            let mut k = 0;
            forks += batched(spans, "microarch.fork", 32, || {
                std::hint::black_box(q.run_shot_from(&snap, job.shot_seed(k)));
                k += 1;
            });
        }
    }
    let replay_ns = total_s(spans, "microarch.run_shot") * 1e9;
    m.insert(
        "microarch.ns_per_cycle",
        replay_ns / timed_cycles.max(1) as f64,
    );
    m.insert(
        "microarch.cycles_per_shot",
        counted_cycles as f64 / counted_shots.max(1) as f64,
    );
    m.insert(
        "microarch.load_us",
        per_call_ns(spans, "microarch.load", loads) / 1e3,
    );
    m.insert(
        "microarch.prefix_build_us",
        per_call_ns(spans, "microarch.run_prefix", prefixes) / 1e3,
    );
    m.insert(
        "microarch.fork_us",
        per_call_ns(spans, "microarch.fork", forks) / 1e3,
    );
    Ok(())
}

/// Builds a fresh backend for one replay.
type MakeBackend = Box<dyn Fn() -> Box<dyn Backend>>;

/// One backend call of a traced shot.
enum Gate {
    One(usize, CMatrix),
    Two(usize, usize, CMatrix),
    Measure(usize),
}

/// The gate stream one traced shot sent to its backend.
fn gate_stream(job: &Job) -> Result<Vec<Gate>, String> {
    let mut q = machine(job, true)?;
    q.run_shot(job.base_seed);
    let ops = job.inst.ops();
    let mut stream = Vec::new();
    for event in q.trace().events() {
        match &event.kind {
            TraceKind::OpTriggered {
                qubit,
                name,
                executed: true,
                ..
            } => {
                let def = ops.by_name(name).map_err(|e| e.to_string())?;
                let MicroInstruction::Single(micro) = def.micro() else {
                    continue;
                };
                let u = match ops.pulse(micro.codeword()) {
                    Some(PulseKind::Rx(t)) => gates::rx(*t),
                    Some(PulseKind::Ry(t)) => gates::ry(*t),
                    Some(PulseKind::Rz(t)) => gates::rz(*t),
                    Some(PulseKind::Hadamard) => gates::hadamard(),
                    _ => continue,
                };
                stream.push(Gate::One(qubit.index(), u));
            }
            TraceKind::TwoQubitApplied { src, tgt, name } => {
                let u = match name.as_str() {
                    "CZ" => gates::cz(),
                    "CNOT" => gates::cnot(),
                    "SWAP" => gates::swap(),
                    _ => continue,
                };
                stream.push(Gate::Two(src.index(), tgt.index(), u));
            }
            TraceKind::MeasurementStarted { qubit } => stream.push(Gate::Measure(qubit.index())),
            _ => {}
        }
    }
    Ok(stream)
}

fn replay(backend: &mut dyn Backend, stream: &[Gate]) {
    for g in stream {
        match g {
            Gate::One(q, u) => backend.apply_1q(*q, u),
            Gate::Two(a, b, u) => backend.apply_2q(*a, *b, u),
            Gate::Measure(q) => {
                std::hint::black_box(backend.measure(*q));
            }
        }
    }
}

fn is_clifford(stream: &[Gate]) -> bool {
    stream.iter().all(|g| match g {
        Gate::One(_, u) => Clifford::from_matrix(u).is_some(),
        Gate::Two(_, _, u) => [gates::cz(), gates::cnot(), gates::swap()]
            .iter()
            .any(|c| u.approx_eq_up_to_phase(c, 1e-9)),
        Gate::Measure(_) => true,
    })
}

fn quantum(
    shapes: &[Shape],
    spans: &mut Spans,
    m: &mut BTreeMap<&'static str, f64>,
) -> Result<(), String> {
    let mut gates_by_kind: BTreeMap<&'static str, u64> = BTreeMap::new();
    for s in shapes {
        let stream = gate_stream(&s.job)?;
        if stream.is_empty() {
            continue;
        }
        let n = s.job.inst.topology().num_qubits();
        let noise = s.job.config.noise;
        let seed = s.job.base_seed;
        let mut kinds: Vec<(&'static str, MakeBackend)> = Vec::new();
        if n <= eqasm_microarch::DENSITY_QUBIT_LIMIT {
            kinds.push((
                "quantum.density",
                Box::new(move || Box::new(DensityBackend::new(n, noise, seed))),
            ));
        }
        if n <= 20 {
            kinds.push((
                "quantum.pure",
                Box::new(move || Box::new(PureBackend::new(n, noise, seed))),
            ));
        }
        if is_clifford(&stream) {
            // The tableau takes no idle channel: replay noiselessly.
            kinds.push((
                "quantum.stabilizer",
                Box::new(move || Box::new(StabilizerBackend::new(n, NoiseModel::ideal(), seed))),
            ));
        }
        for (kind, make) in kinds {
            // Fresh backends, built outside the timed span.
            let start = Instant::now();
            let mut reps = 0;
            while reps < REPLAYS_PER_SPAN || start.elapsed() < MIN_SAMPLE {
                let mut backends: Vec<_> = (0..REPLAYS_PER_SPAN).map(|_| make()).collect();
                spans.time(kind, None, || {
                    for b in &mut backends {
                        replay(b.as_mut(), &stream);
                    }
                });
                reps += REPLAYS_PER_SPAN;
            }
            *gates_by_kind.entry(kind).or_default() += reps * stream.len() as u64;
        }
    }
    for (kind, metric) in [
        ("quantum.density", "quantum.density.ns_per_gate"),
        ("quantum.pure", "quantum.pure.ns_per_gate"),
        ("quantum.stabilizer", "quantum.stabilizer.ns_per_gate"),
    ] {
        let gates = gates_by_kind.get(kind).copied().unwrap_or(0);
        let ns = total_s(spans, kind) * 1e9;
        m.insert(metric, if gates == 0 { 0.0 } else { ns / gates as f64 });
    }
    Ok(())
}

/// Runs each job's batches on a local backend, the way a serve slot
/// does, after the workload's warm-up jobs filled the prefix cache.
fn exec(
    inputs: &Inputs<'_>,
    spans: &mut Spans,
    m: &mut BTreeMap<&'static str, f64>,
) -> Result<Vec<BatchOut>, String> {
    let mut backend = LocalBackend::new(0);
    let run = |backend: &mut LocalBackend, job: &Job, spans: &mut Spans, name| {
        let mut outs = Vec::new();
        for range in partition_shots(job.shots, default_batch_size(job.shots)) {
            let out = spans
                .time(name, None, || backend.run_range(job, range))
                .map_err(|e| e.to_string())?;
            outs.push(out);
        }
        Ok::<_, String>(outs)
    };
    for p in inputs.warmup {
        run(
            &mut backend,
            &p.reference_job().map_err(|e| e.to_string())?,
            spans,
            "exec.warmup",
        )?;
    }
    let mut outs = Vec::new();
    let mut shots = 0;
    for p in inputs.planned.iter().take(JOB_SAMPLE) {
        let job = p.reference_job().map_err(|e| e.to_string())?;
        shots += job.shots;
        outs.extend(run(&mut backend, &job, spans, "exec.run_range")?);
    }
    let total_us = total_s(spans, "exec.run_range") * 1e6;
    m.insert("exec.us_per_batch", total_us / outs.len().max(1) as f64);
    m.insert("exec.us_per_shot", total_us / shots.max(1) as f64);
    Ok(outs)
}

/// Folds every batch histogram of the exec sample into one, timing
/// whole passes (a single merge is too short to time on its own).
fn aggregate(outs: &[BatchOut], spans: &mut Spans, m: &mut BTreeMap<&'static str, f64>) {
    let mut passes = 0u64;
    let start = Instant::now();
    while !outs.is_empty() && (passes < 3 || start.elapsed() < MIN_SAMPLE) {
        spans.time("aggregate.merge_pass", None, || {
            let mut acc = Histogram::new();
            for out in outs {
                acc.merge(&out.histogram);
            }
            std::hint::black_box(acc)
        });
        passes += 1;
    }
    let merges = passes * outs.len() as u64;
    let ns = total_s(spans, "aggregate.merge_pass") * 1e9;
    m.insert(
        "aggregate.merge_ns",
        if merges == 0 { 0.0 } else { ns / merges as f64 },
    );
}

fn wire_layer(
    inputs: &Inputs<'_>,
    spans: &mut Spans,
    m: &mut BTreeMap<&'static str, f64>,
) -> Result<(), String> {
    let submissions: Vec<_> = inputs
        .planned
        .iter()
        .take(200)
        .map(Planned::submission)
        .collect();
    let encoded = submissions
        .iter()
        .map(wire::encode_submission)
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    for e in &encoded {
        wire::decode_submission(e).map_err(|e| e.to_string())?;
    }
    let n = submissions.len() as u64;
    let encodes = n * batched(spans, "wire.encode_submission_pass", 1, || {
        submissions.iter().for_each(|s| {
            std::hint::black_box(wire::encode_submission(s).ok());
        })
    });
    let decodes = n * batched(spans, "wire.decode_submission_pass", 1, || {
        encoded.iter().for_each(|e| {
            std::hint::black_box(wire::decode_submission(e).ok());
        })
    });
    let bytes: usize = encoded.iter().map(Vec::len).sum();
    m.insert(
        "wire.submission_encode_us",
        per_call_ns(spans, "wire.encode_submission_pass", encodes) / 1e3,
    );
    m.insert(
        "wire.submission_decode_us",
        per_call_ns(spans, "wire.decode_submission_pass", decodes) / 1e3,
    );
    m.insert("wire.submission_bytes", bytes as f64 / n.max(1) as f64);
    let snapshots = &inputs.snapshots;
    let partials = if snapshots.is_empty() {
        0
    } else {
        snapshots.len() as u64
            * batched(spans, "wire.encode_partial_pass", 1, || {
                snapshots.iter().for_each(|p| {
                    std::hint::black_box(wire::encode_partial_result(p));
                })
            })
    };
    m.insert(
        "wire.partial_encode_us",
        per_call_ns(spans, "wire.encode_partial_pass", partials) / 1e3,
    );
    Ok(())
}

fn net(addr: &str, spans: &mut Spans, m: &mut BTreeMap<&'static str, f64>) -> Result<(), String> {
    let mut rtts = Vec::new();
    for _ in 0..25 {
        let start = Instant::now();
        eqasm_runtime::ping(addr).map_err(|e| format!("ping {addr}: {e}"))?;
        let end = Instant::now();
        spans.push("net.ping", start, end, None, 0);
        rtts.push((end - start).as_secs_f64() * 1e6);
    }
    m.insert(
        "net.ping_rtt_us",
        crate::stats::median(&rtts).unwrap_or(0.0),
    );
    Ok(())
}

/// `submit` → `wait` on an in-process journaled queue minus a plain
/// one, over the same jobs.
fn journal(
    inputs: &Inputs<'_>,
    spans: &mut Spans,
    m: &mut BTreeMap<&'static str, f64>,
) -> Result<(), String> {
    let sample: Vec<_> = inputs.planned.iter().take(JOB_SAMPLE).collect();
    let config = || ServeConfig::default().with_workers(2);
    let drive = |queue: &JobQueue, spans: &mut Spans, name| -> Result<(), String> {
        for p in &sample {
            let handles = spans
                .time(name, None, || queue.submit(p.submission()))
                .map_err(|e| e.to_string())?;
            let start = Instant::now();
            for h in handles {
                h.wait().map_err(|e| e.to_string())?;
            }
            spans.push(name, start, Instant::now(), None, 0);
        }
        Ok(())
    };
    let warm = JobQueue::new(config());
    drive(&warm, spans, "journal.warmup")?;
    warm.shutdown();
    let dir = inputs.workdir.join("journal-inprocess");
    let _ = std::fs::remove_dir_all(&dir);
    let backends: Vec<Box<dyn ExecBackend>> = (0..2)
        .map(|i| Box::new(LocalBackend::new(i)) as Box<dyn ExecBackend>)
        .collect();
    let (journaled, _) = JobQueue::recover(
        config(),
        backends,
        &JournalConfig::new(&dir).with_fsync(FsyncPolicy::Batch),
    )
    .map_err(|e| e.to_string())?;
    drive(&journaled, spans, "journal.journaled_job")?;
    journaled.shutdown();
    drop(journaled);
    let _ = std::fs::remove_dir_all(&dir);
    let plain = JobQueue::new(config());
    drive(&plain, spans, "journal.plain_job")?;
    plain.shutdown();
    let n = sample.len().max(1) as f64;
    let overhead_s = total_s(spans, "journal.journaled_job") - total_s(spans, "journal.plain_job");
    m.insert("journal.submit_overhead_us", overhead_s * 1e6 / n);
    Ok(())
}
