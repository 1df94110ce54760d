//! Integration tests for the client-side instruments: `/metrics`
//! scraping that survives a mid-scrape coordinator restart, short
//! subscriber-churn sweeps against an in-process `spawn_serve`
//! coordinator, and end-to-end coverage of the `CliffordChain`
//! workload (wire roundtrip and stabilizer selection above the dense
//! ceiling).

use std::io::{Read as _, Write as _};
use std::net::TcpListener;
use std::sync::Arc;
use std::time::Duration;

use eqasm_microarch::{QuMa, SimBackendKind};
use eqasm_runtime::loadgen::{scrape_metrics, scrape_with_retry};
use eqasm_runtime::serve::{JobQueue, ServeConfig, Submission};
use eqasm_runtime::{
    churn_sweep, spawn_serve, wire, ChurnConfig, Client, ServeHandle, ServeNetConfig, SweepTarget,
    WorkloadKind, WorkloadSpec,
};

/// A queue with `workers` local slots behind a loopback acceptor.
fn serve_fixture(workers: usize, batch: u64) -> (Arc<JobQueue>, ServeHandle) {
    let queue = Arc::new(JobQueue::new(
        ServeConfig::default()
            .with_workers(workers)
            .with_batch_size(batch),
    ));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let handle =
        spawn_serve(listener, Arc::clone(&queue), ServeNetConfig::default()).expect("spawn serve");
    (queue, handle)
}

/// A cheap one-qubit RB template.
fn rb_spec(shots: u64) -> WorkloadSpec {
    WorkloadSpec::new(
        "rb",
        WorkloadKind::Rb {
            k: 4,
            interval_cycles: 1,
            sequence_seed: 0x5eed,
        },
        shots,
    )
}

// ---------------------------------------------------------------------------
// Restart-tolerant scraping
// ---------------------------------------------------------------------------

/// A fake metrics endpoint whose first connection dies before any
/// bytes are written — the shape of a coordinator restarting
/// mid-scrape — and whose second connection serves a valid response.
/// `scrape_with_retry` must recover; a plain scrape must not.
#[test]
fn scrape_retry_recovers_from_one_dead_connection() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let server = std::thread::spawn(move || {
        // First connection: accept and slam the door (RST/EOF before
        // a status line).
        let (first, _) = listener.accept().expect("first accept");
        drop(first);
        // Second connection: a well-formed HTTP/1.0 scrape response.
        let (mut second, _) = listener.accept().expect("second accept");
        let mut buf = [0u8; 512];
        let _ = second.read(&mut buf);
        let body = "# TYPE eqasm_shots_completed_total counter\n\
                    eqasm_shots_completed_total 12345\n";
        let resp = format!(
            "HTTP/1.0 200 OK\r\nContent-Type: text/plain\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        second.write_all(resp.as_bytes()).expect("write response");
    });

    let snap = scrape_with_retry(&addr, Duration::from_secs(5)).expect("retry recovers");
    assert_eq!(snap.get("eqasm_shots_completed_total"), Some(12345.0));
    server.join().expect("fake endpoint thread");
}

/// With no listener at all, both attempts fail and the scrape
/// surfaces a typed error (not a panic/abort) naming the address.
#[test]
fn scrape_retry_reports_typed_error_when_endpoint_stays_down() {
    // Bind-then-drop to get a port that is closed right now.
    let addr = {
        let l = TcpListener::bind("127.0.0.1:0").expect("bind");
        l.local_addr().expect("addr").to_string()
    };
    let err = scrape_with_retry(&addr, Duration::from_millis(500)).expect_err("must fail");
    assert!(
        err.to_string().contains(&addr),
        "scrape error should name the endpoint: {err}"
    );
    let plain = scrape_metrics(&addr, Duration::from_millis(500));
    assert!(plain.is_err(), "plain scrape must fail fast");
}

// ---------------------------------------------------------------------------
// Subscriber churn
// ---------------------------------------------------------------------------

/// A short churn sweep against the loopback coordinator: cycles must
/// complete, resumes must happen, and resume correctness must hold
/// (no snapshot older than its resume point, no stream regressing).
#[test]
fn churn_sweep_holds_resume_correctness() {
    let (_queue, server) = serve_fixture(2, 8);
    let target = SweepTarget::new(server.addr().to_string());
    let config = ChurnConfig {
        workers: 3,
        duration: Duration::from_millis(1500),
        snapshots_per_cycle: 2,
    };
    let report = churn_sweep(&rb_spec(50_000), &target, &config).expect("churn runs");
    assert!(
        report.cycles > 0,
        "workers must complete cycles: {report:?}"
    );
    assert!(report.snapshots > 0, "cycles must observe snapshots");
    assert_eq!(
        report.resume_violations, 0,
        "the reactor broke resume correctness: {report:?}"
    );
    assert!(report.jobs_driven >= 1);
    assert!(report.cycles_per_sec > 0.0);
}

/// Every generation of the churn job — the first, submitted before
/// the workers start, and every resubmission from inside a worker —
/// carries the template's shot count. The job is small so that it
/// completes many times within the sweep.
#[test]
fn churn_sweep_submits_every_generation_with_the_template_shots() {
    let (queue, server) = serve_fixture(2, 8);
    let target = SweepTarget::new(server.addr().to_string());
    let config = ChurnConfig {
        workers: 2,
        duration: Duration::from_millis(1000),
        snapshots_per_cycle: 2,
    };
    let template = rb_spec(400);
    let report = churn_sweep(&template, &target, &config).expect("churn runs");
    assert!(
        report.jobs_driven >= 2,
        "a 400-shot job must complete and be resubmitted: {report:?}"
    );
    let jobs = queue.job_handles();
    assert_eq!(jobs.len() as u64, report.jobs_driven);
    for job in &jobs {
        let snap = job.snapshot();
        assert_eq!(
            snap.shots_total, template.shots,
            "churn job `{}` ignored the template's shots",
            snap.name
        );
    }
}

// ---------------------------------------------------------------------------
// Large-n Clifford workload, end to end
// ---------------------------------------------------------------------------

/// Tag-5 wire roundtrip: a CliffordChain submission encodes, decodes,
/// and re-encodes to identical bytes.
#[test]
fn clifford_chain_submission_roundtrips_on_the_wire() {
    let spec = WorkloadSpec::new(
        "stab",
        WorkloadKind::CliffordChain {
            qubits: 12,
            layers: 2,
        },
        64,
    )
    .with_seed(99);
    let submission = Submission::workload("tenant-a", spec);
    let bytes = wire::encode_submission(&submission).expect("encodes");
    let decoded = wire::decode_submission(&bytes).expect("decodes");
    let re = wire::encode_submission(&decoded).expect("re-encodes");
    assert_eq!(bytes, re, "decode must preserve every field");
}

/// A 12-qubit CliffordChain — above the 10-qubit dense-simulation
/// comfort zone — selects the stabilizer backend and executes to a
/// full histogram through the serve front door.
#[test]
fn clifford_chain_runs_above_the_dense_ceiling() {
    let spec = WorkloadSpec::new(
        "stab",
        WorkloadKind::CliffordChain {
            qubits: 12,
            layers: 2,
        },
        64,
    )
    .with_seed(3);

    // Selection: Clifford-only under ideal noise rides the tableau.
    let job = spec.build_instance(0).expect("builds");
    let mut machine = QuMa::new(job.inst.clone(), job.config.clone());
    machine.load(&job.program).expect("loads");
    assert_eq!(machine.selection().kind(), SimBackendKind::Stabilizer);

    // End to end over TCP.
    let (_queue, server) = serve_fixture(2, 16);
    let client = Client::connect(server.addr().to_string()).expect("connects");
    let handles = client
        .submit(Submission::workload("tenant-a", spec))
        .expect("submits CliffordChain");
    let result = handles[0].wait().expect("completes");
    assert_eq!(result.histogram.total(), 64, "every shot must land");
}

/// CliffordChain parameter validation: the generator rejects sizes
/// outside the linear-topology and wire-mask envelope.
#[test]
fn clifford_chain_rejects_out_of_envelope_parameters() {
    for (qubits, layers) in [(1usize, 2u32), (33, 2), (12, 0), (12, 17)] {
        let err = WorkloadKind::CliffordChain { qubits, layers }
            .build()
            .expect_err("out-of-envelope parameters must be rejected");
        let msg = err.to_string();
        assert!(
            msg.contains("CliffordChain") || msg.contains("qubits") || msg.contains("layers"),
            "error should name the offending parameter: {msg}"
        );
    }
}
