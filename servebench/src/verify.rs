//! Output correctness: result fingerprints against a serial reference,
//! and the exact job and shot ledger of a window.

use eqasm_runtime::{wire, ShotEngine};

use crate::gen::{Outcome, WindowReport};
use crate::workload::{splitmix64, Planned};

/// What a window's checks found.
#[derive(Debug, Default)]
pub struct Checked {
    pub fingerprints: usize,
    pub problems: Vec<String>,
}

/// Which completed jobs to check: all of them, or a seeded sample.
fn pick(ok: Vec<usize>, sample: Option<usize>, seed: u64) -> Vec<usize> {
    match sample {
        None => ok,
        Some(n) => {
            let mut keyed: Vec<(u64, usize)> = ok
                .into_iter()
                .map(|i| (splitmix64(seed ^ i as u64), i))
                .collect();
            keyed.sort_unstable();
            keyed.into_iter().take(n).map(|(_, i)| i).collect()
        }
    }
}

/// Checks completed jobs' results against [`ShotEngine`] runs of the
/// same jobs: the fingerprint over every deterministic field must match
/// bit for bit.
pub fn fingerprints(
    planned: &[Planned],
    report: &WindowReport,
    sample: Option<usize>,
    seed: u64,
    out: &mut Checked,
) -> Result<(), String> {
    let ok: Vec<usize> = (0..report.jobs.len())
        .filter(|&i| report.jobs[i].outcome == Some(Outcome::Ok))
        .collect();
    let picked = pick(ok, sample, seed);
    let jobs = picked
        .iter()
        .map(|&i| planned[i].reference_job().map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    let references = ShotEngine::new(2)
        .run_jobs(&jobs)
        .map_err(|e| e.to_string())?;
    for (&i, reference) in picked.iter().zip(&references) {
        let got = report.jobs[i]
            .result
            .as_ref()
            .ok_or("completed job without a result")?;
        if wire::result_fingerprint(got) != wire::result_fingerprint(reference) {
            out.problems.push(format!(
                "job {i} ({}): result fingerprint {:016x} != serial reference {:016x}",
                reference.name,
                wire::result_fingerprint(got),
                wire::result_fingerprint(reference)
            ));
        }
        out.fingerprints += 1;
    }
    Ok(())
}

/// Offered = completed + failed + refused + timed-out, and — when
/// every job ended — the client's completed shots equal the
/// coordinator's `eqasm_shots_completed_total` delta.
pub fn ledger(label: &str, report: &WindowReport, server_shots: f64, out: &mut Checked) {
    let offered = report.jobs.len() as u64;
    let ok = report.count(|o| *o == Outcome::Ok);
    let failed = report.count(|o| matches!(o, Outcome::Failed(_)));
    let refused = report.count(|o| matches!(o, Outcome::Refused(_)));
    let timed_out = report.count(|o| *o == Outcome::TimedOut);
    if offered != ok + failed + refused + timed_out {
        out.problems.push(format!(
            "{label}: offered {offered} != completed {ok} + failed {failed} + refused {refused} \
             + timed-out {timed_out}"
        ));
    }
    if timed_out == 0 {
        let client_shots: u64 = report
            .jobs
            .iter()
            .filter_map(|j| j.result.as_ref())
            .map(|r| r.shots)
            .sum();
        if client_shots as f64 != server_shots {
            out.problems.push(format!(
                "{label}: client completed {client_shots} shots, coordinator counted {server_shots}"
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_sample_is_reproducible_and_bounded() {
        let all: Vec<usize> = (0..50).collect();
        let a = pick(all.clone(), Some(8), 11);
        assert_eq!(a, pick(all.clone(), Some(8), 11));
        assert_eq!(a.len(), 8);
        assert_ne!(a, pick(all.clone(), Some(8), 12));
        assert_eq!(pick(all.clone(), None, 11), all);
    }
}
