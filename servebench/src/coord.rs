//! A real `eqasm-cli serve` coordinator in a child process: spawn,
//! readiness, `/metrics` scrapes, CPU and memory readings, and a clean
//! SIGTERM drain.

use std::io::{BufRead, BufReader, Read};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use eqasm_runtime::loadgen::{scrape_metrics, MetricsSnapshot};

/// How long a SIGTERM drain may take before the child is killed.
const STOP_GRACE: Duration = Duration::from_secs(20);

pub struct Coordinator {
    child: Child,
    stdout: BufReader<ChildStdout>,
    pub addr: String,
    pub metrics_addr: String,
    stderr_path: PathBuf,
    journal_dir: Option<PathBuf>,
}

/// How a coordinator ended.
#[derive(Debug, Default)]
pub struct StopReport {
    /// Whether it drained and exited cleanly after SIGTERM.
    pub clean: bool,
    /// Warning lines it printed (recorded, not counted as failures).
    pub warnings: Vec<String>,
}

impl Coordinator {
    /// Spawns `serve --listen` on ephemeral loopback ports and returns
    /// once it has printed its listening line. `tag` names its files
    /// under `workdir`.
    pub fn spawn(cli: &Path, workdir: &Path, tag: &str, journaled: bool) -> Result<Self, String> {
        let stderr_path = workdir.join(format!("coordinator-{tag}.stderr"));
        let stderr = std::fs::File::create(&stderr_path)
            .map_err(|e| format!("create {}: {e}", stderr_path.display()))?;
        let mut cmd = Command::new(cli);
        cmd.args([
            "serve",
            "--listen",
            "127.0.0.1:0",
            "--metrics",
            "127.0.0.1:0",
        ]);
        let journal_dir = journaled.then(|| workdir.join(format!("journal-{tag}")));
        if let Some(dir) = &journal_dir {
            let _ = std::fs::remove_dir_all(dir);
            cmd.arg("--journal")
                .arg(dir)
                .args(["--journal-fsync", "batch"]);
        }
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(stderr)
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", cli.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut metrics_addr = None;
        let mut line = String::new();
        let addr = loop {
            line.clear();
            let read = stdout.read_line(&mut line).map_err(|e| e.to_string());
            if matches!(read, Ok(0) | Err(_)) {
                let _ = child.kill();
                let _ = child.wait();
                let err = std::fs::read_to_string(&stderr_path).unwrap_or_default();
                return Err(format!(
                    "coordinator exited before listening: {}",
                    err.trim()
                ));
            }
            if let Some(rest) = line.trim().strip_prefix("metrics: http://") {
                metrics_addr = Some(rest.trim_end_matches("/metrics").to_owned());
            }
            if let Some(rest) = line.split("listening on ").nth(1) {
                break rest
                    .split_whitespace()
                    .next()
                    .unwrap_or_default()
                    .to_owned();
            }
        };
        let Some(metrics_addr) = metrics_addr else {
            let _ = child.kill();
            let _ = child.wait();
            return Err("coordinator printed no metrics address".to_owned());
        };
        Ok(Coordinator {
            child,
            stdout,
            addr,
            metrics_addr,
            stderr_path,
            journal_dir,
        })
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    pub fn journal_dir(&self) -> Option<&Path> {
        self.journal_dir.as_deref()
    }

    pub fn cpu_seconds(&self) -> Result<f64, String> {
        crate::sys::cpu_seconds(&self.pid()).map_err(|e| format!("coordinator cpu: {e}"))
    }

    pub fn peak_rss_mib(&self) -> Result<f64, String> {
        crate::sys::peak_rss_mib(&self.pid()).map_err(|e| format!("coordinator rss: {e}"))
    }

    pub fn scrape(&self) -> Result<MetricsSnapshot, String> {
        scrape_metrics(&self.metrics_addr, Duration::from_secs(5)).map_err(|e| e.to_string())
    }

    /// SIGTERM, wait for the drain (SIGKILL after [`STOP_GRACE`]), and
    /// collect what it printed.
    pub fn stop(mut self) -> StopReport {
        let _ = crate::sys::signal(self.child.id(), crate::sys::SIGTERM);
        let deadline = Instant::now() + STOP_GRACE;
        let status = loop {
            match self.child.try_wait() {
                Ok(Some(status)) => break Some(status),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => {
                    let _ = self.child.kill();
                    break self.child.wait().ok().filter(|_| false);
                }
            }
        };
        let mut out = String::new();
        let _ = self.stdout.read_to_string(&mut out);
        let err = std::fs::read_to_string(&self.stderr_path).unwrap_or_default();
        let _ = std::fs::remove_file(&self.stderr_path);
        if let Some(dir) = &self.journal_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
        StopReport {
            clean: status.is_some_and(|s| s.success()) && out.contains("drained cleanly"),
            warnings: err
                .lines()
                .filter(|l| !l.trim().is_empty())
                .map(str::to_owned)
                .collect(),
        }
    }
}

impl Drop for Coordinator {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}
