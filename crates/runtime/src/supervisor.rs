//! The **pool supervisor**: keeps a live [`JobQueue`]'s remote
//! capacity at full strength while the worker fleet churns.
//!
//! `serve --remote` used to take its address list at startup, size the
//! pool once, and live with whatever survived: the [`JobQueue`] has
//! always tolerated slots *retiring*, but nothing could ever add one
//! back — so every worker restart permanently shrank the pool. The
//! supervisor closes that loop. Given a set of worker addresses (a
//! static list, an optional registry file that is re-read every sweep,
//! or both), a background thread:
//!
//! 1. **probes** each address with a deadline-bounded handshake ping
//!    ([`crate::ping_within`]) on an exponential-backoff schedule —
//!    healthy workers are probed at the base interval, unreachable
//!    ones back off up to a cap so a long-dead host costs almost
//!    nothing;
//! 2. **re-handshakes and attaches** — when a worker answers and the
//!    queue has fewer live slots for that address than the worker
//!    advertises, the supervisor connects the difference and hands
//!    each connection to [`JobQueue::attach_backend`], restoring full
//!    capacity without touching the coordinator;
//! 3. **detaches** — when a registry-listed address disappears from
//!    the file, the supervisor drains that worker's slots cleanly
//!    ([`JobQueue::detach_backend`]); in-flight batches finish first.
//!
//! Kill a worker mid-run and restart it: its old slots fail their
//! in-flight batches (which re-dispatch), accumulate consecutive
//! failures, and retire; the next probe finds the fresh daemon and
//! attaches new slots (new slot ids — retired ids are never reused).
//! The job never notices beyond wall-clock: batch-index-ordered
//! folding keeps every aggregate and every `PartialResult` prefix
//! bit-identical through arbitrary attach/detach churn.
//!
//! Pair the supervisor with [`ServeConfig::hold_when_empty`](crate::ServeConfig::hold_when_empty)
//! when the pool is remote-only: total pool loss then parks jobs until
//! a probe restores capacity, instead of failing them.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::auth::Psk;
use crate::backend::BackendKind;
use crate::net::{ping_opts, ConnectOptions, RemoteBackend, DEFAULT_IO_TIMEOUT};
use crate::serve::{JobQueue, SlotState};

/// Configuration of a [`PoolSupervisor`].
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// Base interval between probes of a healthy (or newly listed)
    /// address. Unreachable addresses back off exponentially from
    /// here.
    pub probe_interval: Duration,
    /// Cap on the exponential backoff for unreachable addresses.
    pub max_backoff: Duration,
    /// Optional worker registry: a file with one `host:port` per line
    /// (`#` comments and blank lines ignored), re-read every sweep.
    /// Addresses that appear are supervised; registry addresses that
    /// disappear have their slots drained. Static addresses passed to
    /// [`PoolSupervisor::spawn`] are never dropped.
    pub registry: Option<PathBuf>,
    /// Request deadline for probes and for the [`RemoteBackend`]s the
    /// supervisor attaches (see
    /// [`crate::ServeConfig::remote_io_timeout`]).
    pub io_timeout: Option<Duration>,
    /// Pre-shared key used for probes and attached backends, for
    /// fleets whose workers demand authentication.
    pub psk: Option<Psk>,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            probe_interval: Duration::from_secs(2),
            max_backoff: Duration::from_secs(30),
            registry: None,
            io_timeout: Some(DEFAULT_IO_TIMEOUT),
            psk: None,
        }
    }
}

impl SupervisorConfig {
    /// Returns the config with the given base probe interval (also
    /// the backoff floor; clamped to at least 1 ms).
    pub fn with_probe_interval(mut self, interval: Duration) -> Self {
        self.probe_interval = interval.max(Duration::from_millis(1));
        self
    }

    /// Returns the config with the given backoff cap.
    pub fn with_max_backoff(mut self, cap: Duration) -> Self {
        self.max_backoff = cap;
        self
    }

    /// Returns the config reading worker addresses from a registry
    /// file re-read every sweep.
    pub fn with_registry(mut self, path: impl Into<PathBuf>) -> Self {
        self.registry = Some(path.into());
        self
    }

    /// Returns the config with a probe/attach request deadline.
    pub fn with_io_timeout(mut self, io_timeout: Option<Duration>) -> Self {
        self.io_timeout = io_timeout;
        self
    }

    /// Returns the config authenticating probes and attached
    /// backends with the given pre-shared key.
    pub fn with_psk(mut self, psk: Psk) -> Self {
        self.psk = Some(psk);
        self
    }
}

/// A point-in-time view of one supervised worker address, from
/// [`PoolSupervisor::status`].
#[derive(Debug, Clone)]
pub struct WorkerStatus {
    /// The worker's address as supervised (`host:port`).
    pub addr: String,
    /// Live (active or draining) queue slots currently bound to this
    /// address.
    pub live_slots: usize,
    /// Slot capacity the worker advertised on its last successful
    /// probe, if it ever answered.
    pub advertised: Option<u32>,
    /// Consecutive failed probes (0 after every success).
    pub consecutive_failures: u32,
    /// Current probe backoff (the base interval while healthy).
    pub backoff: Duration,
    /// Slots this supervisor has attached for this address over its
    /// lifetime.
    pub attached_total: u64,
    /// Whether the address came from the registry file (`true`) or
    /// the static list (`false`). Registry addresses are dropped —
    /// and their slots drained — when they leave the file.
    pub from_registry: bool,
}

/// Per-address supervision state.
struct AddrState {
    live_probe: Option<u32>,
    consecutive_failures: u32,
    backoff: Duration,
    next_probe: Instant,
    attached_total: u64,
    from_registry: bool,
}

/// Shared between the supervisor thread and its handle.
struct SupShared {
    /// Wait/notify pair so `shutdown()` interrupts a sleeping sweep
    /// immediately instead of after the current backoff.
    gate: Mutex<bool>,
    wake: Condvar,
    stopping: AtomicBool,
    status: Mutex<Vec<WorkerStatus>>,
    /// Why the registry file is currently being ignored (unreadable
    /// or malformed), if it is — the last good address list stays in
    /// force while this is `Some`.
    registry_warning: Mutex<Option<String>>,
}

/// Watches worker addresses and keeps a [`JobQueue`]'s remote slots
/// topped up — see the [module docs](self) for the full contract.
///
/// Dropping the supervisor stops its thread. The queue itself is
/// unaffected either way: the supervisor only ever calls the queue's
/// public attach/detach/status API.
pub struct PoolSupervisor {
    shared: Arc<SupShared>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl PoolSupervisor {
    /// Starts supervising `queue`. `addrs` is the static address list
    /// (the `--remote` flag); more addresses may come and go through
    /// [`SupervisorConfig::registry`].
    pub fn spawn(
        queue: Arc<JobQueue>,
        addrs: Vec<String>,
        config: SupervisorConfig,
    ) -> PoolSupervisor {
        let shared = Arc::new(SupShared {
            gate: Mutex::new(false),
            wake: Condvar::new(),
            stopping: AtomicBool::new(false),
            status: Mutex::new(Vec::new()),
            registry_warning: Mutex::new(None),
        });
        let thread_shared = Arc::clone(&shared);
        let thread = std::thread::Builder::new()
            .name("eqasm-supervisor".to_owned())
            .spawn(move || supervise(&queue, addrs, &config, &thread_shared))
            .expect("spawn pool supervisor");
        PoolSupervisor {
            shared,
            thread: Some(thread),
        }
    }

    /// The supervised addresses and their probe/attach state, updated
    /// once per sweep.
    pub fn status(&self) -> Vec<WorkerStatus> {
        self.shared
            .status
            .lock()
            .expect("supervisor status poisoned")
            .clone()
    }

    /// Why the registry file is currently being ignored, if it is.
    ///
    /// A registry that fails to read **or parse** does not change
    /// membership: the last good address list stays in force (an
    /// earlier version treated any unusable registry like an empty
    /// roster — one corrupted write could silently drain every
    /// supervised slot). The warning clears on the next good read.
    pub fn registry_warning(&self) -> Option<String> {
        self.shared
            .registry_warning
            .lock()
            .expect("supervisor warning poisoned")
            .clone()
    }

    /// Stops the supervisor thread (idempotent). The queue and every
    /// slot the supervisor attached keep running.
    pub fn shutdown(&self) {
        self.shared.stopping.store(true, Ordering::Release);
        {
            let mut stop = self.shared.gate.lock().expect("supervisor gate poisoned");
            *stop = true;
        }
        self.shared.wake.notify_all();
    }
}

impl Drop for PoolSupervisor {
    fn drop(&mut self) {
        self.shutdown();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// Parses a registry file: one `host:port` address per line, `#`
/// comments, blank lines ignored.
///
/// Any unusable file — unreadable, non-UTF-8, or containing a line
/// that is not a plausible `host:port` — is a **parse error**, not an
/// empty roster: the caller keeps the last good address list and
/// surfaces the error through
/// [`PoolSupervisor::registry_warning`]. (An earlier version
/// returned whatever lines survived filtering, so a corrupted or
/// truncated write could read as "no workers" and silently drain
/// every supervised slot.) A readable, well-formed file with no
/// addresses is a real, intentional "empty roster" and does drain
/// registry workers.
fn read_registry(path: &std::path::Path) -> Result<Vec<String>, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let text =
        String::from_utf8(bytes).map_err(|e| format!("{} is not UTF-8: {e}", path.display()))?;
    let mut addrs = Vec::new();
    for (line_no, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let Some((host, port)) = line.rsplit_once(':') else {
            return Err(format!(
                "{} line {}: `{line}` is not host:port",
                path.display(),
                line_no + 1
            ));
        };
        if host.is_empty() || port.parse::<u16>().is_err() {
            return Err(format!(
                "{} line {}: `{line}` is not host:port",
                path.display(),
                line_no + 1
            ));
        }
        addrs.push(line.to_owned());
    }
    Ok(addrs)
}

/// The supervisor loop: merge addresses, probe the due ones, attach
/// the missing slots, drain the unlisted, publish status, sleep until
/// the earliest next probe (or a shutdown poke).
fn supervise(
    queue: &JobQueue,
    static_addrs: Vec<String>,
    config: &SupervisorConfig,
    shared: &SupShared,
) {
    let mut workers: HashMap<String, AddrState> = HashMap::new();
    let connect_opts = ConnectOptions {
        io_timeout: config.io_timeout,
        psk: config.psk.clone(),
    };
    // The last registry roster that read and parsed cleanly. While
    // the file is unusable, this list stays in force — a corrupted
    // write must not drain the fleet.
    let mut last_good_registry: Option<Vec<String>> = None;
    let fresh = |now: Instant, from_registry: bool| AddrState {
        live_probe: None,
        consecutive_failures: 0,
        backoff: config.probe_interval,
        next_probe: now,
        attached_total: 0,
        from_registry,
    };

    loop {
        if shared.stopping.load(Ordering::Acquire) {
            return;
        }
        let now = Instant::now();

        // Membership: static addresses are permanent; registry
        // addresses follow the file. An address on both lists counts
        // as static (never dropped). An unusable registry (read or
        // parse failure) keeps the last good roster and raises the
        // warning instead of changing membership.
        let registry_addrs = match config.registry.as_deref().map(read_registry) {
            None => None,
            Some(Ok(addrs)) => {
                last_good_registry = Some(addrs.clone());
                *shared
                    .registry_warning
                    .lock()
                    .expect("supervisor warning poisoned") = None;
                crate::metrics::rt().supervisor_registry_error.set(0);
                Some(addrs)
            }
            Some(Err(e)) => {
                let warning = format!("registry ignored, keeping last good address list: {e}");
                let mut slot = shared
                    .registry_warning
                    .lock()
                    .expect("supervisor warning poisoned");
                if slot.as_deref() != Some(warning.as_str()) {
                    eprintln!("supervisor: {warning}");
                }
                *slot = Some(warning);
                crate::metrics::rt().supervisor_registry_error.set(1);
                last_good_registry.clone()
            }
        };
        for addr in &static_addrs {
            workers
                .entry(addr.clone())
                .or_insert_with(|| fresh(now, false))
                .from_registry = false;
        }
        // One pool snapshot per sweep: `pool_status` takes the queue's
        // state mutex — the dispatch hot path — and clones every slot
        // descriptor, so it must not be re-acquired per address (slot
        // ids are never reused, so the table only ever grows).
        let pool = queue.pool_status();
        let live_for = |pool: &[crate::serve::SlotStatus], addr: &str| {
            pool.iter()
                .filter(|s| s.state != SlotState::Retired && slot_addr(&s.descriptor.kind) == addr)
                .count()
        };

        if let Some(listed) = &registry_addrs {
            for addr in listed {
                workers
                    .entry(addr.clone())
                    .or_insert_with(|| fresh(now, true));
            }
            let dropped: Vec<String> = workers
                .iter()
                .filter(|(addr, s)| s.from_registry && !listed.contains(addr))
                .map(|(addr, _)| addr.clone())
                .collect();
            for addr in dropped {
                // Unlisted: drain this worker's slots cleanly and
                // forget it. (Draining slots finish their current
                // batch; see SlotState.)
                for slot in &pool {
                    if slot.state == SlotState::Active && slot_addr(&slot.descriptor.kind) == addr {
                        let _ = queue.detach_backend(slot.slot_id);
                    }
                }
                workers.remove(&addr);
            }
        }

        // Probe the due addresses and top up their slots.
        for (addr, state) in &mut workers {
            if state.next_probe > now {
                continue;
            }
            let live = live_for(&pool, addr);
            let m = crate::metrics::rt();
            match ping_opts(addr, &connect_opts) {
                Ok(ack) => {
                    m.probes_ok.inc();
                    state.live_probe = Some(ack.capacity);
                    state.consecutive_failures = 0;
                    state.backoff = config.probe_interval;
                    let want = (ack.capacity.max(1)) as usize;
                    for _ in live..want {
                        let Ok(backend) =
                            RemoteBackend::connect_opts(addr.clone(), connect_opts.clone())
                        else {
                            break; // worker got less welcoming mid-top-up
                        };
                        match queue.attach_backend(Box::new(backend)) {
                            Ok(_) => {
                                state.attached_total += 1;
                                m.supervisor_attaches.inc();
                            }
                            // Thread/fd pressure on the coordinator:
                            // stop topping up, retry next sweep.
                            Err(_) => break,
                        }
                    }
                }
                Err(_) => {
                    m.probes_failed.inc();
                    state.consecutive_failures += 1;
                    state.backoff = (state.backoff * 2).min(config.max_backoff);
                }
            }
            state.next_probe = Instant::now() + state.backoff;
        }

        // Publish status (sorted for stable reads) and sleep until the
        // earliest next probe. One fresh snapshot so just-attached
        // slots show up as live.
        let pool = queue.pool_status();
        {
            let mut status = shared.status.lock().expect("supervisor status poisoned");
            *status = workers
                .iter()
                .map(|(addr, s)| WorkerStatus {
                    addr: addr.clone(),
                    live_slots: live_for(&pool, addr),
                    advertised: s.live_probe,
                    consecutive_failures: s.consecutive_failures,
                    backoff: s.backoff,
                    attached_total: s.attached_total,
                    from_registry: s.from_registry,
                })
                .collect();
            status.sort_by(|a, b| a.addr.cmp(&b.addr));
        }
        let next = workers
            .values()
            .map(|s| s.next_probe)
            .min()
            .unwrap_or_else(|| Instant::now() + config.probe_interval);
        let sleep = next.saturating_duration_since(Instant::now());
        let gate = shared.gate.lock().expect("supervisor gate poisoned");
        let (gate, _) = shared
            .wake
            .wait_timeout_while(gate, sleep.max(Duration::from_millis(1)), |stop| !*stop)
            .expect("supervisor gate poisoned");
        drop(gate);
    }
}

/// The address a slot is bound to, if it is a remote slot.
fn slot_addr(kind: &BackendKind) -> &str {
    match kind {
        BackendKind::Remote { addr } => addr,
        BackendKind::Local => "",
    }
}
