//! The few Linux calls the standard library does not expose, and
//! `/proc` readings of CPU time and memory.

use std::os::raw::{c_int, c_long, c_short, c_ulong, c_void};
use std::time::Duration;

#[repr(C)]
struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: c_ulong,
        timeout: *const Timespec,
        mask: *const c_void,
    ) -> c_int;
    fn kill(pid: c_int, sig: c_int) -> c_int;
}

const POLLIN: c_short = 0x001;
const POLLERR: c_short = 0x008;
const POLLHUP: c_short = 0x010;
pub const SIGTERM: c_int = 15;

/// Waits until one of `fds` is readable (or closed), or `timeout`
/// passes. Returns which are ready; nanosecond timeout resolution.
pub fn wait_readable(fds: &[c_int], timeout: Duration) -> std::io::Result<Vec<bool>> {
    let mut polls: Vec<PollFd> = fds
        .iter()
        .map(|&fd| PollFd {
            fd,
            events: POLLIN,
            revents: 0,
        })
        .collect();
    let ts = Timespec {
        tv_sec: timeout.as_secs() as c_long,
        tv_nsec: timeout.subsec_nanos() as c_long,
    };
    // SAFETY: `polls` is a live, correctly laid out `struct pollfd`
    // array of the length passed, `ts` outlives the call, and a null
    // signal mask leaves the mask unchanged.
    let n = unsafe {
        ppoll(
            polls.as_mut_ptr(),
            polls.len() as c_ulong,
            &ts,
            std::ptr::null(),
        )
    };
    if n < 0 {
        let err = std::io::Error::last_os_error();
        if err.kind() == std::io::ErrorKind::Interrupted {
            return Ok(vec![false; fds.len()]);
        }
        return Err(err);
    }
    Ok(polls
        .iter()
        .map(|p| p.revents & (POLLIN | POLLERR | POLLHUP) != 0)
        .collect())
}

/// Sends `sig` to process `pid`.
pub fn signal(pid: u32, sig: c_int) -> std::io::Result<()> {
    // SAFETY: kill(2) takes plain integers and touches no memory.
    if unsafe { kill(pid as c_int, sig) } == 0 {
        Ok(())
    } else {
        Err(std::io::Error::last_os_error())
    }
}

/// Clock ticks per second of `/proc/<pid>/stat` CPU times. Linux fixes
/// USER_HZ at 100 for every architecture the benchmark runs on.
const USER_HZ: f64 = 100.0;

/// User + system CPU time of a process (all threads, live and exited),
/// from `/proc/<pid>/stat` (`self` for this process).
pub fn cpu_seconds(pid: &str) -> std::io::Result<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, 12 and 13 after `)`.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or_else(|| std::io::Error::other("malformed /proc stat"))?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> std::io::Result<f64> {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .ok_or_else(|| std::io::Error::other("malformed /proc stat"))
    };
    Ok((tick(11)? + tick(12)?) / USER_HZ)
}

/// Peak resident set (`VmHWM`) of a process, in MiB.
pub fn peak_rss_mib(pid: &str) -> std::io::Result<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| std::io::Error::other("no VmHWM in /proc status"))
}

/// First `model name` of `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Filesystem type of the mount holding `path` (longest mount-point
/// prefix in `/proc/self/mounts`).
pub fn fs_type(path: &std::path::Path) -> String {
    let path = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_owned());
    let mounts = std::fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, point, kind) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(point)
                .then(|| (point.len(), kind.to_owned()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_owned(), |(_, kind)| kind)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readings_of_this_process() {
        assert!(cpu_seconds("self").expect("stat") >= 0.0);
        assert!(peak_rss_mib("self").expect("status") > 0.0);
        assert_ne!(fs_type(std::path::Path::new("/")), "unknown");
    }

    #[test]
    fn readable_wait_times_out_and_sees_data() {
        use std::io::Write;
        use std::os::fd::AsRawFd;
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let mut a = std::net::TcpStream::connect(listener.local_addr().unwrap()).expect("connect");
        let (b, _) = listener.accept().expect("accept");
        let ready = wait_readable(&[b.as_raw_fd()], Duration::from_millis(1)).expect("ppoll");
        assert_eq!(ready, vec![false]);
        a.write_all(b"x").expect("write");
        let ready = wait_readable(&[b.as_raw_fd()], Duration::from_secs(5)).expect("ppoll");
        assert_eq!(ready, vec![true]);
    }
}
