//! Memory and CPU readings from Linux procfs, and child reaping with the
//! kernel's resource usage.
//!
//! Peak RSS is the `VmHWM` line of `/proc/<pid>/status`. The benchmark
//! fixes glibc's mmap threshold when it starts; before each in-process
//! build it trims the heap and resets its own high-water mark by writing
//! `5` to `/proc/self/clear_refs`, and it reads `VmHWM` and `VmRSS` from
//! a single status read so the pair is consistent. Children
//! are read from their own status files while they live; their CPU comes
//! from `wait4` when they are reaped. (`wait4`'s `ru_maxrss` is no use
//! for peaks: exec folds the spawning process's high-water mark into it.)
//! When a reading is unavailable the caller reports an error; nothing
//! substitutes a whole-process figure.

use std::io;
use std::time::{Duration, Instant};

/// `VmHWM` and `VmRSS` of one process, from one status read, in MiB.
#[derive(Debug, Clone, Copy)]
pub struct Memory {
    pub peak_mb: f64,
    pub rss_mb: f64,
}

fn status_path(pid: Option<u32>) -> String {
    match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_string(),
    }
}

/// Reads `VmHWM` and `VmRSS` of `pid` (this process when `None`).
pub fn memory(pid: Option<u32>) -> Result<Memory, String> {
    let path = status_path(pid);
    let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    let field = |key: &str| -> Result<f64, String> {
        status
            .lines()
            .find_map(|l| l.strip_prefix(key))
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|kb| kb.parse::<u64>().ok())
            .map(|kb| kb as f64 / 1024.0)
            .ok_or_else(|| format!("{path}: no {key} line (peak RSS unavailable)"))
    };
    let mem = Memory {
        peak_mb: field("VmHWM:")?,
        rss_mb: field("VmRSS:")?,
    };
    if mem.peak_mb < mem.rss_mb {
        return Err(format!("{path}: VmHWM below VmRSS in one read"));
    }
    Ok(mem)
}

/// Resets the peak RSS of `pid` (this process when `None`) to its current
/// RSS.
pub fn reset_peak(pid: Option<u32>) -> Result<(), String> {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/clear_refs"),
        None => "/proc/self/clear_refs".to_string(),
    };
    std::fs::write(&path, "5").map_err(|e| format!("{path}: {e} (peak RSS cannot be reset)"))
}

extern "C" {
    fn malloc_trim(pad: usize) -> i32;
    fn mallopt(param: i32, value: i32) -> i32;
}

/// glibc's `M_MMAP_THRESHOLD` parameter, and its default value.
const M_MMAP_THRESHOLD: i32 = -3;
const DEFAULT_MMAP_THRESHOLD: i32 = 128 * 1024;

/// Fixes glibc's mmap threshold at its default. Left dynamic, glibc raises
/// it whenever a large block is freed, so a build's peak depends on what
/// ran before it in the process: on `build-dense`, `spanner` peaks at
/// 1,415 MiB as a process's first build and at 2,060 MiB after `em19`.
/// Fixed, both peak at about 715 MiB wherever they run.
pub fn fix_mmap_threshold() -> Result<(), String> {
    // SAFETY: mallopt takes two integers and no pointers; it is called
    // once, before this process starts any other thread.
    match unsafe { mallopt(M_MMAP_THRESHOLD, DEFAULT_MMAP_THRESHOLD) } {
        1 => Ok(()),
        _ => Err("mallopt(M_MMAP_THRESHOLD) failed".into()),
    }
}

/// Hands the free heap that glibc's allocator kept from earlier work back
/// to the kernel, so that a following [`reset_peak`] starts from the live
/// heap rather than from what earlier builds left behind.
pub fn trim_heap() {
    // SAFETY: glibc's malloc_trim takes no pointers and only releases
    // free heap pages; it may be called from any thread at any time.
    unsafe {
        malloc_trim(0);
    }
}

/// CPU time the calling thread has run, in seconds
/// (`/proc/thread-self/schedstat`, nanoseconds).
pub fn thread_cpu_s() -> Result<f64, String> {
    let text = std::fs::read_to_string("/proc/thread-self/schedstat")
        .map_err(|e| format!("/proc/thread-self/schedstat: {e}"))?;
    text.split_whitespace()
        .next()
        .and_then(|ns| ns.parse::<u64>().ok())
        .map(|ns| ns as f64 / 1e9)
        .ok_or_else(|| "malformed /proc/thread-self/schedstat".to_string())
}

/// User plus system CPU of a live process, in seconds
/// (`/proc/<pid>/stat`, in USER_HZ = 100 ticks per second).
pub fn process_cpu_s(pid: u32) -> Result<f64, String> {
    let path = format!("/proc/{pid}/stat");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    // Fields after the parenthesised command name, starting at field 3.
    let rest = text
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or_else(|| format!("malformed {path}"))?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .map(|t| t as f64 / 100.0)
            .ok_or_else(|| format!("malformed {path}"))
    };
    Ok(tick(11)? + tick(12)?)
}

/// What the kernel reports for one reaped child.
#[derive(Debug, Clone, Copy)]
pub struct Reaped {
    pub cpu_s: f64,
    pub exit_ok: bool,
}

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    rest: [i64; 14],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

const WNOHANG: i32 = 1;

/// Waits (bounded) for `child` to exit and reaps it with its CPU time.
/// The child must not be waited on by any other means; on timeout it is
/// killed and reaped.
pub fn reap(child: &mut std::process::Child, timeout: Duration) -> Result<Reaped, String> {
    let pid = i32::try_from(child.id()).map_err(|_| "child pid overflows i32".to_string())?;
    let deadline = Instant::now() + timeout;
    let mut killed = false;
    loop {
        let mut status = 0i32;
        let mut usage = Rusage {
            utime: Timeval { sec: 0, usec: 0 },
            stime: Timeval { sec: 0, usec: 0 },
            rest: [0; 14],
        };
        // SAFETY: `status` and `usage` are live, writable, and laid out as
        // the C `int` and `struct rusage` of 64-bit Linux (two timevals of
        // two 64-bit fields, then fourteen 64-bit longs); `pid` is our own
        // unreaped child, so wait4 touches no other process's state.
        let r = unsafe { wait4(pid, &mut status, WNOHANG, &mut usage) };
        if r == pid {
            let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 / 1e6;
            // Exited normally with code 0: low 7 bits clear, code in 8..16.
            let exit_ok = status & 0x7f == 0 && (status >> 8) & 0xff == 0 && !killed;
            return Ok(Reaped {
                cpu_s: secs(&usage.utime) + secs(&usage.stime),
                exit_ok,
            });
        }
        if r < 0 {
            return Err(format!("wait4({pid}): {}", io::Error::last_os_error()));
        }
        if Instant::now() >= deadline && !killed {
            let _ = child.kill();
            killed = true;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn own_memory_and_cpu_read() {
        let m = memory(None).unwrap();
        assert!(m.peak_mb >= m.rss_mb && m.rss_mb > 0.0);
        assert!(thread_cpu_s().unwrap() >= 0.0);
        assert!(process_cpu_s(std::process::id()).unwrap() >= 0.0);
    }

    #[test]
    fn reap_reports_a_child() {
        let mut child = std::process::Command::new("true").spawn().unwrap();
        let r = reap(&mut child, Duration::from_secs(10)).unwrap();
        assert!(r.exit_ok && r.cpu_s >= 0.0);
    }
}
