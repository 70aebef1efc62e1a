//! What the benchmark reads from the operating system: CPU clocks, peak
//! resident memory, and the environment stamp.

use std::fmt::Write as _;

use crate::json;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// Linux `CLOCK_PROCESS_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
/// Linux `CLOCK_THREAD_CPUTIME_ID`.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_clock_ns(clock_id: i32) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux, the only platform the container has), and
    // both clock ids are defined constants there; the call writes nothing
    // else.
    let rc = unsafe { clock_gettime(clock_id, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock_id}) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// CPU time the calling thread has consumed, in nanoseconds.
pub fn thread_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_THREAD_CPUTIME_ID)
}

/// CPU time the whole process has consumed, in nanoseconds.
pub fn process_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_PROCESS_CPUTIME_ID)
}

/// Peak resident set size of this process (`VmHWM`), in MiB (the kernel
/// reports KiB).
pub fn rss_peak_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// The commit the checkout is at, read from `.git` in the working
/// directory without spawning git (the driver's checkout has no `.git`,
/// which reads as `unknown`).
fn git_sha() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(sha) = std::fs::read_to_string(format!(".git/{reference}")) {
        return sha.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|sha| sha.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// One JSON object describing where and how a result was produced.
pub fn env_stamp(fields: &[(&str, String)]) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".into(), |s| s.trim().to_string());
    let mut out = String::from("{\"env\": {");
    let _ = write!(out, "\"nproc\": {nproc}, \"kernel\": ");
    json::push_str(&mut out, &kernel);
    out.push_str(", \"rustc\": ");
    json::push_str(&mut out, env!("DUDE_PERF_RUSTC"));
    out.push_str(", \"git_sha\": ");
    json::push_str(&mut out, &git_sha());
    for (key, value) in fields {
        out.push_str(", ");
        json::push_str(&mut out, key);
        out.push_str(": ");
        json::push_str(&mut out, value);
    }
    out.push_str("}}");
    out
}
