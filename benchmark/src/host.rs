//! What the benchmark reads from the host: CPU time, memory high-water
//! mark, steal, a calibration loop, and the facts printed with a result.

use std::fs;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// On-CPU nanoseconds of every thread of this process so far, threads
/// that already ended included — the sum `/proc/self/task/*/schedstat`
/// gives for the live ones.
pub fn process_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` writes one `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this benchmark supports) through
    // a valid, exclusive pointer and reads nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// `VmHWM` of this process in MB (0 where `/proc` does not give it).
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
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
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `(steal, total)` clock ticks of all CPUs since boot, from `/proc/stat`.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already inside user/nice.
    let total = fields.iter().take(8).sum();
    (fields.get(7).copied().unwrap_or(0), total)
}

/// A fixed integer loop; its wall time moves only with the host (clock
/// speed, a neighbour on the core), never with the program under test.
pub fn calibrate() -> u64 {
    let start = Instant::now();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for _ in 0..black_box(200_000u32) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    black_box(x);
    start.elapsed().as_nanos() as u64
}

/// Host facts recorded with every result.
pub struct Facts {
    pub nproc: usize,
    pub cpu_model: String,
    pub load_average: String,
    pub git_commit: String,
}

pub fn facts() -> Facts {
    let cpuinfo = fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cpu_model = cpuinfo
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split(':').nth(1))
        .map_or_else(|| "unknown".to_string(), |m| m.trim().to_string());
    let load_average = fs::read_to_string("/proc/loadavg")
        .map(|l| l.split_whitespace().take(3).collect::<Vec<_>>().join(" "))
        .unwrap_or_else(|_| "unknown".to_string());
    Facts {
        nproc: std::thread::available_parallelism().map_or(1, usize::from),
        cpu_model,
        load_average,
        git_commit: git_commit(),
    }
}

/// The checked-out commit, read without running git; the driver's
/// checkout is not a repository, and then this says so.
fn git_commit() -> String {
    let head = match fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "not a git checkout".to_string(),
    };
    match head.strip_prefix("ref: ") {
        Some(reference) => fs::read_to_string(Path::new(".git").join(reference))
            .map_or(head.clone(), |c| c.trim().to_string()),
        None => head,
    }
}

/// The filesystem type `path` lives on, from `/proc/mounts` (longest
/// mount-point prefix wins).
pub fn filesystem_of(path: &Path) -> String {
    let path = fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let mounts = fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, point, kind) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(point)
                .then(|| (point.len(), kind.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_string(), |(_, kind)| kind)
}
