//! Host facts stamped on every result, and the two controls the
//! benchmark applies to its own process: pinning to one CPU and handing
//! freed memory back between cycles.

use crate::stats::json_string;
use std::path::Path;
use std::sync::OnceLock;

static HOST_CPUS: OnceLock<usize> = OnceLock::new();

/// Logical CPUs the process could use when it started, before
/// [`pin_to_one_cpu`].
pub fn nproc() -> usize {
    *HOST_CPUS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
mod sys {
    extern "C" {
        pub fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        pub fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
        pub fn malloc_trim(pad: usize) -> i32;
        pub fn getrlimit(resource: i32, rlim: *mut [u64; 2]) -> i32;
    }
    pub const RLIMIT_FSIZE: i32 = 1;
}

/// Pins the calling thread, and so every thread it starts afterwards, to
/// the lowest-numbered CPU it may run on, and returns that CPU. The server
/// threads are started later and inherit the pin.
///
/// Spread over two vCPUs of a shared VM, served-read throughput varied
/// by up to 2x between the cycles of one run. Cross-CPU wake-ups
/// suffered whenever a neighbour loaded the host. On one CPU the same
/// runs varied by under 10%.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
pub fn pin_to_one_cpu() -> Option<usize> {
    nproc();
    let mut mask = [0u64; 16];
    // SAFETY: `mask` is 128 writable bytes (a glibc `cpu_set_t`) and the
    // size passed says so; pid 0 names the calling thread.
    let got = unsafe { sys::sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if got != 0 {
        return None;
    }
    let cpu = (0..mask.len() * 64).find(|c| mask[c / 64] >> (c % 64) & 1 == 1)?;
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is 128 readable bytes and the size passed says so;
    // pid 0 names the calling thread.
    let set = unsafe { sys::sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) };
    (set == 0).then_some(cpu)
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
pub fn pin_to_one_cpu() -> Option<usize> {
    nproc();
    None
}

/// Returns memory freed by the last cycle to the operating system, so
/// the next cycle's peak resident size counts only what it holds itself.
pub fn release_freed_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    // SAFETY: `malloc_trim` only releases free heap pages; it has no
    // preconditions.
    unsafe {
        sys::malloc_trim(0);
    }
}

/// Restarts this process's `VmHWM` from its current resident size, so
/// each cycle's peak is measured on its own.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// The largest file this process may write, in bytes (the soft
/// `RLIMIT_FSIZE`); `None` when unlimited or unknown. A write past it
/// kills the process with `SIGXFSZ`.
pub fn file_size_limit() -> Option<u64> {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        let mut lim = [0u64; 2];
        // SAFETY: `lim` is a writable `struct rlimit` (two `rlim_t`).
        let got = unsafe { sys::getrlimit(sys::RLIMIT_FSIZE, &mut lim) };
        (got == 0 && lim[0] != u64::MAX).then_some(lim[0])
    }
    #[cfg(not(all(target_os = "linux", target_env = "gnu")))]
    None
}

/// `VmHWM` of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The commit being measured: `git rev-parse HEAD` where the checkout is
/// a git repository, `unknown` otherwise.
pub fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// FNV-1a over the measured sources (`crates/`, the root manifest and
/// lock file), so results identify the code even where no git history
/// exists.
pub fn source_digest(root: &Path) -> String {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                if p.file_name().is_some_and(|n| n != "target") {
                    walk(&p, out);
                }
            } else {
                out.push(p);
            }
        }
    }
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    walk(&root.join("crates"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for f in &files {
        if let Ok(bytes) = std::fs::read(f) {
            feed(
                f.strip_prefix(root)
                    .unwrap_or(f)
                    .to_string_lossy()
                    .as_bytes(),
            );
            feed(&bytes);
        }
    }
    format!("{h:016x}")
}

/// CPU features the frozen tree's lane kernels can use on this host.
pub fn cpu_features() -> Vec<&'static str> {
    let mut out = Vec::new();
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("sse2") {
            out.push("sse2");
        }
        if std::arch::is_x86_feature_detected!("avx") {
            out.push("avx");
        }
    }
    out
}

/// `key: value` pairs rendered as a JSON object; values are raw JSON.
pub fn json_object(pairs: &[(&str, String)]) -> String {
    let body: Vec<String> = pairs
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_string(k)))
        .collect();
    format!("{{{}}}", body.join(", "))
}
