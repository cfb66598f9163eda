//! Host provenance and process resource readings. Every result the
//! benchmark prints carries the host it was measured on; results from
//! different hosts are not comparable.

use std::fs;
use std::path::Path;
use std::process::Command;

/// Where a measurement was taken.
#[derive(Debug, Clone, PartialEq)]
pub struct Host {
    /// Cores the process may run on.
    pub nproc: usize,
    /// First `model name` of `/proc/cpuinfo`.
    pub cpu: String,
    /// `rustc -V`.
    pub rustc: String,
    /// Git revision of the working directory's checkout.
    pub revision: String,
}

impl Host {
    /// Reads the current host. Anything unreadable is `unknown`.
    pub fn detect() -> Self {
        let cpu = fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|text| {
                text.lines()
                    .find_map(|l| l.strip_prefix("model name"))
                    .and_then(|rest| rest.split_once(':'))
                    .map(|(_, model)| model.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        let rustc = Command::new("rustc")
            .arg("-V")
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".to_string());
        Host {
            nproc: nproc(),
            cpu,
            rustc,
            revision: git_revision(Path::new(".git")).unwrap_or_else(|| "unknown".to_string()),
        }
    }
}

/// Cores available to this process (at least 1).
fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The commit `HEAD` names in the repository at `git_dir`, read from the
/// files directly so nothing outside the working directory is consulted.
fn git_revision(git_dir: &Path) -> Option<String> {
    let head = fs::read_to_string(git_dir.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = fs::read_to_string(git_dir.join(reference)) {
        return Some(rev.trim().to_string());
    }
    let packed = fs::read_to_string(git_dir.join("packed-refs")).ok()?;
    packed.lines().find_map(|l| {
        let (rev, name) = l.split_once(' ')?;
        (name == reference).then(|| rev.to_string())
    })
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

/// User + system CPU time of this process and all its threads, seconds,
/// from `/proc/self/stat` (clock ticks at the Linux default of 100 Hz).
pub fn process_cpu_s() -> Option<f64> {
    let stat = fs::read_to_string("/proc/self/stat").ok()?;
    // The command name may contain spaces; fields resume after its `)`.
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // utime and stime are fields 14 and 15 of the full line, i.e. 12 and
    // 13 counted from the state field that follows the name.
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / 100.0)
}
