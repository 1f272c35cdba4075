//! Process measurements (CPU time, peak RSS) and the host description
//! printed with every result.

use std::path::Path;
use std::process::Command;
use std::time::Duration;

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then 14 longs.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

/// User plus system CPU time of the whole process so far.
pub fn process_cpu() -> Duration {
    let mut ru = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        rest: [0; 14],
    };
    // SAFETY: `ru` is a live, writable value laid out as the C `struct
    // rusage` of 64-bit Linux, and getrusage writes nothing beyond it.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail with a valid pointer");
    let us = |t: &Timeval| t.sec as u64 * 1_000_000 + t.usec as u64;
    Duration::from_micros(us(&ru.utime) + us(&ru.stime))
}

/// Peak resident set size of the process so far (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn command_line(program: &str, args: &[&str], dir: &Path) -> Option<String> {
    let out = Command::new(program).args(args).current_dir(dir).output().ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// FNV-1a over the repository's build inputs: every file under `crates/`
/// plus the root manifest and lock file, in path order. Identifies the
/// measured source where no git metadata exists.
fn source_fingerprint(root: &Path) -> String {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else { return };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else {
                out.push(p);
            }
        }
    }
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    walk(&root.join("crates"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        let rel = f.strip_prefix(root).unwrap_or(f).to_string_lossy().into_owned();
        for b in rel.bytes().chain(std::fs::read(f).unwrap_or_default()) {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

/// Facts that make two result files comparable.
pub struct Host {
    pub nproc: usize,
    pub cpu: String,
    pub git_rev: String,
    pub source: String,
    pub rustc: String,
}

impl Host {
    /// Describes this host and the source tree at `root`.
    pub fn probe(root: &Path) -> Host {
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu: cpu_model(),
            // Only the repository's own metadata: a checkout without
            // `.git` must not report some enclosing repository's head.
            git_rev: root
                .join(".git")
                .exists()
                .then(|| command_line("git", &["rev-parse", "HEAD"], root))
                .flatten()
                .unwrap_or_else(|| "none".into()),
            source: source_fingerprint(root),
            rustc: command_line("rustc", &["--version"], root).unwrap_or_else(|| "unknown".into()),
        }
    }
}
