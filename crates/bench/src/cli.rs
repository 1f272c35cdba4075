//! Minimal hand-rolled CLI for the harness binaries (no extra deps).

use std::path::PathBuf;
use std::sync::Arc;

use rtf::{RtfBuilder, TxObs};

/// Common harness flags.
#[derive(Clone, Debug, Default)]
pub struct Args {
    /// CI-sized parameters (small sweeps, small data).
    pub quick: bool,
    /// Total thread budget (clients + futures pool); defaults per binary.
    pub threads: Option<usize>,
    /// Operations per client; defaults per binary.
    pub ops: Option<usize>,
    /// Directory for CSV output.
    pub csv: Option<PathBuf>,
    /// Synthetic array size override.
    pub array_size: Option<usize>,
    /// Observer attached to every TM the harness builds (set by the
    /// binaries via [`crate::sidecar::MetricsSidecar`], not a CLI flag).
    pub obs: Option<Arc<TxObs>>,
}

impl Args {
    /// Parses `std::env::args`; exits with usage on error or `--help`.
    pub fn parse() -> Args {
        Self::parse_from(std::env::args().skip(1))
    }

    /// Parses from an explicit iterator (testable).
    pub fn parse_from(iter: impl IntoIterator<Item = String>) -> Args {
        let mut args = Args::default();
        let mut it = iter.into_iter();
        while let Some(flag) = it.next() {
            let mut take = |name: &str| -> String {
                it.next().unwrap_or_else(|| {
                    eprintln!("missing value for {name}");
                    std::process::exit(2);
                })
            };
            match flag.as_str() {
                "--quick" => args.quick = true,
                "--threads" => args.threads = Some(parse_num(&take("--threads"))),
                "--ops" => args.ops = Some(parse_num(&take("--ops"))),
                "--array-size" => args.array_size = Some(parse_num(&take("--array-size"))),
                "--csv" => args.csv = Some(PathBuf::from(take("--csv"))),
                "--help" | "-h" => {
                    eprintln!("flags: --quick  --threads N  --ops N  --array-size N  --csv DIR");
                    std::process::exit(0);
                }
                other => {
                    eprintln!("unknown flag {other}");
                    std::process::exit(2);
                }
            }
        }
        args
    }

    /// A TM builder with the harness observer (if any) pre-attached; every
    /// sweep builds its TMs through this so one sidecar aggregates the
    /// whole figure.
    pub fn tm(&self) -> RtfBuilder {
        let b = rtf::Rtf::builder();
        match &self.obs {
            Some(obs) => b.observer(Arc::clone(obs)),
            None => b,
        }
    }

    /// Total thread budget: explicit, else scaled to the machine (the
    /// paper used a 48-core box; we default to `max(4, 2×cores)` so the
    /// allocation-strategy comparison is meaningful even on small hosts).
    pub fn thread_budget(&self) -> usize {
        self.threads.unwrap_or_else(|| {
            let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
            (2 * cores).max(4)
        })
    }
}

fn parse_num(s: &str) -> usize {
    // Accept 100_000, 100k, 1m.
    let s = s.replace('_', "");
    let (num, mult) = match s.chars().last() {
        Some('k') | Some('K') => (&s[..s.len() - 1], 1_000),
        Some('m') | Some('M') => (&s[..s.len() - 1], 1_000_000),
        _ => (s.as_str(), 1),
    };
    num.parse::<usize>().map(|n| n * mult).unwrap_or_else(|_| {
        eprintln!("invalid number: {s}");
        std::process::exit(2);
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(v: &[&str]) -> Args {
        Args::parse_from(v.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_flags() {
        let a = parse(&["--quick", "--threads", "8", "--ops", "2k", "--csv", "/tmp/x"]);
        assert!(a.quick);
        assert_eq!(a.threads, Some(8));
        assert_eq!(a.ops, Some(2000));
        assert_eq!(a.csv.as_deref(), Some(std::path::Path::new("/tmp/x")));
        assert_eq!(a.thread_budget(), 8);
    }

    #[test]
    fn suffixes() {
        let a = parse(&["--array-size", "1m"]);
        assert_eq!(a.array_size, Some(1_000_000));
    }

    #[test]
    fn default_budget_positive() {
        assert!(parse(&[]).thread_budget() >= 4);
    }
}
