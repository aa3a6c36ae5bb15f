//! Command line and process environment of one run.

use crate::Result;

/// Environment variables that change what the program does behind the
/// benchmark's back: `BS_PRECISION` overrides a pinned precision,
/// `BS_CALIBRATE` brings wall-clock-measured rates into planning, and
/// the rest override thread count, kernel ISA or GEMM blocking. A run
/// refuses to start while any of them is set.
pub const PINNED_ENV: [&str; 7] = [
    "BS_THREADS",
    "BS_KERNEL",
    "BS_PRECISION",
    "BS_CALIBRATE",
    "BS_MC",
    "BS_KC",
    "BS_NC",
];

/// Parsed command line.
#[derive(Clone, Debug, PartialEq)]
pub struct Args {
    /// Workload name (`factor_block`, `refine_mix`, `serve_mix`,
    /// `shard_np2`).
    pub workload: String,
    /// Seed every input of the run is generated from.
    pub seed: u64,
    /// Length of the timed phase in seconds.
    pub seconds: f64,
    /// `true` for the traced run that prints the per-layer metrics.
    pub trace: bool,
}

const USAGE: &str = "usage: schurbench --workload <name> --seed <n> --seconds <s> [--trace <0|1>]";

impl Args {
    /// Parse `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = false;
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let value = it
                .next()
                .ok_or_else(|| format!("{flag} needs a value; {USAGE}"))?;
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => {
                    seed = Some(value.parse::<u64>().map_err(|_| {
                        format!("--seed must be a non-negative integer, got {value:?}")
                    })?)
                }
                "--seconds" => {
                    let s = value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s > 0.0 && *s <= 600.0)
                        .ok_or_else(|| format!("--seconds must be in (0, 600], got {value:?}"))?;
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                    }
                }
                _ => return Err(format!("unknown argument {flag:?}; {USAGE}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or_else(|| format!("missing --workload; {USAGE}"))?,
            seed: seed.ok_or_else(|| format!("missing --seed; {USAGE}"))?,
            seconds: seconds.ok_or_else(|| format!("missing --seconds; {USAGE}"))?,
            trace,
        })
    }
}

/// Refuse to run while a pinned-away override is set; `lookup` reads
/// one environment variable.
pub fn check_env(lookup: impl Fn(&str) -> Option<String>) -> Result<()> {
    let set: Vec<&str> = PINNED_ENV
        .iter()
        .copied()
        .filter(|k| lookup(k).is_some())
        .collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "refusing to run with {} set: the benchmark pins threads, kernel, precision, \
             calibration and blocking itself",
            set.join(", ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args> {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = args("--workload serve_mix --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload, "serve_mix");
        assert_eq!(a.seed, 7);
        assert_eq!(a.seconds, 10.0);
        assert!(a.trace);
        assert!(!args("--workload x --seed 1 --seconds 2").unwrap().trace);
    }

    #[test]
    fn rejects_bad_command_lines() {
        assert!(args("--workload x --seed -1 --seconds 2").is_err());
        assert!(args("--workload x --seed 1 --seconds 0").is_err());
        assert!(args("--workload x --seed 1 --seconds 2 --trace 2").is_err());
        assert!(args("--seed 1 --seconds 2").is_err());
        assert!(args("--workload x --seed 1 --seconds 2 --bogus 1").is_err());
        assert!(args("--workload").is_err());
    }

    #[test]
    fn every_override_blocks_the_run() {
        assert!(check_env(|_| None).is_ok());
        for k in PINNED_ENV {
            let err = check_env(|v| (v == k).then(|| "1".to_string())).unwrap_err();
            assert!(err.contains(k), "{err}");
        }
    }
}
