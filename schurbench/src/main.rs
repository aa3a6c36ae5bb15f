//! `schurbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints every metric on its own line with unit and sample count, then
//! one JSON result line. Exits non-zero, printing no result, on any
//! error.

use std::path::Path;
use std::process::ExitCode;

fn run() -> schurbench::Result<String> {
    schurbench::cli::check_env(|k| std::env::var_os(k).map(|v| v.to_string_lossy().into_owned()))?;
    let args = schurbench::cli::Args::parse(std::env::args().skip(1))?;
    let out_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let report = schurbench::workloads::run(&args, &out_dir)?;
    Ok(report.render())
}

fn main() -> ExitCode {
    match run() {
        Ok(text) => {
            print!("{text}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("schurbench: {e}");
            ExitCode::from(2)
        }
    }
}
