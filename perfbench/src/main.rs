//! The dnswild benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads: `auth-tld`, `auth-probe`, `resolve-warm` (see README.md
//! for why each exists). With `--trace 0` the last line
//! of standard output holds the end-to-end metrics; with `--trace 1`
//! the per-layer ones. Progress goes to standard error.

mod auth;
mod layers;
mod openloop;
mod procfs;
mod report;
mod resolvew;
mod schedule;
mod serving;
mod sim;
mod stats;
mod streams;
mod sys;
mod wire;

use std::process::ExitCode;

#[global_allocator]
static ALLOC: sys::CountingAlloc = sys::CountingAlloc;

const USAGE: &str =
    "usage: perfbench --workload <auth-tld|auth-probe|resolve-warm> --seed <n> --seconds <1..600> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    traced: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()?),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(1..=600).contains(&seconds) {
        return Err("--seconds must be within 1..=600".into());
    }
    let traced = match trace.ok_or("--trace is required")? {
        0 => false,
        1 => true,
        _ => return Err("--trace must be 0 or 1".into()),
    };
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        traced,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match args.workload.as_str() {
        "auth-tld" => auth::run(auth::Mix::Tld, args.seed, args.seconds, args.traced),
        "auth-probe" => auth::run(auth::Mix::Probe, args.seed, args.seconds, args.traced),
        "resolve-warm" => resolvew::run(args.seed, args.seconds, args.traced),
        other => {
            eprintln!("perfbench: unknown workload {other}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(outcome) => {
            println!("{}", outcome.to_json(args.traced));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = args("--workload auth-tld --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.traced),
            ("auth-tld", 7, 10, true)
        );
    }

    #[test]
    fn rejects_bad_command_lines() {
        assert!(args("--workload auth-tld --seed 7 --seconds 10").is_err());
        assert!(args("--workload auth-tld --seed x --seconds 10 --trace 0").is_err());
        assert!(args("--workload auth-tld --seed 1 --seconds 0 --trace 0").is_err());
        assert!(args("--workload auth-tld --seed 1 --seconds 5 --trace 2").is_err());
        assert!(args("--workload auth-tld --seed 1 --seconds 5 --trace 0 --extra 1").is_err());
    }
}
