//! `exp_e2e` — the wall-clock serving benchmark of the ClusterKV stack.
//!
//! Four closed-loop workloads are driven through the whole
//! `Scheduler → ServeEngine → ClusterCache → kernels` path, and every number
//! is taken from outside the program, by timing calls into public functions
//! (README.md in this directory has the metric tables and the reasons).
//!
//! ```text
//! exp_e2e --workload <name> [--seed N] [--seconds S] [--trace [0|1]] [--smoke]
//! exp_e2e repeat [--sets N] [--seed N] [--seconds S] [--smoke] [--out FILE]
//! exp_e2e compare <a.json> <b.json>
//! ```
//!
//! A run prints two lines of JSON: a report (host, seed, stream digest,
//! requests per phase, every metric) and, last, the result object of the
//! benchmark contract — `{"correct", "attempted", "failed", "metrics"}`. It
//! exits non-zero when an output check fails. `--trace 1` runs the traced
//! passes instead, prints the per-layer metrics and writes the spans to
//! `trace_<workload>.json` in the working directory.
//!
//! The same sources build two ways: as the `exp_e2e` bin of `clusterkv-bench`
//! (so the workspace's tests and lints cover them) and through the
//! `Cargo.toml` next to this file, a package of its own, which is the
//! command `BENCHMARK.json` names.

mod compare;
mod components;
mod driver;
mod json;
mod metrics;
mod replay;
mod run;
mod spec;
mod stats;
mod trace;

use metrics::Contract;
use run::RunArgs;
use std::process::ExitCode;

const USAGE: &str = "usage:
  exp_e2e --workload <name> [--seed N] [--seconds S] [--trace [0|1]] [--smoke]
  exp_e2e repeat [--sets N] [--seed N] [--seconds S] [--smoke] [--out FILE]
  exp_e2e compare <a.json> <b.json>";

const DEFAULT_SEED: u64 = 1;

/// Flags shared by a run and `repeat`.
#[derive(Debug, Default)]
struct Flags {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    sets: Option<usize>,
    out: Option<String>,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags::default();
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs {what}"))
        };
        match arg.as_str() {
            "--workload" => flags.workload = Some(value("a workload name")?),
            "--seed" => {
                let v = value("a whole number")?;
                flags.seed = Some(
                    v.parse()
                        .map_err(|_| format!("--seed {v}: not a whole number"))?,
                );
            }
            "--seconds" => {
                let v = value("a number of seconds")?;
                let s: f64 = v
                    .parse()
                    .map_err(|_| format!("--seconds {v}: not a number"))?;
                if !(s.is_finite() && s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds {v}: must be in (0, 3600]"));
                }
                flags.seconds = Some(s);
            }
            "--sets" => {
                let v = value("a count")?;
                let n: usize = v.parse().map_err(|_| format!("--sets {v}: not a count"))?;
                if !(1..=100).contains(&n) {
                    return Err(format!("--sets {v}: must be in 1..=100"));
                }
                flags.sets = Some(n);
            }
            "--out" => flags.out = Some(value("a file name")?),
            "--smoke" => flags.smoke = true,
            // `--trace` alone switches tracing on; `--trace 0|1` is the
            // form the benchmark driver passes.
            "--trace" => {
                flags.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(flags)
}

fn run_args(flags: &Flags, contract: &Contract) -> Result<RunArgs, String> {
    let name = flags.workload.as_deref().ok_or("--workload is required")?;
    let workload = spec::workload(name).ok_or_else(|| {
        let known: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
        format!(
            "unknown workload {name}; the workloads are {}",
            known.join(", ")
        )
    })?;
    if flags.sets.is_some() || flags.out.is_some() {
        return Err("--sets and --out belong to `repeat`".into());
    }
    Ok(RunArgs {
        workload,
        seed: flags.seed.unwrap_or(DEFAULT_SEED),
        seconds: flags.seconds.unwrap_or(contract.run_seconds),
        trace: flags.trace,
        scale: if flags.smoke {
            spec::Scale::smoke()
        } else {
            spec::Scale::full()
        },
    })
}

fn read_json(path: &str) -> Result<json::Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// `Ok(true)`: everything held. `Ok(false)`: the command ran and a check
/// failed. `Err`: the command could not run.
fn dispatch(args: &[String], contract: &Contract) -> Result<bool, String> {
    match args.first().map(String::as_str) {
        Some("compare") => {
            let [_, a, b] = args else {
                return Err("compare takes two files".into());
            };
            let (table, any_worse) = compare::compare(contract, &read_json(a)?, &read_json(b)?)?;
            print!("{table}");
            Ok(!any_worse)
        }
        Some("repeat") => {
            let flags = parse_flags(&args[1..])?;
            if flags.workload.is_some() || flags.trace {
                return Err("repeat runs every workload, untraced and traced".into());
            }
            let opts = compare::RepeatOpts {
                sets: flags.sets.unwrap_or(2),
                seed: flags.seed.unwrap_or(DEFAULT_SEED),
                seconds: flags.seconds.unwrap_or(contract.run_seconds),
                smoke: flags.smoke,
            };
            let (table, summary, ok) = compare::repeat(contract, &opts)?;
            print!("{table}");
            let line = summary.render();
            if let Some(path) = &flags.out {
                std::fs::write(path, format!("{line}\n"))
                    .map_err(|e| format!("cannot write {path}: {e}"))?;
            }
            println!("{line}");
            Ok(ok)
        }
        _ => {
            let run_args = run_args(&parse_flags(args)?, contract)?;
            let out = run::run(&run_args)?;
            if let Some(spans) = &out.spans {
                let path = format!("trace_{}.json", run_args.workload.name);
                std::fs::write(&path, spans.render() + "\n")
                    .map_err(|e| format!("cannot write {path}: {e}"))?;
            }
            println!("{}", out.report.render());
            println!("{}", out.result.render());
            Ok(out.correct)
        }
    }
}

fn main() -> ExitCode {
    // Fixed worker count, set before any thread exists; the shim reads the
    // variable at every parallel region.
    if std::env::var_os("RAYON_NUM_THREADS").is_none() {
        std::env::set_var("RAYON_NUM_THREADS", spec::THREADS.to_string());
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let contract = match metrics::parse_contract(metrics::BENCHMARK_JSON)
        .and_then(|c| metrics::check_names(&c).map(|()| c))
    {
        Ok(contract) => contract,
        Err(e) => {
            eprintln!("exp_e2e: {e}");
            return ExitCode::from(2);
        }
    };
    match dispatch(&args, &contract) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("exp_e2e: an output check failed");
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("exp_e2e: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(args: &[&str]) -> Result<Flags, String> {
        parse_flags(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_driver_command_line_parses() {
        let f = flags(&[
            "--workload",
            "cold_prefill",
            "--seed",
            "7",
            "--seconds",
            "15",
            "--trace",
            "0",
        ])
        .unwrap();
        assert_eq!(f.workload.as_deref(), Some("cold_prefill"));
        assert_eq!((f.seed, f.seconds, f.trace), (Some(7), Some(15.0), false));
        assert!(flags(&["--trace", "1"]).unwrap().trace);
        assert!(flags(&["--trace"]).unwrap().trace);
        let f = flags(&["--trace", "--smoke"]).unwrap();
        assert!(f.trace && f.smoke);
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for bad in [
            &["--workload"][..],
            &["--seed", "x"],
            &["--seed", "-1"],
            &["--seconds", "0"],
            &["--seconds", "inf"],
            &["--seconds", "nan"],
            &["--sets", "0"],
            &["--bogus"],
        ] {
            assert!(flags(bad).is_err(), "{bad:?}");
        }
        let contract = metrics::parse_contract(metrics::BENCHMARK_JSON).unwrap();
        assert!(run_args(&flags(&[]).unwrap(), &contract)
            .unwrap_err()
            .contains("required"));
        assert!(
            run_args(&flags(&["--workload", "nope"]).unwrap(), &contract)
                .unwrap_err()
                .contains("docqa_long_decode")
        );
        assert!(run_args(
            &flags(&["--workload", "cold_prefill", "--sets", "2"]).unwrap(),
            &contract
        )
        .is_err());
        let args = run_args(&flags(&["--workload", "cold_prefill"]).unwrap(), &contract).unwrap();
        assert_eq!(args.seconds, contract.run_seconds);
        assert_eq!(args.seed, DEFAULT_SEED);
        let strings = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert!(dispatch(&strings(&["compare", "only-one"]), &contract).is_err());
        assert!(dispatch(
            &strings(&["compare", "/nonexistent/a", "/nonexistent/b"]),
            &contract
        )
        .unwrap_err()
        .contains("cannot read"));
        assert!(dispatch(&strings(&["repeat", "--workload", "x"]), &contract).is_err());
    }
}
