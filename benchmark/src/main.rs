//! `acheron-benchmark`: four seeded closed-loop workloads over the
//! Acheron engine, every answer checked against the benchmark's own
//! oracle, every metric printed by name with its unit.
//!
//! ```text
//! acheron-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick]
//! acheron-benchmark all [--seed <n>] [--seconds <s>] [--traced] [--quick]
//! acheron-benchmark selfcheck [--sets-of <n>] [--quick]
//! ```
//!
//! The first form is what `BENCHMARK.json` runs: one workload in this
//! process; the last line of standard output is the result object.
//! `--trace 1` is the traced run (per-layer table, spans written to
//! `benchmark/out/trace-<workload>.jsonl`). `all` runs every workload in
//! a child process of its own.

mod calib;
mod driver;
mod gen;
mod metrics;
mod probe;
mod profile;
mod recorder;
mod selfcheck;
mod sink;
mod sys;
mod timed_vfs;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

use gen::{Workload, RUN_SECONDS};
use workload::Config;

const USAGE: &str = "usage:
  acheron-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick] [--out-dir <dir>]
  acheron-benchmark all [--seed <n>] [--seconds <s>] [--traced] [--quick]
  acheron-benchmark selfcheck [--sets-of <n>] [--quick]
workloads: ingest-delete, read-aged, wire-perop, wire-pipelined-sharded";

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    pub command: Option<String>,
    pub workload: Option<Workload>,
    pub seed: u64,
    pub seconds: u32,
    pub traced: bool,
    pub quick: bool,
    pub sets_of: usize,
    pub out_dir: PathBuf,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        command: None,
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS,
        traced: false,
        quick: false,
        sets_of: 5,
        out_dir: PathBuf::from("benchmark/out"),
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs {what}"))
        };
        match arg.as_str() {
            "all" | "selfcheck" if args.command.is_none() => args.command = Some(arg.clone()),
            "--workload" => {
                let name = value("a workload name")?;
                args.workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&args.seconds) {
                    return Err("--seconds must be 1..=60".into());
                }
            }
            "--trace" => {
                args.traced = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other}")),
                }
            }
            "--traced" => args.traced = true,
            "--quick" => args.quick = true,
            "--sets-of" => {
                args.sets_of = value("a number")?
                    .parse()
                    .map_err(|e| format!("--sets-of: {e}"))?;
                if args.sets_of == 0 {
                    return Err("--sets-of must be at least 1".into());
                }
            }
            "--out-dir" => args.out_dir = PathBuf::from(value("a directory")?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// Run one workload in this process and print its report; the result
/// object is the last line of standard output.
fn run_one(args: &Args, workload: Workload) -> ExitCode {
    let report = workload::run(&Config {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        quick: args.quick,
        traced: args.traced,
        out_dir: args.out_dir.clone(),
    });
    for note in &report.notes {
        println!("# {note}");
    }
    print!("{}", report.result.to_table());
    println!("{}", report.result.to_json());
    exit_code(report.result.correct)
}

/// A wrong answer, a failed check or a broken `D_th` bound fails the run.
fn exit_code(correct: bool) -> ExitCode {
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Run every workload, each in a child process of its own.
fn run_all(args: &Args) -> ExitCode {
    let mut all_correct = true;
    for workload in Workload::ALL {
        for traced in [false, true] {
            if traced && !args.traced {
                continue;
            }
            println!(
                "== {} ({}) ==",
                workload.name(),
                if traced { "traced" } else { "untraced" }
            );
            match selfcheck::spawn_run(workload, args.seed, args.seconds, traced, args.quick) {
                Ok(run) => {
                    print!("{}", run.stdout);
                    all_correct &= run.correct && run.exit_ok;
                }
                Err(e) => {
                    eprintln!("{}: {e}", workload.name());
                    all_correct = false;
                }
            }
        }
    }
    exit_code(all_correct)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match (args.command.as_deref(), args.workload) {
        (None, Some(workload)) => run_one(&args, workload),
        (Some("all"), None) => run_all(&args),
        (Some("selfcheck"), None) => selfcheck::run(&args),
        _ => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = parse_args(&argv(
            "--workload read-aged --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload, Some(Workload::ReadAged));
        assert_eq!((a.seed, a.seconds, a.traced, a.quick), (7, 10, true, false));
        let a = parse_args(&argv("selfcheck --sets-of 3 --quick")).unwrap();
        assert_eq!(a.command.as_deref(), Some("selfcheck"));
        assert_eq!((a.sets_of, a.quick), (3, true));
    }

    #[test]
    fn rejects_what_it_does_not_understand() {
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--trace 2")).is_err());
        assert!(parse_args(&argv("--seconds 0")).is_err());
        assert!(parse_args(&argv("--seed")).is_err());
        assert!(parse_args(&argv("--frobnicate")).is_err());
    }

    #[test]
    fn an_incorrect_run_exits_nonzero() {
        assert_eq!(exit_code(true), ExitCode::SUCCESS);
        assert_eq!(exit_code(false), ExitCode::FAILURE);
    }
}
