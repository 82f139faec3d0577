//! `selfcheck`: does the benchmark agree with itself? Two sets of runs
//! of the same build, interleaved A B A B so drift in the host lands on
//! both, one seed per run (the same seeds in both sets). For every
//! metric × workload the sets' medians are compared against the
//! metric's bound; a pairing whose spread inside a set exceeds the bound
//! is *unresolved*, not passed. Count-valued metrics must be identical
//! between the two sets for every seed.

use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

use crate::gen::Workload;
use crate::metrics::{parse_result, EndToEnd, END_TO_END};
use crate::recorder::median;
use crate::Args;

/// One child invocation's outcome.
#[derive(Debug, Clone)]
pub struct ChildRun {
    pub stdout: String,
    pub correct: bool,
    pub exit_ok: bool,
    pub metrics: BTreeMap<String, f64>,
    /// `driver.calib_drift` of the run, from its notes.
    pub calib_drift: Option<f64>,
}

/// Run one workload in a child process of this same executable.
pub fn spawn_run(
    workload: Workload,
    seed: u64,
    seconds: u32,
    traced: bool,
    quick: bool,
) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }]);
    if quick {
        cmd.arg("--quick");
    }
    let out = cmd.output().map_err(|e| format!("cannot run child: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    let last = stdout.lines().last().unwrap_or_default();
    let (correct, _, _, metrics) = parse_result(last).ok_or_else(|| {
        format!(
            "child printed no result line; stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        )
    })?;
    let calib_drift = stdout
        .lines()
        .find_map(|l| l.split("calib_drift ").nth(1))
        .and_then(|v| v.trim().parse().ok());
    Ok(ChildRun {
        stdout,
        correct,
        exit_ok: out.status.success(),
        metrics,
        calib_drift,
    })
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the default exclusive method); needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (i, q) in out.iter_mut().enumerate() {
        let i = i + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *q = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Interquartile range as a share of the median.
pub fn spread(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

/// How set B's median compares with set A's for one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Pass,
    /// The spread inside a set exceeds the bound: the sets cannot be
    /// told apart at this bound, so nothing is concluded.
    Unresolved,
    Fail,
}

/// Judge one metric × workload pairing from the two sets' values.
pub fn judge(metric: &EndToEnd, a: &[f64], b: &[f64]) -> Verdict {
    if metric.exact && a != b {
        return Verdict::Fail;
    }
    let (med_a, med_b) = (median(a), median(b));
    let worse_by = if metric.higher_is_better {
        (med_a - med_b) / med_a
    } else {
        (med_b - med_a) / med_a
    };
    let noisy = [a, b]
        .into_iter()
        .filter_map(spread)
        .any(|s| s > metric.bound);
    if noisy && !metric.exact {
        Verdict::Unresolved
    } else if worse_by > metric.bound {
        Verdict::Fail
    } else {
        Verdict::Pass
    }
}

pub fn run(args: &Args) -> ExitCode {
    println!(
        "selfcheck: 2 sets of {} runs per workload, interleaved; scale: {}",
        args.sets_of,
        if args.quick { "quick" } else { "full" }
    );
    // values[set][workload][metric] = one value per seed.
    let mut values: [BTreeMap<(usize, &str), Vec<f64>>; 2] = [BTreeMap::new(), BTreeMap::new()];
    let mut all_correct = true;
    for round in 0..args.sets_of {
        let seed = round as u64 + 1;
        for (set, per_set) in values.iter_mut().enumerate() {
            for (w, workload) in Workload::ALL.into_iter().enumerate() {
                let run = match spawn_run(workload, seed, args.seconds, false, args.quick) {
                    Ok(run) => run,
                    Err(e) => {
                        eprintln!("{} seed {seed}: {e}", workload.name());
                        return ExitCode::FAILURE;
                    }
                };
                println!(
                    "set {} seed {seed} {:<24} correct {} calib_drift {}",
                    ["A", "B"][set],
                    workload.name(),
                    run.correct && run.exit_ok,
                    run.calib_drift.map_or("?".into(), |d| format!("{d:.4}")),
                );
                all_correct &= run.correct && run.exit_ok;
                for m in END_TO_END {
                    per_set
                        .entry((w, m.name))
                        .or_default()
                        .push(run.metrics.get(m.name).copied().unwrap_or(0.0));
                }
            }
        }
    }
    println!(
        "\n{:<24} {:<20} {:>14} {:>14} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "median A", "median B", "iqr A", "iqr B", "bound"
    );
    let (mut failed, mut unresolved) = (0, 0);
    for (w, workload) in Workload::ALL.into_iter().enumerate() {
        for m in END_TO_END {
            let (a, b) = (&values[0][&(w, m.name)], &values[1][&(w, m.name)]);
            let verdict = judge(m, a, b);
            match verdict {
                Verdict::Fail => failed += 1,
                Verdict::Unresolved => unresolved += 1,
                Verdict::Pass => {}
            }
            let pct = |s: Option<f64>| s.map_or("-".into(), |s| format!("{:.2}%", s * 100.0));
            println!(
                "{:<24} {:<20} {:>14.4} {:>14.4} {:>8} {:>8} {:>5.0}%  {}{}",
                workload.name(),
                m.name,
                median(a),
                median(b),
                pct(spread(a)),
                pct(spread(b)),
                m.bound * 100.0,
                match verdict {
                    Verdict::Pass => "pass",
                    Verdict::Unresolved => "UNRESOLVED",
                    Verdict::Fail => "FAIL",
                },
                if m.exact && a == b {
                    " (identical per seed)"
                } else {
                    ""
                },
            );
        }
    }
    println!("\nselfcheck: {failed} failed, {unresolved} unresolved, runs correct: {all_correct}");
    if failed == 0 && all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TIME: EndToEnd = EndToEnd {
        name: "t",
        unit: "us",
        higher_is_better: false,
        bound: 0.10,
        exact: false,
    };
    const RATE: EndToEnd = EndToEnd {
        higher_is_better: true,
        ..TIME
    };
    const COUNT: EndToEnd = EndToEnd {
        exact: true,
        ..TIME
    };

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), Some([10.0, 20.0, 40.0]));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(spread(&ten), Some(1.0));
    }

    #[test]
    fn judges_regressions_noise_and_exact_counts() {
        let steady = [100.0, 101.0, 99.0, 100.0, 100.5];
        let slower = [115.0, 116.0, 114.0, 115.0, 115.5];
        let noisy = [80.0, 120.0, 100.0, 60.0, 140.0];
        assert_eq!(judge(&TIME, &steady, &steady), Verdict::Pass);
        assert_eq!(judge(&TIME, &steady, &slower), Verdict::Fail);
        // Lower is worse for a rate, so the same move the other way fails.
        assert_eq!(judge(&RATE, &slower, &steady), Verdict::Fail);
        assert_eq!(judge(&RATE, &steady, &slower), Verdict::Pass);
        assert_eq!(judge(&TIME, &steady, &noisy), Verdict::Unresolved);
        assert_eq!(judge(&COUNT, &steady, &steady), Verdict::Pass);
        let off_by_a_digit = [100.0, 101.0, 99.0, 100.0, 100.5000001];
        assert_eq!(judge(&COUNT, &steady, &off_by_a_digit), Verdict::Fail);
    }
}
