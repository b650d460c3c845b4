//! The eblcio benchmark: four named workloads, end-to-end metrics with
//! regression bounds, and a per-layer traced run. See README.md.
//!
//! ```text
//! eblcio_benchmark run [--workload NAME] [--seed N] [--seconds S]
//!                      [--trace 0|1 | --traced] [--quick] [--out FILE]
//! eblcio_benchmark compare A B
//! ```
//!
//! `run --workload NAME` prints, as its last line of standard output,
//! one JSON object with exactly the keys `correct`, `attempted`,
//! `failed` and `metrics`. Without `--workload`, each workload runs in
//! its own child process, so `peak_rss_mb` is per workload.

mod alloc_count;
mod compare;
mod harness;
mod layers;
mod report;
mod schedule;
mod stats;
mod trace;
mod workloads;

use harness::{Ctx, Outcome};
use report::{Meta, RUN_SECONDS, WORKLOADS};
use serde::Value;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

#[global_allocator]
static ALLOCATOR: alloc_count::Counting = alloc_count::Counting;

/// Where storage roots, span files and result documents go: inside the
/// checkout, relative to the directory the command is run from.
const OUT_DIR: &str = "benchmark/out";

struct RunArgs {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    out: Option<PathBuf>,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut a = RunArgs {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        quick: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?.clone()),
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                a.seconds = Some(s);
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--traced" => a.trace = true,
            "--quick" => a.quick = true,
            "--out" => a.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if let Some(w) = &a.workload {
        if !WORKLOADS.iter().any(|(name, _)| name == w) {
            return Err(format!(
                "unknown workload {w:?}; one of {:?}",
                WORKLOADS.map(|w| w.0)
            ));
        }
    }
    Ok(a)
}

impl RunArgs {
    /// `--quick` runs a tenth of the window and marks the result
    /// non-comparable, so the suite can be smoke-run without becoming a
    /// second set of numbers.
    fn seconds(&self) -> f64 {
        let s = self.seconds.unwrap_or(RUN_SECONDS as f64);
        if self.quick {
            s / 10.0
        } else {
            s
        }
    }

    fn meta(&self) -> Meta {
        Meta {
            seed: self.seed,
            seconds: self.seconds(),
            t: harness::threads(),
            quick: self.quick,
        }
    }

    fn suffix(&self) -> &'static str {
        if self.trace {
            "traced"
        } else {
            "untraced"
        }
    }
}

fn write_result(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Runs one workload in this process.
fn run_one(args: &RunArgs, workload: &str) -> Result<bool, String> {
    // A private scratch root per process, removed at the end.
    let out_dir = PathBuf::from(OUT_DIR);
    let scratch = out_dir.join(format!("scratch-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds(),
        trace: args.trace,
        t: harness::threads(),
        scratch: scratch.clone(),
        out_dir: out_dir.clone(),
    };
    let result = workloads::run(workload, &ctx);
    let _ = std::fs::remove_dir_all(&scratch);
    let outcome: Outcome = result?;
    for f in &outcome.failures {
        eprintln!("FAILED: {f}");
    }
    let metrics = report::contract_metrics(&outcome, args.trace)?;
    let doc = report::document(
        &args.meta(),
        vec![report::run_value(workload, args.trace, &outcome)],
    );
    let path = args
        .out
        .clone()
        .unwrap_or_else(|| out_dir.join(format!("result-{workload}-{}.json", args.suffix())));
    write_result(&path, &doc)?;
    eprintln!(
        "{workload}: {} ops in a {:.1} s window, {} attempted, {} failed; full result in {}",
        outcome.window_ops,
        outcome.window_wall_s,
        outcome.attempted,
        outcome.failed,
        path.display()
    );
    println!("{}", report::contract_line(&outcome, &metrics));
    // Failed ops are reported in the line above, not by the exit code.
    Ok(true)
}

/// Runs every workload, each in a child process of this binary, and
/// gathers their result documents into one.
fn run_suite(args: &RunArgs) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out_dir = PathBuf::from(OUT_DIR);
    let mut runs = Vec::new();
    let mut all_ok = true;
    for (workload, _) in WORKLOADS {
        let part = out_dir.join(format!("result-{workload}-{}.json", args.suffix()));
        let mut cmd = std::process::Command::new(&exe);
        cmd.args([
            "run",
            "--workload",
            workload,
            "--seed",
            &args.seed.to_string(),
        ])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&part);
        if let Some(s) = args.seconds {
            cmd.args(["--seconds", &s.to_string()]);
        }
        if args.quick {
            cmd.arg("--quick");
        }
        // `status` waits for the child to end.
        let status = cmd.status().map_err(|e| format!("spawn {workload}: {e}"))?;
        if !status.success() {
            return Err(format!("{workload} exited with {status}"));
        }
        let text =
            std::fs::read_to_string(&part).map_err(|e| format!("{}: {e}", part.display()))?;
        let doc: Value =
            serde_json::from_str(&text).map_err(|e| format!("{}: {e}", part.display()))?;
        for run in doc.get("runs").and_then(Value::as_seq).unwrap_or(&[]) {
            all_ok &= run.get("correct") == Some(&Value::Bool(true));
            runs.push(run.clone());
        }
    }
    let path = args
        .out
        .clone()
        .unwrap_or_else(|| out_dir.join(format!("suite-{}.json", args.suffix())));
    write_result(&path, &report::document(&args.meta(), runs))?;
    eprintln!("suite result in {}", path.display());
    Ok(all_ok)
}

fn compare_cmd(args: &[String]) -> Result<bool, String> {
    let [a, b] = args else {
        return Err("compare takes two result files (or directories of them): A B".into());
    };
    let (a, b) = (compare::load(Path::new(a))?, compare::load(Path::new(b))?);
    let rows = compare::compare(&a, &b);
    print!("{}", compare::render(&rows));
    let failures = compare::failure_regressions(&a, &b);
    for f in &failures {
        println!("REGRESSED  {f}");
    }
    let regressed = rows
        .iter()
        .filter(|r| r.verdict == compare::Verdict::Regressed)
        .count();
    let unresolved = rows
        .iter()
        .filter(|r| r.verdict == compare::Verdict::Unresolved)
        .count();
    println!(
        "{} rows: {regressed} regressed, {unresolved} unresolved, {} failure regressions",
        rows.len(),
        failures.len()
    );
    Ok(regressed == 0 && failures.is_empty())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => parse_run(rest).and_then(|a| match a.workload.clone() {
            Some(w) => run_one(&a, &w),
            None => run_suite(&a),
        }),
        Some((cmd, rest)) if cmd == "compare" => compare_cmd(rest),
        _ => Err("usage: eblcio_benchmark run [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--quick] [--out FILE] | compare A B".into()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
