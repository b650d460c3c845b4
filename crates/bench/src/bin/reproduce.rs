//! `reproduce [--list] [all | <id>…]` — regenerates the paper's tables
//! and figures over one shared measurement sweep.
//!
//! For each selected figure (see `reproduce --list`, or
//! `EXPERIMENTS.md`): prints its table, writes `<id>.csv` under
//! `EBLCIO_RESULTS`, and prints every claim the paper makes about it as
//! PASS / FAIL / observed with the numbers compared. Exits 1 when an
//! enforced claim fails or a figure errors (every figure still runs),
//! 2 on a usage error. `EBLCIO_SCALE` and `EBLCIO_RUNS` select the data
//! size and the repetition protocol.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::disallowed_methods, clippy::disallowed_types))]

use eblcio_bench::figures::{Basis, Figure, FIGURES};
use eblcio_bench::{results_from_env, runner_from_env, scale_from_env};
use eblcio_core::Sweep;
use std::process::ExitCode;
use std::time::Instant;

fn usage() -> ExitCode {
    eprintln!("usage: reproduce [--list] [all | <id>...]\n\nfigures:");
    for f in FIGURES {
        eprintln!("  {:<24} {}", f.id, f.anchor);
    }
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--list") {
        for f in FIGURES {
            println!("{:<24} {:<18} {}", f.id, f.anchor, f.title);
        }
        return ExitCode::SUCCESS;
    }
    let selected: Vec<&Figure> = if args == ["all"] {
        FIGURES.iter().collect()
    } else {
        let found: Option<Vec<_>> =
            args.iter().map(|id| FIGURES.iter().find(|f| f.id == id)).collect();
        match found {
            Some(found) if !found.is_empty() => found,
            _ => return usage(),
        }
    };

    let started = Instant::now();
    let mut sweep = Sweep::new(scale_from_env(), runner_from_env());
    let results = match results_from_env() {
        Ok(results) => results,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (mut pass, mut fail, mut observed, mut errors) = (0, 0, 0, 0);
    for fig in &selected {
        let written = (fig.run)(&mut sweep).and_then(|out| {
            out.table.print(&format!("{} — {}", fig.anchor, fig.title));
            let path = out.table.write_csv(&results, fig.id)?;
            println!("\nCSV: {}", path.display());
            Ok(out.claims)
        });
        match written {
            Ok(claims) => {
                for claim in claims {
                    println!("  [{}] {}\n      {}", claim.verdict(), claim.text, claim.detail);
                    if claim.failed() {
                        fail += 1;
                    } else if claim.basis == Basis::Observed {
                        observed += 1;
                    } else {
                        pass += 1;
                    }
                }
            }
            Err(e) => {
                eprintln!("\n{}: error: {e}", fig.id);
                errors += 1;
            }
        }
    }
    println!(
        "\n{} figures in {:.1} s on {} host threads: {pass} claims pass, {fail} FAIL, {observed} \
         observed, {errors} figures errored; {} cells measured, {} reused",
        selected.len(),
        started.elapsed().as_secs_f64(),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        sweep.measured(),
        sweep.reused(),
    );
    if fail + errors > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
