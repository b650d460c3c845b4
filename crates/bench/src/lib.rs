//! The reproduction of the paper's tables and figures, as one asserted
//! table.
//!
//! [`figures::FIGURES`] lists every table/figure of the paper this
//! workspace regenerates (plus two beyond-paper store studies). Each
//! entry is a function over one shared [`eblcio_core::Sweep`] — so a
//! (data set, chain, ε, threads) cell is timed once per process and
//! every figure that needs it projects the same measurement — returning
//! the figure's [`TextTable`] and the paper's claims about it as
//! [`figures::Claim`]s, evaluated where the typed cells are in hand.
//! The `reproduce` binary prints the tables, writes one CSV per figure
//! and exits 1 on a failed enforced claim; `tests/paper_fidelity.rs`
//! enforces the same claims in tier-1. Absolute numbers come from this
//! workspace's simulators and codecs, so the *shapes* (who wins, by
//! what factor, where crossovers fall) are the reproduction target —
//! see `EXPERIMENTS.md` for the claim ledger and the known deviations.
//!
//! The only other binary, `obs_overhead`, is a gate that toggles
//! process-global telemetry, not a figure.
//!
//! Environment knobs:
//!
//! * `EBLCIO_SCALE` = `tiny` | `small` (default) | `paper` — data size,
//! * `EBLCIO_RUNS`  = `quick` (default) | `paper` — repetition protocol,
//! * `EBLCIO_RESULTS` — CSV output directory (default `bench_results`).

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::disallowed_methods, clippy::disallowed_types, clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable, clippy::todo, clippy::unimplemented))]

pub mod figures;

use eblcio_codec::CodecError;
use eblcio_core::CampaignRunner;
use eblcio_data::generators::Scale;
use eblcio_store::{FilesystemStorage, Storage};
use std::path::PathBuf;

fn parse_scale(value: Option<&str>) -> Result<Scale, String> {
    match value {
        Some("tiny") => Ok(Scale::Tiny),
        None | Some("small") => Ok(Scale::Small),
        Some("paper") => Ok(Scale::Paper),
        Some(other) => Err(format!("EBLCIO_SCALE='{other}': expected tiny|small|paper")),
    }
}

fn parse_runs(value: Option<&str>) -> Result<CampaignRunner, String> {
    match value {
        None | Some("quick") => Ok(CampaignRunner::quick()),
        Some("paper") => Ok(CampaignRunner::paper()),
        Some(other) => Err(format!("EBLCIO_RUNS='{other}': expected quick|paper")),
    }
}

/// Reads `name` and parses it; a value `parse` rejects ends the
/// process, so a mistyped knob cannot produce a plausible wrong CSV.
fn choice_from_env<T>(name: &str, parse: fn(Option<&str>) -> Result<T, String>) -> T {
    let value = std::env::var_os(name).map(|v| v.to_string_lossy().into_owned());
    parse(value.as_deref()).unwrap_or_else(|message| {
        eprintln!("{message}");
        std::process::exit(2)
    })
}

/// Data scale selected by `EBLCIO_SCALE` (default `small`); exits on
/// any other value than `tiny`, `small` or `paper`.
pub fn scale_from_env() -> Scale {
    choice_from_env("EBLCIO_SCALE", parse_scale)
}

/// Repetition protocol selected by `EBLCIO_RUNS` (default `quick`);
/// exits on any other value than `quick` or `paper`.
pub fn runner_from_env() -> CampaignRunner {
    choice_from_env("EBLCIO_RUNS", parse_runs)
}

/// Fixed-width text table writer for the stdout reports.
pub struct TextTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Self {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row (must match the header count).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "column count mismatch");
        self.rows.push(cells);
    }

    /// Appends one row of displayable cells.
    pub fn push(&mut self, cells: &[&dyn std::fmt::Display]) {
        self.row(cells.iter().map(|c| c.to_string()).collect());
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let line = |out: &mut String, cells: &[String]| {
            for (i, c) in cells.iter().enumerate() {
                out.push_str(&format!("{:>w$}  ", c, w = widths[i]));
            }
            out.push('\n');
        };
        line(&mut out, &self.headers);
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
        out.push('\n');
        for row in &self.rows {
            line(&mut out, row);
        }
        out
    }

    /// Prints to stdout with a title banner.
    pub fn print(&self, title: &str) {
        println!("\n=== {title} ===\n");
        print!("{}", self.render());
    }

    /// Writes the table as `<name>.csv` through `results` — atomically
    /// (temp file + rename), so an interrupted run never leaves a torn
    /// CSV — and returns the file's path.
    pub fn write_csv(
        &self,
        results: &FilesystemStorage,
        name: &str,
    ) -> Result<PathBuf, CodecError> {
        let mut s = self.headers.join(",");
        s.push('\n');
        for row in &self.rows {
            s.push_str(&row.join(","));
            s.push('\n');
        }
        let key = format!("{name}.csv");
        results.set(&key, s.as_bytes())?;
        Ok(results.root().join(key))
    }
}

/// The CSV output directory: `EBLCIO_RESULTS`, `bench_results/` by
/// default, created on demand.
pub fn results_from_env() -> Result<FilesystemStorage, CodecError> {
    FilesystemStorage::create(
        std::env::var_os("EBLCIO_RESULTS").unwrap_or_else(|| "bench_results".into()),
    )
}

/// `v` with `decimals` fixed decimals — a numeric table cell.
pub fn fx(v: f64, decimals: usize) -> String {
    format!("{v:.decimals$}")
}

/// Human-readable engineering format (`12.3k`, `4.56M`).
pub fn eng(v: f64) -> String {
    let a = v.abs();
    if a >= 1e9 {
        format!("{:.2}G", v / 1e9)
    } else if a >= 1e6 {
        format!("{:.2}M", v / 1e6)
    } else if a >= 1e3 {
        format!("{:.2}k", v / 1e3)
    } else if a >= 1.0 || a == 0.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = TextTable::new(&["codec", "CR"]);
        t.row(vec!["SZ3".into(), "102105.50".into()]);
        t.row(vec!["ZFP".into(), "120.71".into()]);
        let r = t.render();
        assert!(r.contains("codec"));
        assert!(r.contains("102105.50"));
        assert_eq!(r.lines().count(), 4);
    }

    #[test]
    #[should_panic]
    fn row_width_checked() {
        let mut t = TextTable::new(&["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn csv_lands_whole_under_its_name() {
        let dir = std::env::temp_dir().join(format!("eblcio-csv-{}", std::process::id()));
        let results = FilesystemStorage::create(&dir).unwrap();
        let mut t = TextTable::new(&["codec", "CR"]);
        t.row(vec!["SZ3".into(), "7.30".into()]);
        for _ in 0..2 {
            let path = t.write_csv(&results, "fig").unwrap();
            assert_eq!(path, dir.join("fig.csv"));
            assert_eq!(std::fs::read_to_string(&path).unwrap(), "codec,CR\nSZ3,7.30\n");
        }
        // No staging file survives the rename.
        assert_eq!(results.list().unwrap(), ["fig.csv"]);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn eng_formatting() {
        assert_eq!(eng(1234.0), "1.23k");
        assert_eq!(eng(5.6e7), "56.00M");
        assert_eq!(eng(3.2e9), "3.20G");
        assert_eq!(eng(0.5), "0.5000");
        assert_eq!(eng(12.0), "12.00");
    }

    #[test]
    fn env_defaults() {
        // The parsers take the value, not the process environment, so
        // parallel tests never race on it.
        assert_eq!(parse_scale(None), Ok(Scale::Small));
        assert_eq!(parse_scale(Some("tiny")), Ok(Scale::Tiny));
        assert_eq!(parse_scale(Some("small")), Ok(Scale::Small));
        assert_eq!(parse_scale(Some("paper")), Ok(Scale::Paper));
        for bad in ["Paper", "papr", ""] {
            let message = parse_scale(Some(bad)).unwrap_err();
            assert!(message.contains("tiny|small|paper"), "{message}");
        }

        let quick = CampaignRunner::quick().max_runs;
        let paper = CampaignRunner::paper().max_runs;
        assert_ne!(quick, paper);
        assert_eq!(parse_runs(None).unwrap().max_runs, quick);
        assert_eq!(parse_runs(Some("quick")).unwrap().max_runs, quick);
        assert_eq!(parse_runs(Some("paper")).unwrap().max_runs, paper);
        for bad in ["full", "Paper", ""] {
            let message = parse_runs(Some(bad)).unwrap_err();
            assert!(message.contains("quick|paper"), "{message}");
        }
    }
}
