//! The paper-fidelity suite: every figure of the reproduction, over one
//! tiny/quick sweep, with every enforced claim asserted — the same
//! claims, by the same `Claim::failed`, that `reproduce` exits 1 on.

use eblcio_bench::figures::{Basis, FIGURES};
use eblcio_core::{CampaignRunner, Sweep};
use eblcio_data::generators::Scale;

/// The fidelity ledger: every claim asserted here is a row of it, under
/// the basis it is enforced with — the prose cannot drift from the code.
const LEDGER: &str = include_str!("../../../EXPERIMENTS.md");

#[test]
fn every_figure_reproduces_what_the_paper_says() {
    let ids: Vec<&str> = FIGURES.iter().map(|f| f.id).collect();
    assert_eq!(
        ids,
        [
            "table3_cr_psnr", "fig01_lossless_vs_eblc", "fig05_runtime_serial",
            "fig07_energy_serial", "fig08_cr_vs_energy", "fig09_psnr_vs_energy",
            "fig10_energy_openmp", "fig11_io_energy", "fig12_multinode", "fig13_scaling_size",
            "readback_energy", "storage_carbon", "discussion_advisor", "campaign_dumps",
            "chunked_store", "adaptive_store",
        ]
    );

    let mut sweep = Sweep::new(Scale::Tiny, CampaignRunner::quick());
    let (mut total, mut observed, mut failed) = (0, 0, Vec::new());
    for fig in FIGURES {
        let out = (fig.run)(&mut sweep).unwrap_or_else(|e| panic!("{}: {e}", fig.id));
        assert!(out.table.render().lines().count() > 2, "{}: empty table", fig.id);
        assert!(!out.claims.is_empty(), "{}: no claim", fig.id);
        assert!(LEDGER.contains(&format!("### `{}`", fig.id)), "{}: not in the ledger", fig.id);
        for claim in &out.claims {
            let (verdict, basis) = (claim.verdict(), claim.basis);
            println!("{} [{verdict}] {basis:?}: {} -- {}", fig.id, claim.text, claim.detail);
            let basis = match basis {
                Basis::Deterministic => "deterministic".to_string(),
                Basis::Timing { margin } => format!("timing ≥ {margin}×"),
                Basis::Observed => "observed".to_string(),
            };
            let row = format!("| {} | {basis} |", claim.text);
            assert!(LEDGER.contains(&row), "{}: EXPERIMENTS.md has no row `{row}`", fig.id);
            total += 1;
            observed += usize::from(claim.basis == Basis::Observed);
            if claim.failed() {
                failed.push(format!("{}: {} -- {}", fig.id, claim.text, claim.detail));
            }
        }
    }
    assert!(failed.is_empty(), "failed claims:\n{}", failed.join("\n"));
    assert!(total >= 32, "only {total} claims");
    assert!(4 * observed <= total, "{observed} of {total} claims are only observed");

    // One measurement, many projections: the serial grid (4 data sets x
    // 5 codecs x 5 bounds) is timed once and reused by ten figures.
    let (measured, reused) = (sweep.measured(), sweep.reused());
    println!("{total} claims, {observed} observed; {measured} cells measured, {reused} reused");
    assert!(measured >= 100, "{measured} cells measured");
    assert!(reused >= 3 * measured, "{reused} reuses of {measured} cells");
}
