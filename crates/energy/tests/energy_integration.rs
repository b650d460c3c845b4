//! Energy-crate integration: the Table I profiles priced through
//! `energy_for_wall`.

use eblcio_energy::measure::energy_for_wall;
use eblcio_energy::{Activity, CpuGeneration, Seconds};

#[test]
fn cross_platform_energy_ordering_is_stable_under_threads() {
    // Sapphire Rapids is the cheapest platform at every thread count
    // (Fig. 7/10 rows). The 8160-vs-8260M order can legitimately flip
    // at high thread counts: 32 threads saturate 2/3 of the 48-core
    // 8160 but only 1/3 of the 96-core 8260M, so we pin the full
    // ordering only in the serial/low-thread regime the paper's Fig. 7
    // reports.
    for threads in [1u32, 8, 32] {
        // 50 s of serial work, 95 % of it parallel (Amdahl).
        let wall = Seconds(50.0 * (0.05 + 0.95 / f64::from(threads)));
        let mut energies: Vec<(f64, CpuGeneration)> = CpuGeneration::ALL
            .iter()
            .map(|&g| {
                let m = energy_for_wall(&g.profile(), Activity::parallel_compute(threads), wall);
                (m.total().value(), g)
            })
            .collect();
        energies.sort_by(|a, b| a.0.total_cmp(&b.0));
        assert_eq!(
            energies[0].1,
            CpuGeneration::SapphireRapids9480,
            "threads {threads}"
        );
        if threads <= 8 {
            assert_eq!(
                energies[2].1,
                CpuGeneration::CascadeLake8260M,
                "threads {threads}"
            );
        }
    }
}
