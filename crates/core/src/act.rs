//! Simultaneous many-row activation and its §3.2 testing methodology:
//! initialise the rows, issue APA, overdrive with WR, read back.

use rand::rngs::StdRng;

use simra_bender::TestSetup;
use simra_dram::{ApaTiming, DataPattern};

use crate::error::PudError;
use crate::rowgroup::GroupSpec;

/// Success rate (0–1) of simultaneously activating `group` with `timing`:
/// the expected fraction of cells across the group's rows that store the
/// WR-overdriven pattern in *all* trials.
///
/// The methodology follows §3.2: rows are pre-initialised with `pattern`,
/// the APA opens the group, and a WR with the *complement* pattern
/// overdrives the bitlines; a cell succeeds iff it takes the new value.
/// Rows the decoder did not actually open count as full failures (their
/// cells still hold the old pattern).
///
/// # Errors
///
/// Propagates sequencer errors (bad addresses, cross-subarray pairs).
pub fn activation_success(
    setup: &mut TestSetup,
    group: &GroupSpec,
    timing: ApaTiming,
    pattern: DataPattern,
    rng: &mut StdRng,
) -> Result<f64, PudError> {
    let cols = setup.module().geometry().cols_per_row as usize;

    // Step 1: initialise the group's rows with the predefined pattern.
    let init = pattern.row_image(0, cols, rng);
    setup.init_rows(group.bank, group.subarray, &group.local_rows, &init)?;

    // Step 2: resolve the APA structurally.
    let (sa, outcome) = setup.resolve_apa(group.bank, group.r_f, group.r_s, timing)?;

    // Step 3: WR overdrive with a different pattern (the complement).
    let wr_image = init.complement();
    let engine = setup.engine();
    let restore = engine.params().restore_strength(timing, setup.conditions());
    let open = outcome.open_rows();
    let subarray = setup.module_mut().bank_mut(group.bank)?.subarray(sa);
    // Only the in-order sum of the per-cell survivals is needed here, so
    // skip materializing the probability vector entirely.
    let open_cell_success = engine.commit_survival_sum(subarray, &open, &wr_image, restore);

    // Rows that should have been in the group but were not opened
    // contribute zero successes.
    let total_cells = group.local_rows.len() * cols;
    debug_assert!(
        open.iter().all(|r| group.local_rows.contains(r)),
        "the decoder cannot open rows outside the group's Cartesian product"
    );
    Ok(open_cell_success / total_cells as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rowgroup::random_group;
    use rand::SeedableRng;
    use simra_dram::{BankId, SubarrayId, VendorProfile};

    fn group(setup: &TestSetup, n: u32, seed: u64) -> GroupSpec {
        let mut rng = StdRng::seed_from_u64(seed);
        random_group(
            setup.module().geometry(),
            BankId::new(0),
            SubarrayId::new(0),
            n,
            &mut rng,
        )
        .expect("group")
    }

    #[test]
    fn best_timing_activation_is_nearly_perfect() {
        let mut setup = TestSetup::new(VendorProfile::mfr_h_m_die(), 11);
        let mut rng = StdRng::seed_from_u64(0);
        for n in [2u32, 8, 32] {
            let g = group(&setup, n, n as u64);
            let s = activation_success(
                &mut setup,
                &g,
                ApaTiming::best_for_activation(),
                DataPattern::Random,
                &mut rng,
            )
            .unwrap();
            assert!(s > 0.99, "N={n} success {s}");
        }
    }

    #[test]
    fn grid_minimum_timing_drops_success() {
        let mut setup = TestSetup::new(VendorProfile::mfr_h_m_die(), 11);
        let mut rng = StdRng::seed_from_u64(0);
        let g = group(&setup, 8, 3);
        let best = activation_success(
            &mut setup,
            &g,
            ApaTiming::best_for_activation(),
            DataPattern::Random,
            &mut rng,
        )
        .unwrap();
        let weak = activation_success(
            &mut setup,
            &g,
            ApaTiming::from_ns(1.5, 1.5),
            DataPattern::Random,
            &mut rng,
        )
        .unwrap();
        assert!(best - weak > 0.1, "best {best} weak {weak}");
    }

    #[test]
    fn samsung_guard_fails_the_group() {
        let mut setup = TestSetup::new(VendorProfile::mfr_s(), 11);
        let mut rng = StdRng::seed_from_u64(0);
        let g = group(&setup, 8, 3);
        let s = activation_success(
            &mut setup,
            &g,
            ApaTiming::best_for_activation(),
            DataPattern::Random,
            &mut rng,
        )
        .unwrap();
        // Only 1 of 8 rows opens: at most 1/8 of cells can succeed.
        assert!(
            s <= 0.13,
            "guarded part should fail most of the group, got {s}"
        );
    }
}
