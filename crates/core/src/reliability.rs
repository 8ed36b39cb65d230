//! Empirical (trial-sampled) success rates and stable/unstable cell
//! classification — the §3.1 metric computed the slow way.
//!
//! The characterization runners use an *analytic* survival probability
//! (margin → Φ-survival over 10⁴ trials) because it is smooth, fast and
//! deterministic. This module computes the same metric by literally
//! repeating trials with sampled sense noise and counting cells that are
//! correct *every* time — which is what the paper's tester does — and is
//! used in tests to validate that the analytic shortcut agrees with the
//! simulated ground truth.

use rand::rngs::StdRng;

use simra_bender::TestSetup;
use simra_dram::{ApaTiming, BitRow};

use crate::error::PudError;
use crate::maj::{majority, plan_layout, MajLayout};
use crate::rowgroup::GroupSpec;

/// Per-cell trial statistics for one bitline population.
#[derive(Debug, Clone, PartialEq)]
pub struct TrialStats {
    /// Trials run.
    pub trials: u32,
    /// Per-column count of correct resolutions.
    pub correct: Vec<u32>,
}

impl TrialStats {
    /// The paper's success rate: fraction of cells correct in *all*
    /// trials ("stable" cells).
    pub fn success_rate(&self) -> f64 {
        if self.correct.is_empty() {
            return f64::NAN;
        }
        let stable = self.correct.iter().filter(|&&c| c == self.trials).count();
        stable as f64 / self.correct.len() as f64
    }

    /// Mean per-trial accuracy (a *different*, laxer metric than the
    /// success rate — useful to see how far "mostly right" is from
    /// "always right").
    pub fn mean_accuracy(&self) -> f64 {
        if self.correct.is_empty() || self.trials == 0 {
            return f64::NAN;
        }
        let total: u64 = self.correct.iter().map(|&c| c as u64).sum();
        total as f64 / (self.correct.len() as u64 * self.trials as u64) as f64
    }

    /// Column indices of unstable cells (wrong at least once).
    pub fn unstable_columns(&self) -> Vec<u32> {
        self.correct
            .iter()
            .enumerate()
            .filter(|(_, &c)| c != self.trials)
            .map(|(i, _)| i as u32)
            .collect()
    }
}

/// Runs `trials` sampled MAJX trials on `group` with *fixed* operand
/// data (the same images every trial, like the paper's fixed-pattern
/// tests) and tallies per-column correctness.
///
/// # Errors
///
/// MAJX validation and sequencer errors.
pub fn empirical_majx_trials(
    setup: &mut TestSetup,
    group: &GroupSpec,
    operands: &[BitRow],
    timing: ApaTiming,
    trials: u32,
    rng: &mut StdRng,
) -> Result<TrialStats, PudError> {
    let layout: MajLayout = plan_layout(group, operands.len())?;
    let geometry = *setup.module().geometry();
    let cols = geometry.cols_per_row as usize;
    for o in operands {
        if o.len() != cols {
            return Err(PudError::InputWidth {
                got: o.len(),
                expected: cols,
            });
        }
    }
    let expected = majority(operands);
    let engine = setup.engine();
    let local_r_f = group.local_r_f(&geometry);
    let mut correct = vec![0u32; cols];

    // Write the layout once; sensing does not disturb the stored charge
    // in this mode (we re-sense the same state per trial, as the tester
    // re-initialises between trials).
    crate::maj::write_layout(setup, group, &layout, operands, rng)?;

    let rows = group.local_rows.clone();
    // The stored charge state is identical for every trial, so the whole
    // trial loop collapses onto the batched sampling rig: one systematic
    // sense, then per-trial noise redraws in the exact RNG-stream order
    // the scalar loop used.
    let subarray = setup
        .module_mut()
        .bank_mut(group.bank)?
        .subarray(group.subarray);
    let senses =
        engine.sense_sampled_batch(subarray, &rows, local_r_f, timing, trials as usize, rng);
    for sense in &senses {
        for (c, tally) in correct.iter_mut().enumerate() {
            if sense.resolved.get(c) == expected.get(c) {
                *tally += 1;
            }
        }
    }
    Ok(TrialStats { trials, correct })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::maj::{majx_success, random_operands, MajConfig};
    use crate::rowgroup::{random_group, sample_groups};
    use rand::SeedableRng;
    use simra_analog::CircuitParams;
    use simra_dram::{BankId, DataPattern, SubarrayId, VendorProfile};

    fn env() -> (TestSetup, GroupSpec, StdRng) {
        let setup = TestSetup::new(VendorProfile::mfr_h_m_die(), 23);
        let mut rng = StdRng::seed_from_u64(17);
        let group = random_group(
            setup.module().geometry(),
            BankId::new(0),
            SubarrayId::new(0),
            32,
            &mut rng,
        )
        .unwrap();
        (setup, group, rng)
    }

    #[test]
    fn stats_accounting() {
        let s = TrialStats {
            trials: 4,
            correct: vec![4, 4, 3, 0],
        };
        assert!((s.success_rate() - 0.5).abs() < 1e-12);
        assert!((s.mean_accuracy() - 11.0 / 16.0).abs() < 1e-12);
        assert_eq!(s.unstable_columns(), vec![2, 3]);
    }

    #[test]
    fn maj3_at_32_rows_has_mostly_stable_cells() {
        let (mut setup, group, mut rng) = env();
        let cols = setup.module().geometry().cols_per_row as usize;
        let ops = random_operands(3, cols, &mut rng);
        let stats = empirical_majx_trials(
            &mut setup,
            &group,
            &ops,
            ApaTiming::best_for_majx(),
            50,
            &mut rng,
        )
        .unwrap();
        assert!(
            stats.success_rate() > 0.9,
            "empirical {:.3}",
            stats.success_rate()
        );
        assert!(stats.mean_accuracy() >= stats.success_rate());
    }

    #[test]
    fn empirical_agrees_with_analytic_survival() {
        // The core validation: the analytic Φ-survival metric the
        // characterization crate uses must track the trial-sampled
        // ground truth (at a matched trial count).
        let (mut setup, group, mut rng) = env();
        let cols = setup.module().geometry().cols_per_row as usize;
        let trials = 200u32;
        let mut params = CircuitParams::calibrated();
        params.effective_trials = trials;
        setup.set_circuit_params(Some(params));

        let ops = random_operands(3, cols, &mut rng);
        let stats = empirical_majx_trials(
            &mut setup,
            &group,
            &ops,
            ApaTiming::best_for_majx(),
            trials,
            &mut rng,
        )
        .unwrap();

        // Analytic prediction on the same state.
        let geometry = *setup.module().geometry();
        let engine = setup.engine();
        let expected = majority(&ops);
        let local_r_f = group.local_r_f(&geometry);
        let subarray = setup
            .module_mut()
            .bank_mut(group.bank)
            .unwrap()
            .subarray(group.subarray);
        let sense = engine.sense(
            subarray,
            &group.local_rows,
            local_r_f,
            ApaTiming::best_for_majx(),
        );
        let analytic: f64 = engine
            .survival_toward(subarray, &sense.deltas, &expected)
            .iter()
            .sum::<f64>()
            / cols as f64;

        let empirical = stats.success_rate();
        assert!(
            (analytic - empirical).abs() < 0.08,
            "analytic {analytic:.3} vs empirical {empirical:.3}"
        );
    }

    /// MAJ3 success (random data) of each of 20 `n`-row groups — 2 banks
    /// × 2 subarrays × 5 — on one rig whose calibrated circuit
    /// parameters are first passed through `tweak`.
    fn maj3_per_group(n: u32, timing: ApaTiming, tweak: fn(&mut CircuitParams)) -> Vec<f64> {
        let mut setup = TestSetup::new(VendorProfile::mfr_h_m_die(), 7);
        let mut params = CircuitParams::calibrated();
        tweak(&mut params);
        setup.set_circuit_params(Some(params));
        let mut rng = StdRng::seed_from_u64(1);
        let groups = sample_groups(setup.module().geometry(), n, 2, 2, 5, &mut rng);
        let config = MajConfig::default();
        let random = DataPattern::Random;
        groups
            .iter()
            .map(|g| majx_success(&mut setup, g, 3, timing, random, &config, &mut rng).unwrap())
            .collect()
    }

    fn mean(rates: &[f64]) -> f64 {
        rates.iter().sum::<f64>() / rates.len() as f64
    }

    #[test]
    fn design_ablations_move_maj3_success_the_designed_way() {
        // The DESIGN.md §4b ablations: switch one calibrated mechanism
        // off and check which way MAJ3 success moves.
        let calibrated: fn(&mut CircuitParams) = |_| {};
        let slow = ApaTiming::from_ns(3.0, 3.0);
        let best = ApaTiming::best_for_majx();
        for n in [4, 32] {
            let at_best = maj3_per_group(n, best, calibrated);

            // No first-row over-share: (3,3) recovers exactly to the
            // (1.5,3) level, erasing the Obs. 7 timing asymmetry.
            let at_slow = maj3_per_group(n, slow, calibrated);
            let no_overshare = maj3_per_group(n, slow, |p| p.overshare_per_ns = 0.0);
            assert!(
                mean(&no_overshare) > mean(&at_slow),
                "N={n}: over-share off {:.4} vs calibrated {:.4} at (3,3)",
                mean(&no_overshare),
                mean(&at_slow)
            );
            assert_eq!(no_overshare, at_best, "N={n}: over-share off at (3,3)");

            // No transfer-variation amplification: PUD sensing gets
            // quieter, so success rises.
            let no_amp = maj3_per_group(n, best, |p| p.pud_transfer_amp = 0.0);
            assert!(
                mean(&no_amp) > mean(&at_best),
                "N={n}: transfer-amp off {:.4} vs calibrated {:.4}",
                mean(&no_amp),
                mean(&at_best)
            );
        }

        // No group-to-group spread: the per-group range narrows (checked
        // at N=4; at N=32 every group is already near 100 %).
        let range = |rates: &[f64]| {
            let lo = rates.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = rates.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            (lo, hi)
        };
        let (lo, hi) = range(&maj3_per_group(4, best, calibrated));
        let (flat_lo, flat_hi) = range(&maj3_per_group(4, best, |p| p.group_spread_sigma = 0.0));
        assert!(
            lo < flat_lo && flat_hi < hi,
            "group-spread off: {flat_lo:.3}..{flat_hi:.3} vs calibrated {lo:.3}..{hi:.3}"
        );
    }

    #[test]
    fn harsher_timing_lowers_empirical_success() {
        let (mut setup, group, mut rng) = env();
        let cols = setup.module().geometry().cols_per_row as usize;
        let ops = random_operands(3, cols, &mut rng);
        let good = empirical_majx_trials(
            &mut setup,
            &group,
            &ops,
            ApaTiming::best_for_majx(),
            20,
            &mut rng,
        )
        .unwrap();
        let bad = empirical_majx_trials(
            &mut setup,
            &group,
            &ops,
            ApaTiming::from_ns(3.0, 3.0),
            20,
            &mut rng,
        )
        .unwrap();
        assert!(good.success_rate() >= bad.success_rate());
    }

    #[test]
    fn width_mismatch_rejected() {
        let (mut setup, group, mut rng) = env();
        let bad = vec![BitRow::ones(3); 3];
        assert!(matches!(
            empirical_majx_trials(
                &mut setup,
                &group,
                &bad,
                ApaTiming::best_for_majx(),
                5,
                &mut rng
            ),
            Err(PudError::InputWidth { .. })
        ));
    }
}
