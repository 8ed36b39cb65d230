//! The Frac operation (FracDRAM): parking a row's cells at VDD/2 so they
//! contribute (almost) nothing to a later charge-sharing operation.
//!
//! On real chips Frac interrupts a precharge mid-flight so the cell is
//! restored to the half-rail level; the result carries a per-cell residual
//! that our model draws from the calibrated `frac_residual_sigma`.
//! Mfr. M parts do not support Frac (footnote 5); callers emulate neutral
//! rows there with complementary all-0/all-1 pairs instead
//! ([`neutral_plan`]).

use rand::rngs::StdRng;
use rand::Rng;

use simra_bender::TestSetup;
use simra_dram::{BankId, BitRow, RowAddr, SubarrayId};

use crate::error::PudError;

/// How an operation should initialise its neutral rows on this part.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NeutralPlan {
    /// Frac every neutral row to VDD/2 (Mfr. H parts).
    Frac,
    /// Alternate all-0 / all-1 rows; the biased sense amplifiers make the
    /// leftovers resolve deterministically (Mfr. M parts, footnote 5).
    ComplementPairs,
}

/// Chooses the neutral-row strategy for the mounted module.
pub fn neutral_plan(setup: &TestSetup) -> NeutralPlan {
    if setup.module().profile().supports_frac {
        NeutralPlan::Frac
    } else {
        NeutralPlan::ComplementPairs
    }
}

/// Executes a Frac operation on one row: every cell is parked at VDD/2
/// plus a per-cell residual.
///
/// # Errors
///
/// Device errors for bad addresses; [`PudError::UnexpectedActivation`] if
/// the part does not support Frac.
pub fn frac_row(
    setup: &mut TestSetup,
    bank: BankId,
    row: RowAddr,
    rng: &mut StdRng,
) -> Result<(), PudError> {
    let (subarray, local) = setup.module().geometry().split_row(row)?;
    frac_rows(setup, bank, subarray, &[local], rng)
}

/// Fracs the local rows `locals` of one subarray, in order, drawing one
/// residual per cell.
fn frac_rows(
    setup: &mut TestSetup,
    bank: BankId,
    subarray: SubarrayId,
    locals: &[u32],
    rng: &mut StdRng,
) -> Result<(), PudError> {
    if !setup.module().profile().supports_frac {
        return Err(PudError::UnexpectedActivation {
            expected: "a Frac-capable part (Mfr. H)".into(),
            got: format!("{}", setup.module().profile().manufacturer),
        });
    }
    let sigma = setup.params().frac_residual_sigma;
    let sa = setup.group_subarray(bank, subarray, locals)?;
    for &local in locals {
        for v in sa.row_voltages_mut(local) {
            let residual = gaussian(rng) * sigma;
            *v = (0.5 + residual as f32).clamp(0.0, 1.0);
        }
    }
    Ok(())
}

/// Initialises the local rows `locals` of one subarray as neutral rows
/// according to `plan`.
///
/// # Errors
///
/// Propagates device / capability errors.
pub fn init_neutral_rows(
    setup: &mut TestSetup,
    bank: BankId,
    subarray: SubarrayId,
    locals: &[u32],
    plan: NeutralPlan,
    rng: &mut StdRng,
) -> Result<(), PudError> {
    match plan {
        NeutralPlan::Frac => frac_rows(setup, bank, subarray, locals, rng),
        NeutralPlan::ComplementPairs => {
            // Even positions all-0, odd positions all-1.
            let cols = setup.module().geometry().cols_per_row as usize;
            let evens: Vec<u32> = locals.iter().copied().step_by(2).collect();
            let odds: Vec<u32> = locals.iter().copied().skip(1).step_by(2).collect();
            setup.init_rows(bank, subarray, &evens, &BitRow::zeros(cols))?;
            setup.init_rows(bank, subarray, &odds, &BitRow::ones(cols))?;
            Ok(())
        }
    }
}

fn gaussian(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use simra_dram::VendorProfile;

    #[test]
    fn frac_parks_cells_near_half_rail() {
        let mut setup = TestSetup::new(VendorProfile::mfr_h_m_die(), 1);
        let mut rng = StdRng::seed_from_u64(0);
        let bank = BankId::new(0);
        let row = RowAddr::new(10);
        frac_row(&mut setup, bank, row, &mut rng).unwrap();
        let geometry = *setup.module().geometry();
        let (sa_id, local) = geometry.split_row(row).unwrap();
        let sa = setup.module_mut().bank_mut(bank).unwrap().subarray(sa_id);
        let mut near = 0;
        for col in 0..sa.cols() {
            if sa.cell(local, col).is_neutral(3.5 * 0.12) {
                near += 1;
            }
        }
        // Essentially all cells within 3.5 residual sigmas of VDD/2, and
        // none parked at a rail.
        assert!(near as f64 / sa.cols() as f64 > 0.99);
        for col in 0..sa.cols() {
            let v = sa.cell(local, col).voltage();
            assert!(v > 0.01 && v < 0.99, "cell {col} at rail: {v}");
        }
    }

    #[test]
    fn frac_rejected_on_non_frac_parts() {
        let mut setup = TestSetup::new(VendorProfile::mfr_m_e_die(), 1);
        let mut rng = StdRng::seed_from_u64(0);
        let err = frac_row(&mut setup, BankId::new(0), RowAddr::new(0), &mut rng).unwrap_err();
        assert!(matches!(err, PudError::UnexpectedActivation { .. }));
    }

    #[test]
    fn plan_follows_vendor_capability() {
        let h = TestSetup::new(VendorProfile::mfr_h_m_die(), 1);
        let m = TestSetup::new(VendorProfile::mfr_m_e_die(), 1);
        assert_eq!(neutral_plan(&h), NeutralPlan::Frac);
        assert_eq!(neutral_plan(&m), NeutralPlan::ComplementPairs);
    }

    #[test]
    fn complement_pairs_alternate() {
        let mut setup = TestSetup::new(VendorProfile::mfr_m_e_die(), 1);
        let mut rng = StdRng::seed_from_u64(0);
        let bank = BankId::new(0);
        init_neutral_rows(
            &mut setup,
            bank,
            SubarrayId::new(0),
            &[0, 1, 2],
            NeutralPlan::ComplementPairs,
            &mut rng,
        )
        .unwrap();
        let rows = [RowAddr::new(0), RowAddr::new(1), RowAddr::new(2)];
        let cols = setup.module().geometry().cols_per_row as usize;
        assert_eq!(setup.read_row(bank, rows[0]).unwrap().count_ones(), 0);
        assert_eq!(setup.read_row(bank, rows[1]).unwrap().count_ones(), cols);
        assert_eq!(setup.read_row(bank, rows[2]).unwrap().count_ones(), 0);
    }

    #[test]
    fn frac_residual_is_seed_deterministic() {
        let run = |seed| {
            let mut setup = TestSetup::new(VendorProfile::mfr_h_m_die(), 1);
            let mut rng = StdRng::seed_from_u64(seed);
            frac_row(&mut setup, BankId::new(0), RowAddr::new(5), &mut rng).unwrap();
            let geometry = *setup.module().geometry();
            let (sa_id, local) = geometry.split_row(RowAddr::new(5)).unwrap();
            let sa = setup
                .module_mut()
                .bank_mut(BankId::new(0))
                .unwrap()
                .subarray(sa_id);
            (0..8)
                .map(|c| sa.cell(local, c).voltage())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3), run(4));
    }
}
