//! The command sequencer: resolves APA command sequences against the
//! mounted module, through the row decoder and the analog engine.

use simra_decoder::{ApaOutcome, RowDecoder};
use simra_dram::{ApaTiming, BankId, BitRow, DramError, RowAddr, Subarray, SubarrayId};

use crate::setup::TestSetup;

/// Errors from scheduling command sequences.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SequencerError {
    /// The two APA target rows live in different subarrays; intra-subarray
    /// PUD operations require shared bitlines (§3.1).
    CrossSubarray {
        /// Subarray of `R_F`.
        first: SubarrayId,
        /// Subarray of `R_S`.
        second: SubarrayId,
    },
    /// A program asked to wait a negative duration; the interpreter's
    /// clock (and the protocol checker behind it) only runs forwards.
    NegativeWait {
        /// The offending wait (ns).
        ns: f64,
    },
    /// Underlying device error.
    Dram(DramError),
}

impl std::fmt::Display for SequencerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SequencerError::CrossSubarray { first, second } => {
                write!(f, "APA targets span subarrays {first} and {second}")
            }
            SequencerError::NegativeWait { ns } => {
                write!(
                    f,
                    "negative wait of {ns} ns would run the program clock backwards"
                )
            }
            SequencerError::Dram(e) => write!(f, "device error: {e}"),
        }
    }
}

impl std::error::Error for SequencerError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SequencerError::Dram(e) => Some(e),
            SequencerError::CrossSubarray { .. } | SequencerError::NegativeWait { .. } => None,
        }
    }
}

impl From<DramError> for SequencerError {
    fn from(e: DramError) -> Self {
        SequencerError::Dram(e)
    }
}

impl TestSetup {
    /// Resolves an `ACT R_F → PRE → ACT R_S` sequence structurally:
    /// which local wordlines end up asserted, in which subarray.
    ///
    /// # Errors
    ///
    /// [`SequencerError::CrossSubarray`] if the rows do not share a
    /// subarray, or a device error for bad addresses.
    pub fn resolve_apa(
        &self,
        bank: BankId,
        r_f: RowAddr,
        r_s: RowAddr,
        timing: ApaTiming,
    ) -> Result<(SubarrayId, ApaOutcome), SequencerError> {
        let geometry = *self.module().geometry();
        // Validate the bank id eagerly.
        self.module().bank(bank)?;
        let (sa_f, local_f) = geometry.split_row(r_f)?;
        let (sa_s, local_s) = geometry.split_row(r_s)?;
        if sa_f != sa_s {
            return Err(SequencerError::CrossSubarray {
                first: sa_f,
                second: sa_s,
            });
        }
        let guard = self.module().profile().apa_guard;
        // simra-decoder is the one authority on APA row resolution.
        Ok((
            sa_f,
            RowDecoder::resolve_in_subarray(
                geometry.rows_per_subarray,
                local_f,
                local_s,
                timing,
                guard,
            ),
        ))
    }

    /// Initialises a row with nominal timings (test setup step).
    ///
    /// # Errors
    ///
    /// Device errors for bad addresses or image widths.
    pub fn init_row(
        &mut self,
        bank: BankId,
        row: RowAddr,
        image: &BitRow,
    ) -> Result<(), SequencerError> {
        Ok(self
            .module_mut()
            .bank_mut(bank)?
            .write_row_nominal(row, image)?)
    }

    /// The subarray that holds the local rows `locals`, resolved once for
    /// a group-wide step, after every row has been checked.
    ///
    /// # Errors
    ///
    /// The errors [`init_row`](Self::init_row) returns for the rows'
    /// bank-level addresses: a bad bank, or a row outside `subarray`
    /// (reported as [`DramError::RowOutOfRange`] at its bank-level
    /// address).
    pub fn group_subarray(
        &mut self,
        bank: BankId,
        subarray: SubarrayId,
        locals: &[u32],
    ) -> Result<&mut Subarray, SequencerError> {
        let geometry = *self.module().geometry();
        let bank = self.module_mut().bank_mut(bank)?;
        let rows_in_bank = geometry.rows_per_bank();
        let first = u32::from(subarray.raw()).saturating_mul(geometry.rows_per_subarray);
        for &local in locals {
            let row = RowAddr::new(first.saturating_add(local));
            if local >= geometry.rows_per_subarray || row.raw() >= rows_in_bank {
                return Err(DramError::RowOutOfRange { row, rows_in_bank }.into());
            }
        }
        Ok(bank.subarray(subarray))
    }

    /// Initialises the local rows `locals` of one subarray with the same
    /// image (nominal timings): the group write before an APA.
    ///
    /// # Errors
    ///
    /// Those of [`group_subarray`](Self::group_subarray), checked before
    /// any row is written, and a wrong image width.
    pub fn init_rows(
        &mut self,
        bank: BankId,
        subarray: SubarrayId,
        locals: &[u32],
        image: &BitRow,
    ) -> Result<(), SequencerError> {
        let sa = self.group_subarray(bank, subarray, locals)?;
        for &local in locals {
            sa.write_row(local, image)?;
        }
        Ok(())
    }

    /// Reads a row back with nominal timings (test read-out step).
    ///
    /// # Errors
    ///
    /// Device errors for bad addresses.
    pub fn read_row(&mut self, bank: BankId, row: RowAddr) -> Result<BitRow, SequencerError> {
        Ok(self.module_mut().bank_mut(bank)?.read_row_nominal(row)?)
    }

    /// The §3.2 activation-test sequence: APA with `timing`, then a `WR`
    /// that overdrives the bitlines with `pattern`, updating the cells of
    /// every simultaneously open row. Returns the structural outcome so the
    /// caller knows which rows should now hold `pattern`.
    ///
    /// # Errors
    ///
    /// Propagates APA resolution errors; rejects a `pattern` narrower or
    /// wider than the module's rows.
    pub fn apa_then_write(
        &mut self,
        bank: BankId,
        r_f: RowAddr,
        r_s: RowAddr,
        timing: ApaTiming,
        pattern: &BitRow,
    ) -> Result<(SubarrayId, ApaOutcome), SequencerError> {
        let expected = self.module().geometry().cols_per_row as usize;
        if pattern.len() != expected {
            return Err(SequencerError::Dram(DramError::WidthMismatch {
                got: pattern.len(),
                expected,
            }));
        }
        let (sa, outcome) = self.resolve_apa(bank, r_f, r_s, timing)?;
        let engine = self.engine();
        let restore = engine.params().restore_strength(timing, self.conditions());
        let open = outcome.open_rows();
        let subarray = self.module_mut().bank_mut(bank)?.subarray(sa);
        engine.commit(subarray, &open, pattern, restore);
        Ok((sa, outcome))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simra_dram::VendorProfile;

    fn setup() -> TestSetup {
        TestSetup::new(VendorProfile::mfr_h_m_die(), 42)
    }

    #[test]
    fn apa_within_subarray_resolves() {
        let s = setup();
        let (sa, out) = s
            .resolve_apa(
                BankId::new(0),
                RowAddr::new(0),
                RowAddr::new(7),
                ApaTiming::from_ns(3.0, 3.0),
            )
            .unwrap();
        assert_eq!(sa.raw(), 0);
        assert_eq!(out.open_row_count(), 4);
    }

    #[test]
    fn cross_subarray_rejected() {
        let s = setup();
        // Rows 0 and 600 are in different 512-row subarrays.
        let err = s
            .resolve_apa(
                BankId::new(0),
                RowAddr::new(0),
                RowAddr::new(600),
                ApaTiming::from_ns(3.0, 3.0),
            )
            .unwrap_err();
        assert!(matches!(err, SequencerError::CrossSubarray { .. }));
    }

    #[test]
    fn bad_bank_propagates_device_error() {
        let s = setup();
        let err = s
            .resolve_apa(
                BankId::new(99),
                RowAddr::new(0),
                RowAddr::new(1),
                ApaTiming::from_ns(3.0, 3.0),
            )
            .unwrap_err();
        assert!(matches!(err, SequencerError::Dram(_)));
    }

    #[test]
    fn mismatched_pattern_width_is_a_typed_error() {
        let mut s = setup();
        let err = s
            .apa_then_write(
                BankId::new(0),
                RowAddr::new(0),
                RowAddr::new(7),
                ApaTiming::from_ns(3.0, 3.0),
                &BitRow::ones(8),
            )
            .unwrap_err();
        assert!(
            matches!(
                err,
                SequencerError::Dram(DramError::WidthMismatch { got: 8, .. })
            ),
            "{err:?}"
        );
    }

    #[test]
    fn error_display_is_lowercase_and_concise() {
        // Mirrors the style checks in simra_dram::error: every variant
        // renders a short lowercase message a CLI can print verbatim.
        let errors: Vec<SequencerError> = vec![
            SequencerError::CrossSubarray {
                first: SubarrayId::new(0),
                second: SubarrayId::new(1),
            },
            SequencerError::NegativeWait { ns: -3.0 },
            SequencerError::Dram(DramError::WidthMismatch {
                got: 8,
                expected: 256,
            }),
        ];
        for e in errors {
            let msg = e.to_string();
            assert!(!msg.is_empty() && msg.len() < 120, "{msg}");
            assert!(!msg.ends_with('.'), "{msg}");
        }
        let negative = SequencerError::NegativeWait { ns: -3.0 }.to_string();
        assert!(negative.starts_with("negative wait of -3"), "{negative}");
    }

    #[test]
    fn error_source_chain_reaches_device_errors() {
        use std::error::Error;
        let e = SequencerError::Dram(DramError::WidthMismatch {
            got: 8,
            expected: 256,
        });
        assert!(e.source().is_some());
        assert!(SequencerError::NegativeWait { ns: -1.0 }.source().is_none());
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SequencerError>();
    }

    #[test]
    fn samsung_guard_blocks_multi_activation() {
        let s = TestSetup::new(VendorProfile::mfr_s(), 42);
        let (_, out) = s
            .resolve_apa(
                BankId::new(0),
                RowAddr::new(0),
                RowAddr::new(7),
                ApaTiming::from_ns(3.0, 3.0),
            )
            .unwrap();
        assert_eq!(out.open_row_count(), 1);
    }

    #[test]
    fn apa_then_write_stores_pattern_in_all_open_rows() {
        let mut s = setup();
        let cols = s.module().geometry().cols_per_row as usize;
        let bank = BankId::new(0);
        // Initialise rows 0..8 with zeros, then APA(0, 7) + WR ones.
        for r in 0..8 {
            s.init_row(bank, RowAddr::new(r), &BitRow::zeros(cols))
                .unwrap();
        }
        let ones = BitRow::ones(cols);
        let (_, out) = s
            .apa_then_write(
                bank,
                RowAddr::new(0),
                RowAddr::new(7),
                ApaTiming::from_ns(3.0, 3.0),
                &ones,
            )
            .unwrap();
        assert_eq!(out.open_row_count(), 4);
        // At best timing, near-all cells take the write.
        for r in out.open_rows() {
            let read = s.read_row(bank, RowAddr::new(r)).unwrap();
            let frac = read.count_ones() as f64 / cols as f64;
            assert!(frac > 0.99, "row {r} only {frac}");
        }
        // Rows outside the activated set keep their data.
        let untouched = s.read_row(bank, RowAddr::new(2)).unwrap();
        assert_eq!(untouched.count_ones(), 0);
    }

    #[test]
    fn weak_timing_write_fails_many_cells() {
        let mut s = setup();
        let cols = s.module().geometry().cols_per_row as usize;
        let bank = BankId::new(0);
        for r in 0..8 {
            s.init_row(bank, RowAddr::new(r), &BitRow::zeros(cols))
                .unwrap();
        }
        let ones = BitRow::ones(cols);
        let (_, out) = s
            .apa_then_write(
                bank,
                RowAddr::new(0),
                RowAddr::new(7),
                ApaTiming::from_ns(1.5, 1.5),
                &ones,
            )
            .unwrap();
        let mut stored = 0usize;
        let mut total = 0usize;
        for r in out.open_rows() {
            let read = s.read_row(bank, RowAddr::new(r)).unwrap();
            stored += read.count_ones();
            total += cols;
        }
        let frac = stored as f64 / total as f64;
        assert!(
            frac < 0.95,
            "grid-minimum timing should visibly fail: {frac}"
        );
    }

    /// A row image of the module's width: all-0, all-1 or random.
    fn image(kind: usize, cols: usize, rng: &mut rand::rngs::StdRng) -> BitRow {
        match kind {
            0 => BitRow::zeros(cols),
            1 => BitRow::ones(cols),
            _ => BitRow::random(rng, cols),
        }
    }

    #[test]
    fn init_rows_writes_like_init_row_and_keeps_stuck_cells_pinned() {
        use rand::Rng;
        use simra_dram::CellFaultSpec;
        let mut pinned = 0;
        simra_cases::check("init_rows_matches_init_row", 8, |rng| {
            for faulted in [false, true] {
                let mut group = setup();
                if faulted {
                    group.module_mut().set_fault_spec(Some(CellFaultSpec {
                        seed: rng.gen(),
                        stuck_per_million: 20_000.0,
                        ..CellFaultSpec::default()
                    }));
                }
                let mut per_row = group.clone();
                let geometry = *group.module().geometry();
                let bank = BankId::new(rng.gen_range(0..u32::from(geometry.banks)) as u16);
                let subarray = SubarrayId::new(
                    rng.gen_range(0..u32::from(geometry.subarrays_per_bank)) as u16,
                );
                let mut locals: Vec<u32> = (0..rng.gen_range(1..33u32))
                    .map(|_| rng.gen_range(0..geometry.rows_per_subarray))
                    .collect();
                locals.sort_unstable();
                locals.dedup();
                let img = image(rng.gen_range(0..3), geometry.cols_per_row as usize, rng);

                group.init_rows(bank, subarray, &locals, &img).unwrap();
                for &local in &locals {
                    per_row
                        .init_row(bank, geometry.join_row(subarray, local), &img)
                        .unwrap();
                }
                assert_eq!(group.module(), per_row.module(), "faulted {faulted}");

                let sa = group
                    .module_mut()
                    .bank_mut(bank)
                    .unwrap()
                    .subarray(subarray);
                for &local in &locals {
                    let stuck = sa.faults().map_or(&[][..], |f| f.stuck_in_row(local));
                    let voltages = sa.row_voltages(local);
                    for &(col, bit) in stuck {
                        assert_eq!(voltages[col as usize], if bit { 1.0 } else { 0.0 });
                        pinned += 1;
                    }
                }
            }
        });
        assert!(pinned > 0, "the faulted cases must write over stuck cells");
    }

    #[test]
    fn init_rows_returns_init_row_errors() {
        let s = setup();
        let geometry = *s.module().geometry();
        let cols = geometry.cols_per_row as usize;
        let last = SubarrayId::new(geometry.subarrays_per_bank - 1);
        let past = SubarrayId::new(geometry.subarrays_per_bank);
        let cases = [
            // A local row past the last subarray's end.
            (BankId::new(0), last, geometry.rows_per_subarray, cols),
            // A subarray past the bank's end.
            (BankId::new(0), past, 0, cols),
            // A bank past the module's end.
            (BankId::new(geometry.banks), last, 0, cols),
            // Images one bit too narrow and too wide.
            (BankId::new(0), last, 3, cols - 1),
            (BankId::new(0), last, 3, cols + 1),
        ];
        for (bank, subarray, local, width) in cases {
            let img = BitRow::zeros(width);
            let mut group = s.clone();
            let mut single = s.clone();
            let group_err = group.init_rows(bank, subarray, &[0, local], &img);
            let row_err = single.init_row(bank, geometry.join_row(subarray, local), &img);
            assert!(group_err.is_err(), "{bank:?} {subarray:?} {local} {width}");
            assert_eq!(group_err, row_err, "{bank:?} {subarray:?} {local} {width}");
        }
        // A local row past its own subarray is out of range even where
        // its bank-level address lies in the next subarray.
        let err = s
            .clone()
            .init_rows(
                BankId::new(0),
                SubarrayId::new(0),
                &[geometry.rows_per_subarray],
                &BitRow::zeros(cols),
            )
            .unwrap_err();
        assert_eq!(
            err,
            SequencerError::Dram(DramError::RowOutOfRange {
                row: RowAddr::new(geometry.rows_per_subarray),
                rows_in_bank: geometry.rows_per_bank(),
            })
        );
        // Rows are checked before any is written.
        let mut group = s.clone();
        let bad = geometry.rows_per_subarray;
        group
            .init_rows(BankId::new(0), last, &[0, bad], &BitRow::ones(cols))
            .unwrap_err();
        assert_eq!(group.module(), s.module());
    }
}
