//! `Subarray::write_row` expands whole image words into the voltage plane.
//! These properties pin it, bit for bit, to the per-cell loop it replaced,
//! which lives on here as the reference, with and without stuck cells.

use rand::rngs::StdRng;
use rand::Rng;
use simra_cases::check;
use simra_dram::subarray::VariationParams;
use simra_dram::{BitRow, CellFaultSpec, Subarray};

/// Row widths around the word boundaries, plus the modelled row width.
const WIDTHS: [u32; 6] = [1, 63, 64, 65, 100, 256];
const ROWS: u32 = 8;

/// The per-cell write: one `BitRow::get` per cell, then the overlay's
/// stuck cells re-pinned.
fn reference_write(sa: &mut Subarray, row: u32, image: &BitRow) {
    for (col, v) in sa.row_voltages_mut(row).iter_mut().enumerate() {
        *v = if image.get(col) { 1.0 } else { 0.0 };
    }
    sa.pin_row_faults(row);
}

fn image(kind: usize, width: usize, rng: &mut StdRng) -> BitRow {
    match kind {
        0 => BitRow::zeros(width),
        1 => BitRow::ones(width),
        _ => BitRow::random(rng, width),
    }
}

/// Every voltage of the plane as raw bits (so `-0.0 != 0.0`).
fn plane_bits(sa: &Subarray) -> Vec<u32> {
    (0..sa.rows())
        .flat_map(|row| sa.row_voltages(row).iter().map(|v| v.to_bits()))
        .collect()
}

/// A subarray whose plane holds off-rail voltages, so a write that skips
/// a cell shows.
fn scrambled(width: u32, seed: u64, faulted: bool, rng: &mut StdRng) -> Subarray {
    let mut sa = Subarray::new(ROWS, width, VariationParams::default(), seed);
    for row in 0..ROWS {
        for v in sa.row_voltages_mut(row) {
            *v = rng.gen_range(0.05..0.95f64) as f32;
        }
    }
    if faulted {
        let spec = CellFaultSpec {
            seed,
            stuck_per_million: 100_000.0,
            ..CellFaultSpec::default()
        };
        sa.set_faults(spec.derive(ROWS, width, seed));
    }
    sa
}

#[test]
fn write_row_matches_the_per_bit_reference() {
    check("write_row_matches_the_per_bit_reference", 8, |rng| {
        for width in WIDTHS {
            for kind in 0..3 {
                for faulted in [false, true] {
                    let seed = rng.gen();
                    let mut word_wide = scrambled(width, seed, faulted, rng);
                    let mut per_bit = word_wide.clone();
                    let row = rng.gen_range(0..ROWS);
                    let img = image(kind, width as usize, rng);
                    word_wide.write_row(row, &img).expect("row and width fit");
                    reference_write(&mut per_bit, row, &img);
                    assert_eq!(
                        plane_bits(&word_wide),
                        plane_bits(&per_bit),
                        "width {width}, image kind {kind}, faulted {faulted}, row {row}"
                    );
                }
            }
        }
    });
}
