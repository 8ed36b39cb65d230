//! Bench for the analog hot path: the tiled charge-sharing kernel and
//! the trial-batched sense rig versus the frozen scalar reference.
//!
//! Three kernel variants are measured on the same subarray state:
//!
//! * `scalar` — [`bitline_deltas_into_scalar`], the frozen
//!   pre-vectorization kernel (the bit-identity reference);
//! * `tiled` — [`bitline_deltas_into`], the [`LANES`]-wide
//!   register-accumulator rewrite the sense path runs on;
//! * `batched` — [`bitline_deltas_batch_into`] over a block of voltage
//!   snapshots, which walks the capacitance/strength planes once per
//!   batch instead of once per trial.
//!
//! On top of the raw kernels, the engine-level trial path is measured
//! at all three stages of the trajectory: the seed baseline (`trials`
//! calls of [`ApaEngine::sense_reference`], the frozen scalar path the
//! repo shipped before vectorization), the SIMD stage (`trials` calls
//! of [`ApaEngine::sense`]), and the batched stage (one
//! [`ApaEngine::sense_batch`] over pre-captured snapshots).
//!
//! The `restore` section times the all-trials restore survival of one
//! 32-row commit: the per-cell reference loop (every drive through
//! [`restore_probability`]'s `erf`/`ln`/`exp` chain) against
//! [`ApaEngine::commit_survival_sum`], which skips the chain on the
//! exact saturation rails.
//!
//! The `write` section times the group write before every APA: one
//! 32-row group written with the frozen per-cell loop (one
//! [`BitRow::get`] per cell), with [`Subarray::write_row`] (whole image
//! words expanded into the plane), and with [`TestSetup::init_rows`]
//! (the same writes behind one bank/subarray lookup per group).
//!
//! Besides the timed bodies, every run — including `--test` smoke
//! runs — writes `BENCH_analog.json` with direct best-of-N wall-clock
//! numbers (columns/sec for the kernels, trials/sec for the sense rig,
//! rows/sec for the writes),
//! so CI can archive the evidence for the ≥2× kernel / ≥3×
//! batched-sense acceptance bars without parsing bench output.

use simra_analog::charge::{
    bitline_deltas_batch_into, bitline_deltas_into, bitline_deltas_into_scalar, LANES,
};
use simra_analog::sense::restore_probability;
use simra_analog::{ApaEngine, CircuitParams, OperatingConditions, SenseBatch};
use simra_bench::timing::{best_of_ms, Bench};
use simra_bender::TestSetup;
use simra_dram::subarray::VariationParams;
use simra_dram::{ApaTiming, BankId, BitRow, Subarray, SubarrayId, VendorProfile};

/// Columns per row of the bench subarray — the vendor profiles'
/// geometry (`simra_dram::VendorProfile`), so the kernels are measured
/// at the working-set size the repro actually runs them at.
const COLS: usize = 256;
/// Simultaneously opened rows (the paper's largest COTS N).
const ACTIVE_ROWS: usize = 32;
/// Trials per batch for the batched kernel / sense measurements — the
/// data-redraw count of one characterization point. 32 keeps the whole
/// snapshot stack (`TRIALS · ACTIVE_ROWS · COLS` f32s, 1 MiB) cache
/// resident, which is how the characterize loops use batches: one
/// point's redraws at a time, not an unbounded backlog.
const TRIALS: usize = 32;
/// Best-of reps for every direct wall-clock measurement. The bench
/// shares a host with other tenants, so the minimum over many short
/// reps — not a mean — is the estimator for all throughput numbers.
const REPS: usize = 15;
/// Single-shot kernel invocations per timed rep (amortizes timer
/// granularity over a few milliseconds of work).
const INNER: usize = 512;
/// Batched kernel invocations per timed rep: each call covers `TRIALS`
/// snapshots, so this covers the same `INNER · COLS` column count as
/// the single-shot timings.
const INNER_BATCH: usize = INNER / TRIALS;

fn rig() -> (Subarray, ApaEngine, Vec<u32>) {
    let mut subarray = Subarray::new(64, COLS as u32, VariationParams::default(), 5);
    // Deterministic mixed data: enough structure to exercise both sense
    // polarities, no RNG dependency.
    for row in 0..64u32 {
        let image = BitRow::from_bits(
            (0..COLS).map(|c| (c as u32).wrapping_mul(2_654_435_761).wrapping_add(row) & 4 != 0),
        );
        subarray.write_row(row, &image).unwrap();
    }
    let engine = ApaEngine::new(
        CircuitParams::calibrated(),
        OperatingConditions::nominal(),
        false,
    );
    let rows: Vec<u32> = (0..ACTIVE_ROWS as u32).collect();
    (subarray, engine, rows)
}

struct KernelTimes {
    scalar_ms: f64,
    tiled_ms: f64,
    batched_ms: f64,
}

/// Times the three kernel variants over identical inputs. Each timed
/// rep processes `INNER * COLS` columns: `INNER` calls of the
/// single-shot kernels, `INNER_BATCH` calls of the batched kernel
/// (each covering `TRIALS` snapshots).
fn time_kernels(subarray: &Subarray, engine: &ApaEngine, rows: &[u32]) -> KernelTimes {
    let params = engine.params();
    let timing = ApaTiming::best_for_majx();
    let first_weight = params.first_row_weight(rows.len(), timing);
    let rows_weights: Vec<(u32, f64)> = rows
        .iter()
        .enumerate()
        .map(|(i, &r)| (r, if i == 0 { first_weight } else { 1.0 }))
        .collect();
    let transfer_amp = params.transfer_amp(rows.len());
    let (assertion, beta) = (1.0, params.beta);
    // Every timed call goes through black_box on both sides so the
    // repeated identical invocations cannot be hoisted, merged, or
    // dead-stored by the optimizer.

    let mut cap = Vec::new();
    let mut out = Vec::new();
    let scalar_ms = best_of_ms(REPS, || {
        for _ in 0..INNER {
            bitline_deltas_into_scalar(
                subarray,
                std::hint::black_box(&rows_weights),
                transfer_amp,
                assertion,
                beta,
                &mut cap,
                &mut out,
            );
            std::hint::black_box((&mut cap, &mut out));
        }
    });
    let tiled_ms = best_of_ms(REPS, || {
        for _ in 0..INNER {
            bitline_deltas_into(
                subarray,
                std::hint::black_box(&rows_weights),
                transfer_amp,
                assertion,
                beta,
                &mut cap,
                &mut out,
            );
            std::hint::black_box((&mut cap, &mut out));
        }
    });

    // The batched kernel consumes explicit voltage snapshots; capture
    // TRIALS copies of the live plane so per-trial inputs match.
    let mut voltages = Vec::with_capacity(TRIALS * rows.len() * COLS);
    for _ in 0..TRIALS {
        for &row in rows {
            voltages.extend_from_slice(&subarray.row_voltages(row)[..COLS]);
        }
    }
    let batched_ms = best_of_ms(REPS, || {
        for _ in 0..INNER_BATCH {
            bitline_deltas_batch_into(
                subarray,
                std::hint::black_box(&rows_weights),
                std::hint::black_box(&voltages),
                TRIALS,
                transfer_amp,
                assertion,
                beta,
                &mut cap,
                &mut out,
            );
            std::hint::black_box((&mut cap, &mut out));
        }
    });
    // Sanity: the batched run produced TRIALS * COLS deltas.
    assert_eq!(out.len(), TRIALS * COLS);
    KernelTimes {
        scalar_ms,
        tiled_ms,
        batched_ms,
    }
}

struct SenseTimes {
    scalar_ms: f64,
    tiled_ms: f64,
    batched_ms: f64,
}

/// Times `TRIALS` engine-level senses at each trajectory stage: the
/// seed trial loop (one [`ApaEngine::sense_reference`] per trial — the
/// frozen scalar path), the SIMD trial loop (one [`ApaEngine::sense`]
/// per trial), and one batched [`ApaEngine::sense_batch`] pass over
/// pre-captured snapshots. Snapshot capture is outside the timed
/// region: in real trial loops the operand writes happen either way,
/// and the batch's `f32` copies ride along with them.
fn time_senses(subarray: &Subarray, engine: &ApaEngine, rows: &[u32]) -> SenseTimes {
    let timing = ApaTiming::best_for_majx();
    // Every rep covers SENSE_INNER × TRIALS senses so each timed region
    // is a few milliseconds — long enough that scheduler noise cannot
    // swallow a whole rep; the reported number is per TRIALS senses.
    const SENSE_INNER: usize = 4;
    let scalar_ms = best_of_ms(REPS, || {
        for _ in 0..SENSE_INNER * TRIALS {
            let r = engine.sense_reference(std::hint::black_box(subarray), rows, rows[0], timing);
            assert_eq!(std::hint::black_box(r).deltas.len(), COLS);
        }
    }) / SENSE_INNER as f64;
    let tiled_ms = best_of_ms(REPS, || {
        for _ in 0..SENSE_INNER * TRIALS {
            let r = engine.sense(std::hint::black_box(subarray), rows, rows[0], timing);
            assert_eq!(std::hint::black_box(r).deltas.len(), COLS);
        }
    }) / SENSE_INNER as f64;
    let mut batch = SenseBatch::new(rows, COLS);
    for _ in 0..TRIALS {
        batch.snapshot_trial(subarray);
    }
    let batched_ms = best_of_ms(REPS, || {
        for _ in 0..SENSE_INNER {
            let results =
                engine.sense_batch(subarray, std::hint::black_box(&batch), rows[0], timing);
            assert_eq!(std::hint::black_box(results).len(), TRIALS);
        }
    }) / SENSE_INNER as f64;
    SenseTimes {
        scalar_ms,
        tiled_ms,
        batched_ms,
    }
}

/// Restore strengths of one commit-survival rep: the four the
/// timing grid produces (weak t1 × weak t2, weak t2, weak t1, full),
/// so the cells land on both rails and in the band between them as
/// they do in the activation and Multi-RowCopy sweeps.
const RESTORE_STRENGTHS: [f64; 4] = [0.96 * 0.875, 0.875, 0.96, 1.0];
/// Commit-survival passes per timed rep, per restore strength.
const RESTORE_INNER: usize = 16;

/// The scalar reference of `commit_survival_sum`: every cell's drive
/// through [`restore_probability`], no rails, summed row-major.
fn reference_commit_survival_sum(
    subarray: &Subarray,
    engine: &ApaEngine,
    rows: &[u32],
    values: &BitRow,
    restore_strength: f64,
) -> f64 {
    let params = engine.params();
    let frac_ones = values.count_ones() as f64 / values.len().max(1) as f64;
    let wq = params.write_quality(engine.conditions());
    let mut sum = 0.0;
    for &row in rows {
        for (col, &strength) in subarray.row_strength_factors(row).iter().enumerate() {
            let drive = restore_strength
                * wq
                * strength as f64
                * params.restore_drive(values.get(col), rows.len(), frac_ones);
            sum += restore_probability(drive, params);
        }
    }
    sum
}

struct RestoreTimes {
    reference_ms: f64,
    railed_ms: f64,
}

/// Times `RESTORE_INNER` commit-survival sums per restore strength over
/// the rig's `ACTIVE_ROWS × COLS` cells, reference loop versus railed
/// engine, after checking the two agree bit for bit.
fn time_restore(subarray: &Subarray, engine: &ApaEngine, rows: &[u32]) -> RestoreTimes {
    let values = BitRow::ones(COLS);
    for rs in RESTORE_STRENGTHS {
        assert_eq!(
            engine
                .commit_survival_sum(subarray, rows, &values, rs)
                .to_bits(),
            reference_commit_survival_sum(subarray, engine, rows, &values, rs).to_bits(),
            "railed restore survival differs from the reference at {rs}"
        );
    }
    let reference_ms = best_of_ms(REPS, || {
        for _ in 0..RESTORE_INNER {
            for rs in RESTORE_STRENGTHS {
                std::hint::black_box(reference_commit_survival_sum(
                    std::hint::black_box(subarray),
                    engine,
                    rows,
                    &values,
                    rs,
                ));
            }
        }
    });
    let railed_ms = best_of_ms(REPS, || {
        for _ in 0..RESTORE_INNER {
            for rs in RESTORE_STRENGTHS {
                std::hint::black_box(engine.commit_survival_sum(
                    std::hint::black_box(subarray),
                    rows,
                    &values,
                    rs,
                ));
            }
        }
    });
    RestoreTimes {
        reference_ms,
        railed_ms,
    }
}

/// Group writes per timed rep, per write path.
const WRITE_INNER: usize = 256;

/// The per-cell row write [`Subarray::write_row`] replaced: one
/// [`BitRow::get`] per cell, then the stuck cells re-pinned.
fn reference_write_row(subarray: &mut Subarray, row: u32, image: &BitRow) {
    for (col, v) in subarray.row_voltages_mut(row).iter_mut().enumerate() {
        *v = if image.get(col) { 1.0 } else { 0.0 };
    }
    subarray.pin_row_faults(row);
}

struct WriteTimes {
    reference_ms: f64,
    write_row_ms: f64,
    init_rows_ms: f64,
}

/// Times `WRITE_INNER` writes of the `rows` group per path, after
/// checking the word-wide write leaves the plane bit-identical to the
/// reference.
fn time_writes(subarray: &Subarray, rows: &[u32]) -> WriteTimes {
    let image = subarray.read_row(1).expect("row 1 exists");
    let mut reference = subarray.clone();
    let mut word_wide = subarray.clone();
    for &row in rows {
        reference_write_row(&mut reference, row, &image);
        word_wide.write_row(row, &image).expect("row and width fit");
    }
    assert_eq!(reference, word_wide, "write_row differs from the reference");

    let reference_ms = best_of_ms(REPS, || {
        for _ in 0..WRITE_INNER {
            for &row in std::hint::black_box(rows) {
                reference_write_row(&mut reference, row, std::hint::black_box(&image));
            }
        }
    });
    let write_row_ms = best_of_ms(REPS, || {
        for _ in 0..WRITE_INNER {
            for &row in std::hint::black_box(rows) {
                word_wide
                    .write_row(row, std::hint::black_box(&image))
                    .expect("row and width fit");
            }
        }
    });
    let mut setup = TestSetup::new(VendorProfile::mfr_h_m_die(), 5);
    assert_eq!(setup.module().geometry().cols_per_row as usize, COLS);
    let (bank, sa) = (BankId::new(0), SubarrayId::new(0));
    let init_rows_ms = best_of_ms(REPS, || {
        for _ in 0..WRITE_INNER {
            setup
                .init_rows(
                    bank,
                    sa,
                    std::hint::black_box(rows),
                    std::hint::black_box(&image),
                )
                .expect("rows and width fit");
        }
    });
    WriteTimes {
        reference_ms,
        write_row_ms,
        init_rows_ms,
    }
}

/// Work items (columns, trials, rows) per second for a timing that covered
/// `count` items in `ms` milliseconds.
fn per_sec(count: usize, ms: f64) -> f64 {
    count as f64 / (ms / 1e3)
}

/// Output file, relative to the bench's working directory (the
/// `simra-bench` package root under `cargo bench`).
const OUT: &str = "BENCH_analog.json";

/// Writes the bench document to [`OUT`].
fn write_analog_doc() {
    let (subarray, engine, rows) = rig();
    let kernel = time_kernels(&subarray, &engine, &rows);
    let sense = time_senses(&subarray, &engine, &rows);
    let restore = time_restore(&subarray, &engine, &rows);
    let write = time_writes(&subarray, &rows);

    let single_cols = INNER * COLS;
    let batch_cols = INNER_BATCH * TRIALS * COLS;
    let kernel_json = format!(
        "{{\"cols\":{COLS},\"active_rows\":{ACTIVE_ROWS},\"lanes\":{LANES},\
         \"trials_per_batch\":{TRIALS},\
         \"scalar_ms\":{:.4},\"tiled_ms\":{:.4},\"batched_ms\":{:.4},\
         \"scalar_cols_per_sec\":{:.0},\"tiled_cols_per_sec\":{:.0},\
         \"batched_cols_per_sec\":{:.0},\
         \"tiled_speedup\":{:.3},\"batched_speedup\":{:.3}}}",
        kernel.scalar_ms,
        kernel.tiled_ms,
        kernel.batched_ms,
        per_sec(single_cols, kernel.scalar_ms),
        per_sec(single_cols, kernel.tiled_ms),
        per_sec(batch_cols, kernel.batched_ms),
        per_sec(single_cols, kernel.tiled_ms) / per_sec(single_cols, kernel.scalar_ms),
        per_sec(batch_cols, kernel.batched_ms) / per_sec(single_cols, kernel.scalar_ms),
    );
    let sense_json = format!(
        "{{\"trials\":{TRIALS},\"cols\":{COLS},\"active_rows\":{ACTIVE_ROWS},\
         \"scalar_loop_ms\":{:.4},\"tiled_loop_ms\":{:.4},\"batched_ms\":{:.4},\
         \"scalar_trials_per_sec\":{:.0},\"tiled_trials_per_sec\":{:.0},\
         \"batched_trials_per_sec\":{:.0},\
         \"tiled_speedup\":{:.3},\"speedup\":{:.3}}}",
        sense.scalar_ms,
        sense.tiled_ms,
        sense.batched_ms,
        per_sec(TRIALS, sense.scalar_ms),
        per_sec(TRIALS, sense.tiled_ms),
        per_sec(TRIALS, sense.batched_ms),
        sense.scalar_ms / sense.tiled_ms,
        sense.scalar_ms / sense.batched_ms,
    );
    let restore_cells = RESTORE_INNER * RESTORE_STRENGTHS.len() * ACTIVE_ROWS * COLS;
    let restore_json = format!(
        "{{\"cols\":{COLS},\"active_rows\":{ACTIVE_ROWS},\
         \"restore_strengths\":{},\
         \"reference_ms\":{:.4},\"railed_ms\":{:.4},\
         \"reference_cells_per_sec\":{:.0},\"railed_cells_per_sec\":{:.0},\
         \"speedup\":{:.3}}}",
        RESTORE_STRENGTHS.len(),
        restore.reference_ms,
        restore.railed_ms,
        per_sec(restore_cells, restore.reference_ms),
        per_sec(restore_cells, restore.railed_ms),
        restore.reference_ms / restore.railed_ms,
    );
    let write_rows = WRITE_INNER * ACTIVE_ROWS;
    let write_json = format!(
        "{{\"cols\":{COLS},\"group_rows\":{ACTIVE_ROWS},\
         \"reference_ms\":{:.4},\"write_row_ms\":{:.4},\"init_rows_ms\":{:.4},\
         \"reference_rows_per_sec\":{:.0},\"write_row_rows_per_sec\":{:.0},\
         \"init_rows_rows_per_sec\":{:.0},\
         \"write_row_speedup\":{:.3},\"init_rows_speedup\":{:.3}}}",
        write.reference_ms,
        write.write_row_ms,
        write.init_rows_ms,
        per_sec(write_rows, write.reference_ms),
        per_sec(write_rows, write.write_row_ms),
        per_sec(write_rows, write.init_rows_ms),
        write.reference_ms / write.write_row_ms,
        write.reference_ms / write.init_rows_ms,
    );
    let doc = format!(
        "{{\"schema_version\":1,\"tool\":{},\"scale\":{},\
         \"kernel\":{kernel_json},\"sense\":{sense_json},\"restore\":{restore_json},\
         \"write\":{write_json}}}",
        simra_telemetry::json::quote("analog_hotpath_bench"),
        simra_telemetry::json::quote("quick"),
    );
    std::fs::write(OUT, &doc).expect("write BENCH_analog.json");
    eprintln!(
        "analog_hotpath: kernel scalar {:.3} / tiled {:.3} / batched {:.3} ms (per {} cols); \
         sense {} trials: scalar {:.3} / tiled {:.3} / batched {:.3} ms ({:.1}x); \
         restore: reference {:.3} / railed {:.3} ms ({:.1}x); \
         write: reference {:.3} / write_row {:.3} / init_rows {:.3} ms ({:.1}x) -> {OUT}",
        kernel.scalar_ms,
        kernel.tiled_ms,
        kernel.batched_ms,
        single_cols,
        TRIALS,
        sense.scalar_ms,
        sense.tiled_ms,
        sense.batched_ms,
        sense.scalar_ms / sense.batched_ms,
        restore.reference_ms,
        restore.railed_ms,
        restore.reference_ms / restore.railed_ms,
        write.reference_ms,
        write.write_row_ms,
        write.init_rows_ms,
        write.reference_ms / write.write_row_ms,
    );
}

fn main() {
    let bench = Bench::from_args();
    write_analog_doc();

    let (subarray, engine, rows) = rig();
    let params = engine.params();
    let timing = ApaTiming::best_for_majx();
    let rows_weights: Vec<(u32, f64)> = rows
        .iter()
        .enumerate()
        .map(|(i, &r)| {
            (
                r,
                if i == 0 {
                    params.first_row_weight(rows.len(), timing)
                } else {
                    1.0
                },
            )
        })
        .collect();
    let transfer_amp = params.transfer_amp(rows.len());
    let beta = params.beta;
    let mut cap = Vec::new();
    let mut out = Vec::new();

    bench.run("analog_hotpath/kernel/scalar", || {
        bitline_deltas_into_scalar(
            &subarray,
            &rows_weights,
            transfer_amp,
            1.0,
            beta,
            &mut cap,
            &mut out,
        )
    });
    bench.run("analog_hotpath/kernel/tiled", || {
        bitline_deltas_into(
            &subarray,
            &rows_weights,
            transfer_amp,
            1.0,
            beta,
            &mut cap,
            &mut out,
        )
    });
    bench.run("analog_hotpath/sense/scalar_loop", || {
        for _ in 0..TRIALS {
            std::hint::black_box(engine.sense_reference(&subarray, &rows, rows[0], timing));
        }
    });
    bench.run("analog_hotpath/sense/tiled_loop", || {
        for _ in 0..TRIALS {
            std::hint::black_box(engine.sense(&subarray, &rows, rows[0], timing));
        }
    });
    let mut batch = SenseBatch::new(&rows, COLS);
    for _ in 0..TRIALS {
        batch.snapshot_trial(&subarray);
    }
    bench.run("analog_hotpath/sense/batched", || {
        engine.sense_batch(&subarray, &batch, rows[0], timing)
    });
    let ones = BitRow::ones(COLS);
    bench.run("analog_hotpath/restore/reference_loop", || {
        reference_commit_survival_sum(&subarray, &engine, &rows, &ones, 0.875)
    });
    bench.run("analog_hotpath/restore/railed_sum", || {
        engine.commit_survival_sum(&subarray, &rows, &ones, 0.875)
    });
    let mut written = subarray.clone();
    bench.run("analog_hotpath/write/reference_loop", || {
        for &row in &rows {
            reference_write_row(&mut written, row, &ones);
        }
    });
    bench.run("analog_hotpath/write/write_row", || {
        for &row in &rows {
            written.write_row(row, &ones).expect("row and width fit");
        }
    });
}
