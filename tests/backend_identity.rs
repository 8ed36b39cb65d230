//! Golden byte-identity tests for the backend layer.
//!
//! The `AnalogBackend` contract is that the `PudBackend` refactor is
//! *invisible*: every figure runner must produce bit-for-bit the same
//! samples it produced when the ops were inlined closures. These tests
//! freeze the pre-refactor closures verbatim (including their RNG draw
//! order — the part a refactor most easily breaks) and diff a
//! quick-scale sweep through the trait-dispatched path against them.
//!
//! The surrogate gets the complementary check: not identity, but its
//! documented tolerance band against the analog reference.

use rand::rngs::StdRng;
use rand::Rng;

use simra::bender::TestSetup;
use simra::characterize::{
    sweep_trial_samples, trial_point, ExperimentConfig, FleetOutcome, Session, SweepPlan,
    SweepPoint, TrialPoint,
};
use simra::dram::{ApaTiming, BitRow, DataPattern, Manufacturer};
use simra::exec::{AnalogBackend, BackendChoice, MrcSource, PudBackend, TrialSpec};
use simra::pud::act::activation_success;
use simra::pud::maj::{majx_success, MajConfig};
use simra::pud::multirowcopy::multirowcopy_success;
use simra::pud::rowgroup::GroupSpec;

/// Bitwise view of a sample matrix: equality up to NaN payloads.
fn bits(samples: &[Vec<f64>]) -> Vec<Vec<u64>> {
    samples
        .iter()
        .map(|row| row.iter().map(|s| s.to_bits()).collect())
        .collect()
}

/// Per-point samples of a sweep of a legacy op.
fn sweep_samples<P, F>(session: &Session, points: &[SweepPoint<P>], op: F) -> Vec<Vec<f64>>
where
    P: Sync + std::fmt::Debug,
    F: Fn(&P, &mut TestSetup, &GroupSpec, &mut StdRng) -> Option<f64> + Sync,
{
    session
        .sweep(&SweepPlan::new(points), op)
        .expect("an unarmed session cannot fail")
        .into_iter()
        .map(FleetOutcome::into_samples)
        .collect()
}

// ---- Frozen pre-refactor ops (verbatim copies of the old closures) ----

#[derive(Debug, Clone, Copy)]
struct LegacyActPoint {
    timing: ApaTiming,
    temperature_c: Option<f64>,
    vpp_v: Option<f64>,
}

fn legacy_activation_op(
    point: &LegacyActPoint,
    setup: &mut TestSetup,
    group: &GroupSpec,
    rng: &mut StdRng,
) -> Option<f64> {
    if let Some(t) = point.temperature_c {
        setup
            .set_temperature(t)
            .expect("swept temperature is in range");
    }
    if let Some(v) = point.vpp_v {
        setup.set_vpp(v).expect("swept V_PP is in range");
    }
    activation_success(setup, group, point.timing, DataPattern::Random, rng).ok()
}

#[derive(Debug, Clone, Copy)]
struct LegacyMajPoint {
    x: usize,
    timing: ApaTiming,
    pattern: DataPattern,
    temperature_c: Option<f64>,
    vpp_v: Option<f64>,
}

fn legacy_majx_op(
    point: &LegacyMajPoint,
    setup: &mut TestSetup,
    group: &GroupSpec,
    rng: &mut StdRng,
) -> Option<f64> {
    if point.x >= 9 && setup.module().profile().manufacturer == Manufacturer::M {
        return None;
    }
    if let Some(t) = point.temperature_c {
        setup
            .set_temperature(t)
            .expect("swept temperature is in range");
    }
    if let Some(v) = point.vpp_v {
        setup.set_vpp(v).expect("swept V_PP is in range");
    }
    let maj_config = MajConfig::default();
    majx_success(
        setup,
        group,
        point.x,
        point.timing,
        point.pattern,
        &maj_config,
        rng,
    )
    .ok()
}

#[derive(Debug, Clone, Copy)]
enum LegacyMrcPattern {
    AllOnes,
    Random,
}

#[derive(Debug, Clone, Copy)]
struct LegacyMrcPoint {
    timing: ApaTiming,
    pattern: LegacyMrcPattern,
    temperature_c: Option<f64>,
    vpp_v: Option<f64>,
}

fn legacy_mrc_op(
    point: &LegacyMrcPoint,
    setup: &mut TestSetup,
    group: &GroupSpec,
    rng: &mut StdRng,
) -> Option<f64> {
    if let Some(t) = point.temperature_c {
        setup
            .set_temperature(t)
            .expect("swept temperature is in range");
    }
    if let Some(v) = point.vpp_v {
        setup.set_vpp(v).expect("swept V_PP is in range");
    }
    let cols = setup.module().geometry().cols_per_row as usize;
    let img = match point.pattern {
        LegacyMrcPattern::AllOnes => BitRow::ones(cols),
        LegacyMrcPattern::Random => BitRow::from_bits((0..cols).map(|_| rng.gen())),
    };
    multirowcopy_success(setup, group, point.timing, &img).ok()
}

// ---- The identity tests ----

/// A two-vendor quick-scale config (Mfr. M exercises the MAJ9 guard).
fn config() -> ExperimentConfig {
    let mut config = ExperimentConfig::quick();
    config
        .modules
        .push(simra::characterize::config::ModuleUnderTest {
            profile: simra::dram::VendorProfile::mfr_m_e_die(),
            seed: 19,
        });
    config
}

/// Activation grid: `(N, timing, temperature, V_PP)` per point.
type ActGrid = Vec<(u32, ApaTiming, Option<f64>, Option<f64>)>;

fn activation_grid() -> ActGrid {
    vec![
        (2, ApaTiming::from_ns(1.5, 1.5), None, None),
        (8, ApaTiming::from_ns(3.0, 3.0), None, None),
        (32, ApaTiming::best_for_activation(), Some(90.0), None),
        (16, ApaTiming::best_for_activation(), None, Some(2.1)),
    ]
}

fn activation_trait_points(
    config: &ExperimentConfig,
    grid: &ActGrid,
) -> Vec<SweepPoint<TrialPoint>> {
    grid.iter()
        .map(|&(n, timing, t, v)| {
            let mut spec = TrialSpec::activation(timing);
            if let Some(t) = t {
                spec = spec.at_temperature(t);
            }
            if let Some(v) = v {
                spec = spec.at_vpp(v);
            }
            trial_point(config, n, spec)
        })
        .collect()
}

/// MAJX grid: `(N, X, pattern)` per point. MAJ9 probes the Mfr-M guard;
/// it must refuse *before* consuming any stream so later points replay
/// identically.
fn majx_grid() -> Vec<(u32, usize, DataPattern)> {
    vec![
        (32, 3, DataPattern::Random),
        (32, 5, DataPattern::Solid),
        (16, 9, DataPattern::Random),
        (32, 7, DataPattern::Checkered),
    ]
}

fn majx_trait_points(
    config: &ExperimentConfig,
    grid: &[(u32, usize, DataPattern)],
) -> Vec<SweepPoint<TrialPoint>> {
    grid.iter()
        .map(|&(n, x, pattern)| {
            trial_point(
                config,
                n,
                TrialSpec::majx(x, ApaTiming::best_for_majx(), pattern),
            )
        })
        .collect()
}

fn mrc_trait_points(config: &ExperimentConfig) -> Vec<SweepPoint<TrialPoint>> {
    let timing = ApaTiming::best_for_multi_row_copy();
    vec![
        trial_point(
            config,
            8,
            TrialSpec::multirowcopy(timing, MrcSource::RandomBits),
        ),
        trial_point(
            config,
            32,
            TrialSpec::multirowcopy(timing, MrcSource::AllOnes).at_temperature(70.0),
        ),
    ]
}

#[test]
fn activation_sweep_is_byte_identical_through_the_trait() {
    let config = config();
    let grid = activation_grid();
    let legacy_points: Vec<SweepPoint<LegacyActPoint>> = grid
        .iter()
        .map(|&(n, timing, temperature_c, vpp_v)| {
            SweepPoint::new(
                n,
                LegacyActPoint {
                    timing,
                    temperature_c,
                    vpp_v,
                },
            )
        })
        .collect();
    let trait_points = activation_trait_points(&config, &grid);
    let session = Session::new(config.clone());
    let legacy = sweep_samples(&session, &legacy_points, legacy_activation_op);
    let dispatched = sweep_trial_samples(&session, &trait_points);
    assert_eq!(bits(&legacy), bits(&dispatched));
}

#[test]
fn majx_sweep_is_byte_identical_through_the_trait() {
    let config = config();
    let grid = majx_grid();
    let legacy_points: Vec<SweepPoint<LegacyMajPoint>> = grid
        .iter()
        .map(|&(n, x, pattern)| {
            SweepPoint::new(
                n,
                LegacyMajPoint {
                    x,
                    timing: ApaTiming::best_for_majx(),
                    pattern,
                    temperature_c: None,
                    vpp_v: None,
                },
            )
        })
        .collect();
    let trait_points = majx_trait_points(&config, &grid);
    let session = Session::new(config.clone());
    let legacy = sweep_samples(&session, &legacy_points, legacy_majx_op);
    let dispatched = sweep_trial_samples(&session, &trait_points);
    assert_eq!(bits(&legacy), bits(&dispatched));
}

#[test]
fn mrc_sweep_is_byte_identical_through_the_trait() {
    let config = config();
    let timing = ApaTiming::best_for_multi_row_copy();
    let legacy_points = vec![
        SweepPoint::new(
            8,
            LegacyMrcPoint {
                timing,
                pattern: LegacyMrcPattern::Random,
                temperature_c: None,
                vpp_v: None,
            },
        ),
        SweepPoint::new(
            32,
            LegacyMrcPoint {
                timing,
                pattern: LegacyMrcPattern::AllOnes,
                temperature_c: Some(70.0),
                vpp_v: None,
            },
        ),
    ];
    let trait_points = mrc_trait_points(&config);
    let session = Session::new(config.clone());
    let legacy = sweep_samples(&session, &legacy_points, legacy_mrc_op);
    let dispatched = sweep_trial_samples(&session, &trait_points);
    assert_eq!(bits(&legacy), bits(&dispatched));
}

/// FNV-1a over the `to_bits` of every sample, point by point.
fn fnv1a(samples: &[Vec<f64>]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for row in samples {
        for byte in row.iter().flat_map(|s| s.to_bits().to_le_bytes()) {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
        // Separate points so moving a sample across them changes the hash.
        h ^= 0xff;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// The identity tests above compare the trait path against closures that
/// call the same `activation_success` / `majx_success` /
/// `multirowcopy_success`, so drift *inside* those ops passes them. This
/// pins the samples themselves: the hashes were recorded before the ops'
/// row writes went word-wide, and any change to a sample bit fails here.
/// The MAJX grid runs on both a Frac part (Mfr. H) and a complement-pair
/// part (Mfr. M).
#[test]
fn trait_path_samples_match_their_recorded_hashes() {
    let config = config();
    let session = Session::new(config.clone());
    let act = sweep_trial_samples(
        &session,
        &activation_trait_points(&config, &activation_grid()),
    );
    let majx = sweep_trial_samples(&session, &majx_trait_points(&config, &majx_grid()));
    let mrc = sweep_trial_samples(&session, &mrc_trait_points(&config));
    assert_eq!(
        [fnv1a(&act), fnv1a(&majx), fnv1a(&mrc)],
        [
            0x9855_6af0_ea01_0a1f,
            0x0c6a_d356_f55c_1517,
            0xadca_430a_2724_1501
        ],
        "activation / MAJX / MRC sample hashes"
    );
}

#[test]
fn random_row_source_matches_the_word_drawing_convention() {
    // The per-die table draws MRC images with `BitRow::random` (whole
    // words), not bit-by-bit; `MrcSource::RandomRow` must reproduce
    // that stream exactly.
    use rand::SeedableRng;
    let profile = simra::dram::VendorProfile::mfr_h_m_die();
    let mut legacy_setup = TestSetup::with_module(simra::dram::DramModule::new(profile.clone(), 4));
    let mut trait_setup = TestSetup::with_module(simra::dram::DramModule::new(profile, 4));
    let mut legacy_rng = StdRng::seed_from_u64(99);
    let group = simra::pud::rowgroup::random_group(
        legacy_setup.module().geometry(),
        simra::dram::BankId::new(0),
        simra::dram::SubarrayId::new(0),
        16,
        &mut legacy_rng,
    )
    .expect("group fits");
    let cols = legacy_setup.module().geometry().cols_per_row as usize;
    let timing = ApaTiming::best_for_multi_row_copy();
    let legacy = {
        let img = BitRow::random(&mut legacy_rng, cols);
        multirowcopy_success(&mut legacy_setup, &group, timing, &img).ok()
    };
    // Re-seed the trait stream to the exact same position.
    let mut trait_rng = StdRng::seed_from_u64(99);
    let group2 = simra::pud::rowgroup::random_group(
        trait_setup.module().geometry(),
        simra::dram::BankId::new(0),
        simra::dram::SubarrayId::new(0),
        16,
        &mut trait_rng,
    )
    .expect("group fits");
    let spec = TrialSpec::multirowcopy(timing, MrcSource::RandomRow);
    let dispatched = AnalogBackend.run_trial(&spec, &mut trait_setup, &group2, &mut trait_rng);
    assert_eq!(legacy.map(f64::to_bits), dispatched.map(f64::to_bits));
}

#[test]
fn surrogate_fig4a_stays_within_the_documented_band() {
    // Not identity — the surrogate's contract is its tolerance band:
    // paired same-N observations match up to cancelled trial noise, and
    // absolute levels stay within a few percentage points.
    let analog_cfg = ExperimentConfig::quick();
    let mut surrogate_cfg = ExperimentConfig::quick();
    surrogate_cfg.backend = BackendChoice::Surrogate;
    let analog = simra::characterize::fig4a_activation_temperature(&Session::new(analog_cfg));
    let surrogate = simra::characterize::fig4a_activation_temperature(&Session::new(surrogate_cfg));
    for (ra, rs) in analog.rows.iter().zip(&surrogate.rows) {
        assert_eq!(ra.label, rs.label);
        for (va, vs) in ra.values.iter().zip(&rs.values) {
            assert!(
                (va - vs).abs() < 5.0,
                "row {}: analog {va} vs surrogate {vs} (band: 5 pp)",
                ra.label
            );
        }
    }
}
