//! Bench for the execution-backend layer: every figure runner dispatched
//! through the [`AnalogBackend`] reference path versus the calibrated
//! [`SurrogateBackend`], at quick scale.
//!
//! The surrogate's pitch is "figure-shaped answers at lookup cost": it
//! pays a one-time calibration per (operation, N, profile) key — a
//! narrow-rig probe of the analog core — and then Bernoulli-samples
//! success probabilities per trial. The comparison here measures the
//! *warm* surrogate (calibration amortised, which is how every sweep
//! after the first behaves) against the analog path doing the full
//! charge-sharing simulation.
//!
//! Besides the timed bodies, every run — including `--test` smoke
//! runs — writes `BENCH_backend.json` with direct best-of-N wall-clock
//! numbers per figure plus the overall speedup, so CI can check and
//! archive them without parsing bench output.

use simra_bench::timing::{best_of_ms, Bench};
use simra_characterize::{
    fig10_mrc_timing, fig3_activation_timing, fig7_majx_patterns, ExperimentConfig, Session, Table,
};
use simra_exec::BackendChoice;

type FigureFn = fn(&Session) -> Table;

/// The measured figures: one per PUD operation family, so the comparison
/// covers activation (Fig. 3), MAJX (Fig. 7), and Multi-RowCopy
/// (Fig. 10) trial shapes.
const FIGURES: [(&str, FigureFn); 3] = [
    ("fig3", fig3_activation_timing),
    ("fig7", fig7_majx_patterns),
    ("fig10", fig10_mrc_timing),
];

fn session_for(backend: BackendChoice) -> Session {
    let mut config = ExperimentConfig::quick();
    config.backend = backend;
    Session::new(config)
}

/// Best-of-3 wall-clock milliseconds of `figure` on `session`.
fn figure_ms(figure: FigureFn, session: &Session) -> f64 {
    best_of_ms(3, || {
        let rows = figure(session).rows.len();
        assert!(rows > 0, "the measured figure produced no rows");
    })
}

struct Comparison {
    analog_ms: f64,
    surrogate_ms: f64,
}

impl Comparison {
    fn speedup(&self) -> f64 {
        self.analog_ms / self.surrogate_ms
    }
}

fn compare(figure: FigureFn) -> Comparison {
    let analog = session_for(BackendChoice::Analog);
    let surrogate = session_for(BackendChoice::Surrogate);
    // Warm both paths: thread/rig start-up on the analog side, the
    // one-time calibration probes on the surrogate side.
    let _ = figure(&analog);
    let _ = figure(&surrogate);
    Comparison {
        analog_ms: figure_ms(figure, &analog),
        surrogate_ms: figure_ms(figure, &surrogate),
    }
}

/// Output file, relative to the bench's working directory (the
/// `simra-bench` package root under `cargo bench`).
const OUT: &str = "BENCH_backend.json";

/// Writes the bench document to [`OUT`].
fn write_backend_doc() {
    let mut entries = Vec::new();
    let mut analog_total = 0.0;
    let mut surrogate_total = 0.0;
    for (name, figure) in FIGURES {
        let cmp = compare(figure);
        analog_total += cmp.analog_ms;
        surrogate_total += cmp.surrogate_ms;
        entries.push(format!(
            "{{\"figure\":{},\"analog_ms\":{:.3},\"surrogate_ms\":{:.3},\"speedup\":{:.3}}}",
            simra_telemetry::json::quote(name),
            cmp.analog_ms,
            cmp.surrogate_ms,
            cmp.speedup(),
        ));
    }
    let overall = analog_total / surrogate_total;
    let doc = format!(
        "{{\"schema_version\":1,\"tool\":{},\"scale\":{},\"figures\":[{}],\
         \"analog_total_ms\":{:.3},\"surrogate_total_ms\":{:.3},\"overall_speedup\":{:.3}}}",
        simra_telemetry::json::quote("backend_compare_bench"),
        simra_telemetry::json::quote("quick"),
        entries.join(","),
        analog_total,
        surrogate_total,
        overall,
    );
    std::fs::write(OUT, &doc).expect("write BENCH_backend.json");
    eprintln!(
        "backend_compare: analog {analog_total:.1} ms vs surrogate {surrogate_total:.1} ms \
         ({overall:.1}x overall) -> {OUT}"
    );
}

fn main() {
    let bench = Bench::from_args();
    write_backend_doc();

    let analog = session_for(BackendChoice::Analog);
    let surrogate = session_for(BackendChoice::Surrogate);
    for (name, figure) in FIGURES {
        bench.run(&format!("backend_compare/{name}/analog"), || {
            figure(&analog)
        });
        // The first (warm-up) call calibrates.
        bench.run(&format!("backend_compare/{name}/surrogate"), || {
            figure(&surrogate)
        });
    }
}
