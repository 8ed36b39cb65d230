//! Bench for the adaptive hybrid backend's trial savings: how many
//! analog trials the confidence-gated escalation actually executes
//! versus the full-analog baseline, and what that buys in wall-clock,
//! at quick and reduced (the default full-repro) scale.
//!
//! The hybrid's pitch is "analog evidence only where the table is
//! ambiguous": every trial the Wilson-interval gate answers from the
//! calibrated table is an analog trial *not* run. This bench measures
//! the real `repro` binary end to end — the whole campaign, not a
//! synthetic loop — and reads the hybrid's own telemetry counters from
//! the metrics document, so the numbers are exactly what a user's run
//! would report.
//!
//! Besides the timed bodies, every run — including `--test` smoke
//! runs — writes `BENCH_hybrid.json` with per-scale trial counts,
//! savings ratios, and wall-clock speedups, so CI can archive the
//! evidence for the "≤ 25 % of the analog trial count" acceptance bar
//! and gate on savings ≥ 2× without parsing bench output.

use std::process::Command;
use std::time::Instant;

use simra_bench::timing::Bench;
use simra_characterize::{fig7_majx_patterns, ExperimentConfig, Session};
use simra_exec::BackendChoice;

/// Runs the real repro binary, returns wall-clock milliseconds.
fn timed_repro(args: &[&str]) -> f64 {
    let start = Instant::now();
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("spawn repro");
    assert!(
        out.status.success(),
        "repro {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    start.elapsed().as_secs_f64() * 1e3
}

/// Extracts a `(module, name)` counter from a metrics JSON document
/// without a JSON parser dependency: counters are serialized flat as
/// `{"module":"m","name":"n","value":V}` objects.
fn counter(doc: &str, module: &str, name: &str) -> u64 {
    let needle = format!("{{\"module\":\"{module}\",\"name\":\"{name}\",\"value\":");
    let at = doc
        .find(&needle)
        .unwrap_or_else(|| panic!("counter {module}/{name} missing from metrics"));
    let rest = &doc[at + needle.len()..];
    let end = rest
        .find(['}', ','])
        .expect("counter value is followed by a delimiter");
    rest[..end]
        .trim()
        .parse()
        .expect("counter value parses as u64")
}

struct ScaleSavings {
    scale: &'static str,
    total_trials: u64,
    analog_trials_executed: u64,
    early_stops: u64,
    budget_capped: u64,
    calibration_probes: u64,
    analog_wall_ms: f64,
    hybrid_wall_ms: f64,
}

impl ScaleSavings {
    /// Analog trials a full-analog run would execute, per hybrid
    /// accounting: every trial the hybrid answered *or* escalated.
    fn baseline_trials(&self) -> u64 {
        self.total_trials
    }

    fn trial_savings(&self) -> f64 {
        self.baseline_trials() as f64 / self.analog_trials_executed.max(1) as f64
    }

    fn analog_share(&self) -> f64 {
        self.analog_trials_executed as f64 / self.baseline_trials().max(1) as f64
    }

    fn wall_speedup(&self) -> f64 {
        self.analog_wall_ms / self.hybrid_wall_ms
    }
}

fn measure(scale: &'static str) -> ScaleSavings {
    let metrics = std::env::temp_dir().join(format!(
        "simra-hybrid-savings-{}-{scale}.json",
        std::process::id()
    ));
    let metrics_s = metrics.to_str().expect("temp path is UTF-8");
    let analog_wall_ms = timed_repro(&[scale]);
    let hybrid_wall_ms = timed_repro(&[
        scale,
        "--backend",
        "hybrid",
        "--metrics",
        "--metrics-out",
        metrics_s,
    ]);
    let doc = std::fs::read_to_string(&metrics).expect("read hybrid metrics");
    let _ = std::fs::remove_file(&metrics);
    let table_hits = counter(&doc, "hybrid", "table_hits");
    let escalations = counter(&doc, "hybrid", "escalations");
    ScaleSavings {
        scale,
        total_trials: table_hits + escalations,
        analog_trials_executed: escalations,
        early_stops: counter(&doc, "hybrid", "early_stops"),
        budget_capped: counter(&doc, "hybrid", "budget_capped"),
        calibration_probes: counter(&doc, "surrogate", "calibration_probes"),
        analog_wall_ms,
        hybrid_wall_ms,
    }
}

/// Output file, relative to the bench's working directory (the
/// `simra-bench` package root under `cargo bench`).
const OUT: &str = "BENCH_hybrid.json";

/// Writes the bench document to [`OUT`].
fn write_savings_doc() {
    let scales = [measure("quick"), measure("reduced")];
    let entries: Vec<String> = scales
        .iter()
        .map(|s| {
            format!(
                "{{\"scale\":{},\"total_trials\":{},\"analog_trials_executed\":{},\
                 \"early_stops\":{},\"budget_capped\":{},\"calibration_probes\":{},\
                 \"trial_savings\":{:.3},\"analog_share\":{:.4},\
                 \"analog_wall_ms\":{:.3},\"hybrid_wall_ms\":{:.3},\"wall_speedup\":{:.3}}}",
                simra_telemetry::json::quote(s.scale),
                s.total_trials,
                s.analog_trials_executed,
                s.early_stops,
                s.budget_capped,
                s.calibration_probes,
                s.trial_savings(),
                s.analog_share(),
                s.analog_wall_ms,
                s.hybrid_wall_ms,
                s.wall_speedup(),
            )
        })
        .collect();
    let doc = format!(
        "{{\"schema_version\":1,\"tool\":{},\"scales\":[{}]}}",
        simra_telemetry::json::quote("hybrid_savings_bench"),
        entries.join(","),
    );
    std::fs::write(OUT, &doc).expect("write BENCH_hybrid.json");
    for s in &scales {
        eprintln!(
            "hybrid_savings[{}]: {} of {} trials analog ({:.1}% share, {:.2}x savings), \
             wall {:.0} ms vs {:.0} ms analog ({:.2}x) -> {OUT}",
            s.scale,
            s.analog_trials_executed,
            s.total_trials,
            100.0 * s.analog_share(),
            s.trial_savings(),
            s.hybrid_wall_ms,
            s.analog_wall_ms,
            s.wall_speedup(),
        );
    }
}

fn main() {
    let bench = Bench::from_args();
    write_savings_doc();

    // A light in-process comparison for trend tracking: one figure
    // family dispatched through each backend at quick scale.
    let mut analog_cfg = ExperimentConfig::quick();
    analog_cfg.backend = BackendChoice::Analog;
    let analog_session = Session::new(analog_cfg);
    let mut hybrid_cfg = ExperimentConfig::quick();
    hybrid_cfg.backend = BackendChoice::Hybrid;
    let hybrid_session = Session::new(hybrid_cfg);
    bench.run("hybrid_savings/fig7/analog", || {
        fig7_majx_patterns(&analog_session)
    });
    // The first (warm-up) call calibrates.
    bench.run("hybrid_savings/fig7/hybrid", || {
        fig7_majx_patterns(&hybrid_session)
    });
}
