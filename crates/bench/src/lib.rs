//! The `repro` binary and the pieces it shares with tooling — [`cli`]
//! argument parsing and the [`metrics`] JSON document written by
//! `repro --metrics-out` — plus the three bench targets in `benches/`
//! that write the committed `BENCH_{analog,backend,hybrid}.json`, and
//! their [`timing`] helper. Campaign timing, end to end and per layer,
//! lives in `perfbench/`.

pub mod cli;
pub mod metrics;
pub mod timing;
