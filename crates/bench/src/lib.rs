//! # om-bench
//!
//! Benchmark harnesses for the OmniMatch reproduction, each writing a
//! `BENCH_*.json` report (median/p95/mean per row) that `bench_gate`
//! compares against `bench/baselines/`:
//!
//! * `bench_json` — kernels, nn layers and losses (`BENCH_kernels.json`);
//!   training, Algorithm 1's `O(N·M + L·M·Q)` sweeps (§4.1), the Table 6
//!   module toggles and the baseline fits (`BENCH_train.json`);
//! * `serve_bench` — a replayed serving trace (`BENCH_serve.json`);
//! * `load_bench` — the Zipfian open- and closed-loop load harness
//!   (`BENCH_serve_load.json`).

pub mod replay;

use om_data::{SplitConfig, SynthConfig, SynthWorld};
use om_data::split::CrossDomainScenario;

/// A small scenario reused across benches (deterministic).
pub fn bench_scenario() -> CrossDomainScenario {
    let world = SynthWorld::generate(SynthConfig::tiny(), &["Books", "Movies"]);
    world.scenario("Books", "Movies", SplitConfig::default())
}
