//! # om-obs
//!
//! Zero-dependency observability for the OmniMatch stack: a span-based
//! tracer, one metrics registry (counters / integer gauges / fixed-bucket
//! seqlock histograms), a leveled logging facade and two file sinks (a
//! JSONL event stream and a `chrome://tracing`-compatible trace), all
//! designed around two hard constraints:
//!
//! 1. **Near-zero overhead when disabled.** Every public entry point
//!    guards on one relaxed atomic load ([`enabled`]). A disabled
//!    [`span`] returns an inert guard; a disabled [`emit`] is a branch.
//! 2. **No perturbation of determinism.** Instrumentation only *reads*
//!    clocks and model state — it never draws from an RNG, never reorders
//!    work, and never mutates tensors — so training results are bitwise
//!    identical with observability on or off (enforced by
//!    `crates/core/tests/determinism.rs`).
//!
//! ## Control surface
//!
//! | knob | effect |
//! |---|---|
//! | `OM_OBS=1` | enable tracing/metrics/telemetry (default off) |
//! | `OM_LOG=error…trace` | stderr log level of the [`info!`]-family macros (default `info`) |
//! | `OM_OBS_DIR=path` | sink root (default `results/obs/`) |
//! | `OM_OBS_ADDR=host:port` | serve `/metrics`, `/healthz`, `/statz` over HTTP (see [`http`]; default: no socket) |
//! | `OM_FAULT=site:nth` | fault injection: kill the process at a named kill point (see [`fault`]) |
//!
//! Independent of `OM_OBS`, the **metrics registry** ([`metrics`]) is
//! always on: cheap atomic counters/gauges and seqlock histograms that
//! never reset and can be read at any moment. The same registry feeds
//! `/metrics` and `/statz` over HTTP ([`http`]) and each run's
//! `events.jsonl` (the window since the previous run finished); the
//! [`flightrec`] crash flight recorder complements it.
//!
//! Tests override all three programmatically ([`set_enabled`],
//! [`logger::set_level`], [`set_out_root`]) — environment reads happen
//! once, on first use.
//!
//! ## Runs
//!
//! Events accumulate in process-global buffers and are written out when a
//! *run* finishes: [`run_begin`] names the run (first caller wins, so a
//! table binary owns the run and the `Trainer::fit` calls inside it feed
//! the same stream), [`run_finish`] drains every buffer into
//! `<out_root>/<run>/{events.jsonl, trace.json, manifest.json}`.
//! `cargo obs-report <dir>` renders a summary (top spans by self-time,
//! loss sparklines, histogram quantiles).

pub mod clock;
pub mod fault;
pub mod flightrec;
pub mod http;
pub mod json;
pub mod logger;
pub mod metrics;
pub mod report;
pub mod sink;
pub mod trace;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Once;

pub use sink::{
    emit, manifest_set, out_root, run_active, run_begin, run_finish, run_scope, set_out_root,
    RunScope, Value,
};
pub use trace::{span, span_if, Span};

static ENABLED: AtomicBool = AtomicBool::new(false);
static ENV_INIT: Once = Once::new();

fn ensure_env() {
    ENV_INIT.call_once(|| {
        let on = std::env::var("OM_OBS")
            .map(|v| !matches!(v.as_str(), "" | "0" | "false" | "off"))
            .unwrap_or(false);
        ENABLED.store(on, Ordering::Relaxed);
    });
}

/// Is observability collection on? One relaxed load after the first call;
/// seeded from `OM_OBS` (default off).
#[inline]
pub fn enabled() -> bool {
    ensure_env();
    ENABLED.load(Ordering::Relaxed)
}

/// Programmatically enable/disable collection (overrides `OM_OBS`).
/// Returns the previous state. Intended for tests that assert the
/// disabled path is byte-identical to the enabled one.
pub fn set_enabled(on: bool) -> bool {
    ensure_env();
    ENABLED.swap(on, Ordering::Relaxed)
}

/// Log at ERROR level to stderr (always) and into the event stream (when
/// [`enabled`]). `OM_LOG` / [`logger::set_level`] gate the stderr side.
#[macro_export]
macro_rules! error {
    ($($arg:tt)*) => {
        $crate::logger::log($crate::logger::Level::Error, module_path!(), format_args!($($arg)*))
    };
}

/// Log at WARN level; see [`error!`].
#[macro_export]
macro_rules! warn {
    ($($arg:tt)*) => {
        $crate::logger::log($crate::logger::Level::Warn, module_path!(), format_args!($($arg)*))
    };
}

/// Log at INFO level — the progress-output replacement for raw
/// `eprintln!` (the default `OM_LOG` level shows it); see [`error!`].
#[macro_export]
macro_rules! info {
    ($($arg:tt)*) => {
        $crate::logger::log($crate::logger::Level::Info, module_path!(), format_args!($($arg)*))
    };
}

/// Log at DEBUG level (hidden unless `OM_LOG=debug|trace`); see [`error!`].
#[macro_export]
macro_rules! debug {
    ($($arg:tt)*) => {
        $crate::logger::log($crate::logger::Level::Debug, module_path!(), format_args!($($arg)*))
    };
}

/// Serialises unit tests that toggle the global enable flag or drain the
/// global buffers, so they cannot steal each other's records.
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    #[test]
    fn set_enabled_roundtrip() {
        let _g = super::test_lock();
        let prev = super::set_enabled(true);
        assert!(super::enabled());
        super::set_enabled(false);
        assert!(!super::enabled());
        super::set_enabled(prev);
    }
}
