//! Event stream, run lifecycle and the two file sinks.
//!
//! Everything recorded while observability is enabled — [`emit`]ted events
//! and completed spans — accumulates in process-global buffers. A *run*
//! gives those buffers a destination: [`run_begin`] names it (first caller
//! wins, so the table binary that wraps several `Trainer::fit` calls owns
//! one artifact), [`run_finish`] drains every buffer, takes the metrics
//! window since the previous run finished ([`metrics::Snapshot::since`];
//! the registry itself never resets) and writes three files under
//! `<out_root>/<run>/`:
//!
//! * `events.jsonl` — one JSON object per line; every line has `"kind"`
//!   and `"t"` (ns since the process anchor). Kinds: `run`, `log`, `span`,
//!   `thread_busy`, `counter`, `gauge`, `hist`, plus the free-form kinds
//!   callers emit (`epoch`, `batch`, `trial`, …). This is the schema the
//!   round-trip test and `obs-report` validate.
//! * `trace.json` — the same spans in Chrome trace-event format: open
//!   `chrome://tracing` (or Perfetto) and load the file.
//! * `manifest.json` — run name, record counts and the key/value pairs
//!   callers contributed via [`manifest_set`].

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use crate::json::{escape, number, Json};
use crate::{clock, metrics, trace};

/// Schema version stamped into the `run` header line and the manifest.
pub const SCHEMA_VERSION: u64 = 1;

/// A field value on an emitted event.
#[derive(Debug, Clone)]
pub enum Value {
    /// Text.
    Str(String),
    /// Floating point (losses, norms, rates).
    F64(f64),
    /// Unsigned integer (counts, indices, nanoseconds).
    U64(u64),
    /// Boolean flag.
    Bool(bool),
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::Str(s.to_string())
    }
}
impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::Str(s)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::F64(v)
    }
}
impl From<f32> for Value {
    fn from(v: f32) -> Value {
        Value::F64(v as f64)
    }
}
impl From<u64> for Value {
    fn from(v: u64) -> Value {
        Value::U64(v)
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Value {
        Value::U64(v as u64)
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Value {
        Value::U64(v as u64)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}

impl Value {
    fn to_json(&self) -> Json {
        match self {
            Value::Str(s) => Json::Str(s.clone()),
            Value::F64(v) => Json::Num(*v),
            Value::U64(v) => Json::Num(*v as f64),
            Value::Bool(b) => Json::Bool(*b),
        }
    }
}

struct Event {
    t_ns: u64,
    kind: &'static str,
    fields: Vec<(&'static str, Value)>,
}

static EVENTS: Mutex<Vec<Event>> = Mutex::new(Vec::new());
static RUN: Mutex<Option<String>> = Mutex::new(None);
static RUN_DIR: Mutex<Option<PathBuf>> = Mutex::new(None);
static OUT_ROOT: Mutex<Option<PathBuf>> = Mutex::new(None);
static MANIFEST: Mutex<Option<BTreeMap<String, Value>>> = Mutex::new(None);
/// The registry as the previous [`run_finish`] read it (empty at process
/// start): each run reports the window since then.
static METRICS_BASELINE: Mutex<metrics::Snapshot> = Mutex::new(metrics::Snapshot::new());

fn lock<T>(m: &'static Mutex<T>) -> std::sync::MutexGuard<'static, T> {
    // A panic while holding one of these only interrupts bookkeeping
    // appends; the data is still structurally sound, so poisoning is
    // deliberately ignored.
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Append one event to the stream. No-op (one branch) when observability
/// is disabled. `kind` must not be one of the sink-reserved kinds and
/// field names must avoid the reserved keys `t` and `kind`.
pub fn emit(kind: &'static str, fields: &[(&'static str, Value)]) {
    if !crate::enabled() {
        return;
    }
    debug_assert!(
        fields.iter().all(|(k, _)| *k != "t" && *k != "kind"),
        "emit: field names `t` and `kind` are reserved"
    );
    lock(&EVENTS).push(Event {
        t_ns: clock::now_ns(),
        kind,
        fields: fields.to_vec(),
    });
}

/// Record a key/value pair into the active run's `manifest.json` (config
/// knobs, seeds, dataset names). Last write per key wins. No-op when
/// observability is disabled.
pub fn manifest_set(key: &str, value: Value) {
    if !crate::enabled() {
        return;
    }
    lock(&MANIFEST)
        .get_or_insert_with(BTreeMap::new)
        .insert(key.to_string(), value);
}

/// Root directory the sinks write under: the last [`set_out_root`] value,
/// else `OM_OBS_DIR`, else `results/obs`.
pub fn out_root() -> PathBuf {
    if let Some(p) = lock(&OUT_ROOT).clone() {
        return p;
    }
    match std::env::var("OM_OBS_DIR") {
        Ok(p) if !p.is_empty() => PathBuf::from(p),
        _ => PathBuf::from("results/obs"),
    }
}

/// Override the sink root (tests point this at a temp dir). Returns the
/// previous override, if any.
pub fn set_out_root(path: impl Into<PathBuf>) -> Option<PathBuf> {
    lock(&OUT_ROOT).replace(path.into())
}

/// Is a run currently open?
pub fn run_active() -> bool {
    lock(&RUN).is_some()
}

/// The directory mid-run artifacts (e.g. the flight recorder's
/// `flightrec.jsonl`) should land in. With a run active this resolves —
/// and **pins** — the run's output directory, so a dump written now and
/// the `events.jsonl` written by [`run_finish`] later end up side by
/// side. With no run active, a fresh unique directory named `fallback`
/// under [`out_root`].
pub(crate) fn artifact_dir(fallback: &str) -> PathBuf {
    let run_name = lock(&RUN).clone();
    match run_name {
        Some(name) => {
            let mut pinned = lock(&RUN_DIR);
            if let Some(dir) = pinned.clone() {
                return dir;
            }
            let dir = unique_dir(&out_root(), &name);
            // Reserve it on disk so a concurrent `unique_dir` probe can
            // never hand the same name to someone else.
            let _ = std::fs::create_dir_all(&dir);
            *pinned = Some(dir.clone());
            dir
        }
        None => unique_dir(&out_root(), fallback),
    }
}

/// Open a run named `name`. Returns `true` if this call took ownership
/// (observability enabled and no run was active); the owner must
/// eventually call [`run_finish`] — or hold the [`RunScope`] from
/// [`run_scope`], which does it on drop.
pub fn run_begin(name: &str) -> bool {
    if !crate::enabled() {
        return false;
    }
    let mut run = lock(&RUN);
    if run.is_some() {
        return false;
    }
    *run = Some(name.to_string());
    drop(run);
    emit("run_begin", &[("name", Value::from(name))]);
    true
}

/// RAII run ownership: see [`run_scope`].
pub struct RunScope {
    owned: bool,
}

impl RunScope {
    /// Did this scope open the run (vs. joining an already-active one)?
    pub fn owns(&self) -> bool {
        self.owned
    }
}

impl Drop for RunScope {
    fn drop(&mut self) {
        if self.owned {
            let _ = run_finish();
        }
    }
}

/// Open a run if none is active; the returned guard finishes the run when
/// dropped **iff** it took ownership. Inner scopes (a `Trainer::fit`
/// inside a table binary) become no-ops and feed the outer run's stream.
pub fn run_scope(name: &str) -> RunScope {
    RunScope {
        owned: run_begin(name),
    }
}

/// Close the active run: drain every buffer (events, spans), take the
/// metrics window since the previous run finished, and write
/// `events.jsonl`, `trace.json` and `manifest.json` under
/// `<out_root>/<run>/`. Returns the run directory, or `None` when no run
/// was active or the filesystem refused (a warning is printed; training
/// results are never affected by sink failures).
pub fn run_finish() -> Option<PathBuf> {
    let name = lock(&RUN).take()?;
    let t_end = clock::now_ns();
    let events = std::mem::take(&mut *lock(&EVENTS));
    let threads = trace::drain();
    let metric_window = {
        let mut baseline = lock(&METRICS_BASELINE);
        let now = metrics::snapshot();
        let window = now.since(&baseline);
        *baseline = now;
        window
    };
    let meta = lock(&MANIFEST).take().unwrap_or_default();

    // Reuse the directory a mid-run artifact dump already pinned, so the
    // flight recorder and the event stream describe the same run dir.
    let dir = lock(&RUN_DIR)
        .take()
        .unwrap_or_else(|| unique_dir(&out_root(), &name));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("[WARN  om_obs] cannot create {}: {e}", dir.display());
        return None;
    }

    let mut jsonl = String::new();
    // Header line first, so any consumer can identify the stream.
    jsonl.push_str(&format!(
        "{{\"kind\":\"run\",\"t\":{t_end},\"name\":{},\"schema\":{SCHEMA_VERSION}}}\n",
        escape(&name)
    ));
    let mut n_spans = 0usize;
    for ev in &events {
        jsonl.push_str(&event_line(ev));
    }
    for th in &threads {
        n_spans += th.spans.len();
        for s in &th.spans {
            jsonl.push_str(&format!(
                "{{\"kind\":\"span\",\"t\":{},\"name\":{},\"dur_ns\":{},\"tid\":{},\"thread\":{}}}\n",
                s.t0_ns,
                escape(s.name),
                s.dur_ns,
                th.tid,
                escape(&th.label)
            ));
        }
        if th.busy_ns > 0 {
            jsonl.push_str(&format!(
                "{{\"kind\":\"thread_busy\",\"t\":{t_end},\"tid\":{},\"thread\":{},\"busy_ns\":{}}}\n",
                th.tid,
                escape(&th.label),
                th.busy_ns
            ));
        }
    }
    for (name, value) in &metric_window.metrics {
        jsonl.push_str(&metric_line(name, value, t_end));
    }

    let trace_json = chrome_trace(&threads);
    let manifest = manifest_json(&name, &meta, events.len(), n_spans, threads.len(), t_end);

    for (file, text) in [
        ("events.jsonl", jsonl),
        ("trace.json", trace_json),
        ("manifest.json", manifest),
    ] {
        if let Err(e) = write_file(&dir.join(file), &text) {
            eprintln!("[WARN  om_obs] cannot write {file}: {e}");
            return None;
        }
    }
    Some(dir)
}

fn write_file(path: &Path, text: &str) -> std::io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    f.write_all(text.as_bytes())
}

/// First non-existing directory of `name`, `name-2`, `name-3`, … so
/// successive runs in one process never clobber each other's artifacts.
fn unique_dir(root: &Path, name: &str) -> PathBuf {
    let first = root.join(name);
    if !first.exists() {
        return first;
    }
    for i in 2..1000 {
        let cand = root.join(format!("{name}-{i}"));
        if !cand.exists() {
            return cand;
        }
    }
    first
}

fn event_line(ev: &Event) -> String {
    let mut line = format!("{{\"kind\":{},\"t\":{}", escape(ev.kind), ev.t_ns);
    for (k, v) in &ev.fields {
        line.push_str(&format!(",{}:{}", escape(k), v.to_json()));
    }
    line.push_str("}\n");
    line
}

fn metric_line(name: &str, value: &metrics::MetricValue, t_end: u64) -> String {
    let name = escape(name);
    match value {
        metrics::MetricValue::Counter(v) => {
            format!("{{\"kind\":\"counter\",\"t\":{t_end},\"name\":{name},\"value\":{v}}}\n")
        }
        metrics::MetricValue::Gauge(v) => {
            format!("{{\"kind\":\"gauge\",\"t\":{t_end},\"name\":{name},\"value\":{v}}}\n")
        }
        metrics::MetricValue::Histogram(h) => {
            let pairs: Vec<String> = h
                .buckets
                .iter()
                .enumerate()
                .filter(|(_, &c)| c > 0)
                .map(|(i, c)| format!("[{i},{c}]"))
                .collect();
            format!(
                "{{\"kind\":\"hist\",\"t\":{t_end},\"name\":{name},\"count\":{},\"sum\":{},\"buckets\":[{}]}}\n",
                h.count,
                h.sum,
                pairs.join(",")
            )
        }
    }
}

/// Chrome trace-event JSON: one `X` (complete) event per span, plus `M`
/// metadata naming each thread. Timestamps are microseconds (Chrome's
/// unit) relative to the process anchor.
fn chrome_trace(threads: &[trace::ThreadSpans]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    let mut first = true;
    let mut push = |s: String, first: &mut bool| {
        if !*first {
            out.push_str(",\n");
        }
        *first = false;
        out.push_str(&s);
    };
    for th in threads {
        push(
            format!(
                "{{\"ph\":\"M\",\"pid\":1,\"tid\":{},\"name\":\"thread_name\",\"args\":{{\"name\":{}}}}}",
                th.tid,
                escape(&th.label)
            ),
            &mut first,
        );
        for s in &th.spans {
            push(
                format!(
                    "{{\"ph\":\"X\",\"pid\":1,\"tid\":{},\"name\":{},\"ts\":{},\"dur\":{}}}",
                    th.tid,
                    escape(s.name),
                    number(s.t0_ns as f64 / 1000.0),
                    number(s.dur_ns as f64 / 1000.0)
                ),
                &mut first,
            );
        }
    }
    out.push_str("\n]}\n");
    out
}

fn manifest_json(
    name: &str,
    meta: &BTreeMap<String, Value>,
    n_events: usize,
    n_spans: usize,
    n_threads: usize,
    t_end: u64,
) -> String {
    let mut obj = BTreeMap::new();
    obj.insert("run".to_string(), Json::Str(name.to_string()));
    obj.insert("schema".to_string(), Json::Num(SCHEMA_VERSION as f64));
    obj.insert("events".to_string(), Json::Num(n_events as f64));
    obj.insert("spans".to_string(), Json::Num(n_spans as f64));
    obj.insert("threads".to_string(), Json::Num(n_threads as f64));
    obj.insert("finished_t_ns".to_string(), Json::Num(t_end as f64));
    let meta_obj: BTreeMap<String, Json> = meta
        .iter()
        .map(|(k, v)| (k.clone(), v.to_json()))
        .collect();
    obj.insert("meta".to_string(), Json::Obj(meta_obj));
    format!("{}\n", Json::Obj(obj))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_sink_is_inert() {
        let _g = crate::test_lock();
        let prev = crate::set_enabled(false);
        emit("noop", &[("x", Value::from(1u64))]);
        assert!(!run_begin("nope"));
        assert!(run_finish().is_none());
        crate::set_enabled(prev);
    }

    #[test]
    fn run_lifecycle_writes_all_three_files() {
        let _g = crate::test_lock();
        let prev = crate::set_enabled(true);
        let dir = std::env::temp_dir().join(format!("om-obs-sink-{}", std::process::id()));
        let prev_root = set_out_root(&dir);
        {
            let scope = run_scope("unit");
            assert!(scope.owns());
            assert!(run_active());
            let inner = run_scope("inner");
            assert!(!inner.owns(), "second scope must not steal the run");
            emit("thing", &[("value", Value::from(0.5f64)), ("n", Value::from(3usize))]);
            manifest_set("seed", Value::from(42u64));
            let _s = crate::span("sink.test");
        }
        assert!(!run_active(), "scope drop must close the run");
        let run_dir = dir.join("unit");
        for f in ["events.jsonl", "trace.json", "manifest.json"] {
            assert!(run_dir.join(f).is_file(), "missing {f}");
        }
        let manifest =
            Json::parse(&std::fs::read_to_string(run_dir.join("manifest.json")).unwrap()).unwrap();
        assert_eq!(manifest.get("run").and_then(Json::as_str), Some("unit"));
        assert_eq!(
            manifest.get("meta").and_then(|m| m.get("seed")).and_then(Json::as_u64),
            Some(42)
        );
        crate::set_enabled(prev);
        match prev_root {
            Some(p) => {
                set_out_root(p);
            }
            None => {
                *super::lock(&super::OUT_ROOT) = None;
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn successive_runs_get_unique_dirs() {
        let root = std::env::temp_dir().join(format!("om-obs-uniq-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(root.join("r")).unwrap();
        assert_eq!(unique_dir(&root, "r"), root.join("r-2"));
        let _ = std::fs::remove_dir_all(&root);
    }
}
