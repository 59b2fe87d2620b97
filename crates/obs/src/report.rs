//! Run-artifact summarizer behind `cargo obs-report`.
//!
//! Reads a run directory's `events.jsonl`, validates every line against
//! the sink schema ([`validate_events`] — the same check the schema test
//! applies), and renders a text summary: top spans by **self-time**
//! (duration minus time spent in nested spans on the same thread),
//! per-epoch loss-component curves as sparklines, histogram quantile
//! tables, counters/gauges, and per-thread busy time.

use std::collections::BTreeMap;
use std::path::Path;

use crate::json::Json;
use crate::metrics::{quantile_of, HIST_BUCKETS};
use crate::sink::SCHEMA_VERSION;

/// Counts of what a validated event stream contained.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct EventStats {
    /// Total JSONL lines.
    pub lines: usize,
    /// `span` records.
    pub spans: usize,
    /// `counter` + `gauge` + `hist` records.
    pub metrics: usize,
    /// `log` records.
    pub logs: usize,
    /// Caller-emitted records (everything else except the header).
    pub events: usize,
}

fn require<'a>(obj: &'a Json, key: &str, line_no: usize) -> Result<&'a Json, String> {
    obj.get(key)
        .ok_or_else(|| format!("line {line_no}: missing required field `{key}`"))
}

fn require_str(obj: &Json, key: &str, line_no: usize) -> Result<(), String> {
    require(obj, key, line_no)?
        .as_str()
        .map(|_| ())
        .ok_or_else(|| format!("line {line_no}: field `{key}` must be a string"))
}

fn require_u64(obj: &Json, key: &str, line_no: usize) -> Result<(), String> {
    require(obj, key, line_no)?
        .as_u64()
        .map(|_| ())
        .ok_or_else(|| format!("line {line_no}: field `{key}` must be a non-negative integer"))
}

fn require_num(obj: &Json, key: &str, line_no: usize) -> Result<(), String> {
    require(obj, key, line_no)?
        .as_f64()
        .map(|_| ())
        .ok_or_else(|| format!("line {line_no}: field `{key}` must be numeric"))
}

/// Validate a whole `events.jsonl` text against the sink schema: every
/// line is a JSON object carrying `kind` (string) and `t` (integer ns);
/// the first line is the `run` header; sink-reserved kinds carry their
/// required fields. Returns per-kind counts on success, the first
/// violation otherwise.
pub fn validate_events(text: &str) -> Result<EventStats, String> {
    let mut stats = EventStats::default();
    for (i, line) in text.lines().enumerate() {
        let no = i + 1;
        if line.trim().is_empty() {
            return Err(format!("line {no}: empty line in JSONL stream"));
        }
        let obj = Json::parse(line).map_err(|e| format!("line {no}: {e}"))?;
        if !matches!(obj, Json::Obj(_)) {
            return Err(format!("line {no}: not a JSON object"));
        }
        require_str(&obj, "kind", no)?;
        require_u64(&obj, "t", no)?;
        let kind = obj.get("kind").and_then(Json::as_str).unwrap_or("");
        if i == 0 {
            if kind != "run" {
                return Err("line 1: stream must start with the `run` header".to_string());
            }
        } else if kind == "run" {
            return Err(format!("line {no}: duplicate `run` header"));
        }
        stats.lines += 1;
        match kind {
            "run" => {
                require_str(&obj, "name", no)?;
                let schema = require(&obj, "schema", no)?
                    .as_u64()
                    .ok_or_else(|| format!("line {no}: `schema` must be an integer"))?;
                if schema != SCHEMA_VERSION {
                    return Err(format!(
                        "line {no}: schema {schema} unsupported (expected {SCHEMA_VERSION})"
                    ));
                }
            }
            "span" => {
                require_str(&obj, "name", no)?;
                require_u64(&obj, "dur_ns", no)?;
                require_u64(&obj, "tid", no)?;
                stats.spans += 1;
            }
            "thread_busy" => {
                require_u64(&obj, "tid", no)?;
                require_u64(&obj, "busy_ns", no)?;
                stats.events += 1;
            }
            "counter" => {
                require_str(&obj, "name", no)?;
                require_u64(&obj, "value", no)?;
                stats.metrics += 1;
            }
            "gauge" => {
                require_str(&obj, "name", no)?;
                require_num(&obj, "value", no)?;
                stats.metrics += 1;
            }
            "hist" => {
                require_str(&obj, "name", no)?;
                require_u64(&obj, "count", no)?;
                require_u64(&obj, "sum", no)?;
                let buckets = require(&obj, "buckets", no)?
                    .as_arr()
                    .ok_or_else(|| format!("line {no}: `buckets` must be an array"))?;
                let mut in_buckets = 0u64;
                for b in buckets {
                    let pair = b.as_arr().unwrap_or(&[]);
                    let ok = pair.len() == 2
                        && pair[0].as_u64().is_some_and(|i| (i as usize) < HIST_BUCKETS)
                        && pair[1].as_u64().is_some();
                    if !ok {
                        return Err(format!(
                            "line {no}: histogram buckets must be [index,count] pairs"
                        ));
                    }
                    in_buckets += pair[1].as_u64().unwrap_or(0);
                }
                let count = obj.get("count").and_then(Json::as_u64).unwrap_or(0);
                if count != in_buckets {
                    return Err(format!(
                        "line {no}: histogram count {count} != {in_buckets} samples in its buckets"
                    ));
                }
                stats.metrics += 1;
            }
            "log" => {
                require_str(&obj, "level", no)?;
                require_str(&obj, "msg", no)?;
                stats.logs += 1;
            }
            _ => stats.events += 1,
        }
    }
    if stats.lines == 0 {
        return Err("empty event stream".to_string());
    }
    Ok(stats)
}

#[derive(Default, Clone, Copy)]
struct SpanAgg {
    count: u64,
    total_ns: u64,
    self_ns: u64,
}

struct ParsedSpan {
    name: String,
    t0: u64,
    dur: u64,
}

/// Aggregate spans by name with self-time: per thread, sort by start
/// (ties: longer first, so enclosing spans precede their children) and
/// attribute each span's duration to itself minus its direct children.
fn aggregate_spans(by_tid: BTreeMap<u64, Vec<ParsedSpan>>) -> BTreeMap<String, SpanAgg> {
    let mut agg: BTreeMap<String, SpanAgg> = BTreeMap::new();
    for (_tid, mut spans) in by_tid {
        spans.sort_by(|a, b| a.t0.cmp(&b.t0).then(b.dur.cmp(&a.dur)));
        // Stack of (end_ns, child_ns_so_far, index into `order`).
        let mut stack: Vec<(u64, u64, usize)> = Vec::new();
        let mut order: Vec<(String, u64, u64)> = Vec::new(); // (name, dur, child)
        for s in spans {
            let end = s.t0.saturating_add(s.dur);
            while let Some(&(top_end, child, idx)) = stack.last() {
                if top_end <= s.t0 {
                    order[idx].2 = child;
                    stack.pop();
                } else {
                    break;
                }
            }
            if let Some(top) = stack.last_mut() {
                top.1 += s.dur; // direct child time of the enclosing span
            }
            order.push((s.name, s.dur, 0));
            stack.push((end, 0, order.len() - 1));
        }
        while let Some((_, child, idx)) = stack.pop() {
            order[idx].2 = child;
        }
        for (name, dur, child) in order {
            let e = agg.entry(name).or_default();
            e.count += 1;
            e.total_ns += dur;
            e.self_ns += dur.saturating_sub(child);
        }
    }
    agg
}

/// Human duration: ns scaled to the first unit with < 4 integer digits.
pub fn fmt_ns(ns: u64) -> String {
    let ns = ns as f64;
    if ns < 1_000.0 {
        format!("{ns:.0}ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2}µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2}ms", ns / 1_000_000.0)
    } else {
        format!("{:.2}s", ns / 1_000_000_000.0)
    }
}

/// Unicode sparkline of a series (min..max normalised to 8 levels).
pub fn sparkline(values: &[f64]) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    if values.is_empty() {
        return String::new();
    }
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for &v in values {
        if v.is_finite() {
            lo = lo.min(v);
            hi = hi.max(v);
        }
    }
    if !lo.is_finite() || !hi.is_finite() {
        return "?".repeat(values.len());
    }
    let range = (hi - lo).max(f64::EPSILON);
    values
        .iter()
        .map(|&v| {
            if !v.is_finite() {
                return '?';
            }
            let idx = (((v - lo) / range) * 7.0).round().clamp(0.0, 7.0) as usize;
            BARS[idx]
        })
        .collect()
}

/// Summarize the run artifact in `dir` (must contain `events.jsonl`).
/// Validates the stream first, so a malformed artifact is an `Err`, not a
/// garbled report.
pub fn summarize(dir: &Path) -> Result<String, String> {
    let events_path = dir.join("events.jsonl");
    let text = std::fs::read_to_string(&events_path)
        .map_err(|e| format!("cannot read {}: {e}", events_path.display()))?;
    let stats = validate_events(&text)?;

    let mut run_name = String::from("?");
    let mut by_tid: BTreeMap<u64, Vec<ParsedSpan>> = BTreeMap::new();
    let mut epochs: Vec<(u64, BTreeMap<String, f64>)> = Vec::new();
    let mut counters: Vec<(String, u64)> = Vec::new();
    let mut gauges: Vec<(String, f64)> = Vec::new();
    let mut hists: Vec<(String, u64, u64, Vec<u64>)> = Vec::new();
    let mut busy: Vec<(u64, String, u64)> = Vec::new();
    let mut faults: Vec<(u64, String, u64)> = Vec::new();
    let mut t_max = 0u64;

    for line in text.lines() {
        let obj = Json::parse(line).expect("validated above");
        let kind = obj.get("kind").and_then(Json::as_str).unwrap_or("");
        let t = obj.get("t").and_then(Json::as_u64).unwrap_or(0);
        t_max = t_max.max(t);
        match kind {
            "run" => {
                run_name = obj.get("name").and_then(Json::as_str).unwrap_or("?").to_string();
            }
            "span" => {
                let tid = obj.get("tid").and_then(Json::as_u64).unwrap_or(0);
                by_tid.entry(tid).or_default().push(ParsedSpan {
                    name: obj.get("name").and_then(Json::as_str).unwrap_or("?").to_string(),
                    t0: t,
                    dur: obj.get("dur_ns").and_then(Json::as_u64).unwrap_or(0),
                });
                t_max = t_max.max(t + obj.get("dur_ns").and_then(Json::as_u64).unwrap_or(0));
            }
            "epoch" => {
                let mut fields = BTreeMap::new();
                if let Json::Obj(map) = &obj {
                    for (k, v) in map {
                        if let Some(n) = v.as_f64() {
                            fields.insert(k.clone(), n);
                        }
                    }
                }
                epochs.push((t, fields));
            }
            "counter" => counters.push((
                obj.get("name").and_then(Json::as_str).unwrap_or("?").to_string(),
                obj.get("value").and_then(Json::as_u64).unwrap_or(0),
            )),
            "gauge" => gauges.push((
                obj.get("name").and_then(Json::as_str).unwrap_or("?").to_string(),
                obj.get("value").and_then(Json::as_f64).unwrap_or(0.0),
            )),
            "hist" => {
                let mut buckets = vec![0u64; HIST_BUCKETS];
                for pair in obj.get("buckets").and_then(Json::as_arr).unwrap_or(&[]) {
                    let pair = pair.as_arr().unwrap_or(&[]);
                    if let (Some(i), Some(c)) = (pair[0].as_u64(), pair[1].as_u64()) {
                        buckets[i as usize] = c;
                    }
                }
                hists.push((
                    obj.get("name").and_then(Json::as_str).unwrap_or("?").to_string(),
                    obj.get("count").and_then(Json::as_u64).unwrap_or(0),
                    obj.get("sum").and_then(Json::as_u64).unwrap_or(0),
                    buckets,
                ));
            }
            "fault" => faults.push((
                t,
                obj.get("site").and_then(Json::as_str).unwrap_or("?").to_string(),
                obj.get("nth").and_then(Json::as_u64).unwrap_or(0),
            )),
            "thread_busy" => busy.push((
                obj.get("tid").and_then(Json::as_u64).unwrap_or(0),
                obj.get("thread").and_then(Json::as_str).unwrap_or("?").to_string(),
                obj.get("busy_ns").and_then(Json::as_u64).unwrap_or(0),
            )),
            _ => {}
        }
    }

    let mut out = String::new();
    out.push_str(&format!(
        "== obs-report: run `{run_name}` ==\n{} lines: {} spans, {} metrics, {} logs, {} events\n",
        stats.lines, stats.spans, stats.metrics, stats.logs, stats.events
    ));

    // ---- top spans by self-time ----
    let agg = aggregate_spans(by_tid);
    let mut ranked: Vec<(&String, &SpanAgg)> = agg.iter().collect();
    ranked.sort_by_key(|(_, a)| std::cmp::Reverse(a.self_ns));
    if !ranked.is_empty() {
        out.push_str("\n-- top spans by self-time --\n");
        let w = ranked
            .iter()
            .take(10)
            .map(|(n, _)| n.len())
            .max()
            .unwrap_or(4)
            .max(4);
        out.push_str(&format!(
            "{:<w$}  {:>8}  {:>10}  {:>10}  {:>10}\n",
            "span", "count", "self", "total", "mean"
        ));
        for (name, a) in ranked.iter().take(10) {
            out.push_str(&format!(
                "{name:<w$}  {:>8}  {:>10}  {:>10}  {:>10}\n",
                a.count,
                fmt_ns(a.self_ns),
                fmt_ns(a.total_ns),
                fmt_ns(a.total_ns / a.count.max(1)),
            ));
        }
    }

    // ---- loss curves ----
    epochs.sort_by_key(|(t, _)| *t);
    if !epochs.is_empty() {
        out.push_str(&format!("\n-- loss curves ({} epochs) --\n", epochs.len()));
        for key in ["total", "rating", "scl", "domain", "valid_rmse", "grad_norm", "update_norm"] {
            let series: Vec<f64> = epochs
                .iter()
                .filter_map(|(_, f)| f.get(key).copied())
                .collect();
            if series.is_empty() {
                continue;
            }
            let first = series.first().copied().unwrap_or(0.0);
            let last = series.last().copied().unwrap_or(0.0);
            out.push_str(&format!(
                "{key:<12} {}  {first:.4} → {last:.4}\n",
                sparkline(&series)
            ));
        }
    }

    // ---- histograms ----
    if !hists.is_empty() {
        out.push_str("\n-- histograms (quantile estimates) --\n");
        let w = hists.iter().map(|(n, ..)| n.len()).max().unwrap_or(4).max(4);
        out.push_str(&format!(
            "{:<w$}  {:>10}  {:>10}  {:>10}  {:>10}  {:>10}\n",
            "name", "count", "mean", "p50", "p95", "p99"
        ));
        for (name, count, sum, buckets) in &hists {
            // Histograms record dimensionless u64 samples; only render a
            // time unit when the name says so.
            let is_ns = name.ends_with("_ns") || name.ends_with("latency");
            let fmt = |v: u64| if is_ns { fmt_ns(v) } else { v.to_string() };
            let q = |q: f64| quantile_of(buckets, q).map(fmt).unwrap_or_default();
            out.push_str(&format!(
                "{name:<w$}  {count:>10}  {:>10}  {:>10}  {:>10}  {:>10}\n",
                fmt(sum / count.max(&1)),
                q(0.5),
                q(0.95),
                q(0.99),
            ));
        }
    }

    // ---- serving stage attribution ----
    // When the front-end's end-to-end histogram is in the stream, break
    // the request lifecycle down by stage. `share` is total stage ns over
    // total e2e ns — a rough attribution: queue/batch-wait/e2e are
    // per-request series while score/merge are per-flush, so shares need
    // not sum to 100.
    let find_hist = |name: &str| hists.iter().find(|(n, ..)| n == name);
    if let Some((_, e2e_count, e2e_sum, _)) = find_hist("serve.e2e") {
        if *e2e_count > 0 && *e2e_sum > 0 {
            out.push_str("\n-- serving stage attribution --\n");
            out.push_str(&format!(
                "{:<18}  {:>10}  {:>10}  {:>10}  {:>10}  {:>7}\n",
                "stage", "count", "mean", "p50", "p99", "share"
            ));
            for stage in [
                "serve.queue_wait",
                "serve.batch_wait",
                "serve.score",
                "serve.merge",
                "serve.e2e",
            ] {
                let Some((name, count, sum, buckets)) = find_hist(stage) else {
                    continue;
                };
                if *count == 0 {
                    continue;
                }
                let q = |q: f64| quantile_of(buckets, q).map(fmt_ns).unwrap_or_default();
                out.push_str(&format!(
                    "{name:<18}  {count:>10}  {:>10}  {:>10}  {:>10}  {:>6.1}%\n",
                    fmt_ns(sum / count),
                    q(0.5),
                    q(0.99),
                    100.0 * *sum as f64 / *e2e_sum as f64,
                ));
            }
        }
    }

    // ---- counters & gauges ----
    if !counters.is_empty() || !gauges.is_empty() {
        out.push_str("\n-- counters & gauges --\n");
        for (name, v) in &counters {
            out.push_str(&format!("{name} = {v}\n"));
        }
        for (name, v) in &gauges {
            out.push_str(&format!("{name} = {v}\n"));
        }
    }

    // ---- injected faults ----
    if !faults.is_empty() {
        out.push_str("\n-- injected faults --\n");
        for (t, site, nth) in &faults {
            out.push_str(&format!(
                "killed at `{site}` (hit {nth}) after {}\n",
                fmt_ns(*t)
            ));
        }
    }

    // ---- per-thread busy time ----
    if !busy.is_empty() {
        out.push_str(&format!(
            "\n-- worker busy time (run span {}) --\n",
            fmt_ns(t_max)
        ));
        busy.sort_by_key(|(tid, ..)| *tid);
        for (tid, label, ns) in &busy {
            let pct = if t_max > 0 {
                100.0 * *ns as f64 / t_max as f64
            } else {
                0.0
            };
            out.push_str(&format!("tid {tid} ({label}): {} busy ({pct:.1}%)\n", fmt_ns(*ns)));
        }
    }

    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_accepts_a_minimal_stream() {
        let text = concat!(
            "{\"kind\":\"run\",\"t\":0,\"name\":\"x\",\"schema\":1}\n",
            "{\"kind\":\"span\",\"t\":10,\"name\":\"a\",\"dur_ns\":5,\"tid\":0}\n",
            "{\"kind\":\"epoch\",\"t\":20,\"total\":1.5}\n",
        );
        let s = validate_events(text).unwrap();
        assert_eq!(s.lines, 3);
        assert_eq!(s.spans, 1);
        assert_eq!(s.events, 1);
    }

    #[test]
    fn validate_rejects_missing_header_and_fields() {
        assert!(validate_events("{\"kind\":\"span\",\"t\":0}\n").is_err());
        let no_dur = concat!(
            "{\"kind\":\"run\",\"t\":0,\"name\":\"x\",\"schema\":1}\n",
            "{\"kind\":\"span\",\"t\":10,\"name\":\"a\",\"tid\":0}\n",
        );
        let err = validate_events(no_dur).unwrap_err();
        assert!(err.contains("dur_ns"), "{err}");
        let torn_hist = concat!(
            "{\"kind\":\"run\",\"t\":0,\"name\":\"x\",\"schema\":1}\n",
            "{\"kind\":\"hist\",\"t\":10,\"name\":\"h\",\"count\":3,\"sum\":9,\"buckets\":[[2,1],[3,1]]}\n",
        );
        let err = validate_events(torn_hist).unwrap_err();
        assert!(err.contains("count 3"), "{err}");
        assert!(validate_events(&torn_hist.replace("\"count\":3", "\"count\":2")).is_ok());
        let bad_schema = "{\"kind\":\"run\",\"t\":0,\"name\":\"x\",\"schema\":99}\n";
        assert!(validate_events(bad_schema).unwrap_err().contains("schema"));
        assert!(validate_events("not json\n").is_err());
        assert!(validate_events("").is_err());
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        let mut by_tid = BTreeMap::new();
        by_tid.insert(
            0u64,
            vec![
                ParsedSpan { name: "outer".into(), t0: 0, dur: 100 },
                ParsedSpan { name: "inner".into(), t0: 10, dur: 30 },
                ParsedSpan { name: "inner".into(), t0: 50, dur: 20 },
            ],
        );
        let agg = aggregate_spans(by_tid);
        assert_eq!(agg["outer"].self_ns, 50, "100 - 30 - 20");
        assert_eq!(agg["outer"].total_ns, 100);
        assert_eq!(agg["inner"].count, 2);
        assert_eq!(agg["inner"].self_ns, 50);
    }

    #[test]
    fn sibling_spans_do_not_nest() {
        let mut by_tid = BTreeMap::new();
        by_tid.insert(
            0u64,
            vec![
                ParsedSpan { name: "a".into(), t0: 0, dur: 10 },
                ParsedSpan { name: "b".into(), t0: 10, dur: 10 },
            ],
        );
        let agg = aggregate_spans(by_tid);
        assert_eq!(agg["a"].self_ns, 10);
        assert_eq!(agg["b"].self_ns, 10);
    }

    #[test]
    fn summarize_renders_injected_faults() {
        let dir = std::env::temp_dir().join(format!("om-obs-report-fault-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let text = concat!(
            "{\"kind\":\"run\",\"t\":0,\"name\":\"chaos\",\"schema\":1}\n",
            "{\"kind\":\"fault\",\"t\":1500,\"site\":\"ckpt-save\",\"nth\":2}\n",
        );
        std::fs::write(dir.join("events.jsonl"), text).unwrap();
        let report = summarize(&dir).unwrap();
        assert!(report.contains("injected faults"), "{report}");
        assert!(report.contains("ckpt-save"), "{report}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn summarize_renders_stage_attribution() {
        let dir = std::env::temp_dir().join(format!("om-obs-report-stages-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let text = concat!(
            "{\"kind\":\"run\",\"t\":0,\"name\":\"serve\",\"schema\":1}\n",
            "{\"kind\":\"hist\",\"t\":10,\"name\":\"serve.e2e\",\"count\":2,\"sum\":2000,\
             \"buckets\":[[10,2]]}\n",
            "{\"kind\":\"hist\",\"t\":10,\"name\":\"serve.queue_wait\",\"count\":2,\"sum\":500,\
             \"buckets\":[[8,2]]}\n",
        );
        std::fs::write(dir.join("events.jsonl"), text).unwrap();
        let report = summarize(&dir).unwrap();
        assert!(report.contains("serving stage attribution"), "{report}");
        assert!(report.contains("serve.queue_wait"), "{report}");
        assert!(report.contains("25.0%"), "{report}");
        // Without the e2e series there is no attribution to render.
        let no_e2e = concat!(
            "{\"kind\":\"run\",\"t\":0,\"name\":\"serve\",\"schema\":1}\n",
            "{\"kind\":\"hist\",\"t\":10,\"name\":\"serve.queue_wait\",\"count\":2,\"sum\":500,\
             \"buckets\":[[8,2]]}\n",
        );
        std::fs::write(dir.join("events.jsonl"), no_e2e).unwrap();
        let report = summarize(&dir).unwrap();
        assert!(!report.contains("serving stage attribution"), "{report}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sparkline_spans_the_range() {
        let s = sparkline(&[0.0, 1.0, 0.5]);
        assert_eq!(s.chars().count(), 3);
        assert!(s.starts_with('▁'));
        assert!(s.contains('█'));
    }

    #[test]
    fn fmt_ns_scales() {
        assert_eq!(fmt_ns(999), "999ns");
        assert_eq!(fmt_ns(1_500), "1.50µs");
        assert_eq!(fmt_ns(2_000_000), "2.00ms");
        assert_eq!(fmt_ns(3_000_000_000), "3.00s");
    }
}
