//! The dependency-free stats endpoint: a hand-rolled HTTP/1.0 server over
//! `std::net::TcpListener` exposing the metrics registry while the
//! process runs.
//!
//! Three routes, all `GET`, all `Connection: close`:
//!
//! | route | body |
//! |---|---|
//! | `/metrics` | Prometheus text exposition of [`crate::metrics::snapshot`] ([`render_prometheus`]) |
//! | `/healthz` | readiness: every registered [`set_health`] probe, `200` when all pass, `503` naming the failures |
//! | `/statz` | the same snapshot as one JSON object ([`render_statz`]) |
//!
//! Gated by `OM_OBS_ADDR` ([`spawn_from_env`]): unset means no socket is
//! ever opened; `127.0.0.1:0` binds an ephemeral loopback port (the CI
//! smoke job's choice). The accept loop runs on one named thread and
//! handles connections serially — a scrape endpoint, not a serving path.
//!
//! **Threat model / scope**: this endpoint is an operator convenience on
//! the level of a debug port. It speaks minimal HTTP/1.0, supports no
//! TLS, no authentication and no request bodies, caps request headers at
//! [`MAX_REQUEST_BYTES`], enforces a read deadline so a stalled client
//! cannot wedge the acceptor, and should only ever be bound to loopback
//! or a trusted network. It can read metric values and nothing else —
//! there is no route that mutates state.
//!
//! This file is part of the om-lint `panic-freedom` policy: a malformed
//! request must degrade to a `400`, never take the endpoint (let alone
//! the process) down.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Duration;

use crate::json::Json;
use crate::metrics::{self, bucket_bounds, MetricValue, Snapshot};

/// Hard cap on the bytes read from one request (headers included).
pub const MAX_REQUEST_BYTES: usize = 8 * 1024;

/// Read deadline per connection; a client that stalls longer is dropped.
const READ_TIMEOUT: Duration = Duration::from_secs(2);

/// A named readiness probe: `true` means healthy.
pub type HealthProbe = Box<dyn Fn() -> bool + Send + Sync>;

static HEALTH: OnceLock<Mutex<BTreeMap<String, HealthProbe>>> = OnceLock::new();

fn health_registry() -> &'static Mutex<BTreeMap<String, HealthProbe>> {
    HEALTH.get_or_init(|| Mutex::new(BTreeMap::new()))
}

fn lock_health() -> MutexGuard<'static, BTreeMap<String, HealthProbe>> {
    // Probes are pure reads over atomics; poison carries no information.
    health_registry().lock().unwrap_or_else(|e| e.into_inner())
}

/// Register (or replace) the readiness probe `name`. Probes must be cheap
/// and non-blocking — they run inline on the endpoint thread per
/// `/healthz` request.
pub fn set_health(name: &str, probe: HealthProbe) {
    lock_health().insert(name.to_string(), probe);
}

/// Remove the probe `name` (a shut-down front-end deregisters itself so
/// it stops failing readiness forever after).
pub fn clear_health(name: &str) {
    lock_health().remove(name);
}

/// Run every registered probe: `(all_healthy, per-probe results)` sorted
/// by name. No probes registered reads as healthy ("nothing claims to be
/// unready").
pub fn health_report() -> (bool, Vec<(String, bool)>) {
    let reg = lock_health();
    let results: Vec<(String, bool)> = reg.iter().map(|(n, p)| (n.clone(), p())).collect();
    let all = results.iter().all(|(_, ok)| *ok);
    (all, results)
}

/// The running stats endpoint. Dropping it (or calling
/// [`StatsServer::shutdown`]) stops the accept loop and joins the thread.
pub struct StatsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl StatsServer {
    /// Bind `addr` (e.g. `127.0.0.1:0`) and start the accept loop on a
    /// named thread. Errors are the bind/spawn errors only; everything
    /// after is handled per-connection.
    // om-lint: allow(thread-spawn) — constructor of the endpoint's one
    // acceptor thread (the marked Builder::spawn below).
    pub fn spawn(addr: &str) -> std::io::Result<StatsServer> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = stop.clone();
        let thread = std::thread::Builder::new()
            .name("om-obs-http".into())
            // om-lint: allow(thread-spawn) — the stats endpoint needs its
            // own long-lived acceptor; it must not occupy the tensor pool.
            .spawn(move || {
                for conn in listener.incoming() {
                    if stop_flag.load(Ordering::Relaxed) {
                        break;
                    }
                    match conn {
                        Ok(stream) => handle_connection(stream),
                        Err(e) => {
                            crate::debug!("obs http: accept error: {e}");
                        }
                    }
                }
            })?;
        crate::info!("obs http: stats endpoint listening on {local}");
        Ok(StatsServer {
            addr: local,
            stop,
            thread: Some(thread),
        })
    }

    /// Spawn iff `OM_OBS_ADDR` is set and non-empty. A bind failure is a
    /// WARN and `None` — telemetry must never stop the server from
    /// serving.
    pub fn spawn_from_env() -> Option<StatsServer> {
        let addr = std::env::var("OM_OBS_ADDR").ok().filter(|a| !a.trim().is_empty())?;
        // om-lint: allow(thread-spawn) — delegates to the marked
        // constructor above.
        match StatsServer::spawn(addr.trim()) {
            Ok(server) => Some(server),
            Err(e) => {
                crate::warn!("obs http: cannot bind OM_OBS_ADDR={addr}: {e}");
                None
            }
        }
    }

    /// The bound address (resolves the `:0` ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, unblock the acceptor with a self-connection, and
    /// join the thread.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        let Some(thread) = self.thread.take() else {
            return;
        };
        self.stop.store(true, Ordering::Relaxed);
        // `incoming()` blocks in accept(2); a throwaway connection wakes
        // it so it can observe the stop flag.
        let _ = TcpStream::connect_timeout(&self.addr, READ_TIMEOUT);
        let _ = thread.join();
    }
}

impl Drop for StatsServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Read one request (up to the cap / deadline), answer it, close.
fn handle_connection(mut stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
    let _ = stream.set_write_timeout(Some(READ_TIMEOUT));
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                buf.extend_from_slice(chunk.get(..n).unwrap_or(&[]));
                if buf.windows(4).any(|w| w == b"\r\n\r\n") || buf.len() >= MAX_REQUEST_BYTES {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    let (status, content_type, body) = respond(&buf);
    let header = format!(
        "HTTP/1.0 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    let _ = stream.write_all(header.as_bytes());
    let _ = stream.write_all(body.as_bytes());
    let _ = stream.flush();
}

/// Route a raw request to `(status line, content type, body)`.
fn respond(raw: &[u8]) -> (&'static str, &'static str, String) {
    let Some((method, path)) = parse_request_line(raw) else {
        return ("400 Bad Request", "text/plain", "bad request\n".to_string());
    };
    if method != "GET" {
        return (
            "405 Method Not Allowed",
            "text/plain",
            "only GET is supported\n".to_string(),
        );
    }
    // Ignore any query string: `/metrics?x=y` is `/metrics`.
    let path = path.split('?').next().unwrap_or(path);
    match path {
        "/metrics" => (
            "200 OK",
            "text/plain; version=0.0.4",
            render_prometheus(&metrics::snapshot()),
        ),
        "/healthz" => {
            let (all, probes) = health_report();
            let mut body = String::new();
            for (name, ok) in &probes {
                body.push_str(&format!("{name} {}\n", if *ok { "ok" } else { "FAIL" }));
            }
            if all {
                body.push_str("ok\n");
                ("200 OK", "text/plain", body)
            } else {
                body.push_str("unhealthy\n");
                ("503 Service Unavailable", "text/plain", body)
            }
        }
        "/statz" => {
            let mut body = render_statz(&metrics::snapshot()).to_string();
            body.push('\n');
            ("200 OK", "application/json", body)
        }
        _ => ("404 Not Found", "text/plain", "not found\n".to_string()),
    }
}

/// A metric name in Prometheus form: every character outside
/// `[a-zA-Z0-9_]` becomes `_` (so `serve.queue_wait` →
/// `serve_queue_wait`).
fn prometheus_name(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() || c == '_' { c } else { '_' })
        .collect()
}

/// Render a snapshot as Prometheus text exposition (version 0.0.4):
/// counters and gauges as single samples, histograms as cumulative
/// `_bucket{le="…"}` series plus `_sum` / `_count`.
pub fn render_prometheus(snap: &Snapshot) -> String {
    let mut out = String::new();
    for (name, value) in &snap.metrics {
        let pname = prometheus_name(name);
        match value {
            MetricValue::Counter(value) => {
                out.push_str(&format!("# TYPE {pname} counter\n{pname} {value}\n"));
            }
            MetricValue::Gauge(value) => {
                out.push_str(&format!("# TYPE {pname} gauge\n{pname} {value}\n"));
            }
            MetricValue::Histogram(hist) => {
                out.push_str(&format!("# TYPE {pname} histogram\n"));
                // Render up to the highest non-empty bucket, cumulative,
                // then the mandatory `+Inf` catch-all.
                let last = hist
                    .buckets
                    .iter()
                    .rposition(|&c| c > 0)
                    .map(|i| i + 1)
                    .unwrap_or(0);
                let mut cum = 0u64;
                for (i, c) in hist.buckets.iter().take(last).enumerate() {
                    cum += c;
                    let (_, hi) = bucket_bounds(i);
                    out.push_str(&format!("{pname}_bucket{{le=\"{hi}\"}} {cum}\n"));
                }
                out.push_str(&format!(
                    "{pname}_bucket{{le=\"+Inf\"}} {}\n{pname}_sum {}\n{pname}_count {}\n",
                    hist.count, hist.sum, hist.count
                ));
            }
        }
    }
    out
}

/// Render a snapshot as the `/statz` JSON object: one key per metric;
/// histograms carry count/sum/quantile estimates plus the sparse buckets.
pub fn render_statz(snap: &Snapshot) -> Json {
    let mut obj = BTreeMap::new();
    for (name, value) in &snap.metrics {
        let value = match value {
            MetricValue::Counter(value) | MetricValue::Gauge(value) => Json::Num(*value as f64),
            MetricValue::Histogram(hist) => {
                let mut h = BTreeMap::new();
                h.insert("count".to_string(), Json::Num(hist.count as f64));
                h.insert("sum".to_string(), Json::Num(hist.sum as f64));
                for (key, q) in [("p50", 0.5), ("p95", 0.95), ("p99", 0.99)] {
                    if let Some(est) = hist.quantile(q) {
                        h.insert(key.to_string(), Json::Num(est as f64));
                    }
                }
                let buckets: Vec<Json> = hist
                    .buckets
                    .iter()
                    .enumerate()
                    .filter(|(_, &c)| c > 0)
                    .map(|(i, &c)| Json::Arr(vec![Json::Num(i as f64), Json::Num(c as f64)]))
                    .collect();
                h.insert("buckets".to_string(), Json::Arr(buckets));
                Json::Obj(h)
            }
        };
        obj.insert(name.clone(), value);
    }
    Json::Obj(obj)
}

/// The `(method, path)` of an HTTP request line, if the bytes hold one.
fn parse_request_line(raw: &[u8]) -> Option<(&str, &str)> {
    let text = std::str::from_utf8(raw).ok()?;
    let line = text.lines().next()?;
    let mut parts = line.split_whitespace();
    let method = parts.next()?;
    let path = parts.next()?;
    let version = parts.next()?;
    if !version.starts_with("HTTP/") || !path.starts_with('/') {
        return None;
    }
    Some((method, path))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn get(addr: SocketAddr, request: &str) -> String {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(request.as_bytes()).expect("write");
        let mut out = String::new();
        stream.read_to_string(&mut out).expect("read");
        out
    }

    #[test]
    fn request_line_parsing() {
        assert_eq!(
            parse_request_line(b"GET /metrics HTTP/1.0\r\n\r\n"),
            Some(("GET", "/metrics"))
        );
        assert_eq!(
            parse_request_line(b"POST /statz HTTP/1.1\r\nHost: x\r\n\r\n"),
            Some(("POST", "/statz"))
        );
        assert_eq!(parse_request_line(b"GET metrics HTTP/1.0\r\n"), None, "path must be absolute");
        assert_eq!(parse_request_line(b"GET /metrics\r\n"), None, "version required");
        assert_eq!(parse_request_line(b"\xff\xfe"), None, "not UTF-8");
        assert_eq!(parse_request_line(b""), None);
    }

    #[test]
    fn endpoint_serves_metrics_healthz_statz() {
        let c = crate::metrics::counter("test.http.hits");
        c.add(3);
        let h = crate::metrics::histogram("test.http.lat");
        h.record(100);
        // om-lint: allow(thread-spawn) — test exercising the endpoint.
        let server = StatsServer::spawn("127.0.0.1:0").expect("bind loopback");
        let addr = server.local_addr();

        let metrics = get(addr, "GET /metrics HTTP/1.0\r\n\r\n");
        assert!(metrics.starts_with("HTTP/1.0 200 OK"), "{metrics}");
        assert!(metrics.contains("test_http_hits 3"), "{metrics}");
        assert!(metrics.contains("# TYPE test_http_lat histogram"), "{metrics}");
        assert!(metrics.contains("test_http_lat_count 1"), "{metrics}");

        let statz = get(addr, "GET /statz?pretty=1 HTTP/1.1\r\nHost: t\r\n\r\n");
        assert!(statz.starts_with("HTTP/1.0 200 OK"), "{statz}");
        let body = statz.split("\r\n\r\n").nth(1).expect("body");
        let json = crate::json::Json::parse(body.trim()).expect("statz parses");
        assert_eq!(
            json.get("test.http.hits").and_then(crate::json::Json::as_u64),
            Some(3)
        );

        set_health("test.http.good", Box::new(|| true));
        let healthz = get(addr, "GET /healthz HTTP/1.0\r\n\r\n");
        assert!(healthz.starts_with("HTTP/1.0 200 OK"), "{healthz}");
        assert!(healthz.contains("test.http.good ok"), "{healthz}");

        set_health("test.http.bad", Box::new(|| false));
        let healthz = get(addr, "GET /healthz HTTP/1.0\r\n\r\n");
        assert!(healthz.starts_with("HTTP/1.0 503"), "{healthz}");
        assert!(healthz.contains("test.http.bad FAIL"), "{healthz}");
        clear_health("test.http.bad");
        clear_health("test.http.good");

        let missing = get(addr, "GET /nope HTTP/1.0\r\n\r\n");
        assert!(missing.starts_with("HTTP/1.0 404"), "{missing}");
        let post = get(addr, "POST /metrics HTTP/1.0\r\n\r\n");
        assert!(post.starts_with("HTTP/1.0 405"), "{post}");
        let garbage = get(addr, "not http at all\r\n\r\n");
        assert!(garbage.starts_with("HTTP/1.0 400"), "{garbage}");

        server.shutdown();
    }

    #[test]
    fn renderings_are_pinned_byte_for_byte() {
        // Scrapers key on these exact names, `le` labels and JSON keys.
        metrics::counter("golden.requests").add(7);
        let _ = metrics::counter("golden.zero");
        metrics::gauge("golden.depth").set(3);
        let h = metrics::histogram("golden.lat");
        for v in [0u64, 1, 3, 1000, 123_456, 5_000_000_000] {
            h.record(v);
        }
        let _ = metrics::histogram("golden.empty");
        let mut snap = metrics::snapshot();
        snap.metrics.retain(|name, _| name.starts_with("golden."));
        let prom = r#"# TYPE golden_depth gauge
golden_depth 3
# TYPE golden_empty histogram
golden_empty_bucket{le="+Inf"} 0
golden_empty_sum 0
golden_empty_count 0
# TYPE golden_lat histogram
golden_lat_bucket{le="0"} 1
golden_lat_bucket{le="1"} 2
golden_lat_bucket{le="3"} 3
golden_lat_bucket{le="7"} 3
golden_lat_bucket{le="15"} 3
golden_lat_bucket{le="31"} 3
golden_lat_bucket{le="63"} 3
golden_lat_bucket{le="127"} 3
golden_lat_bucket{le="255"} 3
golden_lat_bucket{le="511"} 3
golden_lat_bucket{le="1023"} 4
golden_lat_bucket{le="2047"} 4
golden_lat_bucket{le="4095"} 4
golden_lat_bucket{le="8191"} 4
golden_lat_bucket{le="16383"} 4
golden_lat_bucket{le="32767"} 4
golden_lat_bucket{le="65535"} 4
golden_lat_bucket{le="131071"} 5
golden_lat_bucket{le="262143"} 5
golden_lat_bucket{le="524287"} 5
golden_lat_bucket{le="1048575"} 5
golden_lat_bucket{le="2097151"} 5
golden_lat_bucket{le="4194303"} 5
golden_lat_bucket{le="8388607"} 5
golden_lat_bucket{le="16777215"} 5
golden_lat_bucket{le="33554431"} 5
golden_lat_bucket{le="67108863"} 5
golden_lat_bucket{le="134217727"} 5
golden_lat_bucket{le="268435455"} 5
golden_lat_bucket{le="536870911"} 5
golden_lat_bucket{le="1073741823"} 5
golden_lat_bucket{le="2147483647"} 5
golden_lat_bucket{le="4294967295"} 5
golden_lat_bucket{le="8589934591"} 6
golden_lat_bucket{le="+Inf"} 6
golden_lat_sum 5000124460
golden_lat_count 6
# TYPE golden_requests counter
golden_requests 7
# TYPE golden_zero counter
golden_zero 0
"#;
        assert_eq!(render_prometheus(&snap), prom);
        assert_eq!(
            render_statz(&snap).to_string(),
            "{\"golden.depth\":3,\"golden.empty\":{\"buckets\":[],\"count\":0,\"sum\":0},\
             \"golden.lat\":{\"buckets\":[[0,1],[1,1],[2,1],[10,1],[17,1],[33,1]],\"count\":6,\
             \"p50\":2,\"p95\":6442450943,\"p99\":6442450943,\"sum\":5000124460},\
             \"golden.requests\":7,\"golden.zero\":0}"
        );
    }

    #[test]
    fn spawn_from_env_is_gated() {
        // No OM_OBS_ADDR in the test environment → no socket.
        if std::env::var("OM_OBS_ADDR").is_err() {
            assert!(StatsServer::spawn_from_env().is_none());
        }
    }
}
