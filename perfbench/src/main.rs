//! End-to-end and per-layer benchmark of the OmniMatch workspace.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload train|serve-warm|serve-coldstart --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with no tracing; `--trace 1`
//! is a separate run on the same inputs that records spans around every
//! layer call the benchmark makes and reports the per-layer metrics. Each
//! metric is printed by name with its unit; the last line of standard
//! output is one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. The process exits non-zero when any correctness check fails.

mod common;
mod serve;
mod spans;
mod stats;
mod train;

use std::path::PathBuf;
use std::time::Instant;

use common::{peak_rss_mb, Ctx, Report};

/// End-to-end metrics: every workload reports all of them, untraced.
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("fit_s", "s"),
    ("cold_rmse", "stars"),
    ("p50_ms", "ms"),
    ("p95_ms", "ms"),
    ("capacity_qps", "req/s"),
];

/// Per-layer metrics of the traced run. A layer a workload never calls
/// reports 0 there (that workload is the layer's bypass).
const PER_LAYER: [(&str, &str); 34] = [
    ("serve.flush_p50_ms", "ms"),
    ("serve.flush_p99_ms", "ms"),
    ("serve.cross_join_ms", "ms"),
    ("serve.head_ms", "ms"),
    ("serve.topk_ms", "ms"),
    ("serve.warm_rows_us", "us"),
    ("serve.unattributed_ms", "ms"),
    ("tensor.head_gflops", "GFLOP/s"),
    ("tensor.pair_bytes_per_flush", "bytes"),
    ("nn.cold_tower_ms", "ms"),
    ("serve.update.apply_p50_ms", "ms"),
    ("serve.update.apply_p99_ms", "ms"),
    ("serve.update.encode_ms", "ms"),
    ("serve.update.shadow_ms", "ms"),
    ("serve.update.install_us", "us"),
    ("serve.batch_fill", "req/flush"),
    ("serve.queue_hwm", "count"),
    ("serve.swaps", "count"),
    ("serve.batch_wait_ms", "ms"),
    ("serve.deadline_flush_frac", "ratio"),
    ("core.aux_generate_s", "s"),
    ("core.views_build_s", "s"),
    ("nn.fwd_towers_ms", "ms"),
    ("nn.fwd_rating_ms", "ms"),
    ("nn.fwd_scl_ms", "ms"),
    ("nn.fwd_domain_ms", "ms"),
    ("nn.backward_ms", "ms"),
    ("nn.optim_ms", "ms"),
    ("train.unattributed_ms", "ms"),
    ("train.scl_share", "ratio"),
    ("train.da_share", "ratio"),
    ("bench.gen_late_p99_ms", "ms"),
    ("bench.trace_overhead_frac", "ratio"),
    ("bench.failed_frac", "ratio"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => a.workload = val,
            "--seed" => a.seed = val.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = val.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                a.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {val}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !matches!(
        a.workload.as_str(),
        "train" | "serve-warm" | "serve-coldstart"
    ) {
        return Err(format!(
            "--workload must be train, serve-warm or serve-coldstart, not '{}'",
            a.workload
        ));
    }
    if !a.seconds.is_finite() || a.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(a)
}

fn main() {
    let start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    // One tensor thread. On a shared host a core that sleeps between
    // pieces of work wakes slowly and erratically, so a pool whose helper
    // waits between kernels makes every flush and fit as slow as that
    // wake-up; a single busy thread runs at a steady speed. Serving's
    // generator polls on the other core.
    std::env::set_var("OM_THREADS", "1");
    // Per-event info lines would put stderr writes on the serving path.
    om_obs::logger::set_level(om_obs::logger::Level::Warn);

    let root = PathBuf::from(".perfbench");
    let dir = root.join(format!(
        "{}-{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).expect("create the benchmark's scratch directory");
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        start,
        dir: dir.clone(),
        rec: spans::Recorder::new(start),
    };
    let mut rep = Report::default();
    match args.workload.as_str() {
        "train" => train::run(&ctx, &mut rep),
        "serve-warm" => serve::run(serve::Kind::Warm, &ctx, &mut rep),
        _ => serve::run(serve::Kind::Cold, &ctx, &mut rep),
    }
    let _ = std::fs::remove_dir_all(&dir);

    let wanted: &[(&str, &str)] = if args.trace {
        let frac = rep.failed as f64 / rep.attempted.max(1) as f64;
        rep.put("bench.failed_frac", frac, "ratio");
        let path = root.join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
        match ctx.rec.write_jsonl(&path) {
            Ok(()) => println!(
                "spans: {} written to {}",
                ctx.rec.spans().len(),
                path.display()
            ),
            Err(e) => rep.fail(1, format!("writing {}: {e}", path.display())),
        }
        &PER_LAYER
    } else {
        rep.put("peak_rss_mb", peak_rss_mb(), "MB");
        &END_TO_END
    };

    let mut out = Vec::new();
    for &(name, unit) in wanted {
        let value = match rep.metrics.iter().find(|m| m.0 == name) {
            Some(&(_, v, u)) => {
                assert_eq!(u, unit, "unit of {name}");
                v
            }
            None if args.trace => 0.0,
            None => panic!("workload did not report {name}"),
        };
        if !value.is_finite() {
            rep.fail(1, format!("{name} is not finite"));
        }
        println!("{name:<30} {value:>16.6} {unit}");
        out.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            if value.is_finite() { value } else { 0.0 }
        ));
    }
    for p in &rep.problems {
        println!("FAILED: {p}");
    }
    let correct = rep.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        rep.attempted.max(1),
        rep.failed,
        out.join(", ")
    );
    std::process::exit(if correct { 0 } else { 1 });
}
