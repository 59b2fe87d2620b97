//! Machine-readable benchmark emitter: times the hot kernels and a tiny
//! end-to-end training run with plain `Instant` loops (the vendored
//! criterion stub cannot export samples) and writes `BENCH_kernels.json`
//! and `BENCH_train.json` with median/p95/mean per benchmark.
//!
//! Usage: `cargo run --release -p om-bench --bin bench_json [out_dir]`.
//! Keep iteration counts small — this runs in CI's bench-smoke job.

use std::collections::BTreeMap;
use std::time::Instant;

use om_bench::bench_scenario;
use om_bench::replay::summarize;
use om_obs::json::Json;
use om_tensor::{kernels, seeded_rng, Tensor};
use omnimatch_core::{OmniMatchConfig, OmniMatchModel, Trainer};

/// Per-iteration wall times in milliseconds: `warmup` discarded
/// iterations, then `iters` measured ones.
fn time_ms(warmup: usize, iters: usize, mut f: impl FnMut()) -> Vec<f64> {
    for _ in 0..warmup {
        f();
    }
    let mut out = Vec::with_capacity(iters);
    for _ in 0..iters {
        let t0 = Instant::now();
        f();
        out.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    out
}

fn write_report(path: &std::path::Path, group: &str, benches: Vec<Json>) {
    let mut o = BTreeMap::new();
    o.insert("schema".to_string(), Json::Num(1.0));
    o.insert("group".to_string(), Json::Str(group.to_string()));
    o.insert("unit".to_string(), Json::Str("ms".to_string()));
    o.insert("benches".to_string(), Json::Arr(benches));
    std::fs::write(path, format!("{}\n", Json::Obj(o))).expect("write benchmark report");
    println!("wrote {}", path.display());
}

fn main() {
    let out_dir = std::env::args()
        .nth(1)
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::path::PathBuf::from("."));
    std::fs::create_dir_all(&out_dir).expect("create benchmark output dir");

    // ---- kernels -------------------------------------------------------
    let m = 96;
    let a: Vec<f32> = (0..m * m).map(|i| (i % 13) as f32 * 0.1 - 0.6).collect();
    let b: Vec<f32> = (0..m * m).map(|i| (i % 7) as f32 * 0.2 - 0.7).collect();
    let mut c = vec![0.0f32; m * m];
    let gemm = time_ms(3, 30, || kernels::gemm(&a, &b, &mut c, m, m, m));

    let big: Vec<f32> = (0..256 * 1024).map(|i| (i % 31) as f32 * 0.01).collect();
    let sum = time_ms(3, 30, || {
        std::hint::black_box(kernels::sum(&big));
    });

    let logits = Tensor::from_vec(a.clone(), &[m, m]);
    let softmax = time_ms(3, 30, || {
        std::hint::black_box(logits.log_softmax_rows());
    });

    let seq = Tensor::from_vec(b.clone(), &[4, (m * m) / (4 * 8), 8]);
    let unfold = time_ms(3, 30, || {
        std::hint::black_box(seq.unfold_windows(3));
    });

    // The serving score path: the rating head a `ShardedEngine` flush runs
    // for a microbatch against one item shard — each request's layer-1
    // user partial, then layer 1 resumed over the item rows, bias, ReLU
    // and layer 2, up to the logits (8 requests × 2048 items, fast-config
    // dims, an untrained model: the weights do not change the work). The
    // softmax to expected stars that follows is left out.
    let cfg = OmniMatchConfig::fast();
    let model = OmniMatchModel::new(&cfg, 64, None, &mut seeded_rng(5));
    let (b_req, n_items) = (8usize, 2048usize);
    let (du, di) = (cfg.invariant_dim + cfg.specific_dim, cfg.item_dim);
    let user_rows: Vec<f32> = (0..b_req * du).map(|i| (i % 17) as f32 * 0.1 - 0.8).collect();
    let item_rows: Vec<f32> = (0..n_items * di).map(|i| (i % 23) as f32 * 0.05 - 0.5).collect();
    let serve_score = {
        let _mode = om_nn::inference_mode();
        time_ms(3, 20, || {
            let mut head = model.pair_block_scorer(&user_rows);
            for b in 0..b_req {
                std::hint::black_box(head.logits(b, &item_rows));
            }
        })
    };

    write_report(
        &out_dir.join("BENCH_kernels.json"),
        "kernels",
        vec![
            summarize(&format!("gemm_{m}x{m}x{m}"), gemm),
            summarize("sum_256k", sum),
            summarize(&format!("log_softmax_rows_{m}x{m}"), softmax),
            summarize("unfold_windows_k3", unfold),
            summarize(&format!("serve_score_{b_req}x{n_items}"), serve_score),
        ],
    );

    // ---- training ------------------------------------------------------
    let sc = bench_scenario();
    let fit = time_ms(1, 5, || {
        std::hint::black_box(Trainer::new(OmniMatchConfig::fast().with_seed(5)).fit(&sc));
    });
    let sc2 = bench_scenario();
    let trained = Trainer::new(OmniMatchConfig::fast().with_seed(5)).fit(&sc2);
    let pairs: Vec<_> = sc2
        .test_pairs()
        .iter()
        .map(|it| (it.user, it.item))
        .collect();
    let predict = time_ms(1, 10, || {
        std::hint::black_box(trained.predict(&pairs));
    });

    write_report(
        &out_dir.join("BENCH_train.json"),
        "train",
        vec![
            summarize("fit_tiny_fast", fit),
            summarize("predict_test_pairs", predict),
        ],
    );
}
