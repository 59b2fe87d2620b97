//! Machine-readable benchmark emitter: times kernels, nn layers, losses,
//! Algorithm 1, training and the baselines with plain `Instant` loops and
//! writes `BENCH_kernels.json` (kernel and nn-level rows) and
//! `BENCH_train.json` (model and baseline rows) with median/p95/mean per
//! row.
//!
//! The rows `bench/baselines/` gates (`gemm_96x96x96` through
//! `predict_test_pairs`) are timed first, so the informational rows after
//! them cannot change the state the gated ones are measured in. The
//! informational rows are named `<group>/<point>`: kernel and extractor
//! sweeps, the loss machinery (including the gradient-reversal layer's
//! cost), Algorithm 1's `O(N·M + L·M·Q)` sweeps (§4.1), one training
//! epoch with the DA and SCL modules toggled (Table 6, §5.9), and the
//! baseline fits.
//!
//! Usage: `cargo run --release -p om-bench --bin bench_json [out_dir]`.
//! Keep iteration counts small — this runs in CI's bench-gate job.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use om_baselines::graph::{BipartiteGraph, GraphCF, Propagation};
use om_baselines::mf::{MatrixFactorization, MfConfig};
use om_baselines::{HeroGraph, LightGCN, CMF, EMCDR, PTUPCDR};
use om_bench::bench_scenario;
use om_bench::replay::summarize;
use om_data::types::{Interaction, TextField};
use om_data::{CrossDomainScenario, Domain, SplitConfig, SynthConfig, SynthWorld};
use om_nn::{supcon_loss, HasParams, TextCnn, TransformerEncoder};
use om_obs::json::Json;
use om_tensor::{init, kernels, seeded_rng, Tensor};
use rand::RngExt as _;
use omnimatch_core::{AuxiliaryReviewGenerator, OmniMatchConfig, OmniMatchModel, Trainer};

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

/// One report row: `f` timed by [`time_ms`] and summarized.
fn row(name: &str, warmup: usize, iters: usize, f: impl FnMut()) -> Json {
    summarize(name, time_ms(warmup, iters, f))
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

    let sc = bench_scenario();
    let mut kernel_rows = gated_kernel_rows();
    let mut train_rows = gated_train_rows(&sc);
    kernel_rows.extend(kernel_sweeps());
    kernel_rows.extend(nn_rows());
    train_rows.extend(algorithm1_rows());
    train_rows.extend(training_rows(&sc));
    train_rows.extend(baseline_rows(&sc));
    write_report(&out_dir.join("BENCH_kernels.json"), "kernels", kernel_rows);
    write_report(&out_dir.join("BENCH_train.json"), "train", train_rows);
}

/// The gated kernel rows: GEMM, sum, log-softmax, unfold and the serving
/// score path.
fn gated_kernel_rows() -> Vec<Json> {
    let m = 96;
    let a: Vec<f32> = (0..m * m).map(|i| (i % 13) as f32 * 0.1 - 0.6).collect();
    let b: Vec<f32> = (0..m * m).map(|i| (i % 7) as f32 * 0.2 - 0.7).collect();
    let mut c = vec![0.0f32; m * m];
    let mut rows = vec![row(&format!("gemm_{m}x{m}x{m}"), 3, 30, || {
        kernels::gemm(&a, &b, &mut c, m, m, m)
    })];

    let big: Vec<f32> = (0..256 * 1024).map(|i| (i % 31) as f32 * 0.01).collect();
    rows.push(row("sum_256k", 3, 30, || {
        black_box(kernels::sum(&big));
    }));

    let logits = Tensor::from_vec(a.clone(), &[m, m]);
    rows.push(row(&format!("log_softmax_rows_{m}x{m}"), 3, 30, || {
        black_box(logits.log_softmax_rows());
    }));

    let seq = Tensor::from_vec(b.clone(), &[4, (m * m) / (4 * 8), 8]);
    rows.push(row("unfold_windows_k3", 3, 30, || {
        black_box(seq.unfold_windows(3));
    }));

    // The serving score path: the rating head a `ServeEngine` flush runs
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
    let _mode = om_nn::inference_mode();
    rows.push(row(&format!("serve_score_{b_req}x{n_items}"), 3, 20, || {
        let mut head = model.pair_block_scorer(&user_rows);
        for b in 0..b_req {
            black_box(head.logits(b, &item_rows));
        }
    }));
    rows
}

/// The gated training rows: a three-epoch fit and cold-start prediction
/// over the test pairs.
fn gated_train_rows(sc: &CrossDomainScenario) -> Vec<Json> {
    let fit = row("fit_tiny_fast", 1, 5, || {
        black_box(Trainer::new(OmniMatchConfig::fast().with_seed(5)).fit(sc));
    });
    let trained = Trainer::new(OmniMatchConfig::fast().with_seed(5)).fit(sc);
    let pairs: Vec<_> = sc.test_pairs().iter().map(|it| (it.user, it.item)).collect();
    let predict = row("predict_test_pairs", 1, 10, || {
        black_box(trained.predict(&pairs));
    });
    vec![fit, predict]
}

/// `kernels/gemm/<n>` (n×n×n) and `kernels/sum/<len>`: the blocked GEMM
/// and the chunked reduction against problem size (262144 is `sum_256k`).
/// Run with `OM_THREADS=1` and with the default pool to see the parallel
/// layer's speed-up; outputs are bit-identical either way (om-tensor
/// `tests/parity.rs`).
fn kernel_sweeps() -> Vec<Json> {
    let mut rows = Vec::new();
    for n in [64usize, 128, 256] {
        let a: Vec<f32> = (0..n * n).map(|i| ((i * 37) % 101) as f32 * 0.02 - 1.0).collect();
        let b: Vec<f32> = (0..n * n).map(|i| ((i * 53) % 89) as f32 * 0.02 - 0.9).collect();
        let mut out = vec![0.0f32; n * n];
        rows.push(row(&format!("kernels/gemm/{n}"), 3, 20, || {
            kernels::gemm(&a, &b, &mut out, n, n, n);
            black_box(out[0]);
        }));
    }
    for len in [4096usize, 1 << 21] {
        let x: Vec<f32> = (0..len).map(|i| ((i * 13) % 97) as f32 * 0.01 - 0.5).collect();
        rows.push(row(&format!("kernels/sum/{len}"), 3, 20, || {
            black_box(kernels::sum(&x));
        }));
    }
    rows
}

/// nn-level rows. `extractor/*`: TextCNN vs the transformer of the
/// `OmniMatch-BERT` ablation (Table 5), forward by batch size and
/// forward+backward at batch 32. The TextCNN rows time the whole tower the
/// model runs, from token ids through a trainable default-size table to
/// pooled features; the transformer rows take embedded documents, as its
/// backbone does. `loss/*`: supervised contrastive loss by
/// batch size (its similarity matrix is quadratic in the batch), a
/// square-mean backward with and without the gradient-reversal layer in
/// front, and softmax cross-entropy as the reference point.
fn nn_rows() -> Vec<Json> {
    const EMB: usize = 24;
    const LEN: usize = 48;
    let mut rows = Vec::new();
    let mut rng = seeded_rng(1);
    let cnn = TextCnn::new(EMB, &[3, 4, 5], 24, &mut rng);
    let tf = TransformerEncoder::new(EMB, 2, 48, 1, LEN, &mut rng);
    // The tower's table and ids come from their own generator, so the
    // transformer rows keep their inputs.
    let ids_rng = &mut seeded_rng(2);
    let vocab = OmniMatchConfig::default().vocab_size;
    let table = init::normal(&[vocab, EMB], 0.1, ids_rng).requires_grad();
    let mut docs = |batch: usize| -> Vec<Vec<usize>> {
        (0..batch).map(|_| (0..LEN).map(|_| ids_rng.random_range(0..vocab)).collect()).collect()
    };
    fn views(docs: &[Vec<usize>]) -> Vec<&[usize]> {
        docs.iter().map(Vec::as_slice).collect()
    }
    for batch in [16usize, 64] {
        let x = init::normal(&[batch, LEN, EMB], 1.0, &mut rng);
        let ids = docs(batch);
        let ids = views(&ids);
        rows.push(row(&format!("extractor/forward/textcnn/{batch}"), 2, 20, || {
            black_box(cnn.forward(&table, &ids));
        }));
        rows.push(row(&format!("extractor/forward/transformer/{batch}"), 2, 20, || {
            black_box(tf.forward(&x));
        }));
    }
    let x = init::normal(&[32, LEN, EMB], 1.0, &mut rng);
    let ids = docs(32);
    let ids = views(&ids);
    rows.push(row("extractor/forward_backward/textcnn", 2, 20, || {
        cnn.zero_grad();
        table.zero_grad();
        cnn.forward(&table, &ids).square().mean_all().backward();
    }));
    rows.push(row("extractor/forward_backward/transformer", 2, 20, || {
        tf.zero_grad();
        tf.forward(&x).square().mean_all().backward();
    }));

    for batch in [32usize, 64, 128, 256] {
        let z = init::normal(&[batch, 32], 1.0, &mut rng).requires_grad();
        let labels: Vec<usize> = (0..batch).map(|i| i % 5).collect();
        rows.push(row(&format!("loss/supcon/{batch}"), 2, 20, || {
            z.zero_grad();
            supcon_loss(&z, &labels, 0.07).backward();
        }));
    }
    let x = init::normal(&[128, 64], 1.0, &mut rng).requires_grad();
    rows.push(row("loss/grl/without_grl", 10, 100, || {
        x.zero_grad();
        x.square().mean_all().backward();
    }));
    rows.push(row("loss/grl/with_grl", 10, 100, || {
        x.zero_grad();
        x.gradient_reversal(1.0).square().mean_all().backward();
    }));
    let logits = init::normal(&[64, 5], 1.0, &mut rng).requires_grad();
    let targets: Vec<usize> = (0..64).map(|i| i % 5).collect();
    rows.push(row("loss/cross_entropy_64x5", 10, 100, || {
        logits.zero_grad();
        logits.cross_entropy(&targets).backward();
    }));
    rows
}

/// Algorithm 1 (§4.1 claims `O(N·M + L·M·Q)`): auxiliary-document
/// generation for 10 cold users against corpus size N
/// (`algorithm1/users/<N>`) and records per user M
/// (`algorithm1/records_per_user/<M>`), and the `O(N·M)` dictionary build
/// against N (`algorithm1/dictionary_build/<N>`).
fn algorithm1_rows() -> Vec<Json> {
    let world = |n_users: usize, reviews: (usize, usize)| {
        let cfg = SynthConfig {
            n_users,
            n_items: (n_users / 2).max(20),
            reviews_per_user: reviews,
            ..SynthConfig::tiny()
        };
        SynthWorld::generate(cfg, &["Books", "Movies"])
    };
    let generate = |name: String, w: SynthWorld| {
        let sc = w.scenario("Books", "Movies", SplitConfig::default());
        let generator = AuxiliaryReviewGenerator::new(&sc);
        let cold: Vec<_> = sc.test_users.iter().copied().take(10).collect();
        row(&name, 2, 20, || {
            black_box(generator.generate_all(&cold, TextField::Summary, &mut seeded_rng(1)));
        })
    };
    let mut rows = Vec::new();
    for n in [60usize, 120, 240] {
        rows.push(generate(format!("algorithm1/users/{n}"), world(n, (4, 8))));
    }
    for m in [3usize, 6, 12] {
        rows.push(generate(format!("algorithm1/records_per_user/{m}"), world(120, (m, m))));
    }
    for n in [60usize, 120, 240] {
        let interactions = world(n, (4, 8)).domain("Books").interactions().to_vec();
        rows.push(row(&format!("algorithm1/dictionary_build/{n}"), 2, 20, || {
            black_box(Domain::new("Books", interactions.clone()));
        }));
    }
    rows
}

/// Table 6's mechanism (§5.9): one training epoch with the domain
/// adversarial and supervised contrastive modules toggled. Absolute
/// numbers are CPU-scale; the paper's claim is each module's relative
/// cost.
fn training_rows(sc: &CrossDomainScenario) -> Vec<Json> {
    let one_epoch = OmniMatchConfig { epochs: 1, ..OmniMatchConfig::fast() };
    [
        ("full", one_epoch.clone()),
        ("wo_da", one_epoch.clone().without_da()),
        ("wo_scl", one_epoch.without_scl()),
    ]
    .into_iter()
    .map(|(variant, cfg)| {
        row(&format!("training/one_epoch/{variant}"), 1, 10, || {
            black_box(Trainer::new(cfg.clone()).fit(sc));
        })
    })
    .collect()
}

/// Baseline costs: the MF and graph-propagation substrates
/// (`substrate/*`) and each comparator's end-to-end fit (`baseline/fit/*`).
fn baseline_rows(sc: &CrossDomainScenario) -> Vec<Json> {
    let source: Vec<&Interaction> = sc.source.interactions().iter().collect();
    let target: Vec<&Interaction> = sc.target_train.interactions().iter().collect();
    let graph_fit = |prop: Propagation| {
        let mut m = GraphCF::new(BipartiteGraph::build(&target), 16, 2, prop, &mut seeded_rng(1));
        m.fit(20, 0.03);
    };
    vec![
        row("substrate/mf_fit", 1, 10, || {
            black_box(MatrixFactorization::fit(&source, MfConfig::default(), &mut seeded_rng(1)));
        }),
        row("substrate/graph_fit_20epochs/lightgcn", 1, 10, || graph_fit(Propagation::Light)),
        row("substrate/graph_fit_20epochs/ngcf", 1, 10, || graph_fit(Propagation::Nonlinear)),
        row("baseline/fit/cmf", 1, 10, || {
            black_box(CMF::fit(sc, 1));
        }),
        row("baseline/fit/emcdr", 1, 10, || {
            black_box(EMCDR::fit(sc, 1));
        }),
        row("baseline/fit/ptupcdr", 1, 10, || {
            black_box(PTUPCDR::fit(sc, 1));
        }),
        row("baseline/fit/lightgcn", 1, 10, || {
            black_box(LightGCN::fit(sc, 1));
        }),
        row("baseline/fit/herograph", 1, 10, || {
            black_box(HeroGraph::fit(sc, 1));
        }),
    ]
}
