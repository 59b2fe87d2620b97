//! The `train` workload, and the training-side layer profile every
//! workload's traced run replays.
//!
//! Untraced: repeated `Trainer::fit` calls on the fixed scenario
//! (`fit_s` = median wall time, `cold_rmse` = cold-start test RMSE, which
//! must repeat bit for bit), each followed by a closed loop of
//! `TrainedOmniMatch::predict` requests, each one 16-pair inference batch
//! of cold-start test pairs — the trained model's own inference path in
//! om-core; no om-serve layer runs.
//!
//! Traced: the first epoch of the same fit is replayed from the public
//! API (same RNG stream, same batches, same optimizer), with a span around
//! each layer call. Its mean loss must equal the fit's epoch-0 loss bit
//! for bit, which proves the replay is the fit.

use std::time::Instant;

use om_data::split::CrossDomainScenario;
use om_data::types::{ItemId, UserId};
use om_nn::{Adadelta, HasParams, Optimizer, SupConBatch};
use om_tensor::{seeded_rng, Rng, Tensor};
use omnimatch_core::model::DomainSide;
use omnimatch_core::{
    AuxiliaryReviewGenerator, CorpusViews, OmniMatchConfig, OmniMatchModel, Trainer,
};
use rand::seq::SliceRandom;
use rand::RngExt as _;

use crate::common::{model_config, scenario, secs, Ctx, Report, SplitMix};
use crate::spans::Recorder;
use crate::stats::{median, quantile, windowed_p95, P95_WINDOW};

/// Set-up is cheap (tens of ms), so it is repeated this often; `setup_s` is
/// the median.
const SETUP_REPEATS: usize = 15;
/// Fits per run: at least this many, more while the run budget lasts.
const MIN_FITS: usize = 3;
/// Prediction requests per run: at least this many, so p95 is a median
/// over at least five windows.
const MIN_PREDICTS: usize = 5 * P95_WINDOW;
/// Seconds of prediction requests after each fit (about one fit's time).
/// Alternating the two spreads both samples over the whole run, so drift
/// in the host's speed during one stretch of it moves neither median much.
const PREDICT_SLICE_S: f64 = 2.0;
/// Cold-start pairs per prediction request. Small requests give many
/// samples, so `p95_ms` is a median over many windows.
const PREDICT_PAIRS: usize = 16;

pub fn run(ctx: &Ctx, rep: &mut Report) {
    let cfg = model_config();

    // ---- set-up: world synthesis, Algorithm 1 and views ------------------
    let mut setup_s = Vec::new();
    let mut sc = None;
    for i in 0..SETUP_REPEATS {
        let t = if i == 0 { ctx.start } else { Instant::now() };
        let s = scenario();
        let views = CorpusViews::build(&s, &cfg, &mut seeded_rng(cfg.seed));
        assert!(!views.users().is_empty());
        setup_s.push(secs(t));
        sc = Some(s);
    }
    let sc = sc.expect("at least one set-up");
    rep.put("setup_s", median(&setup_s), "s");

    // ---- timed: fits alternating with cold-start prediction requests -----
    // Each request is one inference batch of cold-start test pairs, taken
    // in a seeded order.
    let pairs: Vec<(UserId, ItemId)> = sc
        .test_pairs()
        .iter()
        .map(|it| (it.user, it.item))
        .collect();
    let order = SplitMix::new(ctx.seed).permutation(pairs.len());
    let mut got: Vec<Option<f32>> = vec![None; pairs.len()];
    let (mut fit_s, mut lat_ms, mut predict_s) = (Vec::new(), Vec::new(), 0.0);
    let mut rmse_bits: Option<u32> = None;
    let mut trained = None;
    let t_all = Instant::now();
    while fit_s.len() < MIN_FITS || lat_ms.len() < MIN_PREDICTS || secs(t_all) < ctx.seconds {
        let t = Instant::now();
        let model = Trainer::new(cfg.clone()).fit(&sc);
        fit_s.push(secs(t));
        rep.attempted += 1;
        let rmse = model.evaluate(&sc.test_pairs()).rmse;
        match rmse_bits {
            None => rmse_bits = Some(rmse.to_bits()),
            Some(b) if b != rmse.to_bits() => rep.fail(
                1,
                format!("cold_rmse {rmse} differs from the first fit at the same seed"),
            ),
            Some(_) => {}
        }
        let t_slice = Instant::now();
        while secs(t_slice) < PREDICT_SLICE_S {
            let at = lat_ms.len() * PREDICT_PAIRS;
            let idx: Vec<usize> = (at..at + PREDICT_PAIRS)
                .map(|k| order[k % order.len()])
                .collect();
            let req: Vec<(UserId, ItemId)> = idx.iter().map(|&k| pairs[k]).collect();
            let t = Instant::now();
            let p = model.predict(&req);
            lat_ms.push(secs(t) * 1e3);
            rep.attempted += 1;
            for (&k, &v) in idx.iter().zip(&p) {
                got[k] = Some(v);
            }
        }
        predict_s += secs(t_slice);
        trained = Some(model);
    }
    let trained = trained.expect("at least one fit");
    let rmse = f32::from_bits(rmse_bits.unwrap_or(0)) as f64;
    if !rmse.is_finite() {
        rep.fail(1, format!("cold_rmse is not finite: {rmse}"));
    }

    // ---- correctness: neither the fit repeat nor the batch grouping may
    // move a prediction bit ----------------------------------------------
    let batched = trained.predict(&pairs);
    let bad = got
        .iter()
        .zip(&batched)
        .filter(|(g, b)| g.is_some_and(|g| g.to_bits() != b.to_bits()))
        .count();
    rep.fail(
        bad as u64,
        format!("{bad} predictions differ from the canonical batching"),
    );

    let p50 = quantile(&lat_ms, 0.5).expect("latency samples");
    let (p95, windows, beyond) = windowed_p95(&lat_ms).expect("latency samples");
    let p99 = quantile(&lat_ms, 0.99).expect("latency samples");
    println!(
        "train: {} fits of {} epochs, {} prediction requests of {PREDICT_PAIRS} pairs \
         (p95 median of {windows} windows, ≥{beyond} beyond p95 each; whole-run p99 {:.3} ms, \
         {} beyond)",
        fit_s.len(),
        cfg.epochs,
        p50.n,
        p99.value,
        p99.beyond,
    );
    if !ctx.trace {
        rep.put("fit_s", median(&fit_s), "s");
        rep.put("cold_rmse", rmse, "stars");
        rep.put("p50_ms", p50.value, "ms");
        rep.put("p95_ms", p95, "ms");
        rep.put("capacity_qps", lat_ms.len() as f64 / predict_s, "req/s");
        return;
    }

    // ---- traced: the training-side layer profile -------------------------
    let untraced = replay_epoch(&sc, &cfg, None);
    let traced = replay_epoch(&sc, &cfg, Some(&ctx.rec));
    check_replay(rep, &trained, traced.mean_loss);
    core_profile(&ctx.rec, &sc, &cfg);
    put_train_layers(rep, &ctx.rec);
    rep.put(
        "bench.trace_overhead_frac",
        traced.wall_s / untraced.wall_s - 1.0,
        "ratio",
    );
}

/// The fit's epoch-0 loss must be reproduced bit for bit by the replay.
pub fn check_replay(rep: &mut Report, trained: &omnimatch_core::TrainedOmniMatch, replayed: f32) {
    rep.attempted += 1;
    let fit = trained
        .report()
        .epochs
        .first()
        .map_or(f32::NAN, |e| e.total);
    if fit.to_bits() != replayed.to_bits() {
        rep.fail(
            1,
            format!("replayed epoch-0 loss {replayed} differs from the fit's {fit}"),
        );
    }
}

pub struct EpochReplay {
    pub mean_loss: f32,
    pub wall_s: f64,
}

/// Run `f` inside a span when a recorder is given, bare otherwise.
fn sp<T>(rec: Option<&Recorder>, name: &'static str, id: u64, f: impl FnOnce() -> T) -> T {
    match rec {
        Some(r) => r.span(name, id, f),
        None => f(),
    }
}

/// One batch's inputs, planned exactly as `Trainer::fit` plans them.
struct Batch<'a> {
    src: Vec<&'a [usize]>,
    tgt: Vec<&'a [usize]>,
    items: Vec<&'a [usize]>,
    labels: Vec<usize>,
    align: Vec<UserId>,
}

/// Replay epoch 0 of `Trainer::fit(cfg)` on `sc` through the public API:
/// the same RNG stream (views, initialisation, shuffle, augmentation and
/// alignment draws, dropout), the same batches, the same Adadelta steps.
pub fn replay_epoch(
    sc: &CrossDomainScenario,
    cfg: &OmniMatchConfig,
    rec: Option<&Recorder>,
) -> EpochReplay {
    let mut rng = seeded_rng(cfg.seed);
    let views = sp(rec, "core.views_build", 0, || {
        CorpusViews::build(sc, cfg, &mut rng)
    });
    let init = cfg
        .pretrain_embeddings
        .then(|| om_text::pretrain::subword_hash_init(&views.vocab, cfg.emb_dim));
    let model = OmniMatchModel::new(cfg, views.vocab.len(), init, &mut rng);
    let samples: Vec<(UserId, ItemId, usize)> = sc
        .target_train
        .interactions()
        .iter()
        .map(|it| (it.user, it.item, it.rating.label()))
        .collect();
    let cold_users = sc.cold_start_users();
    let mut opt = Adadelta::new(model.params(), cfg.lr, cfg.rho);

    let t = Instant::now();
    let mut sum = 0.0f32;
    let mut steps = 0usize;
    sp(rec, "train.epoch", 0, || {
        let mut epoch = samples.clone();
        epoch.shuffle(&mut rng);
        let batches = plan(&views, cfg, &epoch, &cold_users, &mut rng);
        for (b, input) in batches.iter().enumerate() {
            sp(rec, "train.step", b as u64, || {
                sum += step(&model, &views, cfg, input, &mut rng, rec, b as u64);
                sp(rec, "nn.optim", b as u64, || {
                    opt.step();
                    opt.zero_grad();
                });
            });
            steps += 1;
        }
    });
    EpochReplay {
        mean_loss: sum / steps.max(1) as f32,
        wall_s: secs(t),
    }
}

fn plan<'a>(
    views: &'a CorpusViews,
    cfg: &OmniMatchConfig,
    samples: &[(UserId, ItemId, usize)],
    cold_users: &[UserId],
    rng: &mut Rng,
) -> Vec<Batch<'a>> {
    let align = cfg.align_cold_users && (cfg.use_scl || cfg.use_da) && !cold_users.is_empty();
    let mut out = Vec::new();
    for chunk in samples.chunks(cfg.batch_size) {
        if chunk.len() < 2 {
            continue;
        }
        let use_aux: Vec<bool> = chunk
            .iter()
            .map(|(u, _, _)| {
                let aux = views.aux_doc(*u);
                cfg.aux_augment_prob > 0.0
                    && !aux.iter().all(|&t| t == 0)
                    && rng.random::<f32>() < cfg.aux_augment_prob
            })
            .collect();
        let picks = if align {
            let k = (chunk.len() / 2).clamp(2, cold_users.len());
            let mut picks = cold_users.to_vec();
            picks.shuffle(rng);
            picks.truncate(k);
            picks
        } else {
            Vec::new()
        };
        out.push(Batch {
            src: chunk.iter().map(|(u, _, _)| views.source_doc(*u)).collect(),
            tgt: chunk
                .iter()
                .zip(&use_aux)
                .map(|((u, _, _), &aux)| {
                    if aux {
                        views.aux_doc(*u)
                    } else {
                        views.target_doc(*u)
                    }
                })
                .collect(),
            items: chunk.iter().map(|(_, i, _)| views.item_doc(*i)).collect(),
            labels: chunk.iter().map(|(_, _, l)| *l).collect(),
            align: picks,
        });
    }
    out
}

/// One training step's forward and backward, spanned per module; returns
/// the step's total loss. Mirrors the trainer's step call for call.
fn step(
    model: &OmniMatchModel,
    views: &CorpusViews,
    cfg: &OmniMatchConfig,
    input: &Batch<'_>,
    rng: &mut Rng,
    rec: Option<&Recorder>,
    id: u64,
) -> f32 {
    let labels = &input.labels;
    let (f_src, f_tgt, items) = sp(rec, "nn.fwd_towers", id, || {
        let s = model.user_features(&input.src, DomainSide::Source, true, rng);
        let t = model.user_features(&input.tgt, DomainSide::Target, true, rng);
        let i = model.item_features(&input.items, true, rng);
        (s, t, i)
    });
    let mut loss = sp(rec, "nn.fwd_rating", id, || {
        model
            .rating_logits(&f_tgt.combined, &items, true, rng)
            .cross_entropy(labels)
            .scale(1.0)
    });
    if cfg.use_scl {
        loss = sp(rec, "nn.fwd_scl", id, || {
            let x_src = model.project_pairs(&f_src.combined, &items, true, rng);
            let x_tgt = model.project_pairs(&f_tgt.combined, &items, true, rng);
            let mut batch = SupConBatch::new();
            batch.push(x_src, labels);
            batch.push(x_tgt, labels);
            loss.add(&batch.loss(cfg.temperature).scale(cfg.alpha))
        });
    }
    if cfg.use_da {
        loss = sp(rec, "nn.fwd_domain", id, || {
            loss.add(&domain_loss(model, &f_src, &f_tgt, labels.len(), rng).scale(cfg.beta))
        });
    }
    if !input.align.is_empty() {
        let picks = &input.align;
        let k = picks.len();
        let (f_src, f_tgt) = sp(rec, "nn.fwd_towers", id, || {
            let src: Vec<&[usize]> = picks.iter().map(|u| views.source_doc(*u)).collect();
            let aux: Vec<&[usize]> = picks.iter().map(|u| views.aux_doc(*u)).collect();
            let s = model.user_features(&src, DomainSide::Source, true, rng);
            let t = model.user_features(&aux, DomainSide::Target, true, rng);
            (s, t)
        });
        if cfg.use_scl {
            let items = sp(rec, "nn.fwd_towers", id, || {
                let empty: Vec<&[usize]> = picks.iter().map(|_| views.empty_doc()).collect();
                model.item_features(&empty, true, rng)
            });
            loss = sp(rec, "nn.fwd_scl", id, || {
                let x_src = model.project_pairs(&f_src.combined, &items, true, rng);
                let x_tgt = model.project_pairs(&f_tgt.combined, &items, true, rng);
                let labels: Vec<usize> = (0..k).collect();
                let mut batch = SupConBatch::new();
                batch.push(x_src, &labels);
                batch.push(x_tgt, &labels);
                loss.add(&batch.loss(cfg.temperature).scale(cfg.alpha))
            });
        }
        if cfg.use_da {
            loss = sp(rec, "nn.fwd_domain", id, || {
                loss.add(&domain_loss(model, &f_src, &f_tgt, k, rng).scale(cfg.beta))
            });
        }
    }
    sp(rec, "nn.backward", id, || loss.backward());
    loss.item()
}

/// Invariant features behind the GRL plus specific features, both
/// classified by domain (the trainer's `L_domain`).
fn domain_loss(
    model: &OmniMatchModel,
    f_src: &omnimatch_core::model::UserFeatures,
    f_tgt: &omnimatch_core::model::UserFeatures,
    n: usize,
    rng: &mut Rng,
) -> Tensor {
    let mut labels = vec![DomainSide::Source.label(); n];
    labels.extend(std::iter::repeat_n(DomainSide::Target.label(), n));
    let invariant = Tensor::concat_rows(&[&f_src.invariant, &f_tgt.invariant]);
    let l_inv = model
        .domain_logits_invariant(&invariant, true, rng)
        .cross_entropy(&labels);
    let specific = Tensor::concat_rows(&[&f_src.specific, &f_tgt.specific]);
    let l_spec = model
        .domain_logits_specific(&specific, true, rng)
        .cross_entropy(&labels);
    l_inv.add(&l_spec)
}

/// Algorithm 1 on its own, for `core.aux_generate_s` (the views build
/// span of the epoch replay gives `core.views_build_s`).
pub fn core_profile(rec: &Recorder, sc: &CrossDomainScenario, cfg: &OmniMatchConfig) {
    let mut users: Vec<UserId> = sc.train_users.clone();
    users.extend_from_slice(&sc.valid_users);
    users.extend_from_slice(&sc.test_users);
    users.sort_unstable();
    users.dedup();
    let gen = AuxiliaryReviewGenerator::new(sc);
    let docs = rec.span("core.aux_generate", 0, || {
        gen.generate_all(&users, cfg.text_field, &mut seeded_rng(cfg.seed))
    });
    assert_eq!(docs.len(), users.len());
}

/// Per-layer training metrics from the traced epoch replay, per epoch.
pub fn put_train_layers(rep: &mut Report, rec: &Recorder) {
    let epoch = rec.total_ms("train.epoch");
    let parts = [
        ("nn.fwd_towers_ms", "nn.fwd_towers"),
        ("nn.fwd_rating_ms", "nn.fwd_rating"),
        ("nn.fwd_scl_ms", "nn.fwd_scl"),
        ("nn.fwd_domain_ms", "nn.fwd_domain"),
        ("nn.backward_ms", "nn.backward"),
        ("nn.optim_ms", "nn.optim"),
    ];
    for (metric, span) in parts {
        rep.put(metric, rec.total_ms(span), "ms");
    }
    let unattributed = rec.self_ms("train.epoch") + rec.self_ms("train.step");
    if unattributed < 0.0 {
        rep.fail(
            1,
            format!("train.unattributed_ms is negative: {unattributed}"),
        );
    }
    rep.put("train.unattributed_ms", unattributed, "ms");
    rep.put(
        "train.scl_share",
        rec.total_ms("nn.fwd_scl") / epoch,
        "ratio",
    );
    rep.put(
        "train.da_share",
        rec.total_ms("nn.fwd_domain") / epoch,
        "ratio",
    );
    rep.put(
        "core.aux_generate_s",
        rec.total_ms("core.aux_generate") / 1e3,
        "s",
    );
    rep.put(
        "core.views_build_s",
        rec.total_ms("core.views_build") / 1e3,
        "s",
    );
}
