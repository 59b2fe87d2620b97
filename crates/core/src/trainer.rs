//! End-to-end training and cold-start evaluation (Eq. 21, §5.2, §5.4).
//!
//! Each mini-batch of target-domain training interactions drives all three
//! losses of the joint objective:
//!
//! * `L_rating` — softmax cross-entropy of the rating classifier over
//!   `r_target ⊕ r_item` (Eq. 19);
//! * `L_SCL` — supervised contrastive loss over both projected views
//!   (`x̂_source` and `x̂_target`, Eq. 13), labelled by rating — which pulls
//!   each user's source and target representations together *and* groups
//!   same-rating pairs (Fig. 3);
//! * `L_domain` — domain cross-entropy of the invariant features behind
//!   the GRL plus the specific features classified normally (Eqs. 15/17).
//!
//! When `align_cold_users` is on, each batch also adds the §4.1 cold-start
//! alignment terms: a few cold users' source documents and Algorithm 1
//! auxiliary documents join the SCL loss (each user its own class, weight
//! α) and the domain loss (weight β). No rating label is involved.
//!
//! `L_total = L_rating + α·L_SCL + β·L_domain`, plus those terms, is
//! minimised with Adadelta (ρ 0.95 — §5.4; lr 1.0 rather than the paper's
//! 0.02, DESIGN.md implementation decision 1).

use om_data::split::CrossDomainScenario;
use om_data::types::{Interaction, ItemId, Rating, UserId};
use om_metrics::Eval;
use om_nn::serialize::{encode_tensors, CheckpointV2};
use om_nn::{Adadelta, HasParams, Optimizer, SupConBatch};
use om_tensor::{no_grad, seeded_rng, Rng, Tensor};
use om_text::pretrain::subword_hash_init;
use rand::seq::SliceRandom;
use rand::RngExt as _;

use crate::ckpt::{self, CkptConfig};
use crate::config::OmniMatchConfig;
use crate::corpus::CorpusViews;
use crate::model::{DomainSide, OmniMatchModel};

/// Mean per-batch losses of one epoch.
#[derive(Debug, Clone, Copy)]
pub struct EpochStats {
    /// Mean total loss (Eq. 21).
    pub total: f32,
    /// Mean rating classification loss.
    pub rating: f32,
    /// Mean supervised contrastive loss (0 when disabled).
    pub scl: f32,
    /// Mean domain classification loss (0 when disabled).
    pub domain: f32,
}

/// Summary of a completed training run.
#[derive(Debug, Clone)]
pub struct TrainReport {
    /// Per-epoch loss means.
    pub epochs: Vec<EpochStats>,
    /// Wall-clock training time in seconds (Table 6's measurement).
    pub train_seconds: f64,
    /// Number of training interactions.
    pub samples: usize,
    /// Validation RMSE per epoch (cold-start validation users, §5.2).
    pub valid_rmse: Vec<f32>,
    /// Epoch whose parameters were kept (best validation RMSE).
    pub best_epoch: usize,
}

/// Configured-but-unfitted OmniMatch.
pub struct Trainer {
    cfg: OmniMatchConfig,
    ckpt: Option<CkptConfig>,
}

impl Trainer {
    /// Wrap a configuration. Checkpointing follows the environment
    /// (`OM_CKPT` / `OM_CKPT_DIR` / `OM_CKPT_EVERY`) unless
    /// [`Trainer::with_ckpt`] sets it explicitly.
    pub fn new(cfg: OmniMatchConfig) -> Trainer {
        cfg.validate();
        Trainer { cfg, ckpt: None }
    }

    /// Enable durable checkpointing into an explicit directory,
    /// independent of the `OM_CKPT` environment gate.
    pub fn with_ckpt(mut self, ckpt: CkptConfig) -> Trainer {
        self.ckpt = Some(ckpt);
        self
    }

    /// Train on a scenario and return the fitted model.
    ///
    /// When observability is enabled (`OM_OBS=1`) this opens a run scope
    /// named `fit` (a no-op if an outer caller — e.g. a table binary —
    /// already owns the run), records per-batch and per-epoch telemetry
    /// events, and annotates the run manifest with the training
    /// configuration. Telemetry only *reads* values the training loop
    /// already computes; results are bitwise identical with it on or off.
    pub fn fit(&self, scenario: &CrossDomainScenario) -> TrainedOmniMatch {
        let _run = om_obs::run_scope("fit");
        let obs_on = om_obs::enabled();
        let _fit_span = om_obs::trace::span_if(obs_on, "trainer.fit");
        let cold_users: Vec<UserId> = scenario.cold_start_users();
        let cfg = &self.cfg;
        if obs_on {
            om_obs::manifest_set("cfg.seed", cfg.seed.into());
            om_obs::manifest_set("cfg.epochs", (cfg.epochs as u64).into());
            om_obs::manifest_set("cfg.batch_size", (cfg.batch_size as u64).into());
            om_obs::manifest_set("cfg.lr", (cfg.lr as f64).into());
            om_obs::manifest_set("cfg.rho", (cfg.rho as f64).into());
            om_obs::manifest_set("cfg.alpha", (cfg.alpha as f64).into());
            om_obs::manifest_set("cfg.beta", (cfg.beta as f64).into());
            om_obs::manifest_set("cfg.use_scl", cfg.use_scl.into());
            om_obs::manifest_set("cfg.use_da", cfg.use_da.into());
            om_obs::manifest_set("data.cold_users", (cold_users.len() as u64).into());
        }
        let mut rng = seeded_rng(cfg.seed);
        let views = CorpusViews::build(scenario, cfg, &mut rng);
        let embedding_init = if cfg.pretrain_embeddings {
            Some(subword_hash_init(&views.vocab, cfg.emb_dim))
        } else {
            None
        };
        let model = OmniMatchModel::new(cfg, views.vocab.len(), embedding_init, &mut rng);
        let samples = training_samples(scenario);
        assert!(
            samples.len() >= 2,
            "scenario provides too few training interactions"
        );

        let mut opt = Adadelta::new(model.params(), cfg.lr, cfg.rho);
        let mut epochs = Vec::with_capacity(cfg.epochs);
        let mut valid_rmse = Vec::with_capacity(cfg.epochs);
        let mut best = (f32::INFINITY, 0usize, None::<bytes::Bytes>);
        let valid_pairs = scenario.validation_pairs();

        // Durable checkpointing: explicit config wins, else the OM_CKPT
        // environment gate. Resume restores parameters, optimizer state,
        // RNG and the loss/validation history, so the continued run is
        // bitwise identical to an uninterrupted one (wall-clock
        // `train_seconds` is the single documented exception).
        let ckpt_cfg = self
            .ckpt
            .clone()
            .or_else(|| CkptConfig::from_env(&format!("seed{}", cfg.seed)));
        let digest = ckpt::config_digest(cfg, samples.len(), views.vocab.len(), &model.params());
        let mut start_epoch = 0usize;
        if let Some(ck) = &ckpt_cfg {
            match ckpt::load_latest(&ck.dir, digest, &model.params(), &mut opt) {
                Some(snap) => {
                    start_epoch = snap.next_epoch;
                    epochs = snap.stats;
                    valid_rmse = snap.valid_rmse;
                    best = (snap.best_rmse, snap.best_epoch, snap.best_params);
                    rng = om_tensor::Rng::from_state(snap.rng);
                }
                None => {
                    // A failed restore may have imported optimizer state
                    // before detecting corruption; rebuild so a fresh run
                    // truly starts fresh.
                    opt = Adadelta::new(model.params(), cfg.lr, cfg.rho);
                }
            }
        }

        let start_ns = om_obs::clock::now_ns();
        for epoch in start_epoch..cfg.epochs {
            let _epoch_span = om_obs::trace::span_if(obs_on, "trainer.epoch");
            // Shuffle a fresh copy of the canonical sample order, so each
            // epoch's batch composition is a pure function of the RNG state
            // at the epoch boundary — an in-place shuffle would make it
            // depend on every previous epoch's ordering, which a resumed
            // run cannot replay.
            let mut epoch_samples = samples.clone();
            epoch_samples.shuffle(&mut rng);
            // All of the epoch's randomness that shapes the *data* (aux
            // augmentation, cold-user alignment picks) is drawn here,
            // sequentially; the per-batch document assembly then fans out
            // over the tensor runtime's pool. See [`plan_epoch`].
            let inputs = {
                let _plan_span = om_obs::trace::span_if(obs_on, "trainer.plan_epoch");
                plan_epoch(&views, cfg, &epoch_samples, &cold_users, &mut rng)
            };
            let mut sums = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
            let mut batches = 0usize;
            // Running means of the per-step optimizer summaries, reported
            // once per epoch (per-batch values also go to the event stream).
            // om-lint: reduction-ok(observability-only running means over a
            // fixed batch order; never feeds a parameter or a score)
            let mut grad_norm = 0.0f64;
            let mut update_norm = 0.0f64; // om-lint: reduction-ok(see above)
            let mut last_step: Option<om_nn::StepStats> = None;
            for input in &inputs {
                let _batch_span = om_obs::trace::span_if(obs_on, "trainer.batch");
                let stats = train_batch(&model, &views, cfg, input, &mut rng);
                opt.step();
                opt.zero_grad();
                sums.0 += stats.total;
                sums.1 += stats.rating;
                sums.2 += stats.scl;
                sums.3 += stats.domain;
                batches += 1;
                if obs_on {
                    let step = opt.step_stats();
                    if let Some(s) = step {
                        grad_norm += s.grad_norm;
                        update_norm += s.update_norm;
                        last_step = Some(s);
                    }
                    om_obs::emit(
                        "batch",
                        &[
                            ("epoch", (epoch as u64).into()),
                            ("batch", ((batches - 1) as u64).into()),
                            ("total", stats.total.into()),
                            ("rating", stats.rating.into()),
                            ("scl", stats.scl.into()),
                            ("domain", stats.domain.into()),
                            ("grad_norm", step.map_or(0.0, |s| s.grad_norm).into()),
                            ("update_norm", step.map_or(0.0, |s| s.update_norm).into()),
                        ],
                    );
                }
            }
            let b = batches.max(1) as f32;
            epochs.push(EpochStats {
                total: sums.0 / b,
                rating: sums.1 / b,
                scl: sums.2 / b,
                domain: sums.3 / b,
            });
            // Model selection on the cold-start validation users (§5.2):
            // keep the parameters of the best validation epoch.
            if !valid_pairs.is_empty() {
                let _valid_span = om_obs::trace::span_if(obs_on, "trainer.validate");
                let r = validation_rmse(&model, &views, cfg, &valid_pairs);
                valid_rmse.push(r);
                if r < best.0 {
                    best = (
                        r,
                        epoch,
                        Some(om_nn::serialize::save_params(&model.params())),
                    );
                }
            }
            if obs_on {
                let e = epochs.last().expect("epoch stats just pushed");
                let bd = batches.max(1) as f64;
                om_obs::emit(
                    "epoch",
                    &[
                        ("epoch", (epoch as u64).into()),
                        ("total", e.total.into()),
                        ("rating", e.rating.into()),
                        ("scl", e.scl.into()),
                        ("domain", e.domain.into()),
                        ("valid_rmse", valid_rmse.last().copied().unwrap_or(f32::NAN).into()),
                        ("grad_norm", (grad_norm / bd).into()),
                        ("update_norm", (update_norm / bd).into()),
                        ("param_norm", last_step.map_or(0.0, |s| s.param_norm).into()),
                        ("sq_avg_mean", last_step.map_or(0.0, |s| s.sq_avg_mean).into()),
                        (
                            "acc_delta_mean",
                            last_step.map_or(0.0, |s| s.acc_delta_mean).into(),
                        ),
                    ],
                );
                om_obs::info!(
                    "epoch {epoch}: total {:.4} rating {:.4} scl {:.4} domain {:.4} valid_rmse {:.4}",
                    e.total,
                    e.rating,
                    e.scl,
                    e.domain,
                    valid_rmse.last().copied().unwrap_or(f32::NAN)
                );
            }
            if let Some(ck) = &ckpt_cfg {
                if (epoch + 1) % ck.every == 0 || epoch + 1 == cfg.epochs {
                    let snap = ckpt::Snapshot {
                        next_epoch: epoch + 1,
                        stats: epochs.clone(),
                        valid_rmse: valid_rmse.clone(),
                        best_rmse: best.0,
                        best_epoch: best.1,
                        best_params: best.2.clone(),
                        rng: rng.state(),
                    };
                    if let Err(e) = ckpt::save(ck, digest, epoch, &model.params(), &opt, &snap) {
                        om_obs::warn!("checkpoint save failed at epoch {epoch}: {e}");
                    }
                }
            }
        }
        // Restore the best validation epoch's parameters. A failed restore
        // degrades gracefully (keep the final epoch) instead of aborting a
        // finished training run.
        if let (_, _, Some(ckpt_blob)) = &best {
            if let Err(e) = om_nn::serialize::load_params(&model.params(), ckpt_blob) {
                om_obs::error!(
                    "best-epoch (epoch {}) restore failed: {e}; keeping final-epoch parameters",
                    best.1
                );
            }
        }
        let report = TrainReport {
            epochs,
            train_seconds: om_obs::clock::now_ns().saturating_sub(start_ns) as f64 / 1e9,
            samples: samples.len(),
            valid_rmse,
            best_epoch: best.1,
        };
        if obs_on {
            om_obs::manifest_set("train.seconds", report.train_seconds.into());
            om_obs::manifest_set("train.samples", (report.samples as u64).into());
            om_obs::manifest_set("train.best_epoch", (report.best_epoch as u64).into());
        }
        TrainedOmniMatch {
            cfg: cfg.clone(),
            model,
            views,
            report,
        }
    }
}

/// Cold-start validation RMSE of the current parameters.
fn validation_rmse(
    model: &OmniMatchModel,
    views: &CorpusViews,
    cfg: &OmniMatchConfig,
    pairs: &[&Interaction],
) -> f32 {
    let _guard = no_grad();
    let mut rng = seeded_rng(cfg.seed ^ 0xBA11);
    let mut scored = Vec::with_capacity(pairs.len());
    for chunk in pairs.chunks(cfg.batch_size.max(2)) {
        let tgt_docs: Vec<&[usize]> = chunk.iter().map(|it| views.target_doc(it.user)).collect();
        let item_docs: Vec<&[usize]> = chunk.iter().map(|it| views.item_doc(it.item)).collect();
        let f_tgt = model.user_features(&tgt_docs, DomainSide::Target, false, &mut rng);
        let items = model.item_features(&item_docs, false, &mut rng);
        let logits = model.rating_logits(&f_tgt.combined, &items, false, &mut rng);
        for (p, it) in OmniMatchModel::expected_stars(&logits).into_iter().zip(chunk) {
            scored.push((p, it.rating.value()));
        }
    }
    om_metrics::rmse(&scored)
}

/// One mini-batch's fully resolved training input: every document choice
/// (including aux-consistency augmentation) and the cold-user alignment
/// picks, decided ahead of the optimisation loop.
#[derive(Default)]
struct BatchInput<'a> {
    src_docs: Vec<&'a [usize]>,
    tgt_docs: Vec<&'a [usize]>,
    item_docs: Vec<&'a [usize]>,
    labels: Vec<usize>,
    /// Cold-start users joining the alignment losses (empty when disabled).
    align_users: Vec<UserId>,
}

/// Training samples `(user, item, rating label)`: the target-domain
/// interactions of the training users (`target_train` holds exactly those,
/// §5.2).
fn training_samples(scenario: &CrossDomainScenario) -> Vec<(UserId, ItemId, usize)> {
    scenario
        .target_train
        .interactions()
        .iter()
        .map(|it| (it.user, it.item, it.rating.label()))
        .collect()
}

/// Resolve every mini-batch of one epoch into a [`BatchInput`].
///
/// Runs in two phases so training stays bitwise identical at any thread
/// count: (1) all data-shaping randomness — the per-sample aux-augmentation
/// coin flips and the per-batch cold-user picks — is drawn sequentially from
/// `rng`; (2) the document gathering itself, now pure, fans out over the
/// tensor runtime's worker pool, one task per block of batches.
fn plan_epoch<'a>(
    views: &'a CorpusViews,
    cfg: &OmniMatchConfig,
    samples: &[(UserId, ItemId, usize)],
    cold_users: &[UserId],
    rng: &mut Rng,
) -> Vec<BatchInput<'a>> {
    /// One batch's sequential plan: its samples, the per-sample
    /// aux-augmentation coin flips, and the cold users picked for alignment.
    type BatchPlan<'a> = (&'a [(UserId, ItemId, usize)], Vec<bool>, Vec<UserId>);
    let align = cfg.align_cold_users && (cfg.use_scl || cfg.use_da) && !cold_users.is_empty();
    let mut plans: Vec<BatchPlan<'_>> = Vec::new();
    for chunk in samples.chunks(cfg.batch_size) {
        if chunk.len() < 2 {
            continue; // SupCon and batch statistics need ≥ 2
        }
        // Aux-consistency augmentation: with probability `aux_augment_prob`
        // a training user is represented by their Algorithm 1 auxiliary
        // document instead of their real reviews, so the rating classifier
        // trains on the exact document distribution cold-start serving
        // produces.
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
            let mut picks: Vec<UserId> = cold_users.to_vec();
            picks.shuffle(rng);
            picks.truncate(k);
            picks
        } else {
            Vec::new()
        };
        plans.push((chunk, use_aux, picks));
    }

    let mut inputs: Vec<BatchInput<'a>> = plans.iter().map(|_| BatchInput::default()).collect();
    om_tensor::runtime::parallel_rows_mut(&mut inputs, 1, 4, |i0, block| {
        for (d, slot) in block.iter_mut().enumerate() {
            let (chunk, use_aux, picks) = &plans[i0 + d];
            *slot = BatchInput {
                src_docs: chunk.iter().map(|(u, _, _)| views.source_doc(*u)).collect(),
                tgt_docs: chunk
                    .iter()
                    .zip(use_aux)
                    .map(|((u, _, _), &aux)| {
                        if aux {
                            views.aux_doc(*u)
                        } else {
                            views.target_doc(*u)
                        }
                    })
                    .collect(),
                item_docs: chunk.iter().map(|(_, i, _)| views.item_doc(*i)).collect(),
                labels: chunk.iter().map(|(_, _, l)| *l).collect(),
                align_users: picks.clone(),
            };
        }
    });
    inputs
}

/// One optimisation step; returns the batch's loss components.
fn train_batch(
    model: &OmniMatchModel,
    views: &CorpusViews,
    cfg: &OmniMatchConfig,
    input: &BatchInput<'_>,
    rng: &mut Rng,
) -> EpochStats {
    let labels = &input.labels;

    let f_src = model.user_features(&input.src_docs, DomainSide::Source, true, rng);
    let f_tgt = model.user_features(&input.tgt_docs, DomainSide::Target, true, rng);
    let items = model.item_features(&input.item_docs, true, rng);

    // L_rating (Eq. 19)
    let logits = model.rating_logits(&f_tgt.combined, &items, true, rng);
    let l_rating = logits.cross_entropy(labels);
    let mut loss = l_rating.scale(1.0);

    // L_SCL (Eq. 13) over both projected views
    let mut scl_value = 0.0f32;
    if cfg.use_scl {
        let x_src = model.project_pairs(&f_src.combined, &items, true, rng);
        let x_tgt = model.project_pairs(&f_tgt.combined, &items, true, rng);
        let mut batch = SupConBatch::new();
        batch.push(x_src, labels);
        batch.push(x_tgt, labels);
        let l_scl = batch.loss(cfg.temperature);
        scl_value = l_scl.item();
        loss = loss.add(&l_scl.scale(cfg.alpha));
    }

    // L_domain (Eqs. 15 + 17)
    let mut domain_value = 0.0f32;
    if cfg.use_da {
        let n = labels.len();
        let mut domain_labels = vec![DomainSide::Source.label(); n];
        domain_labels.extend(std::iter::repeat_n(DomainSide::Target.label(), n));

        let invariant = Tensor::concat_rows(&[&f_src.invariant, &f_tgt.invariant]);
        let l_inv = model
            .domain_logits_invariant(&invariant, true, rng)
            .cross_entropy(&domain_labels);
        let specific = Tensor::concat_rows(&[&f_src.specific, &f_tgt.specific]);
        let l_spec = model
            .domain_logits_specific(&specific, true, rng)
            .cross_entropy(&domain_labels);
        let l_domain = l_inv.add(&l_spec);
        domain_value = l_domain.item();
        loss = loss.add(&l_domain.scale(cfg.beta));
    }

    // Cold-start alignment (§4.1): cold users' auxiliary target documents
    // join the contrastive and adversarial modules so the extractors learn
    // to align exactly the representations used at serving time. No rating
    // labels are involved — only the users' source-domain documents and
    // generated auxiliary documents.
    if !input.align_users.is_empty() {
        let picks = &input.align_users;
        let k = picks.len();
        let src_docs: Vec<&[usize]> = picks.iter().map(|u| views.source_doc(*u)).collect();
        let aux_docs: Vec<&[usize]> = picks.iter().map(|u| views.aux_doc(*u)).collect();
        let f_src = model.user_features(&src_docs, DomainSide::Source, true, rng);
        let f_tgt = model.user_features(&aux_docs, DomainSide::Target, true, rng);

        if cfg.use_scl {
            // Per-user positive pairs: each user's source and aux-target
            // projections attract (Fig. 3, top). The neutral all-padding
            // item makes the pair a pure user-representation projection.
            let empty_items: Vec<&[usize]> = picks.iter().map(|_| views.empty_doc()).collect();
            let items = model.item_features(&empty_items, true, rng);
            let x_src = model.project_pairs(&f_src.combined, &items, true, rng);
            let x_tgt = model.project_pairs(&f_tgt.combined, &items, true, rng);
            let labels: Vec<usize> = (0..k).collect();
            let mut batch = SupConBatch::new();
            batch.push(x_src, &labels);
            batch.push(x_tgt, &labels);
            let l_align = batch.loss(cfg.temperature);
            loss = loss.add(&l_align.scale(cfg.alpha));
        }
        if cfg.use_da {
            let mut domain_labels = vec![DomainSide::Source.label(); k];
            domain_labels.extend(std::iter::repeat_n(DomainSide::Target.label(), k));
            let invariant = Tensor::concat_rows(&[&f_src.invariant, &f_tgt.invariant]);
            let l_inv = model
                .domain_logits_invariant(&invariant, true, rng)
                .cross_entropy(&domain_labels);
            let specific = Tensor::concat_rows(&[&f_src.specific, &f_tgt.specific]);
            let l_spec = model
                .domain_logits_specific(&specific, true, rng)
                .cross_entropy(&domain_labels);
            loss = loss.add(&l_inv.add(&l_spec).scale(cfg.beta));
        }
    }

    loss.backward();
    EpochStats {
        total: loss.item(),
        rating: l_rating.item(),
        scl: scl_value,
        domain: domain_value,
    }
}

/// A fitted OmniMatch model bound to its corpus views.
pub struct TrainedOmniMatch {
    cfg: OmniMatchConfig,
    model: OmniMatchModel,
    views: CorpusViews,
    report: TrainReport,
}

impl TrainedOmniMatch {
    /// The fitted network.
    pub fn model(&self) -> &OmniMatchModel {
        &self.model
    }

    /// The corpus views (vocabulary, documents) used in training.
    pub fn views(&self) -> &CorpusViews {
        &self.views
    }

    /// Training statistics.
    pub fn report(&self) -> &TrainReport {
        &self.report
    }

    /// Predict expected star ratings for user–item pairs. Cold-start users
    /// are served through their auxiliary target documents; unknown items
    /// fall back to an all-padding document.
    pub fn predict(&self, pairs: &[(UserId, ItemId)]) -> Vec<f32> {
        assert!(!pairs.is_empty(), "predict: empty batch");
        let _guard = no_grad();
        let mut rng = seeded_rng(self.cfg.seed ^ 0xE7A1);
        let mut out = Vec::with_capacity(pairs.len());
        for chunk in pairs.chunks(self.cfg.batch_size.max(2)) {
            let tgt_docs: Vec<&[usize]> = chunk
                .iter()
                .map(|(u, _)| self.views.target_doc(*u))
                .collect();
            let item_docs: Vec<&[usize]> = chunk
                .iter()
                .map(|(_, i)| self.views.item_doc(*i))
                .collect();
            let f_tgt = self
                .model
                .user_features(&tgt_docs, DomainSide::Target, false, &mut rng);
            let items = self.model.item_features(&item_docs, false, &mut rng);
            let logits = self
                .model
                .rating_logits(&f_tgt.combined, &items, false, &mut rng);
            out.extend(OmniMatchModel::expected_stars(&logits));
        }
        out
    }

    /// RMSE/MAE against gold interactions (Eqs. 22–23).
    pub fn evaluate(&self, gold: &[&Interaction]) -> Eval {
        assert!(!gold.is_empty(), "evaluate: empty gold set");
        let pairs: Vec<(UserId, ItemId)> = gold.iter().map(|it| (it.user, it.item)).collect();
        let preds = self.predict(&pairs);
        let scored: Vec<(f32, f32)> = preds
            .into_iter()
            .zip(gold.iter().map(|it| it.rating.value()))
            .collect();
        Eval::of(&scored)
    }

    /// Rank a candidate item set for one user by predicted rating and
    /// report top-K quality against a relevant set — the extension protocol
    /// (HR@K / NDCG@K) beyond the paper's RMSE/MAE.
    pub fn rank_items(&self, user: UserId, candidates: &[ItemId]) -> Vec<(ItemId, f32)> {
        self.rank_items_topk(user, candidates, candidates.len())
    }

    /// Partial top-`k` ranking of a candidate set — `om_metrics::topk`
    /// selection instead of a full sort, the same code path `om-serve`
    /// and [`om_metrics::RankedList`] use. NaN scores (diverged model)
    /// rank last instead of panicking; ties keep candidate order, exactly
    /// as the previous stable full sort did.
    pub fn rank_items_topk(
        &self,
        user: UserId,
        candidates: &[ItemId],
        k: usize,
    ) -> Vec<(ItemId, f32)> {
        assert!(!candidates.is_empty(), "rank_items: no candidates");
        let pairs: Vec<(UserId, ItemId)> = candidates.iter().map(|&i| (user, i)).collect();
        let scores = self.predict(&pairs);
        om_metrics::top_k_indices(&scores, k)
            .into_iter()
            .map(|i| (candidates[i], scores[i]))
            .collect()
    }

    /// Decompose into the owned parts a serving engine takes over
    /// (`om_serve::ServeEngine` holds the model and the corpus views for
    /// the lifetime of the process).
    pub fn into_parts(self) -> (OmniMatchModel, CorpusViews, TrainReport) {
        (self.model, self.views, self.report)
    }

    /// Export the fitted parameters as a minimal OMCK v2 checkpoint (one
    /// `params` section, CRC-protected) — the format `om_serve::load_model`
    /// consumes. The trainer's durable epoch checkpoints (`ckpt` module)
    /// carry the same `params` section plus optimizer/RNG state, so both
    /// kinds of file feed the serving loader.
    pub fn export_checkpoint(&self) -> bytes::Bytes {
        let mut v2 = CheckpointV2::new();
        v2.insert("params", encode_tensors(&self.model.params()));
        v2.encode()
    }

    /// Write [`TrainedOmniMatch::export_checkpoint`] to a file.
    pub fn write_checkpoint(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.export_checkpoint())
    }

    /// Diagnostic: supervised-contrastive alignment between a user's
    /// source and target projections for a given item (cosine in
    /// projection space). Used by tests to verify the SCL module moves
    /// representations the way Fig. 3 depicts.
    pub fn source_target_alignment(&self, user: UserId, item: ItemId) -> f32 {
        let _guard = no_grad();
        let mut rng = seeded_rng(0);
        let src = [self.views.source_doc(user)];
        let tgt = [self.views.target_doc(user)];
        let itm = [self.views.item_doc(item)];
        let f_src = self.model.user_features(&src, DomainSide::Source, false, &mut rng);
        let f_tgt = self.model.user_features(&tgt, DomainSide::Target, false, &mut rng);
        let items = self.model.item_features(&itm, false, &mut rng);
        let a = self
            .model
            .project_pairs(&f_src.combined, &items, false, &mut rng)
            .l2_normalize_rows();
        let b = self
            .model
            .project_pairs(&f_tgt.combined, &items, false, &mut rng)
            .l2_normalize_rows();
        a.mul(&b).sum_all().item()
    }
}

/// Predict the global rating mean — the trivial baseline used by tests to
/// confirm the model beats it.
pub fn mean_rating_baseline(scenario: &CrossDomainScenario) -> f32 {
    let interactions = scenario.target_train.interactions();
    if interactions.is_empty() {
        return (Rating::MIN + Rating::MAX) as f32 / 2.0;
    }
    // om-lint: reduction-ok(serial sum in interaction-slice order — one
    // thread, fixed iteration, deterministic by construction)
    interactions.iter().map(|it| it.rating.value()).sum::<f32>() / interactions.len() as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use om_data::{SplitConfig, SynthConfig, SynthWorld};
    use om_metrics::rmse;
    use std::collections::BTreeSet;

    fn quick_scenario() -> CrossDomainScenario {
        let world = SynthWorld::generate(SynthConfig::tiny(), &["Books", "Movies"]);
        world.scenario("Books", "Movies", SplitConfig::default())
    }

    #[test]
    fn training_reduces_loss() {
        let sc = quick_scenario();
        let trained = Trainer::new(OmniMatchConfig::fast().with_seed(3)).fit(&sc);
        let e = &trained.report().epochs;
        assert_eq!(e.len(), 3);
        assert!(
            e.last().unwrap().total < e.first().unwrap().total,
            "loss must decrease: {:?}",
            e
        );
    }

    #[test]
    fn predictions_are_in_star_range() {
        let sc = quick_scenario();
        let trained = Trainer::new(OmniMatchConfig::fast()).fit(&sc);
        let pairs: Vec<(UserId, ItemId)> = sc
            .test_pairs()
            .iter()
            .map(|it| (it.user, it.item))
            .collect();
        for p in trained.predict(&pairs) {
            assert!((1.0..=5.0).contains(&p), "prediction {p} out of range");
        }
    }

    #[test]
    fn beats_global_mean_baseline() {
        let sc = quick_scenario();
        let trained = Trainer::new(OmniMatchConfig::fast()).fit(&sc);
        let eval = trained.evaluate(&sc.test_pairs());
        let mean = mean_rating_baseline(&sc);
        let mean_pairs: Vec<(f32, f32)> = sc
            .test_pairs()
            .iter()
            .map(|it| (mean, it.rating.value()))
            .collect();
        let mean_rmse = rmse(&mean_pairs);
        // The fast() config is deliberately tiny (3 epochs, 12-d embeddings)
        // so this is a sanity bound, not a performance claim — the release
        // experiments (EXPERIMENTS.md) show the real margins.
        assert!(
            eval.rmse < mean_rmse * 1.25,
            "model rmse {} should not be far above mean-baseline {}",
            eval.rmse,
            mean_rmse
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let sc = quick_scenario();
        let a = Trainer::new(OmniMatchConfig::fast().with_seed(11)).fit(&sc);
        let b = Trainer::new(OmniMatchConfig::fast().with_seed(11)).fit(&sc);
        let pairs: Vec<(UserId, ItemId)> = sc
            .test_pairs()
            .iter()
            .take(5)
            .map(|it| (it.user, it.item))
            .collect();
        assert_eq!(a.predict(&pairs), b.predict(&pairs));
    }

    #[test]
    fn ablations_all_train() {
        let sc = quick_scenario();
        for cfg in [
            OmniMatchConfig::fast().without_scl(),
            OmniMatchConfig::fast().without_da(),
            OmniMatchConfig::fast().without_aux_reviews(),
        ] {
            let trained = Trainer::new(cfg).fit(&sc);
            let eval = trained.evaluate(&sc.test_pairs());
            assert!(eval.rmse.is_finite() && eval.rmse < 3.0, "rmse {}", eval.rmse);
        }
    }

    #[test]
    fn scl_disabled_reports_zero_scl_loss() {
        let sc = quick_scenario();
        let trained = Trainer::new(OmniMatchConfig::fast().without_scl()).fit(&sc);
        for e in &trained.report().epochs {
            assert_eq!(e.scl, 0.0);
        }
    }

    #[test]
    fn da_disabled_reports_zero_domain_loss() {
        let sc = quick_scenario();
        let trained = Trainer::new(OmniMatchConfig::fast().without_da()).fit(&sc);
        for e in &trained.report().epochs {
            assert_eq!(e.domain, 0.0);
        }
    }

    /// Names of the parameter groups that one real `train_batch` (the first
    /// batch of `plan_epoch`) on a fresh model leaves without a gradient.
    fn groups_without_gradient(cfg: &OmniMatchConfig) -> BTreeSet<&'static str> {
        let sc = quick_scenario();
        let mut rng = seeded_rng(cfg.seed);
        let views = CorpusViews::build(&sc, cfg, &mut rng);
        let model = OmniMatchModel::new(cfg, views.vocab.len(), None, &mut rng);
        let samples = training_samples(&sc);
        let inputs = plan_epoch(&views, cfg, &samples, &sc.cold_start_users(), &mut rng);
        train_batch(&model, &views, cfg, &inputs[0], &mut rng);
        let mut dead = BTreeSet::new();
        for (name, params) in model.param_groups() {
            let missing = params.iter().filter(|p| p.grad().is_none()).count();
            assert!(
                missing == 0 || missing == params.len(),
                "{name}: {missing} of {} tensors got no gradient",
                params.len()
            );
            if missing > 0 {
                dead.insert(name);
            }
        }
        dead
    }

    #[test]
    fn one_training_step_reaches_exactly_the_expected_parameters() {
        let cases: [(OmniMatchConfig, &[&str]); 8] = [
            (OmniMatchConfig::fast(), &[]),
            (OmniMatchConfig::default(), &[]),
            (OmniMatchConfig::fast().with_transformer(), &[]),
            (OmniMatchConfig::fast().without_aux_reviews(), &[]),
            // The §4.1 alignment terms also reach `proj` and the domain
            // classifiers; without them Eq. 21's own terms must.
            (
                OmniMatchConfig {
                    align_cold_users: false,
                    ..OmniMatchConfig::fast()
                },
                &[],
            ),
            (OmniMatchConfig::fast().without_scl(), &["proj"]),
            (
                OmniMatchConfig::fast().without_da(),
                &["domain_clf_invariant", "domain_clf_specific"],
            ),
            // Only L_rating is left, and it never sees the source domain.
            (
                OmniMatchConfig::fast().without_scl().without_da(),
                &[
                    "src_backbone",
                    "src_specific",
                    "proj",
                    "domain_clf_invariant",
                    "domain_clf_specific",
                ],
            ),
        ];
        for (cfg, want) in cases {
            let want: BTreeSet<&str> = want.iter().copied().collect();
            assert_eq!(
                groups_without_gradient(&cfg),
                want,
                "extractor {:?}, use_scl {}, use_da {}, aux {:?}, align {}",
                cfg.extractor,
                cfg.use_scl,
                cfg.use_da,
                cfg.aux_mode,
                cfg.align_cold_users
            );
        }
    }

    #[test]
    fn report_tracks_time_and_samples() {
        let sc = quick_scenario();
        let trained = Trainer::new(OmniMatchConfig::fast()).fit(&sc);
        assert!(trained.report().train_seconds > 0.0);
        assert_eq!(trained.report().samples, sc.target_train.len());
    }
}
