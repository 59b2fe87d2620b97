//! The OmniMatch network (Fig. 2, components B–D):
//!
//! * shared-private feature extraction (§4.2): per-domain backbones with
//!   *private* (domain-specific) heads and one *shared* (domain-invariant)
//!   head whose weights are common to the source and target extractors;
//! * the contrastive projection head `Proj(·)` (Eq. 11);
//! * the gradient-reversal domain classifiers (Eqs. 14–17) — the invariant
//!   features pass through a GRL so the extractor is trained to *confuse*
//!   the domain classifier, while the specific features are classified
//!   normally so they stay genuinely domain-specific (the shared-private
//!   paradigm of Bousmalis et al.);
//! * the rating classifier over `r_target ⊕ r_item` (Eqs. 18–19).

use std::cell::Ref;

use om_data::types::Rating;
use om_nn::{Dropout, Embedding, HasParams, Linear, Mlp, TextCnn, TransformerEncoder};
use om_tensor::{kernels, Rng, Tensor};

use crate::config::{ExtractorKind, OmniMatchConfig};

/// Which side of the cross-domain pair a user document comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DomainSide {
    /// The source domain (label 0 for the domain classifiers).
    Source,
    /// The target domain (label 1).
    Target,
}

impl DomainSide {
    /// Class label for the domain classifiers.
    pub fn label(self) -> usize {
        match self {
            DomainSide::Source => 0,
            DomainSide::Target => 1,
        }
    }
}

/// Text backbone: TextCNN (paper default) or transformer (`OmniMatch-BERT`).
enum Backbone {
    Cnn(TextCnn),
    Transformer(TransformerEncoder),
}

impl Backbone {
    fn build(cfg: &OmniMatchConfig, rng: &mut Rng) -> Backbone {
        match cfg.extractor {
            ExtractorKind::TextCnn => Backbone::Cnn(TextCnn::new(
                cfg.emb_dim,
                &cfg.kernel_widths,
                cfg.filters,
                rng,
            )),
            ExtractorKind::Transformer => Backbone::Transformer(TransformerEncoder::new(
                cfg.emb_dim,
                2,
                cfg.emb_dim * 2,
                1,
                cfg.doc_len,
                rng,
            )),
        }
    }

    fn out_dim(&self) -> usize {
        match self {
            Backbone::Cnn(c) => c.out_dim(),
            Backbone::Transformer(t) => t.out_dim(),
        }
    }

    fn forward(&self, embedded: &Tensor) -> Tensor {
        match self {
            Backbone::Cnn(c) => c.forward(embedded),
            Backbone::Transformer(t) => t.forward(embedded),
        }
    }

    fn params(&self) -> Vec<Tensor> {
        match self {
            Backbone::Cnn(c) => c.params(),
            Backbone::Transformer(t) => t.params(),
        }
    }
}

/// The extracted user features of one domain (Eqs. 8–10).
pub struct UserFeatures {
    /// Domain-invariant representation `r_invariant` (shared head).
    pub invariant: Tensor,
    /// Domain-specific representation `r_specific` (private head).
    pub specific: Tensor,
    /// `r = r_invariant ⊕ r_specific` (Eq. 10).
    pub combined: Tensor,
}

/// The full OmniMatch network.
pub struct OmniMatchModel {
    cfg: OmniMatchConfig,
    /// Shared token embedding (stands in for the paper's fastText input).
    pub embedding: Embedding,
    src_backbone: Backbone,
    tgt_backbone: Backbone,
    item_backbone: Backbone,
    /// Shared domain-invariant head — identical weights for source and
    /// target, the crux of §4.2.
    shared_invariant: Linear,
    src_specific: Linear,
    tgt_specific: Linear,
    item_head: Linear,
    proj: Mlp,
    domain_clf_invariant: Mlp,
    domain_clf_specific: Mlp,
    rating_clf: Mlp,
    dropout: Dropout,
}

impl OmniMatchModel {
    /// Initialise all parameters. `embedding_init` may carry a pretrained
    /// table (subword-hash / skip-gram); pass `None` for random init.
    pub fn new(cfg: &OmniMatchConfig, vocab_size: usize, embedding_init: Option<Tensor>, rng: &mut Rng) -> OmniMatchModel {
        cfg.validate();
        let embedding = match embedding_init {
            Some(t) => {
                assert_eq!(t.dims(), &[vocab_size, cfg.emb_dim], "bad embedding init shape");
                Embedding::from_table(t)
            }
            None => Embedding::new(vocab_size, cfg.emb_dim, rng),
        };
        let src_backbone = Backbone::build(cfg, rng);
        let tgt_backbone = Backbone::build(cfg, rng);
        let item_backbone = Backbone::build(cfg, rng);
        let feat = src_backbone.out_dim();
        let user_dim = cfg.invariant_dim + cfg.specific_dim;
        let pair_dim = user_dim + cfg.item_dim;
        OmniMatchModel {
            embedding,
            shared_invariant: Linear::new(feat, cfg.invariant_dim, rng),
            src_specific: Linear::new(feat, cfg.specific_dim, rng),
            tgt_specific: Linear::new(feat, cfg.specific_dim, rng),
            item_head: Linear::new(feat, cfg.item_dim, rng),
            proj: Mlp::new(&[pair_dim, pair_dim, cfg.proj_dim], cfg.dropout, rng),
            domain_clf_invariant: Mlp::new(
                &[cfg.invariant_dim, cfg.invariant_dim, 2],
                cfg.dropout,
                rng,
            ),
            domain_clf_specific: Mlp::new(
                &[cfg.specific_dim, cfg.specific_dim, 2],
                cfg.dropout,
                rng,
            ),
            rating_clf: Mlp::new(
                &[pair_dim, pair_dim, Rating::CLASSES],
                cfg.dropout,
                rng,
            ),
            dropout: Dropout::new(cfg.dropout),
            src_backbone,
            tgt_backbone,
            item_backbone,
            cfg: cfg.clone(),
        }
    }

    /// The configuration this model was built with.
    pub fn config(&self) -> &OmniMatchConfig {
        &self.cfg
    }

    /// Embed a batch of equal-length documents → `[batch, len, emb]`.
    pub fn embed_docs(&self, docs: &[&[usize]]) -> Tensor {
        assert!(!docs.is_empty(), "embed_docs: empty batch");
        let len = docs[0].len();
        let flat: Vec<usize> = docs
            .iter()
            .flat_map(|d| {
                assert_eq!(d.len(), len, "embed_docs: ragged documents");
                d.iter().copied()
            })
            .collect();
        self.embedding
            .forward(&flat)
            .reshape(&[docs.len(), len, self.cfg.emb_dim])
    }

    /// Extract user features from documents of one domain (Eqs. 4–10).
    pub fn user_features(
        &self,
        docs: &[&[usize]],
        side: DomainSide,
        training: bool,
        rng: &mut Rng,
    ) -> UserFeatures {
        let embedded = self.embed_docs(docs);
        let (backbone, specific_head) = match side {
            DomainSide::Source => (&self.src_backbone, &self.src_specific),
            DomainSide::Target => (&self.tgt_backbone, &self.tgt_specific),
        };
        let pooled = backbone.forward(&embedded);
        let invariant = self.dropout.forward(
            &self.shared_invariant.forward(&pooled).relu(),
            training,
            rng,
        );
        let specific =
            self.dropout
                .forward(&specific_head.forward(&pooled).relu(), training, rng);
        let combined = Tensor::concat_cols(&[&invariant, &specific]);
        UserFeatures {
            invariant,
            specific,
            combined,
        }
    }

    /// Incremental user-tower encode entry point: combined target-side
    /// feature rows (`[docs.len(), invariant_dim + specific_dim]`,
    /// row-major) for already-encoded target documents, under
    /// [`om_nn::inference_mode`] with nothing drawn from any RNG.
    ///
    /// This is the *one* code path all serving-side user rows flow
    /// through — the offline `UserArena` precompute, the cold per-request
    /// tower pass, and the online re-encode of a graduating user — so the
    /// bitwise-parity contract between them reduces to the kernels'
    /// row-independence, which `tests/` pin. Callers that batch documents
    /// may chunk freely: each row depends only on its own document.
    pub fn user_target_rows(&self, docs: &[&[usize]]) -> Vec<f32> {
        let _mode = om_nn::inference_mode();
        // Never drawn from under inference mode; the signature demands one.
        let mut rng = om_tensor::seeded_rng(0);
        self.user_features(docs, DomainSide::Target, false, &mut rng)
            .combined
            .data()
            .to_vec()
    }

    /// Extract item features (§4.2: items use only the shared-style head).
    pub fn item_features(&self, docs: &[&[usize]], training: bool, rng: &mut Rng) -> Tensor {
        let embedded = self.embed_docs(docs);
        let pooled = self.item_backbone.forward(&embedded);
        self.dropout
            .forward(&self.item_head.forward(&pooled).relu(), training, rng)
    }

    /// Project a `r_user ⊕ r_item` pair batch for contrastive learning
    /// (Eq. 11).
    pub fn project_pairs(
        &self,
        user: &Tensor,
        item: &Tensor,
        training: bool,
        rng: &mut Rng,
    ) -> Tensor {
        let pair = Tensor::concat_cols(&[user, item]);
        self.proj.forward(&pair, training, rng)
    }

    /// Rating logits for `r_target ⊕ r_item` (Eq. 18).
    pub fn rating_logits(
        &self,
        user_target: &Tensor,
        item: &Tensor,
        training: bool,
        rng: &mut Rng,
    ) -> Tensor {
        let pair = Tensor::concat_cols(&[user_target, item]);
        self.rating_clf.forward(&pair, training, rng)
    }

    /// Rating logits for pre-assembled `r_target ⊕ r_item` rows — the
    /// reference decomposition of serving. A cross join built with
    /// `om_tensor::kernels::pair_rows`, scored here and passed through
    /// [`OmniMatchModel::expected_stars`], is what the serving engine's
    /// [`PairBlockScorer`] must equal bit for bit (it computes the same
    /// float operations without building the cross join). Because
    /// [`Tensor::concat_cols`] only copies, this is also bitwise identical
    /// to [`OmniMatchModel::rating_logits`] over the same rows.
    pub fn rating_logits_from_pairs(
        &self,
        pairs: &Tensor,
        training: bool,
        rng: &mut Rng,
    ) -> Tensor {
        self.rating_clf.forward(pairs, training, rng)
    }

    /// The serving form of the rating head for one microbatch: `user_rows`
    /// is `[B, invariant_dim + specific_dim]`, row-major. Computes each
    /// row's layer-1 user partial once; [`PairBlockScorer::score`] then
    /// scores any block of item rows against any of the `B` users. See
    /// [`PairBlockScorer`] for why the scores are bitwise those of
    /// [`OmniMatchModel::rating_logits_from_pairs`].
    pub fn pair_block_scorer(&self, user_rows: &[f32]) -> PairBlockScorer<'_> {
        PairBlockScorer::new(self, user_rows)
    }

    /// Domain logits for *invariant* features, behind the gradient
    /// reversal layer (Eqs. 14–15 + GRL of §4.4).
    pub fn domain_logits_invariant(
        &self,
        invariant: &Tensor,
        training: bool,
        rng: &mut Rng,
    ) -> Tensor {
        let reversed = invariant.gradient_reversal(self.cfg.grl_lambda);
        self.domain_clf_invariant.forward(&reversed, training, rng)
    }

    /// Domain logits for *specific* features, trained normally
    /// (Eqs. 16–17).
    pub fn domain_logits_specific(
        &self,
        specific: &Tensor,
        training: bool,
        rng: &mut Rng,
    ) -> Tensor {
        self.domain_clf_specific.forward(specific, training, rng)
    }

    /// Convert rating logits into expected star values
    /// `ŷ = Σ_k (k+1)·p_k` — the scalar predictions scored by RMSE/MAE.
    pub fn expected_stars(logits: &Tensor) -> Vec<f32> {
        let probs = logits.softmax_rows();
        let (m, n) = probs.shape().as_2d();
        debug_assert_eq!(n, Rating::CLASSES);
        let d = probs.data();
        (0..m)
            .map(|i| {
                (0..n)
                    .map(|k| d[i * n + k] * (k + 1) as f32)
                    // om-lint: reduction-ok(serial sum over the 5 rating
                    // classes in fixed k order, per row — deterministic)
                    .sum()
            })
            .collect()
    }
}

/// The rating head in serving form: scores `users[b] ⊕ items[i]` pairs
/// without building the `[pairs, user_dim + item_dim]` cross join.
///
/// Layer 1's sum over a pair row runs in `p` order through the user
/// columns, then the item columns, and its user half is the same for
/// every item. So the scorer computes each user's partial
/// `P = u·W1[..user_dim]` once, seeds every row of an item block with it,
/// and lets `kernels::gemm(items, W1[user_dim..], block)` continue the
/// same per-element sum (`gemm` accumulates into `c` in `p` order). Bias,
/// ReLU, layer 2 and [`OmniMatchModel::expected_stars`] then run as the
/// reference does, so each score is the float-op sequence of
/// `pair_rows` → [`OmniMatchModel::rating_logits_from_pairs`] →
/// `expected_stars` — bit for bit — while layer 1 does `item_dim` of the
/// reference's `user_dim + item_dim` multiply-adds per pair.
///
/// The split keeps the order of the sum. Splitting it the other way,
/// `W_u·u + (W_i·i + b)`, would re-associate it and round differently.
///
/// Inference only: no dropout, no autograd tape. Holds shared borrows
/// of the head's parameters until dropped.
pub struct PairBlockScorer<'m> {
    w1: Ref<'m, Vec<f32>>,
    b1: Ref<'m, Vec<f32>>,
    w2: Ref<'m, Vec<f32>>,
    b2: Ref<'m, Vec<f32>>,
    user_dim: usize,
    item_dim: usize,
    hidden: usize,
    classes: usize,
    /// `[B, hidden]` layer-1 user partials.
    partials: Vec<f32>,
    /// `[rows, hidden]` layer-1 block, reused across calls.
    block: Vec<f32>,
}

impl<'m> PairBlockScorer<'m> {
    fn new(model: &'m OmniMatchModel, user_rows: &[f32]) -> PairBlockScorer<'m> {
        let [l1, l2] = model.rating_clf.layers() else {
            panic!("rating head: expected two layers");
        };
        let user_dim = model.cfg.invariant_dim + model.cfg.specific_dim;
        let (hidden, classes) = (l1.out_dim(), l2.out_dim());
        assert_eq!(
            user_rows.len() % user_dim,
            0,
            "pair_block_scorer: ragged user rows"
        );
        let w1 = l1.weight.data();
        let batch = user_rows.len() / user_dim;
        let mut partials = vec![0.0f32; batch * hidden];
        kernels::gemm(
            user_rows,
            &w1[..user_dim * hidden],
            &mut partials,
            batch,
            user_dim,
            hidden,
        );
        PairBlockScorer {
            w1,
            b1: l1.bias.data(),
            w2: l2.weight.data(),
            b2: l2.bias.data(),
            user_dim,
            item_dim: model.cfg.item_dim,
            hidden,
            classes,
            partials,
            block: Vec::new(),
        }
    }

    /// Number of users (rows of `user_rows`) this scorer holds.
    pub fn users(&self) -> usize {
        self.partials.len() / self.hidden
    }

    /// Expected stars of user `b` against every row of `items`
    /// (`[rows, item_dim]`, row-major), in row order:
    /// [`OmniMatchModel::expected_stars`] of [`PairBlockScorer::logits`].
    pub fn score(&mut self, b: usize, items: &[f32]) -> Vec<f32> {
        OmniMatchModel::expected_stars(&self.logits(b, items))
    }

    /// Rating logits `[rows, classes]` of user `b` against every row of
    /// `items` — bitwise those of
    /// [`OmniMatchModel::rating_logits_from_pairs`] over the same pairs.
    pub fn logits(&mut self, b: usize, items: &[f32]) -> Tensor {
        let (h, di, c) = (self.hidden, self.item_dim, self.classes);
        assert!(b < self.users(), "pair_block_scorer: user {b} out of range");
        assert_eq!(items.len() % di, 0, "pair_block_scorer: ragged item rows");
        let rows = items.len() / di;
        let partial = &self.partials[b * h..(b + 1) * h];
        self.block.clear();
        self.block.reserve_exact(rows * h);
        for _ in 0..rows {
            self.block.extend_from_slice(partial);
        }
        kernels::gemm(
            items,
            &self.w1[self.user_dim * h..],
            &mut self.block,
            rows,
            di,
            h,
        );
        for row in self.block.chunks_exact_mut(h) {
            for (v, &bias) in row.iter_mut().zip(self.b1.iter()) {
                *v = (*v + bias).max(0.0);
            }
        }
        let mut logits = vec![0.0f32; rows * c];
        kernels::gemm(&self.block, &self.w2, &mut logits, rows, h, c);
        for row in logits.chunks_exact_mut(c) {
            for (v, &bias) in row.iter_mut().zip(self.b2.iter()) {
                *v += bias;
            }
        }
        Tensor::from_vec(logits, &[rows, c])
    }
}

impl HasParams for OmniMatchModel {
    fn params(&self) -> Vec<Tensor> {
        let mut p = self.embedding.params();
        p.extend(self.src_backbone.params());
        p.extend(self.tgt_backbone.params());
        p.extend(self.item_backbone.params());
        p.extend(self.shared_invariant.params());
        p.extend(self.src_specific.params());
        p.extend(self.tgt_specific.params());
        p.extend(self.item_head.params());
        p.extend(self.proj.params());
        p.extend(self.domain_clf_invariant.params());
        p.extend(self.domain_clf_specific.params());
        p.extend(self.rating_clf.params());
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use om_tensor::seeded_rng;

    fn model() -> (OmniMatchModel, om_tensor::Rng) {
        let cfg = OmniMatchConfig::fast();
        let mut rng = seeded_rng(1);
        let m = OmniMatchModel::new(&cfg, 100, None, &mut rng);
        (m, rng)
    }

    fn docs(n: usize, len: usize) -> Vec<Vec<usize>> {
        (0..n).map(|i| (0..len).map(|j| (i * 7 + j) % 100).collect()).collect()
    }

    #[test]
    fn feature_shapes() {
        let (m, mut rng) = model();
        let d = docs(4, 16);
        let refs: Vec<&[usize]> = d.iter().map(Vec::as_slice).collect();
        let f = m.user_features(&refs, DomainSide::Source, false, &mut rng);
        assert_eq!(f.invariant.dims(), &[4, 12]);
        assert_eq!(f.specific.dims(), &[4, 12]);
        assert_eq!(f.combined.dims(), &[4, 24]);
        let item = m.item_features(&refs, false, &mut rng);
        assert_eq!(item.dims(), &[4, 12]);
        let logits = m.rating_logits(&f.combined, &item, false, &mut rng);
        assert_eq!(logits.dims(), &[4, 5]);
        let proj = m.project_pairs(&f.combined, &item, false, &mut rng);
        assert_eq!(proj.dims(), &[4, 12]);
    }

    #[test]
    fn shared_head_is_actually_shared() {
        let (m, mut rng) = model();
        let d = docs(2, 16);
        let refs: Vec<&[usize]> = d.iter().map(Vec::as_slice).collect();
        // gradient through the source path must hit the same shared tensor
        let f = m.user_features(&refs, DomainSide::Source, false, &mut rng);
        f.invariant.sum_all().backward();
        assert!(m.shared_invariant.weight.grad_vec().is_some());
        m.zero_grad();
        let f = m.user_features(&refs, DomainSide::Target, false, &mut rng);
        f.combined.sum_all().backward();
        assert!(
            m.shared_invariant.weight.grad_vec().is_some(),
            "target path must flow through the shared invariant head"
        );
        // and private heads stay private: the source head is untouched by
        // a target-side pass, while the target head receives gradient
        assert!(m.src_specific.weight.grad_vec().is_none());
        assert!(m.tgt_specific.weight.grad_vec().is_some());
    }

    #[test]
    fn grl_reverses_feature_gradients() {
        let (m, mut rng) = model();
        let d = docs(2, 16);
        let refs: Vec<&[usize]> = d.iter().map(Vec::as_slice).collect();

        // Through the GRL, the gradient wrt the invariant features must be
        // the exact negative of the same loss taken without the GRL.
        let f = m.user_features(&refs, DomainSide::Source, false, &mut rng);
        let inv = f.invariant.detach().requires_grad();
        let logits = m.domain_logits_invariant(&inv, false, &mut seeded_rng(9));
        logits.cross_entropy(&[0, 0]).backward();
        let with_grl = inv.grad_vec().unwrap();

        let inv2 = f.invariant.detach().requires_grad();
        let logits2 = m
            .domain_clf_invariant
            .forward(&inv2, false, &mut seeded_rng(9));
        logits2.cross_entropy(&[0, 0]).backward();
        let without = inv2.grad_vec().unwrap();

        for (a, b) in with_grl.iter().zip(&without) {
            assert!((a + b).abs() < 1e-6, "GRL must negate: {a} vs {b}");
        }
    }

    #[test]
    fn expected_stars_bounds() {
        let logits = Tensor::from_vec(vec![100.0, 0.0, 0.0, 0.0, 0.0,
                                           0.0, 0.0, 0.0, 0.0, 100.0], &[2, 5]);
        let stars = OmniMatchModel::expected_stars(&logits);
        assert!((stars[0] - 1.0).abs() < 1e-3);
        assert!((stars[1] - 5.0).abs() < 1e-3);
    }

    #[test]
    fn pair_block_scorer_equals_the_pair_rows_reference_bitwise() {
        let (m, mut rng) = model();
        // Non-zero biases so the bias adds are exercised too.
        for layer in m.rating_clf.layers() {
            let n = layer.bias.numel();
            let b = om_tensor::init::uniform(&[n], -0.5, 0.5, &mut rng).to_vec();
            layer.bias.data_mut().copy_from_slice(&b);
        }
        let cfg = m.config().clone();
        let (du, di) = (cfg.invariant_dim + cfg.specific_dim, cfg.item_dim);
        let (users, items) = (5, 13);
        // ReLU-like rows: exact zeros, and one all-zero user and item row.
        let relu = |n: usize, rng: &mut om_tensor::Rng| -> Vec<f32> {
            let mut v = om_tensor::init::uniform(&[n], -1.0, 1.0, rng).to_vec();
            v.iter_mut().for_each(|x| *x = x.max(0.0));
            v
        };
        let mut u = relu(users * du, &mut rng);
        u[2 * du..3 * du].fill(0.0);
        let mut it = relu(items * di, &mut rng);
        it[..di].fill(0.0);

        let _mode = om_nn::inference_mode();
        let pairs = om_tensor::kernels::pair_rows(&u, &it, du, di);
        let pairs = Tensor::from_vec(pairs, &[users * items, du + di]);
        let want_logits = m.rating_logits_from_pairs(&pairs, false, &mut rng);
        let want = OmniMatchModel::expected_stars(&want_logits);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        let mut head = m.pair_block_scorer(&u);
        assert_eq!(head.users(), users);
        for b in 0..users {
            let c = Rating::CLASSES;
            assert_eq!(
                bits(&head.logits(b, &it).to_vec()),
                bits(&want_logits.to_vec()[b * items * c..(b + 1) * items * c]),
                "logits of user {b}"
            );
            // Whole catalogue, then in uneven blocks: same bits either way.
            let whole = head.score(b, &it);
            let blocks: Vec<f32> = it
                .chunks(3 * di)
                .flat_map(|blk| head.score(b, blk))
                .collect();
            for got in [&whole, &blocks] {
                assert_eq!(
                    bits(got),
                    bits(&want[b * items..(b + 1) * items]),
                    "user {b}"
                );
            }
        }
    }

    #[test]
    fn transformer_backbone_builds() {
        let cfg = OmniMatchConfig::fast().with_transformer();
        let mut rng = seeded_rng(2);
        let m = OmniMatchModel::new(&cfg, 50, None, &mut rng);
        let d = docs(2, 16);
        let refs: Vec<&[usize]> = d.iter().map(Vec::as_slice).collect();
        let f = m.user_features(&refs, DomainSide::Target, false, &mut rng);
        assert_eq!(f.combined.dims(), &[2, 24]);
    }

    #[test]
    fn param_count_is_substantial_and_stable() {
        let (m, _) = model();
        let n = m.num_params();
        let (m2, _) = model();
        assert_eq!(n, m2.num_params());
        assert!(n > 1000, "suspiciously few parameters: {n}");
    }

    #[test]
    fn pretrained_embedding_is_used() {
        let cfg = OmniMatchConfig::fast();
        let mut rng = seeded_rng(3);
        let table = Tensor::full(&[100, cfg.emb_dim], 0.5);
        let m = OmniMatchModel::new(&cfg, 100, Some(table), &mut rng);
        assert_eq!(m.embedding.table.to_vec()[0], 0.5);
    }
}
