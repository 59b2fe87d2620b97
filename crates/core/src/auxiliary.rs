//! The Auxiliary Reviews Generation Module (§4.1, Algorithm 1).
//!
//! For every cold-start user `u ∈ U^cs` and every purchase record of `u`
//! in the source domain, find the *like-minded* users — overlapping users
//! who gave the same item the same rating — pick one at random, pick one of
//! their target-domain reviews at random, and append it to `u`'s auxiliary
//! document. One review per source record keeps the aggregate broad, which
//! §4.1 argues mitigates single-review bias.
//!
//! With the two preprocessed dictionaries held by [`om_data::Domain`], every
//! lookup is O(1), so the whole pass is `O(N·M + L·M·Q)` as analysed in
//! §4.1 — the `algorithm1/*` rows of om-bench's `bench_json` demonstrate
//! this empirically.

use std::collections::BTreeSet;

use om_data::split::CrossDomainScenario;
use om_data::types::{Interaction, ItemId, Rating, TextField, UserId};
use om_data::Domain;
use om_tensor::Rng;
use rand::seq::IndexedRandom;
use rand::RngExt as _;

/// One iteration of Algorithm 1's inner loop, kept for the §5.10-style
/// case-study trace.
#[derive(Debug, Clone)]
pub struct AuxiliaryStep {
    /// The item the cold-start user reviewed in the source domain.
    pub source_item: ItemId,
    /// The shared rating.
    pub rating: Rating,
    /// The cold-start user's own source review text.
    pub source_review: String,
    /// How many like-minded training users were available.
    pub like_minded_pool: usize,
    /// The randomly selected like-minded user.
    pub chosen_user: UserId,
    /// The auxiliary review taken from that user's target history.
    pub aux_review: String,
}

/// The auxiliary document generated for one cold-start user: the reviews
/// (concatenated downstream with `<sp>`, §5.10) plus the per-record trace.
#[derive(Debug, Clone)]
pub struct AuxiliaryDocument {
    /// The cold-start user.
    pub user: UserId,
    /// Auxiliary reviews, one per matched source record.
    pub reviews: Vec<String>,
    /// The full generation trace.
    pub steps: Vec<AuxiliaryStep>,
}

impl AuxiliaryDocument {
    /// Render the §5.10 concatenation: reviews joined by ` <sp> `.
    pub fn concatenated(&self) -> String {
        self.reviews.join(" <sp> ")
    }

    /// Whether Algorithm 1 found at least one like-minded review.
    pub fn is_empty(&self) -> bool {
        self.reviews.is_empty()
    }
}

/// Generator bound to one cross-domain scenario.
pub struct AuxiliaryReviewGenerator<'a> {
    source: &'a Domain,
    target_train: &'a Domain,
    train_users: BTreeSet<UserId>,
}

impl<'a> AuxiliaryReviewGenerator<'a> {
    /// Bind to a scenario: like-minded candidates are restricted to the
    /// scenario's *training* users (Algorithm 1 line 10 — the candidate
    /// must be in `U°`, i.e. have visible target-domain history).
    pub fn new(scenario: &'a CrossDomainScenario) -> Self {
        AuxiliaryReviewGenerator {
            source: &scenario.source,
            target_train: &scenario.target_train,
            train_users: scenario.train_users.iter().copied().collect(),
        }
    }

    /// Construct directly from domains (for tests / custom pipelines).
    pub fn from_parts(
        source: &'a Domain,
        target_train: &'a Domain,
        train_users: impl IntoIterator<Item = UserId>,
    ) -> Self {
        AuxiliaryReviewGenerator {
            source,
            target_train,
            train_users: train_users.into_iter().collect(),
        }
    }

    /// Algorithm 1 for a single cold-start user.
    pub fn generate(&self, user: UserId, field: TextField, rng: &mut Rng) -> AuxiliaryDocument {
        let mut reviews = Vec::new();
        let mut steps = Vec::new();
        // line 4: u's purchase records in the source domain
        let records: Vec<&Interaction> = self.source.user_records(user).collect();
        for record in records {
            // line 7: like-minded users — same item, same rating
            let like_minded_s = self.source.like_minded(record.item, record.rating);
            // lines 8–11: keep those in the (visible) overlapping set,
            // never the cold-start user themself
            let like_minded_t: Vec<UserId> = like_minded_s
                .iter()
                .copied()
                .filter(|lm| *lm != user && self.train_users.contains(lm))
                .collect();
            // line 12: random like-minded user (skip when none exists —
            // `random(∅)` is undefined in the paper's pseudocode)
            let Some(&aux_user) = like_minded_t.choose(rng) else {
                continue;
            };
            // line 13: that user's target-domain purchase records
            let aux_records: Vec<&Interaction> =
                self.target_train.user_records(aux_user).collect();
            // line 14–15: random record → its review
            let Some(aux_record) = aux_records.choose(rng) else {
                continue;
            };
            let aux_review = aux_record.text(field).to_owned();
            steps.push(AuxiliaryStep {
                source_item: record.item,
                rating: record.rating,
                source_review: record.text(field).to_owned(),
                like_minded_pool: like_minded_t.len(),
                chosen_user: aux_user,
                aux_review: aux_review.clone(),
            });
            reviews.push(aux_review);
        }
        AuxiliaryDocument {
            user,
            reviews,
            steps,
        }
    }

    /// Algorithm 1 over a user set (`U_AUX_DOC` of the pseudocode).
    ///
    /// Runs in two phases so the result is a pure function of `rng`'s state
    /// at any thread count: one derived seed per user is drawn sequentially,
    /// then the per-user generations — now independent — fan out over the
    /// tensor runtime's worker pool.
    pub fn generate_all(
        &self,
        users: &[UserId],
        field: TextField,
        rng: &mut Rng,
    ) -> Vec<AuxiliaryDocument> {
        let seeds: Vec<u64> = users.iter().map(|_| rng.random()).collect();
        let mut docs: Vec<AuxiliaryDocument> = users
            .iter()
            .map(|&u| AuxiliaryDocument {
                user: u,
                reviews: Vec::new(),
                steps: Vec::new(),
            })
            .collect();
        om_tensor::runtime::parallel_rows_mut(&mut docs, 1, 2, |i0, block| {
            for (d, slot) in block.iter_mut().enumerate() {
                let mut local = om_tensor::seeded_rng(seeds[i0 + d]);
                *slot = self.generate(users[i0 + d], field, &mut local);
            }
        });
        docs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use om_tensor::seeded_rng;

    fn r(stars: u8) -> Rating {
        Rating::new(stars).unwrap()
    }

    /// Source: cold user 1 rated items 10 (5★) and 11 (4★).
    /// User 2 is train and like-minded on both; user 3 only on item 10 but
    /// with a different rating; user 4 is like-minded but not a train user.
    fn fixture() -> (Domain, Domain) {
        let source = Domain::new(
            "Books",
            vec![
                Interaction::new(UserId(1), ItemId(10), r(5), "vampire romance"),
                Interaction::new(UserId(2), ItemId(10), r(5), "fang tastic"),
                Interaction::new(UserId(3), ItemId(10), r(2), "boring"),
                Interaction::new(UserId(4), ItemId(10), r(5), "undead love"),
                Interaction::new(UserId(1), ItemId(11), r(4), "adventure"),
                Interaction::new(UserId(2), ItemId(11), r(4), "great quest"),
            ],
        );
        let target_train = Domain::new(
            "Movies",
            vec![
                Interaction::new(UserId(2), ItemId(50), r(5), "sexy vampire movie"),
                Interaction::new(UserId(2), ItemId(51), r(4), "boogeyman scares"),
                Interaction::new(UserId(3), ItemId(50), r(1), "fell asleep"),
            ],
        );
        (source, target_train)
    }

    #[test]
    fn generates_one_review_per_matched_record() {
        let (s, t) = fixture();
        let g = AuxiliaryReviewGenerator::from_parts(&s, &t, [UserId(2), UserId(3)]);
        let doc = g.generate(UserId(1), TextField::Summary, &mut seeded_rng(1));
        // both source records match like-minded train user 2
        assert_eq!(doc.reviews.len(), 2);
        assert_eq!(doc.steps.len(), 2);
        for step in &doc.steps {
            assert_eq!(step.chosen_user, UserId(2));
            assert!(
                step.aux_review.contains("vampire") || step.aux_review.contains("boogeyman")
            );
        }
    }

    #[test]
    fn rating_must_match_exactly() {
        let (s, t) = fixture();
        // user 3 rated item 10 with 2★, not 5★ — never like-minded for it
        let g = AuxiliaryReviewGenerator::from_parts(&s, &t, [UserId(3)]);
        let doc = g.generate(UserId(1), TextField::Summary, &mut seeded_rng(2));
        assert!(doc.is_empty(), "2★ rater must not match a 5★ record");
    }

    #[test]
    fn non_train_users_are_excluded() {
        let (s, t) = fixture();
        // user 4 is like-minded on item 10 but not in the training set
        let g = AuxiliaryReviewGenerator::from_parts(&s, &t, [UserId(4)]);
        let doc = g.generate(UserId(1), TextField::Summary, &mut seeded_rng(3));
        assert!(doc.is_empty());
    }

    #[test]
    fn self_is_never_like_minded() {
        let (s, t) = fixture();
        // even if the cold user were in the train set, they must not donate
        // reviews to themselves
        let g = AuxiliaryReviewGenerator::from_parts(&s, &t, [UserId(1)]);
        let doc = g.generate(UserId(1), TextField::Summary, &mut seeded_rng(4));
        assert!(doc.is_empty());
    }

    #[test]
    fn deterministic_given_seed() {
        let (s, t) = fixture();
        let g = AuxiliaryReviewGenerator::from_parts(&s, &t, [UserId(2), UserId(3)]);
        let a = g.generate(UserId(1), TextField::Summary, &mut seeded_rng(7));
        let b = g.generate(UserId(1), TextField::Summary, &mut seeded_rng(7));
        assert_eq!(a.reviews, b.reviews);
    }

    #[test]
    fn concatenated_uses_sp_separator() {
        let (s, t) = fixture();
        let g = AuxiliaryReviewGenerator::from_parts(&s, &t, [UserId(2)]);
        let doc = g.generate(UserId(1), TextField::Summary, &mut seeded_rng(5));
        assert_eq!(doc.reviews.len(), 2);
        assert!(doc.concatenated().contains(" <sp> "));
    }

    #[test]
    fn generate_all_covers_every_user() {
        let (s, t) = fixture();
        let g = AuxiliaryReviewGenerator::from_parts(&s, &t, [UserId(2)]);
        let docs = g.generate_all(&[UserId(1), UserId(3)], TextField::Summary, &mut seeded_rng(6));
        assert_eq!(docs.len(), 2);
        assert_eq!(docs[0].user, UserId(1));
        assert_eq!(docs[1].user, UserId(3));
    }

    #[test]
    fn user_without_source_history_yields_empty_doc() {
        let (s, t) = fixture();
        let g = AuxiliaryReviewGenerator::from_parts(&s, &t, [UserId(2)]);
        let doc = g.generate(UserId(999), TextField::Summary, &mut seeded_rng(8));
        assert!(doc.is_empty());
    }
}
