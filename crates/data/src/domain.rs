//! A single-domain review corpus with the preprocessed dictionaries that
//! make Algorithm 1's lookups O(1) (§4.1's complexity analysis):
//!
//! 1. `user → [(item, rating, review), …]` — a user's purchase records;
//! 2. `(item, rating) → [users …]` — who gave this item this exact rating.

#![expect(clippy::disallowed_types, reason = "§4.1's O(1) dictionaries; every key listing is sorted before it is returned")]

use std::collections::{HashMap, HashSet};

use crate::types::{Interaction, ItemId, Rating, UserId};

/// A named domain (`Books`, `Movies`, `Music`, …) and its review corpus,
/// indexed for the access patterns of the paper's algorithms.
#[derive(Debug, Clone)]
pub struct Domain {
    name: String,
    interactions: Vec<Interaction>,
    /// Dictionary (1) of §4.1: user → indices of their records.
    user_records: HashMap<UserId, Vec<usize>>,
    /// Dictionary (2) of §4.1: (item, rating) → users who rated it so.
    item_rating_users: HashMap<(ItemId, Rating), Vec<UserId>>,
    /// item → indices of its records (for item review documents).
    item_records: HashMap<ItemId, Vec<usize>>,
}

impl Domain {
    /// Build the domain and its dictionaries in one `O(N·M)` pass (N users,
    /// M average records per user — the preprocessing cost quoted in §4.1).
    pub fn new(name: impl Into<String>, interactions: Vec<Interaction>) -> Domain {
        let mut user_records: HashMap<UserId, Vec<usize>> = HashMap::new();
        let mut item_rating_users: HashMap<(ItemId, Rating), Vec<UserId>> = HashMap::new();
        let mut item_records: HashMap<ItemId, Vec<usize>> = HashMap::new();
        for (idx, it) in interactions.iter().enumerate() {
            user_records.entry(it.user).or_default().push(idx);
            item_rating_users
                .entry((it.item, it.rating))
                .or_default()
                .push(it.user);
            item_records.entry(it.item).or_default().push(idx);
        }
        Domain {
            name: name.into(),
            interactions,
            user_records,
            item_rating_users,
            item_records,
        }
    }

    /// The domain's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// All interactions, in insertion order.
    pub fn interactions(&self) -> &[Interaction] {
        &self.interactions
    }

    /// Number of review records.
    pub fn len(&self) -> usize {
        self.interactions.len()
    }

    /// Whether the corpus is empty.
    pub fn is_empty(&self) -> bool {
        self.interactions.is_empty()
    }

    /// The set of users with at least one record, in ascending id order.
    /// Sorted so the iteration order is stable across runs — downstream
    /// seeded sampling must not inherit `HashMap` iteration order.
    pub fn users(&self) -> impl Iterator<Item = UserId> + '_ {
        let mut ids: Vec<UserId> = self.user_records.keys().copied().collect();
        ids.sort_unstable();
        ids.into_iter()
    }

    /// The set of items with at least one record, in ascending id order
    /// (stable across runs, like [`Domain::users`]).
    pub fn items(&self) -> impl Iterator<Item = ItemId> + '_ {
        let mut ids: Vec<ItemId> = self.item_records.keys().copied().collect();
        ids.sort_unstable();
        ids.into_iter()
    }

    /// Number of distinct users.
    pub fn num_users(&self) -> usize {
        self.user_records.len()
    }

    /// Number of distinct items.
    pub fn num_items(&self) -> usize {
        self.item_records.len()
    }

    /// Dictionary (1) lookup: a user's purchase records
    /// (`get_purchase_records_in_source` of Algorithm 1, line 4). O(1).
    pub fn user_records(&self, user: UserId) -> impl Iterator<Item = &Interaction> {
        self.user_records
            .get(&user)
            .into_iter()
            .flatten()
            .map(|&i| &self.interactions[i])
    }

    /// Number of records a user has.
    pub fn user_degree(&self, user: UserId) -> usize {
        self.user_records.get(&user).map_or(0, Vec::len)
    }

    /// Dictionary (2) lookup: users who gave `item` exactly `rating`
    /// (`get_like_minded_s` of Algorithm 1, line 7). O(1).
    pub fn like_minded(&self, item: ItemId, rating: Rating) -> &[UserId] {
        self.item_rating_users
            .get(&(item, rating))
            .map_or(&[], Vec::as_slice)
    }

    /// An item's records (for building the item review document of §4.2).
    pub fn item_reviews(&self, item: ItemId) -> impl Iterator<Item = &Interaction> {
        self.item_records
            .get(&item)
            .into_iter()
            .flatten()
            .map(|&i| &self.interactions[i])
    }

    /// Whether a user appears in this domain.
    pub fn contains_user(&self, user: UserId) -> bool {
        self.user_records.contains_key(&user)
    }

    /// Users common to `self` and `other` — the overlapping set `Uᵒ` of §2.
    pub fn overlapping_users(&self, other: &Domain) -> Vec<UserId> {
        let mine: HashSet<UserId> = self.user_records.keys().copied().collect();
        let mut both: Vec<UserId> = other
            .user_records
            .keys()
            .filter(|u| mine.contains(u))
            .copied()
            .collect();
        both.sort_unstable(); // deterministic order for seeded splits
        both
    }

    /// Restrict the corpus to records whose user satisfies `keep`,
    /// rebuilding the dictionaries. Used to hide cold-start users' target
    /// reviews from training (§5.2).
    pub fn filter_users(&self, keep: impl Fn(UserId) -> bool) -> Domain {
        let kept: Vec<Interaction> = self
            .interactions
            .iter()
            .filter(|it| keep(it.user))
            .cloned()
            .collect();
        Domain::new(self.name.clone(), kept)
    }

    /// Average number of records per user (the `M` of §4.1).
    pub fn avg_records_per_user(&self) -> f32 {
        if self.user_records.is_empty() {
            return 0.0;
        }
        self.interactions.len() as f32 / self.user_records.len() as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(stars: u8) -> Rating {
        Rating::new(stars).unwrap()
    }

    fn sample() -> Domain {
        Domain::new(
            "Books",
            vec![
                Interaction::new(UserId(1), ItemId(10), r(5), "vampire romance"),
                Interaction::new(UserId(2), ItemId(10), r(5), "fang tastic"),
                Interaction::new(UserId(3), ItemId(10), r(2), "boring"),
                Interaction::new(UserId(1), ItemId(11), r(4), "adventure"),
                Interaction::new(UserId(2), ItemId(11), r(4), "great action"),
            ],
        )
    }

    #[test]
    fn counts() {
        let d = sample();
        assert_eq!(d.len(), 5);
        assert_eq!(d.num_users(), 3);
        assert_eq!(d.num_items(), 2);
        assert!(!d.is_empty());
        assert!((d.avg_records_per_user() - 5.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn user_records_lookup() {
        let d = sample();
        let recs: Vec<_> = d.user_records(UserId(1)).collect();
        assert_eq!(recs.len(), 2);
        assert_eq!(d.user_degree(UserId(1)), 2);
        assert_eq!(d.user_degree(UserId(99)), 0);
    }

    #[test]
    fn like_minded_exact_rating_match() {
        let d = sample();
        let lm = d.like_minded(ItemId(10), r(5));
        assert_eq!(lm, &[UserId(1), UserId(2)]);
        // a 2-star rater is not like-minded with the 5-star group
        assert_eq!(d.like_minded(ItemId(10), r(2)), &[UserId(3)]);
        assert!(d.like_minded(ItemId(10), r(3)).is_empty());
    }

    #[test]
    fn item_reviews_lookup() {
        let d = sample();
        assert_eq!(d.item_reviews(ItemId(10)).count(), 3);
        assert_eq!(d.item_reviews(ItemId(99)).count(), 0);
    }

    #[test]
    fn overlap_is_sorted_intersection() {
        let a = sample();
        let b = Domain::new(
            "Movies",
            vec![
                Interaction::new(UserId(2), ItemId(50), r(3), "ok film"),
                Interaction::new(UserId(4), ItemId(50), r(5), "loved it"),
                Interaction::new(UserId(1), ItemId(51), r(5), "vampire movie"),
            ],
        );
        assert_eq!(a.overlapping_users(&b), vec![UserId(1), UserId(2)]);
    }

    #[test]
    fn filter_users_rebuilds_indexes() {
        let d = sample();
        let f = d.filter_users(|u| u != UserId(1));
        assert_eq!(f.len(), 3);
        assert!(!f.contains_user(UserId(1)));
        assert_eq!(f.like_minded(ItemId(10), r(5)), &[UserId(2)]);
    }
}
