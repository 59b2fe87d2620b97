//! Cross-domain scenario construction following §5.2:
//!
//! * keep only users with records in both domains (the overlapping set);
//! * 80% of overlapping users become training users;
//! * the remaining 20% are the *cold-start* users — their target-domain
//!   reviews are hidden from the model — split half/half into validation
//!   and test;
//! * optionally subsample the training users (Table 4's 100/80/50/20%).

use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::domain::Domain;
use crate::types::{Interaction, UserId};

/// Split parameters (§5.2 defaults).
#[derive(Debug, Clone, Copy)]
pub struct SplitConfig {
    /// Fraction of overlapping users used for training (paper: 0.8).
    pub train_ratio: f32,
    /// Fraction of the training users actually kept (Table 4; 1.0 = all).
    pub train_fraction: f32,
    /// Shuffle seed — the whole split is deterministic given this.
    pub seed: u64,
}

impl Default for SplitConfig {
    fn default() -> Self {
        SplitConfig {
            train_ratio: 0.8,
            train_fraction: 1.0,
            seed: 7,
        }
    }
}

/// A fully-materialised cross-domain cold-start scenario.
#[derive(Debug, Clone)]
pub struct CrossDomainScenario {
    /// Source-domain corpus, restricted to scenario users.
    pub source: Domain,
    /// Target-domain corpus visible at training time (cold-start users'
    /// target reviews removed).
    pub target_train: Domain,
    /// Full target-domain corpus (ground truth for evaluation only).
    pub target_full: Domain,
    /// All overlapping users in deterministic order.
    pub overlapping: Vec<UserId>,
    /// Training users (after `train_fraction` subsampling).
    pub train_users: Vec<UserId>,
    /// Validation cold-start users.
    pub valid_users: Vec<UserId>,
    /// Test cold-start users.
    pub test_users: Vec<UserId>,
}

impl CrossDomainScenario {
    /// Build the scenario from two raw domains.
    #[expect(clippy::disallowed_types, reason = "membership tests only, never iterated")]
    pub fn build(source: &Domain, target: &Domain, cfg: SplitConfig) -> CrossDomainScenario {
        assert!(
            (0.0..=1.0).contains(&cfg.train_ratio),
            "train_ratio must be in [0,1]"
        );
        assert!(
            cfg.train_fraction > 0.0 && cfg.train_fraction <= 1.0,
            "train_fraction must be in (0,1]"
        );
        let overlapping = source.overlapping_users(target);
        assert!(
            overlapping.len() >= 4,
            "need at least 4 overlapping users to split"
        );

        let mut shuffled = overlapping.clone();
        let mut rng = rand::rngs::StdRng::seed_from_u64(cfg.seed);
        shuffled.shuffle(&mut rng);

        let n_train = ((shuffled.len() as f32) * cfg.train_ratio).round() as usize;
        let n_train = n_train.clamp(1, shuffled.len() - 2);
        let (train_all, cold) = shuffled.split_at(n_train);
        let n_valid = cold.len() / 2;
        let (valid, test) = cold.split_at(n_valid);

        // Table 4 subsampling: keep a prefix of the (already shuffled)
        // training users.
        let n_kept = (((train_all.len() as f32) * cfg.train_fraction).round() as usize).max(1);
        let mut train_users: Vec<UserId> = train_all[..n_kept].to_vec();
        train_users.sort_unstable();
        let mut valid_users = valid.to_vec();
        valid_users.sort_unstable();
        let mut test_users = test.to_vec();
        test_users.sort_unstable();

        let scenario_users: std::collections::HashSet<UserId> = train_users
            .iter()
            .chain(&valid_users)
            .chain(&test_users)
            .copied()
            .collect();
        let train_set: std::collections::HashSet<UserId> = train_users.iter().copied().collect();

        CrossDomainScenario {
            source: source.filter_users(|u| scenario_users.contains(&u)),
            target_train: target.filter_users(|u| train_set.contains(&u)),
            target_full: target.filter_users(|u| scenario_users.contains(&u)),
            overlapping,
            train_users,
            valid_users,
            test_users,
        }
    }

    /// Human-readable scenario name, e.g. `Books -> Movies`.
    pub fn name(&self) -> String {
        format!("{} -> {}", self.source.name(), self.target_full.name())
    }

    /// Ground-truth target-domain interactions of the given users — the
    /// evaluation pairs `(u, i, y_{u,i})` of Eqs. 22–23.
    #[expect(clippy::disallowed_types, reason = "membership test only, never iterated")]
    pub fn eval_pairs(&self, users: &[UserId]) -> Vec<&Interaction> {
        let set: std::collections::HashSet<UserId> = users.iter().copied().collect();
        self.target_full
            .interactions()
            .iter()
            .filter(|it| set.contains(&it.user))
            .collect()
    }

    /// Evaluation pairs for the validation cold-start users.
    pub fn validation_pairs(&self) -> Vec<&Interaction> {
        self.eval_pairs(&self.valid_users)
    }

    /// Evaluation pairs for the test cold-start users.
    pub fn test_pairs(&self) -> Vec<&Interaction> {
        self.eval_pairs(&self.test_users)
    }

    /// All cold-start users (validation ∪ test) — the set `U^cs` of §2.
    pub fn cold_start_users(&self) -> Vec<UserId> {
        let mut v = self.valid_users.clone();
        v.extend_from_slice(&self.test_users);
        v.sort_unstable();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{ItemId, Rating};

    fn r(stars: u8) -> Rating {
        Rating::new(stars).unwrap()
    }

    fn world(n_users: u32) -> (Domain, Domain) {
        let mut src = Vec::new();
        let mut tgt = Vec::new();
        for u in 0..n_users {
            src.push(Interaction::new(UserId(u), ItemId(u % 5), r(5), "src rev"));
            tgt.push(Interaction::new(UserId(u), ItemId(u % 7), r(4), "tgt rev"));
        }
        // one user only in source (must be excluded from the scenario)
        src.push(Interaction::new(
            UserId(10_000),
            ItemId(1),
            r(3),
            "lonely",
        ));
        (Domain::new("Books", src), Domain::new("Movies", tgt))
    }

    #[test]
    fn split_partitions_overlap() {
        let (s, t) = world(20);
        let sc = CrossDomainScenario::build(&s, &t, SplitConfig::default());
        assert_eq!(sc.overlapping.len(), 20);
        let total = sc.train_users.len() + sc.valid_users.len() + sc.test_users.len();
        assert_eq!(total, 20);
        assert_eq!(sc.train_users.len(), 16); // 80%
        assert_eq!(sc.valid_users.len(), 2);
        assert_eq!(sc.test_users.len(), 2);
        // disjoint
        for u in &sc.valid_users {
            assert!(!sc.train_users.contains(u));
            assert!(!sc.test_users.contains(u));
        }
    }

    #[test]
    fn cold_start_target_reviews_are_hidden() {
        let (s, t) = world(20);
        let sc = CrossDomainScenario::build(&s, &t, SplitConfig::default());
        for u in sc.cold_start_users() {
            assert!(!sc.target_train.contains_user(u), "{u} leaked into training");
            assert!(sc.source.contains_user(u), "{u} must keep source history");
            assert!(sc.target_full.contains_user(u));
        }
    }

    #[test]
    fn non_overlapping_users_are_dropped() {
        let (s, t) = world(20);
        let sc = CrossDomainScenario::build(&s, &t, SplitConfig::default());
        assert!(!sc.source.contains_user(UserId(10_000)));
    }

    #[test]
    fn deterministic_given_seed() {
        let (s, t) = world(30);
        let a = CrossDomainScenario::build(&s, &t, SplitConfig::default());
        let b = CrossDomainScenario::build(&s, &t, SplitConfig::default());
        assert_eq!(a.train_users, b.train_users);
        assert_eq!(a.test_users, b.test_users);
        let c = CrossDomainScenario::build(
            &s,
            &t,
            SplitConfig {
                seed: 99,
                ..SplitConfig::default()
            },
        );
        assert_ne!(a.train_users, c.train_users);
    }

    #[test]
    fn train_fraction_subsamples_training_only(){
        let (s, t) = world(40);
        let full = CrossDomainScenario::build(&s, &t, SplitConfig::default());
        let half = CrossDomainScenario::build(
            &s,
            &t,
            SplitConfig {
                train_fraction: 0.5,
                ..SplitConfig::default()
            },
        );
        assert_eq!(half.train_users.len(), full.train_users.len() / 2);
        assert_eq!(half.valid_users, full.valid_users);
        assert_eq!(half.test_users, full.test_users);
        // kept training users are a subset of the full ones
        for u in &half.train_users {
            assert!(full.train_users.contains(u));
        }
    }

    #[test]
    fn eval_pairs_come_from_full_target() {
        let (s, t) = world(20);
        let sc = CrossDomainScenario::build(&s, &t, SplitConfig::default());
        let pairs = sc.test_pairs();
        assert_eq!(pairs.len(), sc.test_users.len()); // one record each here
        for p in pairs {
            assert!(sc.test_users.contains(&p.user));
        }
    }

    #[test]
    #[should_panic(expected = "at least 4 overlapping")]
    fn tiny_overlap_panics() {
        let (s, _) = world(2);
        let t2 = Domain::new(
            "Movies",
            vec![Interaction::new(UserId(0), ItemId(0), r(3), "x")],
        );
        let _ = CrossDomainScenario::build(&s, &t2, SplitConfig::default());
    }
}
