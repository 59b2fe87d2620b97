//! Top-K ranking evaluation of the trained model — the extension protocol
//! built on `om_metrics::ranking`.

use omnimatch::core::{OmniMatchConfig, Trainer};
use omnimatch::data::types::ItemId;
use omnimatch::data::{SplitConfig, SynthConfig, SynthWorld};
use omnimatch::metrics::{hit_rate_at_k, ndcg_at_k, RankedList};

#[test]
fn ranked_lists_from_trained_model() {
    let world = SynthWorld::generate(SynthConfig::tiny(), &["Books", "Movies"]);
    let scenario = world.scenario("Books", "Movies", SplitConfig::default());
    let trained = Trainer::new(OmniMatchConfig::fast()).fit(&scenario);

    let candidates: Vec<ItemId> = scenario.target_train.items().collect();
    let mut lists = Vec::new();
    for &user in scenario.test_users.iter().take(5) {
        // relevant = items the user actually rated ≥ 4 in the hidden truth
        let relevant: std::collections::BTreeSet<ItemId> = scenario
            .target_full
            .user_records(user)
            .filter(|it| it.rating.stars() >= 4)
            .map(|it| it.item)
            .collect();
        if relevant.is_empty() {
            continue;
        }
        let ranked = trained.rank_items(user, &candidates);
        assert_eq!(ranked.len(), candidates.len());
        // ranking is by descending score
        for w in ranked.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
        lists.push(RankedList::new(
            ranked
                .iter()
                .map(|&(item, score)| (score, relevant.contains(&item)))
                .collect(),
        ));
    }
    assert!(!lists.is_empty(), "no test user had relevant items");
    let hr = hit_rate_at_k(&lists, 10);
    let ndcg = ndcg_at_k(&lists, 10);
    assert!((0.0..=1.0).contains(&hr));
    assert!((0.0..=1.0).contains(&ndcg));
}
