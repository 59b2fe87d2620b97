//! Online graduation differential suite: swap-under-load must be
//! **bitwise** equivalent to a cold rebuild, at any `OM_THREADS`.
//!
//! The live engine streams target-domain interactions (cold users
//! graduating mid-traffic, every post-threshold event hot-swapping a new
//! user-arena generation while scoring continues). The reference engine
//! is trained from the same seed and assembled *from scratch* at the
//! final interaction state, through the same public encode entry points
//! (`CorpusViews::encode_reviews` → `OmniMatchModel::user_target_rows`)
//! the update path uses. Every user's full score row must match bit for
//! bit, across thread counts — the serving determinism contract extended
//! over generation flips.
//!
//! Also pinned here:
//!
//! * graduation semantics — `graduated` fires exactly at `warm_after`,
//!   `is_warm` flips, generations are monotone;
//! * the `UserArena::build` dedupe regression — duplicated warm ids
//!   collapse to one row each, preserving *first-occurrence* order;
//! * `with_row` append/overwrite behaviour on raw arenas.

use std::sync::{Mutex, MutexGuard, OnceLock};

use om_data::types::UserId;
use om_data::{SplitConfig, SynthConfig, SynthWorld};
use om_serve::{ItemArena, ServeEngine, ServeOptions, UserArena, UserEvent};
use om_tensor::runtime;
use omnimatch_core::{OmniMatchConfig, Trainer};

/// Serialise mutations of the global thread count across test threads.
fn thread_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    match LOCK.get_or_init(|| Mutex::new(())).lock() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    }
}

fn scenario() -> om_data::CrossDomainScenario {
    let world = SynthWorld::generate(SynthConfig::tiny(), &["Books", "Movies"]);
    world.scenario("Books", "Movies", SplitConfig::default())
}

/// The streamed form of `user`'s held-back target reviews.
fn events_for(scn: &om_data::CrossDomainScenario, user: UserId) -> Vec<UserEvent> {
    scn.target_full
        .user_records(user)
        .map(|it| UserEvent {
            user,
            item: it.item,
            stars: it.rating.value(),
            text: it.summary.clone(),
        })
        .collect()
}

#[test]
fn post_swap_scores_equal_cold_rebuild_at_any_thread_count() {
    let scn = scenario();
    let cfg = OmniMatchConfig::fast().with_seed(41);
    let warm = scn.train_users.clone();
    // Two independent fits from one seed: training is deterministic, so
    // the engines start bitwise identical — any divergence below is the
    // update path's doing.
    let (model, views, _) = Trainer::new(cfg.clone()).fit(&scn).into_parts();
    let (model2, views2, _) = Trainer::new(cfg.clone()).fit(&scn).into_parts();

    let opts = ServeOptions { warm_after: 2, ..ServeOptions::default() };
    let engine = ServeEngine::new(model, views, &warm, opts.clone());

    // Stream every cold user's reviews, scoring between events so swaps
    // land under load.
    let mut cold: Vec<UserId> = scn.valid_users.clone();
    cold.extend_from_slice(&scn.test_users);
    let mut graduated = Vec::new();
    for &u in &cold {
        let events = events_for(&scn, u);
        for ev in &events {
            engine.apply_event(ev).expect("apply event");
            let _ = engine.score_user(u).expect("mid-stream score");
        }
        if events.len() >= opts.warm_after {
            assert!(engine.is_warm(u), "user {u:?} did not graduate");
            graduated.push(u);
        }
    }
    assert!(!graduated.is_empty(), "tiny world graduated nobody");
    assert!(engine.user_generation() > 0);

    // Cold rebuild at the same interaction state, via the public encode
    // entry points only.
    let live_arena = engine.pin_users();
    let dim = live_arena.arena().dim();
    let mut ids = Vec::new();
    let mut docs_owned: Vec<Vec<usize>> = Vec::new();
    for &u in live_arena.arena().ids() {
        let doc = if graduated.contains(&u) {
            let texts: Vec<String> = events_for(&scn, u).into_iter().map(|ev| ev.text).collect();
            let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
            views2.encode_reviews(&refs)
        } else {
            views2.target_doc(u).to_vec()
        };
        ids.push(u);
        docs_owned.push(doc);
    }
    let docs: Vec<&[usize]> = docs_owned.iter().map(Vec::as_slice).collect();
    let rows = model2.user_target_rows(&docs);
    let rebuilt_users = UserArena::from_raw(ids, rows, dim);
    let items2 = ItemArena::build(&model2, &views2, opts.arena_batch);
    let rebuilt = ServeEngine::with_arenas(model2, views2, items2, rebuilt_users, opts);

    // Bitwise, for every scenario user, across thread counts — including
    // live-at-N-threads vs rebuilt-at-1-thread.
    let mut checked = warm.clone();
    checked.extend_from_slice(&graduated);
    let _g = thread_lock();
    let prev = runtime::set_threads(1);
    let reference: Vec<Vec<f32>> = checked
        .iter()
        .map(|&u| rebuilt.score_user(u).expect("rebuilt score"))
        .collect();
    for threads in [1, 2, 4] {
        runtime::set_threads(threads);
        for (&u, reference_row) in checked.iter().zip(&reference) {
            let live = engine.score_user(u).expect("live score");
            assert_eq!(live.len(), reference_row.len());
            for (a, b) in live.iter().zip(reference_row) {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "post-swap score diverged from the cold rebuild \
                     for user {u:?} at {threads} thread(s)"
                );
            }
        }
    }
    runtime::set_threads(prev);
}

#[test]
fn graduation_fires_exactly_at_warm_after_and_generations_are_monotone() {
    let scn = scenario();
    let cfg = OmniMatchConfig::fast().with_seed(43);
    let warm = scn.train_users.clone();
    let (model, views, _) = Trainer::new(cfg).fit(&scn).into_parts();
    let opts = ServeOptions { warm_after: 3, ..ServeOptions::default() };
    let engine = ServeEngine::new(model, views, &warm, opts.clone());

    let u = *scn
        .test_users
        .iter()
        .find(|&&u| events_for(&scn, u).len() >= 4)
        .expect("a test user with 4+ target reviews");
    assert!(!engine.is_warm(u));
    assert_eq!(engine.interactions_seen(u), 0);

    let mut last_generation = 0;
    for (i, ev) in events_for(&scn, u).into_iter().enumerate() {
        let outcome = engine.apply_event(&ev).expect("apply event");
        let seen = i + 1;
        assert_eq!(outcome.user, u);
        assert_eq!(outcome.seen, seen);
        assert_eq!(engine.interactions_seen(u), seen);
        assert_eq!(outcome.graduated, seen == opts.warm_after, "graduated at seen={seen}");
        if seen < opts.warm_after {
            assert_eq!(outcome.generation, None);
            assert!(!engine.is_warm(u), "warm before the threshold at seen={seen}");
        } else {
            let generation = outcome.generation.expect("post-threshold events swap");
            assert!(generation > last_generation, "generations must be monotone");
            last_generation = generation;
            assert!(engine.is_warm(u));
        }
    }
    assert_eq!(engine.user_generation(), last_generation);
}

#[test]
fn duplicated_warm_ids_collapse_preserving_first_occurrence_order() {
    let scn = scenario();
    let cfg = OmniMatchConfig::fast().with_seed(47);
    let (model, views, _) = Trainer::new(cfg).fit(&scn).into_parts();

    // A warm list with heavy duplication, deliberately *not* id-sorted:
    // the arena must keep one row per user in first-occurrence order.
    let base: Vec<UserId> = scn.train_users.iter().rev().copied().collect();
    let mut dup = Vec::new();
    for &u in &base {
        dup.push(u);
        dup.push(base[0]);
        dup.push(u);
    }
    let deduped = UserArena::build(&model, &views, &dup, 16);
    let clean = UserArena::build(&model, &views, &base, 16);
    assert_eq!(deduped.len(), clean.len(), "duplicates inflated the arena");
    assert_eq!(deduped.ids(), clean.ids(), "dedupe broke first-occurrence order");
    for &u in clean.ids() {
        let a = row(&deduped, u).expect("row in deduped arena");
        let b = row(&clean, u).expect("row in clean arena");
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.to_bits(), y.to_bits(), "row bits differ for user {u:?}");
        }
    }
}

/// `user`'s row, if the arena has one.
fn row(arena: &UserArena, user: UserId) -> Option<Vec<f32>> {
    let mut out = vec![0.0f32; arena.dim()];
    arena.copy_row_into(user, &mut out).then_some(out)
}

#[test]
fn with_row_overwrites_in_place_and_appends_at_the_end() {
    let ids = vec![UserId(3), UserId(1), UserId(2)];
    let data: Vec<f32> = (0..9).map(|i| i as f32).collect();
    let arena = UserArena::from_raw(ids, data, 3);

    let overwritten = arena.with_row(UserId(1), &[9.0, 8.0, 7.0]);
    assert_eq!(overwritten.len(), 3);
    assert_eq!(overwritten.ids(), arena.ids(), "overwrite must not reorder");
    assert_eq!(row(&overwritten, UserId(1)), Some(vec![9.0f32, 8.0, 7.0]));
    assert_eq!(row(&overwritten, UserId(3)), Some(vec![0.0f32, 1.0, 2.0]));

    let appended = arena.with_row(UserId(7), &[5.0, 5.0, 5.0]);
    assert_eq!(appended.len(), 4);
    assert_eq!(
        appended.ids(),
        &[UserId(3), UserId(1), UserId(2), UserId(7)],
        "graduated users append after existing rows"
    );
    assert_eq!(row(&appended, UserId(7)), Some(vec![5.0f32, 5.0, 5.0]));
    // The source arena is untouched — with_row is a shadow build.
    assert_eq!(arena.len(), 3);
    assert_eq!(row(&arena, UserId(7)), None);
}
