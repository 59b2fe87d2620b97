//! `om-smoke online`: train, checkpoint, serve, stream target-domain
//! interactions, and assert:
//!
//! * streaming `warm_after` interactions graduates a cold user — the
//!   engine flips `is_warm`, the generation number advances, and
//!   `serve.graduations` counts it;
//! * scores served *immediately after* the live generation swaps are
//!   bitwise identical to a **cold rebuild**: a second engine, reloaded
//!   from the same checkpoint, whose user arena is assembled from scratch
//!   at the same interaction state through the same public encode path;
//! * the threaded front-end path works end to end —
//!   `submit_interaction` interleaved with `submit`, every accepted
//!   request served, graduations and swaps visible in the stats snapshot
//!   and in the `/statz` rendering.
//!
//! Chaos variant: with `OM_FAULT=swap:1` the process is killed at the
//! `swap` kill point — after the first shadow arena is built, *before*
//! its generation is installed. The `pre-swap generation 0` marker line
//! is on stdout by then and no `post-swap` line ever is, which is how
//! `tests/online_chaos.rs` proves a killed swap leaves the old generation
//! serving.

use om_data::types::UserId;
use om_data::CrossDomainScenario;
use om_serve::{
    Frontend, FrontendOptions, ItemArena, Request, ServeEngine, ServeOptions, UserArena, UserEvent,
};

use crate::Fixture;

/// Streamed events for `user`: its held-back target-domain reviews, in
/// corpus order (exactly what production would see arriving live).
fn events_for(scenario: &CrossDomainScenario, user: UserId) -> Vec<UserEvent> {
    scenario
        .target_full
        .user_records(user)
        .map(|it| UserEvent {
            user,
            item: it.item,
            stars: it.rating.value(),
            text: it.summary.clone(),
        })
        .collect()
}

pub fn run() {
    let fx = Fixture::train("om-smoke-online");
    let ckpt = fx.checkpoint();
    let scenario = &fx.scenario;
    let opts = ServeOptions { warm_after: 3, ..ServeOptions::default() };
    let warm = &scenario.train_users;

    // Cold users with enough held-back target reviews to graduate.
    let mut cold: Vec<UserId> = scenario.valid_users.clone();
    cold.extend_from_slice(&scenario.test_users);
    let streamers: Vec<UserId> = cold
        .iter()
        .copied()
        .filter(|&u| events_for(scenario, u).len() >= opts.warm_after)
        .take(3)
        .collect();
    assert!(!streamers.is_empty(), "tiny world produced no streamable cold user");

    // ---- live engine: stream events, graduate, hot-swap -----------------
    let engine = ckpt.engine(opts.clone());
    println!("om-smoke online: pre-swap generation {}", engine.user_generation());
    assert_eq!(engine.user_generation(), 0);

    let mut graduated = Vec::new();
    for &u in &streamers {
        assert!(!engine.is_warm(u), "cold user {u:?} must start cold");
        // Serve mid-stream so swaps land under traffic.
        let _ = engine.score_user(u).expect("cold score");
        for (i, ev) in events_for(scenario, u).into_iter().enumerate() {
            let outcome = engine.apply_event(&ev).expect("apply event");
            assert_eq!(outcome.seen, i + 1);
            assert_eq!(outcome.graduated, i + 1 == opts.warm_after);
            assert_eq!(outcome.generation.is_some(), i + 1 >= opts.warm_after);
            let _ = engine.score_user(u).expect("mid-stream score");
        }
        assert!(engine.is_warm(u), "user {u:?} did not graduate");
        graduated.push(u);
    }
    let generation = engine.user_generation();
    println!("om-smoke online: post-swap generation {generation}");
    assert!(generation > 0, "no generation swap happened");
    let graduations = om_obs::metrics::counter("serve.graduations").get();
    assert_eq!(graduations, graduated.len() as u64, "graduations counter drifted");
    om_obs::manifest_set("serve.catalogue", (engine.catalogue_len() as u64).into());

    // ---- cold rebuild: same checkpoint, same interaction state ----------
    // A second engine assembled from scratch: warm users' rows from their
    // training-time target documents, graduated users' rows from their
    // accumulated live texts — both through the same public encode path
    // the online update uses. Post-swap live scores must match bitwise.
    let (model2, views2) = ckpt.reload();
    let dim = engine.pin_users().arena().dim();
    let mut ids: Vec<UserId> = Vec::new();
    let mut rows: Vec<f32> = Vec::new();
    for &u in engine.pin_users().arena().ids() {
        let doc: Vec<usize> = if graduated.contains(&u) {
            let texts: Vec<String> =
                events_for(scenario, u).into_iter().map(|ev| ev.text).collect();
            let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
            views2.encode_reviews(&refs)
        } else {
            views2.target_doc(u).to_vec()
        };
        ids.push(u);
        rows.extend(model2.user_target_rows(&[&doc]));
    }
    let rebuilt_users = UserArena::from_raw(ids, rows, dim);
    let items2 = ItemArena::build(&model2, &views2, opts.arena_batch);
    let rebuilt = ServeEngine::with_arenas(model2, views2, items2, rebuilt_users, opts.clone());
    let mut checked = warm.clone();
    checked.extend_from_slice(&graduated);
    for &u in &checked {
        let live = engine.score_user(u).expect("live score");
        let cold = rebuilt.score_user(u).expect("rebuilt score");
        assert_eq!(live.len(), cold.len());
        for (a, b) in live.iter().zip(&cold) {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "post-swap score diverged from the cold rebuild for user {u:?}"
            );
        }
    }
    println!(
        "om-smoke online: post-swap scores equal the cold rebuild bitwise over {} users",
        checked.len()
    );

    // ---- threaded front-end: events interleaved with requests ----------
    let fopts = FrontendOptions::from_serve(&opts).expect("frontend options");
    let (resp_tx, resp_rx) = std::sync::mpsc::channel();
    let factory = ckpt.clone();
    let frontend = Frontend::spawn(move || factory.engine(opts), fopts, resp_tx)
        .expect("spawn front-end");
    let handle = frontend.handle();
    let streamer = streamers[0];
    let mut admitted = 0u64;
    let mut interactions = 0u64;
    for (i, ev) in events_for(scenario, streamer).into_iter().enumerate() {
        loop {
            match handle.try_send(Request { id: i as u64, user: streamer, arrive_us: 0 }) {
                Ok(()) => break,
                Err(om_serve::SubmitError::QueueFull { .. }) => std::thread::yield_now(),
                Err(e) => panic!("request rejected: {e}"),
            }
        }
        admitted += 1;
        loop {
            match handle.submit_interaction(ev.clone()) {
                Ok(()) => break,
                Err(om_serve::SubmitError::QueueFull { .. }) => std::thread::yield_now(),
                Err(e) => panic!("interaction rejected: {e}"),
            }
        }
        interactions += 1;
    }
    let stats = frontend.shutdown().expect("front-end shutdown");
    assert_eq!(stats.served, admitted, "front-end lost a request");
    assert_eq!(resp_rx.try_iter().count() as u64, admitted);
    let snap = handle.stats_snapshot();
    assert_eq!(snap.interactions, interactions);
    assert!(snap.graduations >= 1, "front-end streaming graduated nobody");
    assert!(snap.swaps >= 1, "front-end streaming swapped no generation");
    assert_eq!(snap.update_errors, 0);
    println!(
        "om-smoke online: front-end served {} requests, {} interactions, {} graduation(s), {} swap(s)",
        snap.served, snap.interactions, snap.graduations, snap.swaps
    );

    // The new series must be visible to /statz without http.rs edits.
    let statz = om_obs::http::render_statz(&om_obs::metrics::snapshot()).to_string();
    for series in ["serve.graduations", "serve.update.swaps", "serve.frontend.interactions"] {
        assert!(statz.contains(series), "{series} missing from /statz");
    }
    om_obs::manifest_set("serve.online_ok", true.into());
    fx.finish(|_| ());
}
