//! Online cold→warm graduation: interaction buffering and hot-swappable
//! user-arena generations.
//!
//! The paper's evaluation freezes cold-start users at inference time; in
//! production a cold user *accumulates* target-domain interactions while
//! the server runs. This module closes that loop:
//!
//! * [`InteractionStore`] buffers each user's streamed target-domain
//!   review texts in arrival order (the only thing the user tower needs —
//!   item ids and stars ride along for telemetry and figures only);
//! * once a user has [`crate::ServeOptions::warm_after`] interactions
//!   (`OM_SERVE_WARM_AFTER`, default 5), the engine re-encodes *that
//!   user's* row — user tower only, the item arena is immutable between
//!   model versions — into a shadow [`UserArena`] and publishes it
//!   through [`ArenaSwap`];
//! * [`ArenaSwap`] is the `Arc`-swap–style generation pointer: scorers
//!   [`ArenaSwap::pin`] exactly one generation per microbatch, so a batch
//!   can never observe a torn or mixed-generation arena, and the old
//!   generation stays alive until its last in-flight batch drops its pin
//!   (`Arc` reference counting *is* the epoch count — the drain rule
//!   needs no extra machinery).
//!
//! The swap protocol — flip racing batch-close and shutdown, and the
//! deliberately broken variant that frees the old arena at flip time —
//! is model-checked exhaustively in `crates/lint/tests/swap_model.rs`;
//! `tests/online_update.rs` proves a live sequence of swaps bitwise
//! equivalent to a cold rebuild at the same interaction state.

// Serving hot path: a panic kills the worker and its queue. Tests may panic.
#![cfg_attr(not(test), deny(
    clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable, clippy::todo,
    clippy::unimplemented, clippy::indexing_slicing, clippy::string_slice, clippy::disallowed_macros,
))]

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard};

use om_data::types::{ItemId, UserId};

use crate::arena::UserArena;

/// One streamed target-domain interaction: `user` reviewed `item` with
/// `stars`, writing `text`. Only `text` feeds the user tower (through the
/// frozen training vocabulary); the rest is telemetry.
#[derive(Debug, Clone, PartialEq)]
pub struct UserEvent {
    /// The interacting user (cold or warm; need not be a scenario user).
    pub user: UserId,
    /// The reviewed target-domain item.
    pub item: ItemId,
    /// The star rating given.
    pub stars: f32,
    /// The review text (the field `OmniMatchConfig::text_field` selects).
    pub text: String,
}

/// What applying one [`UserEvent`] did, as reported by
/// [`crate::ServeEngine::apply_event`] and surfaced through the
/// front-end's stats plane.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UpdateOutcome {
    /// The user the event belonged to.
    pub user: UserId,
    /// Interactions seen from this user so far (this event included).
    pub seen: usize,
    /// Did this event graduate the user cold→warm (first crossing of the
    /// `warm_after` threshold)? Counted in `serve.graduations`.
    pub graduated: bool,
    /// The generation installed by this event, if its row re-encode
    /// published a new arena (`None` below the threshold).
    pub generation: Option<u64>,
}

/// Per-user buffers of streamed review texts, in arrival order. A plain
/// ordered map: deterministic iteration, no hashing (the workspace bans
/// `HashMap` wholesale).
#[derive(Debug, Default)]
pub struct InteractionStore {
    texts: BTreeMap<UserId, Vec<String>>,
    events: u64,
}

impl InteractionStore {
    /// An empty store.
    pub fn new() -> InteractionStore {
        InteractionStore::default()
    }

    /// Append one event's text to its user's buffer; returns the user's
    /// new interaction count.
    pub fn record(&mut self, ev: &UserEvent) -> usize {
        self.events += 1;
        let buf = self.texts.entry(ev.user).or_default();
        buf.push(ev.text.clone());
        buf.len()
    }

    /// Interactions seen from `user` so far.
    pub fn seen(&self, user: UserId) -> usize {
        self.texts.get(&user).map_or(0, Vec::len)
    }

    /// The accumulated review texts of `user`, arrival order.
    pub fn texts(&self, user: UserId) -> &[String] {
        self.texts.get(&user).map_or(&[], Vec::as_slice)
    }

    /// Total events recorded across all users.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Users with at least one buffered interaction, ascending id.
    pub fn users(&self) -> impl Iterator<Item = UserId> + '_ {
        self.texts.keys().copied()
    }
}

/// One published user-arena generation: the arena plus its monotone
/// generation number. Readers hold it through an `Arc`, which is exactly
/// what keeps a superseded generation alive until its last in-flight
/// batch drains.
pub struct ArenaGeneration {
    generation: u64,
    arena: UserArena,
}

impl ArenaGeneration {
    /// The monotone generation number (0 at engine build).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The user arena of this generation.
    pub fn arena(&self) -> &UserArena {
        &self.arena
    }
}

/// The hot-swappable generation pointer. `pin` hands a scorer one frozen
/// generation for the duration of a batch; `install` atomically replaces
/// the published generation for *future* pins. The critical section is a
/// pointer clone or a pointer store under a `Mutex` — never an arena
/// build — so neither side can observe a torn arena, and dropping the
/// last pin of a superseded generation frees it (never earlier: the
/// model-checked drain rule).
pub struct ArenaSwap {
    current: Mutex<Arc<ArenaGeneration>>,
}

/// Lock the generation cell, recovering from a poisoned mutex: the cell
/// holds a single `Arc` pointer, which cannot be left in a torn state, so
/// the poison flag carries no information here.
fn cell_lock(cell: &Mutex<Arc<ArenaGeneration>>) -> MutexGuard<'_, Arc<ArenaGeneration>> {
    match cell.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

impl ArenaSwap {
    /// Publish `arena` as generation 0.
    pub fn new(arena: UserArena) -> ArenaSwap {
        ArenaSwap {
            current: Mutex::new(Arc::new(ArenaGeneration { generation: 0, arena })),
        }
    }

    /// Pin the current generation: the returned handle keeps *that*
    /// arena alive and unchanged for as long as it is held, regardless of
    /// how many installs happen meanwhile. One pin per microbatch is the
    /// no-mixed-generation rule.
    pub fn pin(&self) -> Arc<ArenaGeneration> {
        Arc::clone(&cell_lock(&self.current))
    }

    /// Atomically publish `arena` as the next generation and return its
    /// number. In-flight pins of the previous generation stay valid; the
    /// superseded arena is freed when the last of them drops.
    pub fn install(&self, arena: UserArena) -> u64 {
        let mut cur = cell_lock(&self.current);
        let generation = cur.generation + 1;
        *cur = Arc::new(ArenaGeneration { generation, arena });
        generation
    }

    /// The currently published generation number.
    pub fn generation(&self) -> u64 {
        cell_lock(&self.current).generation
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arena(ids: &[u32], dim: usize) -> UserArena {
        let data = vec![0.5f32; ids.len() * dim];
        UserArena::from_raw(ids.iter().map(|&u| UserId(u)).collect(), data, dim)
    }

    #[test]
    fn store_buffers_per_user_in_arrival_order() {
        let mut store = InteractionStore::new();
        let ev = |u: u32, text: &str| UserEvent {
            user: UserId(u),
            item: ItemId(0),
            stars: 5.0,
            text: text.to_string(),
        };
        assert_eq!(store.record(&ev(1, "a")), 1);
        assert_eq!(store.record(&ev(2, "x")), 1);
        assert_eq!(store.record(&ev(1, "b")), 2);
        assert_eq!(store.seen(UserId(1)), 2);
        assert_eq!(store.texts(UserId(1)), &["a".to_string(), "b".to_string()]);
        assert_eq!(store.seen(UserId(9)), 0);
        assert!(store.texts(UserId(9)).is_empty());
        assert_eq!(store.events(), 3);
        assert_eq!(store.users().collect::<Vec<_>>(), vec![UserId(1), UserId(2)]);
    }

    #[test]
    fn pins_outlive_installs_and_generations_are_monotone() {
        let swap = ArenaSwap::new(arena(&[1, 2], 3));
        assert_eq!(swap.generation(), 0);
        let pinned = swap.pin();
        assert_eq!(pinned.generation(), 0);
        assert_eq!(swap.install(arena(&[1, 2, 3], 3)), 1);
        assert_eq!(swap.install(arena(&[1, 2, 3, 4], 3)), 2);
        // The old pin still reads the generation it pinned...
        assert_eq!(pinned.generation(), 0);
        assert_eq!(pinned.arena().len(), 2);
        // ...while new pins see the latest install.
        assert_eq!(swap.pin().generation(), 2);
        assert_eq!(swap.pin().arena().len(), 4);
    }
}
