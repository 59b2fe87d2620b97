//! Offline representation precompute: contiguous embedding arenas.
//!
//! The towers are the expensive half of scoring (TextCNN over a review
//! document per entity); the rating head is a small MLP over concatenated
//! features. Serving therefore encodes every target-domain item — and
//! every warm user — **once**, into row-major `[n, dim]` f32 arenas, and
//! a request only runs the user tower when its user is cold (or not even
//! that, for warm users).
//!
//! Both kinds of rows live in one generic type, [`Arena`];
//! [`ItemArena`] and [`UserArena`] are its aliases. Only `build` differs
//! per id type, and the blob kind an arena reads and writes follows from
//! its id type ([`ArenaId::KIND`]).
//!
//! Determinism: every forward here runs under [`om_nn::inference_mode`]
//! (no tape, no dropout, nothing drawn from the RNG), and every kernel in
//! the tower is row-independent with a fixed per-element reduction order,
//! so arena rows are bitwise identical no matter how the precompute was
//! batched — and bitwise identical to a tower run at request time. Tests
//! assert both.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Debug;
use std::path::Path;

use om_data::types::{ItemId, UserId};
use om_tensor::seeded_rng;
use omnimatch_core::model::DomainSide;
use omnimatch_core::{CorpusViews, OmniMatchModel};

use crate::blob::{self, ArenaBlob, BlobError, BlobKind, Verify};
use crate::mmap::{MapView, Plain};
use crate::quant;

/// Backing storage of one arena section (f32 rows or scales, int8
/// codes): heap-owned, or a zero-copy window into a memory-mapped blob.
/// Scoring reads the same slice either way, so every engine path is
/// storage-agnostic (and the blob round-trip test can demand
/// bitwise-equal scores).
pub(crate) enum Store<T: Plain> {
    /// Heap-owned elements.
    Owned(Vec<T>),
    /// Elements borrowed from a memory-mapped blob.
    Mapped(MapView<T>),
}

impl<T: Plain> Store<T> {
    pub(crate) fn as_slice(&self) -> &[T] {
        match self {
            Store::Owned(v) => v,
            Store::Mapped(m) => m.as_slice(),
        }
    }
}

/// An arena's payload: the exact f32 rows of the tower precompute, or
/// the int8-per-row-scale serving quantization of them
/// ([`Arena::quantized`], see [`crate::quant`]). Training and checkpoints
/// never see `Q8`; the scoring paths read both through
/// [`Arena::rows_f32`] / [`Arena::copy_row_into`], which dequantize on
/// the fly.
pub(crate) enum Payload {
    /// Exact f32 rows.
    F32(Store<f32>),
    /// Per-row-scale int8 codes (`q[r*dim + c] as f32 * scales[r]`).
    Q8 {
        /// `[len, dim]` codes.
        q: Store<i8>,
        /// `[len]` dequantization scales.
        scales: Store<f32>,
    },
}

impl Payload {
    fn len(&self) -> usize {
        match self {
            Payload::F32(rows) => rows.as_slice().len(),
            Payload::Q8 { q, .. } => q.as_slice().len(),
        }
    }

    pub(crate) fn is_quantized(&self) -> bool {
        matches!(self, Payload::Q8 { .. })
    }
}

mod sealed {
    pub trait Sealed {}
    impl Sealed for om_data::types::ItemId {}
    impl Sealed for om_data::types::UserId {}
}

/// The id types an [`Arena`] is keyed by — [`ItemId`] and [`UserId`],
/// and no others — each tagged with the blob kind its arenas persist as.
pub trait ArenaId: sealed::Sealed + Copy + Ord + Debug {
    /// The `OMAB` kind an arena of these ids writes and accepts.
    const KIND: BlobKind;
    /// The id whose on-disk form is `raw`.
    fn from_u32(raw: u32) -> Self;
    /// The id's on-disk form.
    fn to_u32(self) -> u32;
}

impl ArenaId for ItemId {
    const KIND: BlobKind = BlobKind::Items;
    fn from_u32(raw: u32) -> ItemId {
        ItemId(raw)
    }
    fn to_u32(self) -> u32 {
        self.0
    }
}

impl ArenaId for UserId {
    const KIND: BlobKind = BlobKind::Users;
    fn from_u32(raw: u32) -> UserId {
        UserId(raw)
    }
    fn to_u32(self) -> u32 {
        self.0
    }
}

/// Precomputed feature rows keyed by id, `[len, dim]` row-major.
pub struct Arena<I: ArenaId> {
    ids: Vec<I>,
    index: BTreeMap<I, usize>,
    data: Payload,
    dim: usize,
}

/// Every target-domain item's features.
pub type ItemArena = Arena<ItemId>;

/// Warm users' combined target-side features. Cold users are
/// deliberately absent: their tower runs at request time over the
/// auxiliary document (that tower pass *is* the cold-start inference the
/// paper describes).
pub type UserArena = Arena<UserId>;

impl ItemArena {
    /// Encode all items of `views` (dense-index order) in batches of
    /// `batch` documents. The batch size is a throughput knob only; it
    /// cannot affect any bit of the result.
    pub fn build(model: &OmniMatchModel, views: &CorpusViews, batch: usize) -> ItemArena {
        let _mode = om_nn::inference_mode();
        let ids = views.items();
        let dim = model.config().item_dim;
        let mut data = Vec::with_capacity(ids.len() * dim);
        // Never drawn from under inference mode; the signature demands one.
        let mut rng = seeded_rng(0);
        for chunk in ids.chunks(batch.max(1)) {
            let docs: Vec<&[usize]> = chunk.iter().map(|&i| views.item_doc(i)).collect();
            let feats = model.item_features(&docs, false, &mut rng);
            data.extend_from_slice(&feats.data());
        }
        ItemArena::from_raw(ids, data, dim)
    }
}

impl UserArena {
    /// Encode `warm` users' target documents in batches of `batch`.
    /// Unknown users are skipped (they cannot be encoded without a
    /// document); duplicates collapse to one row.
    pub fn build(
        model: &OmniMatchModel,
        views: &CorpusViews,
        warm: &[UserId],
        batch: usize,
    ) -> UserArena {
        let _mode = om_nn::inference_mode();
        let cfg = model.config();
        let dim = cfg.invariant_dim + cfg.specific_dim;
        // Dedupe preserving *first-occurrence* order: a BTreeSet collect
        // would silently re-sort the arena by id, and a non-deduping pass
        // would feed `from_raw` duplicate ids, which it refuses.
        let known: Vec<UserId> = {
            let mut seen = BTreeMap::new();
            let mut ordered = Vec::new();
            for &u in warm {
                if views.user_idx(u).is_some() && seen.insert(u, ()).is_none() {
                    ordered.push(u);
                }
            }
            ordered
        };
        let mut data = Vec::with_capacity(known.len() * dim);
        let mut rng = seeded_rng(0);
        for chunk in known.chunks(batch.max(1)) {
            let docs: Vec<&[usize]> = chunk.iter().map(|&u| views.target_doc(u)).collect();
            let feats = model.user_features(&docs, DomainSide::Target, false, &mut rng);
            data.extend_from_slice(&feats.combined.data());
        }
        UserArena::from_raw(known, data, dim)
    }
}

impl<I: ArenaId> Arena<I> {
    /// Assemble an arena from pre-computed feature rows (e.g. the
    /// serving-scale synthetic presets of `om_data::synth`). `data` is
    /// `[ids.len(), dim]` row-major; ids must be unique. Both are the
    /// program's own input, so a violation panics; blob input goes
    /// through [`Arena::load_blob`], which returns a typed error instead.
    pub fn from_raw(ids: Vec<I>, data: Vec<f32>, dim: usize) -> Arena<I> {
        Arena::from_payload(ids, Payload::F32(Store::Owned(data)), dim)
    }

    pub(crate) fn from_payload(ids: Vec<I>, data: Payload, dim: usize) -> Arena<I> {
        match Arena::try_from_payload(ids, data, dim) {
            Ok(arena) => arena,
            Err(id) => panic!("duplicate id {id:?} in arena"),
        }
    }

    /// Assemble an arena, or return an id that appears on two rows. The
    /// payload must hold `ids.len()` rows of `dim` (asserted — the blob
    /// frame and the program's own constructors guarantee it).
    fn try_from_payload(ids: Vec<I>, data: Payload, dim: usize) -> Result<Arena<I>, I> {
        assert_eq!(data.len(), ids.len() * dim, "ragged arena");
        if let Payload::Q8 { scales, .. } = &data {
            assert_eq!(scales.as_slice().len(), ids.len(), "one scale per quantized arena row");
        }
        let index: BTreeMap<I, usize> = ids.iter().enumerate().map(|(i, &id)| (id, i)).collect();
        if index.len() != ids.len() {
            let mut seen = BTreeSet::new();
            if let Some(&dup) = ids.iter().find(|&&id| !seen.insert(id)) {
                return Err(dup);
            }
        }
        Ok(Arena { ids, index, data, dim })
    }

    /// The int8-per-row-scale serving quantization of this arena (see
    /// [`crate::quant`]). The source must hold exact f32 rows — this is
    /// the one f32 → int8 conversion point, there is no re-quantize.
    pub fn quantized(&self) -> Arena<I> {
        let data = match &self.data {
            Payload::F32(rows) => rows.as_slice(),
            Payload::Q8 { .. } => panic!("arena is already quantized"),
        };
        let (q, scales) = quant::quantize_rows(data, self.ids.len(), self.dim);
        Arena::from_payload(
            self.ids.clone(),
            Payload::Q8 { q: Store::Owned(q), scales: Store::Owned(scales) },
            self.dim,
        )
    }

    /// Whether the arena stores int8 codes rather than exact f32 rows.
    pub fn is_quantized(&self) -> bool {
        self.data.is_quantized()
    }

    /// Load an arena from an `OMAB` blob written by [`Arena::write_blob`]
    /// — v1 maps the f32 block zero-copy, v2 maps the quantized payload.
    /// A blob of the other arena type is [`BlobError::WrongKind`], and an
    /// id on two rows is [`BlobError::DuplicateId`] at either verify
    /// level.
    pub fn load_blob(path: &Path, verify: Verify) -> Result<Arena<I>, BlobError> {
        let blob = ArenaBlob::open(path, verify)?;
        if blob.kind() != I::KIND {
            return Err(BlobError::WrongKind { expected: I::KIND, found: blob.kind() });
        }
        let ids = blob.ids().into_iter().map(I::from_u32).collect();
        Arena::try_from_payload(ids, blob.payload(), blob.dim())
            .map_err(|id| BlobError::DuplicateId(id.to_u32()))
    }

    /// Serialize the arena to a length/CRC-framed `OMAB` blob at `path`
    /// (atomic write → fsync → rename) — v1 for f32 arenas, v2 for
    /// quantized ones.
    pub fn write_blob(&self, path: &Path) -> Result<(), BlobError> {
        let ids: Vec<u32> = self.ids.iter().map(|&id| id.to_u32()).collect();
        blob::write_blob(path, I::KIND, self.dim, &ids, &self.data)
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the arena is empty.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Feature width per row.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Ids in arena row order.
    pub fn ids(&self) -> &[I] {
        &self.ids
    }

    /// The id at arena row `i`.
    pub fn id_at(&self, i: usize) -> I {
        self.ids[i]
    }

    /// Whether `id` has a row in this arena (for users: is warm).
    pub fn contains(&self, id: I) -> bool {
        self.index.contains_key(&id)
    }

    /// Rows `lo..hi` as f32, storage-agnostic: a borrow of the arena for
    /// f32 payloads, a dequantization into `scratch` for quantized ones
    /// (`om_tensor::kernels::dequant_rows` — AVX2 when dispatched, and
    /// bitwise identical to the scalar twin either way, so shard/batch
    /// grouping still cannot move a result bit). `lo <= hi <= len`.
    pub fn rows_f32<'a>(&'a self, lo: usize, hi: usize, scratch: &'a mut Vec<f32>) -> &'a [f32] {
        assert!(lo <= hi && hi <= self.ids.len(), "arena row range out of bounds");
        match &self.data {
            Payload::F32(rows) => &rows.as_slice()[lo * self.dim..hi * self.dim],
            Payload::Q8 { q, scales } => {
                if self.dim == 0 || lo == hi {
                    scratch.clear();
                } else {
                    *scratch = om_tensor::kernels::dequant_rows(
                        &q.as_slice()[lo * self.dim..hi * self.dim],
                        &scales.as_slice()[lo..hi],
                        self.dim,
                    );
                }
                &scratch[..]
            }
        }
    }

    /// Copy `id`'s row into `dst` (which must be exactly [`Arena::dim`]
    /// long), dequantizing if the arena is quantized. Returns false —
    /// leaving `dst` untouched — when `id` has no row (a cold user).
    pub fn copy_row_into(&self, id: I, dst: &mut [f32]) -> bool {
        debug_assert_eq!(dst.len(), self.dim, "destination row width");
        let Some(&i) = self.index.get(&id) else {
            return false;
        };
        match &self.data {
            Payload::F32(rows) => {
                dst.copy_from_slice(&rows.as_slice()[i * self.dim..(i + 1) * self.dim]);
            }
            Payload::Q8 { q, scales } => {
                let scale = scales.as_slice()[i];
                let codes = &q.as_slice()[i * self.dim..(i + 1) * self.dim];
                for (d, &c) in dst.iter_mut().zip(codes) {
                    *d = c as f32 * scale;
                }
            }
        }
        true
    }

    /// A copy of this arena with `id`'s row set to `row`: overwritten in
    /// place if the id already has a row, appended (a user's graduation)
    /// otherwise. This is the shadow-arena build of the online update
    /// path — the live arena is never mutated; callers publish the
    /// returned arena through [`crate::update::ArenaSwap::install`].
    /// `row.len()` must equal [`Arena::dim`] (the engine checks and
    /// refuses with a typed error before calling). On a quantized arena
    /// the fresh f32 row is quantized on entry, so a quantized engine
    /// stays quantized across online cold→warm graduations.
    pub fn with_row(&self, id: I, row: &[f32]) -> Arena<I> {
        assert_eq!(row.len(), self.dim, "ragged arena row");
        let at = self.index.get(&id).copied();
        let mut ids = self.ids.clone();
        if at.is_none() {
            ids.push(id);
        }
        let span = |i: usize| i * self.dim..(i + 1) * self.dim;
        let data = match &self.data {
            Payload::F32(rows) => {
                let mut data = rows.as_slice().to_vec();
                match at {
                    Some(i) => data[span(i)].copy_from_slice(row),
                    None => data.extend_from_slice(row),
                }
                Payload::F32(Store::Owned(data))
            }
            Payload::Q8 { q, scales } => {
                let mut qrow = Vec::with_capacity(self.dim);
                let scale = quant::quantize_row_into(row, &mut qrow);
                let mut qdata = q.as_slice().to_vec();
                let mut sdata = scales.as_slice().to_vec();
                match at {
                    Some(i) => {
                        qdata[span(i)].copy_from_slice(&qrow);
                        sdata[i] = scale;
                    }
                    None => {
                        qdata.extend_from_slice(&qrow);
                        sdata.push(scale);
                    }
                }
                Payload::Q8 { q: Store::Owned(qdata), scales: Store::Owned(sdata) }
            }
        };
        Arena::from_payload(ids, data, self.dim)
    }
}
