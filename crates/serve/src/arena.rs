//! Offline representation precompute: contiguous embedding arenas.
//!
//! The towers are the expensive half of scoring (TextCNN over a review
//! document per entity); the rating head is a small MLP over concatenated
//! features. Serving therefore encodes every target-domain item — and
//! every warm user — **once**, into row-major `[n, dim]` f32 arenas, and
//! a request only runs the user tower when its user is cold (or not even
//! that, for warm users).
//!
//! Determinism: every forward here runs under [`om_nn::inference_mode`]
//! (no tape, no dropout, nothing drawn from the RNG), and every kernel in
//! the tower is row-independent with a fixed per-element reduction order,
//! so arena rows are bitwise identical no matter how the precompute was
//! batched — and bitwise identical to a tower run at request time. Tests
//! assert both.

use std::collections::BTreeMap;
use std::path::Path;

use om_data::types::{ItemId, UserId};
use om_tensor::seeded_rng;
use omnimatch_core::model::DomainSide;
use omnimatch_core::{CorpusViews, OmniMatchModel};

use crate::blob::{write_blob, write_blob_q8, ArenaBlob, BlobError, BlobKind, Verify};
use crate::quant;

/// Backing storage of an arena's `[len, dim]` feature block: owned rows
/// from a tower precompute / raw synthesis, or a zero-copy window into a
/// memory-mapped [`ArenaBlob`]. Scoring reads the same `&[f32]` either
/// way, so every engine path is storage-agnostic (and the blob round-trip
/// test can demand bitwise-equal scores).
pub(crate) enum Rows {
    /// Heap-owned rows.
    Owned(Vec<f32>),
    /// Rows borrowed from a memory-mapped blob.
    Mapped(crate::mmap::F32View),
}

impl Rows {
    fn as_slice(&self) -> &[f32] {
        match self {
            Rows::Owned(v) => v,
            Rows::Mapped(m) => m.as_slice(),
        }
    }
}

/// Backing storage of a quantized arena's int8 codes — the i8 twin of
/// [`Rows`].
pub(crate) enum QBytes {
    /// Heap-owned codes.
    Owned(Vec<i8>),
    /// Codes borrowed from a memory-mapped blob.
    Mapped(crate::mmap::I8View),
}

impl QBytes {
    fn as_slice(&self) -> &[i8] {
        match self {
            QBytes::Owned(v) => v,
            QBytes::Mapped(m) => m.as_slice(),
        }
    }
}

/// An arena's payload: the exact f32 rows of the tower precompute, or
/// the int8-per-row-scale serving quantization of them (`ItemArena::quantized`,
/// see [`crate::quant`]). Training and checkpoints never see `Q8`; the
/// scoring paths read both through [`ItemArena::rows_f32`] /
/// [`UserArena::copy_row_into`], which dequantize on the fly.
pub(crate) enum Payload {
    /// Exact f32 rows.
    F32(Rows),
    /// Per-row-scale int8 codes (`q[r*dim + c] as f32 * scales[r]`).
    Q8 {
        /// `[len, dim]` codes.
        q: QBytes,
        /// `[len]` dequantization scales.
        scales: Rows,
    },
}

impl Payload {
    fn len(&self) -> usize {
        match self {
            Payload::F32(rows) => rows.as_slice().len(),
            Payload::Q8 { q, .. } => q.as_slice().len(),
        }
    }

    fn is_quantized(&self) -> bool {
        matches!(self, Payload::Q8 { .. })
    }
}

/// Every target-domain item's features, `[len, dim]` row-major.
pub struct ItemArena {
    ids: Vec<ItemId>,
    index: BTreeMap<ItemId, usize>,
    data: Payload,
    dim: usize,
}

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
        ItemArena::from_rows(ids, Rows::Owned(data), dim)
    }

    /// Assemble an arena from pre-computed feature rows (e.g. the
    /// serving-scale synthetic presets of `om_data::synth`). `data` is
    /// `[ids.len(), dim]` row-major; ids must be unique.
    pub fn from_raw(ids: Vec<ItemId>, data: Vec<f32>, dim: usize) -> ItemArena {
        ItemArena::from_rows(ids, Rows::Owned(data), dim)
    }

    pub(crate) fn from_rows(ids: Vec<ItemId>, data: Rows, dim: usize) -> ItemArena {
        ItemArena::from_payload(ids, Payload::F32(data), dim)
    }

    pub(crate) fn from_payload(ids: Vec<ItemId>, data: Payload, dim: usize) -> ItemArena {
        assert_eq!(data.len(), ids.len() * dim, "ragged item arena");
        if let Payload::Q8 { scales, .. } = &data {
            assert_eq!(scales.as_slice().len(), ids.len(), "one scale per quantized arena row");
        }
        let index: BTreeMap<ItemId, usize> =
            ids.iter().enumerate().map(|(i, &id)| (id, i)).collect();
        assert_eq!(index.len(), ids.len(), "duplicate item ids in arena");
        ItemArena { ids, index, data, dim }
    }

    /// The int8-per-row-scale serving quantization of this arena (see
    /// [`crate::quant`]). The source must hold exact f32 rows — this is
    /// the one f32 → int8 conversion point, there is no re-quantize.
    pub fn quantized(&self) -> ItemArena {
        let data = match &self.data {
            Payload::F32(rows) => rows.as_slice(),
            Payload::Q8 { .. } => panic!("arena is already quantized"),
        };
        let (q, scales) = quant::quantize_rows(data, self.ids.len(), self.dim);
        ItemArena::from_payload(
            self.ids.clone(),
            Payload::Q8 { q: QBytes::Owned(q), scales: Rows::Owned(scales) },
            self.dim,
        )
    }

    /// Whether the arena stores int8 codes rather than exact f32 rows.
    pub fn is_quantized(&self) -> bool {
        self.data.is_quantized()
    }

    /// Load an arena from an `OMAB` blob written by
    /// [`ItemArena::write_blob`] — v1 maps the f32 block zero-copy, v2
    /// maps the quantized payload.
    pub fn load_blob(path: &Path, verify: Verify) -> Result<ItemArena, BlobError> {
        let blob = ArenaBlob::open(path, verify)?;
        if blob.kind() != BlobKind::Items {
            return Err(BlobError::WrongKind { expected: BlobKind::Items, found: blob.kind() });
        }
        let ids = blob.ids().into_iter().map(ItemId).collect();
        let payload = if blob.is_quantized() {
            let (q, scales) = blob.q8_payload();
            Payload::Q8 { q, scales }
        } else {
            Payload::F32(blob.feature_rows())
        };
        Ok(ItemArena::from_payload(ids, payload, blob.dim()))
    }

    /// Serialize the arena to a length/CRC-framed `OMAB` blob at `path`
    /// (atomic write → fsync → rename) — v1 for f32 arenas, v2 for
    /// quantized ones.
    pub fn write_blob(&self, path: &Path) -> Result<(), BlobError> {
        let ids: Vec<u32> = self.ids.iter().map(|id| id.0).collect();
        match &self.data {
            Payload::F32(rows) => write_blob(path, BlobKind::Items, self.dim, &ids, rows.as_slice()),
            Payload::Q8 { q, scales } => write_blob_q8(
                path,
                BlobKind::Items,
                self.dim,
                &ids,
                q.as_slice(),
                scales.as_slice(),
            ),
        }
    }

    /// Number of items.
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

    /// The contiguous `[len, dim]` f32 feature block. Panics on a
    /// quantized arena, which has no borrowable f32 form — the scoring
    /// paths go through [`ItemArena::rows_f32`] instead, which handles
    /// both representations.
    pub fn data(&self) -> &[f32] {
        match &self.data {
            Payload::F32(rows) => rows.as_slice(),
            Payload::Q8 { .. } => {
                panic!("ItemArena::data on a quantized arena; use rows_f32")
            }
        }
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

    /// Item at arena row `i`.
    pub fn id_at(&self, i: usize) -> ItemId {
        self.ids[i]
    }

    /// Arena row of `item`, if present.
    pub fn row_of(&self, item: ItemId) -> Option<usize> {
        self.index.get(&item).copied()
    }
}

/// Warm users' combined target-side features, `[len, dim]` row-major.
/// Cold users are deliberately absent: their tower runs at request time
/// over the auxiliary document (that tower pass *is* the cold-start
/// inference the paper describes).
pub struct UserArena {
    ids: Vec<UserId>,
    index: BTreeMap<UserId, usize>,
    data: Payload,
    dim: usize,
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
        // would feed `from_rows` duplicate ids (redundant rows plus a
        // last-write-wins index), skewing `len()` and
        // `serve.arena.warm_users`.
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
        UserArena::from_rows(known, Rows::Owned(data), dim)
    }

    /// Assemble an arena from pre-computed combined feature rows. `data`
    /// is `[ids.len(), dim]` row-major; ids must be unique.
    pub fn from_raw(ids: Vec<UserId>, data: Vec<f32>, dim: usize) -> UserArena {
        UserArena::from_rows(ids, Rows::Owned(data), dim)
    }

    pub(crate) fn from_rows(ids: Vec<UserId>, data: Rows, dim: usize) -> UserArena {
        UserArena::from_payload(ids, Payload::F32(data), dim)
    }

    pub(crate) fn from_payload(ids: Vec<UserId>, data: Payload, dim: usize) -> UserArena {
        assert_eq!(data.len(), ids.len() * dim, "ragged user arena");
        if let Payload::Q8 { scales, .. } = &data {
            assert_eq!(scales.as_slice().len(), ids.len(), "one scale per quantized arena row");
        }
        let index: BTreeMap<UserId, usize> =
            ids.iter().enumerate().map(|(i, &u)| (u, i)).collect();
        assert_eq!(index.len(), ids.len(), "duplicate user ids in arena");
        UserArena { ids, index, data, dim }
    }

    /// The int8-per-row-scale serving quantization of this arena (see
    /// [`crate::quant`]). The source must hold exact f32 rows.
    pub fn quantized(&self) -> UserArena {
        let data = match &self.data {
            Payload::F32(rows) => rows.as_slice(),
            Payload::Q8 { .. } => panic!("arena is already quantized"),
        };
        let (q, scales) = quant::quantize_rows(data, self.ids.len(), self.dim);
        UserArena::from_payload(
            self.ids.clone(),
            Payload::Q8 { q: QBytes::Owned(q), scales: Rows::Owned(scales) },
            self.dim,
        )
    }

    /// Whether the arena stores int8 codes rather than exact f32 rows.
    pub fn is_quantized(&self) -> bool {
        self.data.is_quantized()
    }

    /// Load an arena from an `OMAB` blob written by
    /// [`UserArena::write_blob`] — v1 maps the f32 block zero-copy, v2
    /// maps the quantized payload.
    pub fn load_blob(path: &Path, verify: Verify) -> Result<UserArena, BlobError> {
        let blob = ArenaBlob::open(path, verify)?;
        if blob.kind() != BlobKind::Users {
            return Err(BlobError::WrongKind { expected: BlobKind::Users, found: blob.kind() });
        }
        let ids = blob.ids().into_iter().map(UserId).collect();
        let payload = if blob.is_quantized() {
            let (q, scales) = blob.q8_payload();
            Payload::Q8 { q, scales }
        } else {
            Payload::F32(blob.feature_rows())
        };
        Ok(UserArena::from_payload(ids, payload, blob.dim()))
    }

    /// Serialize the arena to a length/CRC-framed `OMAB` blob at `path`
    /// (atomic write → fsync → rename) — v1 for f32 arenas, v2 for
    /// quantized ones.
    pub fn write_blob(&self, path: &Path) -> Result<(), BlobError> {
        let ids: Vec<u32> = self.ids.iter().map(|u| u.0).collect();
        match &self.data {
            Payload::F32(rows) => write_blob(path, BlobKind::Users, self.dim, &ids, rows.as_slice()),
            Payload::Q8 { q, scales } => write_blob_q8(
                path,
                BlobKind::Users,
                self.dim,
                &ids,
                q.as_slice(),
                scales.as_slice(),
            ),
        }
    }

    /// Number of warm users held.
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

    /// Warm users in arena row order.
    pub fn ids(&self) -> &[UserId] {
        &self.ids
    }

    /// Whether `user` has a cached row (warm) in this arena.
    pub fn contains(&self, user: UserId) -> bool {
        self.index.contains_key(&user)
    }

    /// The cached combined features of `user`, if warm. Panics on a
    /// quantized arena, whose rows have no borrowable f32 form — the
    /// engine goes through [`UserArena::copy_row_into`] instead.
    pub fn row(&self, user: UserId) -> Option<&[f32]> {
        let &i = self.index.get(&user)?;
        match &self.data {
            Payload::F32(rows) => Some(&rows.as_slice()[i * self.dim..(i + 1) * self.dim]),
            Payload::Q8 { .. } => panic!("UserArena::row on a quantized arena; use copy_row_into"),
        }
    }

    /// Copy `user`'s combined features into `dst` (which must be exactly
    /// [`UserArena::dim`] long), dequantizing if the arena is quantized.
    /// Returns false — leaving `dst` untouched — when the user is cold.
    pub fn copy_row_into(&self, user: UserId, dst: &mut [f32]) -> bool {
        debug_assert_eq!(dst.len(), self.dim, "destination row width");
        let Some(&i) = self.index.get(&user) else {
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

    /// A copy of this arena with `user`'s row set to `row`: overwritten in
    /// place if the user is already warm, appended (graduation) otherwise.
    /// This is the shadow-arena build of the online update path — the live
    /// arena is never mutated; callers publish the returned arena through
    /// [`crate::update::ArenaSwap::install`]. `row.len()` must equal
    /// [`UserArena::dim`] (the engine checks and refuses with a typed
    /// error before calling). On a quantized arena the fresh f32 row is
    /// quantized on entry, so a quantized engine stays quantized across
    /// online cold→warm graduations.
    pub fn with_row(&self, user: UserId, row: &[f32]) -> UserArena {
        assert_eq!(row.len(), self.dim, "ragged user arena");
        let mut ids = self.ids.clone();
        match &self.data {
            Payload::F32(rows) => {
                let mut data = rows.as_slice().to_vec();
                match self.index.get(&user) {
                    Some(&i) => data[i * self.dim..(i + 1) * self.dim].copy_from_slice(row),
                    None => {
                        ids.push(user);
                        data.extend_from_slice(row);
                    }
                }
                UserArena::from_rows(ids, Rows::Owned(data), self.dim)
            }
            Payload::Q8 { q, scales } => {
                let mut qrow = Vec::with_capacity(self.dim);
                let scale = quant::quantize_row_into(row, &mut qrow);
                let mut qdata = q.as_slice().to_vec();
                let mut sdata = scales.as_slice().to_vec();
                match self.index.get(&user) {
                    Some(&i) => {
                        qdata[i * self.dim..(i + 1) * self.dim].copy_from_slice(&qrow);
                        sdata[i] = scale;
                    }
                    None => {
                        ids.push(user);
                        qdata.extend_from_slice(&qrow);
                        sdata.push(scale);
                    }
                }
                UserArena::from_payload(
                    ids,
                    Payload::Q8 { q: QBytes::Owned(qdata), scales: Rows::Owned(sdata) },
                    self.dim,
                )
            }
        }
    }
}
