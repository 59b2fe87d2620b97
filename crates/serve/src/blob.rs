//! Length/CRC-framed arena blobs (`OMAB` v1/v2) — the on-disk form of
//! [`crate::ItemArena`]/[`crate::UserArena`], written atomically and
//! loaded all-or-nothing, OMCK v2 style.
//!
//! Version 1 layout (all integers little-endian):
//!
//! ```text
//! off  0  magic   b"OMAB"
//!      4  version u32 = 1
//!      8  kind    u32        (0 = items, 1 = users)
//!     12  dim     u32        feature width per row
//!     16  n       u64        row count
//!     24  ids_crc u32        crc32 of the raw ids bytes
//!     28  data_crc u32       crc32 of the raw feature bytes
//!     32  header_crc u32     crc32 of bytes [0, 32)
//!     36  pad     4 zero bytes
//!     40  ids     n × u32    arena row order
//!     …   pad     to the next 8-byte boundary
//!     …   data    n × dim × f32
//! ```
//!
//! Version 2 is the **quantized** form: the same 40-byte header with
//! `version = 2`, and the f32 feature block replaced by a per-row-scale
//! int8 payload (see [`crate::quant`] for the code semantics):
//!
//! ```text
//!     40  ids     n × u32    arena row order
//!     …   pad     to the next 8-byte boundary
//!     …   scales  n × f32    one dequant scale per row
//!     …   pad     to the next 8-byte boundary
//!     …   qdata   n × dim × i8
//! ```
//!
//! In v2, `data_crc` covers everything from the scales section to the end
//! of file (scales, the inter-section pad, and the codes) as one
//! contiguous region. A v1 reader rejects a v2 blob with
//! [`BlobError::BadVersion`] rather than misreading int8 codes as floats.
//!
//! The header pins the exact file length, so truncation *and* trailing
//! garbage are rejected even in [`Verify::Quick`] mode without touching a
//! single data page. [`Verify::Full`] additionally checks both payload
//! CRCs — O(file), the right default for tests and one-off tooling, while
//! a production cold start uses `Quick` and keeps start-up cost at
//! O(pages touched) (CRCs were verified when the blob was written; the
//! frame still catches the torn/partial-file failure modes). At either
//! level the arena loader rejects an id that appears on two rows with
//! [`BlobError::DuplicateId`], so a flipped bit in the ids section that
//! `Quick` lets through is still a typed error, never a panic.
//!
//! One writer (`write_blob`) and one frame computation serve both
//! versions; the version follows from the payload.

use std::io::{self, Write as _};
use std::path::Path;
use std::sync::Arc;

use om_nn::serialize::crc32;

use crate::arena::{Payload, Store};
use crate::mmap::{MapView, Mmap};

const MAGIC: &[u8; 4] = b"OMAB";
const VERSION: u32 = 1;
const VERSION_Q8: u32 = 2;
const HEADER_LEN: usize = 40;
const IDS_OFF: usize = 40;

/// Which arena a blob holds; loading a blob as the wrong arena type is an
/// error, not a silent reinterpretation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlobKind {
    /// An item arena (`kind = 0`).
    Items,
    /// A user arena (`kind = 1`).
    Users,
}

impl BlobKind {
    fn code(self) -> u32 {
        match self {
            BlobKind::Items => 0,
            BlobKind::Users => 1,
        }
    }

    fn from_code(code: u32) -> Option<BlobKind> {
        match code {
            0 => Some(BlobKind::Items),
            1 => Some(BlobKind::Users),
            _ => None,
        }
    }
}

/// How much of the blob to validate at open time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verify {
    /// Header CRC + exact-length frame only: O(1) pages touched.
    Quick,
    /// Everything `Quick` checks plus both payload CRCs: O(file).
    Full,
}

/// Why a blob was rejected. Every variant is all-or-nothing: no arena is
/// ever built from a file that produced one of these.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BlobError {
    /// Underlying IO failure (open/read/write/rename).
    Io(String),
    /// The first four bytes are not `OMAB`.
    BadMagic,
    /// A version this build does not understand.
    BadVersion(u32),
    /// An unknown kind code in the header.
    BadKind(u32),
    /// The blob holds the other arena type.
    WrongKind {
        /// Kind the caller asked for.
        expected: BlobKind,
        /// Kind the header declares.
        found: BlobKind,
    },
    /// Header bytes fail their CRC.
    HeaderCrc,
    /// The ids section fails its CRC.
    IdsCrc,
    /// The feature data fails its CRC.
    DataCrc,
    /// The file is shorter than the header-declared frame.
    Truncated {
        /// Byte length the header implies.
        expected: u64,
        /// Actual file length.
        actual: u64,
    },
    /// The file is longer than the header-declared frame.
    TrailingBytes {
        /// Byte length the header implies.
        expected: u64,
        /// Actual file length.
        actual: u64,
    },
    /// Declared sizes overflow or a section is misaligned.
    BadFrame,
    /// The ids section names this id on more than one row.
    DuplicateId(u32),
}

impl std::fmt::Display for BlobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BlobError::Io(e) => write!(f, "io error: {e}"),
            BlobError::BadMagic => write!(f, "not an OMAB arena blob"),
            BlobError::BadVersion(v) => write!(f, "unsupported OMAB version {v}"),
            BlobError::BadKind(k) => write!(f, "unknown arena kind code {k}"),
            BlobError::WrongKind { expected, found } => {
                write!(f, "arena kind mismatch: expected {expected:?}, found {found:?}")
            }
            BlobError::HeaderCrc => write!(f, "header CRC mismatch"),
            BlobError::IdsCrc => write!(f, "ids section CRC mismatch"),
            BlobError::DataCrc => write!(f, "feature data CRC mismatch"),
            BlobError::Truncated { expected, actual } => {
                write!(f, "truncated blob: expected {expected} bytes, found {actual}")
            }
            BlobError::TrailingBytes { expected, actual } => {
                write!(f, "trailing bytes: expected {expected} bytes, found {actual}")
            }
            BlobError::BadFrame => write!(f, "inconsistent frame lengths"),
            BlobError::DuplicateId(id) => write!(f, "duplicate arena id {id}"),
        }
    }
}

impl std::error::Error for BlobError {}

impl From<io::Error> for BlobError {
    fn from(e: io::Error) -> BlobError {
        BlobError::Io(e.to_string())
    }
}

fn align8(off: usize) -> usize {
    off.div_ceil(8) * 8
}

/// Byte layout past the header of a blob of `n` rows × `dim`.
struct Frame {
    /// Start of the region `data_crc` covers: the f32 rows (v1), or the
    /// scales, their pad and the codes (v2).
    payload_off: usize,
    /// Start of the `n × dim` row block: f32 rows (v1) or i8 codes (v2).
    rows_off: usize,
    /// Exact file length.
    total: usize,
}

/// The [`Frame`] of a v1 (`quantized = false`) or v2 blob of `n` rows ×
/// `dim`. `None` on arithmetic overflow.
fn frame(quantized: bool, n: usize, dim: usize) -> Option<Frame> {
    let payload_off = align8(IDS_OFF.checked_add(n.checked_mul(4)?)?);
    let (rows_off, elem) = if quantized {
        (align8(payload_off.checked_add(n.checked_mul(4)?)?), 1)
    } else {
        (payload_off, 4)
    };
    let total = rows_off.checked_add(n.checked_mul(dim)?.checked_mul(elem)?)?;
    Some(Frame { payload_off, rows_off, total })
}

/// Serialize one arena to `path`, atomically: write `path.tmp`, fsync,
/// rename. An f32 payload becomes a v1 blob, a quantized one a v2 blob.
pub(crate) fn write_blob(
    path: &Path,
    kind: BlobKind,
    dim: usize,
    ids: &[u32],
    payload: &Payload,
) -> Result<(), BlobError> {
    let quantized = payload.is_quantized();
    let f = frame(quantized, ids.len(), dim).ok_or(BlobError::BadFrame)?;

    let mut ids_bytes = Vec::with_capacity(ids.len() * 4);
    for id in ids {
        ids_bytes.extend_from_slice(&id.to_le_bytes());
    }
    // The data CRC covers the whole payload..end region (in v2 the pad
    // between scales and codes included), so the open-time check is one
    // contiguous crc32 over the map.
    let mut data_bytes = Vec::with_capacity(f.total - f.payload_off);
    let f32s = |out: &mut Vec<u8>, vals: &[f32]| {
        for v in vals {
            out.extend_from_slice(&v.to_le_bytes());
        }
    };
    match payload {
        Payload::F32(rows) => f32s(&mut data_bytes, rows.as_slice()),
        Payload::Q8 { q, scales } => {
            f32s(&mut data_bytes, scales.as_slice());
            data_bytes.resize(f.rows_off - f.payload_off, 0u8);
            data_bytes.extend(q.as_slice().iter().map(|&c| c as u8));
        }
    }
    assert_eq!(data_bytes.len(), f.total - f.payload_off, "ragged arena blob");

    let mut header = Vec::with_capacity(HEADER_LEN);
    header.extend_from_slice(MAGIC);
    header.extend_from_slice(&(if quantized { VERSION_Q8 } else { VERSION }).to_le_bytes());
    header.extend_from_slice(&kind.code().to_le_bytes());
    header.extend_from_slice(&u32::try_from(dim).map_err(|_| BlobError::BadFrame)?.to_le_bytes());
    header.extend_from_slice(&(ids.len() as u64).to_le_bytes());
    header.extend_from_slice(&crc32(&ids_bytes).to_le_bytes());
    header.extend_from_slice(&crc32(&data_bytes).to_le_bytes());
    let hcrc = crc32(&header);
    header.extend_from_slice(&hcrc.to_le_bytes());
    header.extend_from_slice(&[0u8; 4]);
    debug_assert_eq!(header.len(), HEADER_LEN);

    let tmp = path.with_extension("omab.tmp");
    {
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(&header)?;
        file.write_all(&ids_bytes)?;
        file.write_all(&vec![0u8; f.payload_off - IDS_OFF - ids_bytes.len()])?;
        file.write_all(&data_bytes)?;
        file.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    Ok(())
}

/// An opened, frame-validated arena blob.
pub(crate) struct ArenaBlob {
    map: Arc<Mmap>,
    kind: BlobKind,
    dim: usize,
    n: usize,
    quantized: bool,
    frame: Frame,
}

impl ArenaBlob {
    /// Open and validate `path` (see [`Verify`] for how much validation).
    pub(crate) fn open(path: &Path, verify: Verify) -> Result<ArenaBlob, BlobError> {
        let map = Arc::new(Mmap::open(path)?);
        let bytes = map.as_bytes();
        if bytes.len() < HEADER_LEN {
            return Err(BlobError::Truncated {
                expected: HEADER_LEN as u64,
                actual: bytes.len() as u64,
            });
        }
        let u32_at = |off: usize| u32::from_le_bytes(bytes[off..off + 4].try_into().expect("4 bytes"));
        if &bytes[0..4] != MAGIC {
            return Err(BlobError::BadMagic);
        }
        if u32_at(32) != crc32(&bytes[0..32]) {
            return Err(BlobError::HeaderCrc);
        }
        let version = u32_at(4);
        if version != VERSION && version != VERSION_Q8 {
            return Err(BlobError::BadVersion(version));
        }
        let quantized = version == VERSION_Q8;
        let kind = BlobKind::from_code(u32_at(8)).ok_or(BlobError::BadKind(u32_at(8)))?;
        let dim = u32_at(12) as usize;
        let n = usize::try_from(u64::from_le_bytes(bytes[16..24].try_into().expect("8 bytes")))
            .map_err(|_| BlobError::BadFrame)?;
        let frame = frame(quantized, n, dim).ok_or(BlobError::BadFrame)?;
        let (expected, actual) = (frame.total as u64, bytes.len() as u64);
        match actual.cmp(&expected) {
            std::cmp::Ordering::Less => return Err(BlobError::Truncated { expected, actual }),
            std::cmp::Ordering::Greater => {
                return Err(BlobError::TrailingBytes { expected, actual })
            }
            std::cmp::Ordering::Equal => {}
        }
        if verify == Verify::Full {
            if u32_at(24) != crc32(&bytes[IDS_OFF..IDS_OFF + n * 4]) {
                return Err(BlobError::IdsCrc);
            }
            if u32_at(28) != crc32(&bytes[frame.payload_off..frame.total]) {
                return Err(BlobError::DataCrc);
            }
        }
        om_obs::metrics::counter("serve.blob.opens").add(1);
        Ok(ArenaBlob { map, kind, dim, n, quantized, frame })
    }

    /// Which arena type the blob holds.
    pub(crate) fn kind(&self) -> BlobKind {
        self.kind
    }

    /// Feature width per row.
    pub(crate) fn dim(&self) -> usize {
        self.dim
    }

    /// Decode the row-order id section (a copy — ids are 4 bytes/row, the
    /// cheap part of the blob).
    pub(crate) fn ids(&self) -> Vec<u32> {
        let bytes = self.map.as_bytes();
        (0..self.n)
            .map(|i| {
                let off = IDS_OFF + i * 4;
                u32::from_le_bytes(bytes[off..off + 4].try_into().expect("4 bytes"))
            })
            .collect()
    }

    /// The arena payload the header declares: v1 maps the `[n, dim]` f32
    /// rows, v2 maps the int8 codes (no endianness concern) and reads the
    /// scales the same way as v1 rows.
    pub(crate) fn payload(&self) -> Payload {
        let rows = self.n * self.dim;
        if self.quantized {
            Payload::Q8 {
                q: Store::Mapped(MapView::new(Arc::clone(&self.map), self.frame.rows_off, rows)),
                scales: self.f32_store(self.frame.payload_off, self.n),
            }
        } else {
            Payload::F32(self.f32_store(self.frame.rows_off, rows))
        }
    }

    /// A zero-copy f32 window on little-endian targets, an owned decode
    /// elsewhere: `count` floats starting `off` bytes into the map.
    fn f32_store(&self, off: usize, count: usize) -> Store<f32> {
        if cfg!(target_endian = "little") {
            Store::Mapped(MapView::new(Arc::clone(&self.map), off, count))
        } else {
            let bytes = self.map.as_bytes();
            let data = (0..count)
                .map(|i| {
                    let o = off + i * 4;
                    f32::from_le_bytes(bytes[o..o + 4].try_into().expect("4 bytes"))
                })
                .collect();
            Store::Owned(data)
        }
    }
}
