//! Arena-blob persistence: all-or-nothing rejection of every corruption
//! class, and bitwise score parity between in-memory and memory-mapped
//! arenas — the OMCK-style durability contract extended to the serving
//! data plane.

use std::path::{Path, PathBuf};

use om_data::synth_feature_rows;
use om_data::types::{ItemId, UserId};
use om_data::{SplitConfig, SynthConfig, SynthWorld};
use om_serve::{
    load_model, BlobError, BlobKind, ItemArena, Request, ServeEngine, ServeOptions, UserArena,
    Verify,
};
use om_tensor::seeded_rng;
use omnimatch_core::{CorpusViews, OmniMatchConfig, Trainer};

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("om-blob-test-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create tmp dir");
    dir
}

const ITEM_DIM: usize = 12; // OmniMatchConfig::fast() dims
const USER_DIM: usize = 24;

/// Every row of `arena`, as f32 — the storage-agnostic read the engine
/// does.
fn all_rows(arena: &ItemArena) -> Vec<f32> {
    let mut scratch = Vec::new();
    arena.rows_f32(0, arena.len(), &mut scratch).to_vec()
}

/// `user`'s row, if the arena has one.
fn user_row(arena: &UserArena, user: UserId) -> Option<Vec<f32>> {
    let mut row = vec![0.0f32; arena.dim()];
    arena.copy_row_into(user, &mut row).then_some(row)
}

fn sample_arenas(n_items: usize, n_users: usize) -> (ItemArena, UserArena) {
    let items = ItemArena::from_raw(
        (0..n_items as u32).map(ItemId).collect(),
        synth_feature_rows(n_items, ITEM_DIM, 0xB10B),
        ITEM_DIM,
    );
    let users = UserArena::from_raw(
        (0..n_users as u32).map(UserId).collect(),
        synth_feature_rows(n_users, USER_DIM, 0xB10C),
        USER_DIM,
    );
    (items, users)
}

// ---------------------------------------------------------------------------
// Round trip + parity.
// ---------------------------------------------------------------------------

#[test]
fn roundtrip_preserves_ids_dims_and_every_data_bit() {
    let dir = tmp_dir("roundtrip");
    let (items, users) = sample_arenas(137, 41);
    let ipath = dir.join("items.omab");
    let upath = dir.join("users.omab");
    items.write_blob(&ipath).expect("write items");
    users.write_blob(&upath).expect("write users");

    let mapped_items = ItemArena::load_blob(&ipath, Verify::Full).expect("load items");
    let mapped_users = UserArena::load_blob(&upath, Verify::Full).expect("load users");
    assert_eq!(mapped_items.len(), items.len());
    assert_eq!(mapped_items.dim(), items.dim());
    assert_eq!(mapped_users.len(), users.len());
    assert_eq!(mapped_users.dim(), users.dim());
    let (a, b) = (all_rows(&items), all_rows(&mapped_items));
    assert_eq!(a.len(), b.len());
    for (a, b) in a.iter().zip(&b) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
    for i in 0..items.len() {
        assert_eq!(items.id_at(i), mapped_items.id_at(i));
    }
    for &u in users.ids() {
        let (a, b) = (user_row(&users, u).expect("row"), user_row(&mapped_users, u).expect("row"));
        assert!(a.iter().zip(&b).all(|(x, y)| x.to_bits() == y.to_bits()));
    }
    // Feature bits survive even when poisoned with NaN payloads.
    let mut weird = synth_feature_rows(5, ITEM_DIM, 1);
    weird[3] = f32::NAN;
    weird[17] = f32::NEG_INFINITY;
    weird[20] = -0.0;
    let arena = ItemArena::from_raw((0..5).map(ItemId).collect(), weird.clone(), ITEM_DIM);
    let wpath = dir.join("weird.omab");
    arena.write_blob(&wpath).expect("write");
    let back = all_rows(&ItemArena::load_blob(&wpath, Verify::Full).expect("load"));
    assert_eq!(back.len(), weird.len());
    for (a, b) in weird.iter().zip(&back) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
}

#[test]
fn mapped_and_in_memory_arenas_serve_bitwise_identical_responses() {
    let dir = tmp_dir("parity");
    let world = SynthWorld::generate(SynthConfig::tiny(), &["Books", "Movies"]);
    let scenario = world.scenario("Books", "Movies", SplitConfig::default());
    let cfg = OmniMatchConfig::fast().with_seed(53);
    let trained = Trainer::new(cfg.clone()).fit(&scenario);
    let ckpt = trained.export_checkpoint().to_vec();
    let (model, views, _) = trained.into_parts();
    let vocab_size = views.vocab.len();

    let (items, users) = sample_arenas(300, 17);
    let ipath = dir.join("items.omab");
    let upath = dir.join("users.omab");
    items.write_blob(&ipath).expect("write items");
    users.write_blob(&upath).expect("write users");

    let opts = ServeOptions { shard_items: 64, ..ServeOptions::default() };
    let in_memory = ServeEngine::with_arenas(model, views, items, users, opts.clone());

    // A second process's cold start: model from the checkpoint, arenas
    // memory-mapped from the blobs (Quick — the production verify level).
    let model2 = load_model(&cfg, vocab_size, &ckpt).expect("decode checkpoint");
    let views2 = CorpusViews::build(&scenario, &cfg, &mut seeded_rng(cfg.seed));
    let items2 = ItemArena::load_blob(&ipath, Verify::Quick).expect("map items");
    let users2 = UserArena::load_blob(&upath, Verify::Quick).expect("map users");
    let mapped = ServeEngine::with_arenas(model2, views2, items2, users2, opts);

    let reqs: Vec<Request> = (0..17)
        .map(|i| Request { id: i as u64, user: UserId(i as u32), arrive_us: 0 })
        .collect();
    let a = in_memory.serve_batch(&reqs).expect("serve batch");
    let b = mapped.serve_batch(&reqs).expect("serve batch");
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.id, y.id);
        assert_eq!(x.top.len(), y.top.len());
        for ((ia, sa), (ib, sb)) in x.top.iter().zip(&y.top) {
            assert_eq!(ia, ib, "mapped arena ranked differently");
            assert_eq!(sa.to_bits(), sb.to_bits(), "score bits drifted through the blob");
        }
    }
    // And the full score rows, not just the page.
    for req in &reqs {
        let ra = in_memory.score_user(req.user).expect("score user");
        let rb = mapped.score_user(req.user).expect("score user");
        assert!(ra.iter().zip(&rb).all(|(x, y)| x.to_bits() == y.to_bits()));
    }
}

/// The writer's exact output for two tiny arenas, pinned byte for byte:
/// a v1 item blob and a v2 (quantized) user blob, two rows of width 2
/// each. Any change to the OMAB layout, its CRCs or the quantizer shows
/// up here as a byte diff.
#[test]
fn two_row_blobs_match_their_golden_bytes() {
    let dir = tmp_dir("golden");
    let items = ItemArena::from_raw(vec![ItemId(7), ItemId(3)], vec![1.0, -2.0, 0.5, 0.0], 2);
    let users =
        UserArena::from_raw(vec![UserId(5), UserId(258)], vec![1.0, -2.0, 0.25, 0.5], 2)
            .quantized();
    #[rustfmt::skip]
    let v1: [u8; 64] = [
        0x4f, 0x4d, 0x41, 0x42, 0x01, 0x00, 0x00, 0x00, // "OMAB", version 1
        0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, // kind items, dim 2
        0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // n = 2
        0x9e, 0x79, 0x52, 0x7d, 0xb2, 0xb0, 0x77, 0xd4, // ids crc, data crc
        0x7f, 0xf5, 0x6e, 0x32, 0x00, 0x00, 0x00, 0x00, // header crc, pad
        0x07, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, // ids 7, 3
        0x00, 0x00, 0x80, 0x3f, 0x00, 0x00, 0x00, 0xc0, // row 0: 1.0, -2.0
        0x00, 0x00, 0x00, 0x3f, 0x00, 0x00, 0x00, 0x00, // row 1: 0.5, 0.0
    ];
    #[rustfmt::skip]
    let v2: [u8; 60] = [
        0x4f, 0x4d, 0x41, 0x42, 0x02, 0x00, 0x00, 0x00, // "OMAB", version 2
        0x01, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, // kind users, dim 2
        0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // n = 2
        0xb1, 0x73, 0x09, 0x86, 0x33, 0x4e, 0x95, 0xba, // ids crc, data crc
        0x06, 0x73, 0xe3, 0x40, 0x00, 0x00, 0x00, 0x00, // header crc, pad
        0x05, 0x00, 0x00, 0x00, 0x02, 0x01, 0x00, 0x00, // ids 5, 258
        0x04, 0x02, 0x81, 0x3c, 0x04, 0x02, 0x81, 0x3b, // scales 2/127, 0.5/127
        0x40, 0x81, 0x40, 0x7f,                         // codes 64, -127 | 64, 127
    ];
    let ipath = dir.join("items.omab");
    let upath = dir.join("users.q8.omab");
    items.write_blob(&ipath).expect("write items");
    users.write_blob(&upath).expect("write users");
    assert_eq!(std::fs::read(&ipath).expect("read items"), v1, "v1 bytes moved");
    assert_eq!(std::fs::read(&upath).expect("read users"), v2, "v2 bytes moved");
}

// ---------------------------------------------------------------------------
// Corruption classes — each rejected all-or-nothing.
// ---------------------------------------------------------------------------

fn valid_blob_bytes(dir: &Path) -> (PathBuf, Vec<u8>) {
    let (items, _) = sample_arenas(64, 1);
    let path = dir.join("victim.omab");
    items.write_blob(&path).expect("write");
    let bytes = std::fs::read(&path).expect("read back");
    (path, bytes)
}

#[test]
fn truncation_at_any_section_is_rejected_even_in_quick_mode() {
    let dir = tmp_dir("trunc");
    let (path, bytes) = valid_blob_bytes(&dir);
    // Cut inside the header, the ids, the data, and one byte short.
    for cut in [0, 7, 39, 41, 40 + 64 * 2, bytes.len() / 2, bytes.len() - 1] {
        std::fs::write(&path, &bytes[..cut]).expect("write truncated");
        let err = ItemArena::load_blob(&path, Verify::Quick)
            .err()
            .unwrap_or_else(|| panic!("truncation at {cut} accepted"));
        assert!(
            matches!(err, BlobError::Truncated { .. } | BlobError::HeaderCrc | BlobError::BadMagic),
            "cut at {cut}: unexpected error {err:?}"
        );
    }
}

#[test]
fn trailing_bytes_are_rejected_even_in_quick_mode() {
    let dir = tmp_dir("trailing");
    let (path, bytes) = valid_blob_bytes(&dir);
    for extra in [1usize, 8, 4096] {
        let mut grown = bytes.clone();
        grown.extend(std::iter::repeat_n(0xAAu8, extra));
        std::fs::write(&path, &grown).expect("write grown");
        match ItemArena::load_blob(&path, Verify::Quick).err() {
            Some(BlobError::TrailingBytes { expected, actual }) => {
                assert_eq!(expected as usize, bytes.len());
                assert_eq!(actual as usize, bytes.len() + extra);
            }
            other => panic!("{extra} trailing bytes: expected TrailingBytes, got {other:?}"),
        }
    }
}

#[test]
fn header_corruption_fails_the_header_crc() {
    let dir = tmp_dir("hdr");
    let (path, bytes) = valid_blob_bytes(&dir);
    // Flip one bit in each header field behind the CRC: version, kind,
    // dim, n, ids_crc, data_crc.
    for off in [4usize, 8, 12, 16, 24, 28] {
        let mut bad = bytes.clone();
        bad[off] ^= 0x10;
        std::fs::write(&path, &bad).expect("write corrupted");
        assert_eq!(
            ItemArena::load_blob(&path, Verify::Quick).err(),
            Some(BlobError::HeaderCrc),
            "flip at {off}"
        );
    }
    // The magic is checked before the CRC.
    let mut bad = bytes.clone();
    bad[1] ^= 0x01;
    std::fs::write(&path, &bad).expect("write corrupted");
    assert_eq!(ItemArena::load_blob(&path, Verify::Quick).err(), Some(BlobError::BadMagic));
    // A corrupted header CRC itself also fails.
    let mut bad = bytes;
    bad[33] ^= 0x80;
    std::fs::write(&path, &bad).expect("write corrupted");
    assert_eq!(ItemArena::load_blob(&path, Verify::Quick).err(), Some(BlobError::HeaderCrc));
}

#[test]
fn payload_corruption_fails_the_section_crcs_in_full_mode() {
    let dir = tmp_dir("payload");
    let (path, bytes) = valid_blob_bytes(&dir);

    // Ids section: byte 40 + k.
    let mut bad = bytes.clone();
    bad[45] ^= 0x04;
    std::fs::write(&path, &bad).expect("write corrupted");
    assert_eq!(ItemArena::load_blob(&path, Verify::Full).err(), Some(BlobError::IdsCrc));

    // Data section: last byte of the file.
    let mut bad = bytes.clone();
    let last = bad.len() - 1;
    bad[last] ^= 0x80;
    std::fs::write(&path, &bad).expect("write corrupted");
    assert_eq!(ItemArena::load_blob(&path, Verify::Full).err(), Some(BlobError::DataCrc));

    // Quick mode deliberately skips payload CRCs (cold start touches
    // O(1) pages) — the frame still matches, so this loads. The tradeoff
    // is documented in DESIGN.md; this pin makes it explicit.
    assert!(ItemArena::load_blob(&path, Verify::Quick).is_ok());
}

/// Set the id at arena row `row` of the blob at `path` to `id`, then
/// re-seal the ids CRC and the header CRC, so that only the loader's
/// duplicate check can object to the result.
fn patch_id(path: &Path, row: usize, id: u32) {
    let mut bytes = std::fs::read(path).expect("read blob");
    let n = u64::from_le_bytes(bytes[16..24].try_into().expect("8 bytes")) as usize;
    let off = 40 + row * 4;
    bytes[off..off + 4].copy_from_slice(&id.to_le_bytes());
    let ids_crc = om_nn::serialize::crc32(&bytes[40..40 + n * 4]);
    bytes[24..28].copy_from_slice(&ids_crc.to_le_bytes());
    let header_crc = om_nn::serialize::crc32(&bytes[0..32]);
    bytes[32..36].copy_from_slice(&header_crc.to_le_bytes());
    std::fs::write(path, &bytes).expect("write patched blob");
}

#[test]
fn duplicate_ids_are_a_typed_error_in_both_verify_modes() {
    // Quick mode does not check the ids CRC, so one flipped bit there can
    // turn an id into its neighbour's; the loader must refuse the blob
    // with a typed error, not panic the cold start.
    let dir = tmp_dir("dup-ids");
    let (items, users) = sample_arenas(6, 6);
    for quantized in [false, true] {
        let ipath = dir.join(format!("items-{quantized}.omab"));
        let upath = dir.join(format!("users-{quantized}.omab"));
        if quantized {
            items.quantized().write_blob(&ipath).expect("write items");
            users.quantized().write_blob(&upath).expect("write users");
        } else {
            items.write_blob(&ipath).expect("write items");
            users.write_blob(&upath).expect("write users");
        }
        // Rows 2 and 4 now both carry id 2.
        patch_id(&ipath, 4, 2);
        patch_id(&upath, 4, 2);
        for verify in [Verify::Quick, Verify::Full] {
            assert_eq!(
                ItemArena::load_blob(&ipath, verify).err(),
                Some(BlobError::DuplicateId(2)),
                "items, quantized={quantized}, {verify:?}"
            );
            assert_eq!(
                UserArena::load_blob(&upath, verify).err(),
                Some(BlobError::DuplicateId(2)),
                "users, quantized={quantized}, {verify:?}"
            );
        }
    }
}

#[test]
fn loading_a_blob_as_the_wrong_arena_kind_is_an_error() {
    let dir = tmp_dir("kind");
    let (items, users) = sample_arenas(8, 8);
    let ipath = dir.join("items.omab");
    let upath = dir.join("users.omab");
    items.write_blob(&ipath).expect("write items");
    users.write_blob(&upath).expect("write users");
    assert_eq!(
        UserArena::load_blob(&ipath, Verify::Full).err(),
        Some(BlobError::WrongKind { expected: BlobKind::Users, found: BlobKind::Items })
    );
    assert_eq!(
        ItemArena::load_blob(&upath, Verify::Full).err(),
        Some(BlobError::WrongKind { expected: BlobKind::Items, found: BlobKind::Users })
    );
}

#[test]
fn empty_arenas_roundtrip_and_missing_files_error() {
    let dir = tmp_dir("edges");
    let empty = ItemArena::from_raw(Vec::new(), Vec::new(), ITEM_DIM);
    let path = dir.join("empty.omab");
    empty.write_blob(&path).expect("write empty");
    let back = ItemArena::load_blob(&path, Verify::Full).expect("load empty");
    assert!(back.is_empty());
    assert_eq!(back.dim(), ITEM_DIM);
    assert!(matches!(
        ItemArena::load_blob(&dir.join("nope.omab"), Verify::Quick),
        Err(BlobError::Io(_))
    ));
}

#[test]
fn empty_user_arena_roundtrips_in_both_verify_modes() {
    // A serving tier whose every user is cold-start has a zero-row user
    // arena. Its blob is header-only — the frame math must accept the
    // zero-length ids and data sections, not call them truncation.
    let dir = tmp_dir("empty-users");
    let empty = UserArena::from_raw(Vec::new(), Vec::new(), USER_DIM);
    assert_eq!(empty.len(), 0);
    let path = dir.join("empty-users.omab");
    empty.write_blob(&path).expect("write empty user arena");

    for verify in [Verify::Full, Verify::Quick] {
        let back = UserArena::load_blob(&path, verify)
            .unwrap_or_else(|e| panic!("empty user arena rejected under {verify:?}: {e:?}"));
        assert_eq!(back.len(), 0);
        assert_eq!(back.dim(), USER_DIM);
        assert!(back.ids().is_empty());
        assert_eq!(user_row(&back, UserId(0)), None, "no row in an empty arena");
    }

    // Kind tagging still applies to the degenerate blob.
    assert_eq!(
        ItemArena::load_blob(&path, Verify::Quick).err(),
        Some(BlobError::WrongKind { expected: BlobKind::Items, found: BlobKind::Users })
    );

    // And growing out of empty works: the first graduation appends row 0.
    let first = empty.with_row(UserId(9), &synth_feature_rows(1, USER_DIM, 0xB10D));
    assert_eq!(first.len(), 1);
    assert_eq!(first.ids(), &[UserId(9)]);
}

// ---------------------------------------------------------------------------
// Quantized (OMAB v2) blobs: round trip + the same corruption classes.
// ---------------------------------------------------------------------------

#[test]
fn quantized_blob_roundtrips_bitwise() {
    let dir = tmp_dir("q8-roundtrip");
    let (items, users) = sample_arenas(97, 23);
    let (qitems, qusers) = (items.quantized(), users.quantized());
    let ipath = dir.join("items.q8.omab");
    let upath = dir.join("users.q8.omab");
    qitems.write_blob(&ipath).expect("write quantized items");
    qusers.write_blob(&upath).expect("write quantized users");

    let back_items = ItemArena::load_blob(&ipath, Verify::Full).expect("load quantized items");
    let back_users = UserArena::load_blob(&upath, Verify::Full).expect("load quantized users");
    assert!(back_items.is_quantized(), "v2 blob must reload quantized");
    assert!(back_users.is_quantized(), "v2 blob must reload quantized");
    assert_eq!(back_items.len(), qitems.len());
    assert_eq!(back_items.dim(), qitems.dim());
    for i in 0..qitems.len() {
        assert_eq!(qitems.id_at(i), back_items.id_at(i));
    }

    // Dequantized rows — codes and scales both survived — bit for bit.
    let (mut s1, mut s2) = (Vec::new(), Vec::new());
    let a = qitems.rows_f32(0, qitems.len(), &mut s1);
    let b = back_items.rows_f32(0, back_items.len(), &mut s2);
    assert_eq!(a.len(), b.len());
    assert!(a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits()));

    let mut ra = vec![0.0f32; USER_DIM];
    let mut rb = vec![0.0f32; USER_DIM];
    for &u in qusers.ids() {
        assert!(qusers.copy_row_into(u, &mut ra));
        assert!(back_users.copy_row_into(u, &mut rb));
        assert!(ra.iter().zip(&rb).all(|(x, y)| x.to_bits() == y.to_bits()));
    }

    // The reloaded (mapped) quantized user arena still takes online
    // updates: with_row re-quantizes into a fresh owned Q8 arena.
    let grown = back_users.with_row(UserId(9_999), &synth_feature_rows(1, USER_DIM, 0xF00D));
    assert!(grown.is_quantized());
    assert_eq!(grown.len(), back_users.len() + 1);
    assert!(grown.contains(UserId(9_999)));
}

#[test]
fn empty_quantized_arena_roundtrips() {
    let dir = tmp_dir("q8-empty");
    let empty = ItemArena::from_raw(Vec::new(), Vec::new(), ITEM_DIM).quantized();
    let path = dir.join("empty.q8.omab");
    empty.write_blob(&path).expect("write empty quantized");
    for verify in [Verify::Full, Verify::Quick] {
        let back = ItemArena::load_blob(&path, verify).expect("load empty quantized");
        assert!(back.is_quantized());
        assert!(back.is_empty());
        assert_eq!(back.dim(), ITEM_DIM);
    }
}

fn valid_q8_blob_bytes(dir: &Path) -> (PathBuf, Vec<u8>) {
    let (items, _) = sample_arenas(64, 1);
    let path = dir.join("victim.q8.omab");
    items.quantized().write_blob(&path).expect("write quantized");
    let bytes = std::fs::read(&path).expect("read back");
    (path, bytes)
}

#[test]
fn quantized_blob_truncation_is_rejected_even_in_quick_mode() {
    let dir = tmp_dir("q8-trunc");
    let (path, bytes) = valid_q8_blob_bytes(&dir);
    // n=64, dim=12: ids at 40..296, scales at 296..552, codes at
    // 552..1320. Cut inside the header, ids, scales, codes, and one
    // byte short.
    assert_eq!(bytes.len(), 1320, "layout drifted; update the cut points");
    for cut in [0, 7, 39, 41, 300, 600, bytes.len() - 1] {
        std::fs::write(&path, &bytes[..cut]).expect("write truncated");
        let err = ItemArena::load_blob(&path, Verify::Quick)
            .err()
            .unwrap_or_else(|| panic!("truncation at {cut} accepted"));
        assert!(
            matches!(err, BlobError::Truncated { .. } | BlobError::HeaderCrc | BlobError::BadMagic),
            "cut at {cut}: unexpected error {err:?}"
        );
    }
    // Trailing garbage is caught by the same exact-length frame.
    let mut grown = bytes.clone();
    grown.extend(std::iter::repeat_n(0xAAu8, 16));
    std::fs::write(&path, &grown).expect("write grown");
    assert!(matches!(
        ItemArena::load_blob(&path, Verify::Quick).err(),
        Some(BlobError::TrailingBytes { .. })
    ));
}

#[test]
fn quantized_blob_payload_corruption_fails_the_crcs_in_full_mode() {
    let dir = tmp_dir("q8-payload");
    let (path, bytes) = valid_q8_blob_bytes(&dir);

    // Ids section.
    let mut bad = bytes.clone();
    bad[45] ^= 0x04;
    std::fs::write(&path, &bad).expect("write corrupted");
    assert_eq!(ItemArena::load_blob(&path, Verify::Full).err(), Some(BlobError::IdsCrc));

    // A scale byte: one flipped bit rescales a whole row — the v2 data
    // CRC covers the scales, not just the codes.
    let mut bad = bytes.clone();
    bad[300] ^= 0x40;
    std::fs::write(&path, &bad).expect("write corrupted");
    assert_eq!(ItemArena::load_blob(&path, Verify::Full).err(), Some(BlobError::DataCrc));

    // A code byte (last byte of the file).
    let mut bad = bytes.clone();
    let last = bad.len() - 1;
    bad[last] ^= 0x80;
    std::fs::write(&path, &bad).expect("write corrupted");
    assert_eq!(ItemArena::load_blob(&path, Verify::Full).err(), Some(BlobError::DataCrc));

    // Quick mode skips payload CRCs by design (same tradeoff as v1).
    assert!(ItemArena::load_blob(&path, Verify::Quick).is_ok());

    // Header version flips fail the header CRC; a *consistent* header
    // with an unknown version is a typed BadVersion, not a misread.
    let mut bad = bytes;
    bad[4] = 3;
    let fixed_crc = om_nn::serialize::crc32(&bad[0..32]);
    bad[32..36].copy_from_slice(&fixed_crc.to_le_bytes());
    std::fs::write(&path, &bad).expect("write corrupted");
    assert_eq!(ItemArena::load_blob(&path, Verify::Quick).err(), Some(BlobError::BadVersion(3)));
}
