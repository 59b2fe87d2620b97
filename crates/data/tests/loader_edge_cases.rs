//! Loader robustness: malformed lines, unicode, huge ratings, interleaved
//! domains — the corpus-ingestion layer must fail loudly and precisely.

use om_data::loader::{load_amazon_json_lines, load_tsv, IdInterner, LoadError};
use om_data::types::UserId;

#[test]
fn json_with_unicode_and_escapes() {
    let line = r#"{"reviewerID": "Ünï", "asin": "B1", "overall": 4.0, "summary": "Crouching Tiger — Hidden Dragon \"wow\""}"#;
    let mut u = IdInterner::new();
    let mut i = IdInterner::new();
    let d = load_amazon_json_lines("Movies", line, &mut u, &mut i).unwrap();
    assert_eq!(d.len(), 1);
    assert!(d.interactions()[0].summary.contains("wow"));
}

#[test]
fn json_missing_fields_report_line_numbers() {
    let content = "\n{\"asin\": \"B1\", \"overall\": 5.0, \"summary\": \"x\"}\n";
    let mut u = IdInterner::new();
    let mut i = IdInterner::new();
    let err = load_amazon_json_lines("Books", content, &mut u, &mut i).unwrap_err();
    match err {
        LoadError::BadLine(n, why) => {
            assert_eq!(n, 2);
            assert!(why.contains("reviewerID"));
        }
        other => panic!("wrong error {other:?}"),
    }
}

#[test]
fn json_out_of_range_rating_rejected() {
    let line = r#"{"reviewerID": "A", "asin": "B", "overall": 11.0, "summary": "x"}"#;
    let mut u = IdInterner::new();
    let mut i = IdInterner::new();
    let err = load_amazon_json_lines("Books", line, &mut u, &mut i).unwrap_err();
    assert!(matches!(err, LoadError::BadRating(1, _)));
}

#[test]
fn blank_lines_are_skipped() {
    let content = "\n\n  \n";
    let mut u = IdInterner::new();
    let mut i = IdInterner::new();
    let d = load_amazon_json_lines("Books", content, &mut u, &mut i).unwrap();
    assert!(d.is_empty());
}

#[test]
fn interner_is_stable_and_dense() {
    let mut ids = IdInterner::new();
    assert!(ids.is_empty());
    let a = ids.intern("first");
    let b = ids.intern("second");
    let a2 = ids.intern("first");
    assert_eq!(a, a2);
    assert_eq!(a, 0);
    assert_eq!(b, 1);
    assert_eq!(ids.len(), 2);
}

#[test]
fn tsv_ratings_accept_float_strings() {
    let mut u = IdInterner::new();
    let mut i = IdInterner::new();
    let d = load_tsv("X", "u1\ti1\t4.0\tnice\n", &mut u, &mut i).unwrap();
    assert_eq!(d.interactions()[0].rating.stars(), 4);
}

#[test]
fn cross_format_overlap_via_shared_interner() {
    // A user can appear in a JSON-lines source and a TSV target — the
    // shared interner still identifies them.
    let mut users = IdInterner::new();
    let src = load_amazon_json_lines(
        "Books",
        r#"{"reviewerID": "X9", "asin": "B1", "overall": 5.0, "summary": "s"}"#,
        &mut users,
        &mut IdInterner::new(),
    )
    .unwrap();
    let tgt = load_tsv("Movies", "X9\tM1\t3\tmovie rev\n", &mut users, &mut IdInterner::new())
        .unwrap();
    assert_eq!(src.overlapping_users(&tgt), vec![UserId(0)]);
}

#[test]
fn tsv_leading_bom_is_not_part_of_the_first_user_id() {
    let mut users = IdInterner::new();
    let mut items = IdInterner::new();
    let src = load_tsv("Books", "\u{FEFF}u1\ti1\t5\tx\n", &mut users, &mut items).unwrap();
    let tgt = load_tsv("Movies", "u1\tm1\t4\ty\n", &mut users, &mut items).unwrap();
    assert_eq!(users.len(), 1);
    assert_eq!(src.overlapping_users(&tgt), vec![UserId(0)]);
}

#[test]
fn tsv_comment_after_a_bom_is_skipped() {
    let mut u = IdInterner::new();
    let mut i = IdInterner::new();
    let content = "\u{FEFF}# user\titem\trating\tsummary\nu1\ti1\t3\tok\n";
    let d = load_tsv("X", content, &mut u, &mut i).unwrap();
    assert_eq!(d.len(), 1);
}
