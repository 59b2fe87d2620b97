//! Fixture tests: each pass must (a) flag a seeded violation — the "fails
//! CI on a seeded violation" acceptance criterion — and (b) accept the
//! marked/compliant variant of the same code. Fixtures are inline source
//! strings, so the lint crate's own tree stays clean.

use om_lint::lexer::lex;
use std::collections::BTreeSet;

use om_lint::passes::{
    check_kernel_parity, check_kill_points, check_policy_paths, check_print,
    check_workspace_lints,
};

const MODEL_FILE: &str = "crates/core/src/somewhere.rs";

#[test]
fn raw_prints_in_model_path_crates_are_flagged() {
    let src = "pub fn f() { println!(\"hi\"); eprintln!(\"progress…\"); }\n";
    let v = check_print(MODEL_FILE, &lex(src));
    assert_eq!(v.len(), 2, "both macros flagged: {v:?}");
    assert!(v.iter().all(|v| v.rule == "print"));
    assert_eq!(check_print("crates/tensor/src/x.rs", &lex(src)).len(), 2);

    // Outside the banned crates (e.g. experiments binaries render tables
    // on stdout by design) prints are fine…
    assert!(check_print("crates/experiments/src/bin/table2.rs", &lex(src)).is_empty());
    assert!(check_print("crates/obs/src/logger.rs", &lex(src)).is_empty());

    // …and a marked line with a rationale passes.
    let marked =
        "pub fn f() {\n    // om-lint: allow(print) — this *is* the program's output\n    println!(\"table\");\n}\n";
    assert!(check_print(MODEL_FILE, &lex(marked)).is_empty());
}

#[test]
fn prints_in_comments_and_strings_are_ignored() {
    let src = "// println! would be wrong here\npub fn f() -> &'static str { \"println!\" }\n";
    assert!(check_print(MODEL_FILE, &lex(src)).is_empty());
}

const KERNELS_REL: &str = "crates/tensor/src/kernels.rs";

#[test]
fn kernel_without_serial_sibling_is_flagged() {
    let kernels = "pub fn scale(x: &mut [f32], a: f32) { for v in x { *v *= a; } }\n";
    let parity = "fn t() { scale(&mut [], 2.0); }\n";
    let v = check_kernel_parity(KERNELS_REL, &lex(kernels), &lex(parity));
    assert_eq!(v.len(), 1);
    assert_eq!(v[0].rule, "kernel-parity");
    assert!(v[0].msg.contains("scale_serial"), "{}", v[0].msg);
}

#[test]
fn kernel_pair_must_be_registered_in_the_parity_suite() {
    let kernels = "pub fn scale(x: &mut [f32], a: f32) {}\npub fn scale_serial(x: &mut [f32], a: f32) {}\n";
    // Sibling exists but the parity suite never mentions the pair.
    let v = check_kernel_parity(KERNELS_REL, &lex(kernels), &lex("fn unrelated() {}\n"));
    assert_eq!(v.len(), 1);
    assert!(v[0].msg.contains("not registered"), "{}", v[0].msg);

    // Registered: both identifiers appear in the suite.
    let parity = "fn t() { assert_eq!(scale_serial(x), scale(x)); }\n";
    assert!(check_kernel_parity(KERNELS_REL, &lex(kernels), &lex(parity)).is_empty());
}

#[test]
fn non_kernel_helpers_can_be_exempted() {
    let kernels = "// om-lint: not-a-kernel — returns a tuning constant, no data path\npub fn grain_for(n: usize) -> usize { n / 64 }\n";
    assert!(check_kernel_parity(KERNELS_REL, &lex(kernels), &lex("")).is_empty());
}

#[test]
fn only_top_level_pub_fns_count_as_kernels() {
    // Methods inside impl blocks and private fns are not kernels.
    let kernels = "struct S;\nimpl S {\n    pub fn helper(&self) {}\n}\nfn private_helper() {}\n";
    assert!(check_kernel_parity(KERNELS_REL, &lex(kernels), &lex("")).is_empty());
}

const GOOD_ROOT: &str = "[workspace.lints.rust]\nunsafe_code = \"deny\"\nunsafe_op_in_unsafe_fn = \"deny\"\n\n[workspace.lints.clippy]\nallow_attributes_without_reason = \"deny\" # every exception argued\ndisallowed_macros = \"allow\"\nundocumented_unsafe_blocks = \"deny\"\n";

#[test]
fn workspace_lints_must_be_defined_and_opted_into() {
    let good_crate = ("crates/x/Cargo.toml".to_string(), "[lints]\nworkspace = true\n".to_string());
    assert!(check_workspace_lints(GOOD_ROOT, std::slice::from_ref(&good_crate)).is_empty());

    let v = check_workspace_lints("[workspace]\n", std::slice::from_ref(&good_crate));
    assert_eq!(v.len(), 5, "one per required level: {v:?}");
    assert!(v.iter().all(|v| v.rule == "workspace-lints" && v.file == "Cargo.toml"));

    let bad_crate = ("crates/y/Cargo.toml".to_string(), "[package]\nname = \"y\"\n".to_string());
    let v = check_workspace_lints(GOOD_ROOT, &[good_crate, bad_crate]);
    assert_eq!(v.len(), 1);
    assert_eq!(v[0].file, "crates/y/Cargo.toml");
}

/// `workspace = true` elsewhere in the manifest is not an opt-in: a crate
/// whose `[lints]` table sets its own levels drops the workspace's.
#[test]
fn a_lints_table_without_the_workspace_key_is_flagged() {
    let own_levels = "[package]\nversion.workspace = true\n\n[lints]\nrust.unsafe_code = \"allow\"\n";
    let v = check_workspace_lints(GOOD_ROOT, &[("crates/z/Cargo.toml".to_string(), own_levels.to_string())]);
    assert_eq!(v.len(), 1, "{v:?}");
    assert_eq!(v[0].file, "crates/z/Cargo.toml");
}

/// The root must set every level the repo rules rely on, at that level:
/// the pre-clippy root, which set `unsafe_op_in_unsafe_fn` only, and a
/// root that allows `unsafe_code` both fall short.
#[test]
fn a_workspace_missing_or_weakening_a_level_is_flagged() {
    let old_root = "[workspace.lints.rust]\nunsafe_op_in_unsafe_fn = \"deny\"\n";
    let v = check_workspace_lints(old_root, &[]);
    assert_eq!(v.len(), 4, "{v:?}");
    assert!(v.iter().all(|v| !v.msg.contains("unsafe_op_in_unsafe_fn")), "{v:?}");

    let weakened = GOOD_ROOT.replace("unsafe_code = \"deny\"", "unsafe_code = \"allow\"");
    let v = check_workspace_lints(&weakened, &[]);
    assert_eq!(v.len(), 1, "{v:?}");
    assert!(v[0].msg.contains("unsafe_code"), "{}", v[0].msg);
}

#[test]
fn unmarked_kill_points_are_flagged() {
    let src = "pub fn save() {\n    om_obs::fault::kill_point(\"ckpt-save\");\n}\n";
    let v = check_kill_points(MODEL_FILE, &lex(src));
    assert_eq!(v.len(), 1);
    assert_eq!(v[0].rule, "kill-point-marker");
    assert_eq!(v[0].line, 2);

    // A marker comment directly above the call site silences it.
    let marked = "pub fn save() {\n    // om-fault: kill-point\n    om_obs::fault::kill_point(\"ckpt-save\");\n}\n";
    assert!(check_kill_points(MODEL_FILE, &lex(marked)).is_empty());

    // The obs crate owns the primitive; it needs no marker.
    assert!(check_kill_points("crates/obs/src/fault.rs", &lex(src)).is_empty());

    // Mentions in comments/strings don't count as call sites.
    let prose = "// the fault module's kill_point is documented in DESIGN.md\npub fn f() {}\n";
    assert!(check_kill_points(MODEL_FILE, &lex(prose)).is_empty());
}

#[test]
fn policy_lists_must_name_files_in_the_tree() {
    let present: BTreeSet<String> =
        ["crates/tensor/src/kernels.rs", "crates/tensor/src/simd.rs"].map(String::from).into();
    let lists: &[(&str, &[&str])] = &[
        ("REDUCTION_EXEMPT", &["crates/tensor/src/kernels.rs", "crates/tensor/src/shard.rs"]),
        ("OTHER_LIST", &["crates/tensor/src/simd.rs"]),
    ];
    let v = check_policy_paths(lists, &present);
    assert_eq!(v.len(), 1, "only the missing entry is flagged: {v:?}");
    assert_eq!(v[0].rule, "policy-path");
    assert_eq!(v[0].file, "crates/tensor/src/shard.rs");
    assert!(v[0].msg.contains("REDUCTION_EXEMPT"), "names the list: {}", v[0].msg);
    assert!(check_policy_paths(&lists[1..], &present).is_empty());
}

/// The workspace's own policy lists name only files that exist.
#[test]
fn workspace_policy_lists_name_files_in_the_tree() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .to_path_buf();
    let report = om_lint::lint_repo(&root);
    let stale: Vec<String> = report
        .violations
        .iter()
        .filter(|v| v.rule == "policy-path")
        .map(|v| v.to_string())
        .collect();
    assert!(stale.is_empty(), "stale policy entries:\n{}", stale.join("\n"));
}

/// The acceptance criterion: the real tree is clean. Any future violation
/// fails this test (and the dedicated CI job) with the exact findings.
#[test]
fn repository_tree_is_clean() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .to_path_buf();
    let report = om_lint::lint_repo(&root);
    assert!(
        report.violations.is_empty(),
        "om-lint found violations:\n{}",
        report
            .violations
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(report.files > 50, "suspiciously few files: {}", report.files);
}
