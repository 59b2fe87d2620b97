//! Fixture tests: each pass must (a) flag a seeded violation — the "fails
//! CI on a seeded violation" acceptance criterion — and (b) accept the
//! marked/compliant variant of the same code. Fixtures are inline source
//! strings, so the lint crate's own tree stays clean.

use om_lint::lexer::lex;
use std::collections::BTreeSet;

use om_lint::passes::{
    check_hash_collections, check_kernel_parity, check_kill_points, check_policy_paths,
    check_print, check_thread_spawn, check_unsafe, check_workspace_lints,
};

const MODEL_FILE: &str = "crates/core/src/somewhere.rs";
const RUNTIME: &str = "crates/tensor/src/runtime.rs";

#[test]
fn unsafe_outside_the_runtime_is_flagged() {
    let src = "pub fn f(p: *mut f32) { unsafe { *p = 0.0; } }\n";
    let v = check_unsafe(MODEL_FILE, &lex(src));
    assert_eq!(v.len(), 1);
    assert_eq!(v[0].rule, "unsafe-confinement");
    assert_eq!(v[0].line, 1);
    // …even with a SAFETY comment: confinement is about the file.
    let src = "// SAFETY: trust me\npub fn f(p: *mut f32) { unsafe { *p = 0.0; } }\n";
    assert_eq!(check_unsafe(MODEL_FILE, &lex(src)).len(), 1);
}

#[test]
fn runtime_unsafe_requires_a_safety_comment() {
    let bare = "pub fn f(p: *mut f32) {\n    unsafe { *p = 0.0; }\n}\n";
    let v = check_unsafe(RUNTIME, &lex(bare));
    assert_eq!(v.len(), 1);
    assert_eq!(v[0].rule, "safety-comment");
    assert_eq!(v[0].line, 2);

    let commented = "pub fn f(p: *mut f32) {\n    // Long explanation first.\n    // SAFETY: p is valid and exclusively owned here.\n    unsafe { *p = 0.0; }\n}\n";
    assert!(check_unsafe(RUNTIME, &lex(commented)).is_empty());
}

#[test]
fn the_mmap_layer_is_allowlisted_but_still_needs_safety_comments() {
    const MMAP: &str = "crates/serve/src/mmap.rs";
    let bare = "pub fn f(p: *mut f32) {\n    unsafe { *p = 0.0; }\n}\n";
    let v = check_unsafe(MMAP, &lex(bare));
    assert_eq!(v.len(), 1);
    assert_eq!(v[0].rule, "safety-comment");

    let commented =
        "pub fn f(p: *mut f32) {\n    // SAFETY: p is valid and exclusively owned here.\n    unsafe { *p = 0.0; }\n}\n";
    assert!(check_unsafe(MMAP, &lex(commented)).is_empty());
}

#[test]
fn unsafe_in_strings_and_comments_is_ignored() {
    let src = "// this mentions unsafe\npub fn f() -> &'static str { \"unsafe\" }\n";
    assert!(check_unsafe(MODEL_FILE, &lex(src)).is_empty());
}

#[test]
fn hash_collections_in_model_path_crates_are_flagged() {
    let src = "use std::collections::HashMap;\npub struct S { m: HashMap<u64, f32> }\n";
    let v = check_hash_collections(MODEL_FILE, &lex(src));
    assert_eq!(v.len(), 2, "both mentions flagged: {v:?}");
    assert!(v.iter().all(|v| v.rule == "hash-collections"));

    // The same file outside a model-path crate is fine…
    assert!(check_hash_collections("crates/tensor/src/x.rs", &lex(src)).is_empty());
    assert!(check_hash_collections("crates/text/src/x.rs", &lex(src)).is_empty());

    // …and an allow marker with a rationale silences one line.
    let marked = "// om-lint: allow(hash-collections) — build-time only, never iterated\nuse std::collections::HashMap;\n";
    assert!(check_hash_collections(MODEL_FILE, &lex(marked)).is_empty());
}

#[test]
fn btreemap_is_always_acceptable() {
    let src = "use std::collections::BTreeMap;\npub struct S { m: BTreeMap<u64, f32> }\n";
    assert!(check_hash_collections(MODEL_FILE, &lex(src)).is_empty());
}

#[test]
fn thread_spawn_outside_the_runtime_is_flagged() {
    let src = "pub fn go() { std::thread::spawn(|| {}); }\n";
    let v = check_thread_spawn("crates/experiments/src/x.rs", &lex(src));
    assert_eq!(v.len(), 1);
    assert_eq!(v[0].rule, "thread-spawn");

    // Scoped spawns are spawns too.
    let scoped = "pub fn go() { std::thread::scope(|s| { s.spawn(|| {}); }); }\n";
    assert_eq!(check_thread_spawn("crates/core/src/x.rs", &lex(scoped)).len(), 1);

    // The runtime itself may spawn its workers.
    assert!(check_thread_spawn(RUNTIME, &lex(src)).is_empty());

    // A marked site with a rationale passes.
    let marked = "pub fn go() {\n    // om-lint: allow(thread-spawn) — trials must not run on the pool\n    std::thread::spawn(|| {});\n}\n";
    assert!(check_thread_spawn("crates/experiments/src/x.rs", &lex(marked)).is_empty());
}

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

#[test]
fn workspace_lints_must_be_defined_and_opted_into() {
    let good_root = "[workspace.lints.rust]\nunsafe_op_in_unsafe_fn = \"deny\"\n";
    let good_crate = ("crates/x/Cargo.toml".to_string(), "[lints]\nworkspace = true\n".to_string());
    assert!(check_workspace_lints(good_root, std::slice::from_ref(&good_crate)).is_empty());

    let v = check_workspace_lints("[workspace]\n", std::slice::from_ref(&good_crate));
    assert_eq!(v.len(), 1);
    assert_eq!(v[0].rule, "workspace-lints");

    let bad_crate = ("crates/y/Cargo.toml".to_string(), "[package]\nname = \"y\"\n".to_string());
    let v = check_workspace_lints(good_root, &[good_crate, bad_crate]);
    assert_eq!(v.len(), 1);
    assert_eq!(v[0].file, "crates/y/Cargo.toml");
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
        ["crates/serve/src/engine.rs", "crates/tensor/src/kernels.rs"].map(String::from).into();
    let lists: &[(&str, &[&str])] = &[
        ("PANIC_FREE_FILES", &["crates/serve/src/engine.rs", "crates/serve/src/shard.rs"]),
        ("REDUCTION_EXEMPT", &["crates/tensor/src/kernels.rs"]),
    ];
    let v = check_policy_paths(lists, &present);
    assert_eq!(v.len(), 1, "only the missing entry is flagged: {v:?}");
    assert_eq!(v[0].rule, "policy-path");
    assert_eq!(v[0].file, "crates/serve/src/shard.rs");
    assert!(v[0].msg.contains("PANIC_FREE_FILES"), "names the list: {}", v[0].msg);
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
