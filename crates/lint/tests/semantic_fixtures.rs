//! Fixture tests for the om-lint semantic and registry passes: each pass must
//! (a) flag a seeded violation and (b) accept the marked/compliant
//! variant of the same code — mirroring `tests/fixtures.rs` for the
//! token-level passes. Fixtures are inline source strings, so the lint
//! crate's own tree stays clean.

use std::collections::BTreeSet;

use om_lint::ast;
use om_lint::env_registry;
use om_lint::lexer::lex;
use om_lint::semantic::{check_float_reduction, check_simd_tolerance};
use om_lint::Policy;

const MODEL_FILE: &str = "crates/core/src/somewhere.rs";

fn reduction(rel: &str, src: &str) -> Vec<om_lint::Violation> {
    let lexed = lex(src);
    check_float_reduction(rel, &lexed, &ast::parse(&lexed), &Policy::default_policy())
}

// ---------------------------------------------------------------------------
// float-reduction
// ---------------------------------------------------------------------------

#[test]
fn adhoc_float_sums_outside_the_kernel_suite_are_flagged() {
    let src = "pub fn f(v: &[f32]) -> f32 { v.iter().sum::<f32>() }\n";
    let v = reduction(MODEL_FILE, src);
    assert_eq!(v.len(), 1, "{v:?}");
    assert_eq!(v[0].rule, "float-reduction");

    // Integer sums are not reductions over non-associative arithmetic.
    let ints = "pub fn f(v: &[usize]) -> usize { v.iter().sum::<usize>() }\n";
    assert!(reduction(MODEL_FILE, ints).is_empty());

    // The kernel suite itself is exempt — it carries _serial parity twins.
    assert!(reduction("crates/tensor/src/kernels.rs", src).is_empty());
}

#[test]
fn float_folds_and_accumulator_loops_are_flagged() {
    let fold = "pub fn f(v: &[f32]) -> f32 { v.iter().fold(0.0f32, |a, b| a + b) }\n";
    let v = reduction(MODEL_FILE, fold);
    assert_eq!(v.len(), 1, "{v:?}");

    let acc = "pub fn f(v: &[f32]) -> f32 {\n    let mut total = 0.0f32;\n    for x in v {\n        total += x;\n    }\n    total\n}\n";
    let v = reduction(MODEL_FILE, acc);
    assert_eq!(v.len(), 1, "{v:?}");
    assert_eq!(v[0].line, 2);
}

#[test]
fn marked_reductions_are_accepted_at_line_or_fn_level() {
    let line = "pub fn f(v: &[f32]) -> f32 {\n    // om-lint: reduction-ok(serial, fixed order)\n    v.iter().sum::<f32>()\n}\n";
    assert!(reduction(MODEL_FILE, line).is_empty());

    let fn_level = "// om-lint: reduction-ok(five accumulators, one argument)\npub fn f(v: &[f32]) -> (f32, f32) {\n    let mut a = 0.0f32;\n    let mut b = 0.0f32;\n    for x in v { a += x; b += x * x; }\n    (a, b)\n}\n";
    assert!(reduction(MODEL_FILE, fn_level).is_empty());
}

// ---------------------------------------------------------------------------
// simd-ulp-tolerance
// ---------------------------------------------------------------------------

#[test]
fn simd_marked_kernels_must_register_a_ulp_tolerance() {
    let kernels = "// om-lint: simd — vectorised inner product\npub fn dot(a: &[f32], b: &[f32]) -> f32 { 0.0 }\npub fn dot_serial(a: &[f32], b: &[f32]) -> f32 { 0.0 }\n";
    let parity_without = "fn t() { assert!(true); }\n";
    let v = check_simd_tolerance(
        "crates/tensor/src/kernels.rs",
        &lex(kernels),
        &lex(parity_without),
    );
    assert_eq!(v.len(), 1, "{v:?}");
    assert_eq!(v[0].rule, "simd-ulp-tolerance");

    let parity_with = "fn t() { let tol = ulp_tolerance(\"dot\"); assert_eq!(tol, 0); }\n";
    assert!(check_simd_tolerance(
        "crates/tensor/src/kernels.rs",
        &lex(kernels),
        &lex(parity_with)
    )
    .is_empty());

    // Unmarked kernels owe nothing to the tolerance table.
    let unmarked = "pub fn dot(a: &[f32], b: &[f32]) -> f32 { 0.0 }\npub fn dot_serial(a: &[f32], b: &[f32]) -> f32 { 0.0 }\n";
    assert!(check_simd_tolerance(
        "crates/tensor/src/kernels.rs",
        &lex(unmarked),
        &lex(parity_without)
    )
    .is_empty());
}

// ---------------------------------------------------------------------------
// env-registry
// ---------------------------------------------------------------------------

#[test]
fn undeclared_env_vars_are_flagged_and_declared_ones_recorded() {
    let mut used = BTreeSet::new();
    let src = "pub fn f() {\n    let _ = std::env::var(\"OM_NOT_A_KNOB\");\n    let _ = std::env::var(\"OM_THREADS\");\n}\n";
    let v = env_registry::scan_file(MODEL_FILE, &lex(src), &mut used);
    assert_eq!(v.len(), 1, "{v:?}");
    assert_eq!(v[0].rule, "env-registry");
    assert_eq!(v[0].line, 2);
    assert!(used.contains("OM_THREADS"));

    // Indirect readers are caught by the literal, not the call shape.
    let mut used = BTreeSet::new();
    let indirect = "pub fn f() -> usize { env_usize(\"OM_SERVE_BATCH\", 8) }\n";
    assert!(env_registry::scan_file(MODEL_FILE, &lex(indirect), &mut used).is_empty());
    assert!(used.contains("OM_SERVE_BATCH"));

    // The lint crate itself (registry + fixtures) is out of scope.
    let mut used = BTreeSet::new();
    let v = env_registry::scan_file("crates/lint/src/fixture.rs", &lex(src), &mut used);
    assert!(v.is_empty());
}

#[test]
fn stale_registry_entries_are_flagged() {
    // A usage set missing a declared variable → one stale violation each.
    let mut used: BTreeSet<String> = env_registry::REGISTRY
        .iter()
        .map(|e| e.name.to_string())
        .collect();
    assert!(env_registry::check_stale(&used).is_empty());
    used.remove("OM_THREADS");
    let v = env_registry::check_stale(&used);
    assert_eq!(v.len(), 1, "{v:?}");
    assert!(v[0].msg.contains("OM_THREADS"));
}

#[test]
fn readme_drift_fails_the_env_table_check() {
    let good = format!(
        "# OmniMatch\n<!-- om-env-table:begin -->\n{}<!-- om-env-table:end -->\n",
        env_registry::render_table()
    );
    assert!(env_registry::check_readme(&good).is_ok());
    let drifted = good.replace("| `OM_LOG` |", "| `OM_LOGG` |");
    assert!(env_registry::check_readme(&drifted).is_err());
    assert!(env_registry::check_readme("# no markers at all\n").is_err());
}
