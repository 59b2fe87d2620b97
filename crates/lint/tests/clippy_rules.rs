//! The repo rules rustc and clippy enforce, tested rather than assumed.
//!
//! `fixtures/clippy/` is a crate outside the workspace that reads the
//! root `clippy.toml` by directory lookup and copies the root
//! `[workspace.lints]`. Clippy must report exactly the lints its trailing
//! `// hit: <lint>` comments name, on those lines. A list entry that
//! resolves to nothing, or a deleted entry or level, loses its hit and
//! fails the test; so does an `#[expect]` that goes stale.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::process::Command;

use om_lint::passes::toml_tables;

/// `(file relative to the fixture, line, lint)`.
type Finding = (String, usize, String);

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/clippy")
}

/// Every `// hit: <lint> [note]` comment in the fixture's sources.
fn marked_hits(dir: &Path) -> BTreeSet<Finding> {
    let mut hits = BTreeSet::new();
    let mut files: Vec<_> = std::fs::read_dir(dir.join("src")).unwrap().flatten().map(|e| e.path()).collect();
    files.sort();
    for path in files {
        let rel = format!("src/{}", path.file_name().unwrap().to_string_lossy());
        for (i, line) in std::fs::read_to_string(&path).unwrap().lines().enumerate() {
            if let Some(lint) = line.split_once("// hit: ").and_then(|(_, c)| c.split_whitespace().next()) {
                hits.insert((rel.clone(), i + 1, lint.to_string()));
            }
        }
    }
    hits
}

/// Run clippy over the fixture (lib and lib test, as CI's `--all-targets`
/// does) and collect every coded diagnostic at its short-form location,
/// which is the fixture's own line even for a hit inside a std macro.
fn clippy_findings(dir: &Path) -> BTreeSet<Finding> {
    let out = Command::new(env!("CARGO"))
        .args(["clippy", "--offline", "--quiet", "--all-targets", "--keep-going"])
        .args(["--message-format=json-diagnostic-short", "--manifest-path"])
        .arg(dir.join("Cargo.toml"))
        .arg("--target-dir")
        .arg(Path::new(env!("CARGO_TARGET_TMPDIR")).join("clippy-fixture"))
        .output()
        .expect("run cargo clippy");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("\"reason\":\"compiler-message\""),
        "cargo clippy produced no diagnostics (is the clippy component installed?)\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // Inside JSON strings quotes are escaped, so these keys match only the
    // diagnostic's own fields; its notes carry `null` for both.
    let field = |line: &str, key: &str| -> Option<String> {
        let rest = line.split_once(key)?.1;
        Some(rest.split('"').next()?.to_string())
    };
    let mut found = BTreeSet::new();
    for line in stdout.lines() {
        let (Some(lint), Some(rendered)) =
            (field(line, "\"code\":{\"code\":\""), field(line, "\"rendered\":\""))
        else {
            continue;
        };
        // `src/hot_path.rs:15:5: error: …`
        let mut at = rendered.splitn(3, ':');
        if let (Some(file), Some(Ok(line))) = (at.next(), at.next().map(str::parse)) {
            found.insert((file.to_string(), line, lint));
        }
    }
    found
}

#[test]
fn clippy_reports_exactly_the_seeded_hits() {
    let dir = fixture_dir();
    let expected = marked_hits(&dir);
    let found = clippy_findings(&dir);
    let missing: Vec<_> = expected.difference(&found).collect();
    let unexpected: Vec<_> = found.difference(&expected).collect();
    assert!(
        missing.is_empty() && unexpected.is_empty(),
        "seeded hits clippy did not report: {missing:#?}\nfindings no `// hit:` comment marks: {unexpected:#?}"
    );
}

/// The lint tables under `prefix`, keyed by tool (`rust`, `clippy`, …),
/// entries sorted.
fn lint_tables(manifest: &str, prefix: &str) -> BTreeMap<String, Vec<(String, String)>> {
    toml_tables(manifest)
        .into_iter()
        .filter_map(|(name, mut entries)| {
            let tool = name.strip_prefix(prefix)?.to_string();
            entries.sort();
            Some((tool, entries))
        })
        .collect()
}

#[test]
fn fixture_lints_match_the_workspace_lints() {
    let root = fixture_dir().ancestors().nth(4).unwrap().join("Cargo.toml");
    let workspace = lint_tables(&std::fs::read_to_string(root).unwrap(), "workspace.lints.");
    let fixture =
        lint_tables(&std::fs::read_to_string(fixture_dir().join("Cargo.toml")).unwrap(), "lints.");
    assert!(!workspace.is_empty(), "no [workspace.lints.*] tables in the root manifest");
    assert_eq!(fixture, workspace, "fixtures/clippy/Cargo.toml's [lints] must copy the root [workspace.lints]");
}
