//! Loaders for real review corpora, so the pipeline runs unchanged on the
//! genuine Amazon Review / Douban datasets when the user supplies them.
//!
//! Two formats are supported:
//!
//! * **JSON lines** — the Amazon Review dump format: one flat JSON object
//!   per line with `reviewerID`, `asin`, `overall`, `summary` and
//!   (optionally) `reviewText` fields. A minimal, well-tested flat-object
//!   field extractor is used because `serde_json` is not on the dependency
//!   allowlist (see DESIGN.md).
//! * **TSV** — `user \t item \t rating \t summary [\t full_text]`.

use crate::domain::Domain;
use crate::types::{Interaction, ItemId, Rating, UserId};

/// Errors raised while parsing a corpus file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LoadError {
    /// A line could not be parsed; carries the 1-based line number.
    BadLine(usize, String),
    /// A rating was outside 1–5.
    BadRating(usize, String),
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadError::BadLine(n, why) => write!(f, "line {n}: {why}"),
            LoadError::BadRating(n, raw) => write!(f, "line {n}: bad rating {raw:?}"),
        }
    }
}

impl std::error::Error for LoadError {}

/// Interns external string ids (e.g. `reviewerID` / `asin`) into dense
/// numeric ids, shared across domains so user overlap is preserved.
#[derive(Debug, Default, Clone)]
#[expect(clippy::disallowed_types, reason = "lookup only; dense ids follow first-seen order, never the map's")]
pub struct IdInterner {
    map: std::collections::HashMap<String, u32>,
}

impl IdInterner {
    /// Fresh empty interner.
    pub fn new() -> IdInterner {
        IdInterner::default()
    }

    /// Id for `key`, allocating the next dense id when unseen.
    pub fn intern(&mut self, key: &str) -> u32 {
        let next = self.map.len() as u32;
        *self.map.entry(key.to_owned()).or_insert(next)
    }

    /// Number of distinct keys seen.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether no keys have been interned.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// Extract the string value of `"key": "value"` from a flat JSON object.
/// Handles escaped quotes/backslashes inside the value; returns `None` if
/// the key is absent.
fn json_str_field(line: &str, key: &str) -> Option<String> {
    let needle = format!("\"{key}\"");
    let at = line.find(&needle)?;
    let rest = &line[at + needle.len()..];
    let colon = rest.find(':')?;
    let rest = rest[colon + 1..].trim_start();
    let mut chars = rest.chars();
    if chars.next()? != '"' {
        return None;
    }
    let mut out = String::new();
    let mut escaped = false;
    for ch in chars {
        if escaped {
            match ch {
                'n' => out.push('\n'),
                't' => out.push('\t'),
                '"' => out.push('"'),
                '\\' => out.push('\\'),
                '/' => out.push('/'),
                other => out.push(other),
            }
            escaped = false;
        } else if ch == '\\' {
            escaped = true;
        } else if ch == '"' {
            return Some(out);
        } else {
            out.push(ch);
        }
    }
    None // unterminated string
}

/// Extract a numeric field like `"overall": 5.0` from a flat JSON object.
fn json_num_field(line: &str, key: &str) -> Option<f32> {
    let needle = format!("\"{key}\"");
    let at = line.find(&needle)?;
    let rest = &line[at + needle.len()..];
    let colon = rest.find(':')?;
    let rest = rest[colon + 1..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == '+'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Parse an Amazon-style JSON-lines corpus into a [`Domain`]. `users` is
/// shared across domains so overlapping `reviewerID`s map to the same
/// [`UserId`]; `items` should be fresh per domain.
pub fn load_amazon_json_lines(
    name: &str,
    content: &str,
    users: &mut IdInterner,
    items: &mut IdInterner,
) -> Result<Domain, LoadError> {
    let mut interactions = Vec::new();
    for (i, line) in content.lines().enumerate() {
        let lineno = i + 1;
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let user = json_str_field(line, "reviewerID")
            .ok_or_else(|| LoadError::BadLine(lineno, "missing reviewerID".into()))?;
        let item = json_str_field(line, "asin")
            .ok_or_else(|| LoadError::BadLine(lineno, "missing asin".into()))?;
        let overall = json_num_field(line, "overall")
            .ok_or_else(|| LoadError::BadLine(lineno, "missing overall".into()))?;
        let rating = Rating::new(overall.round() as u8)
            .ok_or_else(|| LoadError::BadRating(lineno, overall.to_string()))?;
        // The paper removes records without review text (§5.2).
        let summary = match json_str_field(line, "summary") {
            Some(s) if !s.trim().is_empty() => s,
            _ => continue,
        };
        let full = json_str_field(line, "reviewText").unwrap_or_else(|| summary.clone());
        let mut it = Interaction::new(
            UserId(users.intern(&user)),
            ItemId(items.intern(&item)),
            rating,
            summary,
        );
        it.full_text = full;
        interactions.push(it);
    }
    Ok(Domain::new(name, interactions))
}

/// Parse a TSV corpus: `user \t item \t rating \t summary [\t full_text]`.
pub fn load_tsv(
    name: &str,
    content: &str,
    users: &mut IdInterner,
    items: &mut IdInterner,
) -> Result<Domain, LoadError> {
    let mut interactions = Vec::new();
    for (i, line) in content.lines().enumerate() {
        let lineno = i + 1;
        if line.trim().is_empty() || line.starts_with('#') {
            continue;
        }
        let cols: Vec<&str> = line.split('\t').collect();
        if cols.len() < 4 {
            return Err(LoadError::BadLine(lineno, "need ≥4 tab-separated columns".into()));
        }
        let stars: f32 = cols[2]
            .trim()
            .parse()
            .map_err(|_| LoadError::BadRating(lineno, cols[2].into()))?;
        let rating = Rating::new(stars.round() as u8)
            .ok_or_else(|| LoadError::BadRating(lineno, cols[2].into()))?;
        if cols[3].trim().is_empty() {
            continue; // no review text → dropped, per §5.2
        }
        let mut it = Interaction::new(
            UserId(users.intern(cols[0])),
            ItemId(items.intern(cols[1])),
            rating,
            cols[3],
        );
        if let Some(full) = cols.get(4) {
            it.full_text = (*full).to_owned();
        }
        interactions.push(it);
    }
    Ok(Domain::new(name, interactions))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_field_extraction() {
        let line = r#"{"reviewerID": "AKOHBSPLTYBYZ", "asin": "B00640YZ1U", "overall": 5.0, "summary": "Vampire Romance"}"#;
        assert_eq!(json_str_field(line, "reviewerID").unwrap(), "AKOHBSPLTYBYZ");
        assert_eq!(json_num_field(line, "overall").unwrap(), 5.0);
        assert_eq!(json_str_field(line, "summary").unwrap(), "Vampire Romance");
        assert!(json_str_field(line, "missing").is_none());
    }

    #[test]
    fn json_escapes_are_decoded() {
        let line = r#"{"summary": "she said \"wow\" \\ ok"}"#;
        assert_eq!(json_str_field(line, "summary").unwrap(), "she said \"wow\" \\ ok");
    }

    #[test]
    fn loads_amazon_lines() {
        let content = concat!(
            r#"{"reviewerID": "A1", "asin": "B1", "overall": 5.0, "summary": "great", "reviewText": "really great stuff"}"#,
            "\n",
            r#"{"reviewerID": "A2", "asin": "B1", "overall": 3.0, "summary": "meh"}"#,
            "\n",
        );
        let mut users = IdInterner::new();
        let mut items = IdInterner::new();
        let d = load_amazon_json_lines("Books", content, &mut users, &mut items).unwrap();
        assert_eq!(d.len(), 2);
        assert_eq!(users.len(), 2);
        assert_eq!(items.len(), 1);
        assert_eq!(d.interactions()[0].full_text, "really great stuff");
        assert_eq!(d.interactions()[1].full_text, "meh"); // falls back to summary
    }

    #[test]
    fn records_without_summary_are_dropped() {
        let content = r#"{"reviewerID": "A1", "asin": "B1", "overall": 4.0, "summary": ""}"#;
        let mut u = IdInterner::new();
        let mut i = IdInterner::new();
        let d = load_amazon_json_lines("Books", content, &mut u, &mut i).unwrap();
        assert!(d.is_empty());
    }

    #[test]
    fn shared_interner_preserves_overlap() {
        let books = r#"{"reviewerID": "A1", "asin": "B1", "overall": 5.0, "summary": "x"}"#;
        let movies = r#"{"reviewerID": "A1", "asin": "M1", "overall": 4.0, "summary": "y"}"#;
        let mut users = IdInterner::new();
        let db = load_amazon_json_lines("Books", books, &mut users, &mut IdInterner::new()).unwrap();
        let dm = load_amazon_json_lines("Movies", movies, &mut users, &mut IdInterner::new()).unwrap();
        assert_eq!(db.overlapping_users(&dm), vec![UserId(0)]);
    }

    #[test]
    fn tsv_roundtrip() {
        let content = "u1\ti1\t5\tgreat read\tthe full text here\n# comment\nu2\ti1\t2\tboring\n";
        let mut u = IdInterner::new();
        let mut i = IdInterner::new();
        let d = load_tsv("Books", content, &mut u, &mut i).unwrap();
        assert_eq!(d.len(), 2);
        assert_eq!(d.interactions()[0].full_text, "the full text here");
        assert_eq!(d.interactions()[1].rating.stars(), 2);
    }

    #[test]
    fn tsv_bad_rating_errors() {
        let mut u = IdInterner::new();
        let mut i = IdInterner::new();
        let e = load_tsv("X", "u\ti\tnine\ttext\n", &mut u, &mut i).unwrap_err();
        assert!(matches!(e, LoadError::BadRating(1, _)));
        let e2 = load_tsv("X", "u\ti\t9\ttext\n", &mut u, &mut i).unwrap_err();
        assert!(matches!(e2, LoadError::BadRating(1, _)));
    }

    #[test]
    fn tsv_short_line_errors() {
        let mut u = IdInterner::new();
        let mut i = IdInterner::new();
        let e = load_tsv("X", "u\ti\t5\n", &mut u, &mut i).unwrap_err();
        assert!(matches!(e, LoadError::BadLine(1, _)));
    }
}
