//! Vocabulary construction and token-id encoding.

#![expect(clippy::disallowed_types, reason = "token lookups; the frequency table is sorted before ids are assigned")]

use std::collections::HashMap;

/// Reserved id 0: padding.
pub const PAD_TOKEN: usize = 0;
/// Reserved id 1: unknown word.
pub const UNK_TOKEN: usize = 1;

/// A frequency-pruned token vocabulary with reserved PAD and UNK slots.
#[derive(Debug, Clone)]
pub struct Vocab {
    token_to_id: HashMap<String, usize>,
    id_to_token: Vec<String>,
    counts: Vec<u64>,
}

impl Vocab {
    /// Build from an iterator over token streams, keeping tokens that occur
    /// at least `min_count` times, most-frequent first, capped at
    /// `max_size` (including the two reserved slots).
    pub fn build<'a, I, T>(corpus: I, min_count: u64, max_size: usize) -> Vocab
    where
        I: IntoIterator<Item = T>,
        T: IntoIterator<Item = &'a str>,
    {
        assert!(max_size > 2, "vocab must have room beyond PAD/UNK");
        let mut freq: HashMap<String, u64> = HashMap::new();
        for doc in corpus {
            for tok in doc {
                *freq.entry(tok.to_owned()).or_insert(0) += 1;
            }
        }
        let mut entries: Vec<(String, u64)> =
            freq.into_iter().filter(|(_, c)| *c >= min_count).collect();
        // Most frequent first; ties alphabetical for determinism.
        entries.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        entries.truncate(max_size - 2);

        let mut id_to_token = vec!["<pad>".to_owned(), "<unk>".to_owned()];
        let mut counts = vec![0u64, 0u64];
        let mut token_to_id = HashMap::new();
        for (tok, c) in entries {
            token_to_id.insert(tok.clone(), id_to_token.len());
            id_to_token.push(tok);
            counts.push(c);
        }
        Vocab {
            token_to_id,
            id_to_token,
            counts,
        }
    }

    /// Number of ids (including PAD and UNK).
    pub fn len(&self) -> usize {
        self.id_to_token.len()
    }

    /// True when only the reserved tokens exist.
    pub fn is_empty(&self) -> bool {
        self.id_to_token.len() <= 2
    }

    /// Id for a token, or `UNK_TOKEN`.
    pub fn id(&self, token: &str) -> usize {
        self.token_to_id.get(token).copied().unwrap_or(UNK_TOKEN)
    }

    /// Token string for an id.
    pub fn token(&self, id: usize) -> &str {
        &self.id_to_token[id]
    }

    /// Corpus frequency recorded for an id (0 for the reserved slots).
    pub fn count(&self, id: usize) -> u64 {
        self.counts[id]
    }

    /// Encode a token stream to ids (unknowns → UNK).
    pub fn encode<'a>(&self, tokens: impl IntoIterator<Item = &'a str>) -> Vec<usize> {
        tokens.into_iter().map(|t| self.id(t)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vocab {
        let docs = [
            vec!["vampire", "romance", "vampire"],
            vec!["vampire", "action"],
            vec!["romance"],
        ];
        Vocab::build(docs.iter().map(|d| d.iter().copied()), 1, 100)
    }

    #[test]
    fn reserved_slots() {
        let v = sample();
        assert_eq!(v.token(PAD_TOKEN), "<pad>");
        assert_eq!(v.token(UNK_TOKEN), "<unk>");
    }

    #[test]
    fn frequency_ordering() {
        let v = sample();
        // vampire (3) > romance (2) > action (1)
        assert_eq!(v.id("vampire"), 2);
        assert_eq!(v.id("romance"), 3);
        assert_eq!(v.id("action"), 4);
        assert_eq!(v.count(2), 3);
    }

    #[test]
    fn unknown_maps_to_unk() {
        let v = sample();
        assert_eq!(v.id("zebra"), UNK_TOKEN);
    }

    #[test]
    fn min_count_prunes() {
        let docs = [vec!["a", "a", "b"]];
        let v = Vocab::build(docs.iter().map(|d| d.iter().copied()), 2, 100);
        assert_eq!(v.id("a"), 2);
        assert_eq!(v.id("b"), UNK_TOKEN);
        assert_eq!(v.len(), 3);
    }

    #[test]
    fn max_size_caps() {
        let docs = [vec!["a", "a", "a", "b", "b", "c"]];
        let v = Vocab::build(docs.iter().map(|d| d.iter().copied()), 1, 4);
        assert_eq!(v.len(), 4); // pad, unk, a, b
        assert_eq!(v.id("c"), UNK_TOKEN);
    }

    #[test]
    fn deterministic_tie_break() {
        let docs = [vec!["zeta", "alpha"]];
        let v1 = Vocab::build(docs.iter().map(|d| d.iter().copied()), 1, 10);
        let v2 = Vocab::build(docs.iter().map(|d| d.iter().copied()), 1, 10);
        assert_eq!(v1.id("alpha"), v2.id("alpha"));
        assert_eq!(v1.id("alpha"), 2); // alphabetical on tie
    }

    #[test]
    fn encode_roundtrip() {
        let v = sample();
        let ids = v.encode(["vampire", "zebra", "romance"]);
        assert_eq!(ids, vec![2, UNK_TOKEN, 3]);
    }
}
