//! Token vocabulary for character (name) parameters.
//!
//! TLP maps name parameters to tokens "the same way NLP tasks deal with
//! words" (paper Fig. 4b, `F2`). The vocabulary is built from a corpus of
//! schedule sequences; unseen names map to a reserved unknown token.

use crate::hash::FxBuildHasher;
use serde::{Deserialize, Error, Serialize, Value};
use std::collections::HashMap;

/// Token id type.
pub type Token = u32;

/// Reserved token for names never seen during vocabulary construction.
pub const UNKNOWN_TOKEN: Token = 0;

/// A frozen name→token mapping.
///
/// # Examples
///
/// ```
/// use tlp_schedule::Vocabulary;
/// let mut b = Vocabulary::builder();
/// b.observe("parallel");
/// b.observe("vectorize");
/// b.observe("parallel");
/// let v = b.build();
/// assert_ne!(v.token("parallel"), v.token("vectorize"));
/// assert_eq!(v.token("never-seen"), tlp_schedule::vocab::UNKNOWN_TOKEN);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Vocabulary {
    // Fx-hashed: `token` is called once per name parameter on the feature
    // extraction hot path.
    map: HashMap<String, Token, FxBuildHasher>,
}

// Serialized as a plain name→token map (the hasher is an in-memory detail
// the wire format should not depend on), wrapped in the same single-field
// struct shape the derive used to produce.
impl Serialize for Vocabulary {
    fn serialize_value(&self) -> Value {
        let plain: HashMap<String, Token> = self.map.iter().map(|(k, &v)| (k.clone(), v)).collect();
        Value::Map(vec![("map".to_string(), plain.serialize_value())])
    }
}

impl<'de> Deserialize<'de> for Vocabulary {
    fn deserialize_value(v: &Value) -> Result<Self, Error> {
        let Value::Map(pairs) = v else {
            return Err(Error::msg("expected object for Vocabulary"));
        };
        let inner = pairs
            .iter()
            .find(|(k, _)| k == "map")
            .map(|(_, v)| v)
            .ok_or_else(|| Error::msg("Vocabulary missing field `map`"))?;
        let plain = HashMap::<String, Token>::deserialize_value(inner)?;
        Ok(Vocabulary {
            map: plain.into_iter().collect(),
        })
    }
}

impl Vocabulary {
    /// Starts building a vocabulary from observed names.
    pub fn builder() -> VocabularyBuilder {
        VocabularyBuilder::default()
    }

    /// The token for `name` (the unknown token if unseen).
    pub fn token(&self, name: &str) -> Token {
        self.map.get(name).copied().unwrap_or(UNKNOWN_TOKEN)
    }

    /// Number of distinct known names (excluding the unknown token).
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the vocabulary is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Every known `(name, token)` pair, in no particular order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, Token)> {
        self.map.iter().map(|(name, &token)| (name.as_str(), token))
    }

    /// Total token count including the reserved unknown slot
    /// (useful for sizing embedding tables).
    pub fn size_with_unknown(&self) -> usize {
        self.map.len() + 1
    }
}

/// Accumulates names before freezing them into a [`Vocabulary`].
#[derive(Clone, Debug, Default)]
pub struct VocabularyBuilder {
    // Fx-hashed like `Vocabulary`'s map: `observe` runs once per name
    // parameter of every schedule a vocabulary is fitted on.
    counts: HashMap<String, u64, FxBuildHasher>,
}

impl VocabularyBuilder {
    /// Records one occurrence of `name`. Only a name seen for the first time
    /// is copied.
    pub fn observe(&mut self, name: &str) {
        match self.counts.get_mut(name) {
            Some(count) => *count += 1,
            None => {
                self.counts.insert(name.to_string(), 1);
            }
        }
    }

    /// Freezes the builder. Tokens are assigned by descending frequency
    /// (ties broken lexicographically) starting at 1; 0 is the unknown token.
    pub fn build(self) -> Vocabulary {
        let mut entries: Vec<(String, u64)> = self.counts.into_iter().collect();
        entries.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        let map = entries
            .into_iter()
            .enumerate()
            .map(|(i, (name, _))| (name, (i + 1) as Token))
            .collect();
        Vocabulary { map }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frequency_order_is_stable() {
        let mut b = Vocabulary::builder();
        for _ in 0..5 {
            b.observe("parallel");
        }
        b.observe("vectorize");
        b.observe("unroll");
        let v = b.build();
        assert_eq!(v.token("parallel"), 1);
        // Ties broken lexicographically: "unroll" < "vectorize".
        assert_eq!(v.token("unroll"), 2);
        assert_eq!(v.token("vectorize"), 3);
        assert_eq!(v.len(), 3);
        assert_eq!(v.size_with_unknown(), 4);
    }

    #[test]
    fn unknown_maps_to_zero() {
        let v = Vocabulary::builder().build();
        assert_eq!(v.token("anything"), UNKNOWN_TOKEN);
        assert!(v.is_empty());
    }
}
