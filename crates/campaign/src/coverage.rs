//! Campaign-side coverage accounting: the accumulated feature set a
//! fuzz scheduler steers by and the per-round fuzz summary embedded in
//! the deterministic report body.
//!
//! A *feature* is a `(key, bucket)` pair produced by
//! [`CoverageMap::features`] — e.g. `("op:Mulw", 3)` or
//! `("rule:sc-failure", 1)`. The [`CoverageSet`] keeps the highest
//! bucket seen per key; a recipe is *novel* when it produces a key the
//! set has never seen, or a known key at a strictly higher bucket.

use minjie::CoverageMap;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// The accumulated coverage of a fuzz campaign: feature key → highest
/// log2 bucket observed. BTreeMap keeps serialization order stable.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CoverageSet {
    features: BTreeMap<String, u8>,
}

impl CoverageSet {
    /// Distinct feature keys seen.
    pub fn len(&self) -> usize {
        self.features.len()
    }

    /// True when nothing has been absorbed yet.
    pub fn is_empty(&self) -> bool {
        self.features.is_empty()
    }

    /// Absorb `feats`, returning how many were novel.
    pub fn absorb_features(&mut self, feats: &[(String, u8)]) -> u64 {
        let mut novel = 0;
        for (k, b) in feats {
            match self.features.get_mut(k) {
                None => {
                    self.features.insert(k.clone(), *b);
                    novel += 1;
                }
                Some(seen) if *b > *seen => {
                    *seen = *b;
                    novel += 1;
                }
                Some(_) => {}
            }
        }
        novel
    }

    /// Absorb a run's coverage map, returning how many features were
    /// novel.
    pub fn absorb(&mut self, map: &CoverageMap) -> u64 {
        self.absorb_features(&map.features())
    }

    /// The feature keys and buckets, in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &u8)> {
        self.features.iter()
    }
}

/// One fuzz round's deterministic accounting.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FuzzRound {
    /// Round index (0-based).
    pub round: u64,
    /// Jobs run this round.
    pub jobs: u64,
    /// Features first seen (or first seen at a higher bucket) this
    /// round.
    pub new_features: u64,
    /// Total distinct feature keys after this round.
    pub cumulative_features: u64,
    /// Corpus size after admitting this round's novel recipes.
    pub corpus_size: u64,
}

/// The fuzz section of a campaign report — pure integers, so the
/// deterministic-body property is preserved.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FuzzSummary {
    /// The campaign-level fuzz seed every derived seed mixes in.
    pub fuzz_seed: u64,
    /// Per-round accounting, in round order.
    pub rounds: Vec<FuzzRound>,
    /// Total distinct feature keys covered.
    pub total_features: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feats(pairs: &[(&str, u8)]) -> Vec<(String, u8)> {
        pairs.iter().map(|(k, b)| (k.to_string(), *b)).collect()
    }

    #[test]
    fn absorb_counts_new_keys_and_higher_buckets() {
        let mut set = CoverageSet::default();
        assert_eq!(set.absorb_features(&feats(&[("op:Add", 2), ("op:Mul", 1)])), 2);
        // Same features again: nothing novel.
        assert_eq!(set.absorb_features(&feats(&[("op:Add", 2), ("op:Mul", 1)])), 0);
        // Higher bucket on a known key is novel; lower is not.
        assert_eq!(set.absorb_features(&feats(&[("op:Add", 5), ("op:Mul", 1)])), 1);
        assert_eq!(set.absorb_features(&feats(&[("op:Add", 3)])), 0);
        assert_eq!(set.len(), 2);
    }
}
