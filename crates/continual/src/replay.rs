//! Deterministic replay buffer over prior platforms' training groups.
//!
//! The [`ReplayBuffer`] keeps a bounded, seeded sample of old-platform task
//! groups — at most `capacity` per head, so a data-poor platform is never
//! crowded out by a data-rich one — and contributes them to every
//! adaptation epoch, routed through their original heads. Adaptation trains
//! the new head alone, so a replay batch's gradient is zeroed everywhere:
//! replay shapes the batch stream and Adam's step count, not the weights.
//!
//! Sampling is classic algorithm R per head, driven by a splitmix64 hash of
//! `(seed, head, counter)` instead of a stateful RNG, so buffer contents
//! depend only on the seed and the ingestion order — re-running a loop
//! reproduces the buffer exactly, and ingesting the same data twice yields
//! identical buffers regardless of what else the process did in between.

use std::collections::BTreeMap;
use tlp::train::{GroupData, TrainData};
use tlp_schedule::hash::splitmix64;

/// One retained rehearsal group: the head it trains and its samples.
#[derive(Clone, Debug)]
pub struct ReplayItem {
    /// The head (platform index) this group's labels belong to.
    pub head: usize,
    /// The group's features and normalized-latency labels.
    pub group: GroupData,
}

/// A bounded, deterministic per-head sample of old-platform task groups.
#[derive(Debug)]
pub struct ReplayBuffer {
    /// Groups retained per head.
    capacity: usize,
    seed: u64,
    feature_size: Option<usize>,
    /// Groups ingested so far, per head.
    per_head_seen: BTreeMap<usize, u64>,
    /// Indices into `items` per head (replacement targets).
    strata: BTreeMap<usize, Vec<usize>>,
    items: Vec<ReplayItem>,
}

impl ReplayBuffer {
    /// A buffer holding at most `per_head_capacity` groups for every
    /// ingested head.
    ///
    /// # Panics
    ///
    /// Panics if `per_head_capacity` is zero.
    pub fn stratified(per_head_capacity: usize, seed: u64) -> Self {
        assert!(per_head_capacity > 0, "replay capacity must be positive");
        ReplayBuffer {
            capacity: per_head_capacity,
            seed,
            feature_size: None,
            per_head_seen: BTreeMap::new(),
            strata: BTreeMap::new(),
            items: Vec::new(),
        }
    }

    /// Ingests every trainable group (≥ 2 samples) of `data` for `head`.
    ///
    /// # Panics
    ///
    /// Panics if `data`'s feature size disagrees with earlier ingests.
    pub fn ingest_data(&mut self, head: usize, data: &TrainData) {
        for group in &data.groups {
            if group.labels.len() < 2 {
                continue;
            }
            self.ingest_group(head, data.feature_size, group);
        }
    }

    /// Ingests one task group for `head`. Groups with fewer than two samples
    /// carry no ranking signal and are ignored.
    ///
    /// # Panics
    ///
    /// Panics if `feature_size` disagrees with earlier ingests.
    pub fn ingest_group(&mut self, head: usize, feature_size: usize, group: &GroupData) {
        if group.labels.len() < 2 {
            return;
        }
        match self.feature_size {
            None => self.feature_size = Some(feature_size),
            Some(fs) => assert_eq!(fs, feature_size, "replay feature size mismatch"),
        }
        let seen = self.per_head_seen.entry(head).or_insert(0);
        *seen += 1;
        let count = *seen;
        let slots = self.strata.entry(head).or_default();
        if slots.len() < self.capacity {
            slots.push(self.items.len());
            self.items.push(ReplayItem {
                head,
                group: group.clone(),
            });
        } else {
            // Algorithm R: the t-th arrival replaces a uniform slot with
            // probability capacity/t. Salted by head so heads draw
            // independent decision streams from one seed.
            let salt = splitmix64(self.seed ^ (head as u64).wrapping_mul(0xA24B_AED4_963E_E407));
            let j = (splitmix64(salt ^ count) % count) as usize;
            if j < self.capacity {
                self.items[slots[j]].group = group.clone();
            }
        }
    }

    /// The retained rehearsal groups.
    pub fn items(&self) -> &[ReplayItem] {
        &self.items
    }

    /// Number of retained groups.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Feature size of the retained groups (`None` before the first ingest).
    pub fn feature_size(&self) -> Option<usize> {
        self.feature_size
    }

    /// Number of distinct heads with at least one retained group.
    pub fn num_heads(&self) -> usize {
        let mut heads: Vec<usize> = self.items.iter().map(|i| i.head).collect();
        heads.sort_unstable();
        heads.dedup();
        heads.len()
    }

    /// Total retained samples across all groups.
    pub fn num_samples(&self) -> usize {
        self.items.iter().map(|i| i.group.labels.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::disallowed_methods)]
    use super::*;

    fn group(tag: usize, n: usize) -> GroupData {
        GroupData {
            features: (0..n * 3).map(|i| (tag * 100 + i) as f32).collect(),
            labels: (0..n).map(|i| 1.0 / (i + 1 + tag) as f32).collect(),
        }
    }

    fn fingerprint(buf: &ReplayBuffer) -> Vec<(usize, Vec<u32>)> {
        buf.items()
            .iter()
            .map(|it| {
                (
                    it.head,
                    it.group.labels.iter().map(|l| l.to_bits()).collect(),
                )
            })
            .collect()
    }

    #[test]
    fn per_head_capacity_determinism_and_seed_sensitivity() {
        let filled = |seed: u64| {
            let mut buf = ReplayBuffer::stratified(4, seed);
            for head in 0..3usize {
                for g in 0..10usize {
                    buf.ingest_group(head, 3, &group(head * 10 + g, 4));
                }
            }
            buf
        };
        let a = filled(7);
        assert_eq!(a.len(), 12);
        for head in 0..3usize {
            assert_eq!(a.items().iter().filter(|i| i.head == head).count(), 4);
            assert_eq!(a.per_head_seen[&head], 10);
        }
        assert_eq!(fingerprint(&a), fingerprint(&filled(7)));
        // A different seed retains a different sample.
        assert_ne!(fingerprint(&a), fingerprint(&filled(8)));
    }

    #[test]
    fn stratified_keeps_every_head() {
        let mut buf = ReplayBuffer::stratified(2, 3);
        // Head 0 floods; heads 1 and 2 trickle.
        for g in 0..50usize {
            buf.ingest_group(0, 3, &group(g, 4));
        }
        buf.ingest_group(1, 3, &group(900, 4));
        buf.ingest_group(2, 3, &group(950, 4));
        assert_eq!(buf.num_heads(), 3, "no head crowded out");
        assert!(buf.items().iter().filter(|i| i.head == 0).count() <= 2);
        assert_eq!(buf.len(), 4);
    }

    #[test]
    fn singleton_groups_are_ignored() {
        let mut buf = ReplayBuffer::stratified(4, 1);
        buf.ingest_group(0, 3, &group(1, 1));
        assert!(buf.is_empty());
        assert_eq!(buf.feature_size(), None);
        buf.ingest_group(0, 3, &group(1, 2));
        assert_eq!(buf.len(), 1);
        assert_eq!(buf.num_samples(), 2);
        assert_eq!(buf.feature_size(), Some(3));
    }

    #[test]
    #[should_panic(expected = "replay feature size mismatch")]
    fn feature_size_mismatch_panics() {
        let mut buf = ReplayBuffer::stratified(4, 1);
        buf.ingest_group(0, 3, &group(1, 2));
        buf.ingest_group(0, 5, &group(1, 2));
    }
}
