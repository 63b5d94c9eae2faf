//! Deterministic replay buffer over prior platforms' training groups.
//!
//! Continual adaptation streams measurements from the *new* platform only;
//! without rehearsal, trunk updates drift the representation the old heads
//! were fit to (catastrophic forgetting). The [`ReplayBuffer`] keeps a
//! bounded, seeded sample of old-platform task groups and contributes them
//! to every adaptation epoch, routed through their original heads.
//!
//! Sampling is classic algorithm R driven by a splitmix64 hash of
//! `(seed, counter)` instead of a stateful RNG, so buffer contents depend
//! only on the seed and the ingestion order — re-running a loop reproduces
//! the buffer exactly, and ingesting the same data twice yields identical
//! buffers regardless of what else the process did in between.

use std::collections::BTreeMap;
use tlp::train::{GroupData, TrainData};
use tlp_schedule::hash::splitmix64;

/// How the buffer allocates its bounded memory across ingested groups.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReplayStrategy {
    /// One global reservoir: every ingested group competes for the same
    /// `capacity` slots, so heads with more data hold more slots.
    Reservoir,
    /// One reservoir of `capacity` slots *per head*, so a data-poor platform
    /// is never crowded out of rehearsal by a data-rich one.
    StratifiedByTask,
}

/// One retained rehearsal group: the head it trains and its samples.
#[derive(Clone, Debug)]
pub struct ReplayItem {
    /// The head (platform index) this group's labels belong to.
    pub head: usize,
    /// The group's features and normalized-latency labels.
    pub group: GroupData,
}

/// A bounded, deterministic sample of old-platform task groups.
#[derive(Debug)]
pub struct ReplayBuffer {
    strategy: ReplayStrategy,
    capacity: usize,
    seed: u64,
    feature_size: Option<usize>,
    /// Groups ingested so far (global for reservoir; per head below).
    seen: u64,
    per_head_seen: BTreeMap<usize, u64>,
    /// Indices into `items` per head (stratified replacement targets).
    strata: BTreeMap<usize, Vec<usize>>,
    items: Vec<ReplayItem>,
}

impl ReplayBuffer {
    /// A global reservoir of at most `capacity` groups.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn reservoir(capacity: usize, seed: u64) -> Self {
        ReplayBuffer::new(ReplayStrategy::Reservoir, capacity, seed)
    }

    /// A stratified buffer holding at most `per_head_capacity` groups for
    /// every ingested head.
    ///
    /// # Panics
    ///
    /// Panics if `per_head_capacity` is zero.
    pub fn stratified(per_head_capacity: usize, seed: u64) -> Self {
        ReplayBuffer::new(ReplayStrategy::StratifiedByTask, per_head_capacity, seed)
    }

    fn new(strategy: ReplayStrategy, capacity: usize, seed: u64) -> Self {
        assert!(capacity > 0, "replay capacity must be positive");
        ReplayBuffer {
            strategy,
            capacity,
            seed,
            feature_size: None,
            seen: 0,
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
        match self.strategy {
            ReplayStrategy::Reservoir => {
                self.seen += 1;
                if self.items.len() < self.capacity {
                    self.items.push(ReplayItem {
                        head,
                        group: group.clone(),
                    });
                } else {
                    // Algorithm R: the t-th arrival replaces a uniform slot
                    // with probability capacity/t.
                    let j = (splitmix64(self.seed ^ self.seen) % self.seen) as usize;
                    if j < self.capacity {
                        self.items[j] = ReplayItem {
                            head,
                            group: group.clone(),
                        };
                    }
                }
            }
            ReplayStrategy::StratifiedByTask => {
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
                    // Per-head algorithm R, salted by head so strata draw
                    // independent decision streams from one seed.
                    let salt =
                        splitmix64(self.seed ^ (head as u64).wrapping_mul(0xA24B_AED4_963E_E407));
                    let j = (splitmix64(salt ^ count) % count) as usize;
                    if j < self.capacity {
                        self.items[slots[j]].group = group.clone();
                    }
                }
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
    fn reservoir_respects_capacity_and_determinism() {
        let mut a = ReplayBuffer::reservoir(4, 7);
        let mut b = ReplayBuffer::reservoir(4, 7);
        for buf in [&mut a, &mut b] {
            for head in 0..3usize {
                for g in 0..10usize {
                    buf.ingest_group(head, 3, &group(head * 10 + g, 4));
                }
            }
        }
        assert_eq!(a.len(), 4);
        assert!(a.seen == 30);
        assert_eq!(fingerprint(&a), fingerprint(&b));
        // A different seed retains a different sample.
        let mut c = ReplayBuffer::reservoir(4, 8);
        for head in 0..3usize {
            for g in 0..10usize {
                c.ingest_group(head, 3, &group(head * 10 + g, 4));
            }
        }
        assert_ne!(fingerprint(&a), fingerprint(&c));
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
        let mut buf = ReplayBuffer::reservoir(4, 1);
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
        let mut buf = ReplayBuffer::reservoir(4, 1);
        buf.ingest_group(0, 3, &group(1, 2));
        buf.ingest_group(0, 5, &group(1, 2));
    }
}
