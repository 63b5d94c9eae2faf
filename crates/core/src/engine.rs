//! Batched, cached, multi-threaded candidate scoring.
//!
//! Evolutionary search scores the same schedules over and over: elites
//! survive generations unchanged, mutations collide, and the tuner revisits
//! tasks across rounds. The [`InferenceEngine`] sits between the search loop
//! and the one [`ScheduleScorer`] it owns, and exploits that redundancy:
//!
//! - **score cache** — a bounded LRU keyed by `(task fingerprint ^ salt,
//!   schedule fingerprint)`, the salt a model-version counter so online
//!   models invalidate the cache wholesale when they retrain. The
//!   fingerprints themselves ([`ScoreKeys`]) are unsalted and
//!   model-independent: they are taken once per request, before the cache
//!   lock, by the engine or by a caller that already has them (the serving
//!   layer hashes and extracts at admission and hands the same keys to
//!   [`InferenceEngine::probe`] and [`InferenceEngine::score_features_into`]),
//!   through a [`Fingerprinter`] that keeps each schedule skeleton's hash
//!   words across requests, and answers a schedule it keyed before from
//!   its memo without hashing it again — the engine pools one per
//!   concurrent call. The cache's map and the per-request dedup map hash
//!   those fingerprints with Fx: they are mixed already;
//! - **micro-batching** — cache misses, collapsed to one per distinct key of
//!   the request, are chunked and claimed off a shared counter by workers —
//!   the calling thread alone when one suffices,
//!   [`std::thread::scope`] threads otherwise, their number resolved once at
//!   construction ([`EngineConfig::effective_threads`]) — each reusing one
//!   pooled [`ScheduleScorer::Scratch`] (feature buffers, autodiff tapes)
//!   across the micro-batches it claims;
//! - **statistics** — per-call [`BatchStats`] plus cumulative
//!   [`EngineStats`] (batches run, hit/miss counts, wall time per
//!   micro-batch) for throughput reporting.
//!
//! Scores are per-candidate deterministic — a candidate's score does not
//! depend on which micro-batch or thread it lands in — so the parallel path
//! returns exactly what single-threaded scoring would.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;
use tlp_autotuner::{BatchStats, PipelineCost, SearchTask, UpdateError};
use tlp_schedule::hash::FxBuildHasher;
use tlp_schedule::{Fingerprinter, ScheduleSequence};

/// The model-side half of the engine: maps (task, candidates) to raw scores.
///
/// Implementations must be cheap to share across threads (`Sync`); per
/// thread mutable state goes into [`ScheduleScorer::Scratch`] instead, which
/// the engine pools and reuses across calls — a scratch is created at most
/// once per concurrent worker over the engine's lifetime, not per call.
pub trait ScheduleScorer: Sync {
    /// Per-thread scratch reused across micro-batches and calls (feature
    /// buffers, autodiff workspaces, arena scratch).
    type Scratch: Default + Send + 'static;

    /// Stable model name for reports.
    fn name(&self) -> &str;

    /// Simulated per-candidate pipeline cost of this model family.
    fn pipeline_cost(&self) -> PipelineCost;

    /// Scores the candidates selected by `idx` (indices into `schedules`),
    /// appending one entry per index in order to `out` (cleared by the
    /// engine before the call). `None` marks a candidate the model cannot
    /// score (e.g. its schedule fails to lower). Writing into an
    /// engine-owned, pooled buffer keeps the steady-state scoring loop free
    /// of per-candidate allocations.
    fn score_micro_batch_into(
        &self,
        scratch: &mut Self::Scratch,
        task: &SearchTask,
        schedules: &[ScheduleSequence],
        idx: &[usize],
        out: &mut Vec<Option<f32>>,
    );

    /// Absorbs measured latencies. Returns `Ok(true)` when the model's
    /// parameters changed (the engine then invalidates its score cache).
    ///
    /// # Errors
    ///
    /// Model-specific; offline models accept and ignore the data.
    fn absorb(
        &mut self,
        task: &SearchTask,
        schedules: &[ScheduleSequence],
        latencies: &[f64],
    ) -> Result<bool, UpdateError> {
        let _ = (task, schedules, latencies);
        Ok(false)
    }
}

/// Engine sizing knobs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EngineConfig {
    /// Most candidates per micro-batch dispatched to one worker at a time:
    /// a request's misses are cut into the fewest batches this allows, of
    /// equal size.
    pub micro_batch: usize,
    /// Worker threads; `0` means use [`std::thread::available_parallelism`].
    /// `1` scores inline on the calling thread with no pool at all.
    pub threads: usize,
    /// Maximum cached scores; `0` disables the cache entirely.
    pub cache_capacity: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            micro_batch: 64,
            threads: 0,
            cache_capacity: 1 << 16,
        }
    }
}

impl EngineConfig {
    /// A single-threaded, uncached configuration (reference semantics).
    pub fn sequential_uncached() -> Self {
        EngineConfig {
            micro_batch: 64,
            threads: 1,
            cache_capacity: 0,
        }
    }

    /// The worker count this config resolves to: `threads`, or
    /// [`std::thread::available_parallelism`] when zero.
    pub fn effective_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }
    }
}

/// Cumulative engine counters since construction (or the last reset).
/// Serializable so serving-layer stats snapshots can embed them verbatim.
#[derive(Clone, Copy, Debug, Default, PartialEq, serde::Serialize)]
pub struct EngineStats {
    /// Total `score` calls served.
    pub requests: u64,
    /// Micro-batches dispatched to workers.
    pub micro_batches: u64,
    /// Candidates served from the score cache.
    pub cache_hits: u64,
    /// Candidates the cache did not answer; the model scored one per
    /// distinct key of each request.
    pub cache_misses: u64,
    /// Total wall-clock seconds inside `score`.
    pub wall_s: f64,
    /// Wall-clock seconds summed over individual micro-batches (exceeds the
    /// critical-path time when several workers run concurrently).
    pub micro_batch_wall_s: f64,
    /// Cache invalidations triggered by model updates.
    pub invalidations: u64,
    /// Current number of cached entries.
    pub cache_len: usize,
}

impl EngineStats {
    /// Cache hit rate in [0, 1], or 0 before any candidate was seen.
    pub fn hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

/// The cache identity of one request: its task fingerprint and one
/// fingerprint per schedule, in request order.
///
/// Unsalted and model-independent — the engine that executes the request
/// applies its own version salt at use ([`ScoreKeys::cache_key`]) — so keys
/// taken when a request arrives stay valid across a hot swap or an
/// [`InferenceEngine::invalidate`] for whichever engine ends up scoring it.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ScoreKeys {
    task_fp: u64,
    schedule_fps: Vec<u64>,
}

impl ScoreKeys {
    /// Fingerprints `task` and every schedule through a fresh
    /// [`Fingerprinter`]. A caller keying request after request keeps one
    /// and calls [`ScoreKeys::take`].
    pub fn new(task: &SearchTask, schedules: &[ScheduleSequence]) -> Self {
        ScoreKeys::take(task, schedules, &mut Fingerprinter::default())
    }

    /// Fingerprints `task` and every schedule, the schedules through
    /// `fingerprinter` and the skeletons it holds from earlier requests.
    /// The one place a request is hashed.
    pub fn take(
        task: &SearchTask,
        schedules: &[ScheduleSequence],
        fingerprinter: &mut Fingerprinter,
    ) -> Self {
        let mut keys = ScoreKeys::default();
        keys.refill(task, schedules, fingerprinter);
        keys
    }

    /// [`ScoreKeys::take`] into this set's storage.
    fn refill(
        &mut self,
        task: &SearchTask,
        schedules: &[ScheduleSequence],
        fingerprinter: &mut Fingerprinter,
    ) {
        self.task_fp = task_fingerprint(task);
        fingerprinter.fingerprints_into(schedules, &mut self.schedule_fps);
    }

    /// The task's [`task_fingerprint`].
    pub fn task_fp(&self) -> u64 {
        self.task_fp
    }

    /// Number of schedules keyed.
    pub fn len(&self) -> usize {
        self.schedule_fps.len()
    }

    /// Whether the set keys no schedule.
    pub fn is_empty(&self) -> bool {
        self.schedule_fps.is_empty()
    }

    /// Forgets every schedule key, keeping the storage.
    pub fn clear(&mut self) {
        self.schedule_fps.clear();
    }

    /// Moves `other`'s schedule keys onto the end of this set, leaving
    /// `other` empty. An empty set adopts `other`'s task.
    ///
    /// # Panics
    ///
    /// Panics if both sets hold keys and name different tasks: one engine
    /// call scores one task.
    pub fn append(&mut self, other: &mut ScoreKeys) {
        if self.is_empty() {
            self.task_fp = other.task_fp;
        }
        assert_eq!(self.task_fp, other.task_fp, "key sets of different tasks");
        self.schedule_fps.append(&mut other.schedule_fps);
    }

    /// The cache key of schedule `i` under a version `salt`. The salt
    /// separates model generations through the first component alone, so the
    /// schedule hash is the same under every salt and is never retaken.
    pub fn cache_key(&self, i: usize, salt: u64) -> (u64, u64) {
        (self.task_fp ^ salt, self.schedule_fps[i])
    }
}

/// Bounded LRU over `(task_fp, schedule_fp) → Option<score>`.
///
/// Slab-backed: entries live in a `Vec` threaded into an intrusive
/// most-recent-first list, so get/insert are O(1) with no per-entry boxing.
struct LruCache {
    capacity: usize,
    /// Fx-hashed: its keys are fingerprints, mixed already.
    map: HashMap<(u64, u64), usize, FxBuildHasher>,
    slots: Vec<Slot>,
    head: usize,
    tail: usize,
}

struct Slot {
    key: (u64, u64),
    value: Option<f32>,
    prev: usize,
    next: usize,
}

const NIL: usize = usize::MAX;

impl LruCache {
    fn new(capacity: usize) -> Self {
        LruCache {
            capacity,
            map: HashMap::with_capacity_and_hasher(capacity.min(1 << 20), FxBuildHasher::default()),
            slots: Vec::with_capacity(capacity.min(1 << 20)),
            head: NIL,
            tail: NIL,
        }
    }

    fn len(&self) -> usize {
        self.map.len()
    }

    fn clear(&mut self) {
        self.map.clear();
        self.slots.clear();
        self.head = NIL;
        self.tail = NIL;
    }

    fn unlink(&mut self, i: usize) {
        let (prev, next) = (self.slots[i].prev, self.slots[i].next);
        if prev != NIL {
            self.slots[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.slots[next].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn push_front(&mut self, i: usize) {
        self.slots[i].prev = NIL;
        self.slots[i].next = self.head;
        if self.head != NIL {
            self.slots[self.head].prev = i;
        }
        self.head = i;
        if self.tail == NIL {
            self.tail = i;
        }
    }

    /// Looks up `key`, refreshing its recency on hit.
    fn get(&mut self, key: (u64, u64)) -> Option<Option<f32>> {
        let &i = self.map.get(&key)?;
        if self.head != i {
            self.unlink(i);
            self.push_front(i);
        }
        Some(self.slots[i].value)
    }

    /// Inserts (or refreshes) `key`, evicting the least-recent entry at
    /// capacity.
    fn insert(&mut self, key: (u64, u64), value: Option<f32>) {
        if self.capacity == 0 {
            return;
        }
        if let Some(&i) = self.map.get(&key) {
            self.slots[i].value = value;
            if self.head != i {
                self.unlink(i);
                self.push_front(i);
            }
            return;
        }
        let i = if self.map.len() >= self.capacity {
            // Recycle the LRU slot.
            let victim = self.tail;
            self.unlink(victim);
            self.map.remove(&self.slots[victim].key);
            self.slots[victim].key = key;
            self.slots[victim].value = value;
            victim
        } else {
            self.slots.push(Slot {
                key,
                value,
                prev: NIL,
                next: NIL,
            });
            self.slots.len() - 1
        };
        self.map.insert(key, i);
        self.push_front(i);
    }
}

/// Batched parallel scoring with a bounded LRU score cache, over the one
/// scorer the engine owns.
///
/// Owning the scorer is what makes the cache sound: every cached score was
/// produced by `self.scorer`, and the only way to change that scorer is
/// [`InferenceEngine::absorb`], which invalidates when the parameters moved.
/// [`crate::search::FeatureModel`] is the engine's `CostModel` view. The
/// engine is `Sync` — all interior state is atomics plus mutex-guarded pools
/// — so a model stack can be shared across search threads.
pub struct InferenceEngine<S: ScheduleScorer> {
    scorer: S,
    config: EngineConfig,
    /// Worker count `config` resolved to at construction.
    threads: usize,
    cache: Mutex<LruCache>,
    /// Model-version salt mixed into every cache key; bumped on
    /// invalidation so stale entries can never be read back.
    salt: AtomicU64,
    /// Pooled worker contexts, one per concurrent worker ever needed.
    /// Reusing scratch across calls is what lets the steady-state scoring
    /// loop allocate nothing.
    scratch_pool: Mutex<Vec<Pooled<S::Scratch>>>,
    /// Pooled per-call bookkeeping buffers (key set, miss indices).
    call_bufs: Mutex<Vec<CallBufs>>,
    requests: AtomicU64,
    micro_batches: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    wall_ns: AtomicU64,
    micro_batch_wall_ns: AtomicU64,
    invalidations: AtomicU64,
}

/// Where a scoring call's cache keys come from.
pub(crate) enum Keys<'a> {
    /// Taken by the engine from the request, when it has a cache to key.
    Take(&'a SearchTask, &'a [ScheduleSequence]),
    /// Taken by the caller ([`ScoreKeys::take`]), possibly
    /// under an earlier salt or for another engine: nothing is hashed again.
    Given(&'a ScoreKeys),
}

/// Reusable per-call bookkeeping: the key set `score_into` builds for
/// itself and the fingerprinter it builds it with, the cache-miss indices
/// the scorer sees (one per distinct key), and the misses that repeat one
/// of those.
#[derive(Default)]
struct CallBufs {
    keys: ScoreKeys,
    fingerprinter: Fingerprinter,
    miss_idx: Vec<usize>,
    /// Schedule fingerprint → index of the first miss carrying it.
    first_miss: HashMap<u64, usize, FxBuildHasher>,
    /// `(index, index of the earlier miss with the same key)`.
    repeats: Vec<(usize, usize)>,
}

/// A pooled worker context: the scorer's scratch plus the micro-batch
/// output buffer it writes into.
#[derive(Default)]
struct Pooled<T> {
    scratch: T,
    mb_out: Vec<Option<f32>>,
}

impl<S: ScheduleScorer> std::fmt::Debug for InferenceEngine<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InferenceEngine")
            .field("scorer", &self.scorer.name())
            .field("config", &self.config)
            .field("stats", &self.stats())
            .finish()
    }
}

impl<S: ScheduleScorer> InferenceEngine<S> {
    /// Creates an engine over `scorer` with the given sizing.
    pub fn new(scorer: S, config: EngineConfig) -> Self {
        InferenceEngine {
            scorer,
            threads: config.effective_threads(),
            cache: Mutex::new(LruCache::new(config.cache_capacity)),
            config,
            salt: AtomicU64::new(0x517c_c1b7_2722_0a95),
            scratch_pool: Mutex::new(Vec::new()),
            call_bufs: Mutex::new(Vec::new()),
            requests: AtomicU64::new(0),
            micro_batches: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            wall_ns: AtomicU64::new(0),
            micro_batch_wall_ns: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
        }
    }

    /// The scorer every score comes from.
    pub fn scorer(&self) -> &S {
        &self.scorer
    }

    /// Unwraps the scorer, dropping the cache and pools.
    pub fn into_scorer(self) -> S {
        self.scorer
    }

    /// Feeds measured latencies to the scorer ([`ScheduleScorer::absorb`])
    /// and invalidates the score cache when that changed its parameters.
    ///
    /// # Errors
    ///
    /// Whatever the scorer's `absorb` returns; the cache is untouched then.
    pub fn absorb(
        &mut self,
        task: &SearchTask,
        schedules: &[ScheduleSequence],
        latencies: &[f64],
    ) -> Result<(), UpdateError> {
        if self.scorer.absorb(task, schedules, latencies)? {
            self.invalidate();
        }
        Ok(())
    }

    /// The engine's sizing knobs.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Snapshot of the cumulative counters.
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            requests: self.requests.load(Ordering::Relaxed),
            micro_batches: self.micro_batches.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            wall_s: self.wall_ns.load(Ordering::Relaxed) as f64 * 1e-9,
            micro_batch_wall_s: self.micro_batch_wall_ns.load(Ordering::Relaxed) as f64 * 1e-9,
            invalidations: self.invalidations.load(Ordering::Relaxed),
            cache_len: self.cache.lock().expect("engine cache poisoned").len(),
        }
    }

    /// Drops every cached score by rotating the key salt (and clearing the
    /// backing store). [`InferenceEngine::absorb`] calls it when the
    /// scorer's parameters changed; a registry hot swap calls it on the
    /// displaced engine to release its cache memory.
    pub fn invalidate(&self) {
        // Golden-ratio increment: successive salts never repeat within any
        // realistic tuning run, so a key from salt N cannot alias salt N+1.
        self.salt
            .fetch_add(0x9e37_79b9_7f4a_7c15, Ordering::Relaxed);
        self.cache.lock().expect("engine cache poisoned").clear();
        self.invalidations.fetch_add(1, Ordering::Relaxed);
    }

    /// Scores `schedules` for `task`, consulting the cache first and
    /// micro-batching the misses across worker threads.
    ///
    /// Returns per-candidate optional scores (in request order; `None` =
    /// unscoreable candidate) and the per-call execution stats.
    ///
    /// Convenience wrapper over [`InferenceEngine::score_into`] that
    /// allocates the output vector; hot callers should hold a reusable
    /// buffer and call `score_into` directly.
    pub fn score(
        &self,
        task: &SearchTask,
        schedules: &[ScheduleSequence],
    ) -> (Vec<Option<f32>>, BatchStats) {
        let mut out = Vec::new();
        let stats = self.score_into(task, schedules, &mut out);
        (out, stats)
    }

    /// Scores `schedules` for `task` into a caller-owned buffer: `out` is
    /// cleared and refilled with one entry per candidate in request order
    /// (`None` = unscoreable candidate).
    ///
    /// All engine-side working memory — the key set, miss indices, worker
    /// scratch, micro-batch outputs — comes from internal pools, so once the
    /// caller's `out` buffer and the pools have warmed up, a steady-state
    /// call performs no heap allocation on the single-threaded path.
    pub fn score_into(
        &self,
        task: &SearchTask,
        schedules: &[ScheduleSequence],
        out: &mut Vec<Option<f32>>,
    ) -> BatchStats {
        self.run(Keys::Take(task, schedules), out, |scratch, idx, mb_out| {
            self.scorer
                .score_micro_batch_into(scratch, task, schedules, idx, mb_out);
        })
    }

    /// Answers a request from the cache alone, or not at all: under one lock
    /// acquisition, either every key is present — `out` receives the scores
    /// in request order, recency is refreshed and the request is counted
    /// exactly as an all-hit `score_into` would count it — or some key is
    /// absent and `None` is returned with no counter changed, so a caller
    /// that then scores the request the normal way has it counted once.
    /// Empty requests and cache-less engines always go the normal way.
    pub fn probe(&self, keys: &ScoreKeys, out: &mut Vec<Option<f32>>) -> Option<BatchStats> {
        if self.config.cache_capacity == 0 || keys.is_empty() {
            return None;
        }
        let start = Instant::now();
        let n = keys.len();
        out.clear();
        out.resize(n, None);
        let mut all_present = true;
        self.lookup(keys, self.salt.load(Ordering::Relaxed), out, |_| {
            all_present = false;
            false
        });
        if !all_present {
            return None;
        }
        let wall = start.elapsed();
        self.requests.fetch_add(1, Ordering::Relaxed);
        self.cache_hits.fetch_add(n as u64, Ordering::Relaxed);
        self.wall_ns
            .fetch_add(wall.as_nanos() as u64, Ordering::Relaxed);
        Some(BatchStats {
            micro_batches: 0,
            cache_hits: n as u32,
            cache_misses: 0,
            threads: 0,
            wall_s: wall.as_secs_f64(),
        })
    }

    /// The one cache probe: looks every key up in request order under one
    /// lock acquisition, refreshing recency and copying hits into `out`;
    /// `on_miss(i)` says whether to go on past an absent key.
    ///
    /// Duplicate keys inside one request each probe the cache individually:
    /// the first occurrence misses and the rest also miss (the score is not
    /// inserted until after inference); [`InferenceEngine::run`] then scores
    /// the first and copies its score to the rest.
    fn lookup(
        &self,
        keys: &ScoreKeys,
        salt: u64,
        out: &mut [Option<f32>],
        mut on_miss: impl FnMut(usize) -> bool,
    ) {
        let mut cache = self.cache.lock().expect("engine cache poisoned");
        for (i, slot) in out.iter_mut().enumerate() {
            match cache.get(keys.cache_key(i, salt)) {
                Some(v) => *slot = v,
                None => {
                    if !on_miss(i) {
                        return;
                    }
                }
            }
        }
    }

    /// The body of every scoring entry: probe the request's keys (the
    /// caller's, or taken here into pooled storage), micro-batch the misses
    /// through `score` — each distinct key once, the evolutionary search
    /// hands in the same mutation several times per round — insert what it
    /// scored. `score(scratch, idx, out)` appends one score per request index
    /// in `idx`; it is the only thing an entry passes in.
    pub(crate) fn run(
        &self,
        keys: Keys<'_>,
        out: &mut Vec<Option<f32>>,
        score: impl Fn(&mut S::Scratch, &[usize], &mut Vec<Option<f32>>) + Sync,
    ) -> BatchStats {
        let start = Instant::now();
        let n = match keys {
            Keys::Take(_, schedules) => schedules.len(),
            Keys::Given(keys) => keys.len(),
        };
        out.clear();
        out.resize(n, None);

        let mut call = self
            .call_bufs
            .lock()
            .expect("engine call-buffer pool poisoned")
            .pop()
            .unwrap_or_default();
        let CallBufs {
            keys: own_keys,
            fingerprinter,
            miss_idx,
            first_miss,
            repeats,
        } = &mut call;
        let keys: &ScoreKeys = match keys {
            Keys::Given(keys) => keys,
            Keys::Take(task, schedules) => {
                if self.config.cache_capacity > 0 {
                    own_keys.refill(task, schedules, fingerprinter);
                }
                own_keys
            }
        };
        let salt = self.salt.load(Ordering::Relaxed);
        if self.config.cache_capacity > 0 {
            self.lookup(keys, salt, out, |i| {
                miss_idx.push(i);
                true
            });
            // A miss whose key an earlier miss of this request carries is
            // not scored again: per-candidate determinism makes its score
            // the first one's bits. (No keys are taken without a cache.)
            miss_idx.retain(|&i| match first_miss.entry(keys.schedule_fps[i]) {
                Entry::Vacant(slot) => {
                    slot.insert(i);
                    true
                }
                Entry::Occupied(first) => {
                    repeats.push((i, *first.get()));
                    false
                }
            });
        } else {
            miss_idx.extend(0..n);
        }
        let misses = miss_idx.len() + repeats.len();
        let hits = n - misses;
        // A cached `None` (unscoreable schedule) is indistinguishable from a
        // miss in `out`, which is fine: unscoreable candidates re-probe the
        // model only when their key was evicted, and `valid` masks derive
        // from the scorer's answer either way.

        // As many batches as `micro_batch` demands, each an even share of
        // the misses (73 → 37 + 36, not 64 + 9), so no worker idles behind
        // a full-sized batch while another finishes a sliver.
        let n_batches = miss_idx.len().div_ceil(self.config.micro_batch.max(1));
        let mb = miss_idx.len().div_ceil(n_batches.max(1));
        let threads = self.threads.clamp(1, n_batches.max(1));

        if n_batches > 0 {
            let batch_ns = AtomicU64::new(0);
            let next = AtomicUsize::new(0);
            let miss_idx: &[usize] = miss_idx;
            // Workers write disjoint index sets, so a plain mutex around
            // the shared output is contention, not a correctness need.
            let out_slots: Mutex<&mut [Option<f32>]> = Mutex::new(&mut out[..]);
            // The one micro-batch loop: claim the next batch off the
            // counter, score it into pooled scratch, scatter.
            let worker = || {
                let mut pooled = self
                    .scratch_pool
                    .lock()
                    .expect("engine scratch pool poisoned")
                    .pop()
                    .unwrap_or_default();
                loop {
                    let b = next.fetch_add(1, Ordering::Relaxed);
                    if b >= n_batches {
                        break;
                    }
                    let lo = b * mb;
                    let hi = (lo + mb).min(miss_idx.len());
                    let idx = &miss_idx[lo..hi];
                    let t = Instant::now();
                    pooled.mb_out.clear();
                    score(&mut pooled.scratch, idx, &mut pooled.mb_out);
                    batch_ns.fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
                    debug_assert_eq!(pooled.mb_out.len(), idx.len(), "scorer batch shape");
                    let mut slots = out_slots.lock().expect("engine output poisoned");
                    for (off, &i) in idx.iter().enumerate() {
                        slots[i] = pooled.mb_out[off];
                    }
                }
                self.scratch_pool
                    .lock()
                    .expect("engine scratch pool poisoned")
                    .push(pooled);
            };
            if threads == 1 {
                worker();
            } else {
                std::thread::scope(|s| {
                    for _ in 0..threads - 1 {
                        s.spawn(worker);
                    }
                    worker(); // the caller is the last worker, not a waiter
                });
            }
            for &(i, first) in repeats.iter() {
                out[i] = out[first];
            }
            if self.config.cache_capacity > 0 {
                let mut cache = self.cache.lock().expect("engine cache poisoned");
                for &i in miss_idx.iter() {
                    cache.insert(keys.cache_key(i, salt), out[i]);
                }
            }
            self.micro_batch_wall_ns
                .fetch_add(batch_ns.load(Ordering::Relaxed), Ordering::Relaxed);
        }

        let wall = start.elapsed();
        self.requests.fetch_add(1, Ordering::Relaxed);
        self.micro_batches
            .fetch_add(n_batches as u64, Ordering::Relaxed);
        self.cache_hits.fetch_add(hits as u64, Ordering::Relaxed);
        self.cache_misses
            .fetch_add(misses as u64, Ordering::Relaxed);
        self.wall_ns
            .fetch_add(wall.as_nanos() as u64, Ordering::Relaxed);

        let stats = BatchStats {
            micro_batches: n_batches as u32,
            cache_hits: hits as u32,
            cache_misses: misses as u32,
            threads: if n_batches == 0 { 0 } else { threads as u32 },
            wall_s: wall.as_secs_f64(),
        };
        call.keys.clear();
        call.miss_idx.clear();
        call.first_miss.clear();
        call.repeats.clear();
        self.call_bufs
            .lock()
            .expect("engine call-buffer pool poisoned")
            .push(call);
        stats
    }
}

/// Stable fingerprint of a search task for cache keying. Covers the
/// subgraph (which scoring depends on) and every field of the platform (so
/// identical subgraphs tuned for different targets never share entries).
///
/// Public so layers above the engine (the serving batcher) can group work by
/// the same task identity the score cache uses.
pub fn task_fingerprint(task: &SearchTask) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    task.subgraph.hash(&mut h);
    // Exhaustive, so a field added to `Platform` does not compile until it
    // is hashed here; floats hash by their bits.
    let tlp_hwsim::Platform {
        name,
        arch,
        device,
        cores,
        freq_ghz,
        vector_lanes,
        fma_units,
        l1_kb,
        l2_kb,
        l3_kb,
        dram_gbps,
        launch_overhead_us,
        quirk_seed,
    } = &task.platform;
    name.hash(&mut h);
    arch.hash(&mut h);
    device.hash(&mut h);
    (cores, vector_lanes, fma_units, quirk_seed).hash(&mut h);
    for x in [freq_ghz, l1_kb, l2_kb, l3_kb, dram_gbps, launch_overhead_us] {
        x.to_bits().hash(&mut h);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use tlp_hwsim::Platform;
    use tlp_workload::{AnchorOp, Subgraph};

    fn task() -> SearchTask {
        SearchTask::new(
            Subgraph::new("d", AnchorOp::Dense { m: 8, n: 8, k: 8 }),
            Platform::i7_10510u(),
        )
    }

    #[test]
    fn every_platform_field_moves_the_task_fingerprint() {
        use tlp_hwsim::{Arch, DeviceKind};
        let base = task();
        let edits: [fn(&mut Platform); 13] = [
            |p| p.name.push('x'),
            |p| p.arch = Arch::Arm,
            |p| p.device = DeviceKind::Gpu,
            |p| p.cores += 1,
            |p| p.freq_ghz += 0.1,
            |p| p.vector_lanes += 1,
            |p| p.fma_units += 1,
            |p| p.l1_kb += 1.0,
            |p| p.l2_kb += 1.0,
            |p| p.l3_kb += 1.0,
            |p| p.dram_gbps += 1.0,
            |p| p.launch_overhead_us += 1.0,
            |p| p.quirk_seed ^= 1,
        ];
        for (i, edit) in edits.iter().enumerate() {
            let mut edited = base.clone();
            edit(&mut edited.platform);
            assert_ne!(
                task_fingerprint(&edited),
                task_fingerprint(&base),
                "field {i}"
            );
        }
    }

    /// Scores by fingerprint; counts how many candidates hit the model, in
    /// batches of what size.
    struct CountingScorer {
        scored: AtomicUsize,
        batch_sizes: Mutex<Vec<usize>>,
    }

    impl CountingScorer {
        fn new() -> Self {
            CountingScorer {
                scored: AtomicUsize::new(0),
                batch_sizes: Mutex::new(Vec::new()),
            }
        }
    }

    impl ScheduleScorer for CountingScorer {
        type Scratch = ();

        fn name(&self) -> &str {
            "counting"
        }

        fn pipeline_cost(&self) -> PipelineCost {
            PipelineCost::ZERO
        }

        fn score_micro_batch_into(
            &self,
            _scratch: &mut (),
            _task: &SearchTask,
            schedules: &[ScheduleSequence],
            idx: &[usize],
            out: &mut Vec<Option<f32>>,
        ) {
            self.scored.fetch_add(idx.len(), Ordering::Relaxed);
            self.batch_sizes.lock().expect("sizes").push(idx.len());
            out.extend(
                idx.iter()
                    .map(|&i| Some((schedules[i].fingerprint() >> 40) as f32)),
            );
        }
    }

    fn counting_engine(config: EngineConfig) -> InferenceEngine<CountingScorer> {
        InferenceEngine::new(CountingScorer::new(), config)
    }

    fn distinct_schedules(n: usize) -> Vec<ScheduleSequence> {
        use tlp_schedule::{ConcretePrimitive, PrimitiveKind};
        (0..n)
            .map(|i| {
                [ConcretePrimitive::new(PrimitiveKind::Split, "C")
                    .with_loops(["i"])
                    .with_ints([i as i64 + 1, 4])]
                .into_iter()
                .collect()
            })
            .collect()
    }

    #[test]
    fn second_request_is_all_hits() {
        let engine = counting_engine(EngineConfig {
            micro_batch: 4,
            threads: 1,
            cache_capacity: 128,
        });
        let t = task();
        let seqs = distinct_schedules(10);
        let (first, s1) = engine.score(&t, &seqs);
        assert_eq!(s1.cache_misses, 10);
        assert_eq!(s1.cache_hits, 0);
        assert_eq!(s1.micro_batches, 3);
        let (second, s2) = engine.score(&t, &seqs);
        assert_eq!(s2.cache_hits, 10);
        assert_eq!(s2.cache_misses, 0);
        assert_eq!(first, second);
        assert_eq!(engine.scorer().scored.load(Ordering::Relaxed), 10);
        assert_eq!(engine.stats().cache_len, 10);
    }

    #[test]
    fn repeated_keys_in_one_request_reach_the_scorer_once() {
        let engine = counting_engine(EngineConfig {
            micro_batch: 3,
            threads: 1,
            cache_capacity: 128,
        });
        let t = task();
        let distinct = distinct_schedules(4);
        let request: Vec<ScheduleSequence> = [0usize, 1, 0, 2, 1, 0, 3, 3, 2, 0]
            .iter()
            .map(|&d| distinct[d].clone())
            .collect();
        let reference = counting_engine(EngineConfig::sequential_uncached());
        let (want, _) = reference.score(&t, &request);
        assert_eq!(reference.scorer().scored.load(Ordering::Relaxed), 10);

        let (got, s1) = engine.score(&t, &request);
        assert_eq!(got, want);
        // Ten candidates the cache did not answer, four of them scored: the
        // first occurrences, in request order, cut 2 + 2.
        assert_eq!((s1.cache_misses, s1.cache_hits), (10, 0));
        assert_eq!(s1.micro_batches, 2);
        assert_eq!(engine.scorer().scored.load(Ordering::Relaxed), 4);
        assert_eq!(
            *engine.scorer().batch_sizes.lock().expect("sizes"),
            vec![2, 2]
        );
        assert_eq!(engine.stats().cache_len, 4);

        let (again, s2) = engine.score(&t, &request);
        assert_eq!(again, want);
        assert_eq!((s2.cache_misses, s2.cache_hits), (0, 10));
        assert_eq!(engine.scorer().scored.load(Ordering::Relaxed), 4);
        let stats = engine.stats();
        assert_eq!((stats.cache_misses, stats.cache_hits), (10, 10));
        assert_eq!(stats.micro_batches, 2);
    }

    #[test]
    fn cache_respects_capacity() {
        let engine = counting_engine(EngineConfig {
            micro_batch: 8,
            threads: 1,
            cache_capacity: 4,
        });
        let t = task();
        let seqs = distinct_schedules(12);
        engine.score(&t, &seqs);
        assert_eq!(engine.stats().cache_len, 4);
        // The four most recent survive; re-scoring them is pure hits.
        let tail = seqs[8..].to_vec();
        let (_, s) = engine.score(&t, &tail);
        assert_eq!(s.cache_hits, 4);
    }

    #[test]
    fn invalidate_forces_rescore() {
        let engine = counting_engine(EngineConfig {
            micro_batch: 8,
            threads: 1,
            cache_capacity: 64,
        });
        let t = task();
        let seqs = distinct_schedules(5);
        engine.score(&t, &seqs);
        engine.invalidate();
        let (_, s) = engine.score(&t, &seqs);
        assert_eq!(s.cache_misses, 5);
        assert_eq!(engine.stats().invalidations, 1);
    }

    #[test]
    fn parallel_matches_sequential() {
        let t = task();
        let seqs = distinct_schedules(37);
        let seq_engine = counting_engine(EngineConfig {
            micro_batch: 5,
            threads: 1,
            cache_capacity: 0,
        });
        let par_engine = counting_engine(EngineConfig {
            micro_batch: 5,
            threads: 4,
            cache_capacity: 0,
        });
        let (a, sa) = seq_engine.score(&t, &seqs);
        let (b, sb) = par_engine.score(&t, &seqs);
        assert_eq!(a, b);
        assert_eq!(sa.micro_batches, 8);
        assert!(sb.threads >= 2, "parallel path actually used threads");
        // The one loop counts the same however many workers run it.
        assert_eq!(
            (sa.cache_hits, sa.cache_misses, sa.micro_batches),
            (sb.cache_hits, sb.cache_misses, sb.micro_batches)
        );
        let (ca, cb) = (seq_engine.stats(), par_engine.stats());
        assert_eq!(
            (ca.requests, ca.micro_batches, ca.cache_misses),
            (cb.requests, cb.micro_batches, cb.cache_misses)
        );
    }

    #[test]
    fn misses_are_cut_into_equal_micro_batches() {
        let t = task();
        for (misses, want) in [(73, vec![37, 36]), (512, vec![64; 8]), (50, vec![50])] {
            let engine = counting_engine(EngineConfig {
                micro_batch: 64,
                threads: 1,
                cache_capacity: 0,
            });
            let (_, stats) = engine.score(&t, &distinct_schedules(misses));
            assert_eq!(stats.micro_batches as usize, misses.div_ceil(64));
            assert_eq!(*engine.scorer().batch_sizes.lock().expect("sizes"), want);
        }
    }

    #[test]
    fn scratch_pool_is_reused_not_grown() {
        let t = task();
        let seqs = distinct_schedules(20);
        for threads in [1, 2] {
            let engine = counting_engine(EngineConfig {
                micro_batch: 4,
                threads,
                cache_capacity: 0,
            });
            for _ in 0..50 {
                engine.score(&t, &seqs);
            }
            let pooled = engine.scratch_pool.lock().expect("pool").len();
            assert!(
                (1..=threads).contains(&pooled),
                "{threads} worker(s) left {pooled} pooled contexts"
            );
        }
    }

    #[test]
    fn empty_request_roundtrips() {
        let engine = counting_engine(EngineConfig::default());
        let (out, stats) = engine.score(&task(), &[]);
        assert!(out.is_empty());
        assert_eq!(stats.micro_batches, 0);
        assert_eq!(stats.threads, 0);
    }

    #[test]
    fn distinct_tasks_do_not_share_entries() {
        let engine = counting_engine(EngineConfig::default());
        let t1 = task();
        let t2 = SearchTask::new(
            Subgraph::new(
                "d",
                AnchorOp::Dense {
                    m: 16,
                    n: 16,
                    k: 16,
                },
            ),
            Platform::i7_10510u(),
        );
        let seqs = distinct_schedules(6);
        engine.score(&t1, &seqs);
        let (_, s) = engine.score(&t2, &seqs);
        assert_eq!(
            s.cache_misses, 6,
            "different task must not hit t1's entries"
        );
    }

    #[test]
    fn lru_refreshes_on_get() {
        let mut c = LruCache::new(2);
        c.insert((0, 1), Some(1.0));
        c.insert((0, 2), Some(2.0));
        // Touch (0,1) so (0,2) becomes the eviction victim.
        assert_eq!(c.get((0, 1)), Some(Some(1.0)));
        c.insert((0, 3), Some(3.0));
        assert_eq!(c.len(), 2);
        assert_eq!(c.get((0, 2)), None);
        assert_eq!(c.get((0, 1)), Some(Some(1.0)));
        assert_eq!(c.get((0, 3)), Some(Some(3.0)));
    }
}
