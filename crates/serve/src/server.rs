//! The serving front end: bounded admission queue, dynamic batcher threads,
//! and the client handle.
//!
//! Clients submit `(model name, task, candidates)` jobs through a
//! [`ServeClient`]. Admission does each per-candidate job once, in one
//! order: resolve the model → verify every schedule (with a warm
//! [`tlp_verify::Verifier`] for the task, kept across requests) →
//! fingerprint the request once ([`ScoreKeys`], through the
//! [`Fingerprinter`] kept with that verifier, which holds the words of the
//! task's schedule skeletons and the fingerprints of the schedules it keyed
//! before, so a candidate it keyed before is not hashed again) → probe the resolved
//! version's score cache, all or nothing. A request whose every candidate
//! is cached is answered right there, on the submitting thread: no
//! extraction, no channel, no queue slot, no batcher. Anything else has its
//! features extracted by the resolved version's extractor and queues whole
//! as those features, its keys and that version — no schedule, task or name
//! — so the batcher hashes and extracts nothing and only runs the model.
//! Verification precedes the probe on purpose: the fingerprint is a fast
//! non-cryptographic hash and the cache is writable by callers that never
//! verified (a resolved [`ModelVersion`] derefs to its engine, whose
//! `score` is public), so a cached score proves nothing about the schedule
//! in hand.
//!
//! Admission is bounded: a full queue rejects with
//! [`ServeError::Overloaded`] *before* anything is extracted or allocated,
//! so refused load costs its verification and one hashing pass and server
//! memory never grows with it. (Verification and the probe stay ahead of
//! that look: an invalid request is `InvalidSchedule` even on a full queue,
//! and an all-hit request needs no queue slot, so a full queue does not
//! refuse it.)
//!
//! Batcher threads pull the oldest job, then coalesce every queued job for
//! the same `(model version, task)` into one engine batch — topping up for
//! at most [`BatchPolicy::max_wait`] while the batch is below
//! [`BatchPolicy::max_batch`] candidates — so many small tuner requests
//! amortize into the engine's micro-batched parallel path. A request is
//! scored by the version that admitted it, and carries that version tag
//! back to the client: a hot swap or a removal after admission changes
//! nothing for it.
//!
//! Shutdown is graceful: new submissions fail with
//! [`ServeError::ShuttingDown`] while batchers keep flushing (without the
//! coalescing wait) until the queue is empty, so every admitted request gets
//! an answer.

use crate::error::ServeError;
use crate::registry::{ModelRegistry, ModelVersion};
use crate::stats::{ServeSnapshot, ServeStats};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use tlp::engine::ScoreKeys;
use tlp::features::FeatureBuf;
use tlp_autotuner::{BatchStats, SearchTask};
use tlp_schedule::{Fingerprinter, ScheduleSequence};
use tlp_verify::{Verifier, VerifyOptions};
use tlp_workload::Subgraph;

/// Dynamic-batching policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BatchPolicy {
    /// Stop coalescing once a batch holds this many candidates. Not a hard
    /// split: a single oversized job still runs whole (the engine
    /// micro-batches internally).
    pub max_batch: usize,
    /// How long a batch below `max_batch` may wait for more jobs, measured
    /// from the oldest job's enqueue time. Zero flushes immediately.
    pub max_wait: Duration,
}

impl Default for BatchPolicy {
    fn default() -> Self {
        BatchPolicy {
            max_batch: 512,
            max_wait: Duration::from_micros(200),
        }
    }
}

/// Server sizing knobs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServeConfig {
    /// Admission-queue capacity; submission `capacity + 1` while the queue
    /// is full gets [`ServeError::Overloaded`].
    pub queue_capacity: usize,
    /// Batcher threads. `0` starts a paused server that admits but never
    /// executes jobs — useful for tests exercising admission control;
    /// [`Server::shutdown`] then answers leftovers with
    /// [`ServeError::ShuttingDown`].
    pub batchers: usize,
    /// Coalescing policy.
    pub policy: BatchPolicy,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            queue_capacity: 1024,
            batchers: 2,
            policy: BatchPolicy::default(),
        }
    }
}

/// A completed score request.
#[derive(Clone, Debug)]
pub struct ScoreReply {
    /// Per-candidate optional scores, parallel to the submitted schedules
    /// (`None` = unscoreable candidate).
    pub scores: Vec<Option<f32>>,
    /// The model version that produced the scores.
    pub model_version: u64,
    /// Engine accounting for the *coalesced* batch this job rode in (shared
    /// by all jobs in the batch). For a reply answered at admission: the
    /// cache probe's own stats — every candidate a hit, no micro-batch, no
    /// worker thread — exactly what the queued path reports for an all-hit
    /// request.
    pub stats: BatchStats,
    /// Server-side time from this job's enqueue to its batch's *completion*,
    /// µs: queue wait plus the coalesced batch's engine time (subtract
    /// `stats.wall_s` to get the pure queue wait). For a reply answered at
    /// admission: from the end of hashing to the reply, i.e. the probe and
    /// the accounting — it never queued.
    pub queue_us: u64,
    /// Number of client jobs coalesced into the engine batch; `1` for a
    /// reply answered at admission (it rode in no batch).
    pub batch_jobs: usize,
}

struct Job {
    /// The version that verified, probed and extracted the request; it
    /// scores it.
    version: Arc<ModelVersion>,
    /// The request's features, extracted once at admission.
    feats: FeatureBuf,
    /// The request's cache keys, taken once at admission.
    keys: ScoreKeys,
    deadline: Option<Instant>,
    enqueued: Instant,
    reply: mpsc::Sender<Result<ScoreReply, ServeError>>,
}

struct QueueState {
    queue: VecDeque<Job>,
    shutdown: bool,
}

struct Shared {
    state: Mutex<QueueState>,
    cv: Condvar,
    capacity: usize,
    stats: ServeStats,
    registry: Arc<ModelRegistry>,
    verifiers: Verifiers,
}

/// Warm verifiers admission keeps at most; returning one to a full set
/// drops the one returned longest ago.
const MAX_WARM_VERIFIERS: usize = 16;

/// A verifier kept between requests, with the subgraph and options it was
/// built for, the fingerprinter that keys the task's requests, and the
/// thread that used them last.
struct WarmVerifier {
    subgraph: Subgraph,
    opts: VerifyOptions,
    verifier: Verifier,
    fingerprinter: Fingerprinter,
    thread: u64,
}

/// A number for the calling thread, unique while the process runs.
fn thread_number() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    thread_local!(static NUMBER: u64 = NEXT.fetch_add(1, Ordering::Relaxed));
    NUMBER.with(|n| *n)
}

/// The verifiers admission lends out, oldest return first. A request takes
/// one built for exactly its subgraph and options — the one its thread gave
/// back last if there is one, whose plans and skeleton words are still in
/// that core's caches — or builds one, and gives it back when its
/// schedules are checked and hashed; requests on one task at once each hold
/// their own. A verifier's reports and a fingerprinter's fingerprints do
/// not depend on what they saw before, so which one a request gets changes
/// no reply.
#[derive(Default)]
struct Verifiers(Mutex<Vec<WarmVerifier>>);

impl Verifiers {
    /// Locks the set, recovering from poisoning: the set is only read and
    /// moved under the lock, never left half written.
    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<WarmVerifier>> {
        self.0.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn take(&self, subgraph: &Subgraph, opts: VerifyOptions) -> WarmVerifier {
        let thread = thread_number();
        let mut warm = self.lock();
        let mut pick = None;
        for (i, w) in warm.iter().enumerate().rev() {
            if w.opts == opts && w.subgraph == *subgraph {
                pick = pick.or(Some(i));
                if w.thread == thread {
                    pick = Some(i);
                    break;
                }
            }
        }
        match pick {
            Some(i) => {
                let mut taken = warm.remove(i);
                taken.thread = thread;
                taken
            }
            None => {
                drop(warm);
                WarmVerifier {
                    subgraph: subgraph.clone(),
                    opts,
                    verifier: Verifier::new(subgraph, &opts),
                    fingerprinter: Fingerprinter::default(),
                    thread,
                }
            }
        }
    }

    fn give_back(&self, verifier: WarmVerifier) {
        let mut warm = self.lock();
        let dropped = (warm.len() == MAX_WARM_VERIFIERS).then(|| warm.remove(0));
        warm.push(verifier);
        // The dropped verifier's buffers are freed after the lock is.
        drop(warm);
        drop(dropped);
    }
}

impl Shared {
    /// Locks the queue state, recovering from poisoning: a batcher that
    /// panicked mid-batch leaves the queue structurally intact (jobs are
    /// popped before scoring), so continuing with the inner state is safe
    /// and keeps the other batchers and clients alive.
    fn lock_state(&self) -> std::sync::MutexGuard<'_, QueueState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn snapshot(&self) -> ServeSnapshot {
        let depth = self.lock_state().queue.len();
        self.stats.snapshot(
            depth,
            self.registry.rejected_installs(),
            self.registry.stats(),
        )
    }
}

/// The serving layer: owns the queue and the batcher threads.
///
/// Create with [`Server::start`], hand out [`ServeClient`]s via
/// [`Server::client`], and stop with [`Server::shutdown`] (dropping the
/// server shuts it down too).
pub struct Server {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
}

impl Server {
    /// Starts `config.batchers` batcher threads over `registry`.
    pub fn start(registry: Arc<ModelRegistry>, config: ServeConfig) -> Server {
        let shared = Arc::new(Shared {
            state: Mutex::new(QueueState {
                queue: VecDeque::with_capacity(config.queue_capacity.min(1 << 16)),
                shutdown: false,
            }),
            cv: Condvar::new(),
            capacity: config.queue_capacity,
            stats: ServeStats::default(),
            registry,
            verifiers: Verifiers::default(),
        });
        let handles = (0..config.batchers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                let policy = config.policy;
                std::thread::Builder::new()
                    .name(format!("tlp-serve-batcher-{i}"))
                    .spawn(move || batcher_loop(&shared, policy))
                    .unwrap_or_else(|e| panic!("spawn batcher thread: {e}"))
            })
            .collect();
        Server { shared, handles }
    }

    /// A cloneable client handle for this server.
    pub fn client(&self) -> ServeClient {
        ServeClient {
            shared: Arc::clone(&self.shared),
        }
    }

    /// The registry this server scores through.
    pub fn registry(&self) -> &Arc<ModelRegistry> {
        &self.shared.registry
    }

    /// Point-in-time serving stats (counters, queue depth, latency
    /// percentiles, per-model engine stats).
    pub fn stats(&self) -> ServeSnapshot {
        self.shared.snapshot()
    }

    /// Graceful shutdown: stops admitting, lets batchers drain every queued
    /// job, joins them, and returns the final stats snapshot. With zero
    /// batchers, leftover jobs are answered [`ServeError::ShuttingDown`].
    pub fn shutdown(mut self) -> ServeSnapshot {
        self.stop();
        self.shared.snapshot()
    }

    fn stop(&mut self) {
        {
            let mut st = self.shared.lock_state();
            st.shutdown = true;
        }
        self.shared.cv.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
        // Only reachable with zero batchers: nobody will drain the queue.
        let leftovers: Vec<Job> = {
            let mut st = self.shared.lock_state();
            st.queue.drain(..).collect()
        };
        for job in leftovers {
            let _ = job.reply.send(Err(ServeError::ShuttingDown));
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

/// A cheap, cloneable handle submitting score requests to a [`Server`].
#[derive(Clone)]
pub struct ServeClient {
    shared: Arc<Shared>,
}

impl ServeClient {
    /// Scores `schedules` for `task` on the model named `model`, blocking
    /// until the reply arrives.
    ///
    /// # Errors
    ///
    /// Any [`ServeError`]: unknown model, full queue, shutdown, or a dropped
    /// reply channel.
    pub fn score(
        &self,
        model: &str,
        task: &SearchTask,
        schedules: &[ScheduleSequence],
    ) -> Result<ScoreReply, ServeError> {
        self.submit(model, task, schedules, None)?.wait()
    }

    /// Like [`ServeClient::score`] with a deadline: the request fails with
    /// [`ServeError::DeadlineExceeded`] if scoring has not completed within
    /// `deadline` of submission (checked both server-side before scoring and
    /// client-side while waiting).
    ///
    /// # Errors
    ///
    /// Any [`ServeError`].
    pub fn score_with_deadline(
        &self,
        model: &str,
        task: &SearchTask,
        schedules: &[ScheduleSequence],
        deadline: Duration,
    ) -> Result<ScoreReply, ServeError> {
        self.submit(model, task, schedules, Some(deadline))?.wait()
    }

    /// Submits without waiting, returning a [`PendingScore`] to collect
    /// later. Lets one client pipeline several requests.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownModel`], [`ServeError::Overloaded`], or
    /// [`ServeError::ShuttingDown`] — all admission-time failures.
    pub fn submit(
        &self,
        model: &str,
        task: &SearchTask,
        schedules: &[ScheduleSequence],
        deadline: Option<Duration>,
    ) -> Result<PendingScore, ServeError> {
        // An unknown model can never become scoreable by queueing (installs
        // race admission either way).
        let Some(version) = self.shared.registry.resolve(model) else {
            ServeStats::bump(&self.shared.stats.unknown_model);
            return Err(ServeError::UnknownModel(model.to_string()));
        };
        // Static verification gate, ahead of everything that trusts the
        // request: an invalid schedule costs O(verify) and reaches neither
        // the cache probe nor a batcher. Only verifier *errors* reject;
        // warnings and lints never do.
        let opts = VerifyOptions {
            gpu: Some(task.platform.is_gpu()),
        };
        let mut warm = self.shared.verifiers.take(&task.subgraph, opts);
        let rejected = schedules.iter().enumerate().find_map(|(index, schedule)| {
            let report = warm.verifier.check(schedule);
            report.has_errors().then_some((index, report))
        });
        let keys = match rejected {
            None => Ok(ScoreKeys::take(task, schedules, &mut warm.fingerprinter)),
            Some(rejected) => Err(rejected),
        };
        self.shared.verifiers.give_back(warm);
        let keys = match keys {
            Ok(keys) => keys,
            Err((index, report)) => {
                ServeStats::bump(&self.shared.stats.rejected_invalid);
                return Err(ServeError::InvalidSchedule {
                    index,
                    diagnostics: report.diagnostics,
                });
            }
        };
        let now = Instant::now();
        let deadline = deadline.map(|d| now + d);
        let mut scores = Vec::new();
        if let Some(stats) = version.probe(&keys, &mut scores) {
            return self.answer(&version, scores, stats, now, deadline);
        }

        // Look before building the job: refused load extracts nothing.
        self.admit(&self.shared.lock_state())?;
        let mut feats = FeatureBuf::new();
        version
            .scorer()
            .extractor
            .extract_batch_into(schedules, &mut feats);
        let (tx, rx) = mpsc::channel();
        let job = Job {
            version,
            feats,
            keys,
            deadline,
            enqueued: now,
            reply: tx,
        };
        {
            // The authoritative check: the queue may have filled since the
            // look, and the bound is exact.
            let mut st = self.shared.lock_state();
            self.admit(&st)?;
            st.queue.push_back(job);
        }
        ServeStats::bump(&self.shared.stats.submitted);
        self.shared.cv.notify_one();
        Ok(PendingScore(Pending::Queued { rx, deadline }))
    }

    /// Whether the queue has a free slot, or why not (bumping the refusal's
    /// counter).
    fn admit(&self, st: &QueueState) -> Result<(), ServeError> {
        let capacity = self.shared.capacity;
        if st.shutdown {
            return Err(ServeError::ShuttingDown);
        }
        if st.queue.len() >= capacity {
            ServeStats::bump(&self.shared.stats.rejected_overload);
            return Err(ServeError::Overloaded { capacity });
        }
        Ok(())
    }

    /// Completes, on the submitting thread, a request the cache probe
    /// answered whole. It takes no queue slot and no batcher time; shutdown
    /// and the deadline are honoured as on the queued path.
    fn answer(
        &self,
        version: &ModelVersion,
        scores: Vec<Option<f32>>,
        stats: BatchStats,
        admitted: Instant,
        deadline: Option<Instant>,
    ) -> Result<PendingScore, ServeError> {
        let shared = &self.shared;
        if shared.lock_state().shutdown {
            return Err(ServeError::ShuttingDown);
        }
        ServeStats::bump(&shared.stats.submitted);
        let done = Instant::now();
        if deadline.is_some_and(|d| done >= d) {
            ServeStats::bump(&shared.stats.expired);
            return Ok(PendingScore(Pending::Answered(Err(
                ServeError::DeadlineExceeded,
            ))));
        }
        let latency = done - admitted;
        ServeStats::bump(&shared.stats.answered_at_admission);
        ServeStats::bump(&shared.stats.completed);
        shared
            .stats
            .candidates
            .fetch_add(scores.len() as u64, Ordering::Relaxed);
        shared.stats.latency.record(latency);
        Ok(PendingScore(Pending::Answered(Ok(ScoreReply {
            scores,
            model_version: version.version(),
            stats,
            queue_us: latency.as_micros().min(u64::MAX as u128) as u64,
            batch_jobs: 1,
        }))))
    }

    /// Current serving stats.
    pub fn stats(&self) -> ServeSnapshot {
        self.shared.snapshot()
    }
}

/// A submitted request; consume with [`PendingScore::wait`].
pub struct PendingScore(Pending);

enum Pending {
    /// Answered at admission: the result is already here.
    Answered(Result<ScoreReply, ServeError>),
    /// Queued: a batcher will send the result.
    Queued {
        rx: mpsc::Receiver<Result<ScoreReply, ServeError>>,
        deadline: Option<Instant>,
    },
}

impl PendingScore {
    /// Blocks until the reply arrives (or the deadline passes); returns at
    /// once for a request answered at admission.
    ///
    /// # Errors
    ///
    /// The server's reply error, [`ServeError::DeadlineExceeded`] if the
    /// deadline passes first, or [`ServeError::Disconnected`] if the server
    /// was torn down without answering.
    pub fn wait(self) -> Result<ScoreReply, ServeError> {
        match self.0 {
            Pending::Answered(result) => result,
            Pending::Queued { rx, deadline: None } => {
                rx.recv().unwrap_or(Err(ServeError::Disconnected))
            }
            Pending::Queued {
                rx,
                deadline: Some(deadline),
            } => {
                let timeout = deadline.saturating_duration_since(Instant::now());
                match rx.recv_timeout(timeout) {
                    Ok(reply) => reply,
                    Err(mpsc::RecvTimeoutError::Timeout) => Err(ServeError::DeadlineExceeded),
                    Err(mpsc::RecvTimeoutError::Disconnected) => Err(ServeError::Disconnected),
                }
            }
        }
    }
}

/// One coalesced unit of work: jobs sharing the first job's
/// `(model version, task)`.
struct Group {
    jobs: Vec<Job>,
    candidates: usize,
    first_enqueued: Instant,
}

impl Group {
    fn seed(job: Job) -> Group {
        Group {
            candidates: job.keys.len(),
            first_enqueued: job.enqueued,
            jobs: vec![job],
        }
    }

    /// Moves matching queued jobs into the group until `max_batch`.
    fn top_up(&mut self, queue: &mut VecDeque<Job>, max_batch: usize) {
        let first = &self.jobs[0];
        let (version, task_fp) = (Arc::as_ptr(&first.version), first.keys.task_fp());
        let mut i = 0;
        while i < queue.len() && self.candidates < max_batch {
            if Arc::as_ptr(&queue[i].version) == version && queue[i].keys.task_fp() == task_fp {
                if let Some(job) = queue.remove(i) {
                    self.candidates += job.keys.len();
                    self.jobs.push(job);
                }
            } else {
                i += 1;
            }
        }
    }
}

/// Per-batcher-thread scratch reused across executed batches: the group's
/// gathered features and keys, and the engine output buffer. All warm up
/// once and then serve every subsequent batch without reallocating.
#[derive(Default)]
struct ExecScratch {
    feats: FeatureBuf,
    keys: ScoreKeys,
    scores: Vec<Option<f32>>,
}

fn batcher_loop(shared: &Shared, policy: BatchPolicy) {
    let mut scratch = ExecScratch::default();
    loop {
        let mut st = shared.lock_state();
        // Take the oldest job, sleeping until there is one (or we are told
        // to exit).
        let first = loop {
            if let Some(job) = st.queue.pop_front() {
                break job;
            }
            if st.shutdown {
                return;
            }
            st = shared.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        };
        let mut group = Group::seed(first);
        group.top_up(&mut st.queue, policy.max_batch);
        // Below target size: hold the batch open for stragglers, measured
        // from the oldest job so no request waits more than max_wait here.
        // Shutdown flushes immediately.
        let wait_until = group.first_enqueued + policy.max_wait;
        while group.candidates < policy.max_batch && !st.shutdown {
            let now = Instant::now();
            if now >= wait_until {
                break;
            }
            let (guard, timed_out) = shared
                .cv
                .wait_timeout(st, wait_until - now)
                .unwrap_or_else(|e| e.into_inner());
            st = guard;
            group.top_up(&mut st.queue, policy.max_batch);
            if timed_out.timed_out() {
                break;
            }
        }
        drop(st);
        execute(shared, group, &mut scratch);
    }
}

fn execute(shared: &Shared, group: Group, scratch: &mut ExecScratch) {
    // Each live job's features and keys are gathered into the scratch the
    // engine scores; only a job's length is needed to split the reply.
    let now = Instant::now();
    scratch.feats.clear();
    scratch.keys.clear();
    let mut live: Vec<(Job, usize)> = Vec::with_capacity(group.jobs.len());
    for mut job in group.jobs {
        if job.deadline.is_some_and(|d| now >= d) {
            ServeStats::bump(&shared.stats.expired);
            let _ = job.reply.send(Err(ServeError::DeadlineExceeded));
        } else {
            let n = job.keys.len();
            scratch.feats.extend_from(&job.feats, 0..n);
            scratch.keys.append(&mut job.keys);
            live.push((job, n));
        }
    }
    let Some((first, _)) = live.first() else {
        return;
    };
    // The version every job of the group was admitted under scores it into
    // the pooled output buffer, under the keys and features admission took:
    // nothing is hashed or extracted here.
    let version = &first.version;
    let model_version = version.version();
    let stats = version.score_features_into(&scratch.feats, &scratch.keys, &mut scratch.scores);
    let n_candidates = scratch.keys.len();
    let scores = &scratch.scores;
    let done = Instant::now();
    let batch_jobs = live.len();
    shared.stats.batches.fetch_add(1, Ordering::Relaxed);
    shared
        .stats
        .coalesced_jobs
        .fetch_add(batch_jobs as u64, Ordering::Relaxed);
    shared
        .stats
        .candidates
        .fetch_add(n_candidates as u64, Ordering::Relaxed);
    let mut offset = 0;
    for (job, n) in live {
        let queue_us = done
            .saturating_duration_since(job.enqueued)
            .as_micros()
            .min(u64::MAX as u128) as u64;
        let reply = ScoreReply {
            scores: scores[offset..offset + n].to_vec(),
            model_version,
            stats,
            queue_us,
            batch_jobs,
        };
        offset += n;
        ServeStats::bump(&shared.stats.completed);
        shared.stats.latency.record(done - job.enqueued);
        let _ = job.reply.send(Ok(reply));
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::disallowed_methods)]
    use super::*;
    use tlp_workload::AnchorOp;

    #[test]
    fn a_thread_gets_back_the_verifier_it_gave_back() {
        let sg = Subgraph::new("d", AnchorOp::Dense { m: 8, n: 8, k: 8 });
        let opts = VerifyOptions { gpu: Some(false) };
        let verifiers = Verifiers::default();
        let schedule = tlp_schedule::parse_schedule("SP(d, i, [8, 2])").unwrap();
        let mut mine = verifiers.take(&sg, opts);
        ScoreKeys::take(
            &SearchTask::new(sg.clone(), tlp_hwsim::Platform::i7_10510u()),
            std::slice::from_ref(&schedule),
            &mut mine.fingerprinter,
        );
        let other = |verifiers: &Verifiers| {
            std::thread::scope(|s| s.spawn(|| verifiers.take(&sg, opts)).join().unwrap())
        };
        let theirs = other(&verifiers);
        verifiers.give_back(mine);
        verifiers.give_back(theirs);
        // `theirs` went back last, yet this thread gets its own.
        assert_eq!(verifiers.take(&sg, opts).fingerprinter.len(), 1);
        assert_eq!(other(&verifiers).fingerprinter.len(), 0);
    }
}
