//! Pipelined closed-loop load generator: a few threads, each keeping a fixed
//! window of requests in flight through `submit`/`PendingScore::wait`, so
//! `threads × window` logical tuners load the server from no more threads
//! than the machine has cores. Latencies go into a `Vec` per thread and
//! percentiles are exact (`tlp_serve::run_closed_loop` spends one thread per
//! client and reads percentiles off a log₂ histogram with 2× bucket error).
//!
//! A thread waits for its requests in submission order, so a request that
//! finishes while the thread waits on an older one is timed when the thread
//! reaches it: at most one service time late.

use std::collections::VecDeque;
use std::sync::Barrier;
use std::time::Instant;
use tlp_autotuner::SearchTask;
use tlp_schedule::ScheduleSequence;
use tlp_serve::ServeClient;

use crate::inputs::{bits, ScoreBits};

/// Name the model is installed and requested under.
pub const MODEL: &str = "tlp";

/// Shape of the closed loop.
#[derive(Clone, Copy)]
pub struct LoadShape {
    pub threads: usize,
    /// Requests each thread keeps in flight.
    pub window: usize,
    pub requests_per_thread: usize,
}

/// One request's timings on the trial clock (ns since the loop started) plus
/// what its `ScoreReply` says about the server side. Traced trials only.
pub struct RequestTiming {
    pub thread: usize,
    pub index: usize,
    pub submit_start_ns: u64,
    pub submit_end_ns: u64,
    pub done_ns: u64,
    /// `ScoreReply::queue_us`: enqueue to end of scoring.
    pub queue_us: u64,
    /// `ScoreReply::stats.wall_s`: the coalesced engine call, µs.
    pub engine_us: f64,
}

/// What the loop observed, summed over threads.
#[derive(Default)]
pub struct LoadResult {
    pub wall_s: f64,
    pub attempted: u64,
    /// Requests answered with every score bit-equal to the oracle.
    pub ok: u64,
    /// Requests refused at `submit`, answered with an error, or answered
    /// with a wrong score.
    pub failed: u64,
    /// Submit-to-wait-return latency of every answered request, µs.
    pub latency_us: Vec<f64>,
    pub timings: Vec<RequestTiming>,
}

/// Drives `shape` against `client`. `request(thread, index)` names the
/// candidates of each request and the oracle's scores for them.
pub fn run<'a, F>(
    client: &ServeClient,
    task: &SearchTask,
    shape: LoadShape,
    traced: bool,
    request: F,
) -> LoadResult
where
    F: Fn(usize, usize) -> (&'a [ScheduleSequence], &'a [ScoreBits]) + Sync,
{
    let barrier = Barrier::new(shape.threads + 1);
    let mut total = LoadResult::default();
    let epoch = Instant::now();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..shape.threads)
            .map(|thread| {
                let (barrier, request) = (&barrier, &request);
                let client = client.clone();
                scope.spawn(move || {
                    barrier.wait();
                    one_thread(&client, task, shape, thread, epoch, traced, request)
                })
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        for h in handles {
            let part = h.join().expect("load-generator thread panicked");
            total.attempted += part.attempted;
            total.ok += part.ok;
            total.failed += part.failed;
            total.latency_us.extend(part.latency_us);
            total.timings.extend(part.timings);
        }
        total.wall_s = start.elapsed().as_secs_f64();
    });
    total
}

fn one_thread<'a, F>(
    client: &ServeClient,
    task: &SearchTask,
    shape: LoadShape,
    thread: usize,
    epoch: Instant,
    traced: bool,
    request: &F,
) -> LoadResult
where
    F: Fn(usize, usize) -> (&'a [ScheduleSequence], &'a [ScoreBits]),
{
    let since = |t: Instant| t.duration_since(epoch).as_nanos() as u64;
    let mut out = LoadResult::default();
    out.latency_us.reserve(shape.requests_per_thread);
    let mut in_flight = VecDeque::with_capacity(shape.window);
    let mut next = 0;
    loop {
        while in_flight.len() < shape.window && next < shape.requests_per_thread {
            let (candidates, expected) = request(thread, next);
            out.attempted += 1;
            let submit_start = Instant::now();
            match client.submit(MODEL, task, candidates, None) {
                Ok(pending) => {
                    in_flight.push_back((next, expected, submit_start, Instant::now(), pending))
                }
                Err(_) => out.failed += 1,
            }
            next += 1;
        }
        let Some((index, expected, submit_start, submit_end, pending)) = in_flight.pop_front()
        else {
            break;
        };
        let reply = pending.wait();
        let done = Instant::now();
        let Ok(reply) = reply else {
            out.failed += 1;
            continue;
        };
        out.latency_us
            .push(done.duration_since(submit_start).as_nanos() as f64 / 1e3);
        if reply.scores.len() == expected.len()
            && reply
                .scores
                .iter()
                .zip(expected)
                .all(|(s, e)| bits(*s) == *e)
        {
            out.ok += 1;
        } else {
            out.failed += 1;
        }
        if traced {
            out.timings.push(RequestTiming {
                thread,
                index,
                submit_start_ns: since(submit_start),
                submit_end_ns: since(submit_end),
                done_ns: since(done),
                queue_us: reply.queue_us,
                engine_us: reply.stats.wall_s * 1e6,
            });
        }
    }
    out
}
