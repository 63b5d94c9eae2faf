//! The machine-speed reference: a fixed workload that shares no code with the
//! program under test, timed right before and after everything the benchmark
//! times.
//!
//! Why it exists: the two vCPUs of the sandbox this benchmark was defined on
//! drift between their calm speed and about 0.6× of it for tens of seconds at
//! a time (a fixed spin loop shows it, and process CPU time drifts with wall
//! time, so it is core speed, not descheduling). Raw candidates/s of
//! identical code therefore moved 15–30 % between 20-second runs — more than
//! any regression bound worth having. Scaling each timed section by how fast
//! the reference ran next to it cut the run-to-run spread of every workload
//! to a third (measured: 8–23 % → 3–8 % between medians of 12 trials).
//!
//! Every time-valued number the benchmark reports is therefore *at calm
//! machine speed*: a duration is multiplied by the speed factor of its
//! section, a rate divided by it. `bench.speed_x` reports the factor, so the
//! wall-clock value is one multiplication away; ratios, shares and counts are
//! untouched. On another machine the factor is off by a constant, which
//! cancels when two commits are compared on that machine.

use std::hint::black_box;
use std::time::Instant;

/// Duration of one reference run per thread on the defining sandbox (two
/// vCPUs of a 2.1 GHz Xeon) when nothing else disturbs it, seconds.
pub const CALM_S: f64 = 0.22;

const N: usize = 64;
const TABLE: usize = 1 << 20;

/// The fixed work of one thread: rounds of dense f32 arithmetic (the shape
/// of the model kernels), dependent loads over a 4 MiB table (hash-map probes
/// and schedule walks) and small allocations (schedule clones). It must never
/// change: every committed number is relative to it.
fn kernel(seed: u64) -> f64 {
    let mut x = seed | 1;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut a = [0f32; N * N];
    let mut b = [0f32; N * N];
    let mut c = [0f32; N * N];
    for v in a.iter_mut().chain(b.iter_mut()) {
        *v = (next() % 1000) as f32 / 1000.0;
    }
    let table: Vec<u32> = (0..TABLE as u32).map(|i| (next() as u32) ^ i).collect();
    let (mut at, mut acc, mut total) = (0usize, 0u64, 0usize);
    for round in 0..240usize {
        for _ in 0..60 {
            for i in 0..N {
                for k in 0..N {
                    let aik = a[i * N + k];
                    for j in 0..N {
                        c[i * N + j] += aik * b[k * N + j];
                    }
                }
            }
            black_box(&mut c);
        }
        for _ in 0..40_000 {
            at = (table[at] as usize) & (TABLE - 1);
            acc += at as u64;
        }
        for i in 0..4_000usize {
            let v: Vec<u8> = vec![(i + round) as u8; 24 + (i % 7) * 16];
            total += black_box(v).len();
        }
    }
    f64::from(c[17]) + acc as f64 + total as f64
}

/// Runs the kernel on `threads` threads at once and returns the machine's
/// speed factor: the mean over threads of calm duration over measured
/// duration — 1 at calm speed, below 1 when slower. Averaging speeds rather
/// than durations matches work that is shared dynamically between threads
/// (the engine's micro-batches, the server's queue): its rate follows the
/// sum of the cores' speeds even when one core is much slower than the other.
pub fn speed(threads: usize) -> f64 {
    let speeds: Vec<f64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                scope.spawn(move || {
                    let start = Instant::now();
                    black_box(kernel(0x9e37 + t as u64));
                    CALM_S / start.elapsed().as_secs_f64()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("reference thread panicked"))
            .collect()
    });
    speeds.iter().sum::<f64>() / speeds.len() as f64
}

/// Runs `section` between two reference runs and returns its result with the
/// section's speed factor, the mean of the two.
pub fn bracket<T>(threads: usize, section: impl FnOnce() -> T) -> (T, f64) {
    let before = speed(threads);
    let result = section();
    (result, (before + speed(threads)) / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic() {
        assert_eq!(kernel(7), kernel(7));
        assert_ne!(kernel(7), kernel(8));
    }
}
