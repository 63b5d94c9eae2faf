//! The analytical hardware latency model.
//!
//! Substitutes for measuring tensor programs on real hardware. Given a
//! [`Platform`], a [`Subgraph`], and a lowered [`ProgramSpec`], it predicts a
//! latency from first-order architectural effects:
//!
//! - roofline: `max(compute time, memory time)`;
//! - SIMD utilization from the vectorized loop length vs. the platform's lanes;
//! - multicore speedup with load imbalance and spawn overhead;
//! - register-tile quality (accumulator blocking vs. spills);
//! - cache blocking: L1/L2 working sets from the tile pyramid drive the
//!   effective DRAM traffic;
//! - GPU occupancy: threads-per-block shape, wave quantization, shared memory;
//! - per-platform idiosyncrasies (preferred unroll factors and tile parities)
//!   seeded by `quirk_seed` — the irreducible hardware domain gap;
//! - small deterministic measurement noise keyed by the schedule fingerprint.
//!
//! The absolute numbers are synthetic; what matters for the reproduction is
//! that latency is a *learnable, schedule-sensitive, platform-dependent*
//! function with realistic structure.

use crate::lower::ProgramSpec;
use crate::platform::{DeviceKind, Platform};
use tlp_schedule::hash::splitmix64;
use tlp_workload::{AnchorOp, Subgraph};

/// Deterministic tensor-program latency simulator.
///
/// Stateless; all methods take the full context. Construct once and share.
#[derive(Clone, Copy, Debug, Default)]
pub struct Simulator {
    /// Multiplicative measurement-noise amplitude (default 0.02).
    pub noise: f64,
}

impl Simulator {
    /// Creates a simulator with default noise.
    pub fn new() -> Self {
        Simulator { noise: 0.02 }
    }

    /// Predicted latency, in seconds, of running the lowered program once.
    ///
    /// `fingerprint` should be the schedule-sequence fingerprint; it seeds
    /// the deterministic measurement noise so repeated "measurements" of the
    /// same program agree.
    pub fn latency(
        &self,
        platform: &Platform,
        subgraph: &Subgraph,
        spec: &ProgramSpec,
        fingerprint: u64,
    ) -> f64 {
        let base = match platform.device {
            DeviceKind::Cpu => self.cpu_latency(platform, subgraph, spec),
            DeviceKind::Gpu => self.gpu_latency(platform, subgraph, spec),
        };
        let noise = deterministic_noise(fingerprint ^ platform.quirk_seed, self.noise);
        base * noise
    }

    fn cpu_latency(&self, p: &Platform, sg: &Subgraph, spec: &ProgramSpec) -> f64 {
        let flops = sg.flops();
        let peak = p.peak_gflops() * 1e9;
        let lanes = p.vector_lanes as f64;

        // --- SIMD efficiency -------------------------------------------------
        let eff_v = if spec.vector_len <= 0 {
            // Scalar code still dual-issues a little.
            (1.5 / lanes).min(1.0)
        } else {
            let vl = spec.vector_len as f64;
            let util = if vl >= lanes {
                if spec.vector_len % p.vector_lanes as i64 == 0 {
                    1.0
                } else {
                    0.7
                }
            } else {
                vl / lanes
            };
            0.95 * util
        };

        // --- Parallel efficiency ---------------------------------------------
        let cores = p.cores as f64;
        let par = spec.parallel_extent.max(1) as f64;
        let eff_p = if par <= 1.0 {
            1.0 / cores
        } else {
            let chunks = (par / cores).ceil();
            let used = par.min(cores) / cores;
            let balance = par / (chunks * cores);
            used * balance.clamp(0.5, 1.0)
        };

        // --- Register-tile quality -------------------------------------------
        let reg = spec.register_tile().max(1) as f64;
        let ideal_reg = lanes * 6.0;
        let eff_r = (1.0 / (1.0 + 0.22 * (reg / ideal_reg).log2().abs())).clamp(0.35, 1.0)
            * if reg > lanes * 24.0 { 0.6 } else { 1.0 }; // register spill

        // --- Unroll pragma (platform-specific preference) ---------------------
        let eff_u = unroll_efficiency(p.quirk_seed, spec.unroll_step);

        // --- Tile-parity quirk -------------------------------------------------
        let eff_q = tile_parity_quirk(p.quirk_seed, spec);

        // --- Cache model -------------------------------------------------------
        let (mi, mj, l1_i, l1_j) = blocking_tiles(spec);
        let ri = spec.reduction_inner().max(1) as f64;
        let k_total = spec.reduction_total().max(1) as f64;
        let ws1 = 4.0 * (l1_i * ri + ri * l1_j + l1_i * l1_j);
        let ws2 = 4.0 * (mi * k_total + k_total * mj + mi * mj);
        let l1 = p.l1_kb * 1024.0;
        let l2 = p.l2_kb * 1024.0;
        let compute_penalty = if ws1 > l1 {
            1.0 + 0.35 * (ws1 / l1).ln().min(3.0)
        } else {
            1.0
        };

        // Effective blocking factor bounds DRAM traffic: classic matmul
        // blocking moves `2·flops/(2·B)` operand bytes for block size B.
        let mut beff = mi.min(mj).max(1.0);
        if ws2 > l2 {
            beff *= (l2 / ws2).sqrt();
        }
        let is_compute_op = matches!(
            sg.anchor,
            AnchorOp::Dense { .. } | AnchorOp::BatchMatmul { .. } | AnchorOp::Conv2d { .. }
        );
        let naive_bytes = sg.bytes_read() + sg.bytes_written();
        let mut traffic = if is_compute_op {
            (4.0 * flops / (2.0 * beff.max(1.0))).max(naive_bytes)
        } else {
            naive_bytes
        };
        // A cache-write stage keeps partial sums out of DRAM when the
        // reduction is split across outer loops.
        let k_outer = k_total / ri;
        if !spec.cache_write && k_outer > 1.0 && is_compute_op {
            traffic += sg.bytes_written() * (k_outer - 1.0).min(8.0);
        }

        // Memory bandwidth scales sub-linearly with active cores.
        let bw = p.dram_gbps * 1e9 * (0.35 + 0.65 * (par.min(cores) / cores));

        let t_compute = flops / (peak * eff_v * eff_p * eff_r * eff_u * eff_q) * compute_penalty;
        let t_mem = traffic / bw;
        let chunks = (par / cores).ceil().max(1.0);
        let overhead = p.launch_overhead_us * 1e-6 * (1.0 + 0.02 * chunks);

        t_compute.max(t_mem) + overhead
    }

    fn gpu_latency(&self, p: &Platform, sg: &Subgraph, spec: &ProgramSpec) -> f64 {
        let flops = sg.flops();
        let peak = p.peak_gflops() * 1e9;
        let sms = p.cores as f64;

        let threads = spec.block_threads.max(0) as f64;
        if threads < 1.0 {
            // Never bound to threads: effectively serial on one CUDA core.
            return flops / (p.freq_ghz * 1e9 * 2.0) + p.launch_overhead_us * 1e-6;
        }
        let warp_eff = if spec.block_threads % 32 == 0 {
            1.0
        } else {
            0.7
        };
        // Sweet spot around 128–256 threads/block.
        let eff_t = (1.0 / (1.0 + 0.3 * (threads / 192.0).log2().abs())).clamp(0.3, 1.0);

        let blocks = spec.grid_blocks.max(1) as f64;
        let waves = (blocks / sms).ceil();
        let occupancy = (blocks / (2.0 * sms)).min(1.0) * (blocks / (waves * sms)).clamp(0.5, 1.0);

        // Shared-memory blocking via cache_read.
        let shared = p.l1_kb * 1024.0;
        let beff = if spec.cache_read {
            (shared / 12.0).sqrt()
        } else {
            (threads).sqrt().max(8.0)
        };
        let is_compute_op = matches!(
            sg.anchor,
            AnchorOp::Dense { .. } | AnchorOp::BatchMatmul { .. } | AnchorOp::Conv2d { .. }
        );
        let naive_bytes = sg.bytes_read() + sg.bytes_written();
        let traffic = if is_compute_op {
            (4.0 * flops / (2.0 * beff)).max(naive_bytes)
        } else {
            naive_bytes
        };

        let eff_u = unroll_efficiency(p.quirk_seed, spec.unroll_step);
        let t_compute = flops / (peak * warp_eff * eff_t * occupancy.max(0.02) * eff_u);
        let t_mem = traffic / (p.dram_gbps * 1e9 * occupancy.max(0.1).sqrt());
        t_compute.max(t_mem) + p.launch_overhead_us * 1e-6
    }
}

/// Platform-preferred `auto_unroll_max_step` (one of Ansor's {0, 16, 64, 512}).
pub fn preferred_unroll(quirk_seed: u64) -> i64 {
    [16, 64, 512][(splitmix64(quirk_seed) % 3) as usize]
}

fn unroll_efficiency(quirk_seed: u64, step: i64) -> f64 {
    let pref = preferred_unroll(quirk_seed);
    if step == pref {
        1.0
    } else if step == 0 {
        0.86
    } else {
        let dist = ((step.max(1) as f64).log2() - (pref as f64).log2()).abs();
        (1.0 - 0.035 * dist).clamp(0.85, 1.0)
    }
}

/// Small multiplicative preference for particular inner-tile parities,
/// distinct per platform — part of the hardware domain gap.
fn tile_parity_quirk(quirk_seed: u64, spec: &ProgramSpec) -> f64 {
    let pref = 1 << (splitmix64(quirk_seed.rotate_left(17)) % 3 + 2); // 4, 8 or 16
    let mut matches = 0usize;
    let mut total = 0usize;
    for a in spec.spatial_axes() {
        total += 1;
        if a.inner() % pref == 0 {
            matches += 1;
        }
    }
    if total == 0 {
        1.0
    } else {
        0.94 + 0.06 * matches as f64 / total as f64
    }
}

/// The two innermost-level blocking tiles of the two largest spatial axes:
/// `(l2_tile_a, l2_tile_b, l1_tile_a, l1_tile_b)`.
fn blocking_tiles(spec: &ProgramSpec) -> (f64, f64, f64, f64) {
    let mut axes: Vec<_> = spec.spatial_axes().collect();
    axes.sort_by_key(|a| std::cmp::Reverse(a.extent));
    let pick = |i: usize, levels: usize| -> f64 {
        axes.get(i)
            .map(|a| a.inner_product(levels) as f64)
            .unwrap_or(1.0)
    };
    (pick(0, 3), pick(1, 3), pick(0, 2), pick(1, 2))
}

/// Deterministic log-normal-ish noise factor with amplitude `sigma`.
fn deterministic_noise(seed: u64, sigma: f64) -> f64 {
    let u1 = (splitmix64(seed) >> 11) as f64 / (1u64 << 53) as f64;
    let u2 = (splitmix64(seed ^ 0xABCDEF) >> 11) as f64 / (1u64 << 53) as f64;
    let z = (-2.0 * (u1.max(1e-12)).ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    (1.0 + sigma * z).clamp(0.85, 1.15)
}

#[cfg(test)]
mod tests {
    #![allow(clippy::disallowed_methods)]
    use super::*;
    use crate::lower::lower;
    use tlp_schedule::{ConcretePrimitive, PrimitiveKind, ScheduleSequence};

    fn dense_sg() -> Subgraph {
        Subgraph::new(
            "d",
            AnchorOp::Dense {
                m: 512,
                n: 512,
                k: 512,
            },
        )
    }

    /// A reasonable CPU schedule for the dense subgraph.
    fn good_schedule() -> ScheduleSequence {
        vec![
            ConcretePrimitive::new(PrimitiveKind::Split, "dense")
                .with_loops(["i"])
                .with_ints([512, 4, 2, 8]),
            ConcretePrimitive::new(PrimitiveKind::Split, "dense")
                .with_loops(["j"])
                .with_ints([512, 4, 2, 16]),
            ConcretePrimitive::new(PrimitiveKind::Split, "dense")
                .with_loops(["k"])
                .with_ints([512, 16]),
            ConcretePrimitive::new(PrimitiveKind::Fuse, "dense").with_loops(["i.0", "j.0"]),
            ConcretePrimitive::new(PrimitiveKind::Annotation, "dense")
                .with_loops(["i.0@j.0"])
                .with_extras(["parallel"]),
            ConcretePrimitive::new(PrimitiveKind::Annotation, "dense")
                .with_loops(["j.3"])
                .with_extras(["vectorize"]),
            ConcretePrimitive::new(PrimitiveKind::CacheWrite, "dense"),
            ConcretePrimitive::new(PrimitiveKind::Pragma, "dense")
                .with_ints([64])
                .with_extras(["auto_unroll_max_step"]),
        ]
        .into_iter()
        .collect()
    }

    fn lat(p: &Platform, seq: &ScheduleSequence) -> f64 {
        let sg = dense_sg();
        let spec = lower(&sg, seq).unwrap();
        Simulator::new().latency(p, &sg, &spec, seq.fingerprint())
    }

    #[test]
    fn deterministic() {
        let p = Platform::i7_10510u();
        let s = good_schedule();
        assert_eq!(lat(&p, &s), lat(&p, &s));
    }

    #[test]
    fn vectorization_helps() {
        let p = Platform::i7_10510u();
        let good = good_schedule();
        let unvectorized: ScheduleSequence = good
            .iter()
            .filter(|pr| !pr.extras.iter().any(|e| e == "vectorize"))
            .map(|pr| pr.to_concrete())
            .collect();
        assert!(lat(&p, &good) * 2.0 < lat(&p, &unvectorized));
    }

    #[test]
    fn parallelism_helps() {
        let p = Platform::platinum_8272();
        let good = good_schedule();
        let serial: ScheduleSequence = good
            .iter()
            .filter(|pr| !pr.extras.iter().any(|e| e == "parallel"))
            .map(|pr| pr.to_concrete())
            .collect();
        assert!(lat(&p, &good) * 4.0 < lat(&p, &serial));
    }

    #[test]
    fn faster_hardware_is_faster() {
        let s = good_schedule();
        assert!(lat(&Platform::platinum_8272(), &s) < lat(&Platform::i7_10510u(), &s));
    }

    #[test]
    fn oversized_tiles_thrash_cache() {
        let p = Platform::i7_10510u();
        let mut huge = good_schedule();
        let prims: Vec<_> = huge
            .iter()
            .map(|pr| {
                let mut pr = pr.to_concrete();
                if pr.kind == PrimitiveKind::Split && pr.loop_vars[0] == "k" {
                    pr.ints = vec![512, 512];
                }
                if pr.kind == PrimitiveKind::Split && pr.loop_vars[0] == "i" {
                    pr.ints = vec![512, 1, 1, 256];
                }
                pr
            })
            .collect();
        huge = prims.into_iter().collect();
        assert!(lat(&p, &good_schedule()) < lat(&p, &huge));
    }

    #[test]
    fn gpu_binding_required_for_performance() {
        let p = Platform::tesla_t4();
        let sg = dense_sg();
        let bound: ScheduleSequence = vec![
            ConcretePrimitive::new(PrimitiveKind::Split, "dense")
                .with_loops(["i"])
                .with_ints([512, 8]),
            ConcretePrimitive::new(PrimitiveKind::Split, "dense")
                .with_loops(["j"])
                .with_ints([512, 32]),
            ConcretePrimitive::new(PrimitiveKind::Fuse, "dense").with_loops(["i.0", "j.0"]),
            ConcretePrimitive::new(PrimitiveKind::Annotation, "dense")
                .with_loops(["i.0@j.0"])
                .with_extras(["blockIdx.x"]),
            ConcretePrimitive::new(PrimitiveKind::Fuse, "dense").with_loops(["i.1", "j.1"]),
            ConcretePrimitive::new(PrimitiveKind::Annotation, "dense")
                .with_loops(["i.1@j.1"])
                .with_extras(["threadIdx.x"]),
            ConcretePrimitive::new(PrimitiveKind::CacheRead, "dense"),
        ]
        .into_iter()
        .collect();
        let unbound = ScheduleSequence::new();
        let spec_b = lower(&sg, &bound).unwrap();
        let spec_u = lower(&sg, &unbound).unwrap();
        let sim = Simulator::new();
        let lb = sim.latency(&p, &sg, &spec_b, bound.fingerprint());
        let lu = sim.latency(&p, &sg, &spec_u, unbound.fingerprint());
        assert!(lb * 10.0 < lu, "bound {lb} vs unbound {lu}");
    }

    #[test]
    fn platforms_prefer_different_unrolls() {
        // At least two of the CPU platforms must disagree on the preferred
        // unroll step — this is a deliberate domain gap.
        let prefs: Vec<i64> = Platform::all_cpus()
            .iter()
            .map(|p| preferred_unroll(p.quirk_seed))
            .collect();
        assert!(prefs.iter().any(|&x| x != prefs[0]), "prefs {prefs:?}");
    }

    #[test]
    fn noise_is_small_and_centered() {
        let mut acc = 0.0;
        for i in 0..1000u64 {
            let f = deterministic_noise(i, 0.02);
            assert!((0.85..=1.15).contains(&f));
            acc += f;
        }
        let mean = acc / 1000.0;
        assert!((mean - 1.0).abs() < 0.01, "mean {mean}");
    }
}
