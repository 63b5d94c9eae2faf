//! Sketch generation and random annotation, after Ansor.
//!
//! Ansor generates schedules hierarchically: a *sketch* (multi-level tiling
//! structure — "SSRSRS" on CPU, thread-bound tiles on GPU) plus random
//! *annotations* (tile sizes, parallel/vectorize/unroll choices).
//!
//! A [`SketchPolicy`] names the device class; [`SketchPolicy::compile`]
//! renders everything about one subgraph that no annotation changes — its
//! loops, which sketch it gets, every derived loop name — into a [`Sketch`].
//! The sketch samples, mutates and crosses [`ScheduleDecision`]s and writes
//! the primitive sequence of a decision over a sequence the caller already
//! holds ([`Sketch::emit_into`]), so a search that compiles once per task
//! formats no name per candidate and allocates only where the buffers it
//! writes over are too short; a fresh sequence gets each of its four
//! buffers sized once. The `SketchPolicy` methods that take a subgraph are
//! the one-shot spelling: compile, then one call.

use rand::rngs::SmallRng;
use rand::Rng;
use serde::{Deserialize, Serialize};
use tlp_schedule::{PrimitiveKind, ScheduleSequence, SequenceWriter};
use tlp_workload::{AnchorOp, Subgraph};

/// The tunable decisions of one schedule.
#[derive(Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct ScheduleDecision {
    /// Per spatial axis: the three inner tile extents `[f1, f2, f3]`
    /// (multi-level tiling, four loop levels total).
    pub spatial_factors: Vec<[i64; 3]>,
    /// Per reduction axis: the inner tile extent.
    pub reduction_factors: Vec<i64>,
    /// Whether the innermost spatial loop is vectorized (CPU).
    pub vectorize: bool,
    /// `auto_unroll_max_step` pragma value (0 = none); Ansor samples from
    /// {0, 16, 64, 512}.
    pub unroll_step: i64,
    /// Add a cache-write stage for the accumulator.
    pub cache_write: bool,
    /// Add a cache-read (shared-memory) stage — GPU sketches.
    pub cache_read: bool,
    /// Use rfactor on the reduction (profitable for small-spatial,
    /// large-reduction kernels).
    pub rfactor: bool,
}

impl Clone for ScheduleDecision {
    fn clone(&self) -> Self {
        ScheduleDecision {
            spatial_factors: self.spatial_factors.clone(),
            reduction_factors: self.reduction_factors.clone(),
            ..*self
        }
    }

    /// Copies into the factor vectors already held (the derive would
    /// allocate two new ones): a population slot takes a parent's decision
    /// this way.
    fn clone_from(&mut self, source: &Self) {
        let spatial_factors = std::mem::take(&mut self.spatial_factors);
        let reduction_factors = std::mem::take(&mut self.reduction_factors);
        *self = ScheduleDecision {
            spatial_factors,
            reduction_factors,
            ..*source
        };
        self.spatial_factors.clone_from(&source.spatial_factors);
        self.reduction_factors.clone_from(&source.reduction_factors);
    }
}

/// Ansor's candidate values for `auto_unroll_max_step`.
pub const UNROLL_STEPS: [i64; 4] = [0, 16, 64, 512];

/// Generates schedules for a device class.
#[derive(Clone, Copy, Debug)]
pub struct SketchPolicy {
    /// Whether to generate GPU (thread-bound) schedules.
    pub gpu: bool,
}

impl SketchPolicy {
    /// Policy for a CPU target.
    pub fn cpu() -> Self {
        SketchPolicy { gpu: false }
    }

    /// Policy for a GPU target.
    pub fn gpu() -> Self {
        SketchPolicy { gpu: true }
    }

    /// Whether the subgraph gets the full multi-level-tiling sketch
    /// (compute-heavy anchors) or the simple parallel/vectorize sketch.
    pub fn is_compute_heavy(subgraph: &Subgraph) -> bool {
        matches!(
            subgraph.anchor,
            AnchorOp::Dense { .. } | AnchorOp::BatchMatmul { .. } | AnchorOp::Conv2d { .. }
        )
    }

    /// Renders this policy's sketch of `subgraph`: everything candidate
    /// generation needs that is fixed for the task.
    pub fn compile(&self, subgraph: &Subgraph) -> Sketch {
        let spatial: Vec<SpatialAxis> = subgraph
            .spatial_loops()
            .into_iter()
            .map(|l| SpatialAxis {
                levels: std::array::from_fn(|level| format!("{}.{level}", l.name)),
                name: l.name,
                extent: l.extent,
            })
            .collect();
        let reduction: Vec<ReductionAxis> = subgraph
            .reduction_loops()
            .into_iter()
            .map(|l| ReductionAxis {
                outer: format!("{}.0", l.name),
                inner: format!("{}.1", l.name),
                name: l.name,
                extent: l.extent,
            })
            .collect();
        let heavy = Self::is_compute_heavy(subgraph);
        let mut sketch = Sketch {
            gpu: self.gpu,
            heavy,
            samples_rfactor: heavy && !reduction.is_empty() && subgraph.output_elems() < 4096.0,
            stage: subgraph.anchor.name(),
            inlined: subgraph.fused.iter().map(|f| f.stage_name()).collect(),
            fused: std::array::from_fn(|level| {
                let vars: Vec<&str> = spatial.iter().map(|l| l.levels[level].as_str()).collect();
                vars.join("@")
            }),
            spatial,
            reduction,
            largest: ScheduleSequence::new(),
        };
        sketch.largest = sketch.emit(&sketch.largest_decision());
        sketch
    }

    /// Samples a random schedule decision for `subgraph`.
    pub fn random_decision(&self, subgraph: &Subgraph, rng: &mut SmallRng) -> ScheduleDecision {
        self.compile(subgraph).random_decision(rng)
    }

    /// Mutates one decision in place (tile resample, annotation flip, …).
    pub fn mutate(&self, subgraph: &Subgraph, decision: &mut ScheduleDecision, rng: &mut SmallRng) {
        self.compile(subgraph).mutate(decision, rng);
    }

    /// One-point per-axis crossover of two parents.
    pub fn crossover(
        &self,
        a: &ScheduleDecision,
        b: &ScheduleDecision,
        rng: &mut SmallRng,
    ) -> ScheduleDecision {
        let mut child = a.clone();
        Sketch::crossover(&mut child, b, rng);
        child
    }

    /// Emits the schedule-primitive sequence for a decision — the concrete
    /// "sentence" the TLP cost model reads.
    pub fn emit(&self, subgraph: &Subgraph, d: &ScheduleDecision) -> ScheduleSequence {
        self.compile(subgraph).emit(d)
    }
}

/// A spatial loop with the names of its four tile levels, `"{name}.{level}"`.
#[derive(Clone, Debug)]
struct SpatialAxis {
    name: &'static str,
    extent: i64,
    levels: [String; 4],
}

/// A reduction loop with the names of its split halves, `"{name}.0"` /
/// `"{name}.1"`.
#[derive(Clone, Debug)]
struct ReductionAxis {
    name: &'static str,
    extent: i64,
    outer: String,
    inner: String,
}

/// One policy's sketch of one subgraph, compiled by
/// [`SketchPolicy::compile`]: the task-fixed half of candidate generation.
/// Every operator draws from the RNG in a fixed order, so a seeded search
/// reproduces its candidates.
#[derive(Clone, Debug)]
pub struct Sketch {
    gpu: bool,
    /// Multi-level tiling (compute-heavy anchor) or the light sketch.
    heavy: bool,
    /// Whether [`random_decision`](Self::random_decision) may pick rfactor:
    /// a heavy anchor with a reduction and fewer than 4096 outputs.
    samples_rfactor: bool,
    stage: &'static str,
    /// Stage names of the fused elementwise ops, inlined first.
    inlined: Vec<&'static str>,
    spatial: Vec<SpatialAxis>,
    reduction: Vec<ReductionAxis>,
    /// What fusing every spatial axis at tile level 0, 1, 2 is called:
    /// the level's names joined by `@`.
    fused: [String; 3],
    /// The sequence of [`largest_decision`](Self::largest_decision):
    /// emission reserves its buffer lengths up front.
    largest: ScheduleSequence,
}

impl Sketch {
    /// Samples a random schedule decision.
    pub fn random_decision(&self, rng: &mut SmallRng) -> ScheduleDecision {
        let spatial_factors = self
            .spatial
            .iter()
            .map(|l| self.sample_spatial_factors(l.extent, rng))
            .collect();
        let reduction_factors = self
            .reduction
            .iter()
            .map(|l| {
                if self.heavy {
                    sample_pow2(rng, l.extent.min(64))
                } else {
                    1
                }
            })
            .collect();
        ScheduleDecision {
            spatial_factors,
            reduction_factors,
            vectorize: !self.gpu && rng.gen_bool(0.85),
            unroll_step: UNROLL_STEPS[rng.gen_range(0..UNROLL_STEPS.len())],
            cache_write: self.heavy && rng.gen_bool(0.5),
            cache_read: self.gpu && self.heavy && rng.gen_bool(0.6),
            rfactor: self.samples_rfactor && rng.gen_bool(0.3),
        }
    }

    /// A decision that emits every optional primitive and splits every
    /// reduction axis: no decision emits more primitives, names, name bytes
    /// or ints than this one (a split reduction axis is named by its longer
    /// `.0` part in the reorder).
    fn largest_decision(&self) -> ScheduleDecision {
        ScheduleDecision {
            spatial_factors: vec![[1; 3]; self.spatial.len()],
            reduction_factors: vec![2; self.reduction.len()],
            vectorize: true,
            unroll_step: 1,
            cache_write: true,
            cache_read: true,
            rfactor: true,
        }
    }

    /// Samples a fresh random candidate.
    pub fn random_candidate(&self, rng: &mut SmallRng) -> Candidate {
        let decision = self.random_decision(rng);
        let sequence = self.emit(&decision);
        Candidate { decision, sequence }
    }

    fn sample_spatial_factors(&self, extent: i64, rng: &mut SmallRng) -> [i64; 3] {
        // On GPU f2 becomes part of threadIdx; bias it toward warp fractions.
        let (cap3, cap2) = if self.gpu { (8, 32) } else { (64, 8) };
        let f3 = sample_pow2(rng, extent.min(cap3));
        let f2 = sample_pow2(rng, (extent / f3).clamp(1, cap2));
        let f1 = sample_pow2(rng, (extent / (f3 * f2)).clamp(1, 4));
        [f1, f2, f3]
    }

    fn resample_spatial_axis(&self, decision: &mut ScheduleDecision, rng: &mut SmallRng) {
        let i = rng.gen_range(0..self.spatial.len());
        decision.spatial_factors[i] = self.sample_spatial_factors(self.spatial[i].extent, rng);
    }

    /// Mutates one decision in place (tile resample, annotation flip, …).
    pub fn mutate(&self, decision: &mut ScheduleDecision, rng: &mut SmallRng) {
        match rng.gen_range(0..5) {
            0 if !self.spatial.is_empty() => self.resample_spatial_axis(decision, rng),
            1 if !self.reduction.is_empty() => {
                let i = rng.gen_range(0..self.reduction.len());
                decision.reduction_factors[i] = sample_pow2(rng, self.reduction[i].extent.min(64));
            }
            2 => decision.unroll_step = UNROLL_STEPS[rng.gen_range(0..UNROLL_STEPS.len())],
            3 if self.heavy => {
                if self.gpu {
                    decision.cache_read = !decision.cache_read;
                } else {
                    decision.cache_write = !decision.cache_write;
                }
            }
            _ => {
                if !self.gpu {
                    decision.vectorize = !decision.vectorize;
                } else if !self.spatial.is_empty() {
                    // Re-roll one thread-tile factor.
                    self.resample_spatial_axis(decision, rng);
                }
            }
        }
    }

    /// One-point per-axis crossover: `child` holds one parent's decision and
    /// takes each gene of `other` with probability one half.
    pub fn crossover(child: &mut ScheduleDecision, other: &ScheduleDecision, rng: &mut SmallRng) {
        for (c, o) in child.spatial_factors.iter_mut().zip(&other.spatial_factors) {
            if rng.gen_bool(0.5) {
                *c = *o;
            }
        }
        for (c, o) in child
            .reduction_factors
            .iter_mut()
            .zip(&other.reduction_factors)
        {
            if rng.gen_bool(0.5) {
                *c = *o;
            }
        }
        if rng.gen_bool(0.5) {
            child.unroll_step = other.unroll_step;
        }
        if rng.gen_bool(0.5) {
            child.cache_write = other.cache_write;
            child.cache_read = other.cache_read;
        }
    }

    /// The schedule-primitive sequence of a decision, freshly built.
    pub fn emit(&self, d: &ScheduleDecision) -> ScheduleSequence {
        let mut sequence = ScheduleSequence::new();
        self.emit_into(d, &mut sequence);
        sequence
    }

    /// Writes the schedule-primitive sequence of a decision — the concrete
    /// "sentence" the TLP cost model reads — over `out`, whatever it held.
    pub fn emit_into(&self, d: &ScheduleDecision, out: &mut ScheduleSequence) {
        use PrimitiveKind::*;
        let stage = self.stage;
        out.reserve_like(&self.largest);
        let mut seq = out.rewrite();
        for inlined in &self.inlined {
            seq.primitive(ComputeInline, inlined);
        }
        if !self.heavy {
            return self.emit_light(d, &mut seq);
        }
        let reduction = || self.reduction.iter().zip(&d.reduction_factors);

        if d.cache_write && !self.gpu {
            seq.primitive(CacheWrite, stage);
        }
        if d.rfactor {
            if let Some(r) = self.reduction.first() {
                seq.primitive(Rfactor, stage).loop_var(r.name).ints([1]);
            }
        }

        // Multi-level tiling splits.
        for (l, f) in self.spatial.iter().zip(&d.spatial_factors) {
            // Ansor record convention: [extent, inner factors...] — the
            // extent puts the subgraph's computational parameters into the
            // schedule sequence itself (paper §4.3).
            seq.primitive(Split, stage)
                .loop_var(l.name)
                .ints([l.extent, f[0], f[1], f[2]]);
        }
        for (r, &f) in reduction() {
            if f > 1 {
                seq.primitive(Split, stage)
                    .loop_var(r.name)
                    .ints([r.extent, f]);
            }
        }

        // Canonical SSRSRS (CPU) / block-thread (GPU) loop order.
        {
            let mut reorder = seq.primitive(Reorder, stage);
            for level in 0..4 {
                if level == 2 {
                    for (r, &f) in reduction() {
                        reorder.loop_var(if f > 1 { &r.outer } else { r.name });
                    }
                }
                if level == 3 {
                    for (r, &f) in reduction() {
                        if f > 1 {
                            reorder.loop_var(&r.inner);
                        }
                    }
                }
                for l in &self.spatial {
                    reorder.loop_var(&l.levels[level]);
                }
            }
        }

        // Outer fusion + binding/parallel annotation.
        if self.gpu {
            for (level, binding) in ["blockIdx.x", "vthread", "threadIdx.x"]
                .into_iter()
                .enumerate()
            {
                self.fuse_level(&mut seq, level);
                seq.primitive(Annotation, stage)
                    .loop_var(&self.fused[level])
                    .extra(binding);
            }
            if d.cache_read {
                seq.primitive(CacheRead, stage);
                // The shared-memory stage follows the main stage's reduction split.
                if let Some((r, &f)) = reduction().next() {
                    if f > 1 {
                        seq.primitive(FollowSplit, "shared")
                            .loop_var(r.name)
                            .ints([r.extent, f]);
                    }
                    seq.primitive(ComputeAt, "shared").loop_var(&self.fused[2]);
                }
            }
        } else {
            self.fuse_level(&mut seq, 0);
            seq.primitive(Annotation, stage)
                .loop_var(&self.fused[0])
                .extra("parallel");
            if d.cache_write {
                // The cache stage is computed at the fused parallel loop and
                // follows the main stage's tiling.
                seq.primitive(ComputeAt, "cache").loop_var(&self.fused[0]);
                if let Some((l, f)) = self.spatial.iter().zip(&d.spatial_factors).next_back() {
                    seq.primitive(FollowSplit, "cache")
                        .loop_var(l.name)
                        .ints([l.extent, f[1] * f[2]]);
                }
            }
            if d.vectorize {
                if let Some(l) = self.spatial.last() {
                    seq.primitive(Annotation, stage)
                        .loop_var(&l.levels[3])
                        .extra("vectorize");
                }
            }
        }

        if d.unroll_step > 0 {
            seq.primitive(Pragma, stage)
                .ints([d.unroll_step])
                .extra("auto_unroll_max_step");
        }
    }

    /// Fuses every spatial axis at one tile level; the result is called
    /// `self.fused[level]`.
    fn fuse_level(&self, seq: &mut SequenceWriter<'_>, level: usize) {
        let mut fuse = seq.primitive(PrimitiveKind::Fuse, self.stage);
        for l in &self.spatial {
            fuse.loop_var(&l.levels[level]);
        }
    }

    /// Simple sketch for memory-bound anchors: split for parallelism (or
    /// thread binding) and vectorize.
    fn emit_light(&self, d: &ScheduleDecision, seq: &mut SequenceWriter<'_>) {
        use PrimitiveKind::*;
        let stage = self.stage;
        for (l, f) in self.spatial.iter().zip(&d.spatial_factors) {
            let inner = f[2].min(l.extent).max(1);
            seq.primitive(Split, stage)
                .loop_var(l.name)
                .ints([l.extent, inner]);
        }
        self.fuse_level(seq, 0);
        let (outer, inner) = if self.gpu {
            ("blockIdx.x", Some("threadIdx.x"))
        } else {
            ("parallel", d.vectorize.then_some("vectorize"))
        };
        seq.primitive(Annotation, stage)
            .loop_var(&self.fused[0])
            .extra(outer);
        if let (Some(inner), Some(l)) = (inner, self.spatial.last()) {
            seq.primitive(Annotation, stage)
                .loop_var(&l.levels[1])
                .extra(inner);
        }
        if d.rfactor {
            if let Some(r) = self.reduction.first() {
                seq.primitive(Rfactor, stage).loop_var(r.name).ints([1]);
            }
        }
    }
}

/// Samples a power of two in `[1, cap]`, biased toward mid-sized factors.
fn sample_pow2(rng: &mut SmallRng, cap: i64) -> i64 {
    let cap = cap.max(1);
    let max_exp = 63 - cap.leading_zeros() as i64;
    1 << rng.gen_range(0..=max_exp as u32)
}

/// A sampled candidate: the decision plus its emitted primitive sequence.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct Candidate {
    /// The tunable decision.
    pub decision: ScheduleDecision,
    /// The emitted schedule-primitive sequence (what cost models see).
    pub sequence: ScheduleSequence,
}

impl Candidate {
    /// Samples a fresh random candidate.
    pub fn random(policy: &SketchPolicy, subgraph: &Subgraph, rng: &mut SmallRng) -> Self {
        policy.compile(subgraph).random_candidate(rng)
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::disallowed_methods)]
    use super::*;
    use rand::SeedableRng;
    use tlp_hwsim::lower;
    use tlp_workload::FusedOp;

    fn conv_sg() -> Subgraph {
        Subgraph::new(
            "c",
            AnchorOp::Conv2d {
                n: 1,
                cin: 64,
                hw: 56,
                cout: 64,
                khw: 3,
                stride: 1,
                pad: 1,
                groups: 1,
            },
        )
        .with_fused([FusedOp::BiasAdd, FusedOp::Relu])
    }

    #[test]
    fn random_cpu_schedules_lower_cleanly() {
        let mut rng = SmallRng::seed_from_u64(1);
        let sg = conv_sg();
        let policy = SketchPolicy::cpu();
        for _ in 0..200 {
            let c = Candidate::random(&policy, &sg, &mut rng);
            let spec = lower(&sg, &c.sequence).expect("must lower");
            assert!(spec.parallel_extent >= 1);
        }
    }

    #[test]
    fn random_gpu_schedules_bind_threads() {
        let mut rng = SmallRng::seed_from_u64(2);
        let sg = conv_sg();
        let policy = SketchPolicy::gpu();
        for _ in 0..100 {
            let c = Candidate::random(&policy, &sg, &mut rng);
            let spec = lower(&sg, &c.sequence).expect("must lower");
            assert!(spec.block_threads >= 1, "threads bound");
            assert!(spec.grid_blocks >= 1, "blocks bound");
        }
    }

    #[test]
    fn light_sketch_for_softmax() {
        let mut rng = SmallRng::seed_from_u64(3);
        let sg = Subgraph::new(
            "s",
            AnchorOp::Softmax {
                rows: 512,
                cols: 128,
            },
        );
        let c = Candidate::random(&SketchPolicy::cpu(), &sg, &mut rng);
        // No multi-level tiling reorder in the light sketch.
        assert_eq!(c.sequence.count_kind(PrimitiveKind::Reorder), 0);
        lower(&sg, &c.sequence).expect("must lower");
    }

    #[test]
    fn mutation_changes_decision_but_stays_valid() {
        let mut rng = SmallRng::seed_from_u64(4);
        let sg = conv_sg();
        let policy = SketchPolicy::cpu();
        let mut c = Candidate::random(&policy, &sg, &mut rng);
        let mut changed = false;
        for _ in 0..50 {
            let before = c.decision.clone();
            policy.mutate(&sg, &mut c.decision, &mut rng);
            c.sequence = policy.emit(&sg, &c.decision);
            lower(&sg, &c.sequence).expect("mutated schedule must lower");
            changed |= before != c.decision;
        }
        assert!(changed);
    }

    #[test]
    fn crossover_mixes_parents() {
        let mut rng = SmallRng::seed_from_u64(5);
        let sg = conv_sg();
        let policy = SketchPolicy::cpu();
        let a = policy.random_decision(&sg, &mut rng);
        let b = policy.random_decision(&sg, &mut rng);
        let child = policy.crossover(&a, &b, &mut rng);
        assert_eq!(child.spatial_factors.len(), a.spatial_factors.len());
        let seq = policy.emit(&sg, &child);
        lower(&sg, &seq).expect("child must lower");
    }

    #[test]
    fn emitted_sequences_vary_in_length() {
        let mut rng = SmallRng::seed_from_u64(6);
        let sg = conv_sg();
        let policy = SketchPolicy::cpu();
        let lens: std::collections::HashSet<usize> = (0..100)
            .map(|_| Candidate::random(&policy, &sg, &mut rng).sequence.len())
            .collect();
        assert!(
            lens.len() >= 2,
            "sequence length should vary with decisions"
        );
    }

    #[test]
    fn inline_emitted_per_fused_stage() {
        let mut rng = SmallRng::seed_from_u64(7);
        let sg = conv_sg();
        let c = Candidate::random(&SketchPolicy::cpu(), &sg, &mut rng);
        assert_eq!(c.sequence.count_kind(PrimitiveKind::ComputeInline), 2);
    }
}
