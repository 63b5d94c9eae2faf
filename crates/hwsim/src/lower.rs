//! Lowering: schedule-primitive sequences → simulated tensor programs.
//!
//! This is the reproduction's stand-in for TVM's code generator. It
//! interprets a [`ScheduleSequence`] against a [`Subgraph`]'s loop nest and
//! produces a [`ProgramSpec`] — the structural facts about the generated
//! program (tiling, parallelization, vectorization, caching) that the
//! analytical hardware model consumes.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;
use tlp_schedule::{Primitive, PrimitiveKind, ScheduleSequence};
use tlp_workload::{LoopKind, Subgraph};

/// Per-original-axis tiling information after lowering.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct AxisTiles {
    /// Original axis name (e.g. `i`, `oc`).
    pub name: String,
    /// Spatial or reduction.
    pub kind: LoopKind,
    /// Original extent.
    pub extent: i64,
    /// Sub-loop extents outer→inner (length 1 if never split).
    pub tiles: Vec<i64>,
}

impl AxisTiles {
    /// The innermost tile extent (the full extent if the axis was never
    /// split; `tiles` always has at least one level by construction).
    pub fn inner(&self) -> i64 {
        self.tiles.last().copied().unwrap_or(self.extent)
    }

    /// Product of the innermost `levels` tile extents.
    pub fn inner_product(&self, levels: usize) -> i64 {
        self.tiles.iter().rev().take(levels).product()
    }
}

/// The structural summary of a lowered tensor program.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ProgramSpec {
    /// Tiling of every original axis.
    pub axes: Vec<AxisTiles>,
    /// Iteration count of the parallel-annotated (CPU) outer loop; 1 if the
    /// program was never parallelized.
    pub parallel_extent: i64,
    /// Extent of the vectorize-annotated loop (0 if none).
    pub vector_len: i64,
    /// Product of extents of unroll-annotated loops.
    pub unroll_product: i64,
    /// `auto_unroll_max_step` pragma value (0 if absent).
    pub unroll_step: i64,
    /// Whether a cache-write stage exists.
    pub cache_write: bool,
    /// Whether a cache-read (shared-memory) stage exists.
    pub cache_read: bool,
    /// GPU: total threads per block (product of `threadIdx.*` extents); 0 on CPU.
    pub block_threads: i64,
    /// GPU: total blocks (product of `blockIdx.*` extents); 0 on CPU.
    pub grid_blocks: i64,
    /// Number of compute-inlined elementwise stages.
    pub inlined_stages: usize,
    /// Whether the reduction was rfactored.
    pub rfactor: bool,
}

impl ProgramSpec {
    /// Tiles of the spatial axes only.
    pub fn spatial_axes(&self) -> impl Iterator<Item = &AxisTiles> {
        self.axes.iter().filter(|a| a.kind == LoopKind::Spatial)
    }

    /// Tiles of the reduction axes only.
    pub fn reduction_axes(&self) -> impl Iterator<Item = &AxisTiles> {
        self.axes.iter().filter(|a| a.kind == LoopKind::Reduction)
    }

    /// Register-tile size: product of innermost spatial tile extents.
    pub fn register_tile(&self) -> i64 {
        self.spatial_axes().map(AxisTiles::inner).product()
    }

    /// Product of the innermost reduction tile extents.
    pub fn reduction_inner(&self) -> i64 {
        self.reduction_axes().map(AxisTiles::inner).product()
    }

    /// Total reduction extent.
    pub fn reduction_total(&self) -> i64 {
        self.reduction_axes().map(|a| a.extent).product()
    }
}

/// Error produced when a schedule does not lower against a subgraph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LowerError {
    /// A primitive referenced a loop variable that does not exist.
    UnknownLoopVar(String),
    /// A split had no factors.
    EmptySplit(String),
    /// A non-positive split factor.
    BadFactor(String, i64),
}

impl fmt::Display for LowerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LowerError::UnknownLoopVar(v) => write!(f, "unknown loop variable `{v}`"),
            LowerError::EmptySplit(v) => write!(f, "split of `{v}` has no factors"),
            LowerError::BadFactor(v, n) => write!(f, "split of `{v}` has bad factor {n}"),
        }
    }
}

impl std::error::Error for LowerError {}

/// Lowers a schedule against a subgraph, producing the program structure.
///
/// # Errors
///
/// Returns [`LowerError`] if the schedule references unknown loop variables
/// or contains malformed splits. The search framework only generates valid
/// schedules, but mutated/deserialized sequences are validated here.
///
/// # Soundness contract with `tlp-verify`
///
/// The static analyzer in `tlp-verify` is sound with respect to this
/// function: every schedule this function rejects carries at least one
/// error-severity diagnostic, and a schedule the analyzer passes never
/// returns [`LowerError`]. Changing what this function rejects (new error
/// conditions, relaxed checks, different live-variable bookkeeping) requires
/// a matching analyzer change; the root-package `verify_soundness` property
/// test pins both directions of the contract.
pub fn lower(subgraph: &Subgraph, schedule: &ScheduleSequence) -> Result<ProgramSpec, LowerError> {
    let mut axes: Vec<AxisTiles> = subgraph
        .loops()
        .into_iter()
        .map(|l| AxisTiles {
            name: l.name.to_owned(),
            kind: l.kind,
            extent: l.extent,
            tiles: vec![l.extent],
        })
        .collect();

    // Live loop variables → (axis index, extent). Sub-loops of axis `i` are
    // named `i.0` (outer) … `i.k` (inner); fused vars join names with `@`.
    let mut live: HashMap<String, i64> = axes.iter().map(|a| (a.name.clone(), a.extent)).collect();

    let mut spec = ProgramSpec {
        axes: Vec::new(),
        parallel_extent: 1,
        vector_len: 0,
        unroll_product: 1,
        unroll_step: 0,
        cache_write: false,
        cache_read: false,
        block_threads: 0,
        grid_blocks: 0,
        inlined_stages: 0,
        rfactor: false,
    };

    let anchor_stage = subgraph.anchor.name();
    for p in schedule {
        match p.kind {
            PrimitiveKind::Split | PrimitiveKind::FollowSplit | PrimitiveKind::FollowFusedSplit => {
                if p.stage == anchor_stage {
                    apply_split(&mut axes, &mut live, p)?;
                } else {
                    // Cache/shared stages mirror the anchor's tiling; their
                    // splits don't change the anchor loop structure, but the
                    // factors are still validated.
                    for &f in p.ints {
                        if f <= 0 {
                            return Err(LowerError::BadFactor(
                                p.loop_vars.first().unwrap_or_default().to_owned(),
                                f,
                            ));
                        }
                    }
                }
            }
            PrimitiveKind::Fuse => {
                let mut product: i64 = 1;
                for v in &p.loop_vars {
                    let e = *live
                        .get(v)
                        .ok_or_else(|| LowerError::UnknownLoopVar(v.to_owned()))?;
                    product = product.saturating_mul(e);
                }
                let fused_name = p.loop_vars.iter().collect::<Vec<_>>().join("@");
                live.insert(fused_name, product);
            }
            PrimitiveKind::Annotation => {
                let var = p
                    .loop_vars
                    .first()
                    .ok_or_else(|| LowerError::UnknownLoopVar("<missing>".into()))?;
                let extent = *live
                    .get(var)
                    .ok_or_else(|| LowerError::UnknownLoopVar(var.to_owned()))?;
                for ann in p.extras {
                    match ann {
                        "parallel" => spec.parallel_extent = spec.parallel_extent.max(extent),
                        "vectorize" => spec.vector_len = extent,
                        "unroll" => {
                            spec.unroll_product = spec.unroll_product.saturating_mul(extent)
                        }
                        "blockIdx.x" | "blockIdx.y" => {
                            spec.grid_blocks = spec.grid_blocks.max(1).saturating_mul(extent)
                        }
                        "threadIdx.x" | "threadIdx.y" => {
                            spec.block_threads = spec.block_threads.max(1).saturating_mul(extent)
                        }
                        "vthread" => {}
                        _ => {}
                    }
                }
            }
            PrimitiveKind::Pragma => {
                if p.extras.iter().any(|e| e == "auto_unroll_max_step") {
                    spec.unroll_step = p.ints.first().copied().unwrap_or(0);
                }
            }
            PrimitiveKind::CacheWrite => spec.cache_write = true,
            PrimitiveKind::CacheRead => spec.cache_read = true,
            PrimitiveKind::ComputeInline => spec.inlined_stages += 1,
            PrimitiveKind::Rfactor => spec.rfactor = true,
            // Reorder only permutes loops; the generator emits the canonical
            // multi-level-tiling order, which the analytical model assumes.
            // Compute-at/compute-root placement is reflected through the
            // cache-stage flags above.
            PrimitiveKind::Reorder
            | PrimitiveKind::ComputeAt
            | PrimitiveKind::ComputeRoot
            | PrimitiveKind::StorageAlign => {}
        }
    }

    spec.axes = axes;
    Ok(spec)
}

fn apply_split(
    axes: &mut [AxisTiles],
    live: &mut HashMap<String, i64>,
    p: Primitive<'_>,
) -> Result<(), LowerError> {
    let var = p
        .loop_vars
        .first()
        .ok_or_else(|| LowerError::UnknownLoopVar("<missing>".into()))?;
    // Ansor's record convention: ints[0] is the loop extent, ints[1..] are
    // the inner tile lengths. The extent makes the schedule sequence carry
    // the subgraph's computational parameters (paper §4.3).
    if p.ints.len() < 2 {
        return Err(LowerError::EmptySplit(var.to_owned()));
    }
    let factors = &p.ints[1..];
    for &f in p.ints.iter() {
        if f <= 0 {
            return Err(LowerError::BadFactor(var.to_owned(), f));
        }
    }
    // Splits target original axes (the sketch splits each axis once).
    let axis = axes
        .iter_mut()
        .find(|a| a.name == var)
        .ok_or_else(|| LowerError::UnknownLoopVar(var.to_owned()))?;
    let inner_product: i64 = factors.iter().product();
    let outer = (axis.extent + inner_product - 1) / inner_product;
    let mut tiles = Vec::with_capacity(factors.len() + 1);
    tiles.push(outer.max(1));
    tiles.extend(factors.iter().copied());
    axis.tiles = tiles;
    live.remove(var);
    for (i, &t) in axis.tiles.iter().enumerate() {
        live.insert(format!("{var}.{i}"), t);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    #![allow(clippy::disallowed_methods)]
    use super::*;
    use tlp_schedule::ConcretePrimitive;
    use tlp_workload::AnchorOp;

    fn dense() -> Subgraph {
        Subgraph::new(
            "d",
            AnchorOp::Dense {
                m: 64,
                n: 128,
                k: 256,
            },
        )
    }

    fn seq(prims: Vec<ConcretePrimitive>) -> ScheduleSequence {
        prims.into_iter().collect()
    }

    #[test]
    fn split_creates_tile_levels() {
        let s = seq(vec![ConcretePrimitive::new(PrimitiveKind::Split, "dense")
            .with_loops(["i"])
            .with_ints([64, 4, 8])]);
        let spec = lower(&dense(), &s).unwrap();
        let i = &spec.axes[0];
        assert_eq!(i.tiles, vec![2, 4, 8]); // 64 / (4*8) = 2
        assert_eq!(i.inner(), 8);
        assert_eq!(i.inner_product(2), 32);
    }

    #[test]
    fn fuse_and_parallel_annotation() {
        let s = seq(vec![
            ConcretePrimitive::new(PrimitiveKind::Split, "dense")
                .with_loops(["i"])
                .with_ints([64, 4, 4]),
            ConcretePrimitive::new(PrimitiveKind::Split, "dense")
                .with_loops(["j"])
                .with_ints([128, 4, 8]),
            ConcretePrimitive::new(PrimitiveKind::Fuse, "dense").with_loops(["i.0", "j.0"]),
            ConcretePrimitive::new(PrimitiveKind::Annotation, "dense")
                .with_loops(["i.0@j.0"])
                .with_extras(["parallel"]),
            ConcretePrimitive::new(PrimitiveKind::Annotation, "dense")
                .with_loops(["j.2"])
                .with_extras(["vectorize"]),
        ]);
        let spec = lower(&dense(), &s).unwrap();
        assert_eq!(spec.parallel_extent, 4 * 4); // i.0 = 64/16, j.0 = 128/32
        assert_eq!(spec.vector_len, 8);
        assert_eq!(spec.register_tile(), 4 * 8);
    }

    #[test]
    fn pragma_and_cache_flags() {
        let s = seq(vec![
            ConcretePrimitive::new(PrimitiveKind::Pragma, "dense")
                .with_ints([512])
                .with_extras(["auto_unroll_max_step"]),
            ConcretePrimitive::new(PrimitiveKind::CacheWrite, "dense"),
            ConcretePrimitive::new(PrimitiveKind::ComputeInline, "relu"),
        ]);
        let spec = lower(&dense(), &s).unwrap();
        assert_eq!(spec.unroll_step, 512);
        assert!(spec.cache_write);
        assert_eq!(spec.inlined_stages, 1);
    }

    #[test]
    fn gpu_bindings() {
        let s = seq(vec![
            ConcretePrimitive::new(PrimitiveKind::Split, "dense")
                .with_loops(["i"])
                .with_ints([64, 16]),
            ConcretePrimitive::new(PrimitiveKind::Annotation, "dense")
                .with_loops(["i.0"])
                .with_extras(["blockIdx.x"]),
            ConcretePrimitive::new(PrimitiveKind::Annotation, "dense")
                .with_loops(["i.1"])
                .with_extras(["threadIdx.x"]),
        ]);
        let spec = lower(&dense(), &s).unwrap();
        assert_eq!(spec.grid_blocks, 4);
        assert_eq!(spec.block_threads, 16);
    }

    #[test]
    fn unknown_var_is_an_error() {
        let s = seq(vec![ConcretePrimitive::new(
            PrimitiveKind::Annotation,
            "dense",
        )
        .with_loops(["zz"])
        .with_extras(["parallel"])]);
        assert!(matches!(
            lower(&dense(), &s),
            Err(LowerError::UnknownLoopVar(_))
        ));
    }

    #[test]
    fn bad_split_factor_is_an_error() {
        let s = seq(vec![ConcretePrimitive::new(PrimitiveKind::Split, "dense")
            .with_loops(["i"])
            .with_ints([64, 0])]);
        assert!(matches!(
            lower(&dense(), &s),
            Err(LowerError::BadFactor(_, 0))
        ));
    }

    #[test]
    fn reduction_helpers() {
        let s = seq(vec![ConcretePrimitive::new(PrimitiveKind::Split, "dense")
            .with_loops(["k"])
            .with_ints([256, 16])]);
        let spec = lower(&dense(), &s).unwrap();
        assert_eq!(spec.reduction_inner(), 16);
        assert_eq!(spec.reduction_total(), 256);
    }
}
