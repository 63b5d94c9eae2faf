//! Anchor operators — the compute-intensive cores of computational subgraphs.
//!
//! A deep-learning compiler partitions a workload graph into subgraphs, each
//! dominated by one *anchor* operator (a matmul or convolution variant) plus
//! fused elementwise epilogues. The anchor determines the loop nest the
//! auto-scheduler tiles and annotates.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Whether a loop iterates over output space or a reduction domain.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LoopKind {
    /// Output-space (parallelizable) loop.
    Spatial,
    /// Reduction loop.
    Reduction,
}

/// One loop of an anchor operator's nest.
#[derive(Clone, Debug, PartialEq, Eq, Hash, Serialize)]
pub struct LoopSpec {
    /// Loop variable name (e.g. `i`, `oc`, `k`).
    pub name: &'static str,
    /// Trip count.
    pub extent: i64,
    /// Spatial or reduction.
    pub kind: LoopKind,
}

impl LoopSpec {
    /// Creates a spatial loop.
    pub fn spatial(name: &'static str, extent: i64) -> Self {
        LoopSpec {
            name,
            extent,
            kind: LoopKind::Spatial,
        }
    }

    /// Creates a reduction loop.
    pub fn reduction(name: &'static str, extent: i64) -> Self {
        LoopSpec {
            name,
            extent,
            kind: LoopKind::Reduction,
        }
    }
}

/// The anchor operator of a subgraph.
#[derive(Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AnchorOp {
    /// Dense (fully connected): `out[m,n] = Σ_k a[m,k]·b[k,n]`.
    Dense {
        /// Output rows (batch × sequence for transformers).
        m: i64,
        /// Output columns.
        n: i64,
        /// Reduction width.
        k: i64,
    },
    /// Batched matrix multiply `[b,m,k]×[b,k,n]`.
    BatchMatmul {
        /// Batch (e.g. batch × heads).
        b: i64,
        /// Rows.
        m: i64,
        /// Columns.
        n: i64,
        /// Reduction width.
        k: i64,
    },
    /// 2-D convolution (optionally grouped).
    Conv2d {
        /// Batch size.
        n: i64,
        /// Input channels.
        cin: i64,
        /// Input height/width (square).
        hw: i64,
        /// Output channels.
        cout: i64,
        /// Kernel size (square).
        khw: i64,
        /// Stride.
        stride: i64,
        /// Padding.
        pad: i64,
        /// Groups (1 = dense conv, `cin` = depthwise).
        groups: i64,
    },
    /// Max/average pooling.
    Pool {
        /// Batch size.
        n: i64,
        /// Channels.
        c: i64,
        /// Input height/width.
        hw: i64,
        /// Window size.
        khw: i64,
        /// Stride.
        stride: i64,
    },
    /// Row-wise softmax over `[rows, cols]`.
    Softmax {
        /// Number of independent rows.
        rows: i64,
        /// Normalized width.
        cols: i64,
    },
    /// Layer normalization over `[rows, cols]`.
    LayerNorm {
        /// Number of independent rows.
        rows: i64,
        /// Normalized width.
        cols: i64,
    },
}

impl AnchorOp {
    /// Short operator class name.
    pub fn name(&self) -> &'static str {
        match self {
            AnchorOp::Dense { .. } => "dense",
            AnchorOp::BatchMatmul { .. } => "batch_matmul",
            AnchorOp::Conv2d { groups, cin, .. } if *groups == *cin => "depthwise_conv2d",
            AnchorOp::Conv2d { groups, .. } if *groups > 1 => "group_conv2d",
            AnchorOp::Conv2d { .. } => "conv2d",
            AnchorOp::Pool { .. } => "pool",
            AnchorOp::Softmax { .. } => "softmax",
            AnchorOp::LayerNorm { .. } => "layer_norm",
        }
    }

    /// Output spatial size of a convolution/pool (`(hw + 2p - k)/s + 1`).
    fn out_hw(hw: i64, khw: i64, stride: i64, pad: i64) -> i64 {
        (hw + 2 * pad - khw) / stride + 1
    }

    /// The canonical loop nest: spatial loops first, then reductions.
    pub fn loops(&self) -> Vec<LoopSpec> {
        match *self {
            AnchorOp::Dense { m, n, k } => vec![
                LoopSpec::spatial("i", m),
                LoopSpec::spatial("j", n),
                LoopSpec::reduction("k", k),
            ],
            AnchorOp::BatchMatmul { b, m, n, k } => vec![
                LoopSpec::spatial("b", b),
                LoopSpec::spatial("i", m),
                LoopSpec::spatial("j", n),
                LoopSpec::reduction("k", k),
            ],
            AnchorOp::Conv2d {
                n,
                cin,
                hw,
                cout,
                khw,
                stride,
                pad,
                groups,
            } => {
                let ohw = Self::out_hw(hw, khw, stride, pad);
                let rc = cin / groups;
                // Sized once: a verifier is built per serving request.
                let mut loops = Vec::with_capacity(7);
                loops.extend([
                    LoopSpec::spatial("n", n),
                    LoopSpec::spatial("oc", cout),
                    LoopSpec::spatial("oh", ohw),
                    LoopSpec::spatial("ow", ohw),
                ]);
                if rc > 1 {
                    loops.push(LoopSpec::reduction("ic", rc));
                }
                loops.extend([
                    LoopSpec::reduction("kh", khw),
                    LoopSpec::reduction("kw", khw),
                ]);
                loops
            }
            AnchorOp::Pool {
                n,
                c,
                hw,
                khw,
                stride,
            } => {
                let ohw = Self::out_hw(hw, khw, stride, 0);
                vec![
                    LoopSpec::spatial("n", n),
                    LoopSpec::spatial("c", c),
                    LoopSpec::spatial("oh", ohw),
                    LoopSpec::spatial("ow", ohw),
                    LoopSpec::reduction("kh", khw),
                    LoopSpec::reduction("kw", khw),
                ]
            }
            AnchorOp::Softmax { rows, cols } | AnchorOp::LayerNorm { rows, cols } => {
                vec![LoopSpec::spatial("r", rows), LoopSpec::reduction("c", cols)]
            }
        }
    }

    /// Floating-point operations of one evaluation.
    pub fn flops(&self) -> f64 {
        match *self {
            AnchorOp::Dense { m, n, k } => 2.0 * m as f64 * n as f64 * k as f64,
            AnchorOp::BatchMatmul { b, m, n, k } => 2.0 * b as f64 * m as f64 * n as f64 * k as f64,
            AnchorOp::Conv2d {
                n,
                cin,
                hw,
                cout,
                khw,
                stride,
                pad,
                groups,
            } => {
                let ohw = Self::out_hw(hw, khw, stride, pad);
                2.0 * n as f64
                    * cout as f64
                    * (ohw * ohw) as f64
                    * (cin / groups) as f64
                    * (khw * khw) as f64
            }
            AnchorOp::Pool {
                n,
                c,
                hw,
                khw,
                stride,
            } => {
                let ohw = Self::out_hw(hw, khw, stride, 0);
                n as f64 * c as f64 * (ohw * ohw) as f64 * (khw * khw) as f64
            }
            AnchorOp::Softmax { rows, cols } => 5.0 * rows as f64 * cols as f64,
            AnchorOp::LayerNorm { rows, cols } => 8.0 * rows as f64 * cols as f64,
        }
    }

    /// Bytes read from inputs (f32 elements × 4).
    pub fn bytes_read(&self) -> f64 {
        let elems = match *self {
            AnchorOp::Dense { m, n, k } => (m * k + k * n) as f64,
            AnchorOp::BatchMatmul { b, m, n, k } => (b * (m * k + k * n)) as f64,
            AnchorOp::Conv2d {
                n,
                cin,
                hw,
                cout,
                khw,
                groups,
                ..
            } => (n * cin * hw * hw + cout * (cin / groups) * khw * khw) as f64,
            AnchorOp::Pool { n, c, hw, .. } => (n * c * hw * hw) as f64,
            AnchorOp::Softmax { rows, cols } | AnchorOp::LayerNorm { rows, cols } => {
                (rows * cols) as f64
            }
        };
        elems * 4.0
    }

    /// Bytes written to the output.
    pub fn bytes_written(&self) -> f64 {
        let elems: f64 = self
            .loops()
            .iter()
            .filter(|l| l.kind == LoopKind::Spatial)
            .map(|l| l.extent as f64)
            .product();
        elems * 4.0
    }
}

impl fmt::Display for AnchorOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.name())?;
        for (i, l) in self.loops().iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}={}", l.name, l.extent)?;
        }
        write!(f, ")")
    }
}

/// An elementwise epilogue fused into a subgraph (ReLU, residual add,
/// folded batch-norm bias/scale…).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FusedOp {
    /// Rectified linear unit.
    Relu,
    /// Sigmoid-weighted linear unit (Swish / SiLU family; also used for GELU).
    Gelu,
    /// Bias or folded-batch-norm addition.
    BiasAdd,
    /// Residual addition (reads a second input of output size).
    ResidualAdd,
}

impl FusedOp {
    /// FLOPs per output element.
    pub fn flops_per_elem(self) -> f64 {
        match self {
            FusedOp::Relu => 1.0,
            FusedOp::Gelu => 8.0,
            FusedOp::BiasAdd => 1.0,
            FusedOp::ResidualAdd => 1.0,
        }
    }

    /// Extra input bytes per output element.
    pub fn extra_bytes_per_elem(self) -> f64 {
        match self {
            FusedOp::ResidualAdd => 4.0,
            _ => 0.0,
        }
    }

    /// Stage name used in schedule primitives.
    pub fn stage_name(self) -> &'static str {
        match self {
            FusedOp::Relu => "relu",
            FusedOp::Gelu => "gelu",
            FusedOp::BiasAdd => "bias_add",
            FusedOp::ResidualAdd => "add",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_loops_and_flops() {
        let op = AnchorOp::Dense {
            m: 64,
            n: 128,
            k: 256,
        };
        let loops = op.loops();
        assert_eq!(loops.len(), 3);
        assert_eq!(loops[2].kind, LoopKind::Reduction);
        assert_eq!(op.flops(), 2.0 * 64.0 * 128.0 * 256.0);
        assert_eq!(op.bytes_written(), 64.0 * 128.0 * 4.0);
    }

    #[test]
    fn conv_output_size() {
        let op = AnchorOp::Conv2d {
            n: 1,
            cin: 3,
            hw: 224,
            cout: 64,
            khw: 7,
            stride: 2,
            pad: 3,
            groups: 1,
        };
        let loops = op.loops();
        let oh = loops.iter().find(|l| l.name == "oh").unwrap();
        assert_eq!(oh.extent, 112);
    }

    #[test]
    fn depthwise_has_no_channel_reduction() {
        let op = AnchorOp::Conv2d {
            n: 1,
            cin: 32,
            hw: 112,
            cout: 32,
            khw: 3,
            stride: 1,
            pad: 1,
            groups: 32,
        };
        assert_eq!(op.name(), "depthwise_conv2d");
        assert!(op.loops().iter().all(|l| l.name != "ic"));
    }

    #[test]
    fn group_conv_reduces_flops() {
        let dense = AnchorOp::Conv2d {
            n: 1,
            cin: 128,
            hw: 56,
            cout: 128,
            khw: 3,
            stride: 1,
            pad: 1,
            groups: 1,
        };
        let grouped = AnchorOp::Conv2d {
            n: 1,
            cin: 128,
            hw: 56,
            cout: 128,
            khw: 3,
            stride: 1,
            pad: 1,
            groups: 32,
        };
        assert!((dense.flops() / grouped.flops() - 32.0).abs() < 1e-9);
    }

    #[test]
    fn display_is_informative() {
        let op = AnchorOp::Dense { m: 8, n: 16, k: 32 };
        assert_eq!(op.to_string(), "dense(i=8, j=16, k=32)");
    }
}
