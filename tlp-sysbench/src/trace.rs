//! Spans recorded by the benchmark around its calls into each layer. Kept in
//! memory during a traced trial and written out when the run ends; spans
//! inside the program are a later change (ROADMAP item 1).

use serde::Serialize;
use std::path::PathBuf;

/// One interval on the traced trial's clock (ns since the trial started).
#[derive(Clone, Debug, Serialize)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<u32>,
    /// Spans of one op (request, predict call, tuning run) share this.
    pub req: u64,
    /// True when the interval was not observed but laid out from a
    /// single-thread replay of the layer's public call on the same inputs
    /// (or from the timings a `ScoreReply` carries).
    pub replayed: bool,
}

/// The spans of one traced trial.
#[derive(Default)]
pub struct Trace {
    pub spans: Vec<Span>,
}

impl Trace {
    /// Appends a span and returns its index, for use as a `parent`.
    pub fn push(&mut self, span: Span) -> u32 {
        self.spans.push(span);
        (self.spans.len() - 1) as u32
    }

    /// Per-span self time: the span's duration minus the part of that
    /// interval its child spans cover (children clipped to the parent,
    /// overlapping children counted once).
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                let parent = &self.spans[p as usize];
                let (lo, hi) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
                if lo < hi {
                    children[p as usize].push((lo, hi));
                }
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| {
                kids.sort_unstable();
                let (mut covered, mut reach) = (0, s.start_ns);
                for &(lo, hi) in kids.iter() {
                    if hi > reach {
                        covered += hi - lo.max(reach);
                        reach = hi;
                    }
                }
                s.end_ns.saturating_sub(s.start_ns) - covered
            })
            .collect()
    }

    /// Self times of the spans called `name`.
    pub fn self_times_of(&self, name: &str) -> Vec<f64> {
        self.self_times()
            .into_iter()
            .zip(&self.spans)
            .filter(|(_, s)| s.name == name)
            .map(|(t, _)| t as f64)
            .collect()
    }

    /// Writes the spans as JSON under the build directory
    /// (`$CARGO_TARGET_DIR`, else `target`) and returns the path.
    pub fn write(&self, workload: &str) -> std::io::Result<PathBuf> {
        let dir = PathBuf::from(std::env::var_os("CARGO_TARGET_DIR").unwrap_or("target".into()))
            .join("tlp-sysbench");
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("trace-{workload}.json"));
        let body = serde_json::to_string(&self.spans).map_err(std::io::Error::other)?;
        std::fs::write(&path, body)?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            req: 0,
            replayed: false,
        }
    }

    #[test]
    fn self_time_subtracts_clipped_merged_children() {
        let mut t = Trace::default();
        let root = t.push(span("root", 100, 200, None));
        t.push(span("a", 110, 130, Some(root))); // 20 inside
        t.push(span("b", 120, 150, Some(root))); // overlaps a: adds 130..150
        t.push(span("c", 190, 260, Some(root))); // clipped to 190..200
        t.push(span("d", 10, 50, Some(root))); // wholly outside: ignored
        let leaf = t.push(span("leaf", 0, 7, None));
        let st = t.self_times();
        assert_eq!(st[root as usize], 100 - 40 - 10);
        assert_eq!(st[leaf as usize], 7);
        assert_eq!(st[1], 20, "a leaf's self time is its duration");
        assert_eq!(t.self_times_of("root"), vec![50.0]);
    }

    #[test]
    fn self_time_of_a_fully_covered_span_is_zero() {
        let mut t = Trace::default();
        let root = t.push(span("root", 0, 10, None));
        t.push(span("x", 0, 6, Some(root)));
        t.push(span("y", 6, 10, Some(root)));
        assert_eq!(t.self_times()[0], 0);
    }
}
