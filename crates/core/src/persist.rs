//! Saving and loading trained cost models.
//!
//! A trained TLP model is `(config, vocabulary, weights)`. All three are
//! plain serde data, so models can be cached to JSON, shipped next to a
//! compiler install, and reloaded without retraining — the deployment mode
//! an offline cost model exists for.
//!
//! Restores are **audited**: [`SavedTlp::restore`] runs the
//! `tlp-modelcheck` static analyzer (shape/arity, trunk/head partition,
//! numeric sanity, snapshot checksum) against the snapshot before handing a
//! model back, rejecting corrupt or inconsistent snapshots with
//! [`PersistError::Invalid`]. The audit is read-only and RNG-neutral: a
//! restored model's parameters are bitwise the snapshot's. There is no
//! unaudited restore, and one restore serves any head count.

use crate::config::{Backbone, TlpConfig};
use crate::features::FeatureExtractor;
use crate::model::TlpModel;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::Path;
use tlp_modelcheck::{AuditReport, Code, Diagnostic, ModelSpec, Severity};
use tlp_nn::ParamStore;
use tlp_schedule::Vocabulary;

/// The snapshot format this build writes and accepts.
///
/// Bumped whenever the serialized layout of [`SavedTlp`] changes
/// incompatibly. Snapshots written before the field existed probe as
/// version 0 and are rejected with [`PersistError::Version`] — a model
/// server must never hot-swap in a snapshot it may silently misinterpret.
///
/// History: 1 = initial versioned layout; 2 = added the `checksum` field
/// over the parameter store (names, shapes, and value bit patterns); 3 =
/// the head of a one-head model is registered under head 0's prefix like
/// every other head (it had a prefix of its own); 4 = the checksum covers
/// every field a restore reads (head count, extractor shape, vocabulary and
/// config), not the store alone.
pub const SAVED_TLP_FORMAT_VERSION: u32 = 4;

/// A serializable snapshot of a trained TLP model + its feature extractor.
#[derive(Debug, Serialize, Deserialize)]
pub struct SavedTlp {
    /// Snapshot format tag; see [`SAVED_TLP_FORMAT_VERSION`].
    format_version: u32,
    config: TlpConfig,
    vocab: Vocabulary,
    seq_len: usize,
    emb_size: usize,
    store: ParamStore,
    /// Number of heads (head 0 is the target platform).
    heads: usize,
    /// Integrity checksum over every other field but the format tag; see
    /// [`SavedTlp::content_checksum`].
    checksum: u64,
}

/// Error loading or saving a model snapshot.
#[derive(Debug)]
pub enum PersistError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// Malformed snapshot.
    Format(serde_json::Error),
    /// A snapshot file that failed to decode, with as much locus as the
    /// decoder could recover: the byte offset where parsing stopped and
    /// the name of the nearest preceding parameter (the likely victim of
    /// a torn write or bit rot).
    Corrupt {
        /// Byte offset where the decoder gave up, when known.
        offset: Option<usize>,
        /// Last parameter name seen before the failure point, when the
        /// failure landed inside the parameter store.
        param: Option<String>,
        /// The underlying decode error.
        detail: String,
    },
    /// The snapshot decoded but failed the model audit: the store
    /// contradicts the architecture its config declares (missing/extra/
    /// misshapen parameters, broken head partition, non-finite values, or
    /// a checksum mismatch). Carries every error-severity diagnostic.
    Invalid {
        /// The audit's error-severity diagnostics (M-codes).
        diagnostics: Vec<Diagnostic>,
    },
    /// The snapshot's format version does not match this build's.
    Version {
        /// Version tag found in the snapshot (0 when absent — a pre-version
        /// or foreign file).
        found: u32,
        /// Version this build reads and writes.
        expected: u32,
    },
    /// The snapshot records a head count no model can have (zero).
    HeadCount {
        /// Heads recorded in the snapshot.
        found: usize,
        /// Minimum head count of a model.
        expected: usize,
    },
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "model snapshot io error: {e}"),
            PersistError::Format(e) => write!(f, "model snapshot format error: {e}"),
            PersistError::Corrupt {
                offset,
                param,
                detail,
            } => {
                write!(f, "model snapshot corrupt: {detail}")?;
                if let Some(off) = offset {
                    write!(f, " (byte {off}")?;
                    if let Some(p) = param {
                        write!(f, ", near param \"{p}\"")?;
                    }
                    write!(f, ")")?;
                } else if let Some(p) = param {
                    write!(f, " (near param \"{p}\")")?;
                }
                Ok(())
            }
            PersistError::Invalid { diagnostics } => {
                let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
                for d in diagnostics {
                    *counts.entry(d.code.as_str()).or_insert(0) += 1;
                }
                write!(f, "model snapshot failed audit:")?;
                for (code, n) in counts {
                    write!(f, " {code}\u{d7}{n}")?;
                }
                Ok(())
            }
            PersistError::Version { found, expected } => write!(
                f,
                "model snapshot format version {found} (this build reads {expected})"
            ),
            PersistError::HeadCount { found, expected } => write!(
                f,
                "model snapshot has {found} head(s), expected at least {expected}"
            ),
        }
    }
}

impl std::error::Error for PersistError {}

impl PersistError {
    /// The one audit gate every trust boundary (restore, registry install,
    /// continual entry, publish) funnels through: [`PersistError::Invalid`]
    /// carrying `report`'s error-severity diagnostics, `Ok` when it has
    /// none.
    ///
    /// # Errors
    ///
    /// Returns [`PersistError::Invalid`] when `report` has errors.
    pub fn reject_errors(report: &AuditReport) -> Result<(), PersistError> {
        if report.has_errors() {
            return Err(PersistError::Invalid {
                diagnostics: report.errors().cloned().collect(),
            });
        }
        Ok(())
    }
}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

impl From<serde_json::Error> for PersistError {
    fn from(e: serde_json::Error) -> Self {
        PersistError::Format(e)
    }
}

/// One step of the checksum chain: a splitmix64-style finalizer over a
/// running xor-multiply fold. Not cryptographic — it exists to catch torn
/// writes, bit rot, and careless hand edits, not adversaries.
fn mix(h: u64, v: u64) -> u64 {
    let mut x = h ^ v.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Order-sensitive checksum of a parameter store: every parameter's name
/// bytes, shape dims, and value **bit patterns** (`f32::to_bits`, so
/// `-0.0`/`0.0` and NaN payloads are distinguished), folded in registration
/// order. Any single-bit flip in any value changes the result.
pub fn store_checksum(store: &ParamStore) -> u64 {
    let mut h = 0x243F_6A88_85A3_08D3; // pi, for nothing-up-my-sleeve
    for id in store.ids() {
        for b in store.name(id).bytes() {
            h = mix(h, u64::from(b));
        }
        let t = store.value(id);
        for &d in t.shape() {
            h = mix(h, d as u64);
        }
        for &x in t.data() {
            h = mix(h, u64::from(x.to_bits()));
        }
    }
    h
}

/// Writes `body` to `path` via a sibling tempfile + atomic rename, so a
/// crash mid-write can never leave a torn file at `path`: readers see
/// either the old complete content or the new complete content.
fn atomic_write(path: &Path, body: &str) -> std::io::Result<()> {
    let mut tmp = path.as_os_str().to_os_string();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    std::fs::write(&tmp, body)?;
    std::fs::rename(&tmp, path)
}

/// Recovers decode locus from a parse failure: the byte offset embedded in
/// the parser's message (vendored serde_json reports `… at byte N`) and the
/// last `"name":"…"` key preceding that offset — which, in a [`SavedTlp`]
/// body, is the parameter the corruption landed in or immediately after.
fn decode_context(body: &str, detail: String) -> PersistError {
    let offset = detail
        .rfind(" at byte ")
        .and_then(|i| {
            let digits: String = detail[i + " at byte ".len()..]
                .chars()
                .take_while(char::is_ascii_digit)
                .collect();
            digits.parse::<usize>().ok()
        })
        .map(|off| off.min(body.len()));
    let prefix = &body[..offset.unwrap_or(body.len())];
    let param = prefix.rfind("\"name\":\"").and_then(|i| {
        let rest = &prefix[i + "\"name\":\"".len()..];
        // Param names never contain escapes, so the next quote ends it;
        // a name torn mid-string simply yields the surviving prefix.
        let end = rest.find('"').unwrap_or(rest.len());
        let name = &rest[..end];
        if name.is_empty() {
            None
        } else {
            Some(name.to_string())
        }
    });
    PersistError::Corrupt {
        offset,
        param,
        detail,
    }
}

/// Snapshots a model (all heads included; head 0 is the target).
pub fn snapshot(model: &TlpModel, extractor: &FeatureExtractor) -> SavedTlp {
    let mut snap = SavedTlp {
        format_version: SAVED_TLP_FORMAT_VERSION,
        config: model.config.clone(),
        vocab: extractor.vocab().clone(),
        seq_len: extractor.seq_len,
        emb_size: extractor.emb_size,
        store: model.store.clone(),
        heads: model.num_tasks(),
        checksum: 0,
    };
    snap.checksum = snap.content_checksum();
    snap
}

impl SavedTlp {
    /// Writes the snapshot as JSON via a sibling tempfile + atomic rename,
    /// so a crash mid-save can never leave a torn snapshot that
    /// [`SavedTlp::load`] reports as a confusing decode error.
    ///
    /// # Errors
    ///
    /// Returns [`PersistError`] on filesystem or serialization failure.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), PersistError> {
        let body = serde_json::to_string(self)?;
        atomic_write(path.as_ref(), &body)?;
        Ok(())
    }

    /// Reads a snapshot from JSON.
    ///
    /// The format version is probed on the parsed value tree *before* the
    /// full decode, so a stale or foreign file fails with the typed
    /// [`PersistError::Version`] instead of a field-by-field deserialize
    /// error deep inside the parameter store. Decode failures surface as
    /// [`PersistError::Corrupt`] carrying the byte offset where parsing
    /// stopped and the nearest preceding parameter name.
    ///
    /// # Errors
    ///
    /// Returns [`PersistError`] on filesystem failure, version mismatch, or
    /// deserialization failure.
    pub fn load(path: impl AsRef<Path>) -> Result<SavedTlp, PersistError> {
        let body = std::fs::read_to_string(path)?;
        let tree: serde::Value = match serde_json::from_str(&body) {
            Ok(tree) => tree,
            Err(e) => return Err(decode_context(&body, e.to_string())),
        };
        let found = tree
            .get("format_version")
            .and_then(serde::Value::as_u64)
            .unwrap_or(0) as u32;
        if found != SAVED_TLP_FORMAT_VERSION {
            return Err(PersistError::Version {
                found,
                expected: SAVED_TLP_FORMAT_VERSION,
            });
        }
        serde::Deserialize::deserialize_value(&tree)
            .map_err(|e| decode_context(&body, e.to_string()))
    }

    /// The snapshot's format version tag.
    pub fn format_version(&self) -> u32 {
        self.format_version
    }

    /// Number of heads the snapshot carries.
    pub fn heads(&self) -> usize {
        self.heads
    }

    /// The snapshot's parameter store.
    pub fn store(&self) -> &ParamStore {
        &self.store
    }

    /// Mutable access to the snapshot's parameter store.
    ///
    /// The recorded checksum is **not** recomputed — that is the point:
    /// this is the corruption-injection hook the `tlp-modelcheck`
    /// soundness suite and `tlp-cli audit-model` use to forge snapshots a
    /// gated restore must reject.
    pub fn store_mut(&mut self) -> &mut ParamStore {
        &mut self.store
    }

    /// Overrides the recorded head count without touching the store and
    /// re-seals the checksum — a head-partition forgery by someone who
    /// knows the checksum, which the audit's structural passes (not M106)
    /// must catch.
    pub fn set_heads(&mut self, heads: usize) {
        self.heads = heads;
        self.checksum = self.content_checksum();
    }

    /// Checksum of every field [`SavedTlp::restore`] reads: the store (see
    /// [`store_checksum`]), the head count, the extractor's row shape, the
    /// vocabulary (name-ordered) and every config field. A config edit that
    /// keeps the store's layout (attention heads 4 → 2 over a width of 16)
    /// would otherwise restore and silently change every score.
    fn content_checksum(&self) -> u64 {
        // Exhaustive, so a field added to `TlpConfig` does not compile until
        // it is hashed here.
        let TlpConfig {
            seq_len,
            emb_size,
            hidden,
            heads,
            res_blocks,
            backbone,
            loss,
            learning_rate,
            epochs,
            batch_size,
            seed,
        } = &self.config;
        let mut h = store_checksum(&self.store);
        for v in [
            self.heads,
            self.seq_len,
            self.emb_size,
            *seq_len,
            *emb_size,
            *hidden,
            *heads,
            *res_blocks,
            *backbone as usize,
            *loss as usize,
            *epochs,
            *batch_size,
        ] {
            h = mix(h, v as u64);
        }
        h = mix(h, u64::from(learning_rate.to_bits()));
        h = mix(h, *seed);
        let mut words: Vec<(&str, u32)> = self.vocab.iter().collect();
        words.sort_unstable();
        h = mix(h, words.len() as u64);
        for (name, token) in words {
            h = mix(h, name.len() as u64);
            for b in name.bytes() {
                h = mix(h, u64::from(b));
            }
            h = mix(h, u64::from(token));
        }
        h
    }

    /// Rejects a recorded layout that no store of this size can back,
    /// before anything builds the model it declares: building one would
    /// panic or allocate without bound. Zero heads describe no model
    /// ([`PersistError::HeadCount`]). Each head and residual block
    /// registers at least one parameter, every backbone registers an
    /// `emb_size × hidden` and a `hidden × hidden` up-projection, attention
    /// splits the width evenly across its heads, and the extractor must
    /// produce the rows the config reads; a layout that breaks one of these
    /// is [`PersistError::Invalid`] with one error diagnostic.
    fn check_layout(&self) -> Result<(), PersistError> {
        if self.heads == 0 {
            return Err(PersistError::HeadCount {
                found: 0,
                expected: 1,
            });
        }
        let c = &self.config;
        let params = self.store.len();
        let weights = self.store.num_weights();
        let up_weights = c
            .hidden
            .checked_add(c.emb_size)
            .and_then(|w| w.checked_mul(c.hidden));
        let (code, detail) = if self.heads > params {
            (
                Code::HeadIndexOutOfRange,
                format!("{} heads declared over {params} parameters", self.heads),
            )
        } else if c.res_blocks > params {
            (
                Code::MissingParam,
                format!(
                    "{} residual blocks declared over {params} parameters",
                    c.res_blocks
                ),
            )
        } else if up_weights.is_none_or(|w| w > weights) {
            (
                Code::MissingParam,
                format!(
                    "width {} over embedding {} needs more than the store's {weights} weights",
                    c.hidden, c.emb_size
                ),
            )
        } else if c.backbone != Backbone::Lstm
            && (c.heads == 0 || !c.hidden.is_multiple_of(c.heads))
        {
            (
                Code::ShapeMismatch,
                format!(
                    "width {} does not split across {} attention heads",
                    c.hidden, c.heads
                ),
            )
        } else if (self.seq_len, self.emb_size) != (c.seq_len, c.emb_size) {
            (
                Code::ShapeMismatch,
                format!(
                    "extractor rows {}x{} differ from the config's {}x{}",
                    self.seq_len, self.emb_size, c.seq_len, c.emb_size
                ),
            )
        } else {
            return Ok(());
        };
        Err(PersistError::Invalid {
            diagnostics: vec![Diagnostic::global(code, Severity::Error, detail)],
        })
    }

    /// Audits the snapshot against `spec`: the analyzer's structural passes
    /// plus the snapshot-checksum verification (M106).
    fn audit_against(&self, spec: &ModelSpec) -> AuditReport {
        let report = tlp_modelcheck::audit_store(spec, &self.store);
        let computed = self.content_checksum();
        if computed == self.checksum {
            report
        } else {
            report.merge(AuditReport::new(vec![Diagnostic::global(
                Code::ChecksumMismatch,
                Severity::Error,
                format!(
                    "snapshot checksum {computed:#018x} does not match recorded {:#018x}",
                    self.checksum
                ),
            )]))
        }
    }

    /// Runs the full `tlp-modelcheck` audit of this snapshot: shape/arity,
    /// trunk/head partition, numeric sanity, and checksum verification,
    /// against the parameter layout its own config and head count declare.
    /// A layout [`SavedTlp::restore`] would refuse to build is reported as
    /// one error-severity diagnostic.
    pub fn audit(&self) -> AuditReport {
        match self.check_layout() {
            Ok(()) => self.audit_against(&crate::audit::spec(&self.config, self.heads)),
            Err(PersistError::Invalid { diagnostics }) => AuditReport::new(diagnostics),
            Err(e) => AuditReport::new(vec![Diagnostic::global(
                Code::HeadIndexOutOfRange,
                Severity::Error,
                e.to_string(),
            )]),
        }
    }

    /// Rebuilds the model and extractor, auditing the snapshot first. The
    /// audit reuses the freshly initialized model as the layout ground
    /// truth, so the gate costs one read-only sweep over the store and
    /// nothing else.
    ///
    /// # Errors
    ///
    /// Returns [`PersistError::HeadCount`] if the snapshot records no heads
    /// at all (a corrupt or hand-edited file), or
    /// [`PersistError::Invalid`] if its layout cannot back a model or the
    /// audit finds errors.
    pub fn restore(&self) -> Result<(TlpModel, FeatureExtractor), PersistError> {
        self.check_layout()?;
        let mut model = TlpModel::with_heads(self.config.clone(), self.heads);
        PersistError::reject_errors(&self.audit_against(&crate::audit::spec_of(&model)))?;
        model.store = self.store.clone();
        let extractor =
            FeatureExtractor::with_vocab(self.vocab.clone(), self.seq_len, self.emb_size);
        Ok((model, extractor))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::TlpHead;
    use tlp_nn::Workspace;
    use tlp_schedule::{ConcretePrimitive, PrimitiveKind, ScheduleSequence};

    fn sample_sequence() -> ScheduleSequence {
        [ConcretePrimitive::new(PrimitiveKind::Split, "dense")
            .with_loops(["i"])
            .with_ints([64, 8])]
        .into_iter()
        .collect()
    }

    /// A fresh `heads`-head model over an empty vocabulary, and its snapshot.
    fn fresh(heads: usize) -> (TlpModel, SavedTlp) {
        let cfg = TlpConfig::test_scale();
        let ex =
            FeatureExtractor::with_vocab(Vocabulary::builder().build(), cfg.seq_len, cfg.emb_size);
        let model = TlpModel::with_heads(cfg, heads);
        let snap = snapshot(&model, &ex);
        (model, snap)
    }

    fn sample_features(ex: &FeatureExtractor) -> Vec<f32> {
        let seq = sample_sequence();
        let mut buf = crate::features::FeatureBuf::new();
        ex.extract_batch_into(std::slice::from_ref(&seq), &mut buf);
        buf.data().to_vec()
    }

    #[test]
    fn snapshot_roundtrip_preserves_predictions() {
        use crate::search::TlpCostModel;
        use tlp_autotuner::{CostModel, ScoreRequest, SearchTask};
        use tlp_workload::{AnchorOp, Subgraph};

        let cfg = TlpConfig::test_scale();
        let mut vb = Vocabulary::builder();
        vb.observe("dense");
        vb.observe("i");
        let ex = FeatureExtractor::with_vocab(vb.build(), cfg.seq_len, cfg.emb_size);
        let feats = sample_features(&ex);
        for heads in [1usize, 3] {
            let model = TlpModel::with_heads(cfg.clone(), heads);
            let path = std::env::temp_dir().join(format!("tlp_snapshot_test_{heads}.json"));
            snapshot(&model, &ex).save(&path).expect("save");
            let loaded = SavedTlp::load(&path).expect("load");
            assert_eq!(loaded.format_version(), SAVED_TLP_FORMAT_VERSION);
            assert_eq!(loaded.heads(), heads);
            let (model2, ex2) = loaded.restore().expect("valid snapshot");
            assert_eq!(model2.num_tasks(), heads);
            let feats2 = sample_features(&ex2);
            let mut ws = Workspace::new();
            for head in 0..heads {
                assert_eq!(
                    model.predict_task_with(&mut ws, &feats, head),
                    model2.predict_task_with(&mut ws, &feats2, head)
                );
            }
            // Any snapshot drives the search through head 0 — what
            // `tlp-cli eval` / `tune --model` do with an adapted snapshot.
            let task = SearchTask::new(
                Subgraph::new(
                    "dense",
                    AnchorOp::Dense {
                        m: 64,
                        n: 64,
                        k: 64,
                    },
                ),
                tlp_hwsim::Platform::i7_10510u(),
            );
            let seq = sample_sequence();
            let served = TlpCostModel::new(model2, ex2)
                .predict(ScoreRequest::new(&task, std::slice::from_ref(&seq)));
            let direct = model.predict_with(&mut ws, &feats);
            assert_eq!(
                served.scores().map(f32::to_bits).collect::<Vec<_>>(),
                vec![direct[0].to_bits()]
            );
            let _ = std::fs::remove_file(path);
        }
    }

    #[test]
    fn load_missing_file_errors() {
        assert!(matches!(
            SavedTlp::load("/nonexistent/path/model.json"),
            Err(PersistError::Io(_))
        ));
    }

    #[test]
    fn load_rejects_unversioned_snapshot() {
        // A pre-versioning or foreign JSON file probes as version 0 and must
        // fail with the typed error, not a deep deserialize failure.
        let path = std::env::temp_dir().join("tlp_snapshot_unversioned.json");
        std::fs::write(&path, r#"{"config": {}, "heads": 1}"#).unwrap();
        match SavedTlp::load(&path) {
            Err(PersistError::Version { found, expected }) => {
                assert_eq!(found, 0);
                assert_eq!(expected, SAVED_TLP_FORMAT_VERSION);
            }
            other => panic!(
                "expected Version error, got {:?}",
                other.map(|s| s.format_version())
            ),
        }
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn load_rejects_future_version() {
        let (_, mut snap) = fresh(1);
        snap.format_version = SAVED_TLP_FORMAT_VERSION + 1;
        let path = std::env::temp_dir().join("tlp_snapshot_future.json");
        snap.save(&path).expect("save");
        assert!(matches!(
            SavedTlp::load(&path),
            Err(PersistError::Version { found, .. }) if found == SAVED_TLP_FORMAT_VERSION + 1
        ));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn load_reports_truncation_offset_and_nearest_param() {
        // Simulates the torn write that atomic_write prevents: a valid
        // snapshot cut off mid-JSON must surface as a typed Corrupt error
        // carrying the failure offset and the nearest parameter name.
        let path = std::env::temp_dir().join("tlp_snapshot_truncated.json");
        fresh(1).1.save(&path).expect("save");
        let body = std::fs::read_to_string(&path).expect("read back");
        std::fs::write(&path, &body[..body.len() / 2]).expect("truncate");
        match SavedTlp::load(&path) {
            Err(PersistError::Corrupt { offset, param, .. }) => {
                assert!(offset.is_some(), "parser must report the failure offset");
                // Half of a snapshot body is deep inside the store, so the
                // context scan must find a parameter name before the cut.
                let p = param.expect("failure inside the store names a param");
                assert!(
                    p.starts_with("backbone.") || p.starts_with(&TlpHead::prefix(0)),
                    "unexpected param locus {p:?}"
                );
            }
            other => panic!("expected Corrupt, got {other:?}", other = other.err()),
        }
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn load_rejects_corrupted_bytes_without_panicking() {
        // Arbitrary text garbage must fail as a typed Corrupt error with no
        // param locus (the garbage has no store to point into).
        let path = std::env::temp_dir().join("tlp_snapshot_corrupt.json");
        std::fs::write(&path, "garbage: definitely [not json").expect("write");
        assert!(matches!(
            SavedTlp::load(&path),
            Err(PersistError::Corrupt { param: None, .. })
        ));
        // Binary garbage (invalid UTF-8) fails at the read as a typed Io
        // error — still no panic.
        std::fs::write(&path, b"\x00\xffnot utf8\x13\x37").expect("write");
        assert!(matches!(SavedTlp::load(&path), Err(PersistError::Io(_))));
        // Valid JSON of the wrong shape (version probe passes, field decode
        // fails) is a Corrupt error too, never a panic.
        std::fs::write(
            &path,
            format!("{{\"format_version\": {SAVED_TLP_FORMAT_VERSION}}}"),
        )
        .expect("write");
        assert!(matches!(
            SavedTlp::load(&path),
            Err(PersistError::Corrupt { .. })
        ));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn atomic_save_leaves_no_tempfile_and_overwrites_in_place() {
        let path = std::env::temp_dir().join("tlp_snapshot_atomic.json");
        let (_, snap) = fresh(1);
        snap.save(&path).expect("first save");
        snap.save(&path).expect("overwrite save");
        let tmp = std::env::temp_dir().join("tlp_snapshot_atomic.json.tmp");
        assert!(!tmp.exists(), "rename must consume the tempfile");
        assert!(SavedTlp::load(&path).is_ok());
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn checksum_is_bit_sensitive() {
        let (model, _) = fresh(1);
        let before = store_checksum(&model.store);
        let mut store = model.store.clone();
        let id = store.ids().next().expect("store has params");
        // Flip the lowest mantissa bit of one value: numerically invisible,
        // checksum-visible.
        let bits = store.value(id).data()[0].to_bits() ^ 1;
        store.value_mut(id).data_mut()[0] = f32::from_bits(bits);
        assert_ne!(before, store_checksum(&store));
    }

    #[test]
    fn restore_rejects_bit_flipped_store() {
        let (_, mut snap) = fresh(1);
        let id = snap.store().ids().next().expect("store has params");
        let bits = snap.store().value(id).data()[0].to_bits() ^ 1;
        snap.store_mut().value_mut(id).data_mut()[0] = f32::from_bits(bits);

        let report = snap.audit();
        assert!(report.has_code(Code::ChecksumMismatch), "audit: {report}");
        match snap.restore() {
            Err(PersistError::Invalid { diagnostics }) => {
                assert!(diagnostics.iter().any(|d| d.code == Code::ChecksumMismatch));
            }
            other => panic!("expected Invalid, got {other:?}", other = other.err()),
        }
    }

    #[test]
    fn restore_rejects_nan_injected_store() {
        let (_, mut snap) = fresh(2);
        let id = snap.store().ids().next().expect("store has params");
        snap.store_mut().value_mut(id).data_mut()[0] = f32::NAN;

        let report = snap.audit();
        assert!(report.has_code(Code::NonFiniteValue), "audit: {report}");
        assert!(matches!(snap.restore(), Err(PersistError::Invalid { .. })));
    }

    #[test]
    fn restore_rejects_head_count_forgery() {
        // set_heads leaves the store (and checksum) untouched, so the
        // partition pass — not the checksum — must catch the lie.
        let (_, mut snap) = fresh(3);
        snap.set_heads(2);
        let report = snap.audit();
        assert!(report.has_errors(), "audit must flag the forged head count");
        assert!(!report.has_code(Code::ChecksumMismatch));
        assert!(matches!(snap.restore(), Err(PersistError::Invalid { .. })));

        // No heads at all describes no model: a typed HeadCount, never an
        // attempt to build one.
        snap.set_heads(0);
        assert!(snap.audit().has_errors());
        assert!(matches!(
            snap.restore(),
            Err(PersistError::HeadCount { found: 0, .. })
        ));

        // More heads than the store has parameters: rejected before the
        // model is built, not by allocating a head per count.
        snap.set_heads(usize::MAX);
        assert!(snap.audit().has_code(Code::HeadIndexOutOfRange));
        assert!(matches!(snap.restore(), Err(PersistError::Invalid { .. })));
    }

    #[test]
    fn restore_rejects_a_config_no_model_can_have() {
        // Each edit would panic or allocate without bound inside
        // `TlpModel::with_heads`; the restore must refuse it first.
        let edits: [fn(&mut TlpConfig); 4] = [
            |c| c.heads = 3,
            |c| c.heads = 0,
            |c| c.hidden = usize::MAX,
            |c| c.res_blocks = usize::MAX,
        ];
        for edit in edits {
            let (_, mut snap) = fresh(2);
            edit(&mut snap.config);
            assert!(snap.audit().has_errors());
            assert!(matches!(snap.restore(), Err(PersistError::Invalid { .. })));
        }
    }

    #[test]
    fn restore_rejects_a_config_edit_that_keeps_the_layout() {
        // 4 → 2 attention heads over a width of 16 registers the same
        // parameters, so every structural pass agrees; only the checksum
        // sees that the scores would change.
        let (_, mut snap) = fresh(2);
        assert_eq!((snap.config.hidden, snap.config.heads), (16, 4));
        snap.config.heads = 2;
        assert!(snap.check_layout().is_ok(), "the edit keeps the layout");
        assert!(snap.audit().has_code(Code::ChecksumMismatch));
        let Err(PersistError::Invalid { diagnostics }) = snap.restore() else {
            panic!("the heads edit restored");
        };
        assert!(diagnostics.iter().any(|d| d.code == Code::ChecksumMismatch));
    }

    #[test]
    fn every_restored_field_moves_the_checksum() {
        let edits: [fn(&mut SavedTlp); 15] = [
            |s| s.heads += 1,
            |s| s.seq_len += 1,
            |s| s.emb_size += 1,
            |s| {
                let mut b = Vocabulary::builder();
                b.observe("dense");
                s.vocab = b.build();
            },
            |s| s.config.seq_len += 1,
            |s| s.config.emb_size += 1,
            |s| s.config.hidden += 1,
            |s| s.config.heads += 1,
            |s| s.config.res_blocks += 1,
            |s| s.config.backbone = Backbone::Lstm,
            |s| s.config.loss = crate::config::LossKind::Mse,
            |s| s.config.learning_rate *= 2.0,
            |s| s.config.epochs += 1,
            |s| s.config.batch_size += 1,
            |s| s.config.seed += 1,
        ];
        let base = fresh(2).1.content_checksum();
        for (i, edit) in edits.iter().enumerate() {
            let (_, mut snap) = fresh(2);
            edit(&mut snap);
            assert_ne!(snap.content_checksum(), base, "edit {i} is not covered");
        }
    }

    #[test]
    fn restored_parameters_are_bitwise_the_source_models() {
        let (model, snap) = fresh(2);
        let (restored, _) = snap.restore().expect("valid snapshot");
        assert_eq!(
            store_checksum(&restored.store),
            store_checksum(&model.store)
        );
        let bits = |store: &ParamStore| -> Vec<(String, Vec<u32>)> {
            store
                .ids()
                .map(|id| {
                    let data = store.value(id).data();
                    (
                        store.name(id).to_string(),
                        data.iter().map(|v| v.to_bits()).collect(),
                    )
                })
                .collect()
        };
        assert_eq!(
            bits(&restored.store),
            bits(&model.store),
            "the audit must not perturb a valid model"
        );
    }
}
