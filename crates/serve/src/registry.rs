//! Named, versioned cost models, hot-swappable under live traffic.
//!
//! The registry maps model names to [`ModelVersion`]s — an immutable bundle
//! of (private [`InferenceEngine`] owning the restored scorer, monotonic
//! version tag) behind an `Arc`. Lookups clone the `Arc`, and a request is
//! scored by the version that admitted it, even if an
//! [`ModelRegistry::install`] swaps the name or a [`ModelRegistry::remove`]
//! drops it while the request is queued; the old version is freed when its
//! last admitted request drops it. Each version owns its own
//! engine (and score cache), so a swap can never serve version-N scores to
//! version-N+1 requests; the displaced engine is additionally
//! [`InferenceEngine::invalidate`]d at swap time so its cache memory is
//! released immediately rather than when the last straggler finishes.

use crate::error::ServeError;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use tlp::engine::{EngineConfig, InferenceEngine};
use tlp::persist::{PersistError, SavedTlp};
use tlp::search::MtlTlpScorer;
use tlp::{FeatureExtractor, TlpModel};

/// One immutable installed model: a named, versioned engine. Scoring,
/// probing and stats are the engine's own methods, reached through `Deref`.
#[derive(Debug)]
pub struct ModelVersion {
    name: String,
    version: u64,
    engine: InferenceEngine<MtlTlpScorer>,
}

impl ModelVersion {
    /// Registry name this version is (or was) installed under.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Monotonic version tag, unique across the registry's lifetime.
    pub fn version(&self) -> u64 {
        self.version
    }
}

impl std::ops::Deref for ModelVersion {
    type Target = InferenceEngine<MtlTlpScorer>;

    fn deref(&self) -> &Self::Target {
        &self.engine
    }
}

/// Thread-safe name → current-[`ModelVersion`] map.
///
/// Installs are **checked**, unconditionally: every model entering the
/// registry — from a snapshot or in-memory — has its store compared to the
/// layout its config and head count declare and scanned for NaN/±Inf
/// ([`tlp_modelcheck::check`]) first, and a model that fails is refused
/// with a typed [`PersistError`] instead of ever becoming resolvable. The
/// registry counts refusals ([`ModelRegistry::rejected_installs`]) for the
/// serving stats snapshot.
#[derive(Debug)]
pub struct ModelRegistry {
    models: RwLock<BTreeMap<String, Arc<ModelVersion>>>,
    next_version: AtomicU64,
    engine_config: EngineConfig,
    rejected_installs: AtomicU64,
}

impl Default for ModelRegistry {
    fn default() -> Self {
        ModelRegistry::new(EngineConfig::default())
    }
}

impl ModelRegistry {
    /// An empty registry; every installed version gets an engine sized by
    /// `engine_config`.
    pub fn new(engine_config: EngineConfig) -> Self {
        ModelRegistry {
            models: RwLock::new(BTreeMap::new()),
            next_version: AtomicU64::new(1),
            engine_config,
            rejected_installs: AtomicU64::new(0),
        }
    }

    /// How many installs the check has refused over the registry's
    /// lifetime: a store that fails [`tlp_modelcheck::check`], a snapshot
    /// checksum mismatch or a config no model can have. A zero-head
    /// snapshot ([`PersistError::HeadCount`]) is not counted.
    pub fn rejected_installs(&self) -> u64 {
        self.rejected_installs.load(Ordering::Relaxed)
    }

    /// Installs (or hot-swaps) a model restored from a snapshot, scored via
    /// head 0 (the target platform). The restore's check (layout, values,
    /// checksum) must pass first.
    ///
    /// Returns the new version tag.
    ///
    /// # Errors
    ///
    /// Propagates the restore's [`PersistError`]: [`PersistError::Invalid`]
    /// or [`PersistError::Checksum`] for a store that fails the check.
    pub fn install(&self, name: &str, snapshot: &SavedTlp) -> Result<u64, PersistError> {
        let checked = snapshot
            .restore()
            .map(|(model, extractor)| MtlTlpScorer::new(model, extractor));
        self.install_checked(name, checked)
    }

    /// Installs (or hot-swaps) an in-memory model scored via head 0 —
    /// [`ModelRegistry::install_head`] for the target platform.
    ///
    /// # Errors
    ///
    /// Returns [`PersistError::Invalid`] when the model's store fails the
    /// check.
    pub fn install_tlp(
        &self,
        name: &str,
        model: TlpModel,
        extractor: FeatureExtractor,
    ) -> Result<u64, PersistError> {
        self.install_head(name, model, extractor, 0)
    }

    /// Installs (or hot-swaps) an in-memory model scored through head
    /// `head` (continual adaptation serves a newly grown platform head this
    /// way without disturbing the other heads), checking its store against
    /// a freshly built model of the same config and head count.
    ///
    /// # Errors
    ///
    /// Returns [`PersistError::Invalid`] when the model's store fails the
    /// check.
    ///
    /// # Panics
    ///
    /// Panics if `head` is out of range for the model.
    pub fn install_head(
        &self,
        name: &str,
        model: TlpModel,
        extractor: FeatureExtractor,
        head: usize,
    ) -> Result<u64, PersistError> {
        assert!(head < model.num_tasks(), "serving head out of range");
        let layout = TlpModel::with_heads(model.config.clone(), model.num_tasks()).store;
        let checked = tlp_modelcheck::check(&layout, &model.store)
            .map_err(PersistError::Invalid)
            .map(|()| MtlTlpScorer::for_head(model, extractor, head));
        self.install_checked(name, checked)
    }

    /// The one way into the registry: `checked` is a scorer whose model
    /// passed the check, or the check's refusal (counted in
    /// [`ModelRegistry::rejected_installs`]). An accepted scorer
    /// atomically replaces any previous version under `name`; requests it
    /// admitted are still scored by the old version, whose cache is
    /// invalidated immediately so the displaced entries stop occupying
    /// memory.
    fn install_checked(
        &self,
        name: &str,
        checked: Result<MtlTlpScorer, PersistError>,
    ) -> Result<u64, PersistError> {
        let scorer = checked.inspect_err(|e| {
            if !matches!(e, PersistError::HeadCount { .. }) {
                self.rejected_installs.fetch_add(1, Ordering::Relaxed);
            }
        })?;
        let version = self.next_version.fetch_add(1, Ordering::Relaxed);
        let entry = Arc::new(ModelVersion {
            name: name.to_string(),
            version,
            engine: InferenceEngine::new(scorer, self.engine_config),
        });
        let old = self
            .models
            .write()
            .unwrap_or_else(|e| e.into_inner())
            .insert(name.to_string(), entry);
        if let Some(old) = old {
            old.engine.invalidate();
        }
        Ok(version)
    }

    /// The current version under `name`, if any.
    pub fn resolve(&self, name: &str) -> Option<Arc<ModelVersion>> {
        self.models
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .get(name)
            .cloned()
    }

    /// Like [`ModelRegistry::resolve`] but with the serving-layer error.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::UnknownModel`] when `name` is not installed.
    pub fn resolve_required(&self, name: &str) -> Result<Arc<ModelVersion>, ServeError> {
        self.resolve(name)
            .ok_or_else(|| ServeError::UnknownModel(name.to_string()))
    }

    /// Uninstalls `name`. Requests the removed version admitted are still
    /// scored by it.
    pub fn remove(&self, name: &str) -> bool {
        self.models
            .write()
            .unwrap_or_else(|e| e.into_inner())
            .remove(name)
            .is_some()
    }

    /// Installed model names, sorted (the map iterates in key order).
    pub fn names(&self) -> Vec<String> {
        self.models
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .keys()
            .cloned()
            .collect()
    }

    /// Current (name, version, engine-stats) rows for stats snapshots,
    /// sorted by name (the map iterates in key order).
    pub fn stats(&self) -> Vec<crate::stats::ModelStatsSnapshot> {
        self.models
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .values()
            .map(|m| crate::stats::ModelStatsSnapshot {
                name: m.name.clone(),
                version: m.version,
                engine: m.engine.stats(),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::disallowed_methods)]
    use super::*;
    use tlp::persist::snapshot;
    use tlp::TlpConfig;
    use tlp_schedule::Vocabulary;

    fn model_and_extractor() -> (TlpModel, FeatureExtractor) {
        let cfg = TlpConfig::test_scale();
        let ex =
            FeatureExtractor::with_vocab(Vocabulary::builder().build(), cfg.seq_len, cfg.emb_size);
        (TlpModel::new(cfg), ex)
    }

    #[test]
    fn install_resolve_remove_roundtrip() {
        let reg = ModelRegistry::default();
        assert!(reg.resolve("m").is_none());
        assert_eq!(
            reg.resolve_required("m").err(),
            Some(ServeError::UnknownModel("m".to_string())),
        );
        let (model, ex) = model_and_extractor();
        let v1 = reg.install_tlp("m", model, ex).expect("valid model");
        let resolved = reg.resolve("m").expect("installed");
        assert_eq!(resolved.version(), v1);
        assert_eq!(resolved.name(), "m");
        assert_eq!(reg.names(), vec!["m".to_string()]);
        assert!(reg.remove("m"));
        assert!(!reg.remove("m"));
        assert!(reg.resolve("m").is_none());
    }

    #[test]
    fn hot_swap_bumps_version_and_keeps_old_arc_alive() {
        let reg = ModelRegistry::default();
        let (m1, e1) = model_and_extractor();
        let (m2, e2) = model_and_extractor();
        let v1 = reg.install_tlp("m", m1, e1).expect("valid model");
        let held = reg.resolve("m").expect("v1");
        let v2 = reg.install_tlp("m", m2, e2).expect("valid model");
        assert!(v2 > v1);
        // The held Arc still answers as the old version.
        assert_eq!(held.version(), v1);
        assert_eq!(reg.resolve("m").expect("v2").version(), v2);
        // Swap invalidated the displaced engine.
        assert_eq!(held.stats().invalidations, 1);
    }

    #[test]
    fn snapshot_install_serves_any_head_count() {
        let reg = ModelRegistry::default();
        let (model, ex) = model_and_extractor();
        for (name, heads) in [("one-head", 1), ("three-head", 3)] {
            let model = TlpModel::with_heads(model.config.clone(), heads);
            let v = reg.install(name, &snapshot(&model, &ex)).expect("install");
            assert_eq!(reg.resolve(name).expect("installed").version(), v);
        }
        let rows = reg.stats();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].name, "one-head");
    }

    #[test]
    fn every_install_entry_point_rejects_a_nan_store_and_counts_it() {
        type Install = fn(&ModelRegistry, &str) -> Result<u64, PersistError>;
        fn nan_model(heads: usize) -> (TlpModel, FeatureExtractor) {
            let (one, ex) = model_and_extractor();
            let mut model = TlpModel::with_heads(one.config, heads);
            let id = model.store.ids().next().expect("store has params");
            model.store.value_mut(id).data_mut()[0] = f32::NAN;
            (model, ex)
        }
        let entry_points: [(&str, Install); 3] = [
            ("install", |reg, name| {
                let (model, ex) = nan_model(2);
                reg.install(name, &snapshot(&model, &ex))
            }),
            ("install_tlp", |reg, name| {
                let (model, ex) = nan_model(1);
                reg.install_tlp(name, model, ex)
            }),
            ("install_head", |reg, name| {
                let (model, ex) = nan_model(2);
                reg.install_head(name, model, ex, 1)
            }),
        ];
        let reg = ModelRegistry::default();
        for (i, (name, install)) in entry_points.into_iter().enumerate() {
            match install(&reg, name) {
                Err(PersistError::Invalid(tlp_modelcheck::StoreFault::NonFinite {
                    count: 1,
                    ..
                })) => {}
                other => panic!("{name}: expected a non-finite fault, got {:?}", other.err()),
            }
            assert_eq!(reg.rejected_installs(), i as u64 + 1, "{name}");
            assert!(
                reg.resolve(name).is_none(),
                "{name}: rejected model must not serve"
            );
        }
    }

    #[test]
    fn snapshot_install_rejects_corrupt_snapshot() {
        let reg = ModelRegistry::default();
        let (model, ex) = model_and_extractor();
        let mut snap = snapshot(&model, &ex);
        let id = snap.store().ids().next().expect("store has params");
        let bits = snap.store().value(id).data()[0].to_bits() ^ 1;
        snap.store_mut().value_mut(id).data_mut()[0] = f32::from_bits(bits);
        assert!(matches!(
            reg.install("bad", &snap),
            Err(PersistError::Checksum { .. })
        ));
        assert_eq!(reg.rejected_installs(), 1);

        // A forged head count of 0 describes no model: a typed HeadCount
        // (not counted), never a panic.
        let mut snap = snapshot(&model, &ex);
        snap.set_heads(0);
        assert!(matches!(
            reg.install("headless", &snap),
            Err(PersistError::HeadCount { found: 0, .. })
        ));
        assert_eq!(reg.rejected_installs(), 1);
        assert!(reg.resolve("headless").is_none());
    }
}
