//! Per-tenant QoS: weighted admission quotas and fair-share dispatch.
//!
//! A serving fleet is shared by many tuning clients ("tenants") of very
//! different appetites: an interactive auto-scheduler scoring 16 candidates
//! per round next to a bulk re-scoring job pushing thousands. Without
//! isolation, the greedy tenant fills the admission queue and the batcher
//! serves it back-to-back — everyone else starves. Two mechanisms bound
//! that:
//!
//! - **Weighted admission** ([`TenantTable::admit`]): each tenant owns a
//!   share of the admission queue proportional to its configured weight.
//!   A tenant at its share is rejected with
//!   [`ServeError::TenantOverQuota`](crate::ServeError::TenantOverQuota)
//!   *before* enqueueing, while tenants under their share keep being
//!   admitted — overload from one tenant can no longer crowd out another.
//! - **Fair-share dispatch** ([`TenantTable::pass_of`]): the batcher picks
//!   the queued job whose tenant has the lowest *virtual pass* (stride
//!   scheduling: a tenant's pass advances by `candidates / weight` for
//!   every candidate dispatched on its behalf). Heavy tenants advance
//!   their pass quickly and wait; light tenants stay cheap and get
//!   dispatched promptly. The schedule is a pure function of the queue
//!   contents, so serving stays deterministic.
//!
//! Tenancy is a scheduling label only: it never enters the score-cache key
//! or the routing key, so two tenants scoring the same `(model, task)`
//! share cache hits and batch coalescing — isolation bounds *service*, not
//! *scores* (which are bit-identical for everyone by construction).

use serde::Serialize;
use std::collections::BTreeMap;

/// The tenant used by submissions that don't name one.
pub const DEFAULT_TENANT: &str = "default";

/// Pass-arithmetic scale: passes advance by `candidates * STRIDE / weight`,
/// so weight ratios up to `STRIDE` are represented exactly.
const STRIDE: u64 = 1 << 20;

/// Weight assigned to tenants first seen at submission time.
const DEFAULT_WEIGHT: u32 = 1;

/// One tenant's QoS class: a name and a relative weight.
#[derive(Clone, Debug, PartialEq, Eq, Serialize)]
pub struct TenantSpec {
    /// Tenant name, as passed to `score_as`/`submit_as`.
    pub name: String,
    /// Relative weight (≥ 1): admission share and dispatch rate are
    /// proportional to `weight / Σ weights`.
    pub weight: u32,
}

impl TenantSpec {
    /// A tenant spec with the given name and weight (clamped to ≥ 1).
    pub fn new(name: impl Into<String>, weight: u32) -> Self {
        TenantSpec {
            name: name.into(),
            weight: weight.max(1),
        }
    }
}

/// Per-tenant QoS policy for a server. Weighted admission quotas are always
/// enforced.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize)]
pub struct TenantPolicy {
    /// Pre-registered tenants with explicit weights.
    pub classes: Vec<TenantSpec>,
}

impl TenantPolicy {
    /// A policy with the given classes.
    pub fn with_classes(classes: Vec<TenantSpec>) -> Self {
        TenantPolicy { classes }
    }
}

/// One tenant's point-in-time accounting, reported in
/// [`ServeSnapshot`](crate::ServeSnapshot).
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct TenantStatsSnapshot {
    /// Tenant name.
    pub tenant: String,
    /// Configured (or defaulted) weight.
    pub weight: u32,
    /// Jobs currently queued for this tenant.
    pub queued: usize,
    /// Jobs answered so far: dispatched into engine batches, or answered
    /// from the score cache at admission.
    pub dispatched_jobs: u64,
    /// Candidates answered on this tenant's behalf so far.
    pub dispatched_candidates: u64,
    /// Submissions rejected because the tenant was at its admission share.
    pub rejected_quota: u64,
}

#[derive(Debug)]
struct TenantState {
    weight: u32,
    queued: usize,
    pass: u64,
    dispatched_jobs: u64,
    dispatched_candidates: u64,
    rejected_quota: u64,
}

/// Tenant accounting table, owned by the server's queue state (all access
/// is under the queue mutex, so plain fields suffice).
#[derive(Debug)]
pub struct TenantTable {
    tenants: BTreeMap<String, TenantState>,
    total_weight: u64,
    /// Global virtual time: the pass of the most recently dispatched job.
    /// A tenant returning from idle restarts at `gvt`, so it cannot bank
    /// credit while away and then monopolize the batcher.
    gvt: u64,
}

impl TenantTable {
    /// A table with `policy`'s classes pre-registered.
    pub fn new(policy: &TenantPolicy) -> Self {
        let mut table = TenantTable {
            tenants: BTreeMap::new(),
            total_weight: 0,
            gvt: 0,
        };
        for spec in &policy.classes {
            table.register(&spec.name, spec.weight.max(1));
        }
        table
    }

    fn register(&mut self, name: &str, weight: u32) {
        if !self.tenants.contains_key(name) {
            self.total_weight += u64::from(weight);
            self.tenants.insert(
                name.to_string(),
                TenantState {
                    weight,
                    queued: 0,
                    pass: self.gvt,
                    dispatched_jobs: 0,
                    dispatched_candidates: 0,
                    rejected_quota: 0,
                },
            );
        }
    }

    /// This tenant's admission share of a queue with `capacity` slots:
    /// `capacity * weight / Σ weights`, never below 1 so every tenant can
    /// always make progress.
    pub fn share(&self, tenant: &str, capacity: usize) -> usize {
        let (weight, total) = match self.tenants.get(tenant) {
            Some(t) => (u64::from(t.weight), self.total_weight),
            None => (
                u64::from(DEFAULT_WEIGHT),
                self.total_weight + u64::from(DEFAULT_WEIGHT),
            ),
        };
        if total == 0 {
            return capacity.max(1);
        }
        ((capacity as u64 * weight / total) as usize).max(1)
    }

    /// Admits one job for `tenant` (registering it at the default weight on
    /// first sight). Returns the tenant's share as the error payload when
    /// the tenant is already at it.
    ///
    /// # Errors
    ///
    /// Returns `Err(share)` when the tenant's queued jobs have reached its
    /// weighted share of `capacity`.
    pub fn admit(&mut self, tenant: &str, capacity: usize) -> Result<(), usize> {
        self.register(tenant, DEFAULT_WEIGHT);
        let share = self.share(tenant, capacity);
        let gvt = self.gvt;
        let state = self
            .tenants
            .get_mut(tenant)
            .unwrap_or_else(|| unreachable!("tenant registered above"));
        if state.queued >= share {
            state.rejected_quota += 1;
            return Err(share);
        }
        if state.queued == 0 {
            // Returning from idle: no banked credit.
            state.pass = state.pass.max(gvt);
        }
        state.queued += 1;
        Ok(())
    }

    /// Un-admits one job for `tenant` without dispatching it: admission
    /// looks (admit, then cancel) before it builds the job, and admits for
    /// real when it pushes.
    pub fn cancel(&mut self, tenant: &str) {
        if let Some(state) = self.tenants.get_mut(tenant) {
            state.queued = state.queued.saturating_sub(1);
        }
    }

    /// The tenant's current virtual pass; the batcher dispatches the queued
    /// job whose tenant's pass is lowest. Unknown tenants sort last.
    pub fn pass_of(&self, tenant: &str) -> u64 {
        self.tenants.get(tenant).map_or(u64::MAX, |t| t.pass)
    }

    /// Records the dispatch of one queued job carrying `candidates`
    /// candidates: decrements the tenant's queue count and advances its
    /// pass by `candidates * STRIDE / weight`.
    pub fn on_dispatch(&mut self, tenant: &str, candidates: usize) {
        if let Some(state) = self.tenants.get_mut(tenant) {
            state.queued = state.queued.saturating_sub(1);
            self.gvt = self.gvt.max(state.pass);
            let cost = (candidates.max(1) as u64).saturating_mul(STRIDE) / u64::from(state.weight);
            state.pass = state.pass.saturating_add(cost);
            state.dispatched_jobs += 1;
            state.dispatched_candidates += candidates as u64;
        }
    }

    /// Records a job answered at admission from the score cache: the tenant
    /// is registered (default weight on first sight) and the job and its
    /// `candidates` are counted as answered. Its virtual pass does not
    /// advance and no queue slot is taken — the pass meters batcher time and
    /// the quota bounds queued jobs, and a cache hit consumes neither.
    pub fn on_answered(&mut self, tenant: &str, candidates: usize) {
        self.register(tenant, DEFAULT_WEIGHT);
        if let Some(state) = self.tenants.get_mut(tenant) {
            state.dispatched_jobs += 1;
            state.dispatched_candidates += candidates as u64;
        }
    }

    /// Point-in-time per-tenant rows, sorted by tenant name.
    pub fn snapshot(&self) -> Vec<TenantStatsSnapshot> {
        self.tenants
            .iter()
            .map(|(name, t)| TenantStatsSnapshot {
                tenant: name.clone(),
                weight: t.weight,
                queued: t.queued,
                dispatched_jobs: t.dispatched_jobs,
                dispatched_candidates: t.dispatched_candidates,
                rejected_quota: t.rejected_quota,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::disallowed_methods)]
    use super::*;

    fn policy(classes: &[(&str, u32)]) -> TenantPolicy {
        TenantPolicy::with_classes(
            classes
                .iter()
                .map(|&(n, w)| TenantSpec::new(n, w))
                .collect(),
        )
    }

    #[test]
    fn single_default_tenant_owns_the_whole_queue() {
        let mut t = TenantTable::new(&TenantPolicy::default());
        for _ in 0..100 {
            t.admit(DEFAULT_TENANT, 100).expect("whole queue available");
        }
        assert_eq!(t.admit(DEFAULT_TENANT, 100), Err(100));
    }

    #[test]
    fn weighted_shares_bound_each_tenant() {
        let mut t = TenantTable::new(&policy(&[("heavy", 3), ("light", 1)]));
        assert_eq!(t.share("heavy", 100), 75);
        assert_eq!(t.share("light", 100), 25);
        for _ in 0..75 {
            t.admit("heavy", 100).expect("within share");
        }
        assert_eq!(t.admit("heavy", 100), Err(75));
        // The other tenant's share is untouched by heavy's overload.
        for _ in 0..25 {
            t.admit("light", 100).expect("own share");
        }
        let snap = t.snapshot();
        assert_eq!(snap[0].tenant, "heavy");
        assert_eq!(snap[0].rejected_quota, 1);
    }

    #[test]
    fn unknown_tenant_auto_registers_with_default_weight() {
        let mut t = TenantTable::new(&policy(&[("a", 1)]));
        t.admit("newcomer", 10).expect("auto-registered");
        assert_eq!(t.snapshot().len(), 2);
        assert_eq!(t.pass_of("newcomer"), 0);
        assert_eq!(t.pass_of("missing"), u64::MAX);
    }

    #[test]
    fn stride_passes_favor_light_tenants() {
        let mut t = TenantTable::new(&policy(&[("greedy", 1), ("light", 1)]));
        t.admit("greedy", 100).expect("admit");
        t.admit("light", 100).expect("admit");
        // Greedy dispatches 512 candidates; light dispatches 16.
        t.on_dispatch("greedy", 512);
        t.on_dispatch("light", 16);
        assert!(
            t.pass_of("light") < t.pass_of("greedy"),
            "light tenant must be scheduled next"
        );
    }

    #[test]
    fn idle_tenant_cannot_bank_credit() {
        let mut t = TenantTable::new(&policy(&[("busy", 1), ("idle", 1)]));
        t.admit("busy", 100).expect("admit");
        t.on_dispatch("busy", 1000);
        // "idle" was registered at pass 0 but never queued; when it shows
        // up, it restarts at the global virtual time, not at 0.
        t.admit("idle", 100).expect("admit");
        assert!(t.pass_of("idle") >= t.pass_of("busy").saturating_sub(STRIDE * 1000));
    }

    #[test]
    fn answered_at_admission_counts_the_job_and_nothing_else() {
        let mut t = TenantTable::new(&policy(&[("queued", 1)]));
        t.on_answered("cached", 16);
        t.on_answered("queued", 16);
        let snap = t.snapshot();
        for row in &snap {
            assert_eq!((row.dispatched_jobs, row.dispatched_candidates), (1, 16));
            assert_eq!((row.queued, row.weight), (0, 1));
            assert_eq!(t.pass_of(&row.tenant), 0, "a cache hit is not batcher time");
        }
        assert_eq!(
            snap.len(),
            2,
            "first seen through a cache hit, still listed"
        );
    }
}
