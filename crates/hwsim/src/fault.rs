//! Deterministic fault injection for the simulated measurement pipeline.
//!
//! Real-hardware measurement is unreliable: TVM/Ansor's measurer routinely
//! hits build errors, device timeouts, driver resets, and noisy outlier
//! latencies, and both the search loop and TenSet's dataset collection are
//! engineered to survive them. The analytical simulator is infallible, so
//! this module re-introduces the failure modes *deterministically*: every
//! fault decision is a pure hash of `(seed, schedule fingerprint, platform
//! salt, attempt)` — the same run always observes the same fault schedule,
//! and a run with all rates at `0.0` observes none at all and is
//! bit-identical to the fault-free path.
//!
//! The only stateful behaviour is device-reset poisoning: a
//! [`InjectedFault::DeviceReset`] leaves the (simulated) device wedged, so
//! the next [`RESET_POISON_K`] measurement attempts — whatever
//! schedule they belong to — also fail with `DeviceReset`. This reproduces
//! the bursty failure cascades a real tuning farm sees after a GPU hang.

use serde::{Deserialize, Serialize};
use tlp_schedule::hash::splitmix64;

use crate::platform::Platform;

/// Per-attempt / per-repeat fault probabilities. All in `[0, 1]`.
///
/// `ZERO` (the default) disables injection entirely; the measurement path is
/// then bit-identical to the historical fault-free code.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultRates {
    /// Probability that a measurement attempt fails to build (transient
    /// compile/link failure — distinct from a schedule that can never
    /// lower).
    pub build_fail: f64,
    /// Probability that a measurement attempt hangs until the timeout
    /// budget expires.
    pub timeout: f64,
    /// Probability that a measurement attempt wedges the device; the next
    /// [`RESET_POISON_K`] attempts also fail.
    pub device_reset: f64,
    /// Per-repeat probability of an outlier latency spike (3–23× the true
    /// latency), the kind MAD filtering exists to reject.
    pub outlier: f64,
    /// Multiplicative per-repeat latency noise amplitude: each repeat is
    /// scaled by a factor drawn uniformly from `[1 - noise, 1 + noise]`.
    pub noise: f64,
}

impl FaultRates {
    /// No injection at all.
    pub const ZERO: FaultRates = FaultRates {
        build_fail: 0.0,
        timeout: 0.0,
        device_reset: 0.0,
        outlier: 0.0,
        noise: 0.0,
    };

    /// A uniform chaos profile: every attempt-level fault class fires with
    /// probability `rate / 3` (so the *total* attempt failure probability is
    /// `rate`), repeats spike as outliers with probability `rate / 2`, and
    /// latency noise has amplitude `rate / 4`.
    pub fn uniform(rate: f64) -> FaultRates {
        FaultRates {
            build_fail: rate / 3.0,
            timeout: rate / 3.0,
            device_reset: rate / 3.0,
            outlier: rate / 2.0,
            noise: rate / 4.0,
        }
    }

    /// Whether every rate is exactly zero (the bit-identical fast path).
    pub fn is_zero(&self) -> bool {
        *self == FaultRates::ZERO
    }

    /// Total probability that one measurement attempt fails outright
    /// (build + timeout + reset), before retries.
    pub fn attempt_failure(&self) -> f64 {
        self.build_fail + self.timeout + self.device_reset
    }
}

/// The failure classes a measurement can be labeled with — the TenSet-style
/// per-record error taxonomy shared by measurement records and dataset
/// records.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FaultClass {
    /// The program failed to build (real lowering failure or injected
    /// transient compile failure).
    BuildError,
    /// The measurement did not finish within the timeout budget.
    Timeout,
    /// The device wedged and had to be reset.
    DeviceReset,
    /// Every repeat was rejected as a latency outlier.
    Outlier,
}

impl std::fmt::Display for FaultClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            FaultClass::BuildError => "build-error",
            FaultClass::Timeout => "timeout",
            FaultClass::DeviceReset => "device-reset",
            FaultClass::Outlier => "outlier",
        };
        f.write_str(s)
    }
}

/// The outcome of one attempt-level fault draw.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InjectedFault {
    /// The attempt proceeds normally.
    None,
    /// Transient build failure.
    BuildFail,
    /// The attempt hangs until the timeout budget expires.
    Timeout,
    /// The device wedges; subsequent attempts are poisoned.
    DeviceReset,
}

impl InjectedFault {
    /// The error class a record is labeled with, `None` for a clean attempt.
    pub fn class(&self) -> Option<FaultClass> {
        match self {
            InjectedFault::None => None,
            InjectedFault::BuildFail => Some(FaultClass::BuildError),
            InjectedFault::Timeout => Some(FaultClass::Timeout),
            InjectedFault::DeviceReset => Some(FaultClass::DeviceReset),
        }
    }
}

/// A uniform draw in `[0, 1)` from a splitmix64 chain over the seed,
/// fingerprint, platform salt and attempt index: an independent draw per
/// decision without any RNG stream to perturb.
fn uniform(words: &[u64]) -> f64 {
    let mut h = 0x5DEECE66Du64;
    for &w in words {
        h = splitmix64(h ^ w);
    }
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Measurement attempts a device reset poisons (the "next K" of the fault
/// taxonomy).
pub const RESET_POISON_K: u32 = 3;

/// Deterministic fault injector for one measurement context (one tuning run
/// or one dataset-collection task on one platform).
///
/// Cheap to construct; hold one per `Measurer`. All decisions are pure
/// functions of the construction seed and the draw coordinates, except the
/// device-reset poison counter (see the module docs).
#[derive(Clone, Debug)]
pub struct FaultModel {
    rates: FaultRates,
    seed: u64,
    platform_salt: u64,
    poisoned: u32,
}

impl FaultModel {
    /// A fault model with the given seed and rates (no platform salt).
    pub fn new(seed: u64, rates: FaultRates) -> FaultModel {
        FaultModel {
            rates,
            seed,
            platform_salt: 0,
            poisoned: 0,
        }
    }

    /// A fault model salted by the platform's quirk seed, so the same
    /// schedule observes an independent fault schedule per platform — the
    /// "seeded per (schedule fingerprint, platform)" contract.
    pub fn for_platform(seed: u64, rates: FaultRates, platform: &Platform) -> FaultModel {
        FaultModel {
            platform_salt: platform.quirk_seed,
            ..FaultModel::new(seed, rates)
        }
    }

    /// A model that never injects anything (the fault-free path).
    pub fn inert() -> FaultModel {
        FaultModel::new(0, FaultRates::ZERO)
    }

    /// The configured rates.
    pub fn rates(&self) -> FaultRates {
        self.rates
    }

    /// Whether this model can never inject a fault. Inert models guarantee
    /// the measurement path is bit-identical to the fault-free code.
    pub fn is_inert(&self) -> bool {
        self.rates.is_zero()
    }

    /// Whether per-repeat latency samples can be perturbed (noise or
    /// outliers); when `false`, repeats are exact and the closed-form
    /// measurement-cost formula applies.
    pub fn perturbs_samples(&self) -> bool {
        self.rates.noise > 0.0 || self.rates.outlier > 0.0
    }

    /// Remaining attempts poisoned by an earlier device reset.
    pub fn poisoned_remaining(&self) -> u32 {
        self.poisoned
    }

    /// Draws the attempt-level fault for measuring the schedule with
    /// fingerprint `fingerprint`, on retry `attempt` (0 = first try).
    ///
    /// Deterministic in `(seed, fingerprint, platform, attempt)` except for
    /// reset poisoning: while a previous reset's poison window is open this
    /// returns [`InjectedFault::DeviceReset`] unconditionally and consumes
    /// one poisoned slot.
    pub fn draw(&mut self, fingerprint: u64, attempt: u32) -> InjectedFault {
        if self.poisoned > 0 {
            self.poisoned -= 1;
            return InjectedFault::DeviceReset;
        }
        if self.rates.attempt_failure() <= 0.0 {
            return InjectedFault::None;
        }
        let u = uniform(&[
            self.seed,
            fingerprint,
            self.platform_salt,
            attempt as u64,
            0xA7,
        ]);
        let r = &self.rates;
        if u < r.build_fail {
            InjectedFault::BuildFail
        } else if u < r.build_fail + r.timeout {
            InjectedFault::Timeout
        } else if u < r.attempt_failure() {
            self.poisoned = RESET_POISON_K;
            InjectedFault::DeviceReset
        } else {
            InjectedFault::None
        }
    }

    /// The multiplicative latency factor for repeat `repeat` of attempt
    /// `attempt`: an outlier spike (3–23×) with probability
    /// [`FaultRates::outlier`], otherwise uniform noise of amplitude
    /// [`FaultRates::noise`]. Exactly `1.0` when the model does not perturb
    /// samples.
    pub fn sample_factor(&self, fingerprint: u64, attempt: u32, repeat: u32) -> f64 {
        if !self.perturbs_samples() {
            return 1.0;
        }
        let coords = [
            self.seed,
            fingerprint,
            self.platform_salt,
            attempt as u64,
            repeat as u64,
            0xF1,
        ];
        let u = uniform(&coords);
        if u < self.rates.outlier {
            // Re-mix for the spike magnitude so it is independent of the
            // trigger draw.
            let m = uniform(&[self.seed, fingerprint, attempt as u64, repeat as u64, 0xF2]);
            3.0 + 20.0 * m
        } else if self.rates.noise > 0.0 {
            let n = uniform(&[self.seed, fingerprint, attempt as u64, repeat as u64, 0xF3]);
            (1.0 + self.rates.noise * (2.0 * n - 1.0)).max(0.05)
        } else {
            1.0
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::disallowed_methods)]
    use super::*;

    #[test]
    fn inert_model_never_injects() {
        let mut m = FaultModel::inert();
        for fp in 0..500u64 {
            assert_eq!(m.draw(fp, 0), InjectedFault::None);
            assert_eq!(m.sample_factor(fp, 0, 0), 1.0);
        }
        assert!(m.is_inert());
        assert!(!m.perturbs_samples());
        assert_eq!(m.poisoned_remaining(), 0);
    }

    #[test]
    fn same_seed_same_rates_same_schedule() {
        let rates = FaultRates::uniform(0.3);
        let mut a = FaultModel::for_platform(7, rates, &Platform::i7_10510u());
        let mut b = FaultModel::for_platform(7, rates, &Platform::i7_10510u());
        for fp in 0..2000u64 {
            assert_eq!(a.draw(fp, 0), b.draw(fp, 0));
            assert_eq!(a.sample_factor(fp, 0, 1), b.sample_factor(fp, 0, 1));
        }
    }

    #[test]
    fn different_platforms_observe_different_schedules() {
        let rates = FaultRates::uniform(0.3);
        let mut a = FaultModel::for_platform(7, rates, &Platform::i7_10510u());
        let mut b = FaultModel::for_platform(7, rates, &Platform::e5_2673());
        let diff = (0..2000u64)
            .filter(|&fp| a.draw(fp, 0) != b.draw(fp, 0))
            .count();
        assert!(diff > 0, "platform salt must decorrelate fault schedules");
    }

    #[test]
    fn rates_are_roughly_respected() {
        let rates = FaultRates {
            build_fail: 0.1,
            timeout: 0.1,
            device_reset: 0.0,
            outlier: 0.0,
            noise: 0.0,
        };
        let mut m = FaultModel::new(3, rates);
        let n = 20_000;
        let mut builds = 0;
        let mut timeouts = 0;
        for fp in 0..n as u64 {
            match m.draw(fp, 0) {
                InjectedFault::BuildFail => builds += 1,
                InjectedFault::Timeout => timeouts += 1,
                _ => {}
            }
        }
        let fb = builds as f64 / n as f64;
        let ft = timeouts as f64 / n as f64;
        assert!((fb - 0.1).abs() < 0.02, "build rate {fb}");
        assert!((ft - 0.1).abs() < 0.02, "timeout rate {ft}");
    }

    #[test]
    fn device_reset_poisons_following_attempts() {
        let rates = FaultRates {
            device_reset: 1.0,
            ..FaultRates::ZERO
        };
        let mut m = FaultModel::new(1, rates);
        assert_eq!(m.draw(42, 0), InjectedFault::DeviceReset);
        assert_eq!(m.poisoned_remaining(), RESET_POISON_K);
        // The next K draws fail regardless of fingerprint, consuming poison.
        for i in 0..RESET_POISON_K {
            let left = m.poisoned_remaining();
            assert_eq!(m.draw(1000 + i as u64, 0), InjectedFault::DeviceReset);
            assert_eq!(m.poisoned_remaining(), left - 1);
        }
    }

    #[test]
    fn outlier_factors_are_spikes_noise_is_bounded() {
        let m = FaultModel::new(
            9,
            FaultRates {
                outlier: 1.0,
                ..FaultRates::ZERO
            },
        );
        for fp in 0..100u64 {
            let f = m.sample_factor(fp, 0, 0);
            assert!((3.0..=23.0).contains(&f), "outlier factor {f}");
        }
        let m = FaultModel::new(
            9,
            FaultRates {
                noise: 0.1,
                ..FaultRates::ZERO
            },
        );
        for fp in 0..100u64 {
            let f = m.sample_factor(fp, 0, 0);
            assert!((0.9..=1.1).contains(&f), "noise factor {f}");
        }
    }
}
