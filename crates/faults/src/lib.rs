//! Deterministic fault injection for the ClusterKV serving stack.
//!
//! Real serving fleets lose transfers, corrupt pages and run out of memory;
//! a deterministic simulation must model those events without giving up a
//! single bit of reproducibility. This crate provides the three pieces the
//! recovery seams in `kvcache`/`model`/`sched` build on:
//!
//! * [`FaultPlan`] / [`FaultInjector`] — a seeded fault schedule. Every
//!   decision is a pure function of `(seed, site, step)`: no wall clock, no
//!   global RNG, no state. Two runs with the same plan inject exactly the
//!   same faults at exactly the same points, at any thread count.
//! * [`Fnv64`] — a hand-rolled FNV-1a page checksum. Each
//!   absorption step `h ← (h ⊕ b) · prime` is a bijection of the state for a
//!   fixed byte and injective in the byte for a fixed state, so flipping any
//!   single byte of a page is *guaranteed* to change the checksum — the
//!   property the detect-and-repair machinery (and its proptest) leans on.
//! * [`IntegrityStats`] — per-session counters for injected/detected/
//!   repaired corruptions and retried transfers.
//!
//! The cardinal invariant, shared with every other subsystem here: faults
//! may move **bytes and time**, never **what attends**. Injected corruption
//! flips stored checksums (the model of a damaged transfer), repairs
//! re-fetch from the pristine backing store, and retries charge the modeled
//! clock — token streams are byte-identical faults-on vs faults-off.

#![warn(missing_docs)]

use serde::{Deserialize, Serialize};

// ------------------------------------------------------------- checksums

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime (odd, hence invertible modulo 2^64).
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// XOR mask injection hooks apply to a sealed checksum to model in-memory
/// corruption. Non-zero, so a corrupted checksum never verifies; XOR, so the
/// damage is deterministic and involutive (corrupting twice restores).
pub const CORRUPTION_MASK: u64 = 0xdead_beef_0bad_f00d;

/// Streaming FNV-1a 64-bit hasher for page contents.
///
/// # Examples
///
/// ```
/// use clusterkv_faults::Fnv64;
/// let mut h = Fnv64::new();
/// h.write_bytes(b"page");
/// h.write_f32s(&[1.0, -2.5]);
/// assert_ne!(h.finish(), Fnv64::new().finish());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv64 {
    state: u64,
}

impl Fnv64 {
    /// Fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        Self { state: FNV_OFFSET }
    }

    /// Absorb one byte: `h ← (h ⊕ b) · prime`.
    #[inline]
    pub fn write_u8(&mut self, b: u8) {
        self.state = (self.state ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }

    /// Absorb a byte slice.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u8(b);
        }
    }

    /// Absorb a `u64` as its little-endian bytes.
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Absorb an `f32` slice through the bit patterns (little-endian), so
    /// the checksum commits to the exact stored representation including
    /// signed zeros and NaN payloads.
    pub fn write_f32s(&mut self, values: &[f32]) {
        for &v in values {
            self.write_bytes(&v.to_bits().to_le_bytes());
        }
    }

    /// The current digest.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Self::new()
    }
}

// ------------------------------------------------------------ fault sites

/// Named injection points. Each site draws from its own decision stream so
/// turning one fault class on never perturbs another's schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum FaultSite {
    /// Demand recall of paged-out KV during a decode step.
    DemandRecall,
    /// Adoption of shared prefix pages / selector state from the store.
    PrefixAdoption,
    /// Whole-session fault: the scheduler must checkpoint-release and retry.
    SessionCrash,
    /// Capacity-shrink pressure event (the degradation-ladder trigger).
    Pressure,
}

impl FaultSite {
    /// Stable display name (used in bench output and diagnostics).
    pub fn name(self) -> &'static str {
        match self {
            FaultSite::DemandRecall => "demand-recall",
            FaultSite::PrefixAdoption => "prefix-adoption",
            FaultSite::SessionCrash => "session-crash",
            FaultSite::Pressure => "pressure",
        }
    }

    /// Per-site salt separating the decision streams.
    fn salt(self) -> u64 {
        match self {
            FaultSite::DemandRecall => 0x9e37_79b9_7f4a_7c15,
            FaultSite::PrefixAdoption => 0xd6e8_feb8_6659_fd93,
            FaultSite::SessionCrash => 0xa076_1d64_95b5_d3db,
            FaultSite::Pressure => 0xe703_7ed1_a0b4_28db,
        }
    }
}

// ------------------------------------------------------------- fault plan

/// The seeded fault schedule: per-class rates plus recovery knobs. The
/// default ([`FaultPlan::disabled`]) injects nothing, and every seam in the
/// stack treats it as a true no-op — zero retried bytes, zero backoff —
/// so a disabled plan is bit-identical to no plan at all.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Seed of every decision stream.
    pub seed: u64,
    /// Per-attempt probability that a modeled transfer fails and must be
    /// retransmitted, in `[0, 1)`.
    pub transfer_failure_rate: f64,
    /// Per-access probability that a page arrives corrupted (detected by
    /// its checksum and repaired from backing), in `[0, 1)`.
    pub corruption_rate: f64,
    /// Per-(request, decode step) probability of a whole-session fault the
    /// scheduler must retry, in `[0, 1)`.
    pub crash_rate: f64,
    /// Per-tick probability of a capacity-shrink pressure event, in `[0, 1)`.
    pub pressure_rate: f64,
    /// Effective-capacity factor during a pressure event, in `(0, 1]`.
    pub pressure_floor: f64,
    /// Cap on modeled attempts per transfer (>= 1; 1 disables retries).
    pub max_transfer_attempts: u32,
    /// Modeled delay before the first retransmit, in seconds; attempt `k`
    /// waits `backoff_base * 2^(k-1)` (see [`backoff_seconds`]).
    pub backoff_base: f64,
}

impl FaultPlan {
    /// The no-fault plan: every rate zero, retries capped at one attempt.
    pub fn disabled() -> Self {
        Self {
            seed: 0,
            transfer_failure_rate: 0.0,
            corruption_rate: 0.0,
            crash_rate: 0.0,
            pressure_rate: 0.0,
            pressure_floor: 1.0,
            max_transfer_attempts: 1,
            backoff_base: 0.0,
        }
    }

    /// A uniform plan scaling every fault class from one knob: transfers
    /// fail and pressure strikes at `rate`, corruption at `rate / 2`, whole
    /// sessions crash at `rate / 8` (crashes are the rarest and most
    /// expensive real-world event class).
    pub fn uniform(seed: u64, rate: f64) -> Self {
        Self {
            seed,
            transfer_failure_rate: rate,
            corruption_rate: rate / 2.0,
            crash_rate: rate / 8.0,
            pressure_rate: rate,
            pressure_floor: 0.5,
            max_transfer_attempts: 4,
            backoff_base: 50e-6,
        }
    }

    /// Set the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Whether any fault class can fire.
    pub fn enabled(&self) -> bool {
        self.transfer_failure_rate > 0.0
            || self.corruption_rate > 0.0
            || self.crash_rate > 0.0
            || self.pressure_rate > 0.0
    }

    /// Validate the plan.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field: rates must be
    /// finite and in `[0, 1)`, the pressure floor in `(0, 1]`, at least one
    /// transfer attempt, and a finite non-negative backoff base.
    pub fn validate(&self) -> Result<(), String> {
        for (name, rate) in [
            ("transfer_failure_rate", self.transfer_failure_rate),
            ("corruption_rate", self.corruption_rate),
            ("crash_rate", self.crash_rate),
            ("pressure_rate", self.pressure_rate),
        ] {
            if !rate.is_finite() || !(0.0..1.0).contains(&rate) {
                return Err(format!("{name} must be finite and in [0, 1), got {rate}"));
            }
        }
        if !(self.pressure_floor.is_finite()
            && self.pressure_floor > 0.0
            && self.pressure_floor <= 1.0)
        {
            return Err(format!(
                "pressure_floor must be in (0, 1], got {}",
                self.pressure_floor
            ));
        }
        if self.max_transfer_attempts == 0 {
            return Err("max_transfer_attempts must be at least 1".to_string());
        }
        if !self.backoff_base.is_finite() || self.backoff_base < 0.0 {
            return Err(format!(
                "backoff_base must be finite and non-negative, got {}",
                self.backoff_base
            ));
        }
        Ok(())
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::disabled()
    }
}

// ---------------------------------------------------------------- injector

/// Lanes separating the draws one `(site, step)` pair may need (an attempt
/// sequence and a corruption coin must not share a stream).
const LANE_ATTEMPT: u64 = 1;
const LANE_CORRUPT: u64 = 2;
const LANE_EVENT: u64 = 3;

/// Deterministic fault oracle over a [`FaultPlan`]. Stateless: every query
/// is a pure function of `(plan.seed, site, step, lane)` through a
/// splitmix64-style finalizer, so queries commute, repeat and parallelize
/// freely without changing a single decision.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultInjector {
    plan: FaultPlan,
}

impl FaultInjector {
    /// Injector over `plan`.
    pub fn new(plan: FaultPlan) -> Self {
        Self { plan }
    }

    /// The plan being executed.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Whether any fault class can fire (a disabled injector is a no-op).
    pub fn enabled(&self) -> bool {
        self.plan.enabled()
    }

    /// splitmix64 finalizer over the combined decision key.
    fn mix(&self, site: FaultSite, step: u64, lane: u64) -> u64 {
        let mut z = self
            .plan
            .seed
            .wrapping_add(site.salt())
            .wrapping_add(step.wrapping_mul(0x9e37_79b9_7f4a_7c15))
            .wrapping_add(lane.wrapping_mul(0xbf58_476d_1ce4_e5b9));
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[0, 1)` for `(site, step, lane)` — 53 mantissa bits.
    fn u01(&self, site: FaultSite, step: u64, lane: u64) -> f64 {
        (self.mix(site, step, lane) >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Modeled attempts for one transfer at `(site, step)`: a geometric
    /// series of failures at the plan's per-attempt rate, capped at
    /// `max_transfer_attempts`. Always at least 1 (the attempt that
    /// succeeds); exactly 1 when retries are disabled or the coin never
    /// lands on failure.
    pub fn transfer_attempts(&self, site: FaultSite, step: u64) -> u32 {
        let rate = self.plan.transfer_failure_rate;
        if rate <= 0.0 {
            return 1;
        }
        let mut attempts = 1u32;
        while attempts < self.plan.max_transfer_attempts
            && self.u01(
                site,
                step,
                LANE_ATTEMPT.wrapping_add(u64::from(attempts) << 8),
            ) < rate
        {
            attempts += 1;
        }
        attempts
    }

    /// Whether the page accessed at `(site, step)` arrives corrupted.
    pub fn should_corrupt(&self, site: FaultSite, step: u64) -> bool {
        self.plan.corruption_rate > 0.0
            && self.u01(site, step, LANE_CORRUPT) < self.plan.corruption_rate
    }

    /// Whether the session serving `request` crashes at decode step `step`.
    pub fn should_crash(&self, request: u64, step: u64) -> bool {
        self.plan.crash_rate > 0.0
            && self.u01(
                FaultSite::SessionCrash,
                request
                    .wrapping_mul(0x2545_f491_4f6c_dd1d)
                    .wrapping_add(step),
                LANE_EVENT,
            ) < self.plan.crash_rate
    }

    /// Effective-capacity factor at scheduler tick `tick`: `1.0` normally,
    /// the plan's `pressure_floor` during a pressure event.
    pub fn pressure_factor(&self, tick: u64) -> f64 {
        if self.plan.pressure_rate > 0.0
            && self.u01(FaultSite::Pressure, tick, LANE_EVENT) < self.plan.pressure_rate
        {
            self.plan.pressure_floor
        } else {
            1.0
        }
    }
}

// ----------------------------------------------------------------- backoff

/// Total modeled delay charged for a transfer that took `attempts` attempts
/// with first-retry delay `base`: retry `k` waits `base * 2^(k-1)`, so the
/// sum over `attempts - 1` retries telescopes to
/// `base * (2^(attempts-1) - 1)`. Zero when the first attempt succeeded.
pub fn backoff_seconds(base: f64, attempts: u32) -> f64 {
    if attempts <= 1 || base <= 0.0 {
        return 0.0;
    }
    let retries = attempts - 1;
    base * ((1u64 << retries.min(62)) - 1) as f64
}

// ---------------------------------------------------------- integrity stats

/// Per-session integrity and recovery accounting, merged upward into
/// session reports exactly like the kvcache counter family.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct IntegrityStats {
    /// Corruptions the fault plan injected.
    pub corruptions_injected: u64,
    /// Corruptions a checksum verification caught.
    pub corruptions_detected: u64,
    /// Detected corruptions repaired from the pristine backing copy.
    pub corruptions_repaired: u64,
    /// Extra transfer attempts beyond the first (retransmits).
    pub transfer_retries: u64,
    /// Bytes moved by retransmits and repair re-fetches.
    pub retried_bytes: u64,
    /// Modeled backoff delay charged to the clock, in seconds.
    pub backoff_seconds: f64,
    /// Checksum verifications that passed (clean pages).
    pub verifications: u64,
}

impl IntegrityStats {
    /// New, zeroed statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one injected corruption.
    pub fn record_injected(&mut self) {
        self.corruptions_injected += 1;
    }

    /// Record one checksum mismatch caught by verification.
    pub fn record_detected(&mut self) {
        self.corruptions_detected += 1;
    }

    /// Record one repair re-fetching `bytes` from backing.
    pub fn record_repaired(&mut self, bytes: u64) {
        self.corruptions_repaired += 1;
        self.retried_bytes += bytes;
    }

    /// Record a clean checksum verification.
    pub fn record_verified(&mut self) {
        self.verifications += 1;
    }

    /// Record `retries` retransmits re-moving `bytes`, waiting `backoff`
    /// modeled seconds in total.
    pub fn record_retries(&mut self, retries: u64, bytes: u64, backoff: f64) {
        self.transfer_retries += retries;
        self.retried_bytes += bytes;
        self.backoff_seconds += backoff;
    }

    /// Injected corruptions that no verification caught. The exp_faults
    /// gate requires this to be zero: every corruption is detected at its
    /// access site before anything could attend to damaged bytes.
    pub fn silent_corruptions(&self) -> u64 {
        self.corruptions_injected
            .saturating_sub(self.corruptions_detected)
    }

    /// Merge another set of statistics into this one.
    pub fn merge(&mut self, other: &IntegrityStats) {
        self.corruptions_injected += other.corruptions_injected;
        self.corruptions_detected += other.corruptions_detected;
        self.corruptions_repaired += other.corruptions_repaired;
        self.transfer_retries += other.transfer_retries;
        self.retried_bytes += other.retried_bytes;
        self.backoff_seconds += other.backoff_seconds;
        self.verifications += other.verifications;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// FNV-1a 64 of `bytes` in one write.
    fn fnv1a64(bytes: &[u8]) -> u64 {
        let mut h = Fnv64::new();
        h.write_bytes(bytes);
        h.finish()
    }

    /// FNV-1a 64 of the bit patterns of `values` in one write.
    fn fnv1a64_f32(values: &[f32]) -> u64 {
        let mut h = Fnv64::new();
        h.write_f32s(values);
        h.finish()
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn fnv_f32_commits_to_bit_patterns() {
        // 0.0 and -0.0 compare equal as floats but hash differently: the
        // checksum covers the stored representation, not float semantics.
        assert_ne!(fnv1a64_f32(&[0.0]), fnv1a64_f32(&[-0.0]));
        assert_eq!(fnv1a64_f32(&[1.5, -2.0]), fnv1a64_f32(&[1.5, -2.0]));
    }

    #[test]
    fn streaming_and_oneshot_agree() {
        let mut h = Fnv64::new();
        h.write_bytes(b"he");
        h.write_bytes(b"llo");
        assert_eq!(h.finish(), fnv1a64(b"hello"));
        let mut w = Fnv64::new();
        w.write_u64(0x0102_0304_0506_0708);
        assert_eq!(
            w.finish(),
            fnv1a64(&[0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01])
        );
    }

    #[test]
    fn disabled_plan_is_a_no_op() {
        let inj = FaultInjector::new(FaultPlan::disabled());
        assert!(!inj.enabled());
        for step in 0..200 {
            assert_eq!(inj.transfer_attempts(FaultSite::DemandRecall, step), 1);
            assert!(!inj.should_corrupt(FaultSite::PrefixAdoption, step));
            assert!(!inj.should_crash(7, step));
            assert_eq!(inj.pressure_factor(step), 1.0);
        }
    }

    #[test]
    fn plan_validation_rejects_bad_fields() {
        assert!(FaultPlan::disabled().validate().is_ok());
        assert!(FaultPlan::uniform(1, 0.2).validate().is_ok());
        let mut p = FaultPlan::uniform(1, 0.2);
        p.corruption_rate = 1.0;
        assert!(p.validate().is_err());
        let mut p = FaultPlan::uniform(1, 0.2);
        p.transfer_failure_rate = f64::NAN;
        assert!(p.validate().is_err());
        let mut p = FaultPlan::uniform(1, 0.2);
        p.pressure_floor = 0.0;
        assert!(p.validate().is_err());
        let mut p = FaultPlan::uniform(1, 0.2);
        p.max_transfer_attempts = 0;
        assert!(p.validate().is_err());
        let mut p = FaultPlan::uniform(1, 0.2);
        p.backoff_base = -1.0;
        assert!(p.validate().is_err());
    }

    #[test]
    fn decisions_are_deterministic_and_seed_sensitive() {
        let a = FaultInjector::new(FaultPlan::uniform(11, 0.3));
        let b = FaultInjector::new(FaultPlan::uniform(11, 0.3));
        let c = FaultInjector::new(FaultPlan::uniform(12, 0.3));
        let mut diverged = false;
        for step in 0..500 {
            assert_eq!(
                a.transfer_attempts(FaultSite::DemandRecall, step),
                b.transfer_attempts(FaultSite::DemandRecall, step)
            );
            assert_eq!(
                a.should_corrupt(FaultSite::PrefixAdoption, step),
                b.should_corrupt(FaultSite::PrefixAdoption, step)
            );
            if a.should_corrupt(FaultSite::PrefixAdoption, step)
                != c.should_corrupt(FaultSite::PrefixAdoption, step)
            {
                diverged = true;
            }
        }
        assert!(diverged, "different seeds must schedule different faults");
    }

    #[test]
    fn sites_draw_from_independent_streams() {
        let inj = FaultInjector::new(FaultPlan::uniform(5, 0.4));
        let mut differs = false;
        for step in 0..100 {
            if inj.should_corrupt(FaultSite::DemandRecall, step)
                != inj.should_corrupt(FaultSite::PrefixAdoption, step)
            {
                differs = true;
                break;
            }
        }
        assert!(differs, "sites must not mirror each other's schedule");
    }

    #[test]
    fn attempts_respect_the_cap_and_the_rate() {
        let mut plan = FaultPlan::uniform(3, 0.6);
        plan.max_transfer_attempts = 3;
        let inj = FaultInjector::new(plan);
        let mut total = 0u64;
        let mut retried = 0u64;
        for step in 0..2000 {
            let a = inj.transfer_attempts(FaultSite::DemandRecall, step);
            assert!((1..=3).contains(&a));
            total += u64::from(a);
            if a > 1 {
                retried += 1;
            }
        }
        // At a 60% failure rate most transfers retry at least once.
        assert!(retried > 800, "retried only {retried} of 2000");
        assert!(total > 2000);
    }

    #[test]
    fn pressure_factor_is_floor_or_one() {
        let inj = FaultInjector::new(FaultPlan::uniform(9, 0.5));
        let mut events = 0;
        for tick in 0..1000 {
            let f = inj.pressure_factor(tick);
            assert!(f == 1.0 || f == 0.5, "factor {f}");
            if f < 1.0 {
                events += 1;
            }
        }
        assert!(events > 200, "only {events} pressure events at rate 0.5");
    }

    #[test]
    fn backoff_telescopes_exponentially() {
        assert_eq!(backoff_seconds(1e-3, 0), 0.0);
        assert_eq!(backoff_seconds(1e-3, 1), 0.0);
        assert_eq!(backoff_seconds(1e-3, 2), 1e-3);
        assert_eq!(backoff_seconds(1e-3, 3), 3e-3);
        assert_eq!(backoff_seconds(1e-3, 4), 7e-3);
        assert_eq!(backoff_seconds(0.0, 4), 0.0);
    }

    #[test]
    fn integrity_accessors_guard_empty_reports() {
        let s = IntegrityStats::new();
        assert_eq!(s.silent_corruptions(), 0);
    }

    #[test]
    fn integrity_stats_accumulate_and_merge() {
        let mut a = IntegrityStats::new();
        a.record_injected();
        a.record_detected();
        a.record_repaired(64);
        a.record_verified();
        a.record_retries(2, 128, 3e-3);
        let mut b = IntegrityStats::new();
        b.record_injected();
        a.merge(&b);
        assert_eq!(a.corruptions_injected, 2);
        assert_eq!(a.corruptions_detected, 1);
        assert_eq!(a.corruptions_repaired, 1);
        assert_eq!(a.silent_corruptions(), 1);
        assert_eq!(a.transfer_retries, 2);
        assert_eq!(a.retried_bytes, 192);
        assert_eq!(a.verifications, 1);
        assert!((a.backoff_seconds - 3e-3).abs() < 1e-12);
    }

    proptest! {
        // The single-byte-flip guarantee: each FNV-1a step is a bijection
        // of the running state, so two equal-length streams differing in
        // exactly one byte can never collide.
        #[test]
        fn flipping_any_single_byte_changes_the_checksum(
            bytes in proptest::collection::vec(0u8..255, 1..256),
            idx in 0usize..4096,
            flip in 1u8..255,
        ) {
            let i = idx % bytes.len();
            let mut flipped = bytes.clone();
            flipped[i] ^= flip;
            prop_assert_ne!(fnv1a64(&bytes), fnv1a64(&flipped));
        }

        // Same guarantee through the f32 path (one mantissa/sign/exponent
        // bit anywhere in the page).
        #[test]
        fn flipping_any_f32_bit_changes_the_checksum(
            words in proptest::collection::vec(0u32..u32::MAX, 1..64),
            idx in 0usize..4096,
            bit in 0u32..32,
        ) {
            let values: Vec<f32> = words.iter().map(|&w| f32::from_bits(w)).collect();
            let i = idx % values.len();
            let mut flipped = words.clone();
            flipped[i] ^= 1 << bit;
            let flipped: Vec<f32> = flipped.iter().map(|&w| f32::from_bits(w)).collect();
            prop_assert_ne!(fnv1a64_f32(&values), fnv1a64_f32(&flipped));
        }

        // Pure-function property: any interleaving, repetition or ordering
        // of queries returns identical decisions.
        #[test]
        fn injector_queries_commute(
            seed in 0u64..u64::MAX,
            steps in proptest::collection::vec(0u64..u64::MAX, 1..32),
        ) {
            let inj = FaultInjector::new(FaultPlan::uniform(seed, 0.3));
            let forward: Vec<u32> = steps.iter()
                .map(|&s| inj.transfer_attempts(FaultSite::DemandRecall, s))
                .collect();
            let mut reversed: Vec<u32> = steps.iter().rev()
                .map(|&s| inj.transfer_attempts(FaultSite::DemandRecall, s))
                .collect();
            reversed.reverse();
            prop_assert_eq!(forward, reversed);
        }

        // Checksum round-trip: hashing is a pure function of the value
        // bits (re-hash == hash), value-at-a-time writes agree with one
        // write of the whole slice, and flipping any single bit of any element is
        // always detected. Single-bit detection is structural for FNV-1a:
        // a bit flip changes exactly one input byte, and for equal-length
        // inputs differing in one byte the folds diverge at that byte and
        // the odd-prime multiply keeps them apart.
        #[test]
        fn checksum_round_trips_and_detects_any_single_bit_flip(
            values in proptest::collection::vec(-1000.0f32..1000.0, 1..64),
            index in 0usize..64,
            bit in 0u32..32,
        ) {
            let sealed = fnv1a64_f32(&values);
            // Round-trip: re-hashing the same bits reproduces the digest.
            prop_assert_eq!(sealed, fnv1a64_f32(&values));
            // Streaming == one-shot.
            let mut h = Fnv64::new();
            for v in &values {
                h.write_f32s(&[*v]);
            }
            prop_assert_eq!(h.finish(), sealed);
            // A single flipped bit must always change the checksum.
            let mut damaged = values.clone();
            let i = index % damaged.len();
            damaged[i] = f32::from_bits(damaged[i].to_bits() ^ (1 << bit));
            prop_assert_ne!(fnv1a64_f32(&damaged), sealed);
        }
    }
}
