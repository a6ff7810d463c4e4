//! Deterministic capped-exponential retry backoff.
//!
//! The transport layer ([`crate::frame`]) turns hung peers into typed
//! timeouts; this module decides *when to try again*. Two properties
//! matter for a serving fleet:
//!
//! - **Capped exponential growth** — a replica that stays dead is probed
//!   less and less often, up to a cap, so reconnection attempts never
//!   dominate the coordinator's time.
//! - **Deterministic jitter** — attempts are spread out so replicas that
//!   died together do not thunder back together, but the spread comes
//!   from a seeded [splitmix64] hash of `(seed, salt, attempt)`, **not**
//!   from `SystemTime` or a global RNG. The same seed always yields the
//!   same schedule, which is what lets the seeded fleet simulator
//!   (`tests/common/sim.rs`) replay a failure schedule bit-for-bit.
//!
//! [`RetryPolicy::backoff`] gives the schedule in wall-clock time for
//! blocking recovery loops; [`RetryPolicy::backoff_ticks`] gives the
//! identical shape in *ticks* — one tick per retry opportunity (a gather
//! or heartbeat) — for background rejoin gating that must not involve a
//! clock at all.
//!
//! [splitmix64]: https://prng.di.unimi.it/splitmix64.c

use std::time::Duration;

/// SplitMix64 finalizer: a cheap, well-distributed 64-bit mix used as
/// the deterministic jitter source.
pub(crate) fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Capped exponential backoff with deterministic seeded jitter.
///
/// `base` is the first delay, doubled per attempt and capped at `cap`;
/// jitter adds up to half of the pre-jitter delay, derived from
/// `(jitter_seed, salt, attempt)` only. `max_attempts` bounds *blocking*
/// recovery loops (how long a caller may stall inside one operation);
/// background rejoin probing is unbounded by design — a replica that
/// comes back after an hour should still heal the fleet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Delay of the first retry, before jitter.
    pub base: Duration,
    /// Upper bound on the pre-jitter delay.
    pub cap: Duration,
    /// Attempt budget for blocking recovery inside one operation.
    pub max_attempts: u32,
    /// Seed for the deterministic jitter hash.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            base: Duration::from_millis(25),
            cap: Duration::from_secs(1),
            max_attempts: 4,
            jitter_seed: 0xF1_4E_05_EE_D0,
        }
    }
}

impl RetryPolicy {
    /// Pre-jitter delay for `attempt` (1-based): `base * 2^(attempt-1)`,
    /// capped at `cap`.
    fn raw_delay(&self, attempt: u32) -> Duration {
        let shift = attempt.saturating_sub(1).min(32);
        let nanos = (self.base.as_nanos() as u64).saturating_mul(1u64 << shift.min(63));
        Duration::from_nanos(nanos).min(self.cap)
    }

    /// Wall-clock delay before retry number `attempt` (1-based). `salt`
    /// distinguishes retry streams (e.g. one per replica) so they spread
    /// apart; the jitter adds up to half of the pre-jitter delay and is a
    /// pure function of `(jitter_seed, salt, attempt)`.
    pub fn backoff(&self, attempt: u32, salt: u64) -> Duration {
        let raw = self.raw_delay(attempt);
        let half = raw.as_nanos() as u64 / 2;
        if half == 0 {
            return raw;
        }
        let j = splitmix64(self.jitter_seed ^ salt.rotate_left(17) ^ u64::from(attempt)) % half;
        raw + Duration::from_nanos(j)
    }

    /// Clock-free analogue of [`RetryPolicy::backoff`]: the number of
    /// retry *opportunities* (ticks) to skip before attempt `attempt`.
    /// The exponential shape and the cap ratio mirror the wall-clock
    /// schedule — `cap / base` ticks is the ceiling — and the jitter
    /// source is the same hash, so a seeded run reproduces exactly.
    pub fn backoff_ticks(&self, attempt: u32, salt: u64) -> u64 {
        let cap_ticks =
            (self.cap.as_nanos() / self.base.as_nanos().max(1)).min(u128::from(u64::MAX)) as u64;
        let cap_ticks = cap_ticks.max(1);
        let shift = attempt.saturating_sub(1).min(63);
        let raw = (1u64 << shift).min(cap_ticks);
        let half = raw / 2;
        if half == 0 {
            return raw;
        }
        let j = splitmix64(self.jitter_seed ^ salt.rotate_left(17) ^ u64::from(attempt)) % half;
        raw + j
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy(seed: u64) -> RetryPolicy {
        RetryPolicy {
            base: Duration::from_millis(10),
            cap: Duration::from_millis(640),
            max_attempts: 5,
            jitter_seed: seed,
        }
    }

    #[test]
    fn backoff_is_deterministic_for_a_seed() {
        let p = policy(42);
        let a: Vec<Duration> = (1..=10).map(|i| p.backoff(i, 7)).collect();
        let b: Vec<Duration> = (1..=10).map(|i| policy(42).backoff(i, 7)).collect();
        assert_eq!(a, b, "same seed, same salt => identical schedule");
    }

    #[test]
    fn backoff_grows_exponentially_then_caps() {
        let p = policy(1);
        for attempt in 1..=12u32 {
            let d = p.backoff(attempt, 0);
            let raw = p.raw_delay(attempt);
            assert!(d >= raw, "jitter only adds");
            assert!(d <= raw + raw / 2, "jitter bounded by half the raw delay");
        }
        // Well past the cap the raw delay stops growing.
        assert_eq!(p.raw_delay(12), p.raw_delay(30));
        assert_eq!(p.raw_delay(12), Duration::from_millis(640));
    }

    #[test]
    fn different_salts_spread_the_schedule() {
        let p = policy(9);
        // At a capped attempt the raw delay is identical, so any spread
        // comes from jitter alone; over many salts at least two differ.
        let delays: Vec<Duration> = (0..16u64).map(|salt| p.backoff(9, salt)).collect();
        assert!(delays.iter().any(|d| *d != delays[0]), "jitter must vary with salt");
    }

    #[test]
    fn ticks_mirror_the_wall_clock_shape() {
        let p = policy(3);
        let t: Vec<u64> = (1..=10).map(|i| p.backoff_ticks(i, 5)).collect();
        assert_eq!(t, (1..=10).map(|i| policy(3).backoff_ticks(i, 5)).collect::<Vec<_>>());
        // Monotone up to the cap region (jitter can only add, and raw
        // doubles), and never more than cap_ratio * 1.5.
        let cap_ticks = 640 / 10;
        for (i, ticks) in t.iter().enumerate() {
            assert!(*ticks >= 1);
            assert!(*ticks <= cap_ticks + cap_ticks / 2, "attempt {} ticks {}", i + 1, ticks);
        }
        assert!(t[5] > t[0], "later attempts wait longer");
    }

    #[test]
    fn degenerate_policies_do_not_panic() {
        let p = RetryPolicy {
            base: Duration::ZERO,
            cap: Duration::ZERO,
            max_attempts: 0,
            jitter_seed: 0,
        };
        assert_eq!(p.backoff(1, 0), Duration::ZERO);
        assert_eq!(p.backoff(u32::MAX, u64::MAX), Duration::ZERO);
        assert!(p.backoff_ticks(1, 0) >= 1, "a tick schedule always advances");
    }
}
