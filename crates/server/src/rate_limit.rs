//! Per-connection admission control: a token bucket that sheds excess
//! load as wire `Busy` *before* the request reaches any engine.
//!
//! This is the outermost tier of the backpressure stack. The inner
//! tiers react to engine state (stall → `Busy`; at slowdown the engine
//! delays each write itself); the token bucket caps what a single
//! connection may *offer* in the first place, so one hot client cannot
//! monopolize the commit path of a shard fleet. Composition order per
//! request:
//!
//! 1. token bucket (this module) — over-rate data ops shed as `Busy`;
//! 2. per-shard stall check — writes to a stalled shard shed as `Busy`;
//! 3. the engine's own slowdown delay, inside the write.
//!
//! Each connection thread owns its bucket outright — refill is computed
//! from elapsed wall time on each take, so there is no shared state, no
//! lock, and no refill timer thread.

use std::time::Instant;

/// Admission-control configuration, applied per connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RateLimitConfig {
    /// Sustained data-operation rate granted to each connection.
    pub ops_per_sec: u64,
    /// Bucket capacity: how large a burst may be admitted at once
    /// after an idle period.
    pub burst: u64,
}

impl RateLimitConfig {
    /// A config allowing `ops_per_sec` sustained, with a burst equal to
    /// one second's allowance.
    pub fn per_sec(ops_per_sec: u64) -> RateLimitConfig {
        RateLimitConfig {
            ops_per_sec,
            burst: ops_per_sec.max(1),
        }
    }
}

/// A classic token bucket: `burst` capacity, refilled continuously at
/// `ops_per_sec`. Time is passed in explicitly so behavior is testable
/// without sleeping.
#[derive(Debug)]
pub struct TokenBucket {
    capacity: f64,
    fill_per_sec: f64,
    tokens: f64,
    last: Instant,
}

impl TokenBucket {
    /// A bucket starting full (a fresh connection may burst
    /// immediately).
    pub fn new(config: RateLimitConfig, now: Instant) -> TokenBucket {
        let capacity = (config.burst.max(1)) as f64;
        TokenBucket {
            capacity,
            fill_per_sec: config.ops_per_sec as f64,
            tokens: capacity,
            last: now,
        }
    }

    /// Take one token if available. `now` must be monotone
    /// non-decreasing across calls (an `Instant` from the caller's
    /// clock); going backwards is treated as zero elapsed time.
    pub fn try_take(&mut self, now: Instant) -> bool {
        let elapsed = now.saturating_duration_since(self.last).as_secs_f64();
        self.last = now;
        self.tokens = (self.tokens + elapsed * self.fill_per_sec).min(self.capacity);
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn burst_admits_then_sheds() {
        let t0 = Instant::now();
        let mut b = TokenBucket::new(
            RateLimitConfig {
                ops_per_sec: 10,
                burst: 3,
            },
            t0,
        );
        assert!(b.try_take(t0));
        assert!(b.try_take(t0));
        assert!(b.try_take(t0));
        assert!(!b.try_take(t0), "burst exhausted with no time passing");
    }

    #[test]
    fn refill_restores_admission_at_the_configured_rate() {
        let t0 = Instant::now();
        let mut b = TokenBucket::new(
            RateLimitConfig {
                ops_per_sec: 10,
                burst: 1,
            },
            t0,
        );
        assert!(b.try_take(t0));
        assert!(!b.try_take(t0));
        // 10 ops/sec -> one token every 100ms.
        assert!(!b.try_take(t0 + Duration::from_millis(50)));
        assert!(b.try_take(t0 + Duration::from_millis(160)));
        assert!(!b.try_take(t0 + Duration::from_millis(170)));
    }

    #[test]
    fn refill_caps_at_burst() {
        let t0 = Instant::now();
        let mut b = TokenBucket::new(RateLimitConfig::per_sec(1000), t0);
        // A long idle period must not bank more than `burst` tokens.
        let later = t0 + Duration::from_secs(3600);
        for _ in 0..1000 {
            assert!(b.try_take(later));
        }
        assert!(!b.try_take(later));
    }

    #[test]
    fn per_sec_config_defaults_burst_to_rate() {
        let c = RateLimitConfig::per_sec(250);
        assert_eq!(c.burst, 250);
        // Degenerate zero rate still has a usable bucket of one.
        assert_eq!(RateLimitConfig::per_sec(0).burst, 1);
    }
}
