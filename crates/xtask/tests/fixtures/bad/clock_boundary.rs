//! Known-bad fixture for `clock-boundary`: exactly three findings.
//!
//! 1. `Instant::now` inside a `Clock` impl
//! 2. `SystemTime` inside a `Clock` impl
//! 3. `.elapsed()` on a stored origin inside a `Clock` impl
//!
//! The explicit-path analyzer runs fixtures under the strict context
//! (crate `core`, a library crate), so every real-time read inside an
//! `impl Clock` body is a boundary violation. `SteadyClock` at the
//! bottom is the sanctioned library shape — a constant — and must stay
//! clean. The token rule `wall-clock` also fires, three times: on the
//! `use`, `Instant::now` and `SystemTime::now`.

use std::time::{Instant, SystemTime, UNIX_EPOCH};

struct BadInstantClock;

impl Clock for BadInstantClock {
    fn now_micros(&self) -> u64 {
        let t = Instant::now();
        let _ = t;
        0
    }
}

struct BadSystemClock;

impl Clock for BadSystemClock {
    fn now_micros(&self) -> u64 {
        match SystemTime::now().duration_since(UNIX_EPOCH) {
            Ok(d) => d.as_micros() as u64,
            Err(_) => 0,
        }
    }
}

struct BadOriginClock {
    origin: Instant,
}

impl Clock for BadOriginClock {
    fn now_micros(&self) -> u64 {
        self.origin.elapsed().as_micros() as u64
    }
}

struct SteadyClock;

impl Clock for SteadyClock {
    fn now_micros(&self) -> u64 {
        0
    }
}
