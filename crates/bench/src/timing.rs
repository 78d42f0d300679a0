//! Shared wall-clock stopwatch for benchmark binaries.
//!
//! Every bench bin used to open-code `let t = Instant::now(); …
//! t.elapsed()`; this is that helper, hoisted once and routed through
//! the audited [`tdals_obs::clock`] facade so the binaries hold no raw
//! `std::time` clock reads of their own (the determinism lint checks
//! exactly that).

use std::time::Duration;

use tdals_obs::clock;

/// A started wall-clock timer.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    start: clock::Instant,
}

impl Stopwatch {
    /// Starts timing now.
    pub fn start() -> Stopwatch {
        Stopwatch {
            start: clock::now(),
        }
    }

    /// Time since [`Stopwatch::start`].
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Elapsed seconds as an `f64` — the unit every bench document
    /// records.
    pub fn elapsed_s(&self) -> f64 {
        self.elapsed().as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stopwatch_is_monotone() {
        let sw = Stopwatch::start();
        let a = sw.elapsed_s();
        let b = sw.elapsed_s();
        assert!(a >= 0.0);
        assert!(b >= a);
        assert!(!sw.elapsed().as_secs_f64().is_sign_negative());
    }
}
