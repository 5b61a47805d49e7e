//! The correctness gate: every operation attempted, every one that
//! failed, and why. Errors, timeouts, `Overloaded` replies and wrong
//! answers all count as failures.

#[derive(Default, Debug)]
pub struct Gate {
    pub attempted: u64,
    pub failed: u64,
    pub reasons: Vec<String>,
}

/// Failure reasons kept verbatim; the rest are only counted.
const KEEP_REASONS: usize = 20;

impl Gate {
    pub fn attempt(&mut self) {
        self.attempted += 1;
    }

    pub fn fail(&mut self, reason: impl Into<String>) {
        self.failed += 1;
        if self.reasons.len() < KEEP_REASONS {
            self.reasons.push(reason.into());
        }
    }

    /// A check that is not itself a served operation (a probe or an
    /// oracle comparison) failing: counted against the operation it
    /// checks, which was already attempted.
    pub fn check(&mut self, outcome: Result<(), String>) {
        if let Err(reason) = outcome {
            self.fail(reason);
        }
    }

    pub fn absorb(&mut self, other: Gate) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        let room = KEEP_REASONS.saturating_sub(self.reasons.len());
        self.reasons.extend(other.reasons.into_iter().take(room));
    }

    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}
