//! Convergence tracking for the leakage↔temperature fixed point.
//!
//! The first simulation pass iterates power → steady-state temperature →
//! leakage → power until structure temperatures stop moving (§4.3 of the
//! paper). [`FeedbackTracker`] observes that loop: each iteration reports
//! the largest absolute temperature change, and on completion the tracker
//! publishes convergence counters and a final-delta histogram through
//! `ramp-obs` so run manifests capture how hard the fixed point worked.

use ramp_units::KelvinDelta;
use std::sync::Arc;

/// Bucket bounds (kelvin) for the final temperature delta at loop exit.
const DELTA_BOUNDS: [f64; 7] = [0.001, 0.01, 0.1, 0.5, 1.0, 5.0, 25.0];

/// Observes one run of the leakage↔temperature feedback loop.
///
/// Create one per fixed-point solve, call
/// [`observe`](FeedbackTracker::observe) once per iteration with the
/// largest absolute per-structure temperature change, and call
/// [`finish`](FeedbackTracker::finish) when the loop exits.
#[derive(Debug)]
pub struct FeedbackTracker {
    tolerance: KelvinDelta,
    iterations: u64,
    last_delta: Option<KelvinDelta>,
    iterations_total: Arc<ramp_obs::Counter>,
    runs: Arc<ramp_obs::Counter>,
    converged_runs: Arc<ramp_obs::Counter>,
    final_delta: Arc<ramp_obs::Histogram>,
}

impl FeedbackTracker {
    /// Starts tracking a feedback loop that aims for a max-delta below
    /// `tolerance`.
    #[must_use]
    pub fn new(tolerance: KelvinDelta) -> Self {
        FeedbackTracker {
            tolerance,
            iterations: 0,
            last_delta: None,
            iterations_total: ramp_obs::counter("power.feedback.iterations"),
            runs: ramp_obs::counter("power.feedback.runs"),
            converged_runs: ramp_obs::counter("power.feedback.converged_runs"),
            final_delta: ramp_obs::histogram("power.feedback.final_delta_k", &DELTA_BOUNDS),
        }
    }

    /// Records one iteration's largest absolute temperature change.
    pub fn observe(&mut self, max_abs_delta: KelvinDelta) {
        self.iterations += 1;
        self.last_delta = Some(max_abs_delta);
    }

    /// Iterations observed so far.
    #[must_use]
    pub fn iterations(&self) -> u64 {
        self.iterations
    }

    /// The most recent delta (`None` before any iteration).
    #[must_use]
    pub fn last_delta(&self) -> Option<KelvinDelta> {
        self.last_delta
    }

    /// Whether the most recent delta is within tolerance.
    #[must_use]
    pub fn converged(&self) -> bool {
        self.last_delta.is_some_and(|d| d < self.tolerance)
    }

    /// Ends the run, publishing metrics. Returns whether it converged.
    pub fn finish(self) -> bool {
        let converged = self.converged();
        self.runs.incr();
        self.iterations_total.add(self.iterations);
        if converged {
            self.converged_runs.incr();
        }
        if let Some(delta) = self.last_delta {
            self.final_delta.observe(delta.value());
            if !converged {
                ramp_obs::debug!(
                    "leakage-temperature feedback stopped above tolerance: \
                     {} iterations, last delta {:.4} (tolerance {:.4})",
                    self.iterations,
                    delta,
                    self.tolerance
                );
            }
        }
        converged
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes every test that calls `finish()`: the `power.feedback.*`
    /// metrics are process-wide, so a concurrent `finish()` would move
    /// the counter `metrics_accumulate_across_runs` reads.
    static FINISH: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn finish_lock() -> std::sync::MutexGuard<'static, ()> {
        FINISH.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn delta(v: f64) -> KelvinDelta {
        KelvinDelta::new(v).unwrap()
    }

    #[test]
    fn converges_when_delta_falls_below_tolerance() {
        let _finish = finish_lock();
        let mut t = FeedbackTracker::new(delta(0.1));
        t.observe(delta(5.0));
        assert!(!t.converged());
        t.observe(delta(0.05));
        assert!(t.converged());
        assert_eq!(t.iterations(), 2);
        assert!(t.finish());
    }

    #[test]
    fn empty_run_does_not_converge() {
        let _finish = finish_lock();
        let t = FeedbackTracker::new(delta(0.1));
        assert!(!t.converged());
        assert_eq!(t.last_delta(), None);
        assert!(!t.finish());
    }

    #[test]
    fn metrics_accumulate_across_runs() {
        let _finish = finish_lock();
        let before = ramp_obs::counter("power.feedback.runs").get();
        let mut t = FeedbackTracker::new(delta(1.0));
        t.observe(delta(0.5));
        t.finish();
        assert_eq!(ramp_obs::counter("power.feedback.runs").get(), before + 1);
    }
}
