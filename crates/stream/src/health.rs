//! Online channel-health monitoring for the streaming engine.
//!
//! [`HealthMonitor`] watches two per-round signals the engine already
//! produces — the mean discriminator *soft margin* (distance of the decision
//! statistic from its boundary, via
//! [`herqles_core::Discriminator::soft_margins`]) and the per-ancilla
//! *defect rate* (syndrome flips between consecutive rounds) — and folds
//! each into an EWMA. The first `baseline_rounds` rounds freeze a baseline;
//! afterwards the monitor classifies every round into a
//! [`HealthStatus`]:
//!
//! * **Nominal** — margins near baseline, defects near baseline;
//! * **Degraded** — margin EWMA fell below `degraded_margin_ratio` of its
//!   baseline, or the defect EWMA rose above `degraded_defect_factor`
//!   times its baseline;
//! * **Critical** — the same signals past the `critical_*` thresholds.
//!
//! Transitions are debounced twice: a candidate status must persist for
//! `hold_rounds` consecutive rounds before it is adopted, and recovering
//! toward Nominal must clear the thresholds by an extra `hysteresis` band so
//! the status does not flap on a signal hovering at a boundary. The monitor
//! is fixed-size after construction: observing a round allocates nothing.
//!
//! Margins are a *leading* indicator — under IQ centroid drift the margin
//! EWMA collapses before the logical error rate visibly moves — while the
//! defect rate is the *confirming* one and also covers discriminators that
//! report no margins (`soft_margins` returning `false` simply drops the
//! margin signal). A non-finite margin (NaN or infinite, from a corrupt
//! ADC sample upstream) is skipped and counted rather than folded in: one
//! NaN would otherwise poison the margin EWMA for good and silence the
//! margin alarm.

/// Channel health verdict, ordered by severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HealthStatus {
    /// Signals within the calibrated baseline band.
    #[default]
    Nominal,
    /// Sustained margin collapse or defect-rate inflation: recalibration
    /// recommended.
    Degraded,
    /// Severe deviation: the discriminator is likely mislabeling shots
    /// wholesale.
    Critical,
}

impl HealthStatus {
    fn severity(self) -> u8 {
        match self {
            HealthStatus::Nominal => 0,
            HealthStatus::Degraded => 1,
            HealthStatus::Critical => 2,
        }
    }
}

/// Tuning of a [`HealthMonitor`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HealthConfig {
    /// EWMA weight of each new round (for both margin and defect rate).
    pub alpha: f64,
    /// Rounds used to freeze the baseline; the status is Nominal throughout.
    pub baseline_rounds: u64,
    /// Margin EWMA below this fraction of baseline ⇒ Degraded.
    pub degraded_margin_ratio: f64,
    /// Margin EWMA below this fraction of baseline ⇒ Critical.
    pub critical_margin_ratio: f64,
    /// Defect EWMA above this multiple of baseline ⇒ Degraded.
    pub degraded_defect_factor: f64,
    /// Defect EWMA above this multiple of baseline ⇒ Critical.
    pub critical_defect_factor: f64,
    /// Extra ratio band a signal must clear to *recover* toward a less
    /// severe status (anti-flap).
    pub hysteresis: f64,
    /// Consecutive rounds a candidate status must persist before adoption.
    pub hold_rounds: u32,
}

impl Default for HealthConfig {
    fn default() -> Self {
        HealthConfig {
            alpha: 0.08,
            baseline_rounds: 32,
            degraded_margin_ratio: 0.75,
            critical_margin_ratio: 0.45,
            degraded_defect_factor: 2.5,
            critical_defect_factor: 6.0,
            hysteresis: 0.05,
            hold_rounds: 4,
        }
    }
}

/// EWMA-based drift detector over soft margins and defect rates.
///
/// Fixed-size after construction; [`HealthMonitor::observe_round`] performs
/// no heap allocation.
#[derive(Debug, Clone)]
pub struct HealthMonitor {
    cfg: HealthConfig,
    status: HealthStatus,
    rounds: u64,
    margin_ewma: f64,
    defect_ewma: f64,
    margin_acc: f64,
    margin_obs: u64,
    defect_acc: f64,
    baseline_margin: f64,
    baseline_defect: f64,
    pending: HealthStatus,
    pending_rounds: u32,
    transitions: u64,
    nonfinite_margins: u64,
    prev_measured: Vec<bool>,
}

/// Floor for the defect-rate baseline: keeps the inflation factor finite on
/// channels whose calibration window happened to see almost no defects.
const DEFECT_FLOOR: f64 = 0.01;

impl HealthMonitor {
    /// A monitor for `n_ancillas` syndrome bits.
    pub fn new(cfg: HealthConfig, n_ancillas: usize) -> Self {
        HealthMonitor {
            cfg,
            status: HealthStatus::Nominal,
            rounds: 0,
            margin_ewma: 0.0,
            defect_ewma: 0.0,
            margin_acc: 0.0,
            margin_obs: 0,
            defect_acc: 0.0,
            baseline_margin: 0.0,
            baseline_defect: 0.0,
            pending: HealthStatus::Nominal,
            pending_rounds: 0,
            transitions: 0,
            nonfinite_margins: 0,
            prev_measured: vec![false; n_ancillas],
        }
    }

    /// Current status.
    pub fn status(&self) -> HealthStatus {
        self.status
    }

    /// Completed status transitions since construction (or the last
    /// [`HealthMonitor::recalibrated`]).
    pub fn transitions(&self) -> u64 {
        self.transitions
    }

    /// Non-finite margins skipped since construction (cumulative, like
    /// [`HealthMonitor::transitions`]).
    pub fn nonfinite_margins(&self) -> u64 {
        self.nonfinite_margins
    }

    /// Rounds observed since the last (re)baseline.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Whether the baseline window has completed.
    pub fn is_calibrated(&self) -> bool {
        self.rounds >= self.cfg.baseline_rounds
    }

    /// Current margin EWMA (0 until a margin has been observed).
    pub fn margin_ewma(&self) -> f64 {
        self.margin_ewma
    }

    /// Current defect-rate EWMA.
    pub fn defect_ewma(&self) -> f64 {
        self.defect_ewma
    }

    /// Marks a block boundary: defect comparison restarts from the all-clear
    /// reference, mirroring the syndrome convention that round 0 of a block
    /// compares against perfectly prepared ancillas.
    pub fn begin_block(&mut self) {
        self.prev_measured.fill(false);
    }

    /// Resets baseline and status for a fresh calibration epoch — called
    /// after a discriminator hot-swap, whose new feature scale invalidates
    /// the old margin baseline. The transition counter is cumulative and
    /// survives.
    pub fn recalibrated(&mut self) {
        self.status = HealthStatus::Nominal;
        self.rounds = 0;
        self.margin_ewma = 0.0;
        self.defect_ewma = 0.0;
        self.margin_acc = 0.0;
        self.margin_obs = 0;
        self.defect_acc = 0.0;
        self.baseline_margin = 0.0;
        self.baseline_defect = 0.0;
        self.pending = HealthStatus::Nominal;
        self.pending_rounds = 0;
    }

    /// Feeds one round: the mean soft margin over live ancilla channels
    /// (`None` when the discriminator reports no margins) and the measured
    /// syndrome bits. Returns the (possibly updated) status. A non-finite
    /// margin is treated as absent and counted in
    /// [`HealthMonitor::nonfinite_margins`].
    ///
    /// # Panics
    ///
    /// Panics if `measured` has a different length than at construction.
    pub fn observe_round(&mut self, mean_margin: Option<f64>, measured: &[bool]) -> HealthStatus {
        assert_eq!(
            measured.len(),
            self.prev_measured.len(),
            "monitor sized for a different ancilla count"
        );
        let mut defects = 0usize;
        for (prev, &m) in self.prev_measured.iter_mut().zip(measured) {
            defects += usize::from(*prev != m);
            *prev = m;
        }
        let defect_rate = defects as f64 / measured.len().max(1) as f64;
        self.rounds += 1;
        let mean_margin = mean_margin.filter(|m| {
            let finite = m.is_finite();
            self.nonfinite_margins += u64::from(!finite);
            finite
        });

        if let Some(m) = mean_margin {
            self.margin_acc += m;
            self.margin_obs += 1;
        }
        self.defect_acc += defect_rate;

        if self.rounds <= self.cfg.baseline_rounds {
            // Baseline window: track running means, stay Nominal.
            if self.margin_obs > 0 {
                self.margin_ewma = self.margin_acc / self.margin_obs as f64;
            }
            self.defect_ewma = self.defect_acc / self.rounds as f64;
            if self.rounds == self.cfg.baseline_rounds {
                self.baseline_margin = self.margin_ewma;
                self.baseline_defect = self.defect_ewma.max(DEFECT_FLOOR);
            }
            return self.status;
        }

        if let Some(m) = mean_margin {
            self.margin_ewma += self.cfg.alpha * (m - self.margin_ewma);
        }
        self.defect_ewma += self.cfg.alpha * (defect_rate - self.defect_ewma);

        let raw = self.classify();
        if raw == self.status {
            self.pending = raw;
            self.pending_rounds = 0;
        } else {
            if raw == self.pending {
                self.pending_rounds += 1;
            } else {
                self.pending = raw;
                self.pending_rounds = 1;
            }
            if self.pending_rounds >= self.cfg.hold_rounds {
                self.status = raw;
                self.pending_rounds = 0;
                self.transitions += 1;
            }
        }
        self.status
    }

    /// Classifies the current EWMAs, applying the hysteresis band in the
    /// recovery direction only.
    fn classify(&self) -> HealthStatus {
        let recovering_from = self.status.severity();
        let margin_ratio = if self.baseline_margin > 0.0 && self.margin_obs > 0 {
            Some(self.margin_ewma / self.baseline_margin)
        } else {
            None
        };
        let defect_factor = self.defect_ewma / self.baseline_defect;

        let level = |severity: u8, margin_cut: f64, defect_cut: f64| -> bool {
            // Recovering below `severity` must clear the cuts by the
            // hysteresis band; escalation uses them as-is.
            let h = if recovering_from >= severity {
                self.cfg.hysteresis
            } else {
                0.0
            };
            margin_ratio.is_some_and(|r| r < margin_cut + h)
                || defect_factor > defect_cut * (1.0 - h)
        };

        if level(
            2,
            self.cfg.critical_margin_ratio,
            self.cfg.critical_defect_factor,
        ) {
            HealthStatus::Critical
        } else if level(
            1,
            self.cfg.degraded_margin_ratio,
            self.cfg.degraded_defect_factor,
        ) {
            HealthStatus::Degraded
        } else {
            HealthStatus::Nominal
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> HealthConfig {
        HealthConfig {
            baseline_rounds: 8,
            hold_rounds: 3,
            ..HealthConfig::default()
        }
    }

    fn feed(mon: &mut HealthMonitor, margin: f64, rounds: usize) -> HealthStatus {
        let quiet = vec![false; mon.prev_measured.len()];
        let mut s = mon.status();
        for _ in 0..rounds {
            s = mon.observe_round(Some(margin), &quiet);
        }
        s
    }

    #[test]
    fn stays_nominal_on_steady_signals() {
        let mut mon = HealthMonitor::new(cfg(), 4);
        assert_eq!(feed(&mut mon, 2.0, 50), HealthStatus::Nominal);
        assert!(mon.is_calibrated());
        assert_eq!(mon.transitions(), 0);
    }

    #[test]
    fn margin_collapse_degrades_then_recovers_with_hysteresis() {
        let mut mon = HealthMonitor::new(cfg(), 4);
        feed(&mut mon, 2.0, 20);
        // Collapse the margin: EWMA decays toward 0.5 → ratio 0.25.
        let s = feed(&mut mon, 0.5, 40);
        assert_ne!(s, HealthStatus::Nominal, "collapsed margins must trip");
        assert!(mon.transitions() >= 1);
        // Full recovery back above the band.
        let s = feed(&mut mon, 2.0, 80);
        assert_eq!(s, HealthStatus::Nominal);
    }

    #[test]
    fn defect_storm_escalates_to_critical() {
        let mut mon = HealthMonitor::new(cfg(), 4);
        let quiet = vec![false; 4];
        for _ in 0..12 {
            mon.observe_round(Some(2.0), &quiet);
        }
        // Every ancilla flips every round: defect rate 1.0 ≫ baseline floor.
        let mut buf = [false; 4];
        let mut s = mon.status();
        for r in 0..20 {
            buf.fill(r % 2 == 0);
            s = mon.observe_round(Some(2.0), &buf);
        }
        assert_eq!(s, HealthStatus::Critical);
    }

    #[test]
    fn hold_rounds_debounce_single_round_glitches() {
        let mut mon = HealthMonitor::new(cfg(), 4);
        feed(&mut mon, 2.0, 20);
        // One bad round is not enough to transition.
        feed(&mut mon, 0.0, 1);
        assert_eq!(mon.status(), HealthStatus::Nominal);
        feed(&mut mon, 2.0, 5);
        assert_eq!(mon.status(), HealthStatus::Nominal);
        assert_eq!(mon.transitions(), 0);
    }

    #[test]
    fn margin_free_discriminators_still_get_defect_monitoring() {
        let mut mon = HealthMonitor::new(cfg(), 4);
        let quiet = vec![false; 4];
        for _ in 0..12 {
            mon.observe_round(None, &quiet);
        }
        assert_eq!(mon.status(), HealthStatus::Nominal);
        let mut buf = [false; 4];
        let mut s = mon.status();
        for r in 0..20 {
            buf.fill(r % 2 == 0);
            s = mon.observe_round(None, &buf);
        }
        assert_ne!(s, HealthStatus::Nominal);
    }

    #[test]
    fn recalibrated_resets_baseline_but_keeps_transition_count() {
        let mut mon = HealthMonitor::new(cfg(), 4);
        feed(&mut mon, 2.0, 20);
        feed(&mut mon, 0.2, 40);
        let trips = mon.transitions();
        assert!(trips >= 1);
        mon.recalibrated();
        assert_eq!(mon.status(), HealthStatus::Nominal);
        assert!(!mon.is_calibrated());
        assert_eq!(mon.transitions(), trips);
        // A fresh epoch at a new margin scale calibrates cleanly.
        assert_eq!(feed(&mut mon, 10.0, 30), HealthStatus::Nominal);
    }

    #[test]
    fn nonfinite_margins_are_skipped_and_the_alarm_still_fires() {
        let mut mon = HealthMonitor::new(cfg(), 4);
        let quiet = vec![false; 4];
        // NaN inside the baseline window, then an infinity and a NaN after it.
        feed(&mut mon, 2.0, 4);
        mon.observe_round(Some(f64::NAN), &quiet);
        feed(&mut mon, 2.0, 8);
        assert!(mon.is_calibrated());
        mon.observe_round(Some(f64::INFINITY), &quiet);
        mon.observe_round(Some(f64::NAN), &quiet);
        assert_eq!(mon.nonfinite_margins(), 3);
        assert!(mon.margin_ewma().is_finite());
        assert_eq!(feed(&mut mon, 2.0, 10), HealthStatus::Nominal);
        // A real margin collapse must still escalate.
        let s = feed(&mut mon, 0.2, 40);
        assert_eq!(s, HealthStatus::Critical, "collapsed margins must trip");
        assert!(mon.transitions() >= 1);
    }

    #[test]
    fn block_boundary_resets_defect_reference() {
        let mut mon = HealthMonitor::new(cfg(), 2);
        mon.observe_round(None, &[true, true]);
        mon.begin_block();
        // Same pattern again: relative to the cleared reference these are
        // defects again, not a steady state — exactly the syndrome
        // convention.
        mon.observe_round(None, &[true, true]);
        assert!(mon.defect_ewma() > 0.0);
    }
}
