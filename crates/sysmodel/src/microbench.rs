//! The X/Y alternation micro-benchmark (paper Figure 6) and its
//! calibration to a target alternation frequency.

use crate::activity::Activity;
use crate::machine::{KernelProfile, Machine};
use std::fmt;

/// An X/Y alternation micro-benchmark: run `x_count` operations of activity
/// X, then `y_count` of activity Y, forever.
///
/// The counts are chosen so one full X+Y iteration takes `T_alt = 1/f_alt`,
/// with X and Y each taking half the period (the paper's 50% duty cycle).
///
/// # Examples
///
/// ```
/// use fase_sysmodel::{Activity, Alternation, Machine};
/// let mut machine = Machine::core_i7();
/// let bench = Alternation::calibrated(
///     &mut machine, Activity::LoadDram, Activity::LoadL1, 43_300.0);
/// assert!(bench.x_count() >= 1 && bench.y_count() >= 1);
/// // L1 hits are much faster, so many more are needed per half-period.
/// assert!(bench.y_count() > bench.x_count());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Alternation {
    x: Activity,
    y: Activity,
    x_count: usize,
    y_count: usize,
}

impl Alternation {
    /// Number of operations used when profiling activities for calibration
    /// and trace generation.
    pub const PROFILE_OPS: usize = 4096;

    /// Creates an alternation with explicit counts.
    ///
    /// # Panics
    ///
    /// Panics if either count is zero.
    pub fn new(x: Activity, y: Activity, x_count: usize, y_count: usize) -> Alternation {
        assert!(
            x_count > 0 && y_count > 0,
            "instruction counts must be non-zero"
        );
        Alternation {
            x,
            y,
            x_count,
            y_count,
        }
    }

    /// Calibrates counts on `machine` so the alternation runs at `f_alt`
    /// hertz with a 50% duty cycle, exactly as §2.2 describes
    /// ("we adjust the inst_x_count and inst_y_count variables so that
    /// activity X and activity Y are each done for half of the alternation
    /// period").
    ///
    /// # Panics
    ///
    /// Panics if `f_alt` is not positive.
    pub fn calibrated(machine: &mut Machine, x: Activity, y: Activity, f_alt: f64) -> Alternation {
        assert!(f_alt > 0.0, "alternation frequency must be positive");
        let px = machine.profile(x, Self::PROFILE_OPS);
        let py = machine.profile(y, Self::PROFILE_OPS);
        Self::balanced(x, y, px, py, f_alt)
    }

    /// [`calibrated`](Alternation::calibrated) on a machine that has
    /// already profiled both activities (any earlier calibration of the
    /// same pair did): the same counts, without mutating the machine.
    /// Returns `None` if either profile is missing.
    ///
    /// # Panics
    ///
    /// Panics if `f_alt` is not positive.
    pub fn calibrated_warm(
        machine: &Machine,
        x: Activity,
        y: Activity,
        f_alt: f64,
    ) -> Option<Alternation> {
        assert!(f_alt > 0.0, "alternation frequency must be positive");
        let px = machine.profiled(x, Self::PROFILE_OPS)?;
        let py = machine.profiled(y, Self::PROFILE_OPS)?;
        Some(Self::balanced(x, y, px, py, f_alt))
    }

    /// Counts giving X and Y half a period each at `f_alt`.
    fn balanced(
        x: Activity,
        y: Activity,
        px: KernelProfile,
        py: KernelProfile,
        f_alt: f64,
    ) -> Alternation {
        let half = 0.5 / f_alt;
        let x_count = ((half / px.op_seconds).round() as usize).max(1);
        let y_count = ((half / py.op_seconds).round() as usize).max(1);
        Alternation {
            x,
            y,
            x_count,
            y_count,
        }
    }

    /// Activity X (first half-period).
    pub fn x(&self) -> Activity {
        self.x
    }

    /// Activity Y (second half-period).
    pub fn y(&self) -> Activity {
        self.y
    }

    /// Operations of X per iteration.
    pub fn x_count(&self) -> usize {
        self.x_count
    }

    /// Operations of Y per iteration.
    pub fn y_count(&self) -> usize {
        self.y_count
    }

    /// Operation count used for profiling.
    pub fn profile_ops(&self) -> usize {
        Self::PROFILE_OPS
    }

    /// `"X/Y"` label in the paper's notation, e.g. `"LDM/LDL1"`.
    pub fn label(&self) -> String {
        format!("{}/{}", self.x.label(), self.y.label())
    }
}

impl fmt::Display for Alternation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} (x_count={}, y_count={})",
            self.label(),
            self.x_count,
            self.y_count
        )
    }
}

/// The activity pairs highlighted in the paper's evaluation (§3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ActivityPair {
    /// Main-memory vs. L1: exposes memory-related carriers ("LDM/LDL1").
    LdmLdl1,
    /// L2 vs. L1: exposes on-chip carriers ("LDL2/LDL1").
    Ldl2Ldl1,
    /// Control with no alternation contrast ("LDL1/LDL1") — nothing should
    /// be modulated.
    Ldl1Ldl1,
    /// Continuous memory activity ("LDM/LDM") — used for Figure 14's 100%
    /// memory-activity spectrum.
    LdmLdm,
    /// Store stream vs. L1: LLC write-back activity instead of reads —
    /// the paper found "STM" pairings expose the same carriers (§3).
    StmLdl1,
    /// Main memory vs. integer add: a memory/ALU contrast — the paper
    /// found "LDM/ADD, LDM/DIV, etc." expose the same carriers as
    /// LDM/LDL1 (§3).
    LdmAdd,
}

impl ActivityPair {
    /// The X and Y activities of this pair.
    pub fn activities(self) -> (Activity, Activity) {
        match self {
            ActivityPair::LdmLdl1 => (Activity::LoadDram, Activity::LoadL1),
            ActivityPair::Ldl2Ldl1 => (Activity::LoadL2, Activity::LoadL1),
            ActivityPair::Ldl1Ldl1 => (Activity::LoadL1, Activity::LoadL1),
            ActivityPair::LdmLdm => (Activity::LoadDram, Activity::LoadDram),
            ActivityPair::StmLdl1 => (Activity::StoreDram, Activity::LoadL1),
            ActivityPair::LdmAdd => (Activity::LoadDram, Activity::Add),
        }
    }

    /// Calibrates this pair on a machine at the given alternation frequency.
    pub fn calibrated(self, machine: &mut Machine, f_alt: f64) -> Alternation {
        let (x, y) = self.activities();
        Alternation::calibrated(machine, x, y, f_alt)
    }

    /// The paper's label, e.g. `"LDM/LDL1"`.
    pub fn label(self) -> &'static str {
        match self {
            ActivityPair::LdmLdl1 => "LDM/LDL1",
            ActivityPair::Ldl2Ldl1 => "LDL2/LDL1",
            ActivityPair::Ldl1Ldl1 => "LDL1/LDL1",
            ActivityPair::LdmLdm => "LDM/LDM",
            ActivityPair::StmLdl1 => "STM/LDL1",
            ActivityPair::LdmAdd => "LDM/ADD",
        }
    }
}

impl fmt::Display for ActivityPair {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warm_calibration_matches_calibration() {
        let (x, y) = ActivityPair::LdmLdl1.activities();
        let mut m = Machine::core_i7();
        assert_eq!(Alternation::calibrated_warm(&m, x, y, 30e3), None);
        let _ = Alternation::calibrated(&mut m, x, y, 50e3);
        for f_alt in [30e3, 43.3e3, 50e3] {
            let warm = Alternation::calibrated_warm(&m, x, y, f_alt);
            assert_eq!(warm, Some(Alternation::calibrated(&mut m, x, y, f_alt)));
        }
    }

    #[test]
    fn calibration_balances_half_periods() {
        let mut m = Machine::core_i7();
        let bench = Alternation::calibrated(&mut m, Activity::LoadDram, Activity::LoadL1, 50_000.0);
        let px = m.profile(Activity::LoadDram, 4096);
        let py = m.profile(Activity::LoadL1, 4096);
        let tx = bench.x_count() as f64 * px.op_seconds;
        let ty = bench.y_count() as f64 * py.op_seconds;
        let half = 0.5 / 50_000.0;
        assert!((tx - half).abs() / half < 0.05, "X half = {tx}");
        assert!((ty - half).abs() / half < 0.05, "Y half = {ty}");
    }

    #[test]
    fn high_f_alt_clamps_to_one_op() {
        let mut m = Machine::core_i7();
        // Absurdly high alternation frequency: counts clamp at 1.
        let bench = Alternation::calibrated(&mut m, Activity::LoadDram, Activity::LoadDram, 1e9);
        assert_eq!(bench.x_count(), 1);
        assert_eq!(bench.y_count(), 1);
    }

    #[test]
    fn stm_pair_exposes_memory_domain() {
        let (x, y) = ActivityPair::StmLdl1.activities();
        assert_eq!(x, Activity::StoreDram);
        assert_eq!(y, Activity::LoadL1);
        assert_eq!(ActivityPair::StmLdl1.label(), "STM/LDL1");
    }

    #[test]
    fn pair_presets() {
        assert_eq!(
            ActivityPair::LdmLdl1.activities(),
            (Activity::LoadDram, Activity::LoadL1)
        );
        assert_eq!(ActivityPair::LdmLdl1.label(), "LDM/LDL1");
        assert_eq!(format!("{}", ActivityPair::Ldl2Ldl1), "LDL2/LDL1");
    }

    #[test]
    fn alternation_label() {
        let a = Alternation::new(Activity::LoadDram, Activity::LoadL1, 10, 100);
        assert_eq!(a.label(), "LDM/LDL1");
        assert!(format!("{a}").contains("x_count=10"));
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_count_panics() {
        let _ = Alternation::new(Activity::Add, Activity::Add, 0, 1);
    }
}
