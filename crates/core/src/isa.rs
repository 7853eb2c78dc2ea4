//! ISA support and execution model (Section IV-F): the macro-instructions
//! broadcast over the intra-slice address bus, and the per-bank control FSM
//! that sequences SRAM control signals.

use nc_sram::area::AreaModel;

use crate::mapping::{LayerPlan, UnitPlan};

/// The in-cache macro-instruction set of Section IV-F.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CacheInstruction {
    /// Bit-serial vector addition.
    Add,
    /// Bit-serial vector multiplication.
    Multiply,
    /// One reduction tree step (move + add).
    Reduce,
    /// Data move between word lines / arrays / the reserved way.
    Move,
    /// Max/min compare-and-select (pooling, ranging, `ReLU` masks).
    Compare,
    /// Requantization scalar op (multiply/add/shift by CPU constants).
    Quantize,
}

/// Instruction-count trace of one layer: every bank executes the same
/// stream, so counts are per-bank (the SIMD property that makes one shared
/// FSM per bank sufficient).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct InstructionCounts {
    /// Additions issued.
    pub add: u64,
    /// Multiplications issued.
    pub multiply: u64,
    /// Reduction steps issued.
    pub reduce: u64,
    /// Moves issued.
    pub moves: u64,
    /// Compare/select ops issued.
    pub compare: u64,
    /// Quantization scalar ops issued.
    pub quantize: u64,
}

impl InstructionCounts {
    /// Total macro-instructions.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.add + self.multiply + self.reduce + self.moves + self.compare + self.quantize
    }
}

/// Derives the per-bank instruction stream counts of one layer plan.
#[must_use]
pub fn instruction_trace(plan: &LayerPlan) -> InstructionCounts {
    let mut counts = InstructionCounts::default();
    for unit in &plan.units {
        match unit {
            UnitPlan::Conv(c) => {
                let rounds = c.rounds as u64;
                let macs = rounds * c.geom.eff_window as u64;
                counts.multiply += macs;
                counts.add += macs; // accumulate into the partial sum
                counts.reduce += rounds * u64::from(c.reduce_steps + c.cross_array_steps);
                counts.moves += rounds; // output move to the reserved way
                counts.quantize += rounds; // requant pipeline per round
                counts.compare += rounds; // min/max ranging per round
            }
            UnitPlan::Pool(p) => {
                let rounds = p.rounds as u64;
                match p.kind {
                    nc_dnn::PoolKind::Max => {
                        counts.compare += rounds * (p.window as u64 - 1);
                    }
                    nc_dnn::PoolKind::Avg => {
                        counts.add += rounds * (p.window as u64 - 1);
                        counts.quantize += rounds; // division by window size
                    }
                }
                counts.moves += rounds;
            }
        }
    }
    counts
}

/// Area of the control FSMs for a full cache (Section IV-F: 204 µm² per
/// bank, 0.23 mm² across the 14-slice Xeon E5).
#[must_use]
pub fn control_fsm_area_mm2(geometry: &nc_geometry::CacheGeometry) -> f64 {
    AreaModel::paper_28nm().total_fsm_area_mm2(geometry.total_banks())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::plan_model;
    use nc_dnn::inception::inception_v3;
    use nc_geometry::CacheGeometry;

    #[test]
    fn fsm_area_matches_paper() {
        let area = control_fsm_area_mm2(&CacheGeometry::xeon_e5_2697_v3());
        assert!((area - 0.2285).abs() < 0.01, "paper: 0.23 mm^2, got {area}");
    }

    #[test]
    fn traces_count_convolution_work() {
        let model = inception_v3();
        let plans = plan_model(&model, &CacheGeometry::xeon_e5_2697_v3());
        // plans[2] = Conv2d_2b_3x3: 43 rounds x 9 window bytes = 387
        // multiply instructions.
        let stem = instruction_trace(&plans[2]);
        assert_eq!(stem.multiply, 387);
        assert_eq!(stem.add, 387);
        assert_eq!(stem.reduce, 43 * 5);
        assert!(stem.total() > 0);

        let pool = instruction_trace(&plans[3]); // MaxPool_3a
        assert_eq!(pool.multiply, 0);
        assert!(pool.compare > 0);
    }
}
