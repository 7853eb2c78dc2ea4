//! Cycle-cost models for the deterministic timing simulator.
//!
//! Two implementations of [`CostModel`] are provided:
//!
//! - [`PaperCostModel`] uses the constants the paper publishes (236 cycles
//!   per 8-bit MAC, `n^2 + 5n - 2` multiplication, 132-cycle reduction
//!   steps derived from the `Conv2D_2b` worked example, `1.5n^2 + 5.5n`
//!   division). Figure/table regeneration uses this model.
//! - [`DerivedCostModel`] uses the micro-op sequence lengths of the
//!   `nc-sram` implementation: every constant is recorded once
//!   ([`DerivedCosts`]) by running the executor's own op sequences from
//!   [`crate::layout`] on an `nc_sram::Schedule`. The difference between
//!   the two models is quantified by the `cost_model_ablation` bench.

use std::fmt;
use std::sync::LazyLock;

use nc_sram::{CycleStats, MicroOps, Schedule};

use crate::layout::{
    AssembleLayout, MacReduceLayout, PoolAvgLayout, PoolMaxLayout, RangingLayout, RequantLayout,
    ZERO_ROW,
};
use crate::sparsity::SparsityMode;

/// Bit width of activation/weight codes (the paper fixes 8-bit precision).
pub const DATA_BITS: usize = 8;

/// Bit width of the per-channel partial sum (Figure 10: 3 bytes).
pub const PARTIAL_BITS: usize = 24;

/// Bit width of reduction segments and outputs (Figure 10: 4 bytes).
pub const REDUCE_BITS: usize = 32;

/// Per-phase cycle costs of the Neural Cache execution model.
///
/// All costs are **per SIMD round**: one invocation operates on every lane
/// of every active array simultaneously, so the timing simulator multiplies
/// these by the number of serial rounds only.
pub trait CostModel: fmt::Debug + Send + Sync {
    /// Cycles of one 8-bit multiply-accumulate into the partial sum
    /// (one filter/input byte pair per lane).
    fn mac_cycles(&self) -> u64;

    /// Cycles of one multiplier-bit round of the bit-serial multiply (tag
    /// load + `n` predicated adds + carry commit = `n + 2` at `n = 8`).
    /// This is the unit of work the [`crate::sparsity`] round-skipping
    /// analysis and `SparsityMode::SkipZeroRows` execution elide.
    fn mul_round_cycles(&self) -> u64;

    /// Skip-aware MAC cost: the [`CostModel::mac_cycles`] of one 8-bit MAC
    /// with `skip_fraction` of its [`DATA_BITS`] multiplier-bit rounds
    /// elided. Elided rounds cost nothing — the multiplier rows are
    /// stationary filter bit-slices, so the control FSM knows the all-zero
    /// rows from filter-load time and never issues them.
    ///
    /// The result is saturated into `[0, mac_cycles()]`: a `skip_fraction`
    /// perturbed past 1.0 by float noise (or a cost model whose per-round
    /// cost overstates the MAC total) must never produce negative sparse
    /// cycles or a sparse cost above the dense one, which would flip
    /// speedups below 1 or divide by a negative downstream.
    fn mac_cycles_sparse(&self, skip_fraction: f64) -> f64 {
        let dense = self.mac_cycles() as f64;
        let saved =
            skip_fraction.clamp(0.0, 1.0) * DATA_BITS as f64 * self.mul_round_cycles() as f64;
        (dense - saved).clamp(0.0, dense)
    }

    /// Cycles of one tag-latch wired-NOR zero-detect probing a dynamic
    /// (input) multiplier bit-slice — the `nc-sram`
    /// `MicroOps::op_detect_zero` micro-op. Charged once per scheduled
    /// round under the dynamic skip modes.
    fn detect_cycle(&self) -> u64 {
        1
    }

    /// Dynamic-skip MAC cost: one 8-bit MAC where the multiplier is the
    /// streamed **input** byte, every scheduled round pays
    /// [`CostModel::detect_cycle`] (the FSM cannot precompute activation
    /// zeros), `skip_fraction` of the rounds is elided by the detect, and
    /// executed rounds run only `live_bits` of the [`DATA_BITS`]
    /// multiplicand adds (static weight truncation under `SkipBoth`; pass
    /// `DATA_BITS as f64` when only inputs skip). Saturated into
    /// `(0, mac_cycles() + detect overhead]`.
    fn mac_cycles_dynamic(&self, skip_fraction: f64, live_bits: f64) -> f64 {
        let rounds = DATA_BITS as f64;
        let round = self.mul_round_cycles() as f64;
        let skip = skip_fraction.clamp(0.0, 1.0);
        let live = live_bits.clamp(0.0, rounds);
        // Per executed round: the tag-load/carry-commit overhead of a full
        // round minus the truncated adds.
        let exec_round = round - (rounds - live);
        let base = self.mac_cycles() as f64 - rounds * round;
        let detect = rounds * self.detect_cycle() as f64;
        // Saturate like mac_cycles_sparse: a cost model whose per-round
        // cost overstates the MAC total must not go negative.
        (base + detect + (1.0 - skip) * rounds * exec_round)
            .clamp(0.0, self.mac_cycles() as f64 + detect)
    }

    /// Cycles of one step of the in-array reduction tree over
    /// [`REDUCE_BITS`]-bit segments (lane move + add).
    fn reduction_step_cycles(&self) -> u64;

    /// One-time cycles to set up the reduction segments after the MACs
    /// (zero-extending partial sums into the 4-byte segments).
    fn reduction_setup_cycles(&self) -> u64;

    /// Extra cycles per reduction step that must cross an array boundary
    /// (`arrays_per_filter > 1`; pairs share sense amps, Section III-D).
    fn cross_array_step_cycles(&self) -> u64;

    /// Cycles of the requantization pipeline applied to one round's outputs
    /// (subtract min, ReLU-clamp, scalar multiply, shift, saturate).
    fn requant_cycles(&self) -> u64;

    /// Cycles of one pairwise 8-bit max/min (pooling and range search).
    fn max_cycles(&self) -> u64;

    /// Cycles of one 8-bit add into the average-pooling window sum.
    fn avg_add_cycles(&self) -> u64;

    /// Cycles of the average-pooling division (16-bit sum by a small
    /// divisor).
    fn avg_div_cycles(&self) -> u64;

    /// Cycles of one in-array min+max tree over a round's outputs (the
    /// dynamic-ranging step of quantization).
    fn minmax_tree_cycles(&self, lanes: usize) -> u64;

    /// Short human-readable model name for reports.
    fn name(&self) -> &'static str;
}

/// The paper's published constants (Section III and the Section VI-A
/// `Conv2D_2b` worked example: 236 cycles/MAC, 660 reduction cycles for 32
/// channels => 132 per step).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PaperCostModel;

impl PaperCostModel {
    /// The paper's multiplication cost formula `n^2 + 5n - 2`.
    #[must_use]
    pub fn mul_cycles(n: u64) -> u64 {
        n * n + 5 * n - 2
    }

    /// The paper's division cost formula `1.5n^2 + 5.5n`.
    #[must_use]
    pub fn div_cycles(n: u64) -> u64 {
        u64::midpoint(3 * n * n, 11 * n)
    }

    /// The paper's addition cost `n + 1`.
    #[must_use]
    pub fn add_cycles(n: u64) -> u64 {
        n + 1
    }
}

impl CostModel for PaperCostModel {
    fn mac_cycles(&self) -> u64 {
        236 // Section VI-A worked example
    }

    fn mul_round_cycles(&self) -> u64 {
        // The Figure 6 algorithm spends n + 2 cycles per multiplier bit;
        // the remainder of n^2 + 5n - 2 (3n - 2) is round-independent
        // initialization.
        DATA_BITS as u64 + 2
    }

    fn reduction_step_cycles(&self) -> u64 {
        132 // 660 cycles for log2(32) = 5 steps
    }

    fn reduction_setup_cycles(&self) -> u64 {
        0 // folded into the per-step constant
    }

    fn cross_array_step_cycles(&self) -> u64 {
        // Arrays sharing sense amps move data at the sense-amp-cycling rate;
        // one extra move of a 4-byte segment.
        64
    }

    fn requant_cycles(&self) -> u64 {
        // Subtract + scalar multiply + shift on the 32-bit outputs, at the
        // paper's op costs: add(33) + mul-by-8-bit scalar (~8 shifted adds
        // of ~25) + write-back; calibrated against the ~5% quantization
        // share of Figure 14.
        260
    }

    fn max_cycles(&self) -> u64 {
        // Subtract (2n) + mask (2) + selective copy (n) at n = 8.
        26
    }

    fn avg_add_cycles(&self) -> u64 {
        PaperCostModel::add_cycles(16)
    }

    fn avg_div_cycles(&self) -> u64 {
        PaperCostModel::div_cycles(16)
    }

    fn minmax_tree_cycles(&self, lanes: usize) -> u64 {
        let steps = u64::from(lanes.next_power_of_two().trailing_zeros());
        // Initial copy (paper: outputs are first duplicated so min and max
        // reduce together) + per-step move & compare for both trees.
        66 + steps * 2 * self.reduction_step_cycles()
    }

    fn name(&self) -> &'static str {
        "paper"
    }
}

/// Costs derived from the `nc-sram` micro-op sequences: every constant is
/// the recorded length of the op sequence the functional executor runs
/// ([`DerivedCosts`]).
///
/// The derived 8-bit MAC is cheaper than the paper's 236 cycles (the
/// Figure 4-7 micro-ops compose to 136 including the zero-point-correction
/// running sum); the derived reduction is costlier per step because the S2
/// correction reduces alongside S1.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DerivedCostModel;

/// Every constant of [`DerivedCostModel`] and the timing model's per-bit
/// trim costs, recorded once on the [`crate::layout`] operands by running
/// the executor's op sequences on an `nc_sram::Schedule`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DerivedCosts {
    /// One dense per-tap MAC ([`MacReduceLayout::mac_tap`]).
    pub mac: u64,
    /// One multiplier-bit round: the dense tap minus a tap with one
    /// weight-bit round elided.
    pub mul_round: u64,
    /// One step of the `S1` and `S2` reduction trees.
    pub reduction_step: u64,
    /// Widening `S1` and `S2` into the 4-byte reduction segments.
    pub reduction_setup: u64,
    /// Access cycles of one cross-array fold of both segment sums.
    pub cross_array_step: u64,
    /// ACC assembly (`zp_w` = 255, `ReLU` fused) plus requantization with the
    /// widest multiplier the 48-bit product admits.
    pub requant: u64,
    /// One 8-bit max-pool step (`max_assign`).
    pub max: u64,
    /// One 8-bit add into the 16-bit average-pool window sum.
    pub avg_add: u64,
    /// Average-pool division of the 16-bit sum by a 4-bit divisor.
    pub avg_div: u64,
    /// One step of both ranging trees (max and min) over the 40-bit values.
    pub minmax_step: u64,
    /// Multiply cycles per multiplicand bit.
    pub mul_per_mult_bit: u64,
    /// Reduction-step cycles per bit of segment width.
    pub reduce_per_bit: u64,
    /// Lane-accumulate cycles per bit of partial-sum width.
    pub partial_per_bit: u64,
}

static DERIVED_COSTS: LazyLock<DerivedCosts> = LazyLock::new(DerivedCosts::record);

/// Runs `ops` on a fresh recorder and returns the counters it recorded.
fn recorded(ops: impl FnOnce(&mut Schedule) -> nc_sram::Result<CycleStats>) -> CycleStats {
    ops(&mut Schedule::with_zero_row(ZERO_ROW))
        .expect("the executor layouts admit every recorded op")
}

impl DerivedCosts {
    /// The recorded costs (recorded on first use).
    #[must_use]
    pub fn get() -> &'static DerivedCosts {
        &DERIVED_COSTS
    }

    fn record() -> DerivedCosts {
        const WIDEST_WEIGHT_ZERO_POINT: u64 = 255;
        const WIDEST_REQUANT_MULTIPLIER: u32 = 0xFFFF;
        const POOL_DIVISOR: u64 = 9; // 3x3 window: the paper's 4-bit divisors
        let mac = MacReduceLayout::new();
        let tap =
            |l: MacReduceLayout| recorded(|s| l.mac_tap(s, SparsityMode::Dense)).compute_cycles;
        let one_round_elided = recorded(|s| {
            let (_, multiplier) = mac.mul_roles(SparsityMode::SkipZeroRows);
            s.assume_zero(multiplier.row(0));
            mac.mac_tap(s, SparsityMode::SkipZeroRows)
        });
        let tree =
            |l: MacReduceLayout, span| recorded(|s| l.widen_and_reduce(s, span, 1)).compute_cycles;
        let step = |l| tree(l, 2) - tree(l, 1);
        let (multiplicand, multiplier) = mac.mul_roles(SparsityMode::Dense);
        let mul_at = |bits: usize| {
            recorded(|s| {
                let prod = mac.scratch16.slice(0, bits + multiplier.bits())?;
                s.mul(multiplicand.slice(0, bits)?, multiplier, prod)
            })
            .compute_cycles
        };
        let narrow = |op: nc_sram::Operand| op.slice(0, op.bits() - 1).expect("multi-bit region");
        let narrow_segments = MacReduceLayout {
            seg_a: narrow(mac.seg_a),
            seg_b: narrow(mac.seg_b),
            s2_a: narrow(mac.s2_a),
            s2_b: narrow(mac.s2_b),
            ..mac
        };
        let fold = recorded(|s| mac.fold_partner(&mut Schedule::with_zero_row(ZERO_ROW), s));
        let requant = recorded(|s| {
            let assembled = AssembleLayout::new().assemble(s, WIDEST_WEIGHT_ZERO_POINT, true)?;
            let (requantized, _) =
                RequantLayout::new().requantize(s, 0, WIDEST_REQUANT_MULTIPLIER, 0)?;
            Ok(assembled + requantized)
        });
        let pool_max = PoolMaxLayout::new();
        let pool_avg = PoolAvgLayout::new();
        let ranging = RangingLayout::new();
        DerivedCosts {
            mac: tap(mac),
            mul_round: tap(mac) - one_round_elided.compute_cycles,
            reduction_step: step(mac),
            reduction_setup: tree(mac, 1),
            cross_array_step: fold.access_cycles,
            requant: requant.compute_cycles,
            max: recorded(|s| pool_max.step(s)).compute_cycles,
            avg_add: recorded(|s| pool_avg.accumulate(s)).compute_cycles,
            avg_div: recorded(|s| {
                s.div_scalar(
                    pool_avg.sum,
                    POOL_DIVISOR,
                    pool_avg.quot,
                    pool_avg.rem,
                    pool_avg.trial,
                )
            })
            .compute_cycles,
            minmax_step: recorded(|s| Ok(ranging.tree(s, true, 2)? + ranging.tree(s, false, 2)?))
                .compute_cycles,
            mul_per_mult_bit: mul_at(multiplicand.bits()) - mul_at(multiplicand.bits() - 1),
            reduce_per_bit: step(mac) - step(narrow_segments),
            partial_per_bit: tap(mac)
                - tap(MacReduceLayout {
                    partial: narrow(mac.partial),
                    ..mac
                }),
        }
    }
}

impl CostModel for DerivedCostModel {
    fn mac_cycles(&self) -> u64 {
        DerivedCosts::get().mac
    }

    fn mul_round_cycles(&self) -> u64 {
        DerivedCosts::get().mul_round
    }

    fn reduction_step_cycles(&self) -> u64 {
        DerivedCosts::get().reduction_step
    }

    fn reduction_setup_cycles(&self) -> u64 {
        DerivedCosts::get().reduction_setup
    }

    fn cross_array_step_cycles(&self) -> u64 {
        DerivedCosts::get().cross_array_step
    }

    fn requant_cycles(&self) -> u64 {
        DerivedCosts::get().requant
    }

    fn max_cycles(&self) -> u64 {
        DerivedCosts::get().max
    }

    fn avg_add_cycles(&self) -> u64 {
        DerivedCosts::get().avg_add
    }

    fn avg_div_cycles(&self) -> u64 {
        DerivedCosts::get().avg_div
    }

    fn minmax_tree_cycles(&self, lanes: usize) -> u64 {
        let steps = u64::from(lanes.next_power_of_two().trailing_zeros());
        steps * DerivedCosts::get().minmax_step
    }

    fn name(&self) -> &'static str {
        "derived"
    }
}

/// Selector between the two cost models (part of the system configuration).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CostModelKind {
    /// Paper-published constants (used for figure regeneration).
    #[default]
    Paper,
    /// Constants derived from the `nc-sram` micro-op implementation.
    Derived,
}

impl CostModelKind {
    /// Materializes the model.
    #[must_use]
    pub fn model(&self) -> &'static dyn CostModel {
        match self {
            CostModelKind::Paper => &PaperCostModel,
            CostModelKind::Derived => &DerivedCostModel,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_formulas() {
        assert_eq!(PaperCostModel::add_cycles(8), 9);
        assert_eq!(PaperCostModel::mul_cycles(8), 102);
        assert_eq!(PaperCostModel::mul_cycles(2), 12, "Figure 6 walkthrough");
        assert_eq!(PaperCostModel::div_cycles(8), 140);
    }

    #[test]
    fn paper_worked_example_conv2d_2b() {
        // Section VI-A: 9 MACs * 236 + 660 reduction = 2784 cycles per
        // convolution at C = 32.
        let m = PaperCostModel;
        let per_conv =
            9 * m.mac_cycles() + m.reduction_setup_cycles() + 5 * m.reduction_step_cycles();
        assert_eq!(per_conv, 2784);
    }

    #[test]
    fn derived_model_is_cheaper_per_mac_but_costlier_per_reduction() {
        let p = PaperCostModel;
        let d = DerivedCostModel;
        assert!(d.mac_cycles() < p.mac_cycles());
        assert!(d.reduction_step_cycles() > p.reduction_step_cycles());
    }

    #[test]
    fn kind_selects_model() {
        assert_eq!(CostModelKind::Paper.model().name(), "paper");
        assert_eq!(CostModelKind::Derived.model().name(), "derived");
        assert_eq!(CostModelKind::default(), CostModelKind::Paper);
    }

    #[test]
    fn sparse_mac_cost_interpolates_between_full_and_skipless() {
        for model in [&PaperCostModel as &dyn CostModel, &DerivedCostModel] {
            let dense = model.mac_cycles() as f64;
            assert!((model.mac_cycles_sparse(0.0) - dense).abs() < 1e-9);
            let full_skip = model.mac_cycles_sparse(1.0);
            let expected = dense - (DATA_BITS as u64 * model.mul_round_cycles()) as f64;
            assert!((full_skip - expected).abs() < 1e-9, "{}", model.name());
            assert!(full_skip > 0.0, "non-round costs remain");
            let half = model.mac_cycles_sparse(0.5);
            assert!(full_skip < half && half < dense);
        }
    }

    #[test]
    fn sparse_mac_cost_saturates_at_the_boundaries() {
        // Regression: skip fractions perturbed past [0, 1] by float noise
        // (or an adversarial cost model) must never yield sparse cycles
        // that are negative or above the dense total.
        for model in [&PaperCostModel as &dyn CostModel, &DerivedCostModel] {
            let dense = model.mac_cycles() as f64;
            assert_eq!(
                model.mac_cycles_sparse(1.0 + 1e-9),
                model.mac_cycles_sparse(1.0)
            );
            assert_eq!(
                model.mac_cycles_sparse(-0.25),
                dense,
                "negative skip clamps to dense"
            );
            assert_eq!(model.mac_cycles_sparse(5.0), model.mac_cycles_sparse(1.0));
            assert!(model.mac_cycles_sparse(1.0) >= 0.0);
            assert!(model.mac_cycles_sparse(0.999) <= dense);
        }
        // A degenerate model whose round cost exceeds the MAC total still
        // saturates at zero instead of going negative.
        #[derive(Debug)]
        struct Degenerate;
        impl CostModel for Degenerate {
            fn mac_cycles(&self) -> u64 {
                10
            }
            fn mul_round_cycles(&self) -> u64 {
                10 // 8 rounds * 10 = 80 "saved" >> 10 dense
            }
            fn reduction_step_cycles(&self) -> u64 {
                1
            }
            fn reduction_setup_cycles(&self) -> u64 {
                0
            }
            fn cross_array_step_cycles(&self) -> u64 {
                0
            }
            fn requant_cycles(&self) -> u64 {
                1
            }
            fn max_cycles(&self) -> u64 {
                1
            }
            fn avg_add_cycles(&self) -> u64 {
                1
            }
            fn avg_div_cycles(&self) -> u64 {
                1
            }
            fn minmax_tree_cycles(&self, _lanes: usize) -> u64 {
                1
            }
            fn name(&self) -> &'static str {
                "degenerate"
            }
        }
        assert_eq!(
            Degenerate.mac_cycles_sparse(1.0),
            0.0,
            "saturated, not negative"
        );
        assert_eq!(Degenerate.mac_cycles_sparse(0.0), 10.0);
        // The dynamic variant saturates the same way.
        assert_eq!(Degenerate.mac_cycles_dynamic(1.0, 8.0), 0.0);
        assert!(Degenerate.mac_cycles_dynamic(0.0, 8.0) <= 10.0 + 8.0);
        assert!(Degenerate.mac_cycles_dynamic(0.5, 2.0) >= 0.0);
    }

    #[test]
    fn dynamic_mac_cost_charges_detect_and_interpolates() {
        for model in [&PaperCostModel as &dyn CostModel, &DerivedCostModel] {
            let dense = model.mac_cycles() as f64;
            let rounds = DATA_BITS as f64;
            // No skips, full-width weights: dense cost plus one detect per
            // round — dynamic detection on dense activations is pure
            // overhead (the break-even evidence).
            let no_skip = model.mac_cycles_dynamic(0.0, rounds);
            assert!(
                (no_skip - (dense + rounds)).abs() < 1e-9,
                "{}: {no_skip} vs {dense} + detects",
                model.name()
            );
            // Full skip: only the non-round base plus the detects remain.
            let full = model.mac_cycles_dynamic(1.0, rounds);
            let base = dense - rounds * model.mul_round_cycles() as f64;
            assert!((full - (base + rounds)).abs() < 1e-9);
            assert!(full > 0.0, "non-round costs and detects remain");
            // Monotone in skip, and truncation shaves executed rounds.
            let half = model.mac_cycles_dynamic(0.5, rounds);
            assert!(full < half && half < no_skip);
            let truncated = model.mac_cycles_dynamic(0.5, 2.0);
            assert!(truncated < half, "live_bits < 8 must be cheaper");
            // Break-even: skipping 1/(n+2) of rounds repays the detects.
            let break_even = 1.0 / model.mul_round_cycles() as f64;
            let at_even = model.mac_cycles_dynamic(break_even, rounds);
            assert!((at_even - dense).abs() < 1e-9, "{}", model.name());
            // Out-of-range inputs clamp instead of exploding.
            assert_eq!(
                model.mac_cycles_dynamic(7.0, 99.0),
                model.mac_cycles_dynamic(1.0, rounds)
            );
        }
    }

    #[test]
    fn minmax_tree_grows_logarithmically() {
        let p = PaperCostModel;
        let t64 = p.minmax_tree_cycles(64);
        let t128 = p.minmax_tree_cycles(128);
        assert_eq!(t128 - t64, 2 * p.reduction_step_cycles());
    }
}
