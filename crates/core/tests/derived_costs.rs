//! Pins every `DerivedCostModel` constant and per-bit trim cost. Each is
//! recorded from the executor's own op sequences on the `layout` operands,
//! so a change here means an op sequence changed.

use neural_cache::cost::{CostModel, DerivedCostModel, DerivedCosts};

#[test]
fn derived_costs_are_pinned() {
    let m = DerivedCostModel;
    assert_eq!((m.mac_cycles(), m.mul_round_cycles()), (136, 10));
    assert_eq!(
        (
            m.reduction_step_cycles(),
            m.reduction_setup_cycles(),
            m.cross_array_step_cycles()
        ),
        (192, 64, 128)
    );
    assert_eq!(
        (m.max_cycles(), m.avg_add_cycles(), m.avg_div_cycles()),
        (26, 16, 277)
    );
    // Pass 2 (533: zp_w = 255, ReLU fused) + pass 3 (811: multiplier
    // 0xFFFF); 8 steps of both 40-bit ranging trees (404 each).
    assert_eq!(m.requant_cycles(), 533 + 811);
    assert_eq!(m.minmax_tree_cycles(256), 8 * 404);
    let c = DerivedCosts::get();
    assert_eq!(
        (c.mul_per_mult_bit, c.reduce_per_bit, c.partial_per_bit),
        (9, 6, 1)
    );
}
