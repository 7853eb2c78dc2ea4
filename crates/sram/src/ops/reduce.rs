//! Lane moves and in-array tree reduction (Section III-D, Figure 5).
//!
//! Reduction brings values that live on *different bit lines* together: at
//! each step the upper half of the surviving lanes is moved sideways (a
//! word-line move through the column-multiplexed sense amps) underneath the
//! lower half, and a region-wide addition halves the live lane count. After
//! `log2(lanes)` steps lane 0 holds the sum. The ops are provided methods
//! of [`MicroOps`]; this module holds the shared tree.

use super::MicroOps;
use crate::{CycleStats, Operand, Result, SramError, COLS};

/// Compute cycles charged per row for a lane move.
///
/// Moves between word lines *and* bit lines go through the column mux and
/// sense amplifiers; the paper notes they can be sped up with sense-amp
/// cycling (the paper's reference 18, Cache Automaton). We model one read
/// cycle plus one write cycle per row, for
/// every affected lane in parallel.
pub const LANE_MOVE_CYCLES_PER_ROW: u64 = 2;

/// Tree reduction over `groups` groups of `lanes` lanes (stride `lanes`):
/// each halving step moves the upper half of every group under its lower
/// half, then combines. The combine runs on every lane (SIMD); lanes past
/// the live half compute garbage that is never read again.
pub(super) fn tree<S: MicroOps + ?Sized>(
    s: &mut S,
    value: Operand,
    scratch: Operand,
    lanes: usize,
    groups: usize,
    mut combine: impl FnMut(&mut S, Operand, Operand) -> Result<()>,
) -> Result<CycleStats> {
    if !lanes.is_power_of_two() || lanes * groups > COLS {
        return Err(SramError::NonPowerOfTwoLanes { lanes });
    }
    if value.bits() != scratch.bits() {
        return Err(SramError::DestinationTooNarrow {
            needed: value.bits(),
            available: scratch.bits(),
        });
    }
    if value.overlaps(&scratch) {
        return Err(SramError::OverlappingOperands {
            what: "reduction value and scratch regions overlap",
        });
    }
    let before = s.stats();
    let mut stride = lanes / 2;
    while stride >= 1 {
        s.move_lanes_grouped(value, scratch, stride, stride, lanes, groups)?;
        combine(s, value, scratch)?;
        stride /= 2;
    }
    Ok(s.stats() - before)
}

#[cfg(test)]
mod tests {
    use crate::{ComputeArray, MicroOps, Operand, SramError, COLS};

    fn arr() -> ComputeArray {
        ComputeArray::with_zero_row(255).unwrap()
    }

    #[test]
    fn figure5_reduction_of_four_words() {
        // Figure 5 reduces C1..C4 to one sum with log2(4) = 2 steps.
        let mut a = arr();
        let value = Operand::new(0, 32).unwrap();
        let scratch = Operand::new(32, 32).unwrap();
        for (lane, v) in [11u64, 22, 33, 44].into_iter().enumerate() {
            a.poke_lane(lane, value, v);
        }
        let d = a.reduce_sum(value, scratch, 4).unwrap();
        assert_eq!(a.peek_lane(0, value), 110);
        // 2 steps * (2*32 move + 32 add) = 192 cycles.
        assert_eq!(d.compute_cycles, 192);
    }

    #[test]
    fn reduce_256_lanes() {
        let mut a = arr();
        let value = Operand::new(0, 32).unwrap();
        let scratch = Operand::new(32, 32).unwrap();
        let mut expected = 0u64;
        for lane in 0..COLS {
            let v = (lane * 37 + 5) as u64;
            a.poke_lane(lane, value, v);
            expected += v;
        }
        a.reduce_sum(value, scratch, COLS).unwrap();
        assert_eq!(a.peek_lane(0, value), expected);
    }

    #[test]
    fn reduce_rejects_non_power_of_two() {
        let mut a = arr();
        let value = Operand::new(0, 32).unwrap();
        let scratch = Operand::new(32, 32).unwrap();
        assert_eq!(
            a.reduce_sum(value, scratch, 3),
            Err(SramError::NonPowerOfTwoLanes { lanes: 3 })
        );
    }

    #[test]
    fn reduce_max_and_min() {
        let mut a = arr();
        let value = Operand::new(0, 16).unwrap();
        let scratch = Operand::new(16, 16).unwrap();
        let cmp = Operand::new(32, 16).unwrap();
        let vals = [7u64, 900, 3, 512, 44, 44, 0, 65535];
        for (lane, v) in vals.into_iter().enumerate() {
            a.poke_lane(lane, value, v);
        }
        a.reduce_max(value, scratch, cmp, 250, 8).unwrap();
        assert_eq!(a.peek_lane(0, value), 65535);
        for (lane, v) in vals.into_iter().enumerate() {
            a.poke_lane(lane, value, v);
        }
        a.reduce_min(value, scratch, cmp, 250, 8).unwrap();
        assert_eq!(a.peek_lane(0, value), 0);
    }

    #[test]
    fn grouped_reduction_reduces_each_group_independently() {
        // 4 groups of 8 lanes — one array reducing the channels of four
        // packed filters at once.
        let mut a = arr();
        let value = Operand::new(0, 32).unwrap();
        let scratch = Operand::new(32, 32).unwrap();
        let mut expected = [0u64; 4];
        for (g, want) in expected.iter_mut().enumerate() {
            for l in 0..8 {
                let v = (g * 100 + l * 7 + 1) as u64;
                a.poke_lane(g * 8 + l, value, v);
                *want += v;
            }
        }
        a.reduce_sum_grouped(value, scratch, 8, 4).unwrap();
        for (g, want) in expected.into_iter().enumerate() {
            assert_eq!(a.peek_lane(g * 8, value), want, "group {g}");
        }
    }

    #[test]
    fn grouped_reduction_with_single_lane_groups_is_noop() {
        let mut a = arr();
        let value = Operand::new(0, 32).unwrap();
        let scratch = Operand::new(32, 32).unwrap();
        a.poke_lane(0, value, 5);
        a.poke_lane(1, value, 7);
        let d = a.reduce_sum_grouped(value, scratch, 1, 2).unwrap();
        assert_eq!(d.compute_cycles, 0);
        assert_eq!(a.peek_lane(0, value), 5);
        assert_eq!(a.peek_lane(1, value), 7);
    }

    #[test]
    fn move_lanes_preserves_untouched_lanes() {
        let mut a = arr();
        let src = Operand::new(0, 8).unwrap();
        let dst = Operand::new(8, 8).unwrap();
        a.poke_lane(4, src, 99);
        a.poke_lane(10, dst, 123);
        a.move_lanes(src, dst, 4, 4).unwrap();
        assert_eq!(a.peek_lane(0, dst), 99, "lane 0 receives lane 4's value");
        assert_eq!(a.peek_lane(10, dst), 123, "lane 10 untouched");
    }
}
