//! Bit-serial multiplication via predicated shifted adds (Section III-C,
//! Figure 6): the round loops behind the `mul` family of [`MicroOps`]
//! provided methods, their shared multiplier-bit round, and the family's
//! operand validation.

use super::MicroOps;
use crate::{CycleStats, Operand, Predicate, Result, SramError};

/// Compute cycles of one executed multiplier-bit round with `adds`
/// predicated adds ([`round`]: tag load, the adds, carry commit). An elided
/// round saves `round_cycles(n)`; a truncated one saves the difference.
pub(super) const fn round_cycles(adds: usize) -> u64 {
    adds as u64 + 2
}

/// One multiplier-bit round of the Figure 6 algorithm: load the tag from
/// multiplier bit `j`, conditionally add the low `adds` multiplicand bits
/// into the partial product at offset `j`, commit the round's carry-out at
/// `prod[j + adds]`.
pub(super) fn round<S: MicroOps + ?Sized>(
    s: &mut S,
    a: Operand,
    b: Operand,
    prod: Operand,
    j: usize,
    adds: usize,
) -> Result<()> {
    let before = s.stats().compute_cycles;
    s.op_load_tag(b.row(j))?;
    s.preset_carry(false);
    for i in 0..adds {
        s.op_full_add(a.row(i), prod.row(j + i), prod.row(j + i), Predicate::Tag)?;
    }
    s.op_write_carry(prod.row(j + adds), Predicate::Tag)?;
    debug_assert_eq!(s.stats().compute_cycles - before, round_cycles(adds));
    Ok(())
}

/// The multiply with statically known rounds: every multiplier bit-slice
/// runs a round, except that `skip_zero_rows` elides the slices the FSM
/// knows are zero on every lane ([`MicroOps::row_is_zero`]).
pub(super) fn static_rounds<S: MicroOps + ?Sized>(
    s: &mut S,
    a: Operand,
    b: Operand,
    prod: Operand,
    skip_zero_rows: bool,
) -> Result<CycleStats> {
    validate(a, b, prod)?;
    let n = a.bits();
    let before = s.stats();
    s.zero(prod)?;
    for j in 0..b.bits() {
        s.stats_mut().mul_rounds += 1;
        if skip_zero_rows && s.row_is_zero(b.row(j))? {
            let stats = s.stats_mut();
            stats.skipped_rounds += 1;
            stats.skipped_cycles += round_cycles(n);
            continue;
        }
        round(s, a, b, prod, j, n)?;
    }
    Ok(s.stats() - before)
}

/// The dynamic-skip multiply: every round pays the wired-NOR detect on
/// multiplier bit `j`; an all-zero slice elides the round, a live one runs
/// with `live` predicated adds (`live == a.bits()` is plain input-bit
/// skipping, fewer is static multiplicand truncation).
pub(super) fn skip_input_rounds<S: MicroOps + ?Sized>(
    s: &mut S,
    a: Operand,
    b: Operand,
    prod: Operand,
    live: usize,
) -> Result<CycleStats> {
    validate(a, b, prod)?;
    let n = a.bits();
    let before = s.stats();
    s.zero(prod)?;
    for j in 0..b.bits() {
        s.stats_mut().mul_rounds += 1;
        if s.op_detect_zero(b.row(j))? {
            let stats = s.stats_mut();
            stats.input_rounds_skipped += 1;
            stats.skipped_cycles += round_cycles(n);
            continue;
        }
        s.stats_mut().skipped_cycles += round_cycles(n) - round_cycles(live);
        round(s, a, b, prod, j, live)?;
    }
    Ok(s.stats() - before)
}

/// Shared operand validation of the vector-multiply family.
pub(super) fn validate(a: Operand, b: Operand, prod: Operand) -> Result<()> {
    let (n, m) = (a.bits(), b.bits());
    if prod.bits() < n + m {
        return Err(SramError::DestinationTooNarrow {
            needed: n + m,
            available: prod.bits(),
        });
    }
    if a.overlaps(&b) {
        return Err(SramError::OverlappingOperands {
            what: "multiplication inputs overlap",
        });
    }
    if prod.overlaps(&a) || prod.overlaps(&b) {
        return Err(SramError::OverlappingOperands {
            what: "product region overlaps an input",
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use crate::{ComputeArray, MicroOps, Operand, SramError};

    fn arr() -> ComputeArray {
        ComputeArray::with_zero_row(255).unwrap()
    }

    #[test]
    fn figure6_walkthrough_2bit() {
        // The paper's Figure 6 multiplies 2-bit vectors; with the published
        // operands A = [3,1,3,2] (multiplicand) and B = [3,2,1,2] we expect
        // the 4-bit products [9,2,3,4].
        let mut arr = arr();
        let a = Operand::new(0, 2).unwrap();
        let b = Operand::new(2, 2).unwrap();
        let p = Operand::new(4, 4).unwrap();
        let cases = [(3u64, 3u64), (1, 2), (3, 1), (2, 2)];
        for (lane, (x, y)) in cases.iter().enumerate() {
            arr.poke_lane(lane, a, *x);
            arr.poke_lane(lane, b, *y);
        }
        let d = arr.mul(a, b, p).unwrap();
        // Derived cost: 4 (zero) + 2 rounds * (1 + 2 + 1) = 12 cycles,
        // which equals the paper's n^2 + 5n - 2 at n = 2.
        assert_eq!(d.compute_cycles, 12);
        for (lane, (x, y)) in cases.iter().enumerate() {
            assert_eq!(arr.peek_lane(lane, p), x * y, "lane {lane}");
        }
    }

    #[test]
    fn eight_bit_exhaustive_corners() {
        let mut arr = arr();
        let a = Operand::new(0, 8).unwrap();
        let b = Operand::new(8, 8).unwrap();
        let p = Operand::new(16, 16).unwrap();
        let interesting = [0u64, 1, 2, 3, 127, 128, 200, 255];
        for &x in &interesting {
            for (lane, &y) in interesting.iter().enumerate() {
                arr.poke_lane(lane, a, x);
                arr.poke_lane(lane, b, y);
            }
            arr.mul(a, b, p).unwrap();
            for (lane, &y) in interesting.iter().enumerate() {
                assert_eq!(arr.peek_lane(lane, p), x * y, "{x} * {y}");
            }
        }
    }

    #[test]
    fn derived_cost_formula() {
        let mut arr = arr();
        let a = Operand::new(0, 8).unwrap();
        let b = Operand::new(8, 8).unwrap();
        let p = Operand::new(16, 16).unwrap();
        let d = arr.mul(a, b, p).unwrap();
        // prod.bits() + m*(n+2) = 16 + 8*10 = 96 = n^2 + 4n for n = 8.
        assert_eq!(d.compute_cycles, 96);
    }

    #[test]
    fn mixed_width_multiply() {
        let mut arr = arr();
        let a = Operand::new(0, 8).unwrap();
        let b = Operand::new(8, 4).unwrap();
        let p = Operand::new(16, 12).unwrap();
        arr.poke_lane(0, a, 250);
        arr.poke_lane(0, b, 15);
        arr.mul(a, b, p).unwrap();
        assert_eq!(arr.peek_lane(0, p), 3750);
    }

    #[test]
    fn mul_scalar_matches() {
        let mut arr = arr();
        let a = Operand::new(0, 8).unwrap();
        let p = Operand::new(8, 24).unwrap();
        for (lane, v) in [0u64, 1, 100, 255].into_iter().enumerate() {
            arr.poke_lane(lane, a, v);
        }
        arr.mul_scalar(a, 181, p).unwrap();
        for (lane, v) in [0u64, 1, 100, 255].into_iter().enumerate() {
            assert_eq!(arr.peek_lane(lane, p), v * 181);
        }
        // k = 0 zeroes the product.
        arr.mul_scalar(a, 0, p).unwrap();
        assert_eq!(arr.peek_lane(3, p), 0);
    }

    #[test]
    fn skip_zero_rows_is_bit_identical_to_dense() {
        // Low-nibble multipliers: bit rows 4..8 are all-zero across lanes.
        let mut dense = arr();
        let mut sparse = arr();
        let a = Operand::new(0, 8).unwrap();
        let b = Operand::new(8, 8).unwrap();
        let p = Operand::new(16, 16).unwrap();
        let values = [(200u64, 9u64), (37, 0), (255, 15), (1, 8)];
        for (lane, (x, y)) in values.iter().enumerate() {
            dense.poke_lane(lane, a, *x);
            dense.poke_lane(lane, b, *y);
            sparse.poke_lane(lane, a, *x);
            sparse.poke_lane(lane, b, *y);
        }
        let d = dense.mul(a, b, p).unwrap();
        let s = sparse.mul_skip_zero_rows(a, b, p).unwrap();
        for (lane, (x, y)) in values.iter().enumerate() {
            assert_eq!(sparse.peek_lane(lane, p), x * y, "lane {lane}");
            assert_eq!(sparse.peek_lane(lane, p), dense.peek_lane(lane, p));
        }
        assert_eq!(d.mul_rounds, 8);
        assert_eq!(d.skipped_rounds, 0, "dense never skips");
        assert_eq!(s.mul_rounds, 8);
        assert_eq!(s.skipped_rounds, 4, "top-nibble rounds elided");
        assert_eq!(s.skipped_cycles, 4 * 10, "n + 2 cycles per round");
        assert_eq!(
            s.compute_cycles,
            d.compute_cycles - s.skipped_cycles,
            "saved cycles accounted exactly"
        );
    }

    #[test]
    fn all_zero_multiplier_skips_every_round() {
        let mut arr = arr();
        let a = Operand::new(0, 8).unwrap();
        let b = Operand::new(8, 8).unwrap();
        let p = Operand::new(16, 16).unwrap();
        arr.poke_lane(0, a, 213);
        let s = arr.mul_skip_zero_rows(a, b, p).unwrap();
        assert_eq!(arr.peek_lane(0, p), 0);
        assert_eq!(s.skipped_rounds, 8);
        assert_eq!(s.compute_cycles, 16, "only the product zeroing runs");
        assert!((s.skip_fraction() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn dense_rows_are_never_skipped() {
        let mut arr = arr();
        let a = Operand::new(0, 8).unwrap();
        let b = Operand::new(8, 8).unwrap();
        let p = Operand::new(16, 16).unwrap();
        arr.poke_lane(0, a, 7);
        arr.poke_lane(0, b, 255);
        let s = arr.mul_skip_zero_rows(a, b, p).unwrap();
        assert_eq!(arr.peek_lane(0, p), 7 * 255);
        assert_eq!(s.skipped_rounds, 0);
        assert_eq!(s.compute_cycles, 96, "full dense cost");
    }

    #[test]
    fn skip_zero_input_bits_is_bit_identical_and_charges_detect() {
        // Low-nibble *inputs*: bit rounds 4..8 of the multiplier are
        // all-zero across lanes and elide after the per-round detect.
        let mut dense = arr();
        let mut sparse = arr();
        let a = Operand::new(0, 8).unwrap();
        let b = Operand::new(8, 8).unwrap();
        let p = Operand::new(16, 16).unwrap();
        let values = [(200u64, 9u64), (37, 0), (255, 15), (1, 8)];
        for (lane, (x, y)) in values.iter().enumerate() {
            dense.poke_lane(lane, a, *x);
            dense.poke_lane(lane, b, *y);
            sparse.poke_lane(lane, a, *x);
            sparse.poke_lane(lane, b, *y);
        }
        let d = dense.mul(a, b, p).unwrap();
        let s = sparse.mul_skip_zero_input_bits(a, b, p).unwrap();
        for (lane, (x, y)) in values.iter().enumerate() {
            assert_eq!(sparse.peek_lane(lane, p), x * y, "lane {lane}");
        }
        assert_eq!(s.mul_rounds, 8);
        assert_eq!(s.detect_cycles, 8, "every scheduled round pays a detect");
        assert_eq!(s.input_rounds_skipped, 4, "top-nibble rounds elided");
        assert_eq!(s.skipped_rounds, 0, "weight-skip counter untouched");
        assert_eq!(s.skipped_cycles, 4 * 10, "n + 2 cycles per elided round");
        // Reconciliation: executed = dense - saved + detect overhead.
        assert_eq!(
            s.compute_cycles + s.skipped_cycles - s.detect_cycles,
            d.compute_cycles,
            "detect-aware cycle reconciliation"
        );
    }

    #[test]
    fn dense_inputs_make_detection_pure_overhead() {
        let mut arr = arr();
        let a = Operand::new(0, 8).unwrap();
        let b = Operand::new(8, 8).unwrap();
        let p = Operand::new(16, 16).unwrap();
        arr.poke_lane(0, a, 7);
        arr.poke_lane(0, b, 255);
        let s = arr.mul_skip_zero_input_bits(a, b, p).unwrap();
        assert_eq!(arr.peek_lane(0, p), 7 * 255);
        assert_eq!(s.input_rounds_skipped, 0);
        assert_eq!(s.detect_cycles, 8);
        assert_eq!(s.compute_cycles, 96 + 8, "full dense cost plus detects");
    }

    #[test]
    fn skip_both_truncates_the_add_chain_and_skips_input_rounds() {
        // Multiplicand (weights) limited to the low 3 bits on every lane;
        // multiplier (inputs) limited to the low nibble.
        let mut dense = arr();
        let mut both = arr();
        let a = Operand::new(0, 8).unwrap();
        let b = Operand::new(8, 8).unwrap();
        let p = Operand::new(16, 16).unwrap();
        let values = [(5u64, 9u64), (7, 0), (3, 15), (1, 8)];
        for (lane, (x, y)) in values.iter().enumerate() {
            dense.poke_lane(lane, a, *x);
            dense.poke_lane(lane, b, *y);
            both.poke_lane(lane, a, *x);
            both.poke_lane(lane, b, *y);
        }
        let d = dense.mul(a, b, p).unwrap();
        let s = both.mul_skip_both(a, b, p).unwrap();
        for (lane, (x, y)) in values.iter().enumerate() {
            assert_eq!(both.peek_lane(lane, p), x * y, "lane {lane}");
            assert_eq!(both.peek_lane(lane, p), dense.peek_lane(lane, p));
        }
        assert_eq!(s.mul_rounds, 8);
        assert_eq!(s.detect_cycles, 8);
        assert_eq!(s.input_rounds_skipped, 4);
        // Saved: 4 skipped rounds * 10 + 4 executed rounds * (8 - 3) adds.
        assert_eq!(s.skipped_cycles, 4 * 10 + 4 * 5);
        assert_eq!(
            s.compute_cycles + s.skipped_cycles - s.detect_cycles,
            d.compute_cycles,
            "detect-aware cycle reconciliation"
        );
    }

    #[test]
    fn skip_both_with_mid_bit_weight_holes_stays_exact() {
        // Weight codes 0b1000_0001: live = 8 (no truncation possible), a
        // zero *middle* row must still execute — products must stay exact.
        let mut arr = arr();
        let a = Operand::new(0, 8).unwrap();
        let b = Operand::new(8, 8).unwrap();
        let p = Operand::new(16, 16).unwrap();
        arr.poke_lane(0, a, 0x81);
        arr.poke_lane(1, a, 0x81);
        arr.poke_lane(0, b, 201);
        arr.poke_lane(1, b, 54); // 201 | 54 = 255: every input round live
        let s = arr.mul_skip_both(a, b, p).unwrap();
        assert_eq!(arr.peek_lane(0, p), 0x81 * 201);
        assert_eq!(arr.peek_lane(1, p), 0x81 * 54);
        assert_eq!(s.skipped_cycles, 0, "no truncation, no input skips");
    }

    #[test]
    fn skip_both_all_zero_weights_run_empty_rounds() {
        let mut arr = arr();
        let a = Operand::new(0, 8).unwrap();
        let b = Operand::new(8, 8).unwrap();
        let p = Operand::new(16, 16).unwrap();
        arr.poke_lane(0, b, 255);
        let s = arr.mul_skip_both(a, b, p).unwrap();
        assert_eq!(arr.peek_lane(0, p), 0);
        // live = 0: every round is tag load + carry write (2 cycles) after
        // its detect; zeroing is 16 cycles.
        assert_eq!(s.compute_cycles, 16 + 8 * 3);
        assert_eq!(s.skipped_cycles, 8 * 8, "8 truncated adds per round");
    }

    #[test]
    fn dynamic_skip_variants_match_dense_exhaustively() {
        let mut arr = arr();
        let a = Operand::new(0, 8).unwrap();
        let b = Operand::new(8, 8).unwrap();
        let p = Operand::new(16, 16).unwrap();
        let interesting = [0u64, 1, 2, 3, 15, 127, 128, 255];
        for &x in &interesting {
            for (lane, &y) in interesting.iter().enumerate() {
                arr.poke_lane(lane, a, x);
                arr.poke_lane(lane, b, y);
            }
            arr.mul_skip_zero_input_bits(a, b, p).unwrap();
            for (lane, &y) in interesting.iter().enumerate() {
                assert_eq!(arr.peek_lane(lane, p), x * y, "input-skip {x} * {y}");
            }
            arr.mul_skip_both(a, b, p).unwrap();
            for (lane, &y) in interesting.iter().enumerate() {
                assert_eq!(arr.peek_lane(lane, p), x * y, "skip-both {x} * {y}");
            }
        }
    }

    #[test]
    fn dynamic_variants_validate_like_dense() {
        let mut arr = arr();
        let a = Operand::new(0, 8).unwrap();
        let b = Operand::new(8, 8).unwrap();
        let narrow = Operand::new(16, 15).unwrap();
        assert!(matches!(
            arr.mul_skip_zero_input_bits(a, b, narrow),
            Err(SramError::DestinationTooNarrow { .. })
        ));
        assert!(matches!(
            arr.mul_skip_both(a, b, narrow),
            Err(SramError::DestinationTooNarrow { .. })
        ));
        let overlapping = Operand::new(4, 16).unwrap();
        assert!(matches!(
            arr.mul_skip_both(a, b, overlapping),
            Err(SramError::OverlappingOperands { .. })
        ));
    }

    #[test]
    fn skip_variant_validates_like_dense() {
        let mut arr = arr();
        let a = Operand::new(0, 8).unwrap();
        let b = Operand::new(8, 8).unwrap();
        let narrow = Operand::new(16, 15).unwrap();
        assert!(matches!(
            arr.mul_skip_zero_rows(a, b, narrow),
            Err(SramError::DestinationTooNarrow { .. })
        ));
        let overlapping = Operand::new(4, 16).unwrap();
        assert!(matches!(
            arr.mul_skip_zero_rows(a, b, overlapping),
            Err(SramError::OverlappingOperands { .. })
        ));
    }

    #[test]
    fn rejects_narrow_product() {
        let mut arr = arr();
        let a = Operand::new(0, 8).unwrap();
        let b = Operand::new(8, 8).unwrap();
        let p = Operand::new(16, 15).unwrap();
        assert!(matches!(
            arr.mul(a, b, p),
            Err(SramError::DestinationTooNarrow { .. })
        ));
    }
}
