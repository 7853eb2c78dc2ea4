//! Bit-serial restoring division (Section III-C mentions division support;
//! Neural Cache uses it for average pooling, where the divisor is the
//! pooling-window size). The ops are [`MicroOps::div`] and
//! [`MicroOps::div_scalar`]; this module holds their shared dataflow.

use super::MicroOps;
use crate::{Operand, Predicate, Result, SramError};

/// Scratch rows required by [`MicroOps::div`] and
/// [`MicroOps::div_scalar`] for a divisor of `d` bits: the remainder
/// register is one bit wider than the divisor, and general division also
/// materializes the divisor's complement and a trial-difference register of
/// the same width.
#[must_use]
pub fn div_scratch_bits(divisor_bits: usize) -> usize {
    divisor_bits + 1
}

/// Validates a division's registers: `quot` holds every quotient bit, each
/// of `regs` holds `w` bits, and `num`, `others`, `quot` and `regs` are
/// pairwise disjoint.
pub(super) fn validate(
    num: Operand,
    quot: Operand,
    regs: &[Operand],
    w: usize,
    others: &[Operand],
) -> Result<()> {
    if quot.bits() < num.bits() {
        return Err(SramError::DestinationTooNarrow {
            needed: num.bits(),
            available: quot.bits(),
        });
    }
    if let Some(reg) = regs.iter().find(|r| r.bits() < w) {
        return Err(SramError::DestinationTooNarrow {
            needed: w,
            available: reg.bits(),
        });
    }
    let regions: Vec<Operand> = [num, quot]
        .iter()
        .chain(regs)
        .chain(others)
        .copied()
        .collect();
    for (i, a) in regions.iter().enumerate() {
        if regions[i + 1..].iter().any(|b| a.overlaps(b)) {
            return Err(SramError::OverlappingOperands {
                what: "division register regions must be pairwise disjoint",
            });
        }
    }
    Ok(())
}

/// The restoring-division loop over a `w`-bit remainder: per quotient bit
/// (MSB first) shift the remainder up and bring in the numerator bit,
/// trial-subtract the divisor into `trial` (`trial_add(s, k)` issues the
/// full add of bit `k` with the carry preset to one), commit the no-borrow
/// carry as the quotient bit, and copy the trial back where it did not
/// borrow. Excess quotient bits are zeroed.
pub(super) fn restoring<S: MicroOps + ?Sized>(
    s: &mut S,
    num: Operand,
    quot: Operand,
    rem: Operand,
    trial: Operand,
    w: usize,
    mut trial_add: impl FnMut(&mut S, usize) -> Result<()>,
) -> Result<()> {
    s.zero(rem.slice(0, w).expect("validated"))?;
    for i in (0..num.bits()).rev() {
        // rem <- (rem << 1) | num[i]
        for k in (1..w).rev() {
            s.op_copy(rem.row(k - 1), rem.row(k), Predicate::Always)?;
        }
        s.op_copy(num.row(i), rem.row(0), Predicate::Always)?;
        // trial <- rem - den; carry = no borrow.
        s.preset_carry(true);
        for k in 0..w {
            trial_add(s, k)?;
        }
        // quot[i] <- carry; commit trial where it did not borrow.
        s.op_write_carry(quot.row(i), Predicate::Always)?;
        s.op_load_tag(quot.row(i))?;
        for k in 0..w {
            s.op_copy(trial.row(k), rem.row(k), Predicate::Tag)?;
        }
    }
    for i in num.bits()..quot.bits() {
        s.op_write_const(quot.row(i), false, Predicate::Always)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ComputeArray, Operand};

    fn arr() -> ComputeArray {
        ComputeArray::with_zero_row(255).unwrap()
    }

    #[test]
    fn div_lane_wise() {
        let mut a = arr();
        let num = Operand::new(0, 8).unwrap();
        let den = Operand::new(8, 8).unwrap();
        let quot = Operand::new(16, 8).unwrap();
        let rem = Operand::new(24, 9).unwrap();
        let trial = Operand::new(33, 9).unwrap();
        let notden = Operand::new(42, 9).unwrap();
        let cases = [(100u64, 7u64), (255, 1), (5, 9), (81, 9), (0, 3)];
        for (lane, (x, y)) in cases.iter().enumerate() {
            a.poke_lane(lane, num, *x);
            a.poke_lane(lane, den, *y);
        }
        a.div(num, den, quot, rem, trial, notden).unwrap();
        for (lane, (x, y)) in cases.iter().enumerate() {
            assert_eq!(a.peek_lane(lane, quot), x / y, "{x}/{y}");
            assert_eq!(a.peek_lane(lane, rem), x % y, "{x}%{y}");
        }
    }

    #[test]
    fn div_by_zero_lane_saturates() {
        let mut a = arr();
        let num = Operand::new(0, 4).unwrap();
        let den = Operand::new(4, 4).unwrap();
        let quot = Operand::new(8, 4).unwrap();
        let rem = Operand::new(12, 5).unwrap();
        let trial = Operand::new(17, 5).unwrap();
        let notden = Operand::new(22, 5).unwrap();
        a.poke_lane(0, num, 9);
        a.poke_lane(0, den, 0);
        a.div(num, den, quot, rem, trial, notden).unwrap();
        assert_eq!(
            a.peek_lane(0, quot),
            15,
            "zero divisor -> all-ones quotient"
        );
    }

    #[test]
    fn div_scalar_avg_pool_shape() {
        // Average pooling divides a 16-bit window sum by the window size
        // (<= 4 bits in Inception v3, e.g. 9 for 3x3).
        let mut a = arr();
        let num = Operand::new(0, 16).unwrap();
        let quot = Operand::new(16, 16).unwrap();
        let rem = Operand::new(32, 5).unwrap();
        let trial = Operand::new(37, 5).unwrap();
        for (lane, v) in [0u64, 9, 100, 65535, 12345].into_iter().enumerate() {
            a.poke_lane(lane, num, v);
        }
        a.div_scalar(num, 9, quot, rem, trial).unwrap();
        for (lane, v) in [0u64, 9, 100, 65535, 12345].into_iter().enumerate() {
            assert_eq!(a.peek_lane(lane, quot), v / 9);
            assert_eq!(a.peek_lane(lane, rem), v % 9);
        }
        assert!(a.div_scalar(num, 0, quot, rem, trial).is_err());
    }
}
