//! Tests of the addition and subtraction ops (Section III-B, Figure 4);
//! the ops themselves are provided methods of [`super::MicroOps`].

#[cfg(test)]
mod tests {
    use crate::{ComputeArray, MicroOps, Operand};

    fn arr() -> ComputeArray {
        ComputeArray::with_zero_row(255).unwrap()
    }

    #[test]
    fn add_matches_paper_cost_and_figure4() {
        // Figure 4 adds two vectors of 4-bit words; n-bit addition takes
        // n + 1 cycles including the final carry write.
        let mut a = arr();
        let va = Operand::new(0, 4).unwrap();
        let vb = Operand::new(4, 4).unwrap();
        let sum = Operand::new(8, 5).unwrap();
        let pairs = [(3u64, 5u64), (15, 15), (0, 0), (9, 6)];
        for (lane, (x, y)) in pairs.iter().enumerate() {
            a.poke_lane(lane, va, *x);
            a.poke_lane(lane, vb, *y);
        }
        let d = a.add(va, vb, sum).unwrap();
        assert_eq!(d.compute_cycles, 5, "n+1 cycles for n=4");
        for (lane, (x, y)) in pairs.iter().enumerate() {
            assert_eq!(a.peek_lane(lane, sum), x + y);
        }
    }

    #[test]
    fn add_wrapping_without_carry_row() {
        let mut a = arr();
        let va = Operand::new(0, 8).unwrap();
        let vb = Operand::new(8, 8).unwrap();
        let dst = Operand::new(16, 8).unwrap();
        a.poke_lane(0, va, 200);
        a.poke_lane(0, vb, 100);
        let d = a.add(va, vb, dst).unwrap();
        assert_eq!(d.compute_cycles, 8);
        assert_eq!(a.peek_lane(0, dst), (200 + 100) & 0xFF);
    }

    #[test]
    fn add_in_place_aliasing_allowed() {
        let mut a = arr();
        let va = Operand::new(0, 8).unwrap();
        let vb = Operand::new(8, 8).unwrap();
        a.poke_lane(2, va, 33);
        a.poke_lane(2, vb, 44);
        a.add(va, vb, va).unwrap();
        assert_eq!(a.peek_lane(2, va), 77);
    }

    #[test]
    fn add_assign_zero_extends() {
        let mut a = arr();
        let acc = Operand::new(0, 24).unwrap();
        let x = Operand::new(24, 16).unwrap();
        a.poke_lane(0, acc, 0xFF_FF00);
        a.poke_lane(0, x, 0x0100);
        let d = a.add_assign(acc, x).unwrap();
        assert_eq!(d.compute_cycles, 24);
        assert_eq!(a.peek_lane(0, acc), 0);
        a.poke_lane(1, acc, 1000);
        a.poke_lane(1, x, 65535);
        // lane 0 accumulates garbage now, which is fine; check lane 1 only
        a.add_assign(acc, x).unwrap();
        assert_eq!(a.peek_lane(1, acc), 1000 + 65535);
    }

    #[test]
    fn add_scalar_signed_wraps_two_complement() {
        let mut a = arr();
        let op = Operand::new(0, 32).unwrap();
        a.poke_lane(0, op, 100);
        a.add_scalar_signed(op, -42).unwrap();
        assert_eq!(a.peek_lane_signed(0, op), 58);
        a.add_scalar_signed(op, -100).unwrap();
        assert_eq!(a.peek_lane_signed(0, op), -42);
        a.add_scalar_signed(op, 42).unwrap();
        assert_eq!(a.peek_lane_signed(0, op), 0);
    }

    #[test]
    fn sub_sets_no_borrow_carry() {
        let mut a = arr();
        let va = Operand::new(0, 8).unwrap();
        let vb = Operand::new(8, 8).unwrap();
        let dst = Operand::new(16, 8).unwrap();
        let scratch = Operand::new(24, 8).unwrap();
        a.poke_lane(0, va, 90);
        a.poke_lane(0, vb, 60);
        a.poke_lane(1, va, 60);
        a.poke_lane(1, vb, 90);
        a.poke_lane(2, va, 7);
        a.poke_lane(2, vb, 7);
        let d = a.sub(va, vb, dst, scratch).unwrap();
        assert_eq!(d.compute_cycles, 16, "2n cycles for n=8");
        assert_eq!(a.peek_lane(0, dst), 30);
        assert_eq!(a.peek_lane(1, dst), (60u64.wrapping_sub(90)) & 0xFF);
        assert_eq!(a.peek_lane(2, dst), 0);
        assert!(a.carry().get(0), "90 >= 60");
        assert!(!a.carry().get(1), "60 < 90 borrows");
        assert!(a.carry().get(2), "equal means no borrow");
    }

    #[test]
    fn rejects_overlapping_inputs() {
        let mut a = arr();
        let x = Operand::new(0, 8).unwrap();
        let y = Operand::new(4, 8).unwrap();
        let d = Operand::new(16, 8).unwrap();
        assert!(a.add(x, y, d).is_err());
    }
}
