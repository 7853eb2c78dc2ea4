//! Tests of the region-wide copies, constants, complements, logic ops and
//! equality search (provided methods of [`super::MicroOps`]), and the logic
//! op selector.

/// Binary logic operation selector for [`super::MicroOps::logic_region`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LogicOp {
    /// Column-wise AND (direct bit-line sense).
    And,
    /// Column-wise OR (complement of the NOR sense).
    Or,
    /// Column-wise XOR (peripheral combination of both senses).
    Xor,
    /// Column-wise NOR (direct bit-line-complement sense).
    Nor,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ComputeArray, MicroOps, Operand, Predicate};

    fn arr() -> ComputeArray {
        ComputeArray::with_zero_row(255).unwrap()
    }

    #[test]
    fn zero_and_broadcast() {
        let mut a = arr();
        let op = Operand::new(0, 16).unwrap();
        a.poke_lane(3, op, 0xFFFF);
        let d = a.zero(op).unwrap();
        assert_eq!(d.compute_cycles, 16);
        assert_eq!(a.peek_lane(3, op), 0);
        let d = a.broadcast_scalar(op, 0xBEEF).unwrap();
        assert_eq!(d.compute_cycles, 16);
        for lane in [0, 100, 255] {
            assert_eq!(a.peek_lane(lane, op), 0xBEEF);
        }
        assert!(a.broadcast_scalar(Operand::new(0, 4).unwrap(), 16).is_err());
    }

    #[test]
    fn copy_and_zext() {
        let mut a = arr();
        let src = Operand::new(0, 8).unwrap();
        let dst = Operand::new(8, 8).unwrap();
        let wide = Operand::new(16, 12).unwrap();
        a.poke_lane(7, src, 0xA5);
        a.copy(src, dst, Predicate::Always).unwrap();
        assert_eq!(a.peek_lane(7, dst), 0xA5);
        let d = a.copy_zext(src, wide).unwrap();
        assert_eq!(d.compute_cycles, 12);
        assert_eq!(a.peek_lane(7, wide), 0xA5);
        // Partial overlap is rejected.
        let overlap = Operand::new(4, 8).unwrap();
        assert!(a.copy(src, overlap, Predicate::Always).is_err());
    }

    #[test]
    fn not_region_is_complement() {
        let mut a = arr();
        let src = Operand::new(0, 8).unwrap();
        let dst = Operand::new(8, 8).unwrap();
        a.poke_lane(0, src, 0b1100_1010);
        a.not_region(src, dst).unwrap();
        assert_eq!(a.peek_lane(0, dst), 0b0011_0101);
        // In-place complement round-trips.
        a.not_region(dst, dst).unwrap();
        assert_eq!(a.peek_lane(0, dst), 0b1100_1010);
    }

    #[test]
    fn logic_region_semantics() {
        let mut a = arr();
        let x = Operand::new(0, 8).unwrap();
        let y = Operand::new(8, 8).unwrap();
        let out = Operand::new(16, 8).unwrap();
        a.poke_lane(11, x, 0b1010_1100);
        a.poke_lane(11, y, 0b0110_1010);
        a.logic_region(LogicOp::And, x, y, out).unwrap();
        assert_eq!(a.peek_lane(11, out), 0b0010_1000);
        a.logic_region(LogicOp::Or, x, y, out).unwrap();
        assert_eq!(a.peek_lane(11, out), 0b1110_1110);
        a.logic_region(LogicOp::Xor, x, y, out).unwrap();
        assert_eq!(a.peek_lane(11, out), 0b1100_0110);
        a.logic_region(LogicOp::Nor, x, y, out).unwrap();
        assert_eq!(a.peek_lane(11, out), 0b0001_0001);
    }

    #[test]
    fn search_finds_matching_lanes() {
        let mut a = arr();
        let op = Operand::new(0, 8).unwrap();
        a.poke_lane(1, op, 42);
        a.poke_lane(2, op, 43);
        a.poke_lane(3, op, 42);
        let d = a.search_eq_scalar(op, 42).unwrap();
        assert_eq!(d.compute_cycles, 8);
        assert!(!a.tag().get(0), "lane 0 holds 0 != 42");
        assert!(a.tag().get(1));
        assert!(!a.tag().get(2));
        assert!(a.tag().get(3));
    }

    #[test]
    fn search_for_zero_matches_empty_lanes() {
        let mut a = arr();
        let op = Operand::new(0, 8).unwrap();
        a.poke_lane(9, op, 1);
        a.search_eq_scalar(op, 0).unwrap();
        assert!(a.tag().get(0));
        assert!(!a.tag().get(9));
    }
}
