//! Tests of the comparison, max/min, `ReLU` and saturation ops — the
//! predication-based supporting functions of Section IV-D; the ops
//! themselves are provided methods of [`super::MicroOps`].

#[cfg(test)]
mod tests {
    use crate::{ComputeArray, MicroOps, Operand};

    fn arr() -> ComputeArray {
        ComputeArray::with_zero_row(255).unwrap()
    }

    const DUMP: usize = 250;

    #[test]
    fn compare_sets_carry_per_lane() {
        let mut a = arr();
        let x = Operand::new(0, 8).unwrap();
        let y = Operand::new(8, 8).unwrap();
        let s = Operand::new(16, 8).unwrap();
        let cases = [(10u64, 20u64), (20, 10), (7, 7), (0, 255)];
        for (lane, (p, q)) in cases.iter().enumerate() {
            a.poke_lane(lane, x, *p);
            a.poke_lane(lane, y, *q);
        }
        a.compare_ge(x, y, s, DUMP).unwrap();
        for (lane, (p, q)) in cases.iter().enumerate() {
            assert_eq!(a.carry().get(lane), p >= q, "{p} >= {q}");
        }
        // Operands unchanged.
        for (lane, (p, q)) in cases.iter().enumerate() {
            assert_eq!(a.peek_lane(lane, x), *p);
            assert_eq!(a.peek_lane(lane, y), *q);
        }
    }

    #[test]
    fn max_min_running() {
        let mut a = arr();
        let acc = Operand::new(0, 8).unwrap();
        let x = Operand::new(8, 8).unwrap();
        let s = Operand::new(16, 8).unwrap();
        let cases = [(10u64, 20u64), (200, 100), (7, 7)];
        for (lane, (p, q)) in cases.iter().enumerate() {
            a.poke_lane(lane, acc, *p);
            a.poke_lane(lane, x, *q);
        }
        let d = a.max_assign(acc, x, s, DUMP).unwrap();
        assert_eq!(d.compute_cycles, 3 * 8 + 2);
        for (lane, (p, q)) in cases.iter().enumerate() {
            assert_eq!(a.peek_lane(lane, acc), *p.max(q));
        }
        for (lane, (p, q)) in cases.iter().enumerate() {
            a.poke_lane(lane, acc, *p);
            a.poke_lane(lane, x, *q);
        }
        a.min_assign(acc, x, s, DUMP).unwrap();
        for (lane, (p, q)) in cases.iter().enumerate() {
            assert_eq!(a.peek_lane(lane, acc), *p.min(q));
        }
    }

    #[test]
    fn relu_zeroes_negative_lanes() {
        let mut a = arr();
        let x = Operand::new(0, 16).unwrap();
        a.poke_lane_signed(0, x, -5);
        a.poke_lane_signed(1, x, 5);
        a.poke_lane_signed(2, x, 0);
        a.poke_lane_signed(3, x, -32768);
        let d = a.relu(x).unwrap();
        assert_eq!(d.compute_cycles, 17);
        assert_eq!(a.peek_lane_signed(0, x), 0);
        assert_eq!(a.peek_lane_signed(1, x), 5);
        assert_eq!(a.peek_lane_signed(2, x), 0);
        assert_eq!(a.peek_lane_signed(3, x), 0);
    }

    #[test]
    fn clamp_saturates() {
        let mut a = arr();
        let x = Operand::new(0, 16).unwrap();
        for (lane, v) in [0u64, 255, 256, 40000].into_iter().enumerate() {
            a.poke_lane(lane, x, v);
        }
        a.clamp_max_scalar(x, 255, DUMP).unwrap();
        for (lane, v) in [0u64, 255, 255, 255].into_iter().enumerate() {
            assert_eq!(a.peek_lane(lane, x), v);
        }
    }
}
