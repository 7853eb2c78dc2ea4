//! Property tests of the word-parallel staging paths against per-lane
//! references written out here: the bulk loader and read-out
//! (`poke_lanes`/`peek_lanes` and their signed twins) against loops of the
//! single-lane calls, `BitSlices::repeat` against transposing repeated
//! values, and the lane moves and access-path lane writes against
//! per-lane `BitRow::get`/`set` loops.

use nc_sram::{BitRow, BitSlices, ComputeArray, MicroOps, Operand, Schedule, SramError, COLS};
use proptest::prelude::*;

/// The lane shifts (and lane offsets) every move property covers: word
/// boundaries and their neighbours.
const SHIFTS: [usize; 7] = [0, 1, 63, 64, 65, 127, 128];

fn arr() -> ComputeArray {
    ComputeArray::with_zero_row(255).unwrap()
}

fn mask(bits: usize) -> u64 {
    if bits >= 64 {
        u64::MAX
    } else {
        (1 << bits) - 1
    }
}

fn row_from(words: &[u64]) -> BitRow {
    BitRow::from_fn(|c| (words[c / 64] >> (c % 64)) & 1 == 1)
}

/// Two identical arrays whose `op` rows (and the rows around them) hold
/// `fill` on every lane, staged through the single-lane reference path.
fn prefilled(op: Operand, fill: &[u64]) -> (ComputeArray, ComputeArray) {
    let mut a = arr();
    let around = Operand::new(op.base().saturating_sub(2), 2).unwrap();
    for (lane, &v) in fill.iter().enumerate() {
        a.poke_lane(lane, op, v & mask(op.bits()));
        if around != op && !around.overlaps(&op) {
            a.poke_lane(lane, around, v >> 62);
        }
    }
    (a.clone(), a)
}

/// Reference lane move: per-lane `get`/`set`, as the array did before it
/// moved whole words.
fn move_reference(
    source: &BitRow,
    target: &BitRow,
    lane_shift: usize,
    lanes_per_group: usize,
    group_stride: usize,
    groups: usize,
) -> BitRow {
    let mut out = *target;
    for base in (0..groups).map(|g| g * group_stride) {
        for lane in base..base + lanes_per_group {
            out.set(lane, source.get(lane + lane_shift));
        }
    }
    out
}

/// Reference access-path lane write: per-lane `get`/`set`.
fn write_reference(target: &BitRow, value: &BitRow, lane_offset: usize, lanes: usize) -> BitRow {
    let mut out = *target;
    for lane in 0..lanes {
        out.set(lane_offset + lane, value.get(lane));
    }
    out
}

/// Runs one lane move on an array holding `source`/`target` and on a
/// recorder, and checks both against the per-lane reference (or, past the
/// last bit line, that both refuse it and leave the row untouched).
fn check_move(
    source: &BitRow,
    target: &BitRow,
    lane_shift: usize,
    lanes_per_group: usize,
    group_stride: usize,
    groups: usize,
) {
    let (src, dst) = (3, 70);
    let mut a = arr();
    a.access_write_row(src, *source).unwrap();
    a.access_write_row(dst, *target).unwrap();
    a.reset_stats();
    let mut s = Schedule::with_zero_row(255);
    let args = (lane_shift, lanes_per_group, group_stride, groups);
    let executed = a.op_move_lanes(src, dst, args.0, args.1, args.2, args.3);
    let recorded = s.op_move_lanes(src, dst, args.0, args.1, args.2, args.3);
    let end = groups.saturating_sub(1) * group_stride + lanes_per_group + lane_shift;
    if groups > 0 && lanes_per_group > 0 && end > COLS {
        assert_eq!(
            executed,
            Err(SramError::ColOutOfRange { col: end }),
            "{args:?}"
        );
        assert_eq!(recorded, executed, "both sinks refuse {args:?}");
        assert_eq!(a.cells().read_row(dst).unwrap(), *target);
        assert_eq!((a.stats().total_cycles(), s.steps.len()), (0, 0));
    } else {
        executed.unwrap();
        recorded.unwrap();
        let want = move_reference(
            source,
            target,
            lane_shift,
            lanes_per_group,
            group_stride,
            groups,
        );
        assert_eq!(a.cells().read_row(dst).unwrap(), want, "{args:?}");
        assert_eq!(a.cells().read_row(src).unwrap(), *source);
        assert_eq!(a.stats().compute_cycles, 2);
        assert_eq!(s.compute_cycles(), 2);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn poke_lanes_matches_a_poke_lane_loop(
        bits in 1usize..=64,
        base in 0usize..190,
        n in 0usize..=256,
        values in proptest::collection::vec(any::<u64>(), COLS),
        fill in proptest::collection::vec(any::<u64>(), COLS),
    ) {
        let op = Operand::new(base, bits).unwrap();
        let values: Vec<u64> = values.iter().map(|v| v & mask(bits)).collect();
        let (mut bulk, mut single) = prefilled(op, &fill);
        bulk.poke_lanes(op, values[..n].iter().copied());
        for (lane, &v) in values[..n].iter().enumerate() {
            single.poke_lane(lane, op, v);
        }
        prop_assert_eq!(bulk.cells(), single.cells(), "lanes past {} keep their bits", n);
        prop_assert_eq!(bulk.stats().total_cycles(), 0, "the loader is free");
        let read = bulk.peek_lanes(op, n);
        let want: Vec<u64> = (0..n).map(|l| single.peek_lane(l, op)).collect();
        prop_assert_eq!(read, want);
    }

    #[test]
    fn peek_lanes_matches_a_peek_lane_loop(
        bits in 1usize..=80,
        n in 0usize..=256,
        fill in proptest::collection::vec(any::<u64>(), COLS),
    ) {
        let op = Operand::new(100, bits).unwrap();
        let (a, _) = prefilled(op, &fill);
        let want: Vec<u64> = (0..n).map(|l| a.peek_lane(l, op)).collect();
        prop_assert_eq!(a.peek_lanes(op, n), want);
    }

    #[test]
    fn wide_operands_clear_bits_past_63(
        bits in 65usize..=96,
        n in 0usize..=256,
        values in proptest::collection::vec(any::<u64>(), COLS),
    ) {
        let op = Operand::new(40, bits).unwrap();
        let fill = vec![u64::MAX; COLS];
        let (mut bulk, mut single) = prefilled(op, &fill);
        // Set the bits past 63 too, so clearing them shows.
        for lane in 0..COLS {
            single.poke_lane(lane, op.slice(64, bits - 64).unwrap(), mask(bits - 64));
            bulk.poke_lane(lane, op.slice(64, bits - 64).unwrap(), mask(bits - 64));
        }
        bulk.poke_lanes(op, values[..n].iter().copied());
        for (lane, &v) in values[..n].iter().enumerate() {
            single.poke_lane(lane, op, v);
        }
        prop_assert_eq!(bulk.cells(), single.cells());
    }

    #[test]
    fn signed_bulk_calls_match_the_single_lane_ones(
        bits in 1usize..=64,
        n in 0usize..=256,
        values in proptest::collection::vec(any::<i64>(), COLS),
        fill in proptest::collection::vec(any::<u64>(), COLS),
    ) {
        let op = Operand::new(8, bits).unwrap();
        // Reduce each value into the operand's signed range.
        let values: Vec<i64> = values
            .iter()
            .map(|&v| if bits == 64 { v } else { (v << (64 - bits)) >> (64 - bits) })
            .collect();
        let (mut bulk, mut single) = prefilled(op, &fill);
        bulk.poke_lanes_signed(op, values[..n].iter().copied());
        for (lane, &v) in values[..n].iter().enumerate() {
            single.poke_lane_signed(lane, op, v);
        }
        prop_assert_eq!(bulk.cells(), single.cells());
        let want: Vec<i64> = (0..n).map(|l| single.peek_lane_signed(l, op)).collect();
        prop_assert_eq!(bulk.peek_lanes_signed(op, n), want);
        prop_assert_eq!(&bulk.peek_lanes_signed(op, n)[..], &values[..n]);
    }

    #[test]
    fn forty_bit_accumulators_round_trip(
        n in 0usize..=256,
        values in proptest::collection::vec(any::<i64>(), COLS),
    ) {
        let op = Operand::new(0, 40).unwrap();
        let values: Vec<i64> = values.iter().map(|&v| (v << 24) >> 24).collect();
        let mut a = arr();
        a.poke_lanes_signed(op, values[..n].iter().copied());
        prop_assert_eq!(&a.peek_lanes_signed(op, n)[..], &values[..n]);
        for (lane, &v) in values[..n].iter().enumerate() {
            prop_assert_eq!(a.peek_lane_signed(lane, op), v);
        }
    }

    #[test]
    fn lane_moves_match_a_per_lane_loop(
        shift in 0usize..SHIFTS.len(),
        lanes_per_group in 1usize..=130,
        group_stride in 0usize..=256,
        groups in 1usize..=8,
        source in proptest::collection::vec(any::<u64>(), 4),
        target in proptest::collection::vec(any::<u64>(), 4),
    ) {
        check_move(
            &row_from(&source),
            &row_from(&target),
            SHIFTS[shift],
            lanes_per_group,
            group_stride,
            groups,
        );
    }

    #[test]
    fn grouped_lane_moves_match_a_per_lane_loop(
        source in proptest::collection::vec(any::<u64>(), 4),
        target in proptest::collection::vec(any::<u64>(), 4),
    ) {
        let (source, target) = (row_from(&source), row_from(&target));
        // (lanes_per_group, group_stride, groups), from one lane per pair
        // to one group over the whole row, plus uneven and overlapping
        // strides and empty moves.
        let shapes = [
            (1, 2, 128),
            (1, 1, 256),
            (2, 4, 64),
            (8, 16, 16),
            (32, 64, 4),
            (64, 128, 2),
            (128, 256, 1),
            (3, 10, 20),
            (5, 7, 30),
            (9, 4, 12),
            (0, 4, 12),
            (4, 4, 0),
        ];
        for shift in SHIFTS {
            for (lanes, stride, groups) in shapes {
                check_move(&source, &target, shift, lanes, stride, groups);
            }
        }
    }

    #[test]
    fn successive_moves_on_one_array_match_a_per_lane_loop(
        geometries in proptest::collection::vec(0usize..=256, 32),
        rows in proptest::collection::vec(any::<u64>(), 8),
    ) {
        // One array runs moves of changing geometry back to back, so a
        // move may not reuse the lanes of the previous one.
        let (mut source, mut target) = (row_from(&rows[..4]), row_from(&rows[4..]));
        let mut a = arr();
        a.access_write_row(3, source).unwrap();
        a.access_write_row(70, target).unwrap();
        for g in geometries.chunks_exact(4) {
            // Few lane counts and strides, so geometries that differ only
            // in their group count follow each other.
            let lanes = 1 << (g[0] % 4);
            let stride = lanes + g[1] % 3;
            let groups = (g[2] % 8 + 1).min((COLS - lanes) / stride + 1);
            let shift = g[3] % (COLS - (groups - 1) * stride - lanes + 1);
            a.op_move_lanes(3, 70, shift, lanes, stride, groups).unwrap();
            target = move_reference(&source, &target, shift, lanes, stride, groups);
            prop_assert_eq!(a.cells().read_row(70).unwrap(), target);
            // The next move reads what this one wrote.
            a.access_write_row(3, target).unwrap();
            source = target;
        }
    }

    #[test]
    fn lane_writes_match_a_per_lane_loop(
        offset in 0usize..SHIFTS.len(),
        lanes in 0usize..=256,
        value in proptest::collection::vec(any::<u64>(), 4),
        target in proptest::collection::vec(any::<u64>(), 4),
    ) {
        let (value, target, offset) = (row_from(&value), row_from(&target), SHIFTS[offset]);
        let mut a = arr();
        a.access_write_row(9, target).unwrap();
        a.reset_stats();
        let mut s = Schedule::new();
        let executed = a.access_write_lanes(9, &value, offset, lanes);
        let recorded = s.access_write_lanes(9, &value, offset, lanes);
        if offset + lanes > COLS {
            prop_assert_eq!(executed, Err(SramError::ColOutOfRange { col: offset + lanes }));
            prop_assert_eq!(recorded, executed);
            prop_assert_eq!(a.cells().read_row(9).unwrap(), target);
            prop_assert_eq!(a.stats().access_cycles, 0);
        } else {
            executed.unwrap();
            recorded.unwrap();
            prop_assert_eq!(
                a.cells().read_row(9).unwrap(),
                write_reference(&target, &value, offset, lanes)
            );
            prop_assert_eq!((a.stats().access_cycles, s.stats().access_cycles), (1, 1));
        }
    }

    #[test]
    fn repeated_slices_match_slices_of_repeated_values(
        lanes in 0usize..=64,
        copies in 0usize..=4,
        values in proptest::collection::vec(0u64..=255, 64),
    ) {
        let once = BitSlices::new(8, values[..lanes].iter().copied());
        let cycled = (0..copies).flat_map(|_| values[..lanes].iter().copied());
        prop_assert_eq!(once.repeat(copies), BitSlices::new(8, cycled));
    }

    #[test]
    fn row_helpers_match_column_references(
        cols in 0usize..=300,
        start in 0usize..=300,
        end in 0usize..=300,
        stride in 0usize..=100,
        copies in 0usize..=40,
        words in proptest::collection::vec(any::<u64>(), 4),
    ) {
        let row = row_from(&words);
        prop_assert_eq!(
            row.shift_down(cols),
            BitRow::from_fn(|c| c + cols < COLS && row.get(c + cols))
        );
        prop_assert_eq!(
            row.shift_up(cols),
            BitRow::from_fn(|c| c >= cols && row.get(c - cols))
        );
        prop_assert_eq!(BitRow::span(start..end), BitRow::from_fn(|c| (start..end).contains(&c)));
        let first = BitRow::span(start.min(COLS)..end.min(start + 9));
        prop_assert_eq!(
            first.repeat(stride, copies),
            BitRow::from_fn(|c| (0..copies).any(|k| c >= k * stride && first.get(c - k * stride)))
        );
    }
}

#[test]
#[should_panic(expected = "does not fit in 8 bits")]
fn poke_lanes_rejects_a_value_wider_than_the_operand() {
    arr().poke_lanes(Operand::new(0, 8).unwrap(), [1, 256]);
}

#[test]
#[should_panic(expected = "lane 256 out of range")]
fn poke_lanes_rejects_a_257th_lane() {
    arr().poke_lanes(
        Operand::new(0, 8).unwrap(),
        std::iter::repeat_n(0, COLS + 1),
    );
}

#[test]
#[should_panic(expected = "overlaps the zero row")]
fn poke_lanes_refuses_the_zero_row() {
    arr().poke_lanes(Operand::new(248, 8).unwrap(), [1]);
}

#[test]
#[should_panic(expected = "does not fit in 40 signed bits")]
fn poke_lanes_signed_rejects_an_overflowing_value() {
    arr().poke_lanes_signed(Operand::new(0, 40).unwrap(), [-1, 1 << 39]);
}
