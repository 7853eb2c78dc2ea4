//! The recording [`MicroOps`] sink: per-cycle word-line read/write sets.
//!
//! A [`Schedule`] is a straight-line sequence of [`Step`]s, one per array
//! cycle, recording only which word lines each cycle activates — no data.
//! Running any composite op on it records that op's micro-op sequence, the
//! same code that executes on a [`ComputeArray`](crate::ComputeArray).
//! Where the control FSM asks a data question ([`MicroOps::row_is_zero`],
//! the wired-NOR [`MicroOps::op_detect_zero`]), the recorder answers from
//! the rows declared zero with [`Schedule::assume_zero`]; a write to a row
//! retracts the fact, and an unpredicated zero write establishes it.
//!
//! The recorder never refuses a micro-op for its rows: port overflows,
//! out-of-range rows and zero-row clobbers are recorded as issued, so a
//! checker can report them. Lanes are another matter: a lane move or
//! access-path lane write that runs past the last bit line fails with
//! [`SramError::ColOutOfRange`], as it does on the array.

use crate::ops::{check_lane_move, check_lane_write, MicroOps, LANE_MOVE_CYCLES_PER_ROW};
use crate::{BitRow, CycleStats, Predicate, Result, SramError, ROWS};

/// Whether a cycle uses the compute path (two-row activation through the
/// bit-line peripherals) or the conventional access path (streaming
/// reads/writes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepKind {
    /// Bit-line compute cycle (counted in `compute_cycles`).
    Compute,
    /// Conventional access cycle (counted in `access_cycles`).
    Access,
}

/// One array cycle: the word lines it senses and the word lines it drives
/// for write-back.
///
/// The hardware activates at most **two** read word lines per compute
/// cycle (the two-row sense of Figure 7) and commits at most **one** write
/// word line. Reading and writing the *same* row in one cycle is legal —
/// the sense phase completes before write-back (this is how in-place adds
/// work) — but sensing one row twice is not.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Step {
    /// Compute or access path.
    pub kind: StepKind,
    /// Word lines sensed this cycle (hardware port budget: 2).
    pub reads: Vec<usize>,
    /// Word lines driven for write-back this cycle (hardware port
    /// budget: 1).
    pub writes: Vec<usize>,
    /// Micro-op label, for diagnostics.
    pub label: &'static str,
}

/// A recorded straight-line per-cycle schedule, with the same counters the
/// executed [`CycleStats`] reports.
///
/// # Example
///
/// ```
/// use nc_sram::{MicroOps, Operand, Schedule};
///
/// let (a, b, prod) = (Operand::new(0, 8)?, Operand::new(8, 8)?, Operand::new(16, 16)?);
/// let mut s = Schedule::new();
/// s.assume_zero(b.row(7)); // the top multiplier bit-slice is all-zero
/// let d = s.mul_skip_zero_rows(a, b, prod)?;
/// assert_eq!((d.mul_rounds, d.skipped_rounds), (8, 1));
/// assert_eq!(s.compute_cycles(), 16 + 7 * 10);
/// # Ok::<(), nc_sram::SramError>(())
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Schedule {
    /// Per-cycle steps, in issue order.
    pub steps: Vec<Step>,
    stats: CycleStats,
    zero_row: Option<usize>,
    known_zero: BitRow,
}

impl Schedule {
    /// An empty schedule with no zero row: complement senses fail with
    /// [`SramError::MissingZeroRow`], as on an array without one.
    #[must_use]
    pub fn new() -> Self {
        Schedule::default()
    }

    /// An empty schedule whose complement senses read `zero_row`, the
    /// dedicated all-zero row of the array it models.
    #[must_use]
    pub fn with_zero_row(zero_row: usize) -> Self {
        Schedule {
            zero_row: Some(zero_row),
            ..Schedule::default()
        }
    }

    /// Declares `row` all-zero on every lane, until a recorded write
    /// retracts it. This is the control-FSM knowledge the recorder answers
    /// [`MicroOps::row_is_zero`] and [`MicroOps::op_detect_zero`] from.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    pub fn assume_zero(&mut self, row: usize) {
        self.known_zero.set(row, true);
    }

    /// Compute cycles in the schedule (its length on the compute path) —
    /// the recorded analogue of [`CycleStats::compute_cycles`].
    #[must_use]
    pub fn compute_cycles(&self) -> u64 {
        self.stats.compute_cycles
    }

    /// Records one step. It returns `Ok` so micro-op bodies can end with
    /// it: the recorder never refuses a row.
    #[allow(clippy::unnecessary_wraps)]
    fn push(
        &mut self,
        kind: StepKind,
        reads: &[usize],
        writes: &[usize],
        label: &'static str,
    ) -> Result<()> {
        match kind {
            StepKind::Compute => self.stats.compute_cycles += 1,
            StepKind::Access => self.stats.access_cycles += 1,
        }
        for &row in writes.iter().filter(|&&row| row < ROWS) {
            self.known_zero.set(row, false);
        }
        self.steps.push(Step {
            kind,
            reads: reads.to_vec(),
            writes: writes.to_vec(),
            label,
        });
        Ok(())
    }

    /// Records one compute cycle.
    fn compute(&mut self, reads: &[usize], writes: &[usize], label: &'static str) -> Result<()> {
        self.push(StepKind::Compute, reads, writes, label)
    }

    fn zero_row_or_err(&self) -> Result<usize> {
        self.zero_row.ok_or(SramError::MissingZeroRow)
    }

    fn knows_zero(&self, row: usize) -> Result<bool> {
        if row >= ROWS {
            return Err(SramError::RowOutOfRange { row });
        }
        Ok(self.known_zero.get(row))
    }
}

impl MicroOps for Schedule {
    fn stats(&self) -> CycleStats {
        self.stats
    }

    fn stats_mut(&mut self) -> &mut CycleStats {
        &mut self.stats
    }

    fn row_is_zero(&self, row: usize) -> Result<bool> {
        self.knows_zero(row)
    }

    fn preset_carry(&mut self, _value: bool) {}

    fn preset_tag(&mut self, _value: bool) {}

    fn op_copy(&mut self, src: usize, dst: usize, _pred: Predicate) -> Result<()> {
        self.compute(&[src], &[dst], "op_copy")
    }

    fn op_not(&mut self, src: usize, dst: usize, _pred: Predicate) -> Result<()> {
        let zero = self.zero_row_or_err()?;
        self.compute(&[src, zero], &[dst], "op_not")
    }

    fn op_and(&mut self, a: usize, b: usize, dst: usize, _pred: Predicate) -> Result<()> {
        self.compute(&[a, b], &[dst], "op_and")
    }

    fn op_nor(&mut self, a: usize, b: usize, dst: usize, _pred: Predicate) -> Result<()> {
        self.compute(&[a, b], &[dst], "op_nor")
    }

    fn op_or(&mut self, a: usize, b: usize, dst: usize, _pred: Predicate) -> Result<()> {
        self.compute(&[a, b], &[dst], "op_or")
    }

    fn op_xor(&mut self, a: usize, b: usize, dst: usize, _pred: Predicate) -> Result<()> {
        self.compute(&[a, b], &[dst], "op_xor")
    }

    fn op_full_add(&mut self, a: usize, b: usize, dst: usize, _pred: Predicate) -> Result<()> {
        self.compute(&[a, b], &[dst], "op_full_add")
    }

    fn op_full_add_const(
        &mut self,
        a: usize,
        _kbit: bool,
        dst: usize,
        _pred: Predicate,
    ) -> Result<()> {
        self.compute(&[a], &[dst], "op_full_add_const")
    }

    fn op_load_tag(&mut self, src: usize) -> Result<()> {
        self.compute(&[src], &[], "op_load_tag")
    }

    fn op_detect_zero(&mut self, src: usize) -> Result<bool> {
        self.compute(&[src], &[], "op_detect_zero")?;
        self.stats.detect_cycles += 1;
        self.knows_zero(src)
    }

    fn op_load_tag_not(&mut self, src: usize) -> Result<()> {
        let zero = self.zero_row_or_err()?;
        self.compute(&[src, zero], &[], "op_load_tag_not")
    }

    fn op_and_tag(&mut self, src: usize, complement: bool) -> Result<()> {
        if complement {
            let zero = self.zero_row_or_err()?;
            self.compute(&[src, zero], &[], "op_and_tag")
        } else {
            self.compute(&[src], &[], "op_and_tag")
        }
    }

    fn op_write_carry(&mut self, dst: usize, _pred: Predicate) -> Result<()> {
        self.compute(&[], &[dst], "op_write_carry")
    }

    fn op_write_const(&mut self, dst: usize, bit: bool, pred: Predicate) -> Result<()> {
        self.compute(&[], &[dst], "op_write_const")?;
        if !bit && pred == Predicate::Always && dst < ROWS {
            self.known_zero.set(dst, true);
        }
        Ok(())
    }

    /// Records the read cycle on the source row, then the
    /// read-modify-write cycle on the destination row.
    fn op_move_lanes(
        &mut self,
        src_row: usize,
        dst_row: usize,
        lane_shift: usize,
        lanes_per_group: usize,
        group_stride: usize,
        groups: usize,
    ) -> Result<()> {
        debug_assert_eq!(LANE_MOVE_CYCLES_PER_ROW, 2);
        check_lane_move(lane_shift, lanes_per_group, group_stride, groups)?;
        self.compute(&[src_row], &[], "move_lanes/read")?;
        self.compute(&[dst_row], &[dst_row], "move_lanes/write")
    }

    /// Records the access-path read; the returned row carries no data.
    fn access_read_row(&mut self, row: usize) -> Result<BitRow> {
        self.push(StepKind::Access, &[row], &[], "transfer/read")?;
        Ok(BitRow::zero())
    }

    fn access_write_lanes(
        &mut self,
        row: usize,
        _value: &BitRow,
        lane_offset: usize,
        lanes: usize,
    ) -> Result<()> {
        check_lane_write(lane_offset, lanes)?;
        self.push(StepKind::Access, &[], &[row], "transfer/write")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ComputeArray, Operand};

    fn op(base: usize, bits: usize) -> Operand {
        Operand::new(base, bits).unwrap()
    }

    #[test]
    fn lane_move_is_two_cycles_per_row() {
        let mut s = Schedule::new();
        s.move_lanes(op(4, 1), op(40, 1), 1, 1).unwrap();
        assert_eq!(s.compute_cycles(), LANE_MOVE_CYCLES_PER_ROW);
        assert_eq!(s.steps[0].reads, vec![4]);
        assert_eq!(s.steps[1].writes, vec![40]);
    }

    #[test]
    fn writes_retract_and_zero_writes_establish_facts() {
        let mut s = Schedule::with_zero_row(255);
        s.assume_zero(3);
        assert!(s.op_detect_zero(3).unwrap());
        s.op_copy(0, 3, Predicate::Always).unwrap();
        assert!(!s.row_is_zero(3).unwrap(), "a write retracts the fact");
        s.zero(op(3, 1)).unwrap();
        assert!(s.row_is_zero(3).unwrap(), "an unpredicated zero write");
        assert_eq!(s.stats().detect_cycles, 1);
        assert_eq!(
            s.row_is_zero(ROWS),
            Err(SramError::RowOutOfRange { row: ROWS })
        );
    }

    #[test]
    fn missing_zero_row_fails_like_the_array() {
        let (x, y) = (op(0, 8), op(8, 8));
        assert_eq!(
            Schedule::new().not_region(x, y),
            Err(SramError::MissingZeroRow)
        );
        assert_eq!(
            ComputeArray::new().not_region(x, y),
            Err(SramError::MissingZeroRow)
        );
    }

    #[test]
    fn lane_moves_and_writes_past_the_last_bit_line_are_refused() {
        let mut s = Schedule::new();
        assert_eq!(
            s.op_move_lanes(0, 1, 57, 100, 100, 2),
            Err(SramError::ColOutOfRange { col: 257 })
        );
        assert_eq!(
            s.access_write_lanes(1, &BitRow::ones(), 200, 57),
            Err(SramError::ColOutOfRange { col: 257 })
        );
        assert!(s.steps.is_empty(), "nothing recorded");
        s.op_move_lanes(0, 1, 56, 100, 100, 2).unwrap();
        s.access_write_lanes(1, &BitRow::ones(), 200, 56).unwrap();
        assert_eq!(s.steps.len(), 3);
    }

    #[test]
    fn transfers_record_access_cycles_on_both_sides() {
        let (mut a, mut b) = (Schedule::new(), Schedule::new());
        let region = op(0, 32);
        let d = crate::ops::copy_lanes_between(&mut a, region, &mut b, region, 0, 16).unwrap();
        assert_eq!(d.access_cycles, 64);
        assert_eq!((a.stats().access_cycles, b.stats().access_cycles), (32, 32));
        assert_eq!(b.steps[0].writes, vec![0]);
    }
}
