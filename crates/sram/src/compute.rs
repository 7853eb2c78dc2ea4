//! The compute array: SRAM storage + column peripherals + cycle accounting.
//!
//! This module executes the single-cycle **micro-ops** that the hardware
//! column peripheral of Figure 7 can run: [`ComputeArray`] is the executing
//! [`MicroOps`] sink. Everything more complex (multi-bit add, multiply,
//! reduction, ...) is composed from these micro-ops in [`crate::ops`], so
//! the cycle count of every high-level operation is the length of its
//! micro-op sequence — derived, not asserted.

use crate::ops::{check_lane_move, check_lane_write, MicroOps, LANE_MOVE_CYCLES_PER_ROW};
use crate::transpose::{assert_fits, from_planes};
use crate::{BitRow, BitSlices, CycleStats, Operand, Result, SramArray, SramError, COLS};

/// Write-back predication mode for a compute cycle.
///
/// The tag latch `T` drives the enable of the bit-line write driver
/// (Figure 7): when predicated, only columns whose tag bit is set commit the
/// result, and the carry latch update is likewise gated (`C_EN`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Predicate {
    /// Write on every column.
    #[default]
    Always,
    /// Write only on columns whose tag latch holds `1`.
    Tag,
}

/// One 8KB SRAM array augmented with the Neural Cache column peripherals.
///
/// Holds the 256x256 cell array, the per-column **carry** and **tag**
/// latches, an optional dedicated all-zero row (needed by operations that
/// must sense a complement or zero-extend an operand), and the cycle
/// counters.
///
/// # Example
///
/// ```
/// use nc_sram::{ComputeArray, MicroOps, Operand};
///
/// let mut array = ComputeArray::new();
/// let x = Operand::new(0, 8)?;
/// array.poke_lane(0, x, 0b1010_1010);
/// array.op_load_tag(x.msb_row())?; // tag <- MSB of x on every lane
/// assert!(array.tag().get(0));
/// # Ok::<(), nc_sram::SramError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ComputeArray {
    array: SramArray,
    carry: BitRow,
    tag: BitRow,
    zero_row: Option<usize>,
    stats: CycleStats,
    /// The column-mux pattern of the latest lane move: its
    /// `(lanes_per_group, group_stride, groups)` and the lanes it writes.
    /// Every row of one grouped move shares it, so it is rebuilt only when
    /// the geometry changes; it depends on no cell, so `reset` keeps it.
    move_pattern: ((usize, usize, usize), BitRow),
}

impl ComputeArray {
    /// Creates a cleared compute array with no zero row configured.
    #[must_use]
    pub fn new() -> Self {
        ComputeArray {
            array: SramArray::new(),
            carry: BitRow::zero(),
            tag: BitRow::zero(),
            zero_row: None,
            stats: CycleStats::new(),
            move_pattern: ((0, 0, 0), BitRow::zero()),
        }
    }

    /// Creates a cleared compute array with `row` reserved as the dedicated
    /// all-zero row.
    ///
    /// # Errors
    ///
    /// Returns [`SramError::RowOutOfRange`] if `row` is out of range.
    pub fn with_zero_row(row: usize) -> Result<Self> {
        let mut a = ComputeArray::new();
        a.set_zero_row(row)?;
        Ok(a)
    }

    /// Declares `row` as the dedicated all-zero row and clears it.
    ///
    /// Several bit-serial operations (complement, zero extension, tag
    /// inversion) sense an operand against a known-zero word line; the
    /// mapping layer reserves one row per array for this purpose.
    ///
    /// # Errors
    ///
    /// Returns [`SramError::RowOutOfRange`] if `row` is out of range.
    pub fn set_zero_row(&mut self, row: usize) -> Result<()> {
        self.array.write_row(row, BitRow::zero())?;
        self.zero_row = Some(row);
        Ok(())
    }

    /// The configured zero row, if any.
    #[must_use]
    pub fn zero_row(&self) -> Option<usize> {
        self.zero_row
    }

    /// Resets the cycle counters (the stored data is untouched).
    pub fn reset_stats(&mut self) {
        self.stats = CycleStats::new();
    }

    /// Restores the array to its just-constructed state: all cells cleared,
    /// carry and tag latches dropped, cycle counters zeroed. The zero-row
    /// configuration is kept (the cleared cells already satisfy it).
    ///
    /// This is how [`crate::ArrayPool`] recycles arrays between shard jobs
    /// instead of reallocating the 256x256 cell storage.
    pub fn reset(&mut self) {
        self.array.clear();
        self.carry = BitRow::zero();
        self.tag = BitRow::zero();
        self.stats = CycleStats::new();
    }

    /// Current contents of the per-column carry latches.
    #[must_use]
    pub fn carry(&self) -> &BitRow {
        &self.carry
    }

    /// Current contents of the per-column tag latches.
    #[must_use]
    pub fn tag(&self) -> &BitRow {
        &self.tag
    }

    /// Immutable access to the raw cell array.
    #[must_use]
    pub fn cells(&self) -> &SramArray {
        &self.array
    }

    // ------------------------------------------------------------------
    // Access-cycle operations (conventional reads/writes, for streaming)
    // ------------------------------------------------------------------

    /// Access cycle: conventional write of a full row (e.g. streaming data in
    /// from the intra-slice bus or a transpose unit).
    ///
    /// # Errors
    ///
    /// Propagates row-range errors and refuses to clobber the zero row.
    pub fn access_write_row(&mut self, row: usize, value: BitRow) -> Result<()> {
        if self.zero_row == Some(row) && !value.is_zero() {
            return Err(SramError::ZeroRowClobbered { row });
        }
        self.array.write_row(row, value)?;
        self.tick_access();
        Ok(())
    }

    // ------------------------------------------------------------------
    // Zero-cost loader accessors (no cycles charged; documented)
    // ------------------------------------------------------------------
    //
    // Timing for data placement is the data-movement model's to price, not
    // the loader's, so none of these charges a cycle. The bulk calls
    // (`poke_lanes`, `poke_slices`, `peek_lanes` and the signed twins) are
    // the path the functional executor stages every operand through: they
    // write or read whole 64-lane words of each bit-slice row through the
    // transpose kernel, as the transpose memory unit of Section III-F
    // delivers them. The single-lane calls (`poke_lane`, `peek_lane` and
    // their signed twins) set up and inspect one lane in tests and
    // examples, and are the reference the bulk calls are checked against.

    /// Writes `value` into `lane`'s transposed operand without charging
    /// cycles, one bit at a time: the single-lane test path (see
    /// [`ComputeArray::poke_lanes`] for the bulk loader). Bits of the
    /// operand past bit 63 are cleared.
    ///
    /// # Panics
    ///
    /// Panics if the lane is out of range, the operand is narrower than the
    /// significant bits of `value`, or the operand overlaps the zero row.
    pub fn poke_lane(&mut self, lane: usize, op: Operand, value: u64) {
        assert!(lane < COLS, "lane {lane} out of range");
        assert_fits(value, op.bits());
        self.check_loadable(op);
        for i in 0..op.bits() {
            let bit = if i < 64 { (value >> i) & 1 == 1 } else { false };
            self.array
                .set(op.row(i), lane, bit)
                .expect("validated operand");
        }
    }

    /// Writes the `n` values of `values` into lanes `0..n` of the
    /// transposed operand without charging cycles; lanes `n..` keep their
    /// bits. Equivalent to `poke_lane(l, op, v)` for every `(l, v)`, but
    /// transposes the values once ([`BitSlices::new`]) and stages whole
    /// 64-lane words of each bit-slice row: this is the executor's loader.
    ///
    /// ```
    /// use nc_sram::{ComputeArray, Operand};
    ///
    /// let mut array = ComputeArray::new();
    /// let x = Operand::new(0, 8)?;
    /// array.poke_lanes(x, (0..200).map(|l| l % 256));
    /// assert_eq!(array.peek_lane(199, x), 199);
    /// assert_eq!(array.peek_lanes(x, 3), vec![0, 1, 2]);
    /// # Ok::<(), nc_sram::SramError>(())
    /// ```
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`ComputeArray::poke_lane`]:
    /// more than 256 values, a value wider than the operand, or an operand
    /// overlapping the zero row.
    pub fn poke_lanes(&mut self, op: Operand, values: impl IntoIterator<Item = u64>) {
        self.poke_slices(op, &BitSlices::new(op.bits(), values));
    }

    /// Writes already-transposed values into lanes `0..slices.lanes()` of
    /// `op` without charging cycles; other lanes keep their bits, and rows
    /// of the operand past `slices.bits()` are cleared on the written
    /// lanes (the values are zero-extended). The executor transposes each
    /// stationary filter byte once and stages it into every array that
    /// needs it through this call.
    ///
    /// # Panics
    ///
    /// Panics if the slices are wider than the operand or the operand
    /// overlaps the zero row.
    pub fn poke_slices(&mut self, op: Operand, slices: &BitSlices) {
        assert!(
            slices.bits() <= op.bits(),
            "{} bit slices do not fit in {} bits",
            slices.bits(),
            op.bits()
        );
        self.check_loadable(op);
        let lanes = BitRow::span(0..slices.lanes());
        for i in 0..op.bits() {
            let row = op.row(i);
            let old = self.array.read_row(row).expect("validated operand");
            let new = slices.rows().get(i).copied().unwrap_or_default();
            self.array
                .write_row(row, new.select(&old, &lanes))
                .expect("validated operand");
        }
    }

    /// Reads `lane`'s transposed operand without charging cycles (result
    /// truncated to 64 bits), one bit at a time: the single-lane test path
    /// (see [`ComputeArray::peek_lanes`] for the bulk read-out).
    ///
    /// # Panics
    ///
    /// Panics if the lane is out of range.
    #[must_use]
    pub fn peek_lane(&self, lane: usize, op: Operand) -> u64 {
        assert!(lane < COLS, "lane {lane} out of range");
        let mut value = 0u64;
        for i in 0..op.bits().min(64) {
            if self.array.get(op.row(i), lane).expect("validated operand") {
                value |= 1 << i;
            }
        }
        value
    }

    /// Reads lanes `0..lanes` of the transposed operand without charging
    /// cycles (each truncated to 64 bits): `peek_lane(l, op)` for every
    /// `l < lanes`, read out in whole 64-lane words. The functional
    /// executor reads every pass's results out through it.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` exceeds 256.
    #[must_use]
    pub fn peek_lanes(&self, op: Operand, lanes: usize) -> Vec<u64> {
        assert!(lanes <= COLS, "lane {} out of range", lanes - 1);
        let mut planes = [BitRow::zero(); 64];
        let planes = &mut planes[..op.bits().min(64)];
        for (i, plane) in planes.iter_mut().enumerate() {
            *plane = self.array.read_row(op.row(i)).expect("validated operand");
        }
        let mut values = [0; COLS];
        from_planes(planes, lanes, &mut values);
        values[..lanes].to_vec()
    }

    /// Reads `lane`'s transposed operand as a sign-extended two's-complement
    /// integer without charging cycles (see [`ComputeArray::peek_lane`]).
    ///
    /// # Panics
    ///
    /// Panics if the lane is out of range or the operand is wider than 64
    /// bits.
    #[must_use]
    pub fn peek_lane_signed(&self, lane: usize, op: Operand) -> i64 {
        sign_extend(self.peek_lane(lane, op), op)
    }

    /// Reads lanes `0..lanes` of the operand as sign-extended
    /// two's-complement integers without charging cycles (the executor's
    /// read-out of signed accumulators; see [`ComputeArray::peek_lanes`]).
    ///
    /// # Panics
    ///
    /// Panics if `lanes` exceeds 256 or the operand is wider than 64 bits.
    #[must_use]
    pub fn peek_lanes_signed(&self, op: Operand, lanes: usize) -> Vec<i64> {
        let raw = self.peek_lanes(op, lanes);
        raw.into_iter().map(|v| sign_extend(v, op)).collect()
    }

    /// Writes a two's-complement value into `lane`'s operand without
    /// charging cycles (see [`ComputeArray::poke_lane`]).
    ///
    /// # Panics
    ///
    /// Panics if `value` does not fit in `op.bits()` two's-complement bits.
    pub fn poke_lane_signed(&mut self, lane: usize, op: Operand, value: i64) {
        self.poke_lane(lane, op, twos_complement(value, op));
    }

    /// Writes two's-complement values into lanes `0..n` of the operand
    /// without charging cycles (the executor's staging of signed
    /// accumulators; see [`ComputeArray::poke_lanes`]).
    ///
    /// # Panics
    ///
    /// Panics if a value does not fit in `op.bits()` two's-complement bits,
    /// or as [`ComputeArray::poke_lanes`] does.
    pub fn poke_lanes_signed(&mut self, op: Operand, values: impl IntoIterator<Item = i64>) {
        self.poke_lanes(op, values.into_iter().map(|v| twos_complement(v, op)));
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    /// The loader's operand check: the operand stays clear of the zero row.
    fn check_loadable(&self, op: Operand) {
        if let Some(z) = self.zero_row {
            assert!(
                !op.contains_row(z),
                "operand {op} overlaps the zero row {z}"
            );
        }
    }

    fn require_zero_row(&self) -> Result<usize> {
        self.zero_row.ok_or(SramError::MissingZeroRow)
    }

    #[inline]
    fn write_back(&mut self, dst: usize, value: BitRow, pred: Predicate) -> Result<()> {
        if self.zero_row == Some(dst) {
            return Err(SramError::ZeroRowClobbered { row: dst });
        }
        let current = self.array.read_row(dst)?;
        let merged = match pred {
            Predicate::Always => value,
            Predicate::Tag => value.select(&current, &self.tag),
        };
        self.array.write_row(dst, merged)
    }

    #[inline]
    fn tick_compute(&mut self) {
        self.stats.compute_cycles += 1;
    }

    #[inline]
    fn tick_access(&mut self) {
        self.stats.access_cycles += 1;
    }
}

impl MicroOps for ComputeArray {
    #[inline]
    fn stats(&self) -> CycleStats {
        self.stats
    }

    #[inline]
    fn stats_mut(&mut self) -> &mut CycleStats {
        &mut self.stats
    }

    #[inline]
    fn row_is_zero(&self, row: usize) -> Result<bool> {
        Ok(self.array.read_row(row)?.is_zero())
    }

    #[inline]
    fn preset_carry(&mut self, value: bool) {
        self.carry = if value {
            BitRow::ones()
        } else {
            BitRow::zero()
        };
    }

    #[inline]
    fn preset_tag(&mut self, value: bool) {
        self.tag = if value {
            BitRow::ones()
        } else {
            BitRow::zero()
        };
    }

    #[inline]
    fn op_copy(&mut self, src: usize, dst: usize, pred: Predicate) -> Result<()> {
        let value = self.array.read_row(src)?;
        self.write_back(dst, value, pred)?;
        self.tick_compute();
        Ok(())
    }

    #[inline]
    fn op_not(&mut self, src: usize, dst: usize, pred: Predicate) -> Result<()> {
        let zero = self.require_zero_row()?;
        let out = self.array.sense(src, zero)?.nor;
        self.write_back(dst, out, pred)?;
        self.tick_compute();
        Ok(())
    }

    #[inline]
    fn op_and(&mut self, a: usize, b: usize, dst: usize, pred: Predicate) -> Result<()> {
        let out = self.array.sense(a, b)?.and;
        self.write_back(dst, out, pred)?;
        self.tick_compute();
        Ok(())
    }

    #[inline]
    fn op_nor(&mut self, a: usize, b: usize, dst: usize, pred: Predicate) -> Result<()> {
        let out = self.array.sense(a, b)?.nor;
        self.write_back(dst, out, pred)?;
        self.tick_compute();
        Ok(())
    }

    #[inline]
    fn op_or(&mut self, a: usize, b: usize, dst: usize, pred: Predicate) -> Result<()> {
        let out = self.array.sense(a, b)?.nor.not();
        self.write_back(dst, out, pred)?;
        self.tick_compute();
        Ok(())
    }

    #[inline]
    fn op_xor(&mut self, a: usize, b: usize, dst: usize, pred: Predicate) -> Result<()> {
        let out = self.array.sense(a, b)?.xor;
        self.write_back(dst, out, pred)?;
        self.tick_compute();
        Ok(())
    }

    #[inline]
    fn op_full_add(&mut self, a: usize, b: usize, dst: usize, pred: Predicate) -> Result<()> {
        let sensed = self.array.sense(a, b)?;
        let sum = sensed.xor.xor(&self.carry);
        let carry_out = sensed.and.or(&sensed.xor.and(&self.carry));
        self.write_back(dst, sum, pred)?;
        self.carry = match pred {
            Predicate::Always => carry_out,
            Predicate::Tag => carry_out.select(&self.carry, &self.tag),
        };
        self.tick_compute();
        Ok(())
    }

    #[inline]
    fn op_full_add_const(
        &mut self,
        a: usize,
        kbit: bool,
        dst: usize,
        pred: Predicate,
    ) -> Result<()> {
        let ra = self.array.read_row(a)?;
        let rb = if kbit { BitRow::ones() } else { BitRow::zero() };
        let xor = ra.xor(&rb);
        let and = ra.and(&rb);
        let sum = xor.xor(&self.carry);
        let carry_out = and.or(&xor.and(&self.carry));
        self.write_back(dst, sum, pred)?;
        self.carry = match pred {
            Predicate::Always => carry_out,
            Predicate::Tag => carry_out.select(&self.carry, &self.tag),
        };
        self.tick_compute();
        Ok(())
    }

    #[inline]
    fn op_load_tag(&mut self, src: usize) -> Result<()> {
        self.tag = self.array.read_row(src)?;
        self.tick_compute();
        Ok(())
    }

    #[inline]
    fn op_detect_zero(&mut self, src: usize) -> Result<bool> {
        self.tag = self.array.read_row(src)?;
        self.tick_compute();
        self.stats.detect_cycles += 1;
        Ok(self.tag.is_zero())
    }

    #[inline]
    fn op_load_tag_not(&mut self, src: usize) -> Result<()> {
        let zero = self.require_zero_row()?;
        self.tag = self.array.sense(src, zero)?.nor;
        self.tick_compute();
        Ok(())
    }

    #[inline]
    fn op_and_tag(&mut self, src: usize, complement: bool) -> Result<()> {
        let bits = if complement {
            let zero = self.require_zero_row()?;
            self.array.sense(src, zero)?.nor
        } else {
            self.array.read_row(src)?
        };
        self.tag = self.tag.and(&bits);
        self.tick_compute();
        Ok(())
    }

    #[inline]
    fn op_write_carry(&mut self, dst: usize, pred: Predicate) -> Result<()> {
        let carry = self.carry;
        self.write_back(dst, carry, pred)?;
        self.tick_compute();
        Ok(())
    }

    #[inline]
    fn op_write_const(&mut self, dst: usize, bit: bool, pred: Predicate) -> Result<()> {
        let value = if bit { BitRow::ones() } else { BitRow::zero() };
        self.write_back(dst, value, pred)?;
        self.tick_compute();
        Ok(())
    }

    #[inline]
    fn op_move_lanes(
        &mut self,
        src_row: usize,
        dst_row: usize,
        lane_shift: usize,
        lanes_per_group: usize,
        group_stride: usize,
        groups: usize,
    ) -> Result<()> {
        check_lane_move(lane_shift, lanes_per_group, group_stride, groups)?;
        if self.zero_row == Some(dst_row) {
            return Err(SramError::ZeroRowClobbered { row: dst_row });
        }
        let source = self.array.read_row(src_row)?;
        let target = self.array.read_row(dst_row)?;
        let geometry = (lanes_per_group, group_stride, groups);
        if self.move_pattern.0 != geometry {
            let moved = BitRow::span(0..lanes_per_group).repeat(group_stride, groups);
            self.move_pattern = (geometry, moved);
        }
        let moved = self.move_pattern.1;
        self.array.write_row(
            dst_row,
            source.shift_down(lane_shift).select(&target, &moved),
        )?;
        self.stats.compute_cycles += LANE_MOVE_CYCLES_PER_ROW;
        Ok(())
    }

    #[inline]
    fn access_read_row(&mut self, row: usize) -> Result<BitRow> {
        let out = self.array.read_row(row)?;
        self.tick_access();
        Ok(out)
    }

    #[inline]
    fn access_write_lanes(
        &mut self,
        row: usize,
        value: &BitRow,
        lane_offset: usize,
        lanes: usize,
    ) -> Result<()> {
        check_lane_write(lane_offset, lanes)?;
        if self.zero_row == Some(row) {
            return Err(SramError::ZeroRowClobbered { row });
        }
        let target = self.array.read_row(row)?;
        let written = BitRow::span(lane_offset..lane_offset + lanes);
        self.array
            .write_row(row, value.shift_up(lane_offset).select(&target, &written))?;
        self.tick_access();
        Ok(())
    }
}

/// `raw`, an `op.bits()`-bit two's-complement pattern, as an `i64`.
fn sign_extend(raw: u64, op: Operand) -> i64 {
    let bits = op.bits();
    assert!(bits <= 64, "operand wider than 64 bits");
    if bits == 64 {
        raw as i64
    } else if raw >> (bits - 1) & 1 == 1 {
        (raw as i64) - (1i64 << bits)
    } else {
        raw as i64
    }
}

/// `value`'s `op.bits()`-bit two's-complement pattern.
fn twos_complement(value: i64, op: Operand) -> u64 {
    let bits = op.bits();
    assert!(bits <= 64);
    if bits == 64 {
        return value as u64;
    }
    let lo = -(1i64 << (bits - 1));
    let hi = (1i64 << (bits - 1)) - 1;
    assert!(
        (lo..=hi).contains(&value),
        "value {value} does not fit in {bits} signed bits"
    );
    (value as u64) & ((1u64 << bits) - 1)
}

impl Default for ComputeArray {
    fn default() -> Self {
        ComputeArray::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arr() -> ComputeArray {
        ComputeArray::with_zero_row(255).unwrap()
    }

    #[test]
    fn poke_peek_roundtrip() {
        let mut a = arr();
        let op = Operand::new(0, 12).unwrap();
        a.poke_lane(5, op, 0xABC);
        assert_eq!(a.peek_lane(5, op), 0xABC);
        assert_eq!(a.peek_lane(6, op), 0);
        assert_eq!(a.stats().total_cycles(), 0, "poke/peek are free");
    }

    #[test]
    fn signed_roundtrip() {
        let mut a = arr();
        let op = Operand::new(0, 16).unwrap();
        for v in [-32768i64, -1, 0, 1, 32767] {
            a.poke_lane_signed(9, op, v);
            assert_eq!(a.peek_lane_signed(9, op), v);
        }
    }

    #[test]
    fn copy_costs_one_cycle() {
        let mut a = arr();
        a.poke_lane(0, Operand::new(3, 1).unwrap(), 1);
        a.op_copy(3, 10, Predicate::Always).unwrap();
        assert!(a.cells().get(10, 0).unwrap());
        assert_eq!(a.stats().compute_cycles, 1);
    }

    #[test]
    fn predicated_write_respects_tag() {
        let mut a = arr();
        // Row 0 all ones on lanes 0..4.
        for lane in 0..4 {
            a.poke_lane(lane, Operand::new(0, 1).unwrap(), 1);
        }
        // Tag set only on lanes 0 and 2 (stored in row 1).
        a.poke_lane(0, Operand::new(1, 1).unwrap(), 1);
        a.poke_lane(2, Operand::new(1, 1).unwrap(), 1);
        a.op_load_tag(1).unwrap();
        a.op_copy(0, 5, Predicate::Tag).unwrap();
        assert!(a.cells().get(5, 0).unwrap());
        assert!(!a.cells().get(5, 1).unwrap());
        assert!(a.cells().get(5, 2).unwrap());
        assert!(!a.cells().get(5, 3).unwrap());
    }

    #[test]
    fn full_add_updates_carry() {
        let mut a = arr();
        a.poke_lane(0, Operand::new(0, 1).unwrap(), 1);
        a.poke_lane(0, Operand::new(1, 1).unwrap(), 1);
        a.preset_carry(false);
        a.op_full_add(0, 1, 2, Predicate::Always).unwrap();
        // 1 + 1 + 0 = sum 0 carry 1
        assert!(!a.cells().get(2, 0).unwrap());
        assert!(a.carry().get(0));
    }

    #[test]
    fn carry_gating_under_tag() {
        let mut a = arr();
        // lanes 0 and 1 both have a=1, b=1; tag set only on lane 0.
        for lane in 0..2 {
            a.poke_lane(lane, Operand::new(0, 1).unwrap(), 1);
            a.poke_lane(lane, Operand::new(1, 1).unwrap(), 1);
        }
        a.poke_lane(0, Operand::new(2, 1).unwrap(), 1);
        a.op_load_tag(2).unwrap();
        a.preset_carry(false);
        a.op_full_add(0, 1, 3, Predicate::Tag).unwrap();
        assert!(a.carry().get(0), "tagged lane updates carry");
        assert!(!a.carry().get(1), "untagged lane keeps carry");
    }

    #[test]
    fn not_requires_zero_row() {
        let mut a = ComputeArray::new();
        assert_eq!(
            a.op_not(0, 1, Predicate::Always),
            Err(SramError::MissingZeroRow)
        );
    }

    #[test]
    fn zero_row_is_protected() {
        let mut a = arr();
        assert_eq!(
            a.op_write_const(255, true, Predicate::Always),
            Err(SramError::ZeroRowClobbered { row: 255 })
        );
        // Writing zeros through the access path is allowed (it stays zero).
        a.access_write_row(255, BitRow::zero()).unwrap();
    }

    #[test]
    fn lane_moves_and_writes_past_the_last_bit_line_are_refused() {
        let mut a = arr();
        // Two groups of 100 lanes, stride 100, shifted by 57: the second
        // group's source lanes end at column 257.
        assert_eq!(
            a.op_move_lanes(0, 1, 57, 100, 100, 2),
            Err(SramError::ColOutOfRange { col: 257 })
        );
        assert_eq!(
            a.access_write_lanes(1, &BitRow::ones(), 200, 57),
            Err(SramError::ColOutOfRange { col: 257 })
        );
        assert_eq!(a.stats().total_cycles(), 0, "refused before any cycle");
        assert!(a.cells().read_row(1).unwrap().is_zero());
        a.op_move_lanes(0, 1, 56, 100, 100, 2).unwrap();
        a.access_write_lanes(1, &BitRow::ones(), 200, 56).unwrap();
        assert_eq!(a.cells().read_row(1).unwrap(), BitRow::span(200..256));
    }

    #[test]
    fn access_cycles_are_counted_separately() {
        let mut a = arr();
        let _ = a.access_read_row(0).unwrap();
        a.access_write_row(1, BitRow::ones()).unwrap();
        assert_eq!(a.stats().access_cycles, 2);
        assert_eq!(a.stats().compute_cycles, 0);
    }
}
