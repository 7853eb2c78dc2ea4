//! High-level bit-serial operations composed from single-cycle micro-ops.
//!
//! [`MicroOps`] is the micro-op sink. Its required methods are the
//! single-cycle operations of the Figure 7 column peripheral, plus the
//! lane-move row ([`LANE_MOVE_CYCLES_PER_ROW`] cycles) and the access-path
//! row transfer. Every composite operation (add, multiply and its sparse
//! variants, compare, reduce, divide, ...) is a provided method written
//! once over those micro-ops. Two sinks implement the trait:
//!
//! - [`ComputeArray`](crate::ComputeArray) executes each micro-op on its
//!   cells and counts the cycle;
//! - [`Schedule`](crate::Schedule) records the word lines each micro-op
//!   activates, without data. Where the control FSM asks a data question
//!   (is this row all-zero, the wired-NOR detect), it answers from the rows
//!   declared zero with [`Schedule::assume_zero`](crate::Schedule::assume_zero).
//!
//! So an operation's cycle count is the length of its micro-op sequence, and
//! the static verifier's schedules and the `neural-cache` crate's
//! `DerivedCostModel` constants are recorded from the very sequence the
//! executor runs. Each operation returns the [`CycleStats`] delta it
//! consumed.
//!
//! Paper cost reference (Section III): addition `n+1`, multiplication
//! `n^2+5n-2`, division `1.5n^2+5.5n`. The derived sequences here are close
//! but not identical (README, "Static plan verification"); both cost models
//! are available to the timing simulator.

mod add;
mod cmp;
mod div;
mod logic;
mod mul;
mod reduce;
mod transfer;

pub use div::div_scratch_bits;
pub use logic::LogicOp;
pub use reduce::LANE_MOVE_CYCLES_PER_ROW;
pub use transfer::copy_lanes_between;

use crate::{BitRow, CycleStats, Operand, Predicate, Result, SramError, COLS};

/// Checks that a lane move ([`MicroOps::op_move_lanes`]) reads and writes
/// only lanes inside the array: every group's source lanes end by column
/// 256. Both sinks apply it before touching a row.
///
/// # Errors
///
/// Returns [`SramError::ColOutOfRange`] with the (exclusive) end column of
/// the last group's source lanes.
pub(crate) fn check_lane_move(
    lane_shift: usize,
    lanes_per_group: usize,
    group_stride: usize,
    groups: usize,
) -> Result<()> {
    if groups == 0 || lanes_per_group == 0 {
        return Ok(());
    }
    let end = (groups - 1)
        .checked_mul(group_stride)
        .and_then(|base| base.checked_add(lanes_per_group))
        .and_then(|end| end.checked_add(lane_shift));
    match end {
        Some(end) if end <= COLS => Ok(()),
        _ => Err(SramError::ColOutOfRange {
            col: end.unwrap_or(usize::MAX),
        }),
    }
}

/// Checks that an access-path lane write
/// ([`MicroOps::access_write_lanes`]) ends by column 256.
///
/// # Errors
///
/// Returns [`SramError::ColOutOfRange`] with the (exclusive) end column.
pub(crate) fn check_lane_write(lane_offset: usize, lanes: usize) -> Result<()> {
    match lane_offset.checked_add(lanes) {
        Some(end) if end <= COLS => Ok(()),
        end => Err(SramError::ColOutOfRange {
            col: end.unwrap_or(usize::MAX),
        }),
    }
}

/// A sink for the micro-ops of one compute array, and every composite
/// bit-serial operation built from them.
///
/// Implementors supply the micro-ops; the composite operations are provided
/// methods, so executing an op on a [`ComputeArray`](crate::ComputeArray)
/// and recording it on a [`Schedule`](crate::Schedule) run the same code.
///
/// # Example
///
/// ```
/// use nc_sram::{ComputeArray, MicroOps, Operand, Schedule};
///
/// let (a, b, sum) = (Operand::new(0, 8)?, Operand::new(8, 8)?, Operand::new(16, 9)?);
/// let mut array = ComputeArray::new();
/// array.poke_lane(0, a, 100);
/// array.poke_lane(0, b, 55);
/// let executed = array.add(a, b, sum)?;
/// assert_eq!(array.peek_lane(0, sum), 155);
///
/// let mut schedule = Schedule::new();
/// let recorded = schedule.add(a, b, sum)?;
/// assert_eq!(recorded, executed);
/// assert_eq!(schedule.steps.len(), 9); // n + 1 cycles (Figure 4)
/// # Ok::<(), nc_sram::SramError>(())
/// ```
pub trait MicroOps {
    // ------------------------------------------------------------------
    // Counters and control-FSM facts (no cycles)
    // ------------------------------------------------------------------

    /// Cycle counters accumulated so far.
    fn stats(&self) -> CycleStats;

    /// Counter bookkeeping of the composite ops (scheduled and elided
    /// multiplier rounds, elided cycles). Micro-ops charge their own cycles.
    fn stats_mut(&mut self) -> &mut CycleStats;

    /// Whether `row` holds `0` on every lane. The control FSM knows this
    /// for free for stationary operands, because the transpose unit wrote
    /// them; no cycle is charged.
    ///
    /// # Errors
    ///
    /// Fails if `row` is out of range.
    fn row_is_zero(&self, row: usize) -> Result<bool>;

    /// Sets every carry latch to `value` (control-FSM preset, zero cycles).
    fn preset_carry(&mut self, value: bool);

    /// Sets every tag latch to `value` (control-FSM preset, zero cycles).
    fn preset_tag(&mut self, value: bool);

    // ------------------------------------------------------------------
    // Single-cycle compute micro-ops
    // ------------------------------------------------------------------

    /// Compute cycle: copies row `src` to row `dst` (optionally tag-gated).
    ///
    /// Compute Cache performs in-array copies in a single cycle: the source
    /// word line is sensed and the write word line stores the result back in
    /// the second half of the cycle.
    ///
    /// # Errors
    ///
    /// Propagates row-range errors and refuses to clobber the zero row.
    fn op_copy(&mut self, src: usize, dst: usize, pred: Predicate) -> Result<()>;

    /// Compute cycle: writes the column-wise complement of `src` to `dst`,
    /// by sensing `src` against the dedicated zero row (the bit-line
    /// complement then carries `!src & !0 = !src`).
    ///
    /// # Errors
    ///
    /// Returns [`SramError::MissingZeroRow`] when no zero row is configured.
    fn op_not(&mut self, src: usize, dst: usize, pred: Predicate) -> Result<()>;

    /// Compute cycle: `dst <- a AND b` (bit-line output of a two-row sense).
    ///
    /// # Errors
    ///
    /// Propagates sensing and write-back errors.
    fn op_and(&mut self, a: usize, b: usize, dst: usize, pred: Predicate) -> Result<()>;

    /// Compute cycle: `dst <- a NOR b` (bit-line-complement output).
    ///
    /// # Errors
    ///
    /// Propagates sensing and write-back errors.
    fn op_nor(&mut self, a: usize, b: usize, dst: usize, pred: Predicate) -> Result<()>;

    /// Compute cycle: `dst <- a OR b` (complement of the NOR output).
    ///
    /// # Errors
    ///
    /// Propagates sensing and write-back errors.
    fn op_or(&mut self, a: usize, b: usize, dst: usize, pred: Predicate) -> Result<()>;

    /// Compute cycle: `dst <- a XOR b` (peripheral NOR of the two sense-amp
    /// outputs).
    ///
    /// # Errors
    ///
    /// Propagates sensing and write-back errors.
    fn op_xor(&mut self, a: usize, b: usize, dst: usize, pred: Predicate) -> Result<()>;

    /// Compute cycle: full-adder step over rows `a` and `b` with the carry
    /// latch as carry-in; writes `sum = a ^ b ^ c` to `dst` and latches
    /// `carry = a&b | (a^b)&c`.
    ///
    /// With [`Predicate::Tag`] both the write-back **and** the carry-latch
    /// update are gated per column (the `C_EN` signal of Figure 7), which is
    /// what makes predicated multiplication work.
    ///
    /// # Errors
    ///
    /// Propagates sensing and write-back errors.
    fn op_full_add(&mut self, a: usize, b: usize, dst: usize, pred: Predicate) -> Result<()>;

    /// Compute cycle: full-adder step where the second operand is a
    /// *broadcast constant bit* `kbit` driven from the instruction bus via
    /// the peripheral's data-in path. Used by scalar-broadcast arithmetic
    /// such as the requantization constants of Section IV-D.
    ///
    /// # Errors
    ///
    /// Propagates row-range and write-back errors.
    fn op_full_add_const(
        &mut self,
        a: usize,
        kbit: bool,
        dst: usize,
        pred: Predicate,
    ) -> Result<()>;

    /// Compute cycle: loads the tag latches from row `src`.
    ///
    /// # Errors
    ///
    /// Propagates row-range errors.
    fn op_load_tag(&mut self, src: usize) -> Result<()>;

    /// Compute cycle: loads the tag latches from row `src` and reports
    /// whether **every** tag bit is zero — the tag-latch wired-NOR the
    /// paper's search accelerator uses to detect an all-miss in one cycle
    /// (Compute Caches, Section III). This is the dynamic zero-detect
    /// behind input-bit round skipping. The cycle is counted in both
    /// `compute_cycles` and [`CycleStats::detect_cycles`].
    ///
    /// # Errors
    ///
    /// Propagates row-range errors.
    fn op_detect_zero(&mut self, src: usize) -> Result<bool>;

    /// Compute cycle: loads the tag latches with the complement of row
    /// `src` (sensed against the zero row).
    ///
    /// # Errors
    ///
    /// Returns [`SramError::MissingZeroRow`] when no zero row is configured.
    fn op_load_tag_not(&mut self, src: usize) -> Result<()>;

    /// Compute cycle: ANDs row `src` (or its complement) into the tag
    /// latches — the accumulation step of bit-serial equality search.
    ///
    /// # Errors
    ///
    /// Complement form requires the zero row.
    fn op_and_tag(&mut self, src: usize, complement: bool) -> Result<()>;

    /// Compute cycle: writes the carry latches to row `dst`.
    ///
    /// # Errors
    ///
    /// Propagates write-back errors.
    fn op_write_carry(&mut self, dst: usize, pred: Predicate) -> Result<()>;

    /// Compute cycle: writes an all-zero (or all-one) row to `dst`,
    /// optionally tag-gated. `ReLU` uses the tag-gated zero write.
    ///
    /// # Errors
    ///
    /// Propagates write-back errors.
    fn op_write_const(&mut self, dst: usize, bit: bool, pred: Predicate) -> Result<()>;

    // ------------------------------------------------------------------
    // Multi-cycle row moves
    // ------------------------------------------------------------------

    /// Lane move of one row ([`LANE_MOVE_CYCLES_PER_ROW`] compute cycles):
    /// within each of `groups` lane groups of stride `group_stride`, lane
    /// `base + l` of `dst_row` receives lane `base + l + lane_shift` of
    /// `src_row` for `l < lanes_per_group`; other lanes keep their bits.
    ///
    /// Moves between bit lines go through the column mux and sense
    /// amplifiers; the paper notes they can be sped up with sense-amp
    /// cycling (Cache Automaton).
    ///
    /// # Errors
    ///
    /// Returns [`SramError::ColOutOfRange`] when a group's source lanes
    /// run past column 255 (`(groups - 1) * group_stride +
    /// lanes_per_group + lane_shift > 256`), propagates row-range errors
    /// and refuses to clobber the zero row.
    fn op_move_lanes(
        &mut self,
        src_row: usize,
        dst_row: usize,
        lane_shift: usize,
        lanes_per_group: usize,
        group_stride: usize,
        groups: usize,
    ) -> Result<()>;

    /// Access cycle: conventional read of a full row (e.g. streaming data
    /// out to the intra-slice bus).
    ///
    /// # Errors
    ///
    /// Propagates row-range errors.
    fn access_read_row(&mut self, row: usize) -> Result<BitRow>;

    /// Access cycle: conventional write of lanes `0..lanes` of `value` into
    /// lanes `lane_offset..lane_offset + lanes` of `row`; other lanes keep
    /// their bits.
    ///
    /// # Errors
    ///
    /// Returns [`SramError::ColOutOfRange`] when `lane_offset + lanes`
    /// exceeds 256, propagates row-range errors and refuses to clobber the
    /// zero row.
    fn access_write_lanes(
        &mut self,
        row: usize,
        value: &BitRow,
        lane_offset: usize,
        lanes: usize,
    ) -> Result<()>;

    // ------------------------------------------------------------------
    // Region-wide copies, constants, complements, logic and search
    // ------------------------------------------------------------------

    /// Zeroes an operand on every lane (`bits` compute cycles — the bulk
    /// zeroing primitive of Compute Cache).
    ///
    /// # Errors
    ///
    /// Fails if the operand overlaps the dedicated zero row.
    fn zero(&mut self, op: Operand) -> Result<CycleStats> {
        let before = self.stats();
        for i in 0..op.bits() {
            self.op_write_const(op.row(i), false, Predicate::Always)?;
        }
        Ok(self.stats() - before)
    }

    /// Writes the broadcast constant `k` into the operand on every lane
    /// (`bits` compute cycles, one constant row-write per bit).
    ///
    /// # Errors
    ///
    /// Fails if `k` does not fit in the operand or the operand overlaps the
    /// zero row.
    fn broadcast_scalar(&mut self, op: Operand, k: u64) -> Result<CycleStats> {
        if op.bits() < 64 && k > op.max_value() {
            return Err(SramError::DestinationTooNarrow {
                needed: 64 - k.leading_zeros() as usize,
                available: op.bits(),
            });
        }
        let before = self.stats();
        for i in 0..op.bits() {
            let bit = i < 64 && (k >> i) & 1 == 1;
            self.op_write_const(op.row(i), bit, Predicate::Always)?;
        }
        Ok(self.stats() - before)
    }

    /// Copies operand `src` to `dst` on every lane, optionally tag-gated
    /// (`bits` compute cycles). Widths must match; use
    /// [`MicroOps::copy_zext`] to widen.
    ///
    /// # Errors
    ///
    /// Fails on width mismatch or partial overlap of the two regions.
    fn copy(&mut self, src: Operand, dst: Operand, pred: Predicate) -> Result<CycleStats> {
        if src.bits() != dst.bits() {
            return Err(SramError::DestinationTooNarrow {
                needed: src.bits(),
                available: dst.bits(),
            });
        }
        if src.overlaps(&dst) && src != dst {
            return Err(SramError::OverlappingOperands {
                what: "copy source and destination partially overlap",
            });
        }
        let before = self.stats();
        if src != dst {
            for i in 0..src.bits() {
                self.op_copy(src.row(i), dst.row(i), pred)?;
            }
        }
        Ok(self.stats() - before)
    }

    /// Copies `src` into the wider `dst`, zero-extending the upper bits
    /// (`dst.bits()` compute cycles).
    ///
    /// # Errors
    ///
    /// Fails if `dst` is narrower than `src` or the regions overlap.
    fn copy_zext(&mut self, src: Operand, dst: Operand) -> Result<CycleStats> {
        if dst.bits() < src.bits() {
            return Err(SramError::DestinationTooNarrow {
                needed: src.bits(),
                available: dst.bits(),
            });
        }
        if src.overlaps(&dst) {
            return Err(SramError::OverlappingOperands {
                what: "zero-extending copy source and destination overlap",
            });
        }
        let before = self.stats();
        for i in 0..src.bits() {
            self.op_copy(src.row(i), dst.row(i), Predicate::Always)?;
        }
        for i in src.bits()..dst.bits() {
            self.op_write_const(dst.row(i), false, Predicate::Always)?;
        }
        Ok(self.stats() - before)
    }

    /// Column-wise complement of an operand (`bits` compute cycles). In-place
    /// operation (`src == dst`) is allowed.
    ///
    /// # Errors
    ///
    /// Requires the dedicated zero row; fails on width mismatch or partial
    /// overlap.
    fn not_region(&mut self, src: Operand, dst: Operand) -> Result<CycleStats> {
        if src.bits() != dst.bits() {
            return Err(SramError::DestinationTooNarrow {
                needed: src.bits(),
                available: dst.bits(),
            });
        }
        if src.overlaps(&dst) && src != dst {
            return Err(SramError::OverlappingOperands {
                what: "complement source and destination partially overlap",
            });
        }
        let before = self.stats();
        for i in 0..src.bits() {
            self.op_not(src.row(i), dst.row(i), Predicate::Always)?;
        }
        Ok(self.stats() - before)
    }

    /// Column-wise binary logic over two equal-width operands into `dst`
    /// (`bits` compute cycles). `op` selects AND/OR/XOR/NOR.
    ///
    /// # Errors
    ///
    /// Fails on width mismatch or when `dst` partially overlaps an input.
    fn logic_region(
        &mut self,
        op: LogicOp,
        a: Operand,
        b: Operand,
        dst: Operand,
    ) -> Result<CycleStats> {
        if a.bits() != b.bits() || a.bits() != dst.bits() {
            return Err(SramError::DestinationTooNarrow {
                needed: a.bits().max(b.bits()),
                available: dst.bits(),
            });
        }
        if a.overlaps(&b) {
            return Err(SramError::OverlappingOperands {
                what: "logic inputs overlap (two-row activation needs distinct rows)",
            });
        }
        if (dst.overlaps(&a) && dst != a) || (dst.overlaps(&b) && dst != b) {
            return Err(SramError::OverlappingOperands {
                what: "logic destination partially overlaps an input",
            });
        }
        let before = self.stats();
        for i in 0..a.bits() {
            let (ra, rb, rd, p) = (a.row(i), b.row(i), dst.row(i), Predicate::Always);
            match op {
                LogicOp::And => self.op_and(ra, rb, rd, p)?,
                LogicOp::Or => self.op_or(ra, rb, rd, p)?,
                LogicOp::Xor => self.op_xor(ra, rb, rd, p)?,
                LogicOp::Nor => self.op_nor(ra, rb, rd, p)?,
            }
        }
        Ok(self.stats() - before)
    }

    /// Bit-serial equality search against a broadcast constant: after the
    /// call, the tag latch holds `1` exactly on lanes whose operand equals
    /// `k` (`bits` compute cycles). This is the Compute Cache search
    /// primitive.
    ///
    /// # Errors
    ///
    /// Requires the zero row (complement senses); fails if `k` does not fit.
    fn search_eq_scalar(&mut self, op: Operand, k: u64) -> Result<CycleStats> {
        if op.bits() < 64 && k > op.max_value() {
            return Err(SramError::DestinationTooNarrow {
                needed: 64 - k.leading_zeros() as usize,
                available: op.bits(),
            });
        }
        let before = self.stats();
        self.preset_tag(true);
        for i in 0..op.bits() {
            let want_one = i < 64 && (k >> i) & 1 == 1;
            self.op_and_tag(op.row(i), !want_one)?;
        }
        Ok(self.stats() - before)
    }

    // ------------------------------------------------------------------
    // Addition and subtraction (Section III-B, Figure 4)
    // ------------------------------------------------------------------

    /// Vector addition `dst <- a + b` over every lane.
    ///
    /// `a` and `b` must have equal width `n`; `dst` must be `n` or `n+1`
    /// bits. With an `n+1`-bit destination the final carry is stored in the
    /// extra row, exactly as in Figure 4 — the full operation then takes
    /// `n + 1` compute cycles (the paper's published addition cost). With an
    /// `n`-bit destination the result wraps modulo 2^n in `n` cycles.
    ///
    /// # Errors
    ///
    /// Fails on width mismatch or if `dst` partially overlaps an input
    /// (aliasing `dst == a` exactly is allowed: each cycle reads the operand
    /// row before the write-back phase).
    fn add(&mut self, a: Operand, b: Operand, dst: Operand) -> Result<CycleStats> {
        let n = a.bits();
        if b.bits() != n {
            return Err(SramError::OverlappingOperands {
                what: "addition operands must have equal widths",
            });
        }
        if dst.bits() < n || dst.bits() > n + 1 {
            return Err(SramError::DestinationTooNarrow {
                needed: n,
                available: dst.bits(),
            });
        }
        if a.overlaps(&b) {
            return Err(SramError::OverlappingOperands {
                what: "addition inputs overlap (two-row activation needs distinct rows)",
            });
        }
        let dst_lo = dst.slice(0, n).expect("validated above");
        if (dst_lo.overlaps(&a) && dst_lo != a) || dst.overlaps(&b) {
            return Err(SramError::OverlappingOperands {
                what: "addition destination partially overlaps an input",
            });
        }
        let before = self.stats();
        self.preset_carry(false);
        for i in 0..n {
            self.op_full_add(a.row(i), b.row(i), dst.row(i), Predicate::Always)?;
        }
        if dst.bits() == n + 1 {
            self.op_write_carry(dst.row(n), Predicate::Always)?;
        }
        Ok(self.stats() - before)
    }

    /// In-place accumulate `acc <- acc + addend` with zero extension of the
    /// addend, wrapping modulo 2^`acc.bits()`.
    ///
    /// Takes `acc.bits()` compute cycles: full-adder cycles over the addend
    /// bits, then carry propagation through the remaining accumulator bits
    /// via constant-zero adds.
    ///
    /// # Errors
    ///
    /// Fails if the accumulator is narrower than the addend or the regions
    /// overlap.
    fn add_assign(&mut self, acc: Operand, addend: Operand) -> Result<CycleStats> {
        if acc.bits() < addend.bits() {
            return Err(SramError::DestinationTooNarrow {
                needed: addend.bits(),
                available: acc.bits(),
            });
        }
        if acc.overlaps(&addend) {
            return Err(SramError::OverlappingOperands {
                what: "accumulator overlaps addend",
            });
        }
        let before = self.stats();
        self.preset_carry(false);
        for i in 0..addend.bits() {
            self.op_full_add(addend.row(i), acc.row(i), acc.row(i), Predicate::Always)?;
        }
        for i in addend.bits()..acc.bits() {
            self.op_full_add_const(acc.row(i), false, acc.row(i), Predicate::Always)?;
        }
        Ok(self.stats() - before)
    }

    /// In-place broadcast-constant addition `op <- op + k` modulo
    /// 2^`op.bits()` (`bits` compute cycles).
    ///
    /// To add a *negative* constant, pass its two's complement truncated to
    /// the operand width (see [`MicroOps::add_scalar_signed`]).
    ///
    /// # Errors
    ///
    /// Propagates row errors.
    fn add_scalar(&mut self, op: Operand, k: u64) -> Result<CycleStats> {
        let before = self.stats();
        self.preset_carry(false);
        for i in 0..op.bits() {
            let bit = i < 64 && (k >> i) & 1 == 1;
            self.op_full_add_const(op.row(i), bit, op.row(i), Predicate::Always)?;
        }
        Ok(self.stats() - before)
    }

    /// In-place signed broadcast-constant addition `op <- op + k` modulo
    /// 2^`op.bits()`, accepting negative constants.
    ///
    /// # Errors
    ///
    /// Fails if `|k|` does not fit in the operand width.
    fn add_scalar_signed(&mut self, op: Operand, k: i64) -> Result<CycleStats> {
        let bits = op.bits();
        if bits < 64 {
            let bound = 1i64 << (bits - 1).min(62);
            if k >= bound || k < -bound {
                return Err(SramError::DestinationTooNarrow {
                    needed: 64 - k.unsigned_abs().leading_zeros() as usize + 1,
                    available: bits,
                });
            }
        }
        let mask = if bits >= 64 {
            u64::MAX
        } else {
            (1u64 << bits) - 1
        };
        self.add_scalar(op, (k as u64) & mask)
    }

    /// Vector subtraction `dst <- a - b` (modulo 2^n) via two's complement:
    /// the complement of `b` is materialized in `scratch`, then added to `a`
    /// with the carry latch preset to one.
    ///
    /// Takes `2n` compute cycles (`n` complement + `n` full adds). After the
    /// call the **carry latch holds the no-borrow flag**: lane `l`'s carry is
    /// `1` iff `a[l] >= b[l]` (unsigned) — comparisons and max/min build on
    /// this.
    ///
    /// # Errors
    ///
    /// Requires the zero row. All three regions and `scratch` must be
    /// pairwise non-overlapping except that `dst` may alias `a` exactly.
    fn sub(
        &mut self,
        a: Operand,
        b: Operand,
        dst: Operand,
        scratch: Operand,
    ) -> Result<CycleStats> {
        let n = a.bits();
        if b.bits() != n || dst.bits() != n {
            return Err(SramError::DestinationTooNarrow {
                needed: n,
                available: dst.bits().min(b.bits()),
            });
        }
        if scratch.bits() < n {
            return Err(SramError::DestinationTooNarrow {
                needed: n,
                available: scratch.bits(),
            });
        }
        let distinct = [
            (a.overlaps(&b), "subtraction inputs overlap"),
            (scratch.overlaps(&a), "scratch overlaps minuend"),
            (scratch.overlaps(&b), "scratch overlaps subtrahend"),
            (scratch.overlaps(&dst), "scratch overlaps destination"),
            (dst.overlaps(&b), "destination overlaps subtrahend"),
            (
                dst.overlaps(&a) && dst != a,
                "destination partially overlaps minuend",
            ),
        ];
        for (bad, what) in distinct {
            if bad {
                return Err(SramError::OverlappingOperands { what });
            }
        }
        let before = self.stats();
        for i in 0..n {
            self.op_not(b.row(i), scratch.row(i), Predicate::Always)?;
        }
        self.preset_carry(true);
        for i in 0..n {
            self.op_full_add(a.row(i), scratch.row(i), dst.row(i), Predicate::Always)?;
        }
        Ok(self.stats() - before)
    }

    // ------------------------------------------------------------------
    // Multiplication (Section III-C, Figure 6)
    // ------------------------------------------------------------------

    /// Vector multiplication `prod <- a * b` on every lane.
    ///
    /// For each multiplier bit `j` (LSB first), the multiplier bit is loaded
    /// into the tag latch and the multiplicand is conditionally added into
    /// the partial product at offset `j`; the round's carry-out is stored
    /// into `prod[j + n]` (tag-gated) before the next round. This is the
    /// Figure 6 algorithm with the carry correctly committed at each round
    /// boundary.
    ///
    /// Cycle count (derived): `prod.bits()` zeroing + `m * (n + 2)` where
    /// `n = a.bits()`, `m = b.bits()`. For n = m it is `n^2 + 4n` including
    /// initialization — the paper quotes `n^2 + 5n - 2`, which matches at
    /// n = 2 (the published walkthrough) and differs by `n - 2` cycles for
    /// wider operands.
    ///
    /// The tag and carry latches are clobbered.
    ///
    /// # Errors
    ///
    /// `prod` must hold at least `n + m` bits and be disjoint from both
    /// inputs; inputs must not overlap each other.
    fn mul(&mut self, a: Operand, b: Operand, prod: Operand) -> Result<CycleStats> {
        mul::static_rounds(self, a, b, prod, false)
    }

    /// Vector multiplication with **all-lanes-zero round elision**: a
    /// multiplier-bit round whose bit-slice row holds `0` on every lane is
    /// skipped outright instead of executing `n` predicated adds that
    /// cannot write anything (the tag latch would be all-zero, so both the
    /// write-back and the carry update are disabled on every column — the
    /// round is a functional no-op by construction).
    ///
    /// The products are **bit-identical** to [`MicroOps::mul`]; only the
    /// cycle count changes. Elided rounds cost zero array cycles: the
    /// intended use is weight-stationary MACs where the multiplier rows are
    /// filter bit-slices, and the control FSM learns which rows are
    /// all-zero for free when the transpose unit writes them at filter-load
    /// time ([`MicroOps::row_is_zero`]; paper Section VII names this
    /// sparsity opportunity as future work; `BitWave` develops the same
    /// column-wise bit-level skip). Skipped rounds are reported via
    /// [`CycleStats::skipped_rounds`] and the saved compute cycles via
    /// [`CycleStats::skipped_cycles`].
    ///
    /// # Errors
    ///
    /// Same operand constraints as [`MicroOps::mul`].
    fn mul_skip_zero_rows(&mut self, a: Operand, b: Operand, prod: Operand) -> Result<CycleStats> {
        mul::static_rounds(self, a, b, prod, true)
    }

    /// Vector multiplication with **dynamic input-bit round elision**: the
    /// multiplier `b` holds streamed input activations, so the control FSM
    /// cannot precompute which bit-slice rows are all-zero (unlike the
    /// stationary weights of [`MicroOps::mul_skip_zero_rows`]). Instead
    /// every scheduled round pays a **1-cycle tag-latch wired-NOR
    /// zero-detect** ([`MicroOps::op_detect_zero`]): a round whose slice is
    /// zero on every lane is then elided (the tag-gated adds and carry
    /// write could not change any cell); a live round executes the normal
    /// Figure 6 schedule.
    ///
    /// The products are **bit-identical** to [`MicroOps::mul`]. Cycle
    /// accounting: every round adds one cycle to
    /// [`CycleStats::detect_cycles`] (also counted in `compute_cycles` —
    /// the model conservatively does not fuse the detect with the live
    /// round's tag load), elided rounds are counted in
    /// [`CycleStats::input_rounds_skipped`] and save `n + 2` cycles in
    /// [`CycleStats::skipped_cycles`]. Skipping therefore nets a gain only
    /// when more than ~1/(n+2) of the rounds are elidable — ReLU-sparse
    /// activations clear that bar easily; dense ones do not.
    ///
    /// # Errors
    ///
    /// Same operand constraints as [`MicroOps::mul`].
    fn mul_skip_zero_input_bits(
        &mut self,
        a: Operand,
        b: Operand,
        prod: Operand,
    ) -> Result<CycleStats> {
        mul::skip_input_rounds(self, a, b, prod, a.bits())
    }

    /// Vector multiplication composing **both** sparsity mechanisms: the
    /// dynamic input-bit zero-detect of [`MicroOps::mul_skip_zero_input_bits`]
    /// on the multiplier `b` (streamed activations), plus **static
    /// multiplicand truncation** on `a` (stationary weights): the FSM knows
    /// from filter-load time the highest weight bit-slice row that is live
    /// on *any* lane, and schedules only `live` predicated adds per executed
    /// round instead of `n`, committing the carry directly at
    /// `prod[j + live]`.
    ///
    /// Truncation is bit-exact: rows of `a` at and above `live` are zero on
    /// every lane, so the dense schedule's upper adds only ripple the
    /// carry-out into `prod[j + live]` (which is provably zero before round
    /// `j` — all earlier writes land strictly below it) and write zeros
    /// above; committing the carry latch there directly produces the same
    /// cells. Note this captures *contiguous top* weight-bit sparsity
    /// (low-magnitude quantization); isolated all-zero middle rows still
    /// execute, because mid-chain adds must propagate carries — eliding
    /// those requires the weights to be the multiplier, which is exactly
    /// [`MicroOps::mul_skip_zero_rows`]'s regime.
    ///
    /// Cycle accounting: as `mul_skip_zero_input_bits`, plus
    /// `n - live` cycles per executed round are recorded in
    /// [`CycleStats::skipped_cycles`] (no round counter — the round runs,
    /// shortened).
    ///
    /// # Errors
    ///
    /// Same operand constraints as [`MicroOps::mul`].
    fn mul_skip_both(&mut self, a: Operand, b: Operand, prod: Operand) -> Result<CycleStats> {
        // Highest live multiplicand bit across every lane — known to the
        // FSM for free when the transpose unit writes the filter rows.
        let mut live = 0;
        for i in (0..a.bits()).rev() {
            if !self.row_is_zero(a.row(i))? {
                live = i + 1;
                break;
            }
        }
        mul::skip_input_rounds(self, a, b, prod, live)
    }

    /// In-place broadcast-scalar multiplication `prod <- a * k`.
    ///
    /// The constant lives in the control FSM, so no tag loads are needed:
    /// for every set bit `j` of `k` the multiplicand is added into
    /// `prod[j..]` with full carry propagation to the top of the product
    /// region. Used by the requantization pipeline (Section IV-D), where the
    /// CPU returns scalar multipliers applied in-cache.
    ///
    /// # Errors
    ///
    /// `prod` must hold `a.bits() + bit_length(k)` bits and be disjoint from
    /// `a`.
    fn mul_scalar(&mut self, a: Operand, k: u64, prod: Operand) -> Result<CycleStats> {
        let n = a.bits();
        let klen = (64 - k.leading_zeros()) as usize;
        if k != 0 && prod.bits() < n + klen {
            return Err(SramError::DestinationTooNarrow {
                needed: n + klen,
                available: prod.bits(),
            });
        }
        if prod.overlaps(&a) {
            return Err(SramError::OverlappingOperands {
                what: "product region overlaps the multiplicand",
            });
        }
        let before = self.stats();
        self.zero(prod)?;
        for j in 0..klen {
            if (k >> j) & 1 == 1 {
                let window = prod.slice(j, prod.bits() - j).expect("validated width");
                self.add_assign(window, a)?;
            }
        }
        Ok(self.stats() - before)
    }

    // ------------------------------------------------------------------
    // Comparison, max/min, ReLU, saturation (Section IV-D)
    // ------------------------------------------------------------------

    /// Trial subtraction that leaves `a - b`'s **no-borrow flag** in the
    /// carry latch without modifying `a`, `b`, or any named region other
    /// than the single `dump_row` (which receives meaningless sums).
    ///
    /// After the call, lane `l`'s carry is `1` iff `a[l] >= b[l]` unsigned.
    /// Takes `2n` compute cycles (`n` complement + `n` adds).
    ///
    /// # Errors
    ///
    /// Requires the zero row; `scratch` must hold `n` bits disjoint from the
    /// inputs, and `dump_row` must lie outside every named region.
    fn compare_ge(
        &mut self,
        a: Operand,
        b: Operand,
        scratch: Operand,
        dump_row: usize,
    ) -> Result<CycleStats> {
        let n = a.bits();
        if b.bits() != n {
            return Err(SramError::OverlappingOperands {
                what: "comparison operands must have equal widths",
            });
        }
        if scratch.bits() < n {
            return Err(SramError::DestinationTooNarrow {
                needed: n,
                available: scratch.bits(),
            });
        }
        if scratch.overlaps(&a) || scratch.overlaps(&b) || a.overlaps(&b) {
            return Err(SramError::OverlappingOperands {
                what: "comparison regions must be pairwise disjoint",
            });
        }
        if a.contains_row(dump_row) || b.contains_row(dump_row) || scratch.contains_row(dump_row) {
            return Err(SramError::OverlappingOperands {
                what: "dump row lies inside a comparison region",
            });
        }
        let before = self.stats();
        for i in 0..n {
            self.op_not(b.row(i), scratch.row(i), Predicate::Always)?;
        }
        self.preset_carry(true);
        for i in 0..n {
            self.op_full_add(a.row(i), scratch.row(i), dump_row, Predicate::Always)?;
        }
        Ok(self.stats() - before)
    }

    /// Unsigned lane-wise running maximum: `acc <- max(acc, x)`.
    ///
    /// This is the paper's max dataflow: subtract the candidate from the
    /// temporary maximum, use the borrow as a mask, and selectively copy the
    /// candidate over the maximum (Section IV-D). `3n + 2` compute cycles.
    ///
    /// # Errors
    ///
    /// Same constraints as [`MicroOps::compare_ge`].
    fn max_assign(
        &mut self,
        acc: Operand,
        x: Operand,
        scratch: Operand,
        dump_row: usize,
    ) -> Result<CycleStats> {
        let before = self.stats();
        self.compare_ge(acc, x, scratch, dump_row)?;
        // carry = (acc >= x); replace where acc < x.
        self.op_write_carry(dump_row, Predicate::Always)?;
        self.op_load_tag_not(dump_row)?;
        self.copy(x, acc, Predicate::Tag)?;
        Ok(self.stats() - before)
    }

    /// Unsigned lane-wise running minimum: `acc <- min(acc, x)`
    /// (`3n + 2` compute cycles).
    ///
    /// # Errors
    ///
    /// Same constraints as [`MicroOps::compare_ge`].
    fn min_assign(
        &mut self,
        acc: Operand,
        x: Operand,
        scratch: Operand,
        dump_row: usize,
    ) -> Result<CycleStats> {
        let before = self.stats();
        self.compare_ge(acc, x, scratch, dump_row)?;
        // carry = (acc >= x); replace where acc >= x (ties copy harmlessly).
        self.op_write_carry(dump_row, Predicate::Always)?;
        self.op_load_tag(dump_row)?;
        self.copy(x, acc, Predicate::Tag)?;
        Ok(self.stats() - before)
    }

    /// `ReLU` on a two's-complement operand: lanes with a set sign bit are
    /// overwritten with zero, using the MSB as the write-enable mask exactly
    /// as described in Section IV-D. `n + 1` compute cycles.
    ///
    /// # Errors
    ///
    /// Propagates row errors.
    fn relu(&mut self, x: Operand) -> Result<CycleStats> {
        let before = self.stats();
        self.op_load_tag(x.msb_row())?;
        for i in 0..x.bits() {
            self.op_write_const(x.row(i), false, Predicate::Tag)?;
        }
        Ok(self.stats() - before)
    }

    /// Saturating clamp against a broadcast constant: lanes whose unsigned
    /// value exceeds `k` are overwritten with `k` (`2n + 2` compute cycles).
    /// Used as the final saturation of the requantization pipeline.
    ///
    /// # Errors
    ///
    /// Fails if `k` does not fit in the operand or `dump_row` lies inside it.
    fn clamp_max_scalar(&mut self, op: Operand, k: u64, dump_row: usize) -> Result<CycleStats> {
        if op.bits() < 64 && k > op.max_value() {
            return Err(SramError::DestinationTooNarrow {
                needed: 64 - k.leading_zeros() as usize,
                available: op.bits(),
            });
        }
        if op.contains_row(dump_row) {
            return Err(SramError::OverlappingOperands {
                what: "dump row lies inside the clamped region",
            });
        }
        let before = self.stats();
        // carry = (op >= k + 1) = (op > k), via op + ~(k+1) + 1.
        let Some(threshold) = k.checked_add(1) else {
            return Ok(CycleStats::new()); // nothing exceeds u64::MAX
        };
        let notk = !threshold;
        self.preset_carry(true);
        for i in 0..op.bits() {
            let bit = i < 64 && (notk >> i) & 1 == 1;
            self.op_full_add_const(op.row(i), bit, dump_row, Predicate::Always)?;
        }
        self.op_write_carry(dump_row, Predicate::Always)?;
        self.op_load_tag(dump_row)?;
        for i in 0..op.bits() {
            let bit = i < 64 && (k >> i) & 1 == 1;
            self.op_write_const(op.row(i), bit, Predicate::Tag)?;
        }
        Ok(self.stats() - before)
    }

    // ------------------------------------------------------------------
    // Lane moves and tree reduction (Section III-D, Figure 5)
    // ------------------------------------------------------------------

    /// Lane move: for every `lane < lanes`, copies `src`'s operand from lane
    /// `lane + lane_shift` into `dst` on `lane`. Lanes `>= lanes` keep their
    /// `dst` contents. Charges [`LANE_MOVE_CYCLES_PER_ROW`] compute cycles
    /// per row.
    ///
    /// # Errors
    ///
    /// Fails on width mismatch, lane overflow, row-overlapping regions, or
    /// an attempt to write the zero row.
    fn move_lanes(
        &mut self,
        src: Operand,
        dst: Operand,
        lane_shift: usize,
        lanes: usize,
    ) -> Result<CycleStats> {
        self.move_lanes_grouped(src, dst, lane_shift, lanes, lanes + lane_shift, 1)
    }

    /// Grouped lane move: within each of `groups` lane groups of stride
    /// `group_stride`, copies `src` from lane `base + l + lane_shift` to
    /// `dst` on lane `base + l` for `l < lanes_per_group`. All groups move
    /// in parallel (same relative column-mux pattern), so the cost equals a
    /// single [`MicroOps::move_lanes`].
    ///
    /// # Errors
    ///
    /// Same constraints as `move_lanes`, per group.
    fn move_lanes_grouped(
        &mut self,
        src: Operand,
        dst: Operand,
        lane_shift: usize,
        lanes_per_group: usize,
        group_stride: usize,
        groups: usize,
    ) -> Result<CycleStats> {
        if src.bits() != dst.bits() {
            return Err(SramError::DestinationTooNarrow {
                needed: src.bits(),
                available: dst.bits(),
            });
        }
        if groups == 0
            || lanes_per_group == 0
            || lanes_per_group + lane_shift > group_stride
            || groups * group_stride > COLS
        {
            return Err(SramError::ColOutOfRange {
                col: groups * group_stride,
            });
        }
        if src.overlaps(&dst) {
            return Err(SramError::OverlappingOperands {
                what: "lane-move source and destination share rows",
            });
        }
        let before = self.stats();
        for i in 0..src.bits() {
            self.op_move_lanes(
                src.row(i),
                dst.row(i),
                lane_shift,
                lanes_per_group,
                group_stride,
                groups,
            )?;
        }
        Ok(self.stats() - before)
    }

    /// Tree-sum reduction of `lanes` values held in `value` (one per lane)
    /// into lane 0's `value` region, using `scratch` as the second reduction
    /// operand of Figure 10(b).
    ///
    /// `lanes` must be a power of two (the mapping pads channels with zeros
    /// to the next power of two, Section IV-A). Values wrap modulo
    /// 2^`value.bits()`; size the region for the worst-case sum (the paper
    /// reserves 4-byte segments).
    ///
    /// Cycle count: `log2(lanes) * (2*w + w)` where `w = value.bits()` —
    /// each step is one lane move plus one region addition.
    ///
    /// # Errors
    ///
    /// Fails unless `lanes` is a power of two within the array, regions are
    /// disjoint and of equal width.
    fn reduce_sum(&mut self, value: Operand, scratch: Operand, lanes: usize) -> Result<CycleStats> {
        reduce::tree(self, value, scratch, lanes, 1, |s, acc, x| {
            s.add_assign(acc, x).map(|_| ())
        })
    }

    /// Tree-max reduction: leaves the maximum of `lanes` unsigned values in
    /// lane 0's `value` region. Requires an extra scratch region and dump
    /// row for the comparison (see [`MicroOps::max_assign`]).
    ///
    /// # Errors
    ///
    /// Same constraints as [`MicroOps::reduce_sum`] plus the comparison
    /// constraints.
    fn reduce_max(
        &mut self,
        value: Operand,
        scratch: Operand,
        cmp_scratch: Operand,
        dump_row: usize,
        lanes: usize,
    ) -> Result<CycleStats> {
        reduce::tree(self, value, scratch, lanes, 1, |s, acc, x| {
            s.max_assign(acc, x, cmp_scratch, dump_row).map(|_| ())
        })
    }

    /// Tree-min reduction: leaves the minimum of `lanes` unsigned values in
    /// lane 0's `value` region.
    ///
    /// # Errors
    ///
    /// Same constraints as [`MicroOps::reduce_max`].
    fn reduce_min(
        &mut self,
        value: Operand,
        scratch: Operand,
        cmp_scratch: Operand,
        dump_row: usize,
        lanes: usize,
    ) -> Result<CycleStats> {
        reduce::tree(self, value, scratch, lanes, 1, |s, acc, x| {
            s.min_assign(acc, x, cmp_scratch, dump_row).map(|_| ())
        })
    }

    /// Grouped tree-sum reduction: `groups` independent lane groups of
    /// `group_lanes` lanes each (stride `group_lanes`) reduce
    /// simultaneously; group `g`'s sum lands on lane `g * group_lanes`.
    /// This is how one 8KB array reduces the channels of several packed
    /// filters at once (Figure 9: M5 and M6 share an array).
    ///
    /// # Errors
    ///
    /// Same constraints as [`MicroOps::reduce_sum`].
    fn reduce_sum_grouped(
        &mut self,
        value: Operand,
        scratch: Operand,
        group_lanes: usize,
        groups: usize,
    ) -> Result<CycleStats> {
        reduce::tree(self, value, scratch, group_lanes, groups, |s, acc, x| {
            s.add_assign(acc, x).map(|_| ())
        })
    }

    // ------------------------------------------------------------------
    // Division (average pooling)
    // ------------------------------------------------------------------

    /// Unsigned restoring division: `quot <- num / den`, `rem <- num % den`,
    /// lane-wise.
    ///
    /// Per quotient bit the remainder is shifted up by one row, the divisor
    /// is trial-subtracted into `trial`, and the no-borrow carry selects
    /// (via the tag latch) whether the trial difference is committed. The
    /// remainder and trial registers are `w = den.bits() + 1` bits wide.
    ///
    /// Derived cycle count: `~n * (3w + 3) + w` for `n = num.bits()` — about
    /// `3n^2` for equal widths, versus the paper's published
    /// `1.5n^2 + 5.5n`; the paper's tighter bound assumes non-restoring
    /// division with fused sign handling, while this implementation favors
    /// the simpler restoring form. Both costs are exposed to the timing
    /// model.
    ///
    /// Lanes whose divisor is zero produce an all-ones quotient (the
    /// trial subtraction never borrows); no error is raised because idle
    /// lanes legitimately hold zeros.
    ///
    /// # Errors
    ///
    /// Requires the zero row. `rem`, `trial`, and `notden` must each hold
    /// `w` bits; all regions must be pairwise disjoint.
    fn div(
        &mut self,
        num: Operand,
        den: Operand,
        quot: Operand,
        rem: Operand,
        trial: Operand,
        notden: Operand,
    ) -> Result<CycleStats> {
        let w = den.bits() + 1;
        div::validate(num, quot, &[rem, trial, notden], w, &[den])?;
        let before = self.stats();
        // notden <- ~den, zero-extended to w bits (so its top bit is 1).
        for i in 0..den.bits() {
            self.op_not(den.row(i), notden.row(i), Predicate::Always)?;
        }
        self.op_write_const(notden.row(w - 1), true, Predicate::Always)?;
        div::restoring(self, num, quot, rem, trial, w, |s, k| {
            s.op_full_add(rem.row(k), notden.row(k), trial.row(k), Predicate::Always)
        })?;
        Ok(self.stats() - before)
    }

    /// Unsigned restoring division by a broadcast constant `k` (the average
    /// pooling divisor). Identical dataflow to [`MicroOps::div`] but the
    /// divisor complement is generated by the control FSM, saving the
    /// complement registers.
    ///
    /// # Errors
    ///
    /// Fails if `k == 0`, or on the same region constraints as `div`.
    fn div_scalar(
        &mut self,
        num: Operand,
        k: u64,
        quot: Operand,
        rem: Operand,
        trial: Operand,
    ) -> Result<CycleStats> {
        if k == 0 {
            return Err(SramError::DivisionByZero { lane: 0 });
        }
        let w = (64 - k.leading_zeros()) as usize + 1;
        div::validate(num, quot, &[rem, trial], w, &[])?;
        let notk = !k; // two's complement add of ~k + 1 subtracts k
        let before = self.stats();
        div::restoring(self, num, quot, rem, trial, w, |s, r| {
            let bit = r < 64 && (notk >> r) & 1 == 1;
            s.op_full_add_const(rem.row(r), bit, trial.row(r), Predicate::Always)
        })?;
        Ok(self.stats() - before)
    }
}
