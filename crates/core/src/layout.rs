//! Operand layouts of the functional executor's shard jobs — the single
//! source of truth for which word-line ranges each in-cache pass occupies.
//!
//! The bit-accurate executor ([`crate::functional`]) stages every pass into
//! fixed row regions of a 256-row array. Those regions used to live as
//! inline `Operand::new` calls deep inside each shard job, where an overlap
//! or out-of-bounds slip would only surface as a wrong answer at simulation
//! time. This module names every region once, so:
//!
//! - the executor builds its operands from here (no drift possible),
//! - [`validate_plan`] proves the whole plan hazard-free before the first
//!   row is touched (debug-mode pre-pass in the executor), and
//! - the `nc-verify` static checker consumes the same descriptors to emit
//!   structured diagnostics without executing anything.
//!
//! Every pass's op sequence is written here once, generic over the
//! [`MicroOps`] sink: the executor runs them on a `ComputeArray` and only
//! stages operands around them, and the verifier and the
//! `DerivedCostModel` record them on a `Schedule`. [`Pass`] names each
//! layout for the job plan ([`crate::jobs`]).

use nc_sram::ops::copy_lanes_between;
use nc_sram::{CycleStats, MicroOps, Operand, Result, ROWS};

use crate::sparsity::SparsityMode;

/// The dedicated all-zero row every executor array reserves (mapping-layer
/// convention; see `ComputeArray::set_zero_row`).
pub const ZERO_ROW: usize = 255;

/// The scratch row comparison/clamp micro-ops dump their borrow bit into.
pub const DUMP_ROW: usize = 250;

/// A named operand region of one shard-job layout.
pub type NamedOperand = (&'static str, Operand);

fn op(base: usize, bits: usize) -> Operand {
    Operand::new(base, bits).expect("static executor layout is in bounds")
}

/// Pass 1 (MAC + grouped channel reduction) row layout.
#[derive(Debug, Clone, Copy)]
pub struct MacReduceLayout {
    /// Streamed filter byte of the current tap.
    pub filter_byte: Operand,
    /// Streamed input byte of the current tap.
    pub input_byte: Operand,
    /// 16-bit product scratch of the bit-serial multiply.
    pub scratch16: Operand,
    /// 24-bit per-lane partial sum `S1`.
    pub partial: Operand,
    /// 16-bit zero-point-correction running sum `S2`.
    pub s2sum: Operand,
    /// 32-bit reduction segment of `S1` (Figure 10b).
    pub seg_a: Operand,
    /// Second 32-bit reduction operand of `S1`.
    pub seg_b: Operand,
    /// 32-bit reduction segment of `S2`.
    pub s2_a: Operand,
    /// Second 32-bit reduction operand of `S2`.
    pub s2_b: Operand,
}

impl MacReduceLayout {
    /// The layout used by every pass-1 shard job.
    #[must_use]
    pub fn new() -> Self {
        MacReduceLayout {
            filter_byte: op(0, 8),
            input_byte: op(8, 8),
            scratch16: op(16, 16),
            partial: op(32, 24),
            s2sum: op(56, 16),
            seg_a: op(72, 32),
            seg_b: op(104, 32),
            s2_a: op(136, 32),
            s2_b: op(168, 32),
        }
    }

    /// Every region with its name, for generic layout checking.
    #[must_use]
    pub fn named(&self) -> Vec<NamedOperand> {
        vec![
            ("filter_byte", self.filter_byte),
            ("input_byte", self.input_byte),
            ("scratch16", self.scratch16),
            ("partial", self.partial),
            ("s2sum", self.s2sum),
            ("seg_a", self.seg_a),
            ("seg_b", self.seg_b),
            ("s2_a", self.s2_a),
            ("s2_b", self.s2_b),
        ]
    }

    /// Clears the running sums `S1` and `S2` before the first tap.
    ///
    /// # Errors
    ///
    /// Propagates the sink's errors.
    pub fn clear<S: MicroOps + ?Sized>(&self, s: &mut S) -> Result<CycleStats> {
        Ok(s.zero(self.partial)? + s.zero(self.s2sum)?)
    }

    /// The per-tap multiply's `(multiplicand, multiplier)` under `mode`.
    ///
    /// Under [`SparsityMode::SkipZeroRows`] the stationary filter byte is
    /// the multiplier, so its bit-slice rows are what the FSM elides for
    /// free; the dynamic modes flip the roles — the streamed input byte
    /// becomes the multiplier so the per-round wired-NOR detect can elide
    /// all-lanes-zero input-bit rounds (8x8 multiply cost is symmetric in
    /// the operand order, and the product is identical either way).
    #[must_use]
    pub fn mul_roles(&self, mode: SparsityMode) -> (Operand, Operand) {
        match mode {
            SparsityMode::Dense | SparsityMode::SkipZeroRows => (self.input_byte, self.filter_byte),
            SparsityMode::SkipZeroInputs | SparsityMode::SkipBoth => {
                (self.filter_byte, self.input_byte)
            }
        }
    }

    /// One MAC tap on every lane under `mode`: `S1 += w * x` (multiply
    /// into [`Self::scratch16`], accumulate into [`Self::partial`]) and
    /// `S2 += x`.
    ///
    /// # Errors
    ///
    /// Propagates the sink's errors.
    pub fn mac_tap<S: MicroOps + ?Sized>(
        &self,
        s: &mut S,
        mode: SparsityMode,
    ) -> Result<CycleStats> {
        let (a, b) = self.mul_roles(mode);
        let product = match mode {
            SparsityMode::Dense => s.mul(a, b, self.scratch16)?,
            SparsityMode::SkipZeroRows => s.mul_skip_zero_rows(a, b, self.scratch16)?,
            SparsityMode::SkipZeroInputs => s.mul_skip_zero_input_bits(a, b, self.scratch16)?,
            SparsityMode::SkipBoth => s.mul_skip_both(a, b, self.scratch16)?,
        };
        Ok(product
            + s.add_assign(self.partial, self.scratch16)?
            + s.add_assign(self.s2sum, self.input_byte)?)
    }

    /// The tail of pass 1 on one array: widen `S1` and `S2` into the 4-byte
    /// reduction segments (Figure 10b), then reduce the channels of each of
    /// `groups` packed filters with grouped trees over `group_span` lanes.
    ///
    /// # Errors
    ///
    /// Propagates the sink's errors.
    pub fn widen_and_reduce<S: MicroOps + ?Sized>(
        &self,
        s: &mut S,
        group_span: usize,
        groups: usize,
    ) -> Result<CycleStats> {
        Ok(s.copy_zext(self.partial, self.seg_a)?
            + s.copy_zext(self.s2sum, self.s2_a)?
            + s.reduce_sum_grouped(self.seg_a, self.seg_b, group_span, groups)?
            + s.reduce_sum_grouped(self.s2_a, self.s2_b, group_span, groups)?)
    }

    /// Cross-array fold of a filter spanning several arrays (they share
    /// sense amps, Section III-D): transfer `partner`'s lane-0 segment sums
    /// into `home` and add them.
    ///
    /// # Errors
    ///
    /// Propagates the sinks' errors.
    pub fn fold_partner<P: MicroOps + ?Sized, H: MicroOps + ?Sized>(
        &self,
        partner: &mut P,
        home: &mut H,
    ) -> Result<CycleStats> {
        Ok(
            copy_lanes_between(partner, self.seg_a, home, self.seg_b, 0, 1)?
                + home.add_assign(self.seg_a, self.seg_b)?
                + copy_lanes_between(partner, self.s2_a, home, self.s2_b, 0, 1)?
                + home.add_assign(self.s2_a, self.s2_b)?,
        )
    }
}

impl Default for MacReduceLayout {
    fn default() -> Self {
        Self::new()
    }
}

/// Pass 2 (accumulator assembly `ACC = S1 - zp_w*S2 + C0`) row layout.
#[derive(Debug, Clone, Copy)]
pub struct AssembleLayout {
    /// 32-bit staged `S1`.
    pub s1_op: Operand,
    /// 32-bit staged `S2`.
    pub s2_op: Operand,
    /// 40-bit two's-complement accumulator `T`.
    pub t: Operand,
    /// 40-bit product region `U = zp_w * S2`.
    pub u: Operand,
    /// 40-bit subtraction scratch.
    pub scratch: Operand,
    /// 40-bit per-channel constant `C0`.
    pub c0_op: Operand,
}

impl AssembleLayout {
    /// The layout used by every pass-2 assembly job.
    #[must_use]
    pub fn new() -> Self {
        AssembleLayout {
            s1_op: op(0, 32),
            s2_op: op(32, 32),
            t: op(64, 40),
            u: op(104, 40),
            scratch: op(144, 40),
            c0_op: op(184, 40),
        }
    }

    /// Every region with its name, for generic layout checking.
    #[must_use]
    pub fn named(&self) -> Vec<NamedOperand> {
        vec![
            ("s1_op", self.s1_op),
            ("s2_op", self.s2_op),
            ("t", self.t),
            ("u", self.u),
            ("scratch", self.scratch),
            ("c0_op", self.c0_op),
        ]
    }

    /// Pass 2: `ACC = S1 - zp_w*S2 + C0` in the 40-bit two's-complement
    /// region [`Self::t`], then the MSB-masked `ReLU` when fused.
    ///
    /// # Errors
    ///
    /// Propagates the sink's errors.
    pub fn assemble<S: MicroOps + ?Sized>(
        &self,
        s: &mut S,
        zp_w: u64,
        relu: bool,
    ) -> Result<CycleStats> {
        let mut cycles = s.copy_zext(self.s1_op, self.t)?
            + s.mul_scalar(self.s2_op, zp_w, self.u)?
            + s.sub(self.t, self.u, self.t, self.scratch)?
            + s.add_assign(self.t, self.c0_op)?;
        if relu {
            cycles += s.relu(self.t)?;
        }
        Ok(cycles)
    }
}

impl Default for AssembleLayout {
    fn default() -> Self {
        Self::new()
    }
}

/// Dynamic-ranging (in-array min/max tree) row layout.
#[derive(Debug, Clone, Copy)]
pub struct RangingLayout {
    /// 40-bit offset accumulator value.
    pub v: Operand,
    /// 40-bit reduction scratch.
    pub scratch: Operand,
    /// 40-bit comparison scratch.
    pub cmp: Operand,
}

impl RangingLayout {
    /// The layout used by every ranging job (dump row: [`DUMP_ROW`]).
    #[must_use]
    pub fn new() -> Self {
        RangingLayout {
            v: op(0, 40),
            scratch: op(40, 40),
            cmp: op(80, 40),
        }
    }

    /// Every region with its name, for generic layout checking.
    #[must_use]
    pub fn named(&self) -> Vec<NamedOperand> {
        vec![("v", self.v), ("scratch", self.scratch), ("cmp", self.cmp)]
    }

    /// One in-array max (`want_max`) or min tree over `lanes` offset
    /// accumulators, leaving the result in lane 0 of [`Self::v`].
    ///
    /// # Errors
    ///
    /// Propagates the sink's errors.
    pub fn tree<S: MicroOps + ?Sized>(
        &self,
        s: &mut S,
        want_max: bool,
        lanes: usize,
    ) -> Result<CycleStats> {
        if want_max {
            s.reduce_max(self.v, self.scratch, self.cmp, DUMP_ROW, lanes)
        } else {
            s.reduce_min(self.v, self.scratch, self.cmp, DUMP_ROW, lanes)
        }
    }
}

impl Default for RangingLayout {
    fn default() -> Self {
        Self::new()
    }
}

/// Pass 3 (requantization) row layout.
#[derive(Debug, Clone, Copy)]
pub struct RequantLayout {
    /// 40-bit shifted accumulator `D`.
    pub d_op: Operand,
    /// 48-bit scalar-multiply product.
    pub prod: Operand,
}

impl RequantLayout {
    /// The layout used by every pass-3 job (dump row: [`DUMP_ROW`]).
    #[must_use]
    pub fn new() -> Self {
        RequantLayout {
            d_op: op(0, 40),
            prod: op(40, 48),
        }
    }

    /// Every region with its name, for generic layout checking.
    #[must_use]
    pub fn named(&self) -> Vec<NamedOperand> {
        vec![("d_op", self.d_op), ("prod", self.prod)]
    }

    /// Pass 3: `D = max(ACC - acc_min, 0)`, `P = D * multiplier`, and
    /// `q = min(P >> shift, 255)`. Returns the cycles and the 8-bit region
    /// holding `q`.
    ///
    /// # Errors
    ///
    /// Propagates the sink's errors (e.g. a multiplier wider than the
    /// 48-bit product admits).
    pub fn requantize<S: MicroOps + ?Sized>(
        &self,
        s: &mut S,
        acc_min: i64,
        multiplier: u32,
        shift: u32,
    ) -> Result<(CycleStats, Operand)> {
        let shifted = self.prod.slice(shift as usize, 16)?;
        let cycles = s.add_scalar_signed(self.d_op, -acc_min)?
            + s.relu(self.d_op)?
            + s.mul_scalar(self.d_op.slice(0, 32)?, u64::from(multiplier), self.prod)?
            + s.clamp_max_scalar(shifted, 255, DUMP_ROW)?;
        Ok((cycles, shifted.slice(0, 8)?))
    }
}

impl Default for RequantLayout {
    fn default() -> Self {
        Self::new()
    }
}

/// Code-to-code requantization row layout.
#[derive(Debug, Clone, Copy)]
pub struct CodeRequantLayout {
    /// 8-bit input code.
    pub q_in: Operand,
    /// 48-bit multiply/add/shift region.
    pub prod: Operand,
}

impl CodeRequantLayout {
    /// The layout used by every code-requant job (dump row: [`DUMP_ROW`]).
    #[must_use]
    pub fn new() -> Self {
        CodeRequantLayout {
            q_in: op(0, 8),
            prod: op(8, 48),
        }
    }

    /// Every region with its name, for generic layout checking.
    #[must_use]
    pub fn named(&self) -> Vec<NamedOperand> {
        vec![("q_in", self.q_in), ("prod", self.prod)]
    }

    /// Code-to-code requantization `q' = min(max(q*m + c, 0) >> shift, 255)`
    /// with a two's-complement `c`. Returns the cycles and the 8-bit region
    /// holding `q'`.
    ///
    /// # Errors
    ///
    /// Propagates the sink's errors (e.g. a shift past the product).
    pub fn requantize<S: MicroOps + ?Sized>(
        &self,
        s: &mut S,
        m: u64,
        c: i64,
        shift: u32,
    ) -> Result<(CycleStats, Operand)> {
        let cycles = s.mul_scalar(self.q_in, m, self.prod)?
            + s.add_scalar_signed(self.prod, c)?
            + s.relu(self.prod)?;
        let shifted = self.prod.slice(shift as usize, 16)?;
        let cycles = cycles + s.clamp_max_scalar(shifted, 255, DUMP_ROW)?;
        Ok((cycles, shifted.slice(0, 8)?))
    }
}

impl Default for CodeRequantLayout {
    fn default() -> Self {
        Self::new()
    }
}

/// Max-pooling row layout.
#[derive(Debug, Clone, Copy)]
pub struct PoolMaxLayout {
    /// 8-bit running maximum.
    pub acc: Operand,
    /// 8-bit streamed window element.
    pub x: Operand,
    /// 8-bit comparison scratch.
    pub scratch: Operand,
}

impl PoolMaxLayout {
    /// The layout used by every max-pool job (dump row: [`DUMP_ROW`]).
    #[must_use]
    pub fn new() -> Self {
        PoolMaxLayout {
            acc: op(0, 8),
            x: op(8, 8),
            scratch: op(16, 8),
        }
    }

    /// Every region with its name, for generic layout checking.
    #[must_use]
    pub fn named(&self) -> Vec<NamedOperand> {
        vec![("acc", self.acc), ("x", self.x), ("scratch", self.scratch)]
    }

    /// One window step: `acc = max(acc, x)` on every lane, by subtract,
    /// MSB mask and selective copy.
    ///
    /// # Errors
    ///
    /// Propagates the sink's errors.
    pub fn step<S: MicroOps + ?Sized>(&self, s: &mut S) -> Result<CycleStats> {
        s.max_assign(self.acc, self.x, self.scratch, DUMP_ROW)
    }
}

impl Default for PoolMaxLayout {
    fn default() -> Self {
        Self::new()
    }
}

/// Average-pooling row layout (window sum + restoring division).
#[derive(Debug, Clone, Copy)]
pub struct PoolAvgLayout {
    /// 8-bit streamed window element.
    pub x: Operand,
    /// 16-bit window sum.
    pub sum: Operand,
    /// 8-bit per-lane valid-element count (divisor).
    pub den: Operand,
    /// 16-bit quotient.
    pub quot: Operand,
    /// 9-bit remainder.
    pub rem: Operand,
    /// 9-bit trial-subtraction scratch.
    pub trial: Operand,
    /// 9-bit complemented-divisor scratch.
    pub notden: Operand,
}

impl PoolAvgLayout {
    /// The layout used by every average-pool job.
    #[must_use]
    pub fn new() -> Self {
        PoolAvgLayout {
            x: op(0, 8),
            sum: op(8, 16),
            den: op(24, 8),
            quot: op(32, 16),
            rem: op(48, 9),
            trial: op(57, 9),
            notden: op(66, 9),
        }
    }

    /// Every region with its name, for generic layout checking.
    #[must_use]
    pub fn named(&self) -> Vec<NamedOperand> {
        vec![
            ("x", self.x),
            ("sum", self.sum),
            ("den", self.den),
            ("quot", self.quot),
            ("rem", self.rem),
            ("trial", self.trial),
            ("notden", self.notden),
        ]
    }

    /// Clears the window sum before the first element.
    ///
    /// # Errors
    ///
    /// Propagates the sink's errors.
    pub fn clear<S: MicroOps + ?Sized>(&self, s: &mut S) -> Result<CycleStats> {
        s.zero(self.sum)
    }

    /// One window step: `sum += x` on every lane.
    ///
    /// # Errors
    ///
    /// Propagates the sink's errors.
    pub fn accumulate<S: MicroOps + ?Sized>(&self, s: &mut S) -> Result<CycleStats> {
        s.add_assign(self.sum, self.x)
    }

    /// Lane-wise restoring division of the window sum by the per-lane
    /// valid-element count. Returns the cycles and the 8-bit region holding
    /// the average.
    ///
    /// # Errors
    ///
    /// Propagates the sink's errors.
    pub fn divide<S: MicroOps + ?Sized>(&self, s: &mut S) -> Result<(CycleStats, Operand)> {
        let cycles = s.div(
            self.sum,
            self.den,
            self.quot,
            self.rem,
            self.trial,
            self.notden,
        )?;
        Ok((cycles, self.quot.slice(0, 8)?))
    }
}

impl Default for PoolAvgLayout {
    fn default() -> Self {
        Self::new()
    }
}

/// A shard-job pass layout; `pass as usize` is its index in
/// [`all_layouts_with_dump`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pass {
    /// [`MacReduceLayout`].
    MacReduce,
    /// [`AssembleLayout`].
    AssembleAcc,
    /// [`RangingLayout`].
    Ranging,
    /// [`RequantLayout`].
    Requant,
    /// [`CodeRequantLayout`].
    CodeRequant,
    /// [`PoolMaxLayout`].
    PoolMax,
    /// [`PoolAvgLayout`].
    PoolAvg,
}

/// Every shard-job layout, in [`Pass`] order, with its name and whether its
/// micro-op sequence drives the reserved [`DUMP_ROW`] (comparison/clamp
/// borrow dumps). The shard-graph verifier uses the flag to model each
/// job's write set row-exactly, including the reserved row.
#[must_use]
pub fn all_layouts_with_dump() -> Vec<(&'static str, Vec<NamedOperand>, bool)> {
    vec![
        ("mac_reduce", MacReduceLayout::new().named(), false),
        ("assemble_acc", AssembleLayout::new().named(), false),
        ("ranging", RangingLayout::new().named(), true),
        ("requant", RequantLayout::new().named(), true),
        ("code_requant", CodeRequantLayout::new().named(), true),
        ("pool_max", PoolMaxLayout::new().named(), true),
        ("pool_avg", PoolAvgLayout::new().named(), false),
    ]
}

/// Statically validates every shard-job layout: all regions in bounds,
/// pairwise disjoint, and clear of the reserved zero and dump rows.
///
/// Returns one human-readable violation per hazard (empty = clean). The
/// functional executor runs this as a debug-mode pre-pass before touching
/// any array; `nc-verify` re-runs the same descriptors with structured
/// error codes.
#[must_use]
pub fn validate_plan() -> Vec<String> {
    let mut violations = Vec::new();
    for (job, operands, _) in all_layouts_with_dump() {
        for (i, (name, o)) in operands.iter().enumerate() {
            if o.rows().end > ROWS {
                violations.push(format!("{job}: {name} {o} exceeds {ROWS} word lines"));
            }
            for reserved in [ZERO_ROW, DUMP_ROW] {
                if o.contains_row(reserved) {
                    violations.push(format!("{job}: {name} {o} claims reserved row {reserved}"));
                }
            }
            for (other_name, other) in &operands[i + 1..] {
                if o.overlaps(other) {
                    violations.push(format!("{job}: {name} {o} overlaps {other_name} {other}"));
                }
            }
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shipped_layouts_are_hazard_free() {
        assert_eq!(validate_plan(), Vec::<String>::new());
    }

    #[test]
    fn layouts_expose_every_field() {
        // `named()` must stay in sync with the struct fields — a region
        // missing from `named()` silently escapes all static checking.
        assert_eq!(MacReduceLayout::new().named().len(), 9);
        assert_eq!(AssembleLayout::new().named().len(), 6);
        assert_eq!(RangingLayout::new().named().len(), 3);
        assert_eq!(RequantLayout::new().named().len(), 2);
        assert_eq!(CodeRequantLayout::new().named().len(), 2);
        assert_eq!(PoolMaxLayout::new().named().len(), 3);
        assert_eq!(PoolAvgLayout::new().named().len(), 7);
    }

    #[test]
    fn dump_row_flags_match_the_executor_jobs() {
        // Exactly the jobs whose micro-ops pass a dump row to `nc-sram`
        // (reduce_min/max, clamp_max_scalar, max_assign) may claim it.
        let dumping: Vec<&str> = all_layouts_with_dump()
            .into_iter()
            .filter_map(|(name, _, dumps)| dumps.then_some(name))
            .collect();
        assert_eq!(dumping, ["ranging", "requant", "code_requant", "pool_max"]);
    }

    #[test]
    fn reserved_rows_sit_above_every_layout() {
        for (job, operands, _) in all_layouts_with_dump() {
            for (name, o) in operands {
                assert!(
                    o.rows().end <= DUMP_ROW,
                    "{job}/{name} must stay below the dump row"
                );
            }
        }
    }
}
