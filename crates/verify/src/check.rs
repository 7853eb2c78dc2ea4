//! Hazard checks over recorded schedules, operand layouts, and planned
//! mappings, plus the static ↔ analytical leg of the cycle reconciliation.
//!
//! Every check returns structured [`Diagnostic`]s; an empty vector means
//! the artifact is provably hazard-free under the modeled port semantics.

use nc_sram::{Schedule, StepKind, COLS, ROWS};
use neural_cache::cost::{CostModel, DerivedCostModel, DATA_BITS};
use neural_cache::layout::{self, NamedOperand, DUMP_ROW, ZERO_ROW};
use neural_cache::mapping::ConvMapping;
use neural_cache::{LaneGeometry, SparsityMode};

use crate::diag::{Diagnostic, ErrorCode};

/// Word-line port budgets of one compute cycle (Section III: two-row
/// activation with a single write-back driver).
pub const READ_PORTS: usize = 2;
/// Write word lines one compute cycle may drive.
pub const WRITE_PORTS: usize = 1;

/// Checks one recorded schedule for per-cycle port hazards: out-of-bounds
/// word lines (V002), read-port overflow or duplicate sensing (V003),
/// write-port overflow (V004), and zero-row clobbering (V005).
#[must_use]
pub fn check_schedule(label: &str, s: &Schedule) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (cycle, step) in s.steps.iter().enumerate() {
        for &row in step.reads.iter().chain(&step.writes) {
            if row >= ROWS {
                out.push(
                    Diagnostic::new(
                        ErrorCode::RowOutOfBounds,
                        label,
                        format!(
                            "cycle {cycle} ({}) activates word line {row} >= {ROWS}",
                            step.label
                        ),
                    )
                    .with_rows(row, row + 1),
                );
            }
        }
        if step.kind == StepKind::Compute {
            let duplicate = step.reads.len() == 2 && step.reads[0] == step.reads[1];
            if step.reads.len() > READ_PORTS || duplicate {
                out.push(
                    Diagnostic::new(
                        ErrorCode::ReadPortOverflow,
                        label,
                        format!(
                            "cycle {cycle} ({}) senses rows {:?}: two-row activation \
                             needs at most {READ_PORTS} distinct word lines",
                            step.label, step.reads
                        ),
                    )
                    .with_rows(
                        step.reads.iter().copied().min().unwrap_or(0),
                        step.reads.iter().copied().max().unwrap_or(0) + 1,
                    ),
                );
            }
            if step.writes.len() > WRITE_PORTS {
                out.push(
                    Diagnostic::new(
                        ErrorCode::WritePortOverflow,
                        label,
                        format!(
                            "cycle {cycle} ({}) drives {} write word lines {:?}",
                            step.label,
                            step.writes.len(),
                            step.writes
                        ),
                    )
                    .with_rows(
                        step.writes.iter().copied().min().unwrap_or(0),
                        step.writes.iter().copied().max().unwrap_or(0) + 1,
                    ),
                );
            }
        }
        if step.writes.contains(&ZERO_ROW) {
            out.push(
                Diagnostic::new(
                    ErrorCode::ZeroRowClobbered,
                    label,
                    format!(
                        "cycle {cycle} ({}) writes the dedicated all-zero row {ZERO_ROW}",
                        step.label
                    ),
                )
                .with_rows(ZERO_ROW, ZERO_ROW + 1),
            );
        }
    }
    out
}

/// Lints a named operand set: pairwise overlap (V001), out-of-bounds rows
/// (V002), zero-row claims (V005), and dump-row claims (V012).
#[must_use]
pub fn check_operands(label: &str, operands: &[NamedOperand]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (name, op) in operands {
        let rows = op.rows();
        if rows.end > ROWS {
            out.push(
                Diagnostic::new(
                    ErrorCode::RowOutOfBounds,
                    format!("{label}/{name}"),
                    format!(
                        "operand rows {}..{} exceed the {ROWS}-row array",
                        rows.start, rows.end
                    ),
                )
                .with_rows(rows.start, rows.end),
            );
        }
        if op.contains_row(ZERO_ROW) {
            out.push(
                Diagnostic::new(
                    ErrorCode::ZeroRowClobbered,
                    format!("{label}/{name}"),
                    format!("operand claims the dedicated all-zero row {ZERO_ROW}"),
                )
                .with_rows(rows.start, rows.end),
            );
        }
        if op.contains_row(DUMP_ROW) {
            out.push(
                Diagnostic::new(
                    ErrorCode::DumpRowConflict,
                    format!("{label}/{name}"),
                    format!("operand claims the comparison dump row {DUMP_ROW}"),
                )
                .with_rows(rows.start, rows.end),
            );
        }
    }
    for (i, (name_a, a)) in operands.iter().enumerate() {
        for (name_b, b) in &operands[i + 1..] {
            if a.overlaps(b) {
                let start = a.rows().start.max(b.rows().start);
                let end = a.rows().end.min(b.rows().end);
                out.push(
                    Diagnostic::new(
                        ErrorCode::OperandOverlap,
                        format!("{label}/{name_a}+{name_b}"),
                        format!("operands {name_a} and {name_b} share word lines"),
                    )
                    .with_rows(start, end),
                );
            }
        }
    }
    out
}

/// Lints every named operand layout the functional executor ships
/// ([`layout::all_layouts_with_dump`]).
#[must_use]
pub fn check_layouts() -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (name, operands, _) in layout::all_layouts_with_dump() {
        out.extend(check_operands(name, &operands));
    }
    out
}

/// Checks a convolution's lane geometry: non-power-of-two reduction spans
/// (V008) and lane-packing overflow past the array's bit lines (V007).
#[must_use]
pub fn check_lane_geometry(label: &str, geom: &LaneGeometry, filters: usize) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if !geom.group_span.is_power_of_two() {
        out.push(Diagnostic::new(
            ErrorCode::NonPowerOfTwoLanes,
            label,
            format!(
                "group span {} is not a power of two: the reduction tree cannot halve it",
                geom.group_span
            ),
        ));
    }
    let packed = geom.group_span * geom.groups_per_array(filters);
    if packed > COLS {
        out.push(Diagnostic::new(
            ErrorCode::LanePackingAlias,
            label,
            format!(
                "{} groups of span {} pack {packed} lanes onto {COLS} bit lines",
                geom.groups_per_array(filters),
                geom.group_span
            ),
        ));
    }
    if geom.group_span * geom.arrays_per_filter < geom.lanes_per_filter {
        out.push(Diagnostic::new(
            ErrorCode::LanePackingAlias,
            label,
            format!(
                "filter needs {} lanes but {} array(s) of span {} map only {}",
                geom.lanes_per_filter,
                geom.arrays_per_filter,
                geom.group_span,
                geom.group_span * geom.arrays_per_filter
            ),
        ));
    }
    out
}

/// Checks a planned convolution mapping's word-line budget (V006).
#[must_use]
pub fn check_row_budget(label: &str, mapping: &ConvMapping) -> Vec<Diagnostic> {
    if mapping.rows.fits() {
        Vec::new()
    } else {
        vec![Diagnostic::new(
            ErrorCode::RowBudgetOverflow,
            label,
            format!(
                "mapping needs {} word lines; the array has {ROWS}",
                mapping.rows.total()
            ),
        )
        .with_rows(0, mapping.rows.total())]
    }
}

// ---------------------------------------------------------------------
// Recorded MAC-tap schedules and the static <-> analytical reconciliation.
// ---------------------------------------------------------------------

/// The executor's per-tap MAC schedule under `mode`
/// ([`layout::MacReduceLayout::mac_tap`]), recorded with the control-FSM
/// facts: `zero_rounds[j]` says multiplier bit-slice `j` is all-zero, and
/// multiplicand bit-slices from `live_bits` up are all-zero.
///
/// # Panics
///
/// Panics if the shipped layout rejects the tap (a layout bug).
#[must_use]
pub fn mac_tap_schedule(mode: SparsityMode, zero_rounds: &[bool], live_bits: usize) -> Schedule {
    let l = layout::MacReduceLayout::new();
    let (multiplicand, multiplier) = l.mul_roles(mode);
    let mut s = Schedule::with_zero_row(ZERO_ROW);
    for (j, _) in zero_rounds.iter().enumerate().filter(|(_, &zero)| zero) {
        s.assume_zero(multiplier.row(j));
    }
    for i in live_bits..multiplicand.bits() {
        s.assume_zero(multiplicand.row(i));
    }
    l.mac_tap(&mut s, mode)
        .expect("the MAC layout admits the tap");
    s
}

/// The post-MAC schedule of one array: segment widening plus the grouped
/// channel-reduction trees ([`layout::MacReduceLayout::widen_and_reduce`]).
///
/// # Panics
///
/// Panics if `group_span` is not a power of two within the array; check
/// the lane geometry first.
#[must_use]
pub fn reduce_schedule(group_span: usize) -> Schedule {
    let mut s = Schedule::with_zero_row(ZERO_ROW);
    layout::MacReduceLayout::new()
        .widen_and_reduce(&mut s, group_span, 1)
        .expect("a power-of-two span reduces");
    s
}

/// Proves the cost model's sparse and dynamic MAC formulas
/// (`mac_cycles_sparse`, `mac_cycles_dynamic`) equal the recorded tap
/// schedules at every integer skip/live anchor point (V009 on any
/// disagreement).
#[must_use]
pub fn check_cost_model() -> Vec<Diagnostic> {
    let cost = &DerivedCostModel;
    let mut out = Vec::new();
    for k in 0..=DATA_BITS {
        let mut flags = [false; DATA_BITS];
        for f in flags.iter_mut().take(k) {
            *f = true;
        }
        let skip = k as f64 / DATA_BITS as f64;

        let s = mac_tap_schedule(SparsityMode::SkipZeroRows, &flags, DATA_BITS);
        let analytical = cost.mac_cycles_sparse(skip);
        if s.compute_cycles() as f64 != analytical {
            out.push(Diagnostic::new(
                ErrorCode::CycleMismatchAnalytical,
                "mac_tap/skip_rows",
                format!(
                    "{k}/{DATA_BITS} rounds elided: static {} vs analytical {analytical}",
                    s.compute_cycles()
                ),
            ));
        }

        let s = mac_tap_schedule(SparsityMode::SkipZeroInputs, &flags, DATA_BITS);
        let analytical = cost.mac_cycles_dynamic(skip, DATA_BITS as f64);
        if s.compute_cycles() as f64 != analytical {
            out.push(Diagnostic::new(
                ErrorCode::CycleMismatchAnalytical,
                "mac_tap/skip_inputs",
                format!(
                    "{k}/{DATA_BITS} rounds elided: static {} vs analytical {analytical}",
                    s.compute_cycles()
                ),
            ));
        }

        for live in 0..=DATA_BITS {
            let s = mac_tap_schedule(SparsityMode::SkipBoth, &flags, live);
            let analytical = cost.mac_cycles_dynamic(skip, live as f64);
            if s.compute_cycles() as f64 != analytical {
                out.push(Diagnostic::new(
                    ErrorCode::CycleMismatchAnalytical,
                    "mac_tap/skip_both",
                    format!(
                        "{k}/{DATA_BITS} elided, {live} live bits: static {} vs \
                         analytical {analytical}",
                        s.compute_cycles()
                    ),
                ));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use nc_sram::{MicroOps, Operand, Predicate};

    fn op(base: usize, bits: usize) -> Operand {
        Operand::new(base, bits).unwrap()
    }

    #[test]
    fn clean_schedules_produce_no_diagnostics() {
        let (a, b, dst, prod) = (op(0, 8), op(8, 8), op(16, 9), op(32, 16));
        let mut s = Schedule::with_zero_row(ZERO_ROW);
        s.add(a, b, dst).unwrap();
        s.mul(a, b, prod).unwrap();
        for j in [0, 2, 4, 6] {
            s.assume_zero(b.row(j));
        }
        s.mul_skip_both(a, b, prod).unwrap();
        assert!(check_schedule("ops", &s).is_empty());
    }

    #[test]
    fn duplicate_sense_is_a_read_port_overflow() {
        // A full add sensing row i against itself.
        let mut s = Schedule::new();
        for i in 0..8 {
            s.op_full_add(i, i, 16 + i, Predicate::Always).unwrap();
        }
        let diags = check_schedule("alias", &s);
        assert_eq!(diags.len(), 8);
        assert!(diags.iter().all(|d| d.code == ErrorCode::ReadPortOverflow));
    }

    #[test]
    fn out_of_bounds_rows_are_flagged() {
        let mut s = Schedule::new();
        s.op_copy(ROWS, 0, Predicate::Always).unwrap();
        let diags = check_schedule("oob", &s);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, ErrorCode::RowOutOfBounds);
        assert_eq!(diags[0].rows, Some((ROWS, ROWS + 1)));
    }

    #[test]
    fn zero_row_writes_are_flagged() {
        let mut s = Schedule::new();
        s.op_write_const(ZERO_ROW, false, Predicate::Always)
            .unwrap();
        let diags = check_schedule("clobber", &s);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, ErrorCode::ZeroRowClobbered);
    }

    #[test]
    fn operand_lints_cover_overlap_and_reserved_rows() {
        // `Operand::new` already bounds-rejects out-of-range descriptors, so
        // V002 cannot arise here; it is exercised through `check_schedule`
        // in `out_of_bounds_rows_are_flagged` instead.
        let diags = check_operands(
            "lint",
            &[
                ("a", op(0, 16)),
                ("b", op(8, 8)),
                ("tall", op(248, 8)),
                ("dump", op(249, 2)),
            ],
        );
        let codes: Vec<_> = diags.iter().map(|d| d.code).collect();
        assert!(codes.contains(&ErrorCode::OperandOverlap), "{diags:?}");
        assert!(codes.contains(&ErrorCode::ZeroRowClobbered), "{diags:?}");
        assert!(codes.contains(&ErrorCode::DumpRowConflict), "{diags:?}");
    }

    #[test]
    fn shipped_layouts_are_clean() {
        assert_eq!(check_layouts(), Vec::new());
    }

    #[test]
    fn cost_model_formulas_match_the_recorded_taps() {
        assert_eq!(check_cost_model(), Vec::new());
        let dense = mac_tap_schedule(SparsityMode::Dense, &[], DATA_BITS);
        assert_eq!(dense.compute_cycles(), DerivedCostModel.mac_cycles());
    }

    #[test]
    fn mac_tap_schedules_are_hazard_free_in_every_mode() {
        let flags = [false, true, false, true, false, true, false, true];
        for mode in [
            SparsityMode::Dense,
            SparsityMode::SkipZeroRows,
            SparsityMode::SkipZeroInputs,
            SparsityMode::SkipBoth,
        ] {
            let s = mac_tap_schedule(mode, &flags, 6);
            assert!(check_schedule("mac_tap", &s).is_empty(), "{mode:?}");
        }
        assert!(check_schedule("reduce", &reduce_schedule(64)).is_empty());
    }

    #[test]
    fn every_pass_schedule_is_hazard_free_and_dumps_as_flagged() {
        use layout::{
            AssembleLayout, CodeRequantLayout, MacReduceLayout, Pass, PoolAvgLayout, PoolMaxLayout,
            RangingLayout, RequantLayout,
        };
        fn record(
            f: impl FnOnce(&mut Schedule) -> nc_sram::Result<nc_sram::CycleStats>,
        ) -> Schedule {
            let mut s = Schedule::with_zero_row(ZERO_ROW);
            f(&mut s).expect("the shipped layout admits its pass");
            s
        }
        let mac = MacReduceLayout::new();
        let (assemble, ranging) = (AssembleLayout::new(), RangingLayout::new());
        let (pool_max, pool_avg) = (PoolMaxLayout::new(), PoolAvgLayout::new());
        let (mut partner, mut home) = (
            Schedule::with_zero_row(ZERO_ROW),
            Schedule::with_zero_row(ZERO_ROW),
        );
        mac.fold_partner(&mut partner, &mut home).unwrap();
        let passes = [
            (Pass::MacReduce, "clear", record(|s| mac.clear(s))),
            (
                Pass::MacReduce,
                "mac_tap",
                record(|s| mac.mac_tap(s, SparsityMode::Dense)),
            ),
            (
                Pass::MacReduce,
                "widen_and_reduce",
                record(|s| mac.widen_and_reduce(s, 64, 4)),
            ),
            (Pass::MacReduce, "fold/partner", partner),
            (Pass::MacReduce, "fold/home", home),
            (
                Pass::AssembleAcc,
                "assemble/relu",
                record(|s| assemble.assemble(s, 3, true)),
            ),
            (
                Pass::AssembleAcc,
                "assemble/linear",
                record(|s| assemble.assemble(s, 3, false)),
            ),
            (
                Pass::Ranging,
                "ranging/min",
                record(|s| ranging.tree(s, false, COLS)),
            ),
            (
                Pass::Ranging,
                "ranging/max",
                record(|s| ranging.tree(s, true, COLS)),
            ),
            (
                Pass::Requant,
                "requant",
                record(|s| Ok(RequantLayout::new().requantize(s, -5, 77, 9)?.0)),
            ),
            (
                Pass::CodeRequant,
                "code_requant",
                record(|s| Ok(CodeRequantLayout::new().requantize(s, 3, -40, 2)?.0)),
            ),
            (Pass::PoolMax, "pool_max/step", record(|s| pool_max.step(s))),
            (
                Pass::PoolAvg,
                "pool_avg/clear",
                record(|s| pool_avg.clear(s)),
            ),
            (
                Pass::PoolAvg,
                "pool_avg/accumulate",
                record(|s| pool_avg.accumulate(s)),
            ),
            (
                Pass::PoolAvg,
                "pool_avg/divide",
                record(|s| Ok(pool_avg.divide(s)?.0)),
            ),
        ];
        for (pass, label, s) in &passes {
            assert_eq!(check_schedule(label, s), Vec::new(), "{label}");
            let (_, _, flagged) = layout::all_layouts_with_dump()[*pass as usize];
            let dumps = s.steps.iter().any(|step| step.writes.contains(&DUMP_ROW));
            assert_eq!(dumps, flagged, "{label} writes the dump row: {dumps}");
        }
        // Every pass layout has at least one recorded sequence.
        for id in 0..layout::all_layouts_with_dump().len() {
            assert!(passes.iter().any(|(p, _, _)| *p as usize == id), "{id}");
        }
    }
}
