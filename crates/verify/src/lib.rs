//! **nc-verify**: a static plan verifier for the Neural Cache
//! reproduction — hazard detection, operand-layout linting, and three-way
//! cycle reconciliation, all without touching data.
//!
//! The compute arrays of the paper (Section III) impose hard structural
//! limits on every cycle: at most **two** word lines sensed (and they must
//! be distinct — the two-row activation of Figure 7), at most **one** word
//! line driven for write-back, the dedicated all-zero row never written,
//! and every row address inside the 256-row array. The executor's
//! correctness and the timing model's honesty both hinge on its operand
//! layouts and op schedules respecting those limits. This crate proves it
//! statically:
//!
//! 1. **Recorded schedules**: every `nc-sram` operation is a provided
//!    method of the `nc_sram::MicroOps` sink trait, so running the
//!    executor's own op sequences (`neural_cache::layout`) on the
//!    recording sink [`nc_sram::Schedule`] yields their per-cycle row
//!    read/write sets — no data, no replay. The data-dependent facts
//!    (elided rounds, live weight bits) enter as rows declared all-zero,
//!    because those are exactly what the control FSM knows.
//! 2. [`check`]: a **hazard checker** over those schedules — port overflows,
//!    out-of-bounds rows, zero-row clobbering, operand overlap, lane
//!    packing aliasing, row-budget overflow — plus reserved-way dump
//!    overlap invariants against [`neural_cache::BatchCostModel`].
//! 3. **Three-way cycle reconciliation**: recorded schedule length ==
//!    analytical [`neural_cache::cost::CostModel`] formula at every
//!    skip/live anchor point, and executed [`nc_sram::CycleStats`] ==
//!    the static round count and skip accounting under every sparsity
//!    mode, reported as structured [`diag::Diagnostic`]s with stable
//!    `Vxxx` codes.
//! 4. **Concurrency layer** ([`shard`] + [`hb`]): the Threaded engine's
//!    shard graph — per-output-window/per-chunk jobs, the inter-array
//!    reduce barrier, `ArrayPool` checkout/recycle events — rebuilt from
//!    the model and proven race-free by happens-before analysis
//!    (V013–V019), then reconciled against the executed pool counters
//!    (V020).
//! 5. **Value-range certification** ([`range`]): an interval × known-bits
//!    abstract interpretation seeded from each layer's quantization
//!    parameters, propagated op-by-op through the schedule and across
//!    layers by a single-pass dataflow fixpoint (the layer graph is a
//!    DAG). Emits overflow/clipping/provisioning diagnostics V021–V027,
//!    reconciles executed per-layer min/max against the certified
//!    intervals, and feeds proven bounds to the bit-budget advisor in
//!    `neural_cache::mapping`.
//!
//! Entry points: [`check_model`] (static + analytical legs, works on
//! shape-only models), [`check_threaded_model`] (adds the shard-graph
//! concurrency proof, still shape-only), and [`check_executed_model`]
//! (adds the executed leg by running the functional executor under all
//! four sparsity modes on both engines). The `plan_lint` bench bin sweeps
//! every shipped workload × sparsity mode × engine and fails CI on any
//! diagnostic.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]
#![warn(clippy::pedantic)]
// Pedantic allowlist: cycle counters convert between u64/f64 by design
// (the analytical model is f64), and diagnostics format many values.
#![allow(
    clippy::cast_precision_loss,
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    clippy::float_cmp,
    clippy::module_name_repetitions,
    clippy::too_many_lines,
    clippy::many_single_char_names
)]

pub mod check;
pub mod diag;
pub mod hb;
pub mod range;
pub mod report;
pub mod shard;

use nc_dnn::{Model, QTensor};
use neural_cache::batching::{BatchCostModel, DUMP_OVERLAP_EFFICIENCY};
use neural_cache::cost::{CostModel, DerivedCostModel, DATA_BITS};
use neural_cache::functional::{
    run_model_configured, FunctionalError, FunctionalResult, PoolEvents,
};
use neural_cache::mapping::{conv_lane_geometry, plan_model_with, BitBudget};
use neural_cache::{ExecutionEngine, SparsityMode, SystemConfig, UnitPlan};

use crate::diag::{Diagnostic, ErrorCode};
use crate::report::VerifyReport;

/// The four sparsity modes every sweep covers.
pub const ALL_MODES: [SparsityMode; 4] = [
    SparsityMode::Dense,
    SparsityMode::SkipZeroRows,
    SparsityMode::SkipZeroInputs,
    SparsityMode::SkipBoth,
];

/// Statically verifies a model's plan under `config`: executor operand
/// layouts, per-mode MAC-tap schedules, cost-model anchor points, every
/// layer's lane geometry and row budget under all four sparsity modes, and
/// the batching model's reserved-way dump-overlap window invariants.
///
/// Works on shape-only models (no weights needed — nothing executes).
///
/// # Panics
///
/// Panics if a layer cannot be mapped at all (the mapper's own invariant).
#[must_use]
pub fn check_model(config: &SystemConfig, model: &Model) -> VerifyReport {
    let mut report = VerifyReport::new(model.name.clone());

    report.record("layouts", check::check_layouts());
    report.record("cost-model", check::check_cost_model());

    // Per-mode MAC-tap and reduction schedules must be hazard-free.
    let mut hazards = Vec::new();
    let flags = [false, true, false, true, false, true, false, true];
    for mode in ALL_MODES {
        let s = check::mac_tap_schedule(mode, &flags, 5);
        hazards.extend(check::check_schedule(&format!("mac_tap/{mode:?}"), &s));
    }
    report.record("mac-tap-hazards", hazards);

    // Per-layer: lane geometry and reduction-schedule hazards, then the
    // row budget of every planned convolution under every mode.
    let mut geometry_diags = Vec::new();
    for layer in &model.layers {
        for conv in layer.conv_sublayers() {
            let geom = conv_lane_geometry(&conv.spec);
            let label = &conv.spec.name;
            geometry_diags.extend(check::check_lane_geometry(label, &geom, conv.spec.m));
            geometry_diags.extend(check::check_schedule(
                &format!("{label}/reduce"),
                &check::reduce_schedule(geom.group_span),
            ));
        }
    }
    report.record("lane-geometry", geometry_diags);

    let mut plan_diags = Vec::new();
    for mode in ALL_MODES {
        for plan in plan_model_with(model, &config.geometry, mode) {
            for unit in &plan.units {
                if let UnitPlan::Conv(c) = unit {
                    let label = format!("{}/{mode:?}", c.name);
                    plan_diags.extend(check::check_row_budget(&label, c));
                }
            }
        }
    }
    report.record("plan-reconciliation", plan_diags);

    report.record("dump-overlap", check_dump_overlap(config, model));

    // Value-range certification (V021-V027): interval x known-bits pass
    // over the schedule, checked against the default provisioning for
    // soundness and against the advised (trimmed) budgets for both
    // soundness and tightness. V024 is only meaningful against advised
    // budgets — the fixed Figure 10 defaults intentionally over-provision
    // small layers, and the advisor is the remedy, not a hazard.
    let ranges = range::model_ranges(model);
    let mut range_diags = Vec::new();
    let mut trimmed_bits = 0u64;
    let mut acc_bits_max = 0u32;
    let mut exact = 0u64;
    for conv in &ranges.convs {
        let label = &conv.name;
        range_diags.extend(range::check_pipeline(label, conv));
        let default = BitBudget::default_for(label.as_str());
        range_diags.extend(range::check_widths(
            &format!("{label}/default"),
            conv,
            &default,
        ));
        let advised = conv.advise();
        range_diags.extend(range::check_widths(
            &format!("{label}/advised"),
            conv,
            &advised,
        ));
        range_diags.extend(range::check_provisioning(
            &format!("{label}/advised"),
            conv,
            &advised,
        ));
        trimmed_bits += advised.trimmed_bits();
        acc_bits_max = acc_bits_max.max(conv.acc_raw.signed_bits());
        exact += u64::from(conv.exact_weights);
    }
    report.record("value-ranges", range_diags);
    report.stat("range_convs", ranges.convs.len() as u64);
    report.stat("range_exact_weighted", exact);
    report.stat("range_acc_bits_max", u64::from(acc_bits_max));
    report.stat("range_trimmed_bits", trimmed_bits);
    report
}

/// Everything [`check_model`] proves, plus the concurrency layer: builds
/// the Threaded engine's shard graph ([`shard::ShardGraph::from_model`])
/// and runs the happens-before analysis ([`hb::check_graph`]) over it —
/// shard row-set independence (V013/V014), reduce-barrier domination
/// (V015), pool recycling discipline (V016/V019), reserved-way dump-window
/// hygiene (V017), and output-slot coverage (V018).
///
/// Works on shape-only models; the graph is derived from shapes and lane
/// geometry alone. The report's `stats` carry the graph's size for the CI
/// artifact.
///
/// # Panics
///
/// Panics if a layer cannot be mapped at all (the mapper's own invariant).
#[must_use]
pub fn check_threaded_model(config: &SystemConfig, model: &Model) -> VerifyReport {
    let mut report = check_model(config, model);
    let graph = shard::ShardGraph::from_model(model);
    report.record("shard-graph", hb::check_graph(&graph));
    report.stat("shard_epochs", graph.epochs.len() as u64);
    report.stat("shard_jobs", graph.shard_count());
    report.stat("shard_reduce_barriers", graph.reduce_barriers.len() as u64);
    report.stat("shard_predicted_acquires", graph.predicted_acquires());
    report
}

/// Reconciles one executed run's [`ArrayPool`] event counts against the
/// shard graph's prediction (V020): the executor must check out exactly
/// the arrays the static decomposition says it will — on every engine,
/// under every sparsity mode — and return every one of them.
///
/// [`ArrayPool`]: nc_sram::ArrayPool
#[must_use]
pub fn reconcile_pool_events(
    predicted_acquires: u64,
    label: &str,
    events: PoolEvents,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if events.acquires != predicted_acquires {
        out.push(Diagnostic::new(
            ErrorCode::ExecutedPoolMismatch,
            label,
            format!(
                "executed {} pool checkouts; the shard graph predicts {predicted_acquires}",
                events.acquires
            ),
        ));
    }
    if events.releases != events.acquires {
        out.push(Diagnostic::new(
            ErrorCode::ExecutedPoolMismatch,
            label,
            format!(
                "{} checkouts vs {} returns: a shard job leaked an array",
                events.acquires, events.releases
            ),
        ));
    }
    out
}

/// Checks the reserved-way dump-overlap window invariants of the batching
/// model (V011): overlap savings can never exceed the efficiency-scaled
/// conflict window, the last image's dump share can never hide, and the
/// residual stall can never go negative.
#[must_use]
pub fn check_dump_overlap(config: &SystemConfig, model: &Model) -> Vec<Diagnostic> {
    let cost = BatchCostModel::new(config, model);
    let mut out = Vec::new();
    let tol = 1e-9;
    for batch in [1usize, 2, 3, 4, 8, 16, 32] {
        let r = cost.report(batch);
        let saved = r.dump_overlap_saved.as_secs_f64();
        let dump = r.dump_time.as_secs_f64();
        let per_image = r.per_image_time.as_secs_f64();
        let b = batch as f64;
        let share_cap = dump * ((b - 1.0) / b) * DUMP_OVERLAP_EFFICIENCY;
        let window_cap = per_image * (b - 1.0) * DUMP_OVERLAP_EFFICIENCY;
        if saved < -tol {
            out.push(Diagnostic::new(
                ErrorCode::ReservedWayPortConflict,
                format!("batch={batch}"),
                format!("negative dump overlap saving {saved:.3e}s"),
            ));
        }
        if saved > share_cap + tol {
            out.push(Diagnostic::new(
                ErrorCode::ReservedWayPortConflict,
                format!("batch={batch}"),
                format!(
                    "overlap saving {saved:.3e}s exceeds the overlappable dump share \
                     {share_cap:.3e}s (the last image's dump cannot hide)"
                ),
            ));
        }
        if saved > window_cap + tol {
            out.push(Diagnostic::new(
                ErrorCode::ReservedWayPortConflict,
                format!("batch={batch}"),
                format!(
                    "overlap saving {saved:.3e}s exceeds the port-conflict window \
                     {window_cap:.3e}s of {} overlappable compute spans",
                    batch - 1
                ),
            ));
        }
        if r.dump_stall().as_secs_f64() < -tol {
            out.push(Diagnostic::new(
                ErrorCode::ReservedWayPortConflict,
                format!("batch={batch}"),
                "negative residual dump stall".to_string(),
            ));
        }
    }
    out
}

/// Runs the functional executor under every sparsity mode (sequential and
/// threaded) and reconciles the executed
/// [`CycleStats`](nc_sram::CycleStats) against the static schedules
/// (V010): dense executes zero elisions, every mode schedules the same
/// statically predicted multiplier-round count, elided cycles reconcile
/// exactly against dense, the dynamic detect charge equals the scheduled
/// rounds, engines agree cycle-for-cycle, and outputs stay bit-identical
/// across all of it.
///
/// # Errors
///
/// Propagates the executor's failure (e.g. a shape-only model).
pub fn check_executed_model(
    config: &SystemConfig,
    model: &Model,
    input: &QTensor,
) -> Result<VerifyReport, FunctionalError> {
    let mut report = check_threaded_model(config, model);
    let mut diags = Vec::new();

    let run = |mode: SparsityMode,
               engine: ExecutionEngine|
     -> Result<FunctionalResult, FunctionalError> {
        run_model_configured(model, input, engine, mode)
    };
    let dense = run(SparsityMode::Dense, ExecutionEngine::Sequential)?;
    let skipping = run(SparsityMode::SkipZeroRows, ExecutionEngine::Sequential)?;
    let dynamic = run(SparsityMode::SkipZeroInputs, ExecutionEngine::Sequential)?;
    let both = run(SparsityMode::SkipBoth, ExecutionEngine::Sequential)?;
    let threaded = run(SparsityMode::Dense, ExecutionEngine::from_threads(4))?;
    let threaded_rows = run(SparsityMode::SkipZeroRows, ExecutionEngine::from_threads(4))?;
    let threaded_inputs = run(
        SparsityMode::SkipZeroInputs,
        ExecutionEngine::from_threads(4),
    )?;
    let threaded_both = run(SparsityMode::SkipBoth, ExecutionEngine::from_threads(4))?;

    let predicted_rounds = predicted_mul_rounds(config, model);
    let round = DerivedCostModel.mul_round_cycles();
    let mut expect = |cond: bool, op: &str, msg: String| {
        if !cond {
            diags.push(Diagnostic::new(ErrorCode::CycleMismatchExecuted, op, msg));
        }
    };

    let d = dense.cycles;
    expect(
        d.skipped_rounds == 0
            && d.input_rounds_skipped == 0
            && d.detect_cycles == 0
            && d.skipped_cycles == 0,
        "dense",
        format!("dense execution elided work: {d:?}"),
    );
    expect(
        d.mul_rounds == predicted_rounds,
        "dense/rounds",
        format!(
            "executed {} multiplier rounds; the static plan schedules {predicted_rounds}",
            d.mul_rounds
        ),
    );
    for (name, r) in [
        ("skip_rows", &skipping),
        ("skip_inputs", &dynamic),
        ("skip_both", &both),
    ] {
        expect(
            r.cycles.mul_rounds == d.mul_rounds,
            name,
            format!(
                "{name} scheduled {} rounds; dense scheduled {}",
                r.cycles.mul_rounds, d.mul_rounds
            ),
        );
        expect(
            r.output == dense.output,
            name,
            format!("{name} output diverges from dense"),
        );
    }

    let s = skipping.cycles;
    expect(
        s.compute_cycles + s.skipped_cycles == d.compute_cycles,
        "skip_rows/cycles",
        format!(
            "executed {} + saved {} != dense {}",
            s.compute_cycles, s.skipped_cycles, d.compute_cycles
        ),
    );
    expect(
        s.skipped_cycles == s.skipped_rounds * round,
        "skip_rows/rounds",
        format!(
            "{} skipped rounds should save {} cycles, recorded {}",
            s.skipped_rounds,
            s.skipped_rounds * round,
            s.skipped_cycles
        ),
    );

    for (name, r) in [("skip_inputs", &dynamic), ("skip_both", &both)] {
        let c = r.cycles;
        expect(
            c.compute_cycles + c.skipped_cycles - c.detect_cycles == d.compute_cycles,
            name,
            format!(
                "executed {} + saved {} - detect {} != dense {}",
                c.compute_cycles, c.skipped_cycles, c.detect_cycles, d.compute_cycles
            ),
        );
        expect(
            c.detect_cycles == c.mul_rounds,
            name,
            format!(
                "every scheduled round pays one detect: {} rounds, {} detects",
                c.mul_rounds, c.detect_cycles
            ),
        );
    }
    expect(
        dynamic.cycles.skipped_cycles == dynamic.cycles.input_rounds_skipped * round,
        "skip_inputs/rounds",
        format!(
            "{} elided input rounds should save {} cycles, recorded {}",
            dynamic.cycles.input_rounds_skipped,
            dynamic.cycles.input_rounds_skipped * round,
            dynamic.cycles.skipped_cycles
        ),
    );

    for (name, seq, thr) in [
        ("engines/dense", &dense, &threaded),
        ("engines/skip_rows", &skipping, &threaded_rows),
        ("engines/skip_inputs", &dynamic, &threaded_inputs),
        ("engines/skip_both", &both, &threaded_both),
    ] {
        expect(
            thr.cycles == seq.cycles && thr.output == seq.output,
            name,
            format!(
                "threaded execution diverges from sequential: {:?} vs {:?}",
                thr.cycles, seq.cycles
            ),
        );
    }

    report.record("executed-reconciliation", diags);

    // V020: every run — 4 sparsity modes x both engines — must check out
    // exactly the arrays the shard graph predicts, and return them all.
    // Sparsity elides compute *rounds*, never checkouts, so one static
    // number covers the whole sweep.
    let predicted = shard::ShardGraph::from_model(model).predicted_acquires();
    let mut pool_diags = Vec::new();
    for (name, r) in [
        ("dense/seq", &dense),
        ("skip_rows/seq", &skipping),
        ("skip_inputs/seq", &dynamic),
        ("skip_both/seq", &both),
        ("dense/threaded", &threaded),
        ("skip_rows/threaded", &threaded_rows),
        ("skip_inputs/threaded", &threaded_inputs),
        ("skip_both/threaded", &threaded_both),
    ] {
        pool_diags.extend(reconcile_pool_events(predicted, name, r.pool));
    }
    report.record("pool-reconciliation", pool_diags);

    // V021 executed leg: every per-sublayer accumulator min/max measured
    // by any of the eight runs must lie inside the statically certified
    // interval — the empirical soundness gate of the range analysis.
    let ranges = range::model_ranges(model);
    let mut range_diags = Vec::new();
    for (name, r) in [
        ("dense/seq", &dense),
        ("skip_rows/seq", &skipping),
        ("skip_inputs/seq", &dynamic),
        ("skip_both/seq", &both),
        ("dense/threaded", &threaded),
        ("skip_rows/threaded", &threaded_rows),
        ("skip_inputs/threaded", &threaded_inputs),
        ("skip_both/threaded", &threaded_both),
    ] {
        range_diags.extend(range::reconcile_executed_ranges(
            name,
            &ranges,
            &r.sublayers,
        ));
    }
    report.record("executed-ranges", range_diags);
    Ok(report)
}

/// The multiplier-round count the static plan schedules for one full
/// inference: every convolution output position runs one MAC pass per
/// filter run of the plan's lane geometry, of `arrays_per_filter x
/// eff_window` taps, each tap one 8-round bit-serial multiply.
#[must_use]
pub fn predicted_mul_rounds(config: &SystemConfig, model: &Model) -> u64 {
    let mut rounds = 0u64;
    for plan in plan_model_with(model, &config.geometry, SparsityMode::Dense) {
        for unit in &plan.units {
            if let UnitPlan::Conv(c) = unit {
                let positions = (c.out_shape.h * c.out_shape.w) as u64;
                let runs = c.geom.runs(c.out_shape.c).count() as u64;
                rounds += positions
                    * runs
                    * c.geom.arrays_per_filter as u64
                    * c.geom.eff_window as u64
                    * DATA_BITS as u64;
            }
        }
    }
    rounds
}

/// Re-exported so downstream consumers can name executed cycle totals
/// without importing `nc-sram` directly.
pub use nc_sram::CycleStats as ExecutedCycles;

#[cfg(test)]
mod tests {
    use super::*;
    use nc_dnn::workload::{random_input, tiny_cnn};

    #[test]
    fn shape_only_inception_verifies_clean() {
        let config = SystemConfig::default();
        let model = nc_dnn::inception::inception_v3();
        let report = check_model(&config, &model);
        assert!(report.is_clean(), "{report}");
        assert!(report.checks.iter().any(|c| c == "value-ranges"));
        let expected = model.conv_sublayer_count() as u64;
        assert!(report
            .stats
            .iter()
            .any(|(name, value)| name == "range_convs" && *value == expected));
    }

    #[test]
    fn threaded_check_proves_the_shard_graph_clean() {
        let config = SystemConfig::default();
        let report = check_threaded_model(&config, &tiny_cnn(42));
        assert!(report.is_clean(), "{report}");
        assert!(report.checks.iter().any(|c| c == "shard-graph"));
        assert!(report
            .stats
            .iter()
            .any(|(name, value)| name == "shard_predicted_acquires" && *value > 0));
    }

    #[test]
    fn pool_reconciliation_flags_drifted_counters() {
        let events = PoolEvents {
            acquires: 10,
            releases: 9,
        };
        let diags = reconcile_pool_events(12, "dense/seq", events);
        assert_eq!(diags.len(), 2);
        assert!(diags
            .iter()
            .all(|d| d.code == ErrorCode::ExecutedPoolMismatch));
    }

    #[test]
    fn executed_tiny_cnn_reconciles() {
        let config = SystemConfig::default();
        let model = tiny_cnn(42);
        let input = random_input(model.input_shape, model.input_quant, 7);
        let report = check_executed_model(&config, &model, &input).unwrap();
        assert!(report.is_clean(), "{report}");
        assert!(report.checks.iter().any(|c| c == "executed-reconciliation"));
        assert!(report.checks.iter().any(|c| c == "pool-reconciliation"));
        assert!(report.checks.iter().any(|c| c == "shard-graph"));
        assert!(report.checks.iter().any(|c| c == "executed-ranges"));
    }

    #[test]
    fn predicted_rounds_are_positive_for_conv_models() {
        let config = SystemConfig::default();
        assert!(predicted_mul_rounds(&config, &tiny_cnn(1)) > 0);
    }
}
