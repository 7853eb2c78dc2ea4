//! Host wall-time measurement of the functional executor under the
//! Sequential vs Threaded execution engines **and** the Dense vs
//! `SkipZeroRows` sparsity modes, emitted as machine-readable JSON
//! (`BENCH_functional.json`) so CI can track the perf trajectory of the
//! simulator per PR.
//!
//! The workloads are the functional-executor proxies for the paper's
//! Inception v3 evaluation: `mini_inception` (one block of every Inception
//! family — the full 299x299 network is out of reach for a bit-serial
//! simulation in CI), the Inception stem-slice convolution, and `tiny_cnn`;
//! the sparsity section runs `pruned_inception` and the pruned single-conv
//! cross-check model. Every comparison also *verifies* its invariant: the
//! threaded run must be bit-identical to the sequential one with identical
//! cycle counts, and the skipping run must be bit-identical to dense with
//! its executed skip fraction agreeing with the `sparsity::analyze`
//! prediction.

use std::fmt::Write as _;
use std::time::Instant;

use nc_dnn::workload::{
    mini_inception, pruned_conv_model, pruned_inception, random_conv, random_input,
    relu_sparse_conv_model, relu_sparse_input, relu_sparse_mini, single_conv_model, tiny_cnn,
};
use nc_dnn::{Model, Padding, QTensor, Shape};
use neural_cache::functional::{self, run_model_configured, FunctionalResult};
use neural_cache::sparsity::activation_profile;
use neural_cache::{
    time_inference, time_inference_with_profile, ExecutionEngine, SparsityMode, SystemConfig,
};

/// Sequential-vs-threaded wall-time comparison of one workload.
#[derive(Debug, Clone)]
pub struct EngineComparison {
    /// Workload name.
    pub name: String,
    /// Best-of-`reps` sequential wall time, milliseconds.
    pub sequential_ms: f64,
    /// Best-of-`reps` threaded wall time, milliseconds.
    pub threaded_ms: f64,
    /// `sequential_ms / threaded_ms`.
    pub speedup: f64,
    /// Whether the threaded output tensor matched the sequential one
    /// byte-for-byte.
    pub bit_identical: bool,
    /// Whether the threaded cycle counters matched the sequential ones.
    pub cycles_identical: bool,
    /// Simulated compute cycles of the workload (engine-independent).
    pub compute_cycles: u64,
}

impl EngineComparison {
    /// Whether the threaded backend reproduced the sequential results
    /// exactly (the acceptance gate for the comparison).
    #[must_use]
    pub fn verified(&self) -> bool {
        self.bit_identical && self.cycles_identical
    }
}

fn proxy_workloads() -> Vec<(String, Model, QTensor)> {
    let mut workloads = Vec::new();
    let mini = mini_inception(2018);
    let mini_input = random_input(mini.input_shape, mini.input_quant, 7);
    workloads.push(("inception_v3_proxy_mini".to_owned(), mini, mini_input));

    // Conv2d_1a_3x3's channel geometry (3 -> 32, 3x3 stride-2 VALID) at
    // reduced spatial size.
    let stem = single_conv_model(
        random_conv("stem", (3, 3), 3, 32, 2, Padding::Valid, true, 2018),
        Shape::new(11, 11, 3),
    );
    let stem_input = random_input(stem.input_shape, stem.input_quant, 8);
    workloads.push(("inception_stem_slice".to_owned(), stem, stem_input));

    let tiny = tiny_cnn(2018);
    let tiny_input = random_input(tiny.input_shape, tiny.input_quant, 9);
    workloads.push(("tiny_cnn".to_owned(), tiny, tiny_input));
    workloads
}

fn time_runs(
    model: &Model,
    input: &QTensor,
    engine: ExecutionEngine,
    reps: usize,
) -> (FunctionalResult, f64) {
    let mut result = None;
    let mut best_ms = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        let r = functional::run_model_with(model, input, engine).expect("functional run");
        best_ms = best_ms.min(start.elapsed().as_secs_f64() * 1e3);
        result = Some(r);
    }
    (result.expect("at least one rep"), best_ms)
}

/// Runs every proxy workload under both engines (best of `reps` wall
/// times) and verifies the threaded results against the sequential ones.
#[must_use]
pub fn compare_engines(threads: usize, reps: usize) -> Vec<EngineComparison> {
    let threaded = ExecutionEngine::from_threads(threads);
    proxy_workloads()
        .into_iter()
        .map(|(name, model, input)| {
            let (seq, sequential_ms) = time_runs(&model, &input, ExecutionEngine::Sequential, reps);
            let (thr, threaded_ms) = time_runs(&model, &input, threaded, reps);
            EngineComparison {
                name,
                sequential_ms,
                threaded_ms,
                speedup: sequential_ms / threaded_ms,
                bit_identical: seq.output.data() == thr.output.data()
                    && seq.sublayers == thr.sublayers,
                cycles_identical: seq.cycles == thr.cycles,
                compute_cycles: seq.cycles.compute_cycles,
            }
        })
        .collect()
}

/// Dense-vs-SkipZeroRows comparison of one pruned workload: host wall
/// time, simulated cycles, and the predicted-vs-executed skip cross-check.
#[derive(Debug, Clone)]
pub struct SparsityComparison {
    /// Workload name.
    pub name: String,
    /// Best-of-`reps` dense functional wall time, milliseconds.
    pub dense_ms: f64,
    /// Best-of-`reps` skipping functional wall time, milliseconds.
    pub sparse_ms: f64,
    /// Simulated compute cycles of the dense functional run.
    pub dense_compute_cycles: u64,
    /// Simulated compute cycles of the skipping functional run.
    pub sparse_compute_cycles: u64,
    /// Simulated MAC-phase cycles of the timing model, dense mode.
    pub timing_mac_cycles_dense: u64,
    /// Simulated MAC-phase cycles of the timing model, skipping mode
    /// (per-bank FSMs: each array skips independently — the mean variant).
    pub timing_mac_cycles_sparse: u64,
    /// Simulated MAC cycles under the lockstep-bank skip variant (one FSM
    /// steps every bank, so only globally-zero rounds skip; the MAC phase
    /// is the max over arrays). Always `>= timing_mac_cycles_sparse`.
    pub timing_mac_cycles_lockstep: u64,
    /// Multiplier-bit rounds scheduled by the skipping run.
    pub mul_rounds: u64,
    /// Rounds the skipping run elided.
    pub skipped_rounds: u64,
    /// `skipped_rounds / mul_rounds`.
    pub executed_skip_fraction: f64,
    /// `sparsity::analyze` prediction on the mapper's lane packing.
    pub predicted_skip_fraction: f64,
    /// Whether skipping reproduced the dense bytes and records exactly.
    pub bit_identical: bool,
}

impl SparsityComparison {
    /// Tolerance on the predicted-vs-executed agreement: the analysis
    /// weights sub-layers by executed rounds (per-window rounds times
    /// output windows), so both fractions are ratios of the same integer
    /// counts and must agree to floating-point exactness on any model.
    pub const SKIP_FRACTION_TOLERANCE: f64 = 1e-9;

    /// Simulated compute-cycle speedup of skipping (functional executor).
    #[must_use]
    pub fn cycle_speedup(&self) -> f64 {
        self.dense_compute_cycles as f64 / self.sparse_compute_cycles as f64
    }

    /// Simulated MAC-phase speedup of skipping (timing model, per-bank
    /// variant).
    #[must_use]
    pub fn mac_speedup(&self) -> f64 {
        self.timing_mac_cycles_dense as f64 / self.timing_mac_cycles_sparse as f64
    }

    /// Relative MAC-time spread between the skip variants:
    /// `(lockstep - per_bank) / per_bank` — the extra MAC time lockstep
    /// banks pay over per-bank FSMs.
    #[must_use]
    pub fn lockstep_spread(&self) -> f64 {
        if self.timing_mac_cycles_sparse == 0 {
            0.0
        } else {
            (self.timing_mac_cycles_lockstep as f64 - self.timing_mac_cycles_sparse as f64)
                / self.timing_mac_cycles_sparse as f64
        }
    }

    /// The acceptance gate: bit identity plus skip-fraction agreement.
    #[must_use]
    pub fn verified(&self) -> bool {
        self.bit_identical
            && (self.executed_skip_fraction - self.predicted_skip_fraction).abs()
                <= Self::SKIP_FRACTION_TOLERANCE
    }
}

fn pruned_workloads() -> Vec<(String, Model, QTensor)> {
    let pruned = pruned_inception(2018);
    let pruned_input = random_input(pruned.input_shape, pruned.input_quant, 7);
    let single = pruned_conv_model(2018);
    let single_input = random_input(single.input_shape, single.input_quant, 8);
    vec![
        ("pruned_inception".to_owned(), pruned, pruned_input),
        ("pruned_conv_crosscheck".to_owned(), single, single_input),
    ]
}

/// `(per-bank, lockstep)` MAC cycles of the deterministic timing model
/// under `mode` (identical under dense execution).
fn timing_mac_cycles(model: &Model, mode: SparsityMode) -> (u64, u64) {
    let config = SystemConfig::with_sparsity(mode);
    let report = time_inference(&config, model);
    let per_bank = report.layers.iter().map(|l| l.mac_cycles).sum();
    let lockstep = report.layers.iter().map(|l| l.mac_cycles_lockstep).sum();
    (per_bank, lockstep)
}

fn time_sparsity_runs(
    model: &Model,
    input: &QTensor,
    mode: SparsityMode,
    reps: usize,
) -> (FunctionalResult, f64) {
    let mut result = None;
    let mut best_ms = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        let r = run_model_configured(model, input, ExecutionEngine::Sequential, mode)
            .expect("functional run");
        best_ms = best_ms.min(start.elapsed().as_secs_f64() * 1e3);
        result = Some(r);
    }
    (result.expect("at least one rep"), best_ms)
}

/// Runs the pruned workloads densely and with round skipping (best of
/// `reps` wall times), verifying bit identity and the analytical skip
/// prediction against the executed counters.
#[must_use]
pub fn compare_sparsity(reps: usize) -> Vec<SparsityComparison> {
    pruned_workloads()
        .into_iter()
        .map(|(name, model, input)| {
            let (dense, dense_ms) = time_sparsity_runs(&model, &input, SparsityMode::Dense, reps);
            let (sparse, sparse_ms) =
                time_sparsity_runs(&model, &input, SparsityMode::SkipZeroRows, reps);
            let predicted = neural_cache::sparsity::analyze(&model).simd_skip();
            let (dense_mac, _) = timing_mac_cycles(&model, SparsityMode::Dense);
            let (sparse_mac, lockstep_mac) = timing_mac_cycles(&model, SparsityMode::SkipZeroRows);
            SparsityComparison {
                name,
                dense_ms,
                sparse_ms,
                dense_compute_cycles: dense.cycles.compute_cycles,
                sparse_compute_cycles: sparse.cycles.compute_cycles,
                timing_mac_cycles_dense: dense_mac,
                timing_mac_cycles_sparse: sparse_mac,
                timing_mac_cycles_lockstep: lockstep_mac,
                mul_rounds: sparse.cycles.mul_rounds,
                skipped_rounds: sparse.cycles.skipped_rounds,
                executed_skip_fraction: sparse.cycles.skip_fraction(),
                predicted_skip_fraction: predicted,
                bit_identical: dense.output.data() == sparse.output.data()
                    && dense.sublayers == sparse.sublayers,
            }
        })
        .collect()
}

/// What a dynamic-sparsity workload is expected to demonstrate — the two
/// sides of the detect-overhead break-even.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ActivationExpectation {
    /// ReLU-sparse activations: the elided rounds must repay the 1-cycle
    /// per-round detect with room to spare — a **net** MAC-phase speedup.
    NetSpeedup,
    /// Dense activations: almost nothing skips, so the detect charge must
    /// show up as a MAC-phase *slowdown* (the break-even's other side).
    Overhead,
}

/// Dense-vs-dynamic comparison of one workload under the input-activation
/// skip modes: functional cycles and counters for `SkipZeroInputs` and
/// `SkipBoth`, the `activation_profile` cross-check, and the timing-model
/// MAC phase priced with the measured profile.
#[derive(Debug, Clone)]
pub struct ActivationComparison {
    /// Workload name.
    pub name: String,
    /// Which break-even side this workload demonstrates.
    pub expectation: ActivationExpectation,
    /// Best-of-`reps` dense functional wall time, milliseconds.
    pub dense_ms: f64,
    /// Best-of-`reps` `SkipZeroInputs` functional wall time, milliseconds.
    pub input_ms: f64,
    /// Simulated compute cycles of the dense functional run.
    pub dense_compute_cycles: u64,
    /// Simulated compute cycles under `SkipZeroInputs` (detects included).
    pub input_compute_cycles: u64,
    /// Simulated compute cycles under `SkipBoth`.
    pub both_compute_cycles: u64,
    /// Wired-NOR detect cycles the `SkipZeroInputs` run charged.
    pub detect_cycles: u64,
    /// Multiplier-bit rounds scheduled.
    pub mul_rounds: u64,
    /// Input-bit rounds the detect elided.
    pub input_rounds_skipped: u64,
    /// `input_rounds_skipped / mul_rounds`.
    pub executed_input_skip_fraction: f64,
    /// `sparsity::activation_profile` prediction on the same input.
    pub predicted_input_skip_fraction: f64,
    /// Timing-model MAC cycles, dense mode.
    pub timing_mac_cycles_dense: u64,
    /// Timing-model MAC cycles, `SkipZeroInputs` with the measured profile
    /// applied (detect overhead charged).
    pub timing_mac_cycles_input: u64,
    /// Timing-model MAC cycles, `SkipBoth` with the measured profile.
    pub timing_mac_cycles_both: u64,
    /// Whether both dynamic modes reproduced the dense bytes and records.
    pub bit_identical: bool,
}

impl ActivationComparison {
    /// Simulated compute-cycle speedup of `SkipZeroInputs` over dense in
    /// the functional executor (below 1.0 when detects outweigh skips).
    #[must_use]
    pub fn cycle_speedup(&self) -> f64 {
        self.dense_compute_cycles as f64 / self.input_compute_cycles as f64
    }

    /// Net timing-model MAC-phase speedup of `SkipZeroInputs`, detect
    /// overhead included.
    #[must_use]
    pub fn mac_speedup(&self) -> f64 {
        self.timing_mac_cycles_dense as f64 / self.timing_mac_cycles_input as f64
    }

    /// Net timing-model MAC-phase speedup of `SkipBoth`.
    #[must_use]
    pub fn mac_speedup_both(&self) -> f64 {
        self.timing_mac_cycles_dense as f64 / self.timing_mac_cycles_both as f64
    }

    /// The acceptance gate: bit identity, exact predicted-vs-executed
    /// agreement, one detect per scheduled round, and the workload's
    /// break-even expectation (net speedup for ReLU-sparse activations,
    /// visible overhead for dense ones).
    #[must_use]
    pub fn verified(&self) -> bool {
        let exact = (self.executed_input_skip_fraction - self.predicted_input_skip_fraction).abs()
            <= SparsityComparison::SKIP_FRACTION_TOLERANCE;
        let detect_per_round = self.detect_cycles == self.mul_rounds;
        let expectation = match self.expectation {
            ActivationExpectation::NetSpeedup => {
                self.mac_speedup() > 1.0 && self.mac_speedup_both() >= self.mac_speedup() - 1e-12
            }
            ActivationExpectation::Overhead => {
                self.timing_mac_cycles_input > self.timing_mac_cycles_dense
            }
        };
        self.bit_identical && exact && detect_per_round && expectation
    }
}

fn activation_workloads() -> Vec<(String, ActivationExpectation, Model, QTensor)> {
    // ReLU-sparse single conv: 70% exact zeros, low-magnitude survivors —
    // the regime the tag-latch detect exists for.
    let conv = relu_sparse_conv_model(2018);
    let sparse_in = relu_sparse_input(conv.input_shape, 0.7, 2, 7);
    // The same conv fed fully dense activations: the break-even's far side
    // (VALID padding, so no padding zeros rescue it).
    let dense_in = relu_sparse_input(conv.input_shape, 0.0, 8, 7);
    // Multi-layer: mini-Inception consuming a ReLU-sparse input; interior
    // activations re-densify, so this measures the whole-network blend.
    let mini = relu_sparse_mini(2018);
    let mini_in = relu_sparse_input(mini.input_shape, 0.6, 3, 8);
    vec![
        (
            "relu_sparse_conv".to_owned(),
            ActivationExpectation::NetSpeedup,
            conv.clone(),
            sparse_in,
        ),
        (
            "dense_acts_break_even".to_owned(),
            ActivationExpectation::Overhead,
            conv,
            dense_in,
        ),
        (
            "relu_sparse_mini".to_owned(),
            ActivationExpectation::NetSpeedup,
            mini,
            mini_in,
        ),
    ]
}

/// Timing-model MAC cycles of `model` under `mode`, priced for the
/// measured activation `profile` of one input.
fn timing_mac_cycles_profiled(
    model: &Model,
    mode: SparsityMode,
    profile: &neural_cache::ActivationProfile,
) -> u64 {
    let config = SystemConfig::with_sparsity(mode);
    let report = time_inference_with_profile(&config, model, profile);
    report.layers.iter().map(|l| l.mac_cycles).sum()
}

/// Runs the dynamic-sparsity workloads densely and under both input-skip
/// modes (best of `reps` wall times), verifying bit identity, the
/// per-round detect charge, and the `activation_profile` prediction
/// against the executed counters.
#[must_use]
pub fn compare_activation_sparsity(reps: usize) -> Vec<ActivationComparison> {
    activation_workloads()
        .into_iter()
        .map(|(name, expectation, model, input)| {
            let (dense, dense_ms) = time_sparsity_runs(&model, &input, SparsityMode::Dense, reps);
            let (inputs, input_ms) =
                time_sparsity_runs(&model, &input, SparsityMode::SkipZeroInputs, reps);
            let (both, _) = time_sparsity_runs(&model, &input, SparsityMode::SkipBoth, reps);
            let profile =
                activation_profile(&model, &input).expect("weighted model of the input shape");
            let (dense_mac, _) = timing_mac_cycles(&model, SparsityMode::Dense);
            ActivationComparison {
                name,
                expectation,
                dense_ms,
                input_ms,
                dense_compute_cycles: dense.cycles.compute_cycles,
                input_compute_cycles: inputs.cycles.compute_cycles,
                both_compute_cycles: both.cycles.compute_cycles,
                detect_cycles: inputs.cycles.detect_cycles,
                mul_rounds: inputs.cycles.mul_rounds,
                input_rounds_skipped: inputs.cycles.input_rounds_skipped,
                executed_input_skip_fraction: inputs.cycles.input_skip_fraction(),
                predicted_input_skip_fraction: profile.input_skip(),
                timing_mac_cycles_dense: dense_mac,
                timing_mac_cycles_input: timing_mac_cycles_profiled(
                    &model,
                    SparsityMode::SkipZeroInputs,
                    &profile,
                ),
                timing_mac_cycles_both: timing_mac_cycles_profiled(
                    &model,
                    SparsityMode::SkipBoth,
                    &profile,
                ),
                bit_identical: dense.output.data() == inputs.output.data()
                    && dense.sublayers == inputs.sublayers
                    && dense.output.data() == both.output.data()
                    && dense.sublayers == both.sublayers,
            }
        })
        .collect()
}

/// Bit-budget advisor comparison of one weighted workload: the value-range
/// certificate's trimmed operand widths, the bit-exactness gate (the
/// reference executor re-run with every budget masked to the advised
/// widths must reproduce the untrimmed run exactly), and the MAC/reduce
/// cycle savings the trims buy under the derived cost model.
#[derive(Debug, Clone)]
pub struct AdvisorComparison {
    /// Workload name.
    pub name: String,
    /// Convolution sub-layers certified.
    pub convs: usize,
    /// Sub-layers whose advised budget trims at least one bit.
    pub trimmed_convs: usize,
    /// Total operand bits trimmed across all sub-layers.
    pub trimmed_bits: u64,
    /// Budget-governed cycles of the default allocation: the lane
    /// accumulate, multiply, and in-array reduction cycles the operand
    /// widths control (the pool the savings come out of).
    pub governed_cycles: u64,
    /// Cycles the advised trims save out of `governed_cycles`.
    pub saved_cycles: u64,
    /// Whether every advised budget passed the static soundness checks
    /// (no V021/V026/V027 against the advised widths).
    pub certified_sound: bool,
    /// Whether the trimmed run reproduced the untrimmed outputs, records
    /// and requant decisions byte-for-byte.
    pub bit_identical: bool,
}

impl AdvisorComparison {
    /// Fraction of the budget-governed MAC/reduce cycles the trims save.
    #[must_use]
    pub fn cycle_reduction(&self) -> f64 {
        if self.governed_cycles == 0 {
            0.0
        } else {
            self.saved_cycles as f64 / self.governed_cycles as f64
        }
    }

    /// The acceptance gate: a clean static certificate and an exactly
    /// bit-identical trimmed run (`saved_cycles` is unsigned, so the cycle
    /// delta is non-negative by construction).
    #[must_use]
    pub fn verified(&self) -> bool {
        self.certified_sound && self.bit_identical
    }
}

fn advisor_workloads() -> Vec<(String, Model, QTensor)> {
    let tiny = tiny_cnn(2018);
    let tiny_input = random_input(tiny.input_shape, tiny.input_quant, 9);
    let pruned = pruned_inception(2018);
    let pruned_input = random_input(pruned.input_shape, pruned.input_quant, 7);
    let mini = relu_sparse_mini(2018);
    let mini_input = random_input(mini.input_shape, mini.input_quant, 8);
    vec![
        ("tiny_cnn".to_owned(), tiny, tiny_input),
        ("pruned_inception".to_owned(), pruned, pruned_input),
        ("relu_sparse_mini".to_owned(), mini, mini_input),
    ]
}

/// Runs the value-range pass, derives the advised budgets, replays the
/// reference executor with every operand masked to the advised widths, and
/// verifies bit-exactness plus the static soundness certificate.
#[must_use]
pub fn compare_advisor() -> Vec<AdvisorComparison> {
    use nc_dnn::reference::{run_model, run_model_trimmed, AccTrim};
    use nc_verify::range;
    use neural_cache::mapping::{plan_model, BitBudget};
    use neural_cache::timing::advised_trim_savings;
    use neural_cache::UnitPlan;
    use std::collections::HashMap;

    let geometry = SystemConfig::xeon_e5_2697_v3().geometry;
    advisor_workloads()
        .into_iter()
        .map(|(name, model, input)| {
            let ranges = range::model_ranges(&model);
            let plans = plan_model(&model, &geometry);
            let mappings: HashMap<&str, &neural_cache::mapping::ConvMapping> = plans
                .iter()
                .flat_map(|p| &p.units)
                .filter_map(|u| match u {
                    UnitPlan::Conv(c) => Some((c.name.as_str(), c)),
                    UnitPlan::Pool(_) => None,
                })
                .collect();

            let mut certified_sound = true;
            let mut trims: HashMap<String, AccTrim> = HashMap::new();
            let mut trimmed_bits = 0u64;
            let mut trimmed_convs = 0usize;
            let mut governed_cycles = 0u64;
            let mut saved_cycles = 0u64;
            let zero_budget = |n: &str| BitBudget {
                name: n.to_owned(),
                mult_bits: 0,
                partial_bits: 0,
                reduce_bits: 0,
            };
            for r in &ranges.convs {
                let advised = r.advise();
                certified_sound &= range::check_widths(&r.name, r, &advised).is_empty();
                trimmed_bits += advised.trimmed_bits();
                trimmed_convs += usize::from(!advised.is_default());
                let mapping = mappings
                    .get(r.name.as_str())
                    .unwrap_or_else(|| panic!("{}: no conv plan", r.name));
                governed_cycles += advised_trim_savings(mapping, &zero_budget(&r.name));
                saved_cycles += advised_trim_savings(mapping, &advised);
                trims.insert(
                    r.name.clone(),
                    AccTrim {
                        chunk: r.lane_taps,
                        partial_bits: advised.partial_bits,
                        reduce_bits: advised.reduce_bits,
                        mult_bits: advised.mult_bits,
                    },
                );
            }

            let baseline = run_model(&model, &input);
            let trimmed = run_model_trimmed(&model, &input, &|n| trims.get(n).copied());
            AdvisorComparison {
                name,
                convs: ranges.convs.len(),
                trimmed_convs,
                trimmed_bits,
                governed_cycles,
                saved_cycles,
                certified_sound,
                bit_identical: baseline == trimmed,
            }
        })
        .collect()
}

/// Renders the comparisons as the `BENCH_functional.json` document CI
/// uploads as a workflow artifact.
#[must_use]
pub fn render_json(comparisons: &[EngineComparison], threads: usize) -> String {
    render_json_full(comparisons, &[], threads)
}

/// [`render_json`] with the dense-vs-pruned sparsity section included.
#[must_use]
pub fn render_json_full(
    comparisons: &[EngineComparison],
    sparsity: &[SparsityComparison],
    threads: usize,
) -> String {
    render_json_all(comparisons, sparsity, &[], &[], None, None, threads)
}

/// The full `BENCH_functional.json` document: engine comparisons, the
/// weight-sparsity section, the activation-sparsity section, the
/// bit-budget advisor section, and (when given) the `nc-serve` serving
/// section and the telemetry reconciliation/utilization section.
#[must_use]
pub fn render_json_all(
    comparisons: &[EngineComparison],
    sparsity: &[SparsityComparison],
    activation: &[ActivationComparison],
    advisor: &[AdvisorComparison],
    serving: Option<&crate::serving::ServingBench>,
    telemetry: Option<&crate::telemetry::TelemetryReport>,
    threads: usize,
) -> String {
    let host = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"benchmark\": \"BENCH_functional\",");
    let _ = writeln!(out, "  \"threads\": {threads},");
    let _ = writeln!(out, "  \"host_parallelism\": {host},");
    out.push_str("  \"workloads\": [\n");
    for (i, c) in comparisons.iter().enumerate() {
        let _ = writeln!(out, "    {{");
        let _ = writeln!(out, "      \"name\": \"{}\",", c.name);
        let _ = writeln!(out, "      \"sequential_ms\": {:.3},", c.sequential_ms);
        let _ = writeln!(out, "      \"threaded_ms\": {:.3},", c.threaded_ms);
        let _ = writeln!(out, "      \"speedup\": {:.3},", c.speedup);
        let _ = writeln!(out, "      \"bit_identical\": {},", c.bit_identical);
        let _ = writeln!(out, "      \"cycles_identical\": {},", c.cycles_identical);
        let _ = writeln!(out, "      \"compute_cycles\": {}", c.compute_cycles);
        let comma = if i + 1 < comparisons.len() { "," } else { "" };
        let _ = writeln!(out, "    }}{comma}");
    }
    if sparsity.is_empty()
        && activation.is_empty()
        && advisor.is_empty()
        && serving.is_none()
        && telemetry.is_none()
    {
        out.push_str("  ]\n}\n");
        return out;
    }
    out.push_str("  ],\n  \"sparsity\": [\n");
    for (i, s) in sparsity.iter().enumerate() {
        let _ = writeln!(out, "    {{");
        let _ = writeln!(out, "      \"name\": \"{}\",", s.name);
        let _ = writeln!(out, "      \"dense_ms\": {:.3},", s.dense_ms);
        let _ = writeln!(out, "      \"sparse_ms\": {:.3},", s.sparse_ms);
        let _ = writeln!(
            out,
            "      \"dense_compute_cycles\": {},",
            s.dense_compute_cycles
        );
        let _ = writeln!(
            out,
            "      \"sparse_compute_cycles\": {},",
            s.sparse_compute_cycles
        );
        let _ = writeln!(out, "      \"cycle_speedup\": {:.3},", s.cycle_speedup());
        let _ = writeln!(
            out,
            "      \"timing_mac_cycles_dense\": {},",
            s.timing_mac_cycles_dense
        );
        let _ = writeln!(
            out,
            "      \"timing_mac_cycles_sparse\": {},",
            s.timing_mac_cycles_sparse
        );
        let _ = writeln!(
            out,
            "      \"timing_mac_cycles_lockstep\": {},",
            s.timing_mac_cycles_lockstep
        );
        let _ = writeln!(out, "      \"mac_speedup\": {:.3},", s.mac_speedup());
        let _ = writeln!(
            out,
            "      \"lockstep_spread\": {:.4},",
            s.lockstep_spread()
        );
        let _ = writeln!(out, "      \"mul_rounds\": {},", s.mul_rounds);
        let _ = writeln!(out, "      \"skipped_rounds\": {},", s.skipped_rounds);
        let _ = writeln!(
            out,
            "      \"executed_skip_fraction\": {:.6},",
            s.executed_skip_fraction
        );
        let _ = writeln!(
            out,
            "      \"predicted_skip_fraction\": {:.6},",
            s.predicted_skip_fraction
        );
        let _ = writeln!(out, "      \"bit_identical\": {}", s.bit_identical);
        let comma = if i + 1 < sparsity.len() { "," } else { "" };
        let _ = writeln!(out, "    }}{comma}");
    }
    out.push_str("  ]");
    if !activation.is_empty() {
        out.push_str(",\n  \"activation_sparsity\": [\n");
        for (i, a) in activation.iter().enumerate() {
            let _ = writeln!(out, "    {{");
            let _ = writeln!(out, "      \"name\": \"{}\",", a.name);
            let _ = writeln!(
                out,
                "      \"expectation\": \"{}\",",
                match a.expectation {
                    ActivationExpectation::NetSpeedup => "net-speedup",
                    ActivationExpectation::Overhead => "overhead",
                }
            );
            let _ = writeln!(out, "      \"dense_ms\": {:.3},", a.dense_ms);
            let _ = writeln!(out, "      \"input_ms\": {:.3},", a.input_ms);
            let _ = writeln!(
                out,
                "      \"dense_compute_cycles\": {},",
                a.dense_compute_cycles
            );
            let _ = writeln!(
                out,
                "      \"input_compute_cycles\": {},",
                a.input_compute_cycles
            );
            let _ = writeln!(
                out,
                "      \"both_compute_cycles\": {},",
                a.both_compute_cycles
            );
            let _ = writeln!(out, "      \"cycle_speedup\": {:.3},", a.cycle_speedup());
            let _ = writeln!(out, "      \"detect_cycles\": {},", a.detect_cycles);
            let _ = writeln!(out, "      \"mul_rounds\": {},", a.mul_rounds);
            let _ = writeln!(
                out,
                "      \"input_rounds_skipped\": {},",
                a.input_rounds_skipped
            );
            let _ = writeln!(
                out,
                "      \"executed_input_skip_fraction\": {:.6},",
                a.executed_input_skip_fraction
            );
            let _ = writeln!(
                out,
                "      \"predicted_input_skip_fraction\": {:.6},",
                a.predicted_input_skip_fraction
            );
            let _ = writeln!(
                out,
                "      \"timing_mac_cycles_dense\": {},",
                a.timing_mac_cycles_dense
            );
            let _ = writeln!(
                out,
                "      \"timing_mac_cycles_input\": {},",
                a.timing_mac_cycles_input
            );
            let _ = writeln!(
                out,
                "      \"timing_mac_cycles_both\": {},",
                a.timing_mac_cycles_both
            );
            let _ = writeln!(out, "      \"net_mac_speedup\": {:.3},", a.mac_speedup());
            let _ = writeln!(
                out,
                "      \"net_mac_speedup_both\": {:.3},",
                a.mac_speedup_both()
            );
            let _ = writeln!(out, "      \"bit_identical\": {}", a.bit_identical);
            let comma = if i + 1 < activation.len() { "," } else { "" };
            let _ = writeln!(out, "    }}{comma}");
        }
        out.push_str("  ]");
    }
    if !advisor.is_empty() {
        out.push_str(",\n  \"advisor\": [\n");
        for (i, a) in advisor.iter().enumerate() {
            let _ = writeln!(out, "    {{");
            let _ = writeln!(out, "      \"name\": \"{}\",", a.name);
            let _ = writeln!(out, "      \"convs\": {},", a.convs);
            let _ = writeln!(out, "      \"trimmed_convs\": {},", a.trimmed_convs);
            let _ = writeln!(out, "      \"trimmed_bits\": {},", a.trimmed_bits);
            let _ = writeln!(out, "      \"governed_cycles\": {},", a.governed_cycles);
            let _ = writeln!(out, "      \"saved_cycles\": {},", a.saved_cycles);
            let _ = writeln!(
                out,
                "      \"cycle_reduction\": {:.4},",
                a.cycle_reduction()
            );
            let _ = writeln!(out, "      \"certified_sound\": {},", a.certified_sound);
            let _ = writeln!(out, "      \"bit_identical\": {}", a.bit_identical);
            let comma = if i + 1 < advisor.len() { "," } else { "" };
            let _ = writeln!(out, "    }}{comma}");
        }
        out.push_str("  ]");
    }
    if let Some(bench) = serving {
        out.push_str(",\n");
        out.push_str(&crate::serving::render_json_section(bench));
    }
    if let Some(report) = telemetry {
        out.push_str(",\n");
        out.push_str(&crate::telemetry::render_json_section(report));
    }
    out.push_str("\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comparisons_verify_and_render() {
        let comps = compare_engines(2, 1);
        assert_eq!(comps.len(), 3);
        for c in &comps {
            assert!(c.verified(), "{} failed verification", c.name);
            assert!(c.sequential_ms > 0.0 && c.threaded_ms > 0.0);
            assert!(c.compute_cycles > 10_000, "{} did too little work", c.name);
        }
        let json = render_json(&comps, 2);
        assert!(json.contains("\"benchmark\": \"BENCH_functional\""));
        assert!(json.contains("\"inception_v3_proxy_mini\""));
        assert!(json.contains("\"bit_identical\": true"));
        assert!(json.ends_with("}\n"));
        // Exactly one trailing element without a comma.
        assert_eq!(json.matches("},").count(), 2);
    }

    #[test]
    fn sparsity_comparisons_verify_and_render() {
        let comps = compare_sparsity(1);
        assert_eq!(comps.len(), 2);
        for s in &comps {
            assert!(s.verified(), "{} failed verification", s.name);
            assert!(s.bit_identical, "{} diverged from dense", s.name);
            assert!(s.skipped_rounds > 0, "{} elided nothing", s.name);
            assert!(
                s.cycle_speedup() > 1.2,
                "{}: compute-cycle speedup {:.2}",
                s.name,
                s.cycle_speedup()
            );
            assert!(
                s.mac_speedup() >= 1.3,
                "{}: simulated MAC speedup {:.2} below the pruned target",
                s.name,
                s.mac_speedup()
            );
        }
        for s in &comps {
            assert!(
                (s.executed_skip_fraction - s.predicted_skip_fraction).abs() < 1e-12,
                "{}: predicted-vs-executed must agree exactly (round-weighted analysis)",
                s.name
            );
        }

        let engines = compare_engines(2, 1);
        let json = render_json_full(&engines, &comps, 2);
        assert!(json.contains("\"sparsity\": ["));
        assert!(json.contains("\"pruned_inception\""));
        assert!(json.contains("\"executed_skip_fraction\""));
        assert!(json.contains("\"timing_mac_cycles_dense\""));
        assert!(json.ends_with("}\n"));
        // The sparsity-free rendering stays backward compatible.
        assert!(!render_json(&engines, 2).contains("\"sparsity\""));
    }

    #[test]
    fn activation_comparisons_verify_and_render() {
        let comps = compare_activation_sparsity(1);
        assert_eq!(comps.len(), 3);
        for a in &comps {
            assert!(a.verified(), "{} failed verification", a.name);
            assert!(a.bit_identical, "{} diverged from dense", a.name);
            assert_eq!(a.detect_cycles, a.mul_rounds, "{}", a.name);
        }
        let sparse = comps
            .iter()
            .find(|a| a.name == "relu_sparse_conv")
            .expect("relu workload present");
        assert!(
            sparse.mac_speedup() > 1.3,
            "ReLU-sparse net MAC speedup {:.2} after detect overhead",
            sparse.mac_speedup()
        );
        assert!(sparse.input_rounds_skipped > 0);
        assert!(sparse.cycle_speedup() > 1.0);
        let dense = comps
            .iter()
            .find(|a| a.name == "dense_acts_break_even")
            .expect("break-even workload present");
        assert!(
            dense.mac_speedup() < 1.0,
            "dense activations must show the detect overhead: {:.3}",
            dense.mac_speedup()
        );
        assert!(
            dense.executed_input_skip_fraction < 0.05,
            "dense activations barely skip"
        );

        let engines = compare_engines(2, 1);
        let json = render_json_all(&engines, &[], &comps, &[], None, None, 2);
        assert!(json.contains("\"activation_sparsity\": ["));
        assert!(json.contains("\"relu_sparse_conv\""));
        assert!(json.contains("\"dense_acts_break_even\""));
        assert!(json.contains("\"net_mac_speedup\""));
        assert!(json.contains("\"expectation\": \"overhead\""));
        assert!(json.ends_with("}\n"));
        // Backward-compatible renderings omit the section.
        assert!(!render_json_full(&engines, &[], 2).contains("activation_sparsity"));
    }

    #[test]
    fn advisor_comparisons_verify_and_render() {
        let comps = compare_advisor();
        assert_eq!(comps.len(), 3);
        for a in &comps {
            assert!(
                a.certified_sound,
                "{}: advised budget not certified",
                a.name
            );
            assert!(a.bit_identical, "{}: trimmed run diverged", a.name);
            assert!(a.verified(), "{} failed verification", a.name);
            assert!(a.convs > 0);
        }
        // The proven bounds must trim at least one shipped workload, and
        // every trim must translate into a cycle saving.
        assert!(
            comps.iter().any(|a| a.saved_cycles > 0),
            "no workload saved any cycles"
        );
        for a in &comps {
            assert_eq!(
                a.saved_cycles > 0,
                a.trimmed_bits > 0,
                "{}: trims and savings must agree",
                a.name
            );
            assert!(a.saved_cycles <= a.governed_cycles, "{}", a.name);
        }

        let engines = compare_engines(2, 1);
        let json = render_json_all(&engines, &[], &[], &comps, None, None, 2);
        assert!(json.contains("\"advisor\": ["));
        assert!(json.contains("\"trimmed_bits\""));
        assert!(json.contains("\"cycle_reduction\""));
        assert!(json.contains("\"certified_sound\": true"));
        assert!(json.ends_with("}\n"));
        // Advisor-free renderings omit the section.
        assert!(!render_json_full(&engines, &[], 2).contains("\"advisor\""));
    }
}
