//! The bit-accurate functional executor: runs quantized inference on real
//! simulated [`ComputeArray`]s using the bit-serial operations of
//! Sections III and IV-D, and must match the [`nc_dnn::reference`] golden
//! executor **bit for bit** (the paper's trace-matching validation,
//! Section V).
//!
//! ## Staging
//!
//! One layer executes as three in-cache passes, each of which fits the
//! 256-row budget of an 8KB array:
//!
//! 1. **MAC + reduce** — filters/inputs stream tap-by-tap into 8-row byte
//!    regions, on the lanes `mapping::LaneBytes` places them (one MAC
//!    pass per [`crate::mapping::LaneGeometry::runs`] filter run; the
//!    executor holds no lane arithmetic of its own); bit-serial
//!    multiply accumulates the per-lane partial sum
//!    (`S1`) and the zero-point-correction running sum (`S2`); the grouped
//!    in-array reduction tree (and, for filters spanning two arrays, an
//!    inter-array transfer + add) collapses channels.
//! 2. **Accumulator assembly** — `ACC = S1 - zp_w*S2 + C0(m)` via scalar
//!    multiply and region subtract/add over 40-bit two's-complement
//!    operands, then the MSB-masked `ReLU`.
//! 3. **Requantization** — subtract the layer minimum, scalar-multiply by
//!    the CPU-provided multiplier, shift by row re-addressing, saturate.
//!
//! Between passes the executor re-stages values into fresh arrays (in
//! hardware they stay put and the quantization temporaries overlay the
//! spent MAC regions); the arithmetic performed is identical, and every
//! step is a genuine `nc-sram` micro-op sequence.
//!
//! Every operand enters and leaves an array through the zero-cost bulk
//! calls of [`ComputeArray`] (`poke_lanes`, `poke_slices`, `peek_lanes`
//! and their signed twins), which move whole 64-lane words of each
//! bit-slice row through one host-side transpose, as the transpose memory
//! unit of Section III-F delivers them; the data-movement model, not the
//! loader, prices the transfer. Pass 1 transposes each filter run's bytes
//! into [`BitSlices`] once per sub-layer (they are stationary across
//! windows) and each window's bytes once per window, then copies the
//! window's slices to the lanes of every filter in a run with
//! [`BitSlices::repeat`].
//!
//! ## Sharding
//!
//! The hardware runs thousands of arrays in lockstep; the simulator mirrors
//! that shape. Each pass is one epoch of the job plan ([`crate::jobs`]):
//! independent **array-shard jobs** (one per output window in pass 1+2,
//! one per 256-lane array run in pass 3 and the pooling/ranging helpers)
//! whose count, slots and op-span name the epoch gives, dispatched through
//! an [`ExecutionEngine`] — [`Sequential`](ExecutionEngine::Sequential) or
//! [`Threaded`](ExecutionEngine::Threaded). Jobs draw recycled arrays from
//! a shared [`ArrayPool`], exactly as many as the epoch declares
//! ([`FunctionalError::PlanDrift`] otherwise), and report their own
//! [`CycleStats`]; shard results are folded in job order, so both backends
//! produce bit-identical outputs *and* identical cycle counts. The only
//! synchronization point is the explicit inter-array reduce barrier before
//! dynamic ranging (Section IV-D), which needs every shard's accumulators.
//!
//! ## Sequencing
//!
//! The executor implements only the leaf passes (convolution, own-range
//! requantization, pooling, and the block-wide join of a mixed block) as an
//! [`nc_dnn::walk::Passes`]; [`nc_dnn::walk::walk_layer`] decides their
//! order. Each leaf builds its epochs with the constructors that
//! [`crate::jobs::job_plan`] calls over the same walk, so the `nc-verify`
//! shard graph expanded from that plan is the executor's dispatches.

use std::error::Error;
use std::fmt;
use std::ops::Range;

use nc_dnn::quant::{branch_requantizer, conv_requant_plan, shared_out_quant, CodeRequant};
use nc_dnn::reference::SublayerRecord;
use nc_dnn::walk::{walk_layer, Passes, Pending};
use nc_dnn::{
    pad_before, ActQuant, Conv2d, MixedBlock, Model, Pool2d, PoolKind, QTensor, Requantizer, Shape,
};
use nc_sram::{
    ArrayPool, ArrayTimings, BitSlices, ComputeArray, CycleStats, Operand, SramError, COLS,
};
use nc_telemetry::{Level, Telemetry, TrackId, Value};

use crate::engine::{ExecutionEngine, ShardObserver};
use crate::jobs::{self, Epoch};
use crate::layout::{self, ZERO_ROW};
use crate::mapping::{conv_lane_geometry, LaneBytes, LaneGeometry};
use crate::sparsity::SparsityMode;

/// Result of a functional (bit-accurate) model execution.
#[derive(Debug, Clone, PartialEq)]
pub struct FunctionalResult {
    /// Final output tensor.
    pub output: QTensor,
    /// Requantization records of every convolution sub-layer, comparable
    /// with the reference executor's records.
    pub sublayers: Vec<SublayerRecord>,
    /// Total array cycles consumed by the in-cache operations.
    pub cycles: CycleStats,
    /// [`ArrayPool`] checkout totals of the run (deterministic across
    /// engines and sparsity modes; see [`PoolEvents`]).
    pub pool: PoolEvents,
}

/// The deterministic [`ArrayPool`] event totals of one execution: how many
/// arrays the shard jobs checked out and returned. Both counts depend only
/// on the model's work decomposition — never on thread scheduling or
/// sparsity mode — which is exactly why the `nc-verify` shard-graph
/// reconciliation can pin them statically. The scheduling-dependent
/// fresh/recycled split stays in [`nc_sram::PoolStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolEvents {
    /// Total pool checkouts across every shard job of the run.
    pub acquires: u64,
    /// Total handles returned; a completed run always matches `acquires`
    /// (shard jobs own their arrays for exactly the job's lifetime).
    pub releases: u64,
}

/// Errors of the functional executor.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum FunctionalError {
    /// A convolution sub-layer has no weights (shape-only model).
    MissingWeights {
        /// Offending sub-layer.
        name: String,
    },
    /// The input tensor's shape is not the model's input shape.
    InputShape {
        /// The model's input shape.
        expected: Shape,
        /// The shape of the tensor passed in.
        actual: Shape,
    },
    /// An underlying SRAM operation was rejected.
    Sram(SramError),
    /// An epoch's jobs checked out a different number of arrays than the
    /// job plan declares for it.
    PlanDrift {
        /// Label of the epoch.
        epoch: String,
        /// Checkouts the plan declares.
        planned: u64,
        /// Checkouts the jobs made.
        executed: u64,
    },
}

impl fmt::Display for FunctionalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FunctionalError::MissingWeights { name } => {
                write!(
                    f,
                    "sub-layer {name} has no weights; build the model with weights"
                )
            }
            FunctionalError::InputShape { expected, actual } => {
                write!(
                    f,
                    "input shape {actual} does not match the model input {expected}"
                )
            }
            FunctionalError::Sram(e) => write!(f, "sram operation failed: {e}"),
            FunctionalError::PlanDrift {
                epoch,
                planned,
                executed,
            } => write!(
                f,
                "epoch {epoch} checked out {executed} arrays; the job plan declares {planned}"
            ),
        }
    }
}

impl Error for FunctionalError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            FunctionalError::Sram(e) => Some(e),
            FunctionalError::MissingWeights { .. }
            | FunctionalError::InputShape { .. }
            | FunctionalError::PlanDrift { .. } => None,
        }
    }
}

impl From<SramError> for FunctionalError {
    fn from(e: SramError) -> Self {
        FunctionalError::Sram(e)
    }
}

type Result<T> = std::result::Result<T, FunctionalError>;

/// Runs the whole model bit-accurately on simulated compute arrays, using
/// the sequential reference backend.
///
/// # Errors
///
/// Fails if the input shape is not the model's input shape or any
/// convolution sub-layer lacks weights.
pub fn run_model(model: &Model, input: &QTensor) -> Result<FunctionalResult> {
    run_model_with(model, input, ExecutionEngine::Sequential)
}

/// Runs the whole model bit-accurately on simulated compute arrays with an
/// explicit execution engine (dense sparsity mode). Outputs, sub-layer
/// records and cycle counts are identical across engines.
///
/// # Errors
///
/// Fails if the input shape is not the model's input shape or any
/// convolution sub-layer lacks weights.
pub fn run_model_with(
    model: &Model,
    input: &QTensor,
    engine: ExecutionEngine,
) -> Result<FunctionalResult> {
    run_model_configured(model, input, engine, SparsityMode::Dense)
}

/// Runs the whole model bit-accurately with an explicit execution engine
/// **and** sparsity mode. [`SparsityMode::SkipZeroRows`] elides
/// all-lanes-zero weight-bit rounds in the MACs;
/// [`SparsityMode::SkipZeroInputs`] makes the streamed input byte the
/// multiplier and elides all-lanes-zero input-bit rounds behind a 1-cycle
/// wired-NOR detect per round; [`SparsityMode::SkipBoth`] adds static
/// weight-side multiplicand truncation on top. Outputs and sub-layer
/// records are **bit-identical** to dense under every mode (the
/// proptest/bench gates enforce it, like the engine-equivalence gate),
/// while [`CycleStats::skipped_rounds`] /
/// [`CycleStats::input_rounds_skipped`] / [`CycleStats::detect_cycles`] /
/// [`CycleStats::skipped_cycles`] report the elided work and its overhead.
///
/// # Errors
///
/// Fails if the input shape is not the model's input shape or any
/// convolution sub-layer lacks weights.
pub fn run_model_configured(
    model: &Model,
    input: &QTensor,
    engine: ExecutionEngine,
    mode: SparsityMode,
) -> Result<FunctionalResult> {
    run_model_traced(model, input, engine, mode, &Telemetry::disabled())
}

/// [`run_model_configured`] with a [`Telemetry`] sink attached. The run is
/// observably identical to an untraced one (same outputs, records, cycles,
/// pool events under every engine and sparsity mode); the sink additionally
/// receives:
///
/// - one `functional.layer` span per top-level layer on the **simulated**
///   time axis (cycles converted at [`ArrayTimings::default`]'s compute
///   clock), carrying that layer's [`CycleStats`] delta as integer span
///   arguments — summing any argument over the category reproduces the
///   returned [`FunctionalResult::cycles`] field **exactly**;
/// - at [`Level::Detail`], one `functional.op` span per in-cache pass
///   (MAC+reduce, ranging, requantize, code-requant, pooling), likewise
///   carrying exact [`CycleStats`] deltas that partition the run's totals;
/// - `functional.pool.acquires` / `functional.pool.releases` counters
///   matching [`FunctionalResult::pool`];
/// - on a parallel engine, wall-clock shard observation: the
///   `engine.shard_seconds` histogram, per-worker `engine.worker.N.busy_s`
///   gauges / `engine.worker.N.shards` counters, and `engine.wall_s` /
///   `engine.workers` / `engine.utilization` gauges for
///   utilization-imbalance reporting (host time, never reconciled against
///   simulated time).
///
/// A disabled sink records nothing and costs one branch per call site, so
/// this is also the implementation behind the untraced entry points.
///
/// # Errors
///
/// Fails if the input shape is not the model's input shape or any
/// convolution sub-layer lacks weights, and with
/// [`FunctionalError::PlanDrift`] if an epoch's checkouts leave the job plan.
pub fn run_model_traced(
    model: &Model,
    input: &QTensor,
    engine: ExecutionEngine,
    mode: SparsityMode,
    tel: &Telemetry,
) -> Result<FunctionalResult> {
    if input.shape() != model.input_shape {
        return Err(FunctionalError::InputShape {
            expected: model.input_shape,
            actual: input.shape(),
        });
    }
    let mut exec = Exec::new(engine, mode, tel.clone())?;
    let timings = ArrayTimings::default();
    let mut cur = input.clone();
    for layer in &model.layers {
        let before = exec.cycles;
        cur = walk_layer(&mut exec, layer, &cur)?;
        if tel.at(Level::Spans) {
            let start_s = before.seconds(&timings);
            let dur_s = exec.cycles.seconds(&timings) - start_s;
            tel.span(
                exec.layer_track,
                "functional.layer",
                layer.name(),
                start_s,
                dur_s,
                cycle_args(exec.cycles - before),
            );
        }
    }
    let stats = exec.pool.stats();
    debug_assert_eq!(
        stats.acquires, stats.releases,
        "every shard job must return its arrays before the run completes"
    );
    tel.counter_add("functional.pool.acquires", stats.acquires);
    tel.counter_add("functional.pool.releases", stats.releases);
    exec.report_utilization();
    Ok(FunctionalResult {
        output: cur,
        sublayers: exec.sublayers,
        cycles: exec.cycles,
        pool: PoolEvents {
            acquires: stats.acquires,
            releases: stats.releases,
        },
    })
}

/// A [`CycleStats`] delta rendered as exact integer span arguments, one per
/// public counter field (names match the field names, so reconciliation
/// code reads symmetrically on both sides).
fn cycle_args(delta: CycleStats) -> Vec<(&'static str, Value)> {
    vec![
        ("compute_cycles", Value::U64(delta.compute_cycles)),
        ("access_cycles", Value::U64(delta.access_cycles)),
        ("mul_rounds", Value::U64(delta.mul_rounds)),
        ("skipped_rounds", Value::U64(delta.skipped_rounds)),
        ("skipped_cycles", Value::U64(delta.skipped_cycles)),
        ("detect_cycles", Value::U64(delta.detect_cycles)),
        (
            "input_rounds_skipped",
            Value::U64(delta.input_rounds_skipped),
        ),
    ]
}

struct Exec {
    cycles: CycleStats,
    /// One record per convolution sub-layer, in execution order.
    sublayers: Vec<SublayerRecord>,
    engine: ExecutionEngine,
    mode: SparsityMode,
    /// Shared recycling pool: arrays persist across layers and shard jobs
    /// instead of being reallocated per run (in hardware they are the same
    /// physical SRAM throughout).
    pool: ArrayPool,
    /// Telemetry sink (the free no-op handle on untraced runs).
    tel: Telemetry,
    /// Simulated-time track for `functional.layer` spans.
    layer_track: TrackId,
    /// Simulated-time track for `functional.op` spans.
    op_track: TrackId,
    /// Wall-clock shard observation, only on traced parallel runs.
    observer: Option<ShardObserver>,
}

/// Host-side staging of a sub-layer's in-cache accumulators between passes,
/// with the layer range already computed by the in-cache min/max trees.
struct AccChunk {
    shape: Shape,
    values: Vec<i64>,
    min: i64,
    max: i64,
    /// Real value of one accumulator unit (weight scale × input scale).
    scale: f64,
    /// Index of the sub-layer's record in [`Exec::sublayers`].
    record: usize,
}

impl Exec {
    fn new(engine: ExecutionEngine, mode: SparsityMode, tel: Telemetry) -> Result<Self> {
        // Debug-mode pre-pass: prove every shard-job row layout hazard-free
        // before the first array is touched (`nc-verify` runs the same
        // descriptors statically with structured diagnostics).
        #[cfg(debug_assertions)]
        {
            let hazards = layout::validate_plan();
            assert!(hazards.is_empty(), "executor plan hazards: {hazards:?}");
        }
        let observer = (tel.is_enabled() && engine.is_parallel()).then(ShardObserver::new);
        let layer_track = tel.track("functional", "layers");
        let op_track = tel.track("functional", "ops");
        Ok(Exec {
            cycles: CycleStats::new(),
            sublayers: Vec::new(),
            engine,
            mode,
            pool: ArrayPool::with_zero_row(ZERO_ROW)?,
            tel,
            layer_track,
            op_track,
            observer,
        })
    }

    /// Emits a [`Level::Detail`] `functional.op` span covering the cycles
    /// accumulated since `before` (the in-cache pass that just folded). Op
    /// spans partition the run's cycle totals: [`Exec::dispatch`] emits
    /// exactly one per [`ExecutionEngine`] dispatch it folds, so summing a
    /// cycle argument over the category reproduces the run total exactly.
    fn op_span(&self, name: &str, before: CycleStats) {
        if !self.tel.at(Level::Detail) {
            return;
        }
        let timings = ArrayTimings::default();
        let start_s = before.seconds(&timings);
        let dur_s = self.cycles.seconds(&timings) - start_s;
        self.tel.span(
            self.op_track,
            "functional.op",
            name,
            start_s,
            dur_s,
            cycle_args(self.cycles - before),
        );
    }

    /// Folds wall-clock shard samples into the metrics registry (traced
    /// parallel runs only): per-worker busy seconds and shard counts, the
    /// shard-duration histogram, and run-wide wall/utilization gauges.
    fn report_utilization(&self) {
        let Some(obs) = &self.observer else { return };
        let wall_s = obs.elapsed_s();
        let samples = obs.take_samples();
        let workers = self.engine.threads();
        let mut busy = vec![0.0f64; workers];
        let mut shards = vec![0u64; workers];
        for s in &samples {
            busy[s.worker] += s.dur_s;
            shards[s.worker] += 1;
            self.tel.histogram_record("engine.shard_seconds", s.dur_s);
        }
        self.tel.gauge_set("engine.wall_s", wall_s);
        self.tel.gauge_set("engine.workers", workers as f64);
        let busy_total: f64 = busy.iter().sum();
        let utilization = if wall_s > 0.0 {
            busy_total / (wall_s * workers as f64)
        } else {
            0.0
        };
        self.tel.gauge_set("engine.utilization", utilization);
        for w in 0..workers {
            self.tel
                .gauge_set(&format!("engine.worker.{w}.busy_s"), busy[w]);
            self.tel
                .counter_add(&format!("engine.worker.{w}.shards"), shards[w]);
        }
    }

    /// Runs `epoch` on the engine: one shard job per [`Epoch::jobs`], each
    /// handed its [`Epoch::job_slots`]. Each job returns a value and the
    /// cycles it consumed; both fold in job order, so every engine yields
    /// identical results, and the epoch emits exactly one `functional.op`
    /// span named [`Epoch::op`]. After the join the pool must have seen
    /// exactly the epoch's declared checkouts.
    fn dispatch<T: Send>(
        &mut self,
        epoch: &Epoch,
        job: impl Fn(&ArrayPool, Range<usize>) -> Result<(T, CycleStats)> + Sync,
    ) -> Result<Vec<T>> {
        let before = self.cycles;
        let acquires = self.pool.stats().acquires;
        let pool = &self.pool;
        let shards = self.engine.run_observed(
            epoch.jobs(),
            |i| job(pool, epoch.job_slots(i)),
            self.observer.as_ref(),
        );
        let mut values = Vec::with_capacity(shards.len());
        for shard in shards {
            let (value, cycles) = shard?;
            self.cycles += cycles;
            values.push(value);
        }
        let executed = self.pool.stats().acquires - acquires;
        if executed != epoch.acquires() {
            return Err(FunctionalError::PlanDrift {
                epoch: epoch.label.clone(),
                planned: epoch.acquires(),
                executed,
            });
        }
        self.op_span(epoch.op, before);
        Ok(values)
    }

    // ------------------------------------------------------------------
    // Pass 1: MACs + grouped channel reduction
    // ------------------------------------------------------------------

    /// Computes the (`ReLU`'d, when fused) integer accumulators of one
    /// convolution sub-layer entirely with bit-serial array operations.
    ///
    /// Every output window is an independent shard job (it owns its arrays
    /// for the MAC/reduce and assembly passes); the shards meet only at the
    /// ranging barrier below.
    fn conv_accumulate(&mut self, conv: &Conv2d, input: &QTensor) -> Result<AccChunk> {
        let spec = &conv.spec;
        if conv.weights.is_none() {
            return Err(FunctionalError::MissingWeights {
                name: spec.name.clone(),
            });
        }
        let in_shape = input.shape();
        let out_shape = spec.out_shape(in_shape);
        let zp_a = i64::from(input.params().zero_point);
        let zp_w = u64::from(conv.w_quant.zero_point as u32);
        let n_taps = spec.macs_per_output() as i64;

        // Lane placement (Section IV-A packing/splitting/grouping) — the
        // mapper's, so the skip predictors describe this executor exactly.
        let geom = conv_lane_geometry(spec);

        // Per-filter static data: the placed weight bytes of every filter
        // run, transposed into bit slices once (they are stationary across
        // windows), and the per-channel constant C0.
        let filters = LaneBytes::filters(conv, &geom);
        let filters: Vec<Vec<BitSlices>> = geom
            .runs(spec.m)
            .map(|run| transpose_run(&filters, &geom, &run))
            .collect();
        let c0: Vec<i64> = (0..spec.m)
            .map(|m| {
                -zp_a * conv.filter_code_sum(m) + n_taps * (zp_w as i64) * zp_a + conv.bias_of(m)
            })
            .collect();

        // Passes 1+2, sharded per output window: each job MACs and reduces
        // every filter run against its window, then assembles the
        // accumulators, on arrays drawn from the shared pool.
        let mode = self.mode;
        let [mac, ranging] = jobs::conv_epochs(spec, in_shape);
        let (geom, filters, c0) = (&geom, &filters, &c0);
        let job = |pool: &ArrayPool, slots: Range<usize>| {
            let pos = slots.start / spec.m;
            let (ey, ex) = (pos / out_shape.w, pos % out_shape.w);
            let mut cycles = CycleStats::new();
            let window = LaneBytes::gather_window(input, spec, geom, ey, ex);
            let window = transpose_run(&window, geom, &(0..1));
            let mut vals = vec![0i64; spec.m];
            for (run, filters) in geom.runs(spec.m).zip(filters) {
                let (s1s, s2s) =
                    mac_reduce_run(pool, &mut cycles, geom, filters, &window, &run, mode)?;
                for (f, (s1, s2)) in run.zip(s1s.into_iter().zip(s2s)) {
                    // Pass 2: ACC assembly + fused ReLU, in-cache.
                    vals[f] = assemble_acc(pool, &mut cycles, s1, s2, zp_w, c0[f], spec.relu)?;
                }
            }
            Ok((vals, cycles))
        };
        // MAC job `pos` writes slots `pos * m..(pos + 1) * m`.
        let acc_values = self.dispatch(&mac, job)?.concat();

        // Inter-array reduce barrier — dynamic ranging (Section IV-D) needs
        // every shard's accumulators: per-array min/max trees, combined
        // across arrays and slices by bus+ring transfers (host-combined
        // here, exactly like the paper's per-array results).
        let mut range = nc_sram::ValueStats::new();
        let job = |pool: &ArrayPool, slots: Range<usize>| min_max_chunk(pool, &acc_values[slots]);
        for (lo, hi) in self.dispatch(&ranging, job)? {
            range.observe(lo);
            range.observe(hi);
        }
        let (min, max) = (range.min, range.max);
        debug_assert_eq!(
            (min, max),
            (
                acc_values.iter().copied().min().unwrap_or(0),
                acc_values.iter().copied().max().unwrap_or(0)
            ),
            "in-cache ranging must agree with a host scan"
        );
        Ok(AccChunk {
            shape: out_shape,
            values: acc_values,
            min,
            max,
            scale: conv.w_quant.scale * input.params().scale,
            // The record `Passes::conv` pushes for this sub-layer next.
            record: self.sublayers.len(),
        })
    }

    // ------------------------------------------------------------------
    // Pass 3: requantization
    // ------------------------------------------------------------------

    /// Requantizes a chunk of accumulators in-cache: subtract the layer
    /// minimum, ReLU-clamp, scalar multiply, shift by row re-addressing,
    /// saturate at 255. Each 256-output array run is one shard job.
    fn requant_acc(
        &mut self,
        conv: &Conv2d,
        acc: &AccChunk,
        requant: Requantizer,
        out_quant: ActQuant,
    ) -> Result<QTensor> {
        let epoch = jobs::requant_epoch(&conv.spec, acc.shape);
        let out = self.dispatch(&epoch, |pool, slots| {
            requant_chunk(pool, &acc.values[slots], requant)
        })?;
        Ok(QTensor::from_vec(acc.shape, out_quant, out.concat()))
    }
}

/// The leaf steps of [`walk_layer`]: every convolution pushes its
/// sub-layer record once, with its own-range requantization; a branch final
/// has that record rewritten when its block's shared range is known.
impl<'m> Passes<'m> for Exec {
    type Act = QTensor;
    type Acc = AccChunk;
    type Error = FunctionalError;

    fn conv(&mut self, conv: &'m Conv2d, input: &QTensor) -> Result<AccChunk> {
        let acc = self.conv_accumulate(conv, input)?;
        let (requant, out_quant) = conv_requant_plan(acc.min, acc.max, acc.scale);
        self.sublayers.push(SublayerRecord {
            name: conv.spec.name.clone(),
            acc_min: acc.min,
            acc_max: acc.max,
            requant,
            out_quant,
        });
        Ok(acc)
    }

    fn requantize(&mut self, conv: &'m Conv2d, acc: AccChunk) -> Result<QTensor> {
        let record = &self.sublayers[acc.record];
        let (requant, out_quant) = (record.requant, record.out_quant);
        self.requant_acc(conv, &acc, requant, out_quant)
    }

    /// Pooling (Section IV-D): one output per lane, sharded per 256-lane
    /// array run.
    fn pool(&mut self, pool: &'m Pool2d, input: &QTensor) -> Result<QTensor> {
        let in_shape = input.shape();
        let out_shape = pool.out_shape(in_shape);
        let pad_y = pad_before(in_shape.h, pool.k, pool.stride, pool.padding) as isize;
        let pad_x = pad_before(in_shape.w, pool.k, pool.stride, pool.padding) as isize;

        // Collect each output's valid window elements (one output per lane).
        let mut windows: Vec<Vec<u8>> = Vec::with_capacity(out_shape.len());
        for ey in 0..out_shape.h {
            for ex in 0..out_shape.w {
                for c in 0..out_shape.c {
                    let oy = (ey * pool.stride) as isize - pad_y;
                    let ox = (ex * pool.stride) as isize - pad_x;
                    let mut w = Vec::with_capacity(pool.k * pool.k);
                    for r in 0..pool.k {
                        for s in 0..pool.k {
                            let (y, x) = (oy + r as isize, ox + s as isize);
                            if y >= 0
                                && x >= 0
                                && (y as usize) < in_shape.h
                                && (x as usize) < in_shape.w
                            {
                                w.push(input.get(y as usize, x as usize, c));
                            }
                        }
                    }
                    windows.push(w);
                }
            }
        }

        // All lanes (across every array run) advance through the same
        // number of rounds, in lockstep with the widest window.
        let max_window = windows.iter().map(Vec::len).max().unwrap_or(0);
        let epoch = jobs::pool_epoch(pool, in_shape);
        let out = self.dispatch(&epoch, |arrays, slots| match pool.kind {
            PoolKind::Max => pool_max_chunk(arrays, &windows[slots], max_window),
            PoolKind::Avg => pool_avg_chunk(arrays, &windows[slots], max_window),
        })?;
        Ok(QTensor::from_vec(out_shape, input.params(), out.concat()))
    }

    fn join(
        &mut self,
        _block: &'m MixedBlock,
        pending: Vec<Pending<'m, AccChunk, QTensor>>,
    ) -> Result<QTensor> {
        // Block-wide real range (in hardware: per-array min/max trees plus
        // a bus/ring reduction; the CPU then derives the scalars).
        let mut r_min = f64::INFINITY;
        let mut r_max = f64::NEG_INFINITY;
        for p in &pending {
            let (lo, hi) = match p {
                Pending::Conv(_, acc) => (acc.min as f64 * acc.scale, acc.max as f64 * acc.scale),
                Pending::Pool(_, t) => {
                    let (lo, hi) = t
                        .data()
                        .iter()
                        .fold((u8::MAX, u8::MIN), |(lo, hi), &q| (lo.min(q), hi.max(q)));
                    (t.params().dequantize(lo), t.params().dequantize(hi))
                }
            };
            r_min = r_min.min(lo);
            r_max = r_max.max(hi);
        }
        let out_quant = shared_out_quant(r_min, r_max);

        let mut parts = Vec::with_capacity(pending.len());
        for p in pending {
            parts.push(match p {
                Pending::Conv(conv, acc) => {
                    let requant = branch_requantizer(r_min, r_max, acc.scale);
                    let record = &mut self.sublayers[acc.record];
                    record.requant = requant;
                    record.out_quant = out_quant;
                    self.requant_acc(conv, &acc, requant, out_quant)?
                }
                Pending::Pool(pool, t) => {
                    // In-cache code-to-code requantization (Section IV-D
                    // batch-norm style multiply/add/shift).
                    let map = CodeRequant::between(t.params(), out_quant);
                    let epoch = jobs::code_requant_epoch(pool, t.shape());
                    let out = self.dispatch(&epoch, |arrays, slots| {
                        code_requant_chunk(arrays, &t.data()[slots], map)
                    })?;
                    QTensor::from_vec(t.shape(), out_quant, out.concat())
                }
            });
        }
        Ok(concat_channels(&parts, out_quant))
    }
}

// ----------------------------------------------------------------------
// Shard jobs: each runs on arrays drawn from the shared pool and reports
// the cycles it consumed, so results fold deterministically in job order.
// ----------------------------------------------------------------------

/// The bytes `placed` holds for filter run `run` (a window's single group
/// is run `0..1`), transposed into bit slices: one entry per `(array,
/// tap)`, array-major, each holding the run's lanes of that tap.
fn transpose_run(placed: &LaneBytes, geom: &LaneGeometry, run: &Range<usize>) -> Vec<BitSlices> {
    let taps = (0..geom.arrays_per_filter).flat_map(|a| (0..geom.eff_window).map(move |t| (a, t)));
    taps.map(|(a, t)| BitSlices::new(8, placed.run(run, a, t).iter().map(|&b| u64::from(b))))
        .collect()
}

/// One MAC+reduce run: the filters of `run` (or one filter spanning
/// `arrays_per_filter` arrays) against one input window, both transposed
/// per `(array, tap)` by [`transpose_run`]. Under
/// [`SparsityMode::SkipZeroRows`] the weight operand is the multiplier and
/// all-lanes-zero weight-bit rounds are elided (bit-identical products).
fn mac_reduce_run(
    pool: &ArrayPool,
    cycles: &mut CycleStats,
    geom: &LaneGeometry,
    filters: &[BitSlices],
    window: &[BitSlices],
    run: &Range<usize>,
    mode: SparsityMode,
) -> Result<(Vec<u64>, Vec<u64>)> {
    // Row layout of the pass-1 array (all regions disjoint, 202 rows) —
    // shared with the static checker via `crate::layout`, which also holds
    // the op sequences below.
    let mac = layout::MacReduceLayout::new();

    let groups = run.len();
    let mut partial_arrays = Vec::with_capacity(geom.arrays_per_filter);

    for a in 0..geom.arrays_per_filter {
        let mut arr = pool.acquire();
        *cycles += mac.clear(&mut *arr)?;

        for t in 0..geom.eff_window {
            // Stream tap t of the filter and input bytes onto the run's
            // lanes, the window's bytes copied once per filter (loader
            // path; transfer time is the movement model's concern).
            let tap = a * geom.eff_window + t;
            arr.poke_slices(mac.filter_byte, &filters[tap]);
            arr.poke_slices(mac.input_byte, &window[tap].repeat(groups));
            // S1 += w * x ; S2 += x — all lanes in parallel, with the
            // mode's multiplier/multiplicand roles.
            *cycles += mac.mac_tap(&mut *arr, mode)?;
        }
        *cycles += mac.widen_and_reduce(&mut *arr, geom.group_span, groups)?;
        partial_arrays.push(arr);
    }

    let (first, rest) = partial_arrays.split_at_mut(1);
    let arr0: &mut ComputeArray = &mut first[0];
    for partner in rest.iter_mut() {
        *cycles += mac.fold_partner(&mut **partner, arr0)?;
    }

    // Each group's reduction tree leaves its sums on the group's first lane.
    let lanes = groups.saturating_sub(1) * geom.group_span + 1;
    let firsts = |op| -> Vec<u64> {
        let sums = arr0.peek_lanes(op, lanes);
        sums.into_iter()
            .step_by(geom.group_span)
            .take(groups)
            .collect()
    };
    Ok((firsts(mac.seg_a), firsts(mac.s2_a)))
}

/// Assembles `ACC = S1 - zp_w*S2 + C0` in a 40-bit two's-complement
/// region and applies the MSB-masked `ReLU` when fused (pass 2).
fn assemble_acc(
    pool: &ArrayPool,
    cycles: &mut CycleStats,
    s1: u64,
    s2: u64,
    zp_w: u64,
    c0: i64,
    relu: bool,
) -> Result<i64> {
    const W: usize = 40;
    let l = layout::AssembleLayout::new();
    let mut arr = pool.acquire();

    arr.poke_lanes(l.s1_op, [s1]);
    arr.poke_lanes(l.s2_op, [s2]);
    arr.poke_lanes_signed(l.c0_op, [clamp_to_bits(c0, W)]);
    *cycles += l.assemble(&mut *arr, zp_w, relu)?;
    Ok(arr.peek_lanes_signed(l.t, 1)[0])
}

/// One 256-lane min/max ranging run over a chunk of accumulators.
fn min_max_chunk(pool: &ArrayPool, chunk: &[i64]) -> Result<((i64, i64), CycleStats)> {
    const OFFSET: i64 = 1 << 38; // |ACC| < 2^38 stays positive
    let l = layout::RangingLayout::new();

    let mut cycles = CycleStats::new();
    let mut min = i64::MAX;
    let mut max = i64::MIN;
    for want_max in [false, true] {
        let mut arr = pool.acquire();
        // Idle lanes replicate the first value (neutral for both
        // reductions).
        let vals = (0..COLS).map(|lane| chunk.get(lane).copied().unwrap_or(chunk[0]));
        arr.poke_lanes(l.v, vals.map(|val| (val + OFFSET) as u64));
        cycles += l.tree(&mut *arr, want_max, COLS)?;
        let extreme = arr.peek_lanes(l.v, 1)[0] as i64 - OFFSET;
        if want_max {
            max = max.max(extreme);
        } else {
            min = min.min(extreme);
        }
    }
    Ok(((min, max), cycles))
}

/// One 256-output requantization array run (pass 3).
fn requant_chunk(
    pool: &ArrayPool,
    chunk: &[i64],
    requant: Requantizer,
) -> Result<(Vec<u8>, CycleStats)> {
    let l = layout::RequantLayout::new();
    let mut arr = pool.acquire();
    arr.poke_lanes_signed(l.d_op, chunk.iter().map(|&v| clamp_to_bits(v, 40)));
    let (cycles, q_op) = l.requantize(
        &mut *arr,
        requant.acc_min,
        requant.multiplier,
        requant.shift,
    )?;
    Ok((read_bytes(&arr, q_op, chunk.len()), cycles))
}

/// One 256-code code-to-code requantization array run.
fn code_requant_chunk(
    pool: &ArrayPool,
    chunk: &[u8],
    map: CodeRequant,
) -> Result<(Vec<u8>, CycleStats)> {
    let l = layout::CodeRequantLayout::new();
    let mut arr = pool.acquire();
    arr.poke_lanes(l.q_in, chunk.iter().map(|&q| u64::from(q)));
    let (cycles, q_op) = l.requantize(&mut *arr, map.m.unsigned_abs(), map.c, map.sh)?;
    Ok((read_bytes(&arr, q_op, chunk.len()), cycles))
}

/// Max pooling over one 256-lane chunk: running max via subtract / MSB
/// mask / selective copy.
fn pool_max_chunk(
    pool: &ArrayPool,
    chunk: &[Vec<u8>],
    max_window: usize,
) -> Result<(Vec<u8>, CycleStats)> {
    let l = layout::PoolMaxLayout::new();
    let mut cycles = CycleStats::new();
    let mut arr = pool.acquire();
    arr.poke_lanes(l.acc, chunk.iter().map(|w| u64::from(w[0])));
    for i in 1..max_window {
        // Short windows (image edges) repeat their first element, which is
        // a no-op for max.
        let vals = chunk.iter().map(|w| w.get(i).copied().unwrap_or(w[0]));
        arr.poke_lanes(l.x, vals.map(u64::from));
        cycles += l.step(&mut *arr)?;
    }
    Ok((read_bytes(&arr, l.acc, chunk.len()), cycles))
}

/// Average pooling over one 256-lane chunk: bit-serial window sum, then
/// lane-wise restoring division by the per-lane valid-element count.
fn pool_avg_chunk(
    pool: &ArrayPool,
    chunk: &[Vec<u8>],
    max_window: usize,
) -> Result<(Vec<u8>, CycleStats)> {
    let l = layout::PoolAvgLayout::new();
    let mut arr = pool.acquire();
    let mut cycles = l.clear(&mut *arr)?;
    for i in 0..max_window {
        let vals = chunk.iter().map(|w| w.get(i).copied().unwrap_or(0));
        arr.poke_lanes(l.x, vals.map(u64::from));
        cycles += l.accumulate(&mut *arr)?;
    }
    arr.poke_lanes(l.den, chunk.iter().map(|w| w.len() as u64));
    let (divide, q_op) = l.divide(&mut *arr)?;
    Ok((read_bytes(&arr, q_op, chunk.len()), cycles + divide))
}

/// Reads an 8-bit result operand out of lanes `0..lanes`.
fn read_bytes(arr: &ComputeArray, q_op: Operand, lanes: usize) -> Vec<u8> {
    let codes = arr.peek_lanes(q_op, lanes);
    codes.into_iter().map(|q| q as u8).collect()
}

fn clamp_to_bits(v: i64, bits: usize) -> i64 {
    let lo = -(1i64 << (bits - 1));
    let hi = (1i64 << (bits - 1)) - 1;
    debug_assert!(
        (lo..=hi).contains(&v),
        "{v} exceeds {bits}-bit two's complement"
    );
    v.clamp(lo, hi)
}

fn concat_channels(parts: &[QTensor], params: ActQuant) -> QTensor {
    let (h, w) = (parts[0].shape().h, parts[0].shape().w);
    let total_c: usize = parts.iter().map(|p| p.shape().c).sum();
    QTensor::from_fn(Shape::new(h, w, total_c), params, |y, x, c| {
        let mut offset = 0;
        for p in parts {
            let pc = p.shape().c;
            if c < offset + pc {
                return p.get(y, x, c - offset);
            }
            offset += pc;
        }
        unreachable!("channel {c} out of range");
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use nc_dnn::reference;
    use nc_dnn::workload::{random_conv, random_input, single_conv_model, tiny_cnn};
    use nc_dnn::Padding;

    fn check_model(model: &Model, input_seed: u64) {
        let input = random_input(model.input_shape, model.input_quant, input_seed);
        let golden = reference::run_model(model, &input);
        let ours = run_model(model, &input).expect("functional run");
        assert_eq!(
            ours.output.data(),
            golden.output.data(),
            "functional output differs from the golden executor"
        );
        let golden_recs: Vec<&SublayerRecord> =
            golden.layers.iter().flat_map(|l| &l.sublayers).collect();
        assert_eq!(ours.sublayers.len(), golden_recs.len());
        for (a, b) in ours.sublayers.iter().zip(golden_recs) {
            assert_eq!(a, b, "sub-layer record mismatch for {}", a.name);
        }
        assert!(ours.cycles.compute_cycles > 0);

        // The threaded backend must be observably identical to sequential:
        // bit-identical outputs and records, identical cycle counts.
        let threaded = run_model_with(model, &input, ExecutionEngine::from_threads(4))
            .expect("threaded functional run");
        assert_eq!(threaded.output.data(), ours.output.data());
        assert_eq!(threaded.sublayers, ours.sublayers);
        assert_eq!(threaded.cycles, ours.cycles);

        // Round skipping must be bit-identical to dense on every workload
        // (the sparsity analogue of the engine gate): same outputs and
        // records, never more compute cycles, and the skipped/saved
        // counters reconcile the difference exactly.
        let skipping = run_model_configured(
            model,
            &input,
            ExecutionEngine::Sequential,
            SparsityMode::SkipZeroRows,
        )
        .expect("skip-mode functional run");
        assert_eq!(
            skipping.output.data(),
            ours.output.data(),
            "SkipZeroRows output differs from Dense"
        );
        assert_eq!(skipping.sublayers, ours.sublayers);
        assert_eq!(skipping.cycles.mul_rounds, ours.cycles.mul_rounds);
        assert_eq!(ours.cycles.skipped_rounds, 0, "dense never skips");
        assert_eq!(
            skipping.cycles.compute_cycles + skipping.cycles.skipped_cycles,
            ours.cycles.compute_cycles,
            "saved cycles must reconcile dense and skipping runs"
        );

        // Both knobs compose: threaded + skipping matches sequential +
        // skipping, counters included.
        let both = run_model_configured(
            model,
            &input,
            ExecutionEngine::from_threads(4),
            SparsityMode::SkipZeroRows,
        )
        .expect("threaded skip-mode run");
        assert_eq!(both.output.data(), skipping.output.data());
        assert_eq!(both.cycles, skipping.cycles);

        // The dynamic modes are likewise bit-identical to dense; their
        // reconciliation accounts the per-round detect overhead:
        // executed = dense - saved + detect.
        for mode in [SparsityMode::SkipZeroInputs, SparsityMode::SkipBoth] {
            let dynamic = run_model_configured(model, &input, ExecutionEngine::Sequential, mode)
                .expect("dynamic-mode functional run");
            assert_eq!(
                dynamic.output.data(),
                ours.output.data(),
                "{mode:?} output differs from Dense"
            );
            assert_eq!(dynamic.sublayers, ours.sublayers);
            assert_eq!(dynamic.cycles.mul_rounds, ours.cycles.mul_rounds);
            assert_eq!(dynamic.cycles.access_cycles, ours.cycles.access_cycles);
            assert_eq!(
                dynamic.cycles.skipped_rounds, 0,
                "dynamic modes skip input rounds, not weight rounds"
            );
            assert_eq!(
                dynamic.cycles.detect_cycles, dynamic.cycles.mul_rounds,
                "every scheduled round pays exactly one detect"
            );
            assert_eq!(
                dynamic.cycles.compute_cycles + dynamic.cycles.skipped_cycles
                    - dynamic.cycles.detect_cycles,
                ours.cycles.compute_cycles,
                "{mode:?}: detect-aware cycle reconciliation"
            );
            // Threaded execution reproduces the dynamic counters exactly.
            let thr_dyn =
                run_model_configured(model, &input, ExecutionEngine::from_threads(4), mode)
                    .expect("threaded dynamic-mode run");
            assert_eq!(thr_dyn.output.data(), dynamic.output.data());
            assert_eq!(thr_dyn.cycles, dynamic.cycles);
        }
        // SkipBoth elides at least as many cycles as SkipZeroInputs (the
        // truncation only adds savings) on identical round schedules.
        let inputs_only = run_model_configured(
            model,
            &input,
            ExecutionEngine::Sequential,
            SparsityMode::SkipZeroInputs,
        )
        .expect("input-skip run");
        let both_modes = run_model_configured(
            model,
            &input,
            ExecutionEngine::Sequential,
            SparsityMode::SkipBoth,
        )
        .expect("skip-both run");
        assert_eq!(
            both_modes.cycles.input_rounds_skipped, inputs_only.cycles.input_rounds_skipped,
            "input-side elision is identical; truncation is extra"
        );
        assert!(both_modes.cycles.skipped_cycles >= inputs_only.cycles.skipped_cycles);
    }

    #[test]
    fn single_3x3_conv_matches_reference() {
        let conv = random_conv("c", (3, 3), 4, 3, 1, Padding::Same, true, 11);
        let model = single_conv_model(conv, Shape::new(6, 6, 4));
        check_model(&model, 21);
    }

    #[test]
    fn strided_valid_conv_matches_reference() {
        let conv = random_conv("c", (3, 3), 3, 5, 2, Padding::Valid, true, 12);
        let model = single_conv_model(conv, Shape::new(9, 9, 3));
        check_model(&model, 22);
    }

    #[test]
    fn one_by_one_conv_with_packing_matches_reference() {
        // C = 40 > 16 forces real packing (3 lanes per filter).
        let conv = random_conv("c", (1, 1), 40, 4, 1, Padding::Valid, true, 13);
        let model = single_conv_model(conv, Shape::new(3, 3, 40));
        check_model(&model, 23);
    }

    #[test]
    fn five_by_five_conv_with_splitting_matches_reference() {
        let conv = random_conv("c", (5, 5), 3, 2, 1, Padding::Same, true, 14);
        let model = single_conv_model(conv, Shape::new(7, 7, 3));
        check_model(&model, 24);
    }

    #[test]
    fn asymmetric_kernels_match_reference() {
        let conv = random_conv("c", (1, 7), 8, 3, 1, Padding::Same, true, 15);
        let model = single_conv_model(conv, Shape::new(8, 8, 8));
        check_model(&model, 25);
        let conv = random_conv("c", (7, 1), 8, 3, 1, Padding::Same, true, 16);
        let model = single_conv_model(conv, Shape::new(8, 8, 8));
        check_model(&model, 26);
    }

    #[test]
    fn conv_without_relu_matches_reference() {
        let conv = random_conv("c", (1, 1), 6, 10, 1, Padding::Valid, false, 17);
        let model = single_conv_model(conv, Shape::new(1, 1, 6));
        check_model(&model, 27);
    }

    #[test]
    fn cross_array_filter_matches_reference() {
        // C = 300 -> 512 lanes per filter: spans two arrays, exercising the
        // inter-array reduction fold.
        let conv = random_conv("c", (3, 3), 300, 2, 1, Padding::Valid, true, 18);
        let model = single_conv_model(conv, Shape::new(3, 3, 300));
        check_model(&model, 28);
    }

    #[test]
    fn tiny_cnn_end_to_end_bit_exact() {
        check_model(&tiny_cnn(5), 50);
    }

    #[test]
    fn pruned_models_skip_and_stay_bit_exact() {
        check_model(&nc_dnn::workload::pruned_conv_model(4), 44);
    }

    #[test]
    fn executed_skips_match_the_analytical_prediction() {
        // The predicted-vs-executed cross-check: on a single-conv model the
        // skip fraction measured by sparsity::analyze on the mapper's lane
        // packing must equal the executed counter ratio *exactly* — on the
        // plain, the packed 1x1 (C = 40) and the cross-array (C = 300)
        // placements.
        let pruned = |k: (usize, usize), c: usize, seed: u64| {
            let conv = random_conv("p", k, c, 4, 1, Padding::Valid, true, seed);
            single_conv_model(
                nc_dnn::workload::prune_conv(conv, 2, 0.5, seed),
                Shape::new(3, 3, c),
            )
        };
        let models = [1u64, 8, 21]
            .map(|seed| (seed, nc_dnn::workload::pruned_conv_model(seed)))
            .into_iter()
            .chain([(13, pruned((1, 1), 40, 13)), (18, pruned((3, 3), 300, 18))]);
        for (seed, model) in models {
            let input = random_input(model.input_shape, model.input_quant, seed + 100);
            let run = run_model_configured(
                &model,
                &input,
                ExecutionEngine::Sequential,
                SparsityMode::SkipZeroRows,
            )
            .expect("skip-mode run");
            let predicted = crate::sparsity::analyze(&model).simd_skip();
            let executed = run.cycles.skip_fraction();
            assert!(
                (executed - predicted).abs() < 1e-12,
                "seed {seed}: executed {executed} vs predicted {predicted}"
            );
            assert!(run.cycles.skipped_rounds > 0, "pruned model must skip");
            assert!(predicted >= 0.75, "keep_bits = 2 skips the top 6 rounds");
        }
    }

    #[test]
    fn executed_input_skips_match_the_activation_profile() {
        // The dynamic analogue of the weight-skip cross-check: the
        // activation profile replays the mapper's lane packing on the
        // actual input, so its predicted elidable-round count must equal
        // the executed input_rounds_skipped counter *exactly* — on
        // multi-layer models too (intermediate activations included).
        use nc_dnn::workload::{relu_sparse_input, relu_sparse_mini};
        for seed in [3u64, 14] {
            let model = relu_sparse_mini(seed);
            let input = relu_sparse_input(model.input_shape, 0.6, 3, seed + 50);
            for mode in [SparsityMode::SkipZeroInputs, SparsityMode::SkipBoth] {
                let run = run_model_configured(&model, &input, ExecutionEngine::Sequential, mode)
                    .expect("dynamic run");
                let profile = crate::sparsity::activation_profile(&model, &input)
                    .expect("weighted model of the input shape");
                assert_eq!(
                    run.cycles.input_rounds_skipped,
                    profile.skippable_rounds(),
                    "seed {seed} {mode:?}: executed vs predicted skip count"
                );
                assert_eq!(
                    run.cycles.mul_rounds,
                    profile.total_rounds(),
                    "seed {seed} {mode:?}: scheduled round count"
                );
                assert!(
                    run.cycles.input_rounds_skipped > 0,
                    "ReLU-sparse input must elide rounds"
                );
            }
        }
    }

    #[test]
    fn traced_run_is_identical_and_rollups_reconcile_exactly() {
        let model = tiny_cnn(5);
        let input = random_input(model.input_shape, model.input_quant, 50);
        let plain = run_model(&model, &input).expect("plain run");
        let tel = Telemetry::enabled(Level::Detail);
        let traced = run_model_traced(
            &model,
            &input,
            ExecutionEngine::from_threads(4),
            SparsityMode::SkipZeroRows,
            &tel,
        )
        .expect("traced run");
        // The trace must be a pure observer: same outputs, records, cycles.
        assert_eq!(traced.output.data(), plain.output.data());
        assert_eq!(traced.sublayers, plain.sublayers);
        assert_eq!(traced.pool, plain.pool);
        // One layer span per top-level layer; both the layer and the op
        // rollups reproduce every cycle counter of the run exactly.
        assert_eq!(tel.span_count("functional.layer"), model.layers.len());
        assert!(tel.span_count("functional.op") >= model.layers.len());
        for (arg, want) in [
            ("compute_cycles", traced.cycles.compute_cycles),
            ("access_cycles", traced.cycles.access_cycles),
            ("mul_rounds", traced.cycles.mul_rounds),
            ("skipped_rounds", traced.cycles.skipped_rounds),
            ("skipped_cycles", traced.cycles.skipped_cycles),
            ("detect_cycles", traced.cycles.detect_cycles),
            ("input_rounds_skipped", traced.cycles.input_rounds_skipped),
        ] {
            assert_eq!(tel.sum_u64_arg("functional.layer", arg), want, "{arg}");
            assert_eq!(tel.sum_u64_arg("functional.op", arg), want, "{arg}");
        }
        assert!(traced.cycles.skipped_rounds > 0 || traced.cycles.skipped_cycles == 0);
        // Pool counters mirror the returned pool events.
        assert_eq!(
            tel.counter("functional.pool.acquires"),
            traced.pool.acquires
        );
        assert_eq!(
            tel.counter("functional.pool.releases"),
            traced.pool.releases
        );
        // A parallel traced run records wall-clock shard utilization.
        assert!(tel.gauge("engine.wall_s").is_some());
        assert_eq!(tel.gauge("engine.workers"), Some(4.0));
        let h = tel.histogram("engine.shard_seconds").expect("shard hist");
        assert!(h.count() > 0);
        let spans_before = tel.total_spans();

        // A Summary-level sink keeps metrics but drops spans.
        let summary = Telemetry::enabled(Level::Summary);
        let again = run_model_traced(
            &model,
            &input,
            ExecutionEngine::Sequential,
            SparsityMode::SkipZeroRows,
            &summary,
        )
        .expect("summary run");
        assert_eq!(again.cycles, traced.cycles);
        assert_eq!(summary.total_spans(), 0);
        assert_eq!(
            summary.counter("functional.pool.acquires"),
            traced.pool.acquires
        );
        // The original sink was untouched by the second run.
        assert_eq!(tel.total_spans(), spans_before);
    }

    #[test]
    fn oversubscribed_threads_still_agree() {
        // More workers than shard jobs (1x1 output): the engine must not
        // deadlock, skip, or duplicate work.
        let conv = random_conv("c", (1, 1), 6, 3, 1, Padding::Valid, true, 19);
        let model = single_conv_model(conv, Shape::new(1, 1, 6));
        let input = random_input(model.input_shape, model.input_quant, 29);
        let seq = run_model(&model, &input).expect("sequential");
        let thr =
            run_model_with(&model, &input, ExecutionEngine::from_threads(16)).expect("threaded");
        assert_eq!(seq.output.data(), thr.output.data());
        assert_eq!(seq.cycles, thr.cycles);
    }

    #[test]
    fn wrong_input_shape_is_an_error() {
        let model = tiny_cnn(5);
        let mut shape = model.input_shape;
        shape.w += 1;
        let input = random_input(shape, model.input_quant, 50);
        for engine in [
            ExecutionEngine::Sequential,
            ExecutionEngine::from_threads(2),
        ] {
            let err = run_model_with(&model, &input, engine).unwrap_err();
            assert_eq!(
                err,
                FunctionalError::InputShape {
                    expected: model.input_shape,
                    actual: shape,
                }
            );
            assert!(err.to_string().contains("input shape"));
        }
    }

    #[test]
    fn an_epoch_that_leaves_the_plan_is_an_error() {
        // A ranging epoch declaring one more checkout per job than the
        // min/max trees take fails after the join, in release builds too.
        let conv = random_conv("c", (3, 3), 4, 40, 1, Padding::Same, true, 11);
        let [_, mut ranging] = jobs::conv_epochs(&conv.spec, Shape::new(3, 3, 4));
        ranging.checkouts[0].1 += 1;
        let values: Vec<i64> = (0..ranging.slots as i64).collect();
        let jobs = ranging.jobs() as u64;
        assert!(jobs > 1);
        for engine in [
            ExecutionEngine::Sequential,
            ExecutionEngine::from_threads(2),
        ] {
            let mut exec =
                Exec::new(engine, SparsityMode::Dense, Telemetry::disabled()).expect("executor");
            let job = |pool: &ArrayPool, slots: Range<usize>| min_max_chunk(pool, &values[slots]);
            let err = exec.dispatch(&ranging, job).unwrap_err();
            assert_eq!(
                err,
                FunctionalError::PlanDrift {
                    epoch: "c/ranging".into(),
                    planned: 3 * jobs,
                    executed: 2 * jobs,
                }
            );
            assert!(err.to_string().contains("job plan"));
        }
    }

    #[test]
    fn missing_weights_is_an_error() {
        let model = nc_dnn::inception::inception_v3();
        let input = random_input(model.input_shape, model.input_quant, 0);
        let err = run_model(&model, &input).unwrap_err();
        assert!(matches!(err, FunctionalError::MissingWeights { .. }));
        assert!(err.to_string().contains("weights"));

        // The threaded backend reports the same error.
        let err = run_model_with(&model, &input, ExecutionEngine::from_threads(2)).unwrap_err();
        assert!(matches!(err, FunctionalError::MissingWeights { .. }));
    }
}
