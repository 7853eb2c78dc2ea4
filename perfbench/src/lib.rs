//! The repository benchmark, written as a client of the workspace crates'
//! public APIs.
//!
//! Two workloads, each seeded from the benchmark's `--seed`:
//!
//! - `incep75_sparse_2t`: the Inception v3 stem and first Inception-A block
//!   (`Conv2d_1a_3x3` through `Mixed_5b`, 12 conv sub-layers at their real
//!   channel counts) on a 75×75×3 input, the smallest the graph accepts,
//!   with pruned weights and a ReLU-sparse input, run bit-exactly under
//!   `SkipBoth` on one engine thread per core;
//! - `plan_serve_299`: Inception v3 at 299×299 through the mapping, timing,
//!   batching and serving models only.
//!
//! Every workload also prices its own model through the timing, batching
//! and serving models (the "plan-and-serve pass"), so each reports the
//! same end-to-end metrics; on the incep75 workloads that pass runs once,
//! outside the timed region.

pub mod spans;
pub mod traced;

use nc_dnn::inception::{inception_v3, inception_v3_with_weights};
use nc_dnn::reference::{self, SublayerRecord};
use nc_dnn::workload::{prune_conv, relu_act_quant, relu_sparse_input};
use nc_dnn::{Conv2d, Layer, Model, QTensor, Shape};
use nc_serve::{simulate_with_cost, ServeConfig, ServingSummary, TraceConfig};
use nc_telemetry::Telemetry;
use nc_verify::report::VerifyReport;
use neural_cache::functional::{FunctionalError, FunctionalResult};
use neural_cache::{
    throughput_sweep, time_inference, trace_inference_report, BatchReport, ExecutionEngine,
    InferenceReport, NeuralCache, SparsityMode, SystemConfig,
};

use crate::spans::Spans;

/// Batch sizes of the throughput sweep (Fig. 16).
pub const BATCHES: [usize; 9] = [1, 2, 4, 8, 16, 32, 64, 128, 256];
/// Fixed Poisson offered loads of the serving sweep, requests per second.
pub const RATES: [u32; 4] = [200, 400, 600, 800];
/// The offered load `serve_p99_ms` is read at.
pub const P99_RATE: u32 = 600;
/// Requests per simulated serving point.
pub const SERVE_REQUESTS: usize = 100_000;
/// Bisection steps of the `serve_max_rps` search.
pub const SEARCH_STEPS: usize = 12;
/// The paper's single-image Inception v3 latency (Table IV, 35 MB; the
/// Fig. 15 bar), milliseconds.
pub const PAPER_LATENCY_MS: f64 = 4.72;
/// The paper's peak batched throughput (Fig. 16), inferences per second.
pub const PAPER_PEAK_IPS: f64 = 604.0;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Incep75Sparse2t,
    PlanServe299,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::Incep75Sparse2t, Workload::PlanServe299];

    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::Incep75Sparse2t => "incep75_sparse_2t",
            Workload::PlanServe299 => "plan_serve_299",
        }
    }

    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Whether the timed operation is a bit-exact functional inference.
    #[must_use]
    pub fn functional(self) -> bool {
        self != Workload::PlanServe299
    }
}

/// Host cores available to the process.
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The last top-level layer the incep75 workload keeps: the stem and the
/// first Inception-A block. The whole graph at 75×75 takes about 20 s per
/// sparse inference on a 2-core host, so a run could time only two or three;
/// the prefix takes about 6 s.
pub const INCEP75_LAST_LAYER: &str = "Mixed_5b";

/// Cuts a model to its top-level layers up to and including
/// [`INCEP75_LAST_LAYER`].
#[must_use]
pub fn incep75_prefix(mut model: Model) -> Model {
    let last = model
        .layers
        .iter()
        .position(|l| l.name() == INCEP75_LAST_LAYER)
        .expect("Inception v3 has the block");
    model.layers.truncate(last + 1);
    model
}

/// Inception v3 on a 75×75×3 input, the smallest the graph accepts, cut to
/// [`incep75_prefix`] and edited only through public `Model` fields. Every
/// conv is pruned to 2-bit codes with half of them zeroed, and the input
/// quantization is post-ReLU.
#[must_use]
pub fn incep75_sparse(seed: u64) -> Model {
    let mut model = incep75_prefix(inception_v3_with_weights(seed));
    model.input_shape = Shape::new(75, 75, 3);
    model.input_quant = relu_act_quant();
    let convs = model.layers.iter_mut().flat_map(Layer::conv_sublayers_mut);
    for (i, conv) in convs.enumerate() {
        let dense = std::mem::replace(conv, Conv2d::shape_only(conv.spec.clone()));
        *conv = prune_conv(dense, 2, 0.5, seed.wrapping_add(i as u64));
    }
    model
}

/// Everything a workload builds before its first timed operation.
#[derive(Debug, Clone)]
pub struct Setup {
    pub model: Model,
    /// The functional input (incep75 workloads only).
    pub input: Option<QTensor>,
    /// Timing substrate, execution engine and sparsity mode.
    pub config: SystemConfig,
    /// The static admission report; it must be clean.
    pub report: VerifyReport,
}

impl Setup {
    /// The accelerator facade for this workload's configuration.
    #[must_use]
    pub fn system(&self) -> NeuralCache {
        NeuralCache::new(self.config.clone())
    }

    /// `VerifyReport` shard-job count (threaded check only; 0 otherwise).
    #[must_use]
    pub fn shard_jobs(&self) -> u64 {
        self.report
            .stats
            .iter()
            .find(|(name, _)| name == "shard_jobs")
            .map_or(0, |(_, v)| *v)
    }
}

/// Builds a workload: model (with pruning), input, layout plan and the
/// static admission checks, each inside its own host span.
#[must_use]
pub fn setup(workload: Workload, seed: u64, spans: &mut Spans) -> Setup {
    let mut config = SystemConfig::xeon_e5_2697_v3();
    let (model, _) = spans.time("dnn.build", |_| match workload {
        Workload::Incep75Sparse2t => incep75_sparse(seed),
        Workload::PlanServe299 => inception_v3(),
    });
    let (input, _) = spans.time("dnn.input", |_| match workload {
        Workload::Incep75Sparse2t => Some(relu_sparse_input(model.input_shape, 0.5, 8, seed)),
        Workload::PlanServe299 => None,
    });
    if workload == Workload::Incep75Sparse2t {
        config.sparsity = SparsityMode::SkipBoth;
        config.parallelism = ExecutionEngine::from_threads(nproc());
    }
    let system = NeuralCache::new(config.clone());
    let _ = spans.time("mapping.plan", |_| system.plan(&model));
    // The threaded check runs `check_model` first and adds the shard-graph
    // checks, so the threaded workload runs it alone.
    let (report, _) = if workload == Workload::Incep75Sparse2t {
        spans.time("verify.check_threaded_model", |_| {
            nc_verify::check_threaded_model(&config, &model)
        })
    } else {
        spans.time("verify.check_model", |_| {
            nc_verify::check_model(&config, &model)
        })
    };
    Setup {
        model,
        input,
        config,
        report,
    }
}

/// One bit-exact inference of a functional workload.
///
/// # Errors
///
/// Returns the executor's error.
pub fn infer(setup: &Setup) -> Result<FunctionalResult, FunctionalError> {
    let input = setup
        .input
        .as_ref()
        .expect("functional workloads carry an input");
    setup.system().run_functional(&setup.model, input)
}

/// The reference executor's answer for a functional workload.
#[must_use]
pub fn golden(setup: &Setup) -> reference::InferenceResult {
    let input = setup
        .input
        .as_ref()
        .expect("functional workloads carry an input");
    reference::run_model(&setup.model, input)
}

/// The reference's sub-layer records in execution order.
#[must_use]
pub fn golden_records(golden: &reference::InferenceResult) -> Vec<SublayerRecord> {
    golden
        .layers
        .iter()
        .flat_map(|l| l.sublayers.iter().cloned())
        .collect()
}

/// Whether a functional result is bit-identical to the reference.
#[must_use]
pub fn bit_exact(
    result: &Result<FunctionalResult, FunctionalError>,
    golden: &reference::InferenceResult,
    records: &[SublayerRecord],
) -> bool {
    matches!(result, Ok(r) if r.output == golden.output && r.sublayers == records)
}

/// One simulated serving point.
#[derive(Debug, Clone, PartialEq)]
pub struct ServePoint {
    pub rate_rps: f64,
    pub summary: ServingSummary,
}

impl ServePoint {
    /// Conservation, a drained queue and the goodput bound all hold.
    #[must_use]
    pub fn sound(&self) -> bool {
        self.summary.conservation_holds()
            && self.summary.pending == 0
            && self.summary.goodput_bounded()
    }

    /// p99 meets the SLO with nothing dropped and nothing pending.
    #[must_use]
    pub fn meets(&self, slo_ms: f64) -> bool {
        self.summary.p99_ms <= slo_ms && self.summary.dropped == 0 && self.summary.pending == 0
    }
}

/// The simulated results of one plan-and-serve pass.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanServe {
    pub latency: InferenceReport,
    pub sweep: Vec<BatchReport>,
    /// The fixed-rate points, in [`RATES`] order.
    pub points: Vec<ServePoint>,
    /// Every point the rate search simulated.
    pub searched: Vec<ServePoint>,
    /// Highest searched rate meeting the SLO with no drops and no backlog.
    pub max_rps: f64,
}

impl PlanServe {
    #[must_use]
    pub fn latency_ms(&self) -> f64 {
        self.latency.total().as_millis_f64()
    }

    /// The batch report with the highest throughput.
    #[must_use]
    pub fn peak(&self) -> &BatchReport {
        self.sweep
            .iter()
            .max_by(|a, b| a.throughput_ips.total_cmp(&b.throughput_ips))
            .expect("non-empty batch sweep")
    }

    #[must_use]
    pub fn point(&self, rate: u32) -> &ServePoint {
        let i = RATES.iter().position(|&r| r == rate).expect("a sweep rate");
        &self.points[i]
    }

    /// Every simulated point, fixed-rate and searched.
    pub fn all_points(&self) -> impl Iterator<Item = &ServePoint> {
        self.points.iter().chain(&self.searched)
    }
}

/// Times one inference, sweeps batch sizes, simulates open-loop Poisson
/// serving at [`RATES`] and searches for the highest rate meeting the SLO.
/// `tel` observes the timing report; serving runs untraced, since the
/// per-request records of a 100k-request point would dwarf a trace.
#[must_use]
pub fn plan_serve(
    config: &SystemConfig,
    model: &Model,
    seed: u64,
    tel: &Telemetry,
    spans: &mut Spans,
) -> PlanServe {
    let (latency, _) = spans.time("timing.time_inference", |_| {
        let report = time_inference(config, model);
        trace_inference_report(tel, &report);
        report
    });
    let (sweep, _) = spans.time("batching.throughput_sweep", |_| {
        throughput_sweep(config, model, &BATCHES)
    });
    // Two slices, SLO-adaptive batching up to 32, a 100 ms base SLO, on the
    // workload's timing substrate.
    let serve = ServeConfig {
        system: config.clone(),
        ..ServeConfig::default_two_slice()
    };
    let slo_ms = serve.slo.as_millis_f64();
    let ((points, searched, max_rps), _) = spans.time("serve", |spans| {
        let (cost, _) = spans.time("serve.cost_model", |_| {
            NeuralCache::new(config.clone()).batch_cost_model(model)
        });
        let run = |rate: f64, spans: &mut Spans| {
            let trace = TraceConfig::poisson(rate, SERVE_REQUESTS, seed);
            let (outcome, _) = spans.time("serve.simulate", |_| {
                simulate_with_cost(&serve, &cost, &trace)
            });
            ServePoint {
                rate_rps: rate,
                summary: outcome.summary,
            }
        };
        let points: Vec<ServePoint> = RATES.iter().map(|&r| run(f64::from(r), spans)).collect();
        // Bisect between zero and twice the sweep's peak throughput (a
        // fixed number of points, so every seed does the same work),
        // doubling the bracket first in the rare case its top still meets
        // the SLO.
        let mut searched = Vec::new();
        let mut hi = 2.0 * sweep.iter().map(|b| b.throughput_ips).fold(0.0, f64::max);
        loop {
            let p = run(hi, spans);
            let ok = p.meets(slo_ms);
            searched.push(p);
            if !ok {
                break;
            }
            hi *= 2.0;
        }
        let mut lo = 0.0;
        for _ in 0..SEARCH_STEPS {
            let mid = (lo + hi) / 2.0;
            let p = run(mid, spans);
            if p.meets(slo_ms) {
                lo = mid;
            } else {
                hi = mid;
            }
            searched.push(p);
        }
        (points, searched, lo)
    });
    PlanServe {
        latency,
        sweep,
        points,
        searched,
        max_rps,
    }
}

/// Peak resident set size of this process (`VmHWM`), MiB.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Median of a non-empty sample.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// A metric value with its unit, as the result line prints it. Units name
/// their clock: `s` is host time, `sim_ms` and `/sim_s` are simulated time.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    #[must_use]
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// Renders the result line: `correct`, `attempted`, `failed` and every
/// metric with its unit, each value with all its digits.
#[must_use]
pub fn result_line(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    )
}
