//! The traced run: one set-up and one operation with host-time spans
//! around every call into the workspace crates, plus `nc-telemetry`
//! simulated-time spans at [`Level::Detail`]. The per-layer metrics are
//! derived from these spans and counters; the functional model runs as
//! chained single-layer `run_model_traced` calls fed by the reference
//! executor's per-layer outputs, so each layer's host time and counters
//! are its own.

use std::collections::BTreeMap;

use nc_dnn::inception::inception_v3;
use nc_dnn::Model;
use nc_sram::{ArrayTimings, CycleStats};
use nc_telemetry::{Level, Telemetry};
use neural_cache::functional::{run_model_traced, FunctionalResult, PoolEvents};
use neural_cache::Phase;

use crate::spans::{events, field, Spans, TraceWriter};
use crate::{
    bit_exact, golden, golden_records, incep75_prefix, infer, plan_serve, setup, Metric, PlanServe,
    Setup, Workload, RATES, SERVE_REQUESTS,
};

/// The in-cache passes `functional.op` spans are named after.
pub const OPS: [&str; 6] = [
    "mac-reduce",
    "ranging",
    "requantize",
    "code-requant",
    "pool-max",
    "pool-avg",
];

/// What one chained single-layer run left behind.
struct LayerRun {
    name: String,
    host_s: f64,
    result: FunctionalResult,
    tel: Telemetry,
    exact: bool,
}

/// Outcome of a traced run.
#[derive(Debug)]
pub struct Traced {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// The Chrome trace document.
    pub trace: String,
}

/// Engine observation summed over layers.
#[derive(Default)]
struct EngineTotals {
    wall_s: f64,
    workers: usize,
    busy: Vec<f64>,
    shards: u64,
    shard_sum_s: f64,
    shard_max_s: f64,
}

impl EngineTotals {
    fn add(&mut self, tel: &Telemetry) {
        let Some(wall) = tel.gauge("engine.wall_s") else {
            return;
        };
        let workers = tel.gauge("engine.workers").map_or(0, |w| w as usize);
        self.wall_s += wall;
        self.workers = self.workers.max(workers);
        self.busy.resize(self.workers, 0.0);
        for w in 0..workers {
            self.busy[w] += tel
                .gauge(&format!("engine.worker.{w}.busy_s"))
                .unwrap_or(0.0);
        }
        if let Some(h) = tel.histogram("engine.shard_seconds") {
            self.shards += h.count();
            self.shard_sum_s += h.sum();
            self.shard_max_s = self.shard_max_s.max(h.max());
        }
    }

    fn utilization(&self) -> f64 {
        ratio(self.busy.iter().sum(), self.wall_s * self.workers as f64)
    }

    fn imbalance(&self) -> f64 {
        let max = self.busy.iter().copied().fold(0.0, f64::max);
        ratio(
            max,
            self.busy.iter().sum::<f64>() / self.busy.len().max(1) as f64,
        )
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Compute cycles per `functional.op` span name in one telemetry trace.
fn op_cycles(trace: &str) -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    for e in events(trace, "functional.op") {
        let name = field(e, "name").unwrap_or_default().to_owned();
        let cycles: u64 = field(e, "compute_cycles")
            .and_then(|v| v.parse().ok())
            .unwrap_or(0);
        *out.entry(name).or_insert(0) += cycles;
    }
    out
}

/// Runs the workload once, traced, and derives its per-layer metrics.
#[must_use]
pub fn run(workload: Workload, seed: u64) -> Traced {
    let mut spans = Spans::on();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut check = |ok: bool| {
        attempted += 1;
        failed += u64::from(!ok);
    };
    let (setup, _) = spans.time("setup", |s| setup(workload, seed, s));
    check(setup.report.is_clean());
    // Parts of the admission check the set-up does not call on their own.
    let _ = spans.time("verify.model_ranges", |_| {
        nc_verify::range::model_ranges(&setup.model)
    });
    if workload == Workload::Incep75Sparse2t {
        let _ = spans.time("verify.check_model", |_| {
            nc_verify::check_model(&setup.config, &setup.model)
        });
    }
    let mut writer = TraceWriter::new();
    let mut m = Vec::new();
    let mut met =
        |name: String, value: f64, unit: &'static str| m.push(Metric::new(name, value, unit));
    met("dnn.build_s".into(), spans.total("dnn.build"), "s");
    met("mapping.plan_s".into(), spans.total("mapping.plan"), "s");
    met(
        "verify.model_ranges_s".into(),
        spans.total("verify.model_ranges"),
        "s",
    );
    met(
        "verify.check_model_s".into(),
        spans.total("verify.check_model"),
        "s",
    );
    met(
        "verify.check_threaded_model_s".into(),
        spans.total("verify.check_threaded_model"),
        "s",
    );
    met(
        "verify.shard_jobs".into(),
        setup.shard_jobs() as f64,
        "count",
    );

    let functional = if workload.functional() {
        functional_run(&setup, &mut spans, &mut writer, &mut check)
    } else {
        Functional::idle()
    };
    functional_metrics(&mut met, &functional);
    let tel = Telemetry::enabled(Level::Detail);
    let (ps, traced_ps_s) = spans.time("plan_serve", |s| {
        plan_serve(&setup.config, &setup.model, seed, &tel, s)
    });
    for p in ps.all_points() {
        check(p.sound());
    }
    writer.add_telemetry(&tel.to_chrome_trace(), 0.0);
    plan_serve_metrics(&mut met, &ps, &spans);
    // Telemetry overhead compares the traced operation with an untraced
    // one: the chained traced layers against one untraced inference, or a
    // traced plan-and-serve pass against an untraced one.
    let (traced_s, untraced_s) = if workload.functional() {
        (functional.chained_s, functional.untraced_s)
    } else {
        let untraced = |s: &mut Spans| {
            plan_serve(&setup.config, &setup.model, seed, &Telemetry::disabled(), s)
        };
        (traced_ps_s, Spans::off().time("plan_serve", untraced).1)
    };
    met(
        "telemetry.overhead_frac".into(),
        ratio(traced_s, untraced_s) - 1.0,
        "ratio",
    );
    writer.add_host(&spans, seed);
    Traced {
        attempted,
        failed,
        metrics: m,
        trace: writer.render(),
    }
}

type Met<'a> = dyn FnMut(String, f64, &'static str) + 'a;

/// What the functional part of a traced run measured; all zero on the
/// workload that runs no functional inference.
#[derive(Default)]
struct Functional {
    /// Counters of the untraced whole-model inference.
    whole: CycleStats,
    acquires: u64,
    untraced_s: f64,
    chained_s: f64,
    /// Per top-level layer: name, host seconds, compute cycles, engine
    /// utilization.
    layers: Vec<(String, f64, u64, f64)>,
    /// Compute cycles per `functional.op` name.
    ops: BTreeMap<String, u64>,
    engine: EngineTotals,
}

impl Functional {
    fn idle() -> Self {
        let layers = incep75_prefix(inception_v3())
            .layers
            .iter()
            .map(|l| (l.name().to_owned(), 0.0, 0, 0.0))
            .collect();
        Functional {
            layers,
            ..Functional::default()
        }
    }
}

/// One untraced inference, then the chained traced layers, reconciled
/// exactly against it.
fn functional_run(
    setup: &Setup,
    spans: &mut Spans,
    writer: &mut TraceWriter,
    check: &mut dyn FnMut(bool),
) -> Functional {
    let (untraced, untraced_s) = spans.time("functional.run_functional", |_| infer(setup));
    let (gold, _) = spans.time("reference.run_model", |_| golden(setup));
    check(bit_exact(&untraced, &gold, &golden_records(&gold)));
    let (whole, acquires) = untraced
        .map(|r| (r.cycles, r.pool.acquires))
        .unwrap_or_default();
    let (runs, chained_s) = spans.time("functional.chained", |s| chained(setup, &gold, s));

    let timings = ArrayTimings::default();
    let mut offset_s = 0.0;
    let mut sum = CycleStats::new();
    let mut f = Functional {
        whole,
        acquires,
        untraced_s,
        chained_s,
        ..Functional::default()
    };
    for l in &runs {
        check(l.exact);
        let trace = l.tel.to_chrome_trace();
        writer.add_telemetry(&trace, offset_s);
        offset_s += l.result.cycles.seconds(&timings);
        let cycles = l.result.cycles.compute_cycles;
        check(l.tel.sum_u64_arg("functional.layer", "compute_cycles") == cycles);
        sum += l.result.cycles;
        for (op, c) in op_cycles(&trace) {
            *f.ops.entry(op).or_insert(0) += c;
        }
        f.engine.add(&l.tel);
        let util = l.tel.gauge("engine.utilization").unwrap_or(0.0);
        f.layers.push((l.name.clone(), l.host_s, cycles, util));
    }
    // Exact reconciliation: the chained layers, and the op spans inside
    // them, partition the whole run's counters.
    check(sum == whole);
    check(f.ops.values().sum::<u64>() == whole.compute_cycles);
    check(f.ops.keys().all(|k| OPS.contains(&k.as_str())));
    f
}

fn functional_metrics(met: &mut Met<'_>, f: &Functional) {
    let c = &f.whole;
    met(
        "functional.sim_cycles".into(),
        c.compute_cycles as f64,
        "cycles",
    );
    for (name, host_s, _, _) in &f.layers {
        met(format!("functional.{name}.host_s"), *host_s, "s");
    }
    for (name, _, cycles, _) in &f.layers {
        met(
            format!("functional.{name}.sim_cycles"),
            *cycles as f64,
            "cycles",
        );
    }
    for op in OPS {
        let cycles = f.ops.get(op).copied().unwrap_or(0);
        met(
            format!("functional.op.{op}.sim_cycles"),
            cycles as f64,
            "cycles",
        );
    }
    met(
        "functional.sim_cycles_per_host_s".into(),
        ratio(c.compute_cycles as f64, f.untraced_s),
        "cycles/s",
    );
    let layer_host: f64 = f.layers.iter().map(|l| l.1).sum();
    met(
        "functional.split_overhead_frac".into(),
        if f.chained_s > 0.0 {
            layer_host / f.chained_s - 1.0
        } else {
            0.0
        },
        "ratio",
    );
    met("sram.pool.acquires".into(), f.acquires as f64, "count");
    met("sram.mul_rounds".into(), c.mul_rounds as f64, "count");
    met(
        "sram.access_cycles".into(),
        c.access_cycles as f64,
        "cycles",
    );
    sparsity_metrics(met, c);
    let e = &f.engine;
    met("engine.utilization".into(), e.utilization(), "ratio");
    met("engine.busy_imbalance".into(), e.imbalance(), "ratio");
    met("engine.shard_s_max".into(), e.shard_max_s, "s");
    met(
        "engine.shard_s_mean".into(),
        ratio(e.shard_sum_s, e.shards as f64),
        "s",
    );
    met("engine.shards".into(), e.shards as f64, "count");
    for (name, _, _, util) in &f.layers {
        met(format!("engine.{name}.utilization"), *util, "ratio");
    }
}

/// Runs every top-level layer as its own traced single-layer model, fed by
/// the reference output of the layer before it.
fn chained(
    setup: &Setup,
    gold: &nc_dnn::reference::InferenceResult,
    spans: &mut Spans,
) -> Vec<LayerRun> {
    let model = &setup.model;
    let shapes = model.layer_inputs();
    let first = setup
        .input
        .as_ref()
        .expect("functional workloads carry an input");
    let mut out = Vec::new();
    for (i, layer) in model.layers.iter().enumerate() {
        let input = if i == 0 {
            first
        } else {
            &gold.layers[i - 1].output
        };
        let single = Model {
            name: layer.name().to_owned(),
            input_shape: shapes[i],
            input_quant: input.params(),
            layers: vec![layer.clone()],
        };
        let tel = Telemetry::enabled(Level::Detail);
        let (result, host_s) = spans.time(&format!("functional.{}", layer.name()), |_| {
            run_model_traced(
                &single,
                input,
                setup.config.parallelism,
                setup.config.sparsity,
                &tel,
            )
        });
        let want = &gold.layers[i];
        let (result, exact) = match result {
            Ok(r) => {
                let exact = r.output == want.output && r.sublayers == want.sublayers;
                (r, exact)
            }
            Err(_) => (
                FunctionalResult {
                    output: want.output.clone(),
                    sublayers: Vec::new(),
                    cycles: CycleStats::new(),
                    pool: PoolEvents::default(),
                },
                false,
            ),
        };
        out.push(LayerRun {
            name: layer.name().to_owned(),
            host_s,
            result,
            tel,
            exact,
        });
    }
    out
}

fn sparsity_metrics(met: &mut Met<'_>, c: &CycleStats) {
    met(
        "sparsity.skipped_rounds".into(),
        c.skipped_rounds as f64,
        "count",
    );
    met(
        "sparsity.input_rounds_skipped".into(),
        c.input_rounds_skipped as f64,
        "count",
    );
    met(
        "sparsity.skipped_cycles".into(),
        c.skipped_cycles as f64,
        "cycles",
    );
    met(
        "sparsity.detect_cycles".into(),
        c.detect_cycles as f64,
        "cycles",
    );
    met(
        "sparsity.skip_frac".into(),
        ratio(
            (c.skipped_rounds + c.input_rounds_skipped) as f64,
            c.mul_rounds as f64,
        ),
        "ratio",
    );
    met(
        "sparsity.detect_yield".into(),
        ratio(c.input_rounds_skipped as f64, c.detect_cycles as f64),
        "ratio",
    );
}

fn plan_serve_metrics(met: &mut Met<'_>, ps: &PlanServe, spans: &Spans) {
    let phases = ps.latency.breakdown();
    for phase in Phase::ALL {
        met(
            format!("timing.phase.{}.sim_ms", phase.label()),
            phases.get(phase).as_millis_f64(),
            "sim_ms",
        );
    }
    met(
        "timing.host_s".into(),
        spans.total("timing.time_inference"),
        "s",
    );
    let peak = ps.peak();
    met(
        "batching.dump_stall_ms".into(),
        peak.dump_stall().as_millis_f64(),
        "sim_ms",
    );
    met("batching.peak_batch".into(), peak.batch as f64, "count");
    met(
        "batching.host_s".into(),
        spans.total("batching.throughput_sweep"),
        "s",
    );
    let p = &ps.point(crate::P99_RATE).summary;
    met("serve.p50_ms".into(), p.p50_ms, "sim_ms");
    for (rate, point) in RATES.iter().zip(&ps.points) {
        met(
            format!("serve.p99_ms.{rate}"),
            point.summary.p99_ms,
            "sim_ms",
        );
    }
    met("serve.mean_batch".into(), p.mean_batch, "count");
    let util = &p.slice_utilization;
    met(
        "serve.slice_util".into(),
        ratio(util.iter().sum(), util.len() as f64),
        "ratio",
    );
    met("serve.mean_queue_depth".into(), p.mean_queue_depth, "count");
    met(
        "serve.drop_frac".into(),
        ratio(p.dropped as f64, p.admitted as f64),
        "ratio",
    );
    let serve_s = spans.total("serve");
    met("serve.host_s".into(), serve_s, "s");
    let simulated = (ps.points.len() + ps.searched.len()) * SERVE_REQUESTS;
    met(
        "serve.req_per_host_s".into(),
        ratio(simulated as f64, serve_s),
        "1/s",
    );
}
