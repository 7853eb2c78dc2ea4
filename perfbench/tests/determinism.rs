//! Seed and determinism self-checks of the benchmark. The functional checks
//! run a layer prefix of the incep75 models so the suite stays short; run
//! it with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::process::Command;

use nc_dnn::Model;
use nc_telemetry::Telemetry;
use neural_cache::functional::run_model_configured;
use neural_cache::ExecutionEngine;
use perfbench::spans::Spans;
use perfbench::{bit_exact, golden, golden_records, infer, plan_serve, setup, Setup, Workload};

/// A seed no tuning of the benchmark used, so a claim can be re-checked on
/// inputs it was not tuned on.
const HELD_OUT_SEED: u64 = 0x5EED_0FF5;

/// The workload with its model cut to the first `layers` top-level layers.
fn prefix(workload: Workload, seed: u64, layers: usize) -> Setup {
    let mut s = setup(workload, seed, &mut Spans::off());
    s.model = Model {
        layers: s.model.layers[..layers].to_vec(),
        ..s.model
    };
    s
}

fn pass(s: &Setup, seed: u64) -> perfbench::PlanServe {
    plan_serve(
        &s.config,
        &s.model,
        seed,
        &Telemetry::disabled(),
        &mut Spans::off(),
    )
}

#[test]
fn simulated_and_serving_metrics_repeat_for_a_seed() {
    for w in [Workload::PlanServe299, Workload::Incep75Sparse2t] {
        let s = setup(w, 7, &mut Spans::off());
        let (a, b) = (pass(&s, 7), pass(&s, 7));
        assert_eq!(a, b, "{}", w.name());
        assert!(a.max_rps > 0.0 && a.latency_ms() > 0.0);
    }
}

#[test]
fn sparse_cycles_match_across_engines() {
    // Stem convs plus the first max pool: many output windows per shard.
    let s = prefix(Workload::Incep75Sparse2t, 3, 4);
    assert!(s.config.parallelism.is_parallel() || perfbench::nproc() == 1);
    let input = s.input.as_ref().expect("functional input");
    let threaded = infer(&s).expect("threaded run");
    let sequential = run_model_configured(
        &s.model,
        input,
        ExecutionEngine::Sequential,
        s.config.sparsity,
    )
    .expect("sequential run");
    assert_eq!(threaded.cycles, sequential.cycles);
    assert_eq!(threaded.output, sequential.output);
    assert!(threaded.cycles.input_rounds_skipped > 0, "skipping is live");
}

#[test]
fn held_out_seed_runs_cleanly() {
    for w in Workload::ALL {
        let s = setup(w, HELD_OUT_SEED, &mut Spans::off());
        assert!(s.report.is_clean(), "{}: {}", w.name(), s.report);
        assert!(pass(&s, HELD_OUT_SEED)
            .all_points()
            .all(perfbench::ServePoint::sound));
    }
    let s = prefix(Workload::Incep75Sparse2t, HELD_OUT_SEED, 3);
    let gold = golden(&s);
    assert!(bit_exact(&infer(&s), &gold, &golden_records(&gold)));
}

/// The metric names a result line carries, in order.
fn metric_names(result_line: &str) -> Vec<String> {
    let chunks: Vec<&str> = result_line.split(": {\"value\"").collect();
    chunks[..chunks.len() - 1]
        .iter()
        .map(|c| {
            let c = c.trim_end_matches('"');
            c[c.rfind('"').expect("quoted name") + 1..].to_owned()
        })
        .collect()
}

/// The names `BENCHMARK.json` lists under `key`.
fn declared(key: &str) -> Option<Vec<String>> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).ok()?;
    let start = text.find(&format!("\"{key}\""))?;
    let section = &text[start..];
    let end = section.find(']').unwrap_or(section.len());
    Some(
        section[..end]
            .split("\"name\": \"")
            .skip(1)
            .filter_map(|s| s.split('"').next().map(str::to_owned))
            .collect(),
    )
}

#[test]
fn result_lines_name_every_declared_metric() {
    let run = |trace: &str| {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args([
                "--workload",
                "plan_serve_299",
                "--seed",
                "5",
                "--seconds",
                "1",
            ])
            .args(["--trace", trace])
            .output()
            .expect("run the benchmark");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
        let last = stdout.lines().last().expect("a result line").to_owned();
        assert!(
            last.starts_with("{\"correct\": true, \"attempted\": "),
            "{last}"
        );
        metric_names(&last)
    };
    let end_to_end = run("0");
    let per_layer = run("1");
    assert_eq!(end_to_end.len(), 7);
    if let (Some(e), Some(p)) = (declared("end_to_end"), declared("per_layer")) {
        assert_eq!(end_to_end, e);
        assert_eq!(per_layer, p);
    }
}

#[test]
fn bad_arguments_exit_non_zero_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("run the benchmark");
    assert!(!out.status.success());
    assert!(!String::from_utf8_lossy(&out.stdout).contains("\"correct\""));
}
