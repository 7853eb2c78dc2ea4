//! Integration test of the S19 validation harness: the bit-serial in-cache
//! executor must agree with the golden integer executor bit-for-bit on
//! randomized networks (the paper's TensorFlow-trace matching, Section V).

use neural_cache_repro::cache::functional;
use neural_cache_repro::cache::ExecutionEngine;
use neural_cache_repro::dnn::reference;
use neural_cache_repro::dnn::workload::{
    mini_inception, random_conv, random_input, single_conv_model, tiny_cnn,
};
use neural_cache_repro::dnn::{Model, Padding, Shape};

fn assert_bit_exact(model: &Model, input_seed: u64) {
    let input = random_input(model.input_shape, model.input_quant, input_seed);
    let golden = reference::run_model(model, &input);
    let ours = functional::run_model(model, &input).expect("functional execution");
    assert_eq!(
        golden.output.data(),
        ours.output.data(),
        "{}: outputs differ",
        model.name
    );
    let golden_recs: Vec<_> = golden.layers.iter().flat_map(|l| &l.sublayers).collect();
    assert_eq!(ours.sublayers.len(), golden_recs.len());
    for (a, b) in ours.sublayers.iter().zip(golden_recs) {
        assert_eq!(&a, &b, "{}: record mismatch at {}", model.name, a.name);
    }
}

#[test]
fn tiny_cnn_is_bit_exact_across_seeds() {
    for seed in [1u64, 17, 99] {
        assert_bit_exact(&tiny_cnn(seed), seed * 31 + 5);
    }
}

#[test]
fn mini_inception_is_bit_exact_across_seeds() {
    // Covers the orchestration paths Inception v3 needs that tiny_cnn does
    // not: terminal splits (Mixed 7b/7c pattern), raw max-pool branches
    // concatenated via code requantization (Mixed 6a/7a pattern), and
    // block-shared output ranges across four branches.
    for seed in [3u64, 42] {
        assert_bit_exact(&mini_inception(seed), seed * 13 + 1);
    }
}

#[test]
fn kernel_zoo_is_bit_exact() {
    // One of each kernel family Inception v3 uses.
    let cases: Vec<(Model, u64)> = vec![
        (
            single_conv_model(
                random_conv("k3s2", (3, 3), 3, 4, 2, Padding::Valid, true, 41),
                Shape::new(9, 9, 3),
            ),
            141,
        ),
        (
            single_conv_model(
                random_conv("k5", (5, 5), 4, 2, 1, Padding::Same, true, 42),
                Shape::new(7, 7, 4),
            ),
            142,
        ),
        (
            single_conv_model(
                random_conv("k1pack", (1, 1), 48, 3, 1, Padding::Valid, true, 43),
                Shape::new(4, 4, 48),
            ),
            143,
        ),
        (
            single_conv_model(
                random_conv("k1x7", (1, 7), 6, 2, 1, Padding::Same, true, 44),
                Shape::new(8, 8, 6),
            ),
            144,
        ),
        (
            single_conv_model(
                random_conv("logits", (1, 1), 32, 10, 1, Padding::Valid, false, 45),
                Shape::new(1, 1, 32),
            ),
            145,
        ),
    ];
    for (model, seed) in &cases {
        assert_bit_exact(model, *seed);
    }
}

#[test]
fn inception_stem_slice_is_bit_exact() {
    // The first Inception v3 convolution at reduced spatial size: same
    // channel geometry (3 -> 32, 3x3 stride 2 VALID) as Conv2d_1a_3x3.
    let model = single_conv_model(
        random_conv(
            "Conv2d_1a_3x3_slice",
            (3, 3),
            3,
            32,
            2,
            Padding::Valid,
            true,
            7,
        ),
        Shape::new(11, 11, 3),
    );
    assert_bit_exact(&model, 70);
}

#[test]
fn threaded_engine_is_bit_exact_on_mini_inception() {
    // The Inception v3 functional proxy under the sharded Threaded backend:
    // outputs, records and cycle counts must be identical to Sequential
    // (which assert_bit_exact already pinned to the golden executor).
    let model = mini_inception(3);
    let input = random_input(model.input_shape, model.input_quant, 40);
    let seq = functional::run_model(&model, &input).expect("sequential execution");
    let thr = functional::run_model_with(&model, &input, ExecutionEngine::from_threads(4))
        .expect("threaded execution");
    assert_eq!(seq.output.data(), thr.output.data(), "outputs diverged");
    assert_eq!(seq.sublayers, thr.sublayers, "records diverged");
    assert_eq!(seq.cycles, thr.cycles, "cycle accounting diverged");
}

#[test]
fn facade_parallelism_knob_reaches_the_functional_executor() {
    use neural_cache_repro::cache::{NeuralCache, SystemConfig};
    let model = tiny_cnn(9);
    let input = random_input(model.input_shape, model.input_quant, 90);
    let seq = NeuralCache::new(SystemConfig::xeon_e5_2697_v3())
        .run_functional(&model, &input)
        .expect("sequential facade run");
    let thr = NeuralCache::new(SystemConfig::with_parallelism(3))
        .run_functional(&model, &input)
        .expect("threaded facade run");
    assert_eq!(seq.output, thr.output);
    assert_eq!(seq.cycles, thr.cycles);
}

#[test]
fn functional_executor_reports_cycle_work() {
    let model = tiny_cnn(3);
    let input = random_input(model.input_shape, model.input_quant, 30);
    let result = functional::run_model(&model, &input).expect("functional execution");
    // Bit-serial execution must do real work: thousands of compute cycles
    // for even a tiny CNN.
    assert!(result.cycles.compute_cycles > 10_000);

    // Filters wider than one array additionally incur inter-array access
    // cycles for the cross-array reduction fold.
    let wide = single_conv_model(
        random_conv("wide", (3, 3), 300, 1, 1, Padding::Valid, true, 8),
        Shape::new(3, 3, 300),
    );
    let input = random_input(wide.input_shape, wide.input_quant, 80);
    let result = functional::run_model(&wide, &input).expect("functional execution");
    assert!(
        result.cycles.access_cycles > 0,
        "cross-array transfers counted"
    );
}

#[test]
fn op_spans_follow_the_shard_graph_epoch_by_epoch() {
    // The executor dispatches the epochs its leaf steps build with the job
    // plan's constructors, and the shard graph expands the plan those same
    // constructors produce over the same walk: every `functional.op` span
    // must be the dispatch of the shard graph's epoch at the same position.
    use neural_cache_repro::cache::SparsityMode;
    use neural_cache_repro::telemetry::{Level, Telemetry};
    use neural_cache_repro::verify::shard::{EpochKind, ShardGraph};
    for model in [tiny_cnn(5), mini_inception(3)] {
        let epochs: Vec<EpochKind> = ShardGraph::from_model(&model)
            .epochs
            .iter()
            .map(|e| e.kind)
            .collect();
        let input = random_input(model.input_shape, model.input_quant, 7);
        for engine in [
            ExecutionEngine::Sequential,
            ExecutionEngine::from_threads(2),
        ] {
            let tel = Telemetry::enabled(Level::Detail);
            functional::run_model_traced(&model, &input, engine, SparsityMode::Dense, &tel)
                .expect("traced run");
            let ops: Vec<EpochKind> = tel
                .span_sequence("functional.op")
                .iter()
                .map(|op| match op.as_str() {
                    "mac-reduce" => EpochKind::Mac,
                    "ranging" => EpochKind::Ranging,
                    "requantize" => EpochKind::Requant,
                    "code-requant" => EpochKind::CodeRequant,
                    "pool-max" | "pool-avg" => EpochKind::Pool,
                    other => panic!("unknown op span {other}"),
                })
                .collect();
            assert_eq!(ops, epochs, "{} on {engine:?}", model.name);
        }
    }
}
