//! Ablation of the cost-model choice: paper-published cycle constants vs
//! constants recorded from the `nc-sram` micro-op sequences (README,
//! "Static plan verification").
//! The benchmark reports evaluation throughput for both models, and the
//! setup prints the latency each model predicts so the ablation numbers
//! land in the bench log.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use nc_dnn::inception::inception_v3;
use neural_cache::{time_inference, CostModelKind, SystemConfig};

fn bench_ablation(c: &mut Criterion) {
    let model = inception_v3();
    let mut g = c.benchmark_group("cost_model_ablation");
    for kind in [CostModelKind::Paper, CostModelKind::Derived] {
        let mut config = SystemConfig::xeon_e5_2697_v3();
        config.cost = kind;
        let total = time_inference(&config, &model).total();
        println!(
            "[ablation] {} cost model -> Inception v3 latency {total}",
            config.cost.model().name()
        );
        g.bench_with_input(
            BenchmarkId::new("model", config.cost.model().name()),
            &config,
            |b, cfg| {
                b.iter(|| time_inference(cfg, &model));
            },
        );
    }
    g.finish();
}

criterion_group!(benches, bench_ablation);
criterion_main!(benches);
