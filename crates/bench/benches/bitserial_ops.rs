//! Micro-benchmarks of the bit-serial SRAM operations (Section III): the
//! simulator's throughput for the add/multiply/divide/reduce primitives,
//! the TMU transpose path, and the host-side operand staging (`load`: the
//! bulk loader against a per-lane loop, and a grouped lane move). These
//! back the paper's bit-serial-throughput argument: one array operation
//! serves 256 lanes at once.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use nc_sram::{ComputeArray, MicroOps, Operand, TransposeUnit, COLS};

fn prepared_array() -> ComputeArray {
    let mut arr = ComputeArray::with_zero_row(255).expect("zero row");
    let a = Operand::new(0, 8).expect("operand");
    let b = Operand::new(8, 8).expect("operand");
    for lane in 0..COLS {
        arr.poke_lane(lane, a, (lane as u64 * 37) & 0xFF);
        arr.poke_lane(lane, b, (lane as u64 * 11 + 3) & 0xFF);
    }
    arr
}

fn bench_add(c: &mut Criterion) {
    let mut g = c.benchmark_group("bitserial/add8");
    g.throughput(Throughput::Elements(COLS as u64));
    let a = Operand::new(0, 8).unwrap();
    let b = Operand::new(8, 8).unwrap();
    let sum = Operand::new(16, 9).unwrap();
    g.bench_function("256-lane", |bench| {
        let mut arr = prepared_array();
        bench.iter(|| arr.add(a, b, sum).unwrap());
    });
    g.finish();
}

fn bench_mul(c: &mut Criterion) {
    let mut g = c.benchmark_group("bitserial/mul8");
    g.throughput(Throughput::Elements(COLS as u64));
    let a = Operand::new(0, 8).unwrap();
    let b = Operand::new(8, 8).unwrap();
    let prod = Operand::new(16, 16).unwrap();
    g.bench_function("256-lane", |bench| {
        let mut arr = prepared_array();
        bench.iter(|| arr.mul(a, b, prod).unwrap());
    });
    g.finish();
}

fn bench_div(c: &mut Criterion) {
    let mut g = c.benchmark_group("bitserial/div16by9");
    g.throughput(Throughput::Elements(COLS as u64));
    g.bench_function("256-lane", |bench| {
        let num = Operand::new(0, 16).unwrap();
        let quot = Operand::new(16, 16).unwrap();
        let rem = Operand::new(32, 5).unwrap();
        let trial = Operand::new(37, 5).unwrap();
        let mut arr = ComputeArray::with_zero_row(255).unwrap();
        for lane in 0..COLS {
            arr.poke_lane(lane, num, (lane as u64 * 199) & 0xFFFF);
        }
        bench.iter(|| arr.div_scalar(num, 9, quot, rem, trial).unwrap());
    });
    g.finish();
}

fn bench_reduce(c: &mut Criterion) {
    let mut g = c.benchmark_group("bitserial/reduce256x32");
    g.throughput(Throughput::Elements(COLS as u64));
    g.bench_function("tree", |bench| {
        let v = Operand::new(0, 32).unwrap();
        let s = Operand::new(32, 32).unwrap();
        let mut arr = ComputeArray::with_zero_row(255).unwrap();
        for lane in 0..COLS {
            arr.poke_lane(lane, v, lane as u64);
        }
        bench.iter(|| arr.reduce_sum(v, s, COLS).unwrap());
    });
    g.finish();
}

fn bench_max(c: &mut Criterion) {
    let mut g = c.benchmark_group("bitserial/max8");
    g.throughput(Throughput::Elements(COLS as u64));
    let a = Operand::new(0, 8).unwrap();
    let b = Operand::new(8, 8).unwrap();
    let s = Operand::new(16, 8).unwrap();
    g.bench_function("256-lane", |bench| {
        let mut arr = prepared_array();
        bench.iter(|| arr.max_assign(a, b, s, 250).unwrap());
    });
    g.finish();
}

fn bench_load(c: &mut Criterion) {
    let mut g = c.benchmark_group("load");
    g.throughput(Throughput::Bytes(COLS as u64));
    let byte = Operand::new(0, 8).unwrap();
    let bytes: Vec<u8> = (0..COLS).map(|lane| (lane * 37 % 251) as u8).collect();
    g.bench_function("poke_lanes-256-bytes", |bench| {
        let mut arr = ComputeArray::with_zero_row(255).unwrap();
        bench.iter(|| arr.poke_lanes(byte, bytes.iter().map(|&b| u64::from(b))));
    });
    g.bench_function("poke_lane-loop-256-bytes", |bench| {
        let mut arr = ComputeArray::with_zero_row(255).unwrap();
        bench.iter(|| {
            for (lane, &b) in bytes.iter().enumerate() {
                arr.poke_lane(lane, byte, u64::from(b));
            }
        });
    });
    g.bench_function("move_lanes_grouped-32x8", |bench| {
        // One reduction-tree step of eight 32-lane filter groups on a
        // 32-bit segment: move the upper 16 lanes of each group down.
        let (value, scratch) = (Operand::new(8, 32).unwrap(), Operand::new(40, 32).unwrap());
        let mut arr = ComputeArray::with_zero_row(255).unwrap();
        arr.poke_lanes(value, (0..COLS as u64).map(|lane| lane * 1000));
        bench.iter(|| {
            arr.move_lanes_grouped(value, scratch, 16, 16, 32, 8)
                .unwrap()
        });
    });
    g.finish();
}

fn bench_tmu(c: &mut Criterion) {
    let mut g = c.benchmark_group("tmu/transpose256bytes");
    g.throughput(Throughput::Bytes(256));
    g.bench_function("bytes-to-bitslices", |bench| {
        let mut tmu = TransposeUnit::new(8);
        let bytes: Vec<u8> = (0..=255).collect();
        bench.iter(|| tmu.transpose_bytes(&bytes).unwrap());
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_add,
    bench_mul,
    bench_div,
    bench_reduce,
    bench_max,
    bench_load,
    bench_tmu
);
criterion_main!(benches);
