//! Raw in-SRAM bit-serial arithmetic playground: the Figure 2/4/5/6
//! primitives plus search, max/min and division, on one 256-lane compute
//! array.
//!
//! Run with: `cargo run --release --example bitserial_playground`

use neural_cache_repro::sram::{ComputeArray, MicroOps, Operand, COLS};

fn main() {
    let mut arr = ComputeArray::with_zero_row(255).expect("reserve zero row");

    // --- Vector addition (Figure 4): lane i computes i + 2i. ---
    let a = Operand::new(0, 8).unwrap();
    let b = Operand::new(8, 8).unwrap();
    let sum = Operand::new(16, 9).unwrap();
    for lane in 0..COLS {
        arr.poke_lane(lane, a, (lane as u64) % 128);
        arr.poke_lane(lane, b, (2 * lane as u64) % 128);
    }
    let d = arr.add(a, b, sum).unwrap();
    println!(
        "add: 256 lanes in {} cycles; lane 41: {} + {} = {}",
        d.compute_cycles,
        41,
        82,
        arr.peek_lane(41, sum)
    );

    // --- Vector multiplication (Figure 6). ---
    let prod = Operand::new(32, 16).unwrap();
    let d = arr.mul(a, b, prod).unwrap();
    println!(
        "mul: 256 lanes in {} cycles; lane 100: {} * {} = {}",
        d.compute_cycles,
        100,
        200 % 128,
        arr.peek_lane(100, prod)
    );

    // --- Tree reduction (Figure 5): sum of 0..256 on 32-bit segments. ---
    let v = Operand::new(48, 32).unwrap();
    let s = Operand::new(80, 32).unwrap();
    for lane in 0..COLS {
        arr.poke_lane(lane, v, lane as u64);
    }
    let d = arr.reduce_sum(v, s, COLS).unwrap();
    println!(
        "reduce: sum(0..256) = {} in {} cycles (8 tree steps)",
        arr.peek_lane(0, v),
        d.compute_cycles
    );

    // --- Predicated search (Compute Cache legacy op). ---
    let d = arr.search_eq_scalar(a, 77).unwrap();
    let hits = (0..COLS).filter(|&l| arr.tag().get(l)).count();
    println!(
        "search a == 77: {hits} matching lanes in {} cycles",
        d.compute_cycles
    );

    // --- Division (used by average pooling). ---
    let quot = Operand::new(112, 8).unwrap();
    let rem = Operand::new(120, 9).unwrap();
    let trial = Operand::new(129, 9).unwrap();
    let d = arr.div_scalar(a, 9, quot, rem, trial).unwrap();
    println!(
        "div by 9: lane 100: {} / 9 = {} rem {} ({} cycles)",
        100,
        arr.peek_lane(100, quot),
        arr.peek_lane(100, rem),
        d.compute_cycles
    );

    // --- ReLU via MSB-masked zero write (Section IV-D). ---
    let x = Operand::new(140, 16).unwrap();
    arr.poke_lane_signed(0, x, -1234);
    arr.poke_lane_signed(1, x, 1234);
    arr.relu(x).unwrap();
    println!(
        "relu: [-1234, 1234] -> [{}, {}]",
        arr.peek_lane_signed(0, x),
        arr.peek_lane_signed(1, x)
    );

    println!("\ntotal cycles on this array: {}", arr.stats());
}
