//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! With `--trace 0` the workload is set up, runs one untimed warm-up
//! operation, after which the peak RSS is read, and is set up again several
//! times (the median set-up time is `setup_s`). Then timed operations run for `--seconds` seconds: whole
//! operations only, at least one, and another only while it is expected to
//! end inside the window. `plan_serve_299` runs one such loop per core and
//! `op_s` averages the loops' medians. Correctness checks run
//! after the timed region.
//! With `--trace 1` the workload runs once under host-time spans and
//! `nc-telemetry` at detail level, the per-layer metrics are derived, and a
//! Perfetto-loadable Chrome trace is written under `perfbench/out/`.
//!
//! The last line of standard output is the result:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! The exit code is non-zero when any check failed.

use std::process::ExitCode;
use std::time::Instant;

use nc_telemetry::Telemetry;
use neural_cache::functional::{FunctionalError, FunctionalResult};
use perfbench::spans::Spans;
use perfbench::{
    bit_exact, golden, golden_records, infer, median, nproc, peak_rss_mb, plan_serve, result_line,
    setup, traced, Metric, PlanServe, Setup, Workload, P99_RATE, PAPER_LATENCY_MS, PAPER_PEAK_IPS,
};

/// A measured run sets the workload up at least this many times, and
/// keeps going until the set-ups took [`SETUP_MIN_S`]; `setup_s` is their
/// median.
const SETUP_REPS: usize = 3;
const SETUP_MIN_S: f64 = 2.0;

const USAGE: &str = "usage: perfbench --workload <incep75_sparse_2t|plan_serve_299> \
     --seed <u64> --seconds <1..=600> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = get("--workload")?;
    let workload =
        Workload::parse(&workload).ok_or_else(|| format!("unknown workload {workload:?}"))?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: u64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(1..=600).contains(&seconds) {
        return Err("--seconds must be in 1..=600".into());
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Pins glibc's mmap threshold. By default glibc raises the threshold
/// whenever a large block is freed, so whether later large buffers come
/// from the heap or from fresh mappings, and with it the peak RSS, depends
/// on allocation history; with a fixed threshold `peak_rss_mb` repeats.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn pin_mmap_threshold() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_MMAP_THRESHOLD: i32 = -3;
    // SAFETY: `mallopt` takes two integers and only updates allocator
    // parameters; it runs before the process starts any other thread.
    unsafe {
        mallopt(M_MMAP_THRESHOLD, 128 * 1024);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn pin_mmap_threshold() {}

fn main() -> ExitCode {
    pin_mmap_threshold();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // The threaded engine, or one timed loop per core; a traced run of the
    // sequential workload runs one loop.
    let threads = match args.workload {
        Workload::Incep75Sparse2t => nproc(),
        _ if args.trace => 1,
        w => replicas(w),
    };
    println!(
        "host: {{\"nproc\": {}, \"threads\": {threads}, \"oversubscribed\": {}, \"profile\": \"{}\", \"rustc\": \"{}\"}}",
        nproc(),
        threads > nproc(),
        env!("PERFBENCH_PROFILE"),
        env!("PERFBENCH_RUSTC")
    );
    let (attempted, failed, metrics) = if args.trace {
        match run_traced(&args) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("perfbench: writing the trace failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        run_measured(&args)
    };
    for m in &metrics {
        println!("{:<44} {:>18.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "fail_frac: {failed}/{attempted} = {:.4}",
        failed as f64 / attempted as f64
    );
    println!("{}", result_line(attempted, failed, &metrics));
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run_traced(args: &Args) -> std::io::Result<(u64, u64, Vec<Metric>)> {
    let t = traced::run(args.workload, args.seed);
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("trace-{}-{}.json", args.workload.name(), args.seed));
    std::fs::write(&path, &t.trace)?;
    println!("trace: {}", path.display());
    Ok((t.attempted, t.failed, t.metrics))
}

/// How many copies of the timed loop run at once. The host's cores are
/// slowed by other tenants partly independently of each other, so the
/// sequential workload runs one loop per core and averages them, as the
/// threaded workload's engine spreads its work over every core; that
/// workload runs one loop.
fn replicas(w: Workload) -> usize {
    match w {
        Workload::Incep75Sparse2t => 1,
        _ => nproc(),
    }
}

/// What a loop of operations did.
#[derive(Default)]
struct Timed {
    op_s: Vec<f64>,
    inferences: Vec<Result<FunctionalResult, FunctionalError>>,
    passes: Vec<PlanServe>,
}

impl Timed {
    /// Runs one operation, keeps its result and time.
    fn run_op(&mut self, s: &Setup, seed: u64) {
        let t = Instant::now();
        if s.input.is_some() {
            self.inferences.push(infer(s));
        } else {
            let off = Telemetry::disabled();
            self.passes.push(plan_serve(
                &s.config,
                &s.model,
                seed,
                &off,
                &mut Spans::off(),
            ));
        }
        self.op_s.push(t.elapsed().as_secs_f64());
    }
}

/// Runs whole operations until another is expected to end after
/// `window_s` seconds from `start`: at least one.
fn timed_loop(s: &Setup, seed: u64, start: Instant, window_s: f64) -> Timed {
    let mut t = Timed::default();
    loop {
        t.run_op(s, seed);
        if start.elapsed().as_secs_f64() + median(&t.op_s) > window_s {
            return t;
        }
    }
}

fn run_measured(args: &Args) -> (u64, u64, Vec<Metric>) {
    let w = args.workload;
    let timed_setup = || {
        let t = Instant::now();
        let s = setup(w, args.seed, &mut Spans::off());
        (s, t.elapsed().as_secs_f64())
    };
    let (s, first_s) = timed_setup();
    let mut setup_s = vec![first_s];

    // One untimed operation warms caches and the allocator. The peak RSS is
    // read after it: with a loop per core, whether the loops' largest
    // buffers overlap in time would move it.
    let mut warm = Timed::default();
    warm.run_op(&s, args.seed);
    let peak_rss = peak_rss_mb();
    while setup_s.len() < SETUP_REPS || setup_s.iter().sum::<f64>() < SETUP_MIN_S {
        setup_s.push(timed_setup().1);
    }

    // Timed region: whole operations, nothing else, on every loop.
    let window_s = args.seconds as f64;
    let start = Instant::now();
    let timed: Vec<Timed> = std::thread::scope(|scope| {
        let loops: Vec<_> = (0..replicas(w))
            .map(|_| scope.spawn(|| timed_loop(&s, args.seed, start, window_s)))
            .collect();
        loops
            .into_iter()
            .map(|l| l.join().expect("a timed loop panicked"))
            .collect()
    });
    let timed_s = start.elapsed().as_secs_f64();
    // `op_s` is the mean over the loops of each loop's median; a median
    // over the pooled operations would follow whichever core ran more.
    let per_loop: Vec<f64> = timed.iter().map(|t| median(&t.op_s)).collect();
    let op_s = per_loop.iter().sum::<f64>() / per_loop.len() as f64;
    let ops: usize = timed.iter().map(|t| t.op_s.len()).sum();
    let mut inferences = warm.inferences;
    let mut passes = warm.passes;
    for t in timed {
        inferences.extend(t.inferences);
        passes.extend(t.passes);
    }

    // Correctness, outside the timed region.
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut check = |ok: bool| {
        attempted += 1;
        failed += u64::from(!ok);
    };
    check(s.report.is_clean());
    let mut sim_cycles = None;
    if w.functional() {
        let gold = golden(&s);
        let records = golden_records(&gold);
        let first = inferences[0].as_ref().ok().map(|r| r.cycles);
        for r in &inferences {
            // Bit-identical to the reference, and the same counters every time.
            check(bit_exact(r, &gold, &records) && r.as_ref().ok().map(|r| r.cycles) == first);
        }
        sim_cycles = first.map(|c| c.compute_cycles);
        passes.push(plan_serve(
            &s.config,
            &s.model,
            args.seed,
            &Telemetry::disabled(),
            &mut Spans::off(),
        ));
    }
    for p in &passes {
        for point in p.all_points() {
            check(point.sound());
        }
        check(*p == passes[0]);
    }
    let ps = &passes[0];

    let latency_ms = ps.latency_ms();
    let peak_ips = ps.peak().throughput_ips;
    let what = if w.functional() {
        "bit-exact inference"
    } else {
        "plan-and-serve pass"
    };
    println!(
        "timed: {ops} {what}(s) on {} loop(s) in {:.3} s, median per loop {per_loop:.4?} s; {} set-ups",
        per_loop.len(),
        timed_s,
        setup_s.len()
    );
    if let Some(c) = sim_cycles {
        println!(
            "sim_cycles: {c} executed compute cycles per inference (per layer under --trace 1)"
        );
        println!("note: every functional run starts with an empty ArrayPool.");
    }
    if w == Workload::PlanServe299 {
        println!(
            "sim_latency_ms {latency_ms:.4} vs paper {PAPER_LATENCY_MS} ms (Table IV / Fig. 15): relative error {:+.1}%",
            100.0 * (latency_ms / PAPER_LATENCY_MS - 1.0)
        );
        println!(
            "sim_peak_ips {peak_ips:.1} vs paper {PAPER_PEAK_IPS} inf/s (Fig. 16): relative error {:+.1}%",
            100.0 * (peak_ips / PAPER_PEAK_IPS - 1.0)
        );
    } else {
        println!("note: simulated timing and serving here price the 75x75 model; the paper's values are for 299x299.");
    }
    println!("note: the timing model is not validated against real hardware.");
    println!("note: serving slices start cold and pay the filter load on their first batch.");

    let metrics = vec![
        Metric::new("setup_s", median(&setup_s), "s"),
        Metric::new("op_s", op_s, "s"),
        Metric::new("peak_rss_mb", peak_rss, "MiB"),
        Metric::new("sim_latency_ms", latency_ms, "sim_ms"),
        Metric::new("sim_peak_ips", peak_ips, "inf/sim_s"),
        Metric::new("serve_p99_ms", ps.point(P99_RATE).summary.p99_ms, "sim_ms"),
        Metric::new("serve_max_rps", ps.max_rps, "req/sim_s"),
    ];
    (attempted, failed, metrics)
}
