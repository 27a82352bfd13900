//! The repository's benchmark: three workloads over the public crate APIs,
//! timed from outside, checked against computations made apart from the
//! program, and reported as one JSON line.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper-fold|city-stream|serve-mix --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` the last line carries the end-to-end metrics; with
//! `--trace 1` the program's JSONL trace is on for the measured window and
//! the line carries the per-layer metrics instead. Earlier lines are a
//! human-readable report. The exit code is 0 only when every check passed.
//! See `perfbench/README.md`.

mod layers;
mod pipeline;
mod report;
mod serve;
mod trace;
mod workloads;

use std::path::PathBuf;

use uvd_obs::alloc::{self, CountingAlloc};

use report::{result_line, Metrics, Ops};
use trace::Tracer;
use workloads::Ctx;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const WORKLOADS: [&str; 3] = ["paper-fold", "city-stream", "serve-mix"];

/// End-to-end metrics: every run with `--trace 0` prints all of them.
const END_TO_END: [&str; 8] = [
    "setup_s",
    "pipeline_s",
    "train_epochs_per_s",
    "build_regions_per_s",
    "predict_regions_per_s",
    "auc",
    "peak_heap_mb",
    "score_p50_ms",
];

/// Per-layer metrics: every run with `--trace 1` prints all of them; a
/// layer the workload does not reach reads 0.
const PER_LAYER: [(&str, &str); 51] = [
    ("citysim.city_ms", "ms"),
    ("urg.build_ms", "ms"),
    ("urg.features_ms", "ms"),
    ("urg.edges_ms", "ms"),
    ("urg.csr_ms", "ms"),
    ("urg.shard_build_ms", "ms"),
    ("urg.build_peak_mb", "MB"),
    ("cmsf.master_epoch_ms", "ms"),
    ("cmsf.slave_epoch_ms", "ms"),
    ("cmsf.record_epoch_ms", "ms"),
    ("cmsf.freeze_ms", "ms"),
    ("cmsf.predict_ms", "ms"),
    ("cmsf.heldout_auc", "ratio"),
    ("cmsf.maga_fwd_ms", "ms"),
    ("cmsf.maga_bwd_ms", "ms"),
    ("cmsf.gscm_fwd_ms", "ms"),
    ("cmsf.gscm_bwd_ms", "ms"),
    ("cmsf.msgate_fwd_ms", "ms"),
    ("cmsf.msgate_bwd_ms", "ms"),
    ("cmsf.head_ms", "ms"),
    ("cmsf.sample_ms", "ms"),
    ("cmsf.prefetch_wait_ms", "ms"),
    ("cmsf.prefetch_hits", "count"),
    ("cmsf.prefetch_misses", "count"),
    ("tensor.gemm_gflops", "GF/s"),
    ("tensor.spmm_gflops", "GF/s"),
    ("tensor.gated_gflops", "GF/s"),
    ("tensor.conv_gflops", "GF/s"),
    ("tensor.dispatch_parallel", "count"),
    ("tensor.dispatch_serial", "count"),
    ("tensor.pack_repack", "count"),
    ("tensor.replays", "count"),
    ("serve.start_ms", "ms"),
    ("serve.score_p99_ms", "ms"),
    ("serve.max_rps", "1/s"),
    ("serve.score_chunk_us", "us"),
    ("serve.batch_ms", "ms"),
    ("serve.batch_fill_rows", "count"),
    ("serve.queue_depth_max", "count"),
    ("serve.update_p50_ms", "ms"),
    ("serve.update_poi_ms", "ms"),
    ("serve.reembed_rows", "count"),
    ("serve.subgraph_rows", "count"),
    ("serve.gen_late_ms", "ms"),
    ("tasks.op_p50_ms", "ms"),
    ("self.pipeline_glue_ms", "ms"),
    ("self.urg_build_ms", "ms"),
    ("self.cmsf_master_ms", "ms"),
    ("self.cmsf_slave_ms", "ms"),
    ("reconcile.stage_share", "ratio"),
    ("trace.overhead_pct", "%"),
];

/// Per-layer metrics that may read 0 on a traced run: layers some
/// workloads do not reach (shards, sampler and prefetch only on
/// city-stream; the ladder, `tasks` and writes over the wire only on
/// serve-mix; parallel dispatch only at the default pool), figures that
/// may be 0 on working
/// code (prefetch wait, the queue depth a batch leaves behind), and the
/// tracing overhead, which may be negative. [`required_per_layer`] adds
/// back the ones a workload is aimed at.
const MAY_BE_ZERO: [&str; 11] = [
    "urg.shard_build_ms",
    "cmsf.sample_ms",
    "cmsf.prefetch_wait_ms",
    "cmsf.prefetch_hits",
    "cmsf.prefetch_misses",
    "tensor.dispatch_parallel",
    "serve.max_rps",
    "serve.update_p50_ms",
    "serve.queue_depth_max",
    "tasks.op_p50_ms",
    "trace.overhead_pct",
];

/// Per-layer metrics the traced run of `workload` must measure, each above
/// 0: a span or counter the workload exercises that goes missing fails the
/// run instead of reading 0.
fn required_per_layer(workload: &str, kernel_threads: usize) -> Vec<&'static str> {
    let mut need: Vec<&str> = PER_LAYER
        .iter()
        .map(|(name, _)| *name)
        .filter(|name| !MAY_BE_ZERO.contains(name))
        .collect();
    match workload {
        "city-stream" => need.extend(["urg.shard_build_ms", "cmsf.sample_ms"]),
        "serve-mix" => need.extend(["serve.max_rps", "serve.update_p50_ms", "tasks.op_p50_ms"]),
        _ => {}
    }
    if kernel_threads > 1 {
        need.push("tensor.dispatch_parallel");
    }
    need
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds = seconds.unwrap_or(30.0);
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".to_string());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// Clear every inherited `UVD_*` variable, so that nothing outside the
/// benchmark changes what runs: `Cmsf::new` lets
/// `UVD_BATCH`/`UVD_SAMPLE_FANOUT`/`UVD_PREFETCH` override the config, and
/// `UVD_THREADS`, `UVD_TRACE`, `UVD_FAST_MATH`, `UVD_GEMM_ISA` and
/// `UVD_SERVE_*` change the kernels, tracing and serving options. Then set
/// `UVD_THREADS=1`, unless the run measures the default pool (the traced
/// runs of city-stream and serve-mix, see [`default_pool`]). Runs before
/// any other thread exists and before the program reads any of them.
fn pin_env(default_pool: bool) -> (Vec<String>, Vec<(&'static str, &'static str)>) {
    let cleared: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("UVD_"))
        .collect();
    for k in &cleared {
        std::env::remove_var(k);
    }
    let set: Vec<(&str, &str)> = if default_pool {
        vec![]
    } else {
        vec![("UVD_THREADS", "1")]
    };
    for (k, v) in &set {
        std::env::set_var(k, v);
    }
    (cleared, set)
}

/// Whether a run measures the program's default pool, unpinned: the traced
/// runs of city-stream and serve-mix, whose per-layer figures (parallel
/// dispatches, the prefetch thread overlapping training, the parallel
/// build, two workers on two cores) exist only there. Their figures carry
/// no bound. Every untraced run, and paper-fold's traced run, is pinned to
/// one CPU at one kernel thread (see [`pin_to_one_cpu`]).
fn default_pool(workload: &str, trace: bool) -> bool {
    trace && workload != "paper-fold"
}

/// Pin the process to one CPU: the highest one it may run on. Called
/// while the process has a single thread, so every thread it starts later
/// inherits the mask. Returns the CPU, or `None` where pinning is not
/// available (the run then goes unpinned and the header says so).
///
/// One CPU because the reference host is a 2-vCPU guest whose CPUs are
/// stolen by neighbouring guests in bursts: a request path that wakes
/// threads across both CPUs, or kernels that occupy both, measured the
/// host's steal more than the program (see README, "Why one CPU").
#[cfg(target_os = "linux")]
fn pin_to_one_cpu() -> Option<usize> {
    // A `cpu_set_t`: 1024 CPUs, one bit each.
    type CpuSet = [u64; 16];
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
    }
    let mut allowed: CpuSet = [0; 16];
    // SAFETY: the kernel writes at most `size_of::<CpuSet>()` bytes into
    // `allowed`, which is exactly that large; pid 0 is this thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut allowed) } != 0 {
        return None;
    }
    let cpu = (0..1024)
        .rev()
        .find(|&c| allowed[c / 64] >> (c % 64) & 1 == 1)?;
    let mut one: CpuSet = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a valid `CpuSet` of the size passed; the kernel only
    // reads it.
    let ok = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &one) } == 0;
    ok.then_some(cpu)
}

#[cfg(not(target_os = "linux"))]
fn pin_to_one_cpu() -> Option<usize> {
    None
}

/// The GEMM tier the runtime selects with `UVD_GEMM_ISA` unset (the same
/// detection order as `uvd_tensor`'s GEMM driver).
fn gemm_isa() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            return "avx512";
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            return "avx2";
        }
    }
    "scalar"
}

/// Where the traced run writes the program's JSONL trace: under the build
/// directory of the checkout.
fn trace_path(workload: &str) -> PathBuf {
    let dir = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("perfbench/target"));
    dir.join("perfbench")
        .join(format!("trace-{workload}.jsonl"))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let pool = default_pool(&args.workload, args.trace);
    let (cleared, set) = pin_env(pool);
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let pinned = if pool { None } else { pin_to_one_cpu() };
    let threads = uvd_tensor::par::effective_threads();
    let env: Vec<String> = set.iter().map(|(k, v)| format!("{k}={v}")).collect();
    println!(
        "# perfbench workload={} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    println!(
        "# host nproc={nproc} pinned_cpu={} kernel_threads={threads} gemm_isa={} rustc=\"{}\"",
        pinned.map_or("none".to_string(), |c| c.to_string()),
        gemm_isa(),
        env!("PERFBENCH_RUSTC")
    );
    println!(
        "# env set=[{}] cleared=[{}]",
        env.join(" "),
        cleared.join(" ")
    );

    let mut ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        traced: args.trace,
        trace_path: trace_path(&args.workload),
        ops: Ops::default(),
        m: Metrics::default(),
        tracer: Tracer::new(),
        notes: Vec::new(),
    };
    match args.workload.as_str() {
        "paper-fold" => workloads::paper_fold(&mut ctx),
        "city-stream" => workloads::city_stream(&mut ctx),
        "serve-mix" => workloads::serve_mix(&mut ctx),
        _ => unreachable!("workload validated"),
    }
    ctx.m
        .set("peak_heap_mb", alloc::peak_bytes() as f64 / 1e6, "MB");

    for note in &ctx.notes {
        println!("# {note}");
    }
    println!("# ops {}", ctx.ops.summary());
    let mut missing = Vec::new();
    let out = if args.trace {
        let need = required_per_layer(&args.workload, threads);
        let mut m = Metrics::default();
        for (name, unit) in PER_LAYER {
            let value = ctx.m.get(name);
            if need.contains(&name) && !value.is_some_and(|v| v > 0.0) {
                missing.push(name);
            }
            m.set(name, value.unwrap_or(0.0), unit);
        }
        // Every sampled batch is either a prefetch hit or a miss.
        let batches = m.get("cmsf.prefetch_hits").unwrap_or(0.0)
            + m.get("cmsf.prefetch_misses").unwrap_or(0.0);
        if args.workload == "city-stream" && batches <= 0.0 {
            missing.push("cmsf.prefetch_hits + cmsf.prefetch_misses");
        }
        m
    } else {
        for name in END_TO_END {
            if ctx.m.get(name).is_none_or(|v| v <= 0.0) {
                missing.push(name);
            }
        }
        ctx.m.select(&END_TO_END)
    };
    for (name, value, unit) in ctx.m.iter() {
        println!("# metric {name} = {value} {unit}");
    }
    if !missing.is_empty() {
        ctx.ops.check(
            false,
            &format!("every metric the workload exercises is measured: missing {missing:?}"),
        );
    }
    let correct = ctx.ops.correct() && ctx.ops.attempted() > 0;
    println!("{}", result_line(correct, &ctx.ops, &out));
    std::process::exit(if correct { 0 } else { 1 });
}
