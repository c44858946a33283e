//! The traced run: the workload's programs go through the crates' public
//! functions *in process*, a span around each call, and a fixed set of
//! probes touches every layer. None of these numbers is gated.
//!
//! Workload-specific: everything measured on the workload's own programs
//! (`core.compiler_warm_ms` through `rc.*`, `native.*`, and the fork-join
//! counters of their profiled run). The same on every workload: the
//! schedule probe, pool and region costs, the `cmm-runtime` kernels, the
//! serve session and the tuner probe. They run on every workload because
//! the driver's contract has every traced run print every per-layer
//! metric, and a number is either measured or not printed.

use std::collections::BTreeMap;
use std::io;
use std::process::Command;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cmm::core::{Compiler, Registry};
use cmm::forkjoin::{deque_makespan, ForkJoinPool, Schedule};
use cmm::grammar::Cst;
use cmm::loopir::{Interp, IrProgram, Limits, Tier};
use cmm::rc::RcBuf;
use cmm::runtime::kernels;
use cmm::serve::{PoolCache, Request, Response};

use crate::gen::{self, Class, Expect, Program, Stream};
use crate::harness::Tally;
use crate::serve::{all_at_once, json_u64, response_ok, Connection, Done, Server};
use crate::trace::{self, Tracer};
use crate::workloads::{
    self, IMBALANCED_DIRECTIVE, IMBALANCED_ROWS, IMBALANCED_WIDTH, MATMUL_N, WIDE_FILES, WIDE_SETS,
};
use crate::{canary, proc, stats, Metric, Options, Report};

const EXTENSIONS: [&str; 5] = [
    "ext-matrix",
    "ext-tuples",
    "ext-rcptr",
    "ext-transform",
    "ext-cilk",
];
/// The passes `Compiler::compile_metered` times, and the span each is
/// recorded as: the layer is the crate that does the pass's work.
const PASS_SPANS: [(&str, &str); 6] = [
    ("parse", "grammar.parse"),
    ("build", "lang.build"),
    ("check", "lang.check"),
    ("optimize", "lang.optimize"),
    ("lower", "lang.lower"),
    ("emit", "loopir.emit"),
];

fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64() * 1e3)
}

/// Median of `reps` timings of `f`, in milliseconds.
fn median_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    stats::median(&(0..reps).map(|_| timed(&mut f).1).collect::<Vec<_>>())
}

fn cst_nodes(cst: &Cst) -> u64 {
    1 + cst.children().iter().map(cst_nodes).sum::<u64>()
}

/// The programs a workload's operations run.
fn programs(workload: &str, seed: u64) -> Vec<Program> {
    match workload {
        "matmul_dense" => vec![gen::matmul(seed, MATMUL_N)],
        "imbalanced_fold" => vec![gen::imbalanced(
            seed,
            IMBALANCED_ROWS,
            IMBALANCED_WIDTH,
            IMBALANCED_DIRECTIVE,
        )],
        "compile_wide" => (0..WIDE_FILES)
            .map(|i| gen::wide_file(seed, i, WIDE_SETS))
            .collect(),
        _ => {
            let (small, medium) = gen::hot_sources(seed);
            small.into_iter().chain(medium).collect()
        }
    }
}

struct Traced<'a> {
    opts: &'a Options,
    tally: Tally,
    metrics: Vec<Metric>,
    canaries: Vec<f64>,
    /// Metrics omitted, and why.
    flags: Vec<String>,
}

impl Traced<'_> {
    fn put(&mut self, name: &str, unit: &'static str, value: f64) {
        self.metrics.push(Metric::plain(name, unit, value));
    }

    fn check(&mut self, got: &str, program: &Program) {
        let expected = if self.opts.corrupt_reference {
            format!("9{}", program.expected)
        } else {
            program.expected.clone()
        };
        self.tally.record(got == expected);
    }

    /// A canary reading between two sections: `host.canary_ms` says how
    /// quiet the host was while the layers were measured.
    fn canary(&mut self) {
        self.canaries.push(canary::read(self.opts.threads));
    }
}

/// One program through every layer, a span around each public call.
/// With a disabled tracer this is the same work untraced. Returns the
/// output. The compiler's passes are not called one by one: the spans
/// inside `core.compile_metered` are the pass times that call returns.
/// Each intermediate form is dropped under a span of the layer that
/// built it — freeing a large program is that layer's cost too.
fn pipeline(
    tr: &mut Tracer,
    registry: &Registry,
    program: &Program,
    threads: usize,
) -> Result<String, String> {
    let compiler = tr
        .span("core.compiler", |_| registry.compiler(&EXTENSIONS))
        .map_err(|e| e.to_string())?;
    let compile = tr.spans.len();
    let (ir, metrics) = tr
        .span("core.compile_metered", |_| {
            compiler.compile_metered(&program.src)
        })
        .map_err(|e| e.to_string())?;
    let passes: Vec<_> = PASS_SPANS
        .iter()
        .filter_map(|(pass, span)| Some((*span, metrics.pass(pass)?.nanos as f64 / 1e3)))
        .collect();
    tr.reported(compile, &passes);
    let pool = tr.span("forkjoin.pool_new", |_| {
        Arc::new(ForkJoinPool::new(threads))
    });
    let interp = tr.span("loopir.interp_new", |_| {
        Interp::with_pool(&ir, pool).with_tier(Tier::Vm)
    });
    let ran = tr.span("loopir.vm_exec", |_| interp.run_main().map(drop));
    let output = interp.output();
    tr.span("loopir.drop", |_| drop(interp));
    tr.span("loopir.drop", |_| drop(ir));
    tr.span("core.drop", |_| drop(compiler));
    ran.map_err(|e| e.to_string())?;
    Ok(output)
}

/// Execute a compiled program; milliseconds of `run_main` alone.
fn exec_ms(ir: &IrProgram, threads: usize, tier: Tier, schedule: Schedule) -> (String, f64) {
    let interp = Interp::new(ir, threads)
        .with_schedule(schedule)
        .with_tier(tier);
    let (result, ms) = timed(|| interp.run_main());
    (
        if result.is_ok() {
            interp.output()
        } else {
            String::new()
        },
        ms,
    )
}

pub fn run_traced(opts: &Options) -> io::Result<Report> {
    let t = opts.threads;
    let reps = if opts.quick { 1 } else { 3 };
    let dir = crate::scratch_dir(&opts.root, &opts.workload)?;
    let cmmc = crate::cmmc_path(&opts.root)?;
    let mut x = Traced {
        opts,
        tally: Tally::default(),
        metrics: Vec::new(),
        canaries: Vec::new(),
        flags: Vec::new(),
    };
    let mut tr = Tracer::new(true);
    x.canary();

    // ── core: the first composition in this process builds the LALR
    // tables; later ones find them in the parser cache.
    let (registry, compiler) = tr.op("core.registry_cold", |_| {
        let registry = Registry::standard();
        let compiler = registry
            .compiler(&EXTENSIONS)
            .expect("the standard composition");
        (registry, compiler)
    });
    x.put(
        "core.registry_cold_ms",
        "ms",
        tr.last_ms("core.registry_cold").unwrap_or(0.0),
    );

    // ── the workload's programs through every layer, traced and not.
    let programs = programs(&opts.workload, opts.seed);
    let mut by_span: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let (mut traced_ms, mut untraced_ms, mut unattributed) = (Vec::new(), Vec::new(), Vec::new());
    // At least `reps` operations, and for light workloads as many as fit
    // in two seconds, so that the traced/untraced difference is not noise.
    let began = Instant::now();
    while traced_ms.len() < reps
        || (traced_ms.len() < 15 && began.elapsed() < Duration::from_secs(2) && !opts.quick)
    {
        let mut off = Tracer::new(false);
        let (_, plain) = timed(|| {
            for p in &programs {
                let _ = pipeline(&mut off, &registry, p, t);
            }
        });
        untraced_ms.push(plain);
        let first = tr.spans.len();
        let outputs: Vec<_> = tr.op("bench.pipeline", |tr| {
            programs
                .iter()
                .map(|p| pipeline(tr, &registry, p, t))
                .collect()
        });
        for (out, p) in outputs.iter().zip(&programs) {
            x.check(out.as_deref().unwrap_or(""), p);
        }
        let root = &tr.spans[first];
        traced_ms.push(root.duration_us() / 1e3);
        unattributed.push(
            trace::layer_self_ms(&tr.spans, root.op)["bench"] / (root.duration_us() / 1e3) * 100.0,
        );
        let mut sums: BTreeMap<&'static str, f64> = BTreeMap::new();
        for s in &tr.spans[first + 1..] {
            *sums.entry(s.name).or_default() += s.duration_us() / 1e3;
        }
        for (name, ms) in sums {
            by_span.entry(name).or_default().push(ms);
        }
    }
    x.canary();
    let span_ms = |name: &str| stats::median(&by_span[name]);
    let source_bytes: usize = programs.iter().map(|p| p.src.len()).sum();
    x.put("core.compiler_warm_ms", "ms", span_ms("core.compiler"));
    let cache = compiler.parser_cache_stats();
    x.put(
        "core.parser_cache_hit_ratio",
        "ratio",
        cache.hits as f64 / (cache.hits + cache.misses).max(1) as f64,
    );
    x.put("grammar.parse_ms", "ms", span_ms("grammar.parse"));
    x.put(
        "grammar.parse_mb_s",
        "MB/s",
        source_bytes as f64 / 1e6 / (span_ms("grammar.parse") / 1e3),
    );
    let nodes: u64 = programs
        .iter()
        .map(|p| compiler.parser().parse(&p.src).map_or(0, |c| cst_nodes(&c)))
        .sum();
    x.put("grammar.cst_nodes", "count", nodes as f64);
    x.put("lang.build_ms", "ms", span_ms("lang.build"));
    x.put("lang.check_ms", "ms", span_ms("lang.check"));
    x.put("lang.optimize_ms", "ms", span_ms("lang.optimize"));
    x.put("lang.lower_ms", "ms", span_ms("lang.lower"));
    // Counts come from what the public calls already return.
    let (mut fusions, mut ir_stmts, mut emit_bytes) = (0, 0, 0);
    let mut irs = Vec::new();
    for p in &programs {
        let (ir, m) = compiler
            .compile_metered(&p.src)
            .map_err(|e| io::Error::other(e.to_string()))?;
        let items = |pass: &str| m.pass(pass).map_or(0, |p| p.items);
        fusions += items("optimize");
        ir_stmts += items("lower");
        emit_bytes += items("emit");
        irs.push(ir);
    }
    x.put("lang.fusions", "count", fusions as f64);
    x.put("lang.ir_stmts", "count", ir_stmts as f64);
    x.put("loopir.emit_ms", "ms", span_ms("loopir.emit"));
    x.put("loopir.emit_bytes", "bytes", emit_bytes as f64);
    x.put("loopir.interp_new_ms", "ms", span_ms("loopir.interp_new"));
    x.put("loopir.vm_exec_ms", "ms", span_ms("loopir.vm_exec"));

    // One thread, both tiers.
    let all = |x: &mut Traced, threads: usize, tier: Tier| -> f64 {
        let mut total = 0.0;
        for (ir, p) in irs.iter().zip(&programs) {
            let (out, ms) = exec_ms(ir, threads, tier, Schedule::Static);
            x.check(&out, p);
            total += ms;
        }
        total
    };
    let vm_t1 = stats::median(
        &(0..reps.min(2))
            .map(|_| all(&mut x, 1, Tier::Vm))
            .collect::<Vec<_>>(),
    );
    let tree_t1 = all(&mut x, 1, Tier::Tree);
    x.canary();
    x.put("loopir.vm_exec_t1_ms", "ms", vm_t1);
    x.put("loopir.tree_exec_t1_ms", "ms", tree_t1);
    x.put("loopir.vm_over_tree", "ratio", tree_t1 / vm_t1);
    let speedup = vm_t1 / span_ms("loopir.vm_exec");
    x.put("forkjoin.speedup_t2", "ratio", speedup);
    x.put("forkjoin.efficiency_t2", "ratio", speedup / t as f64);

    // The profiled run: step, memory, pool and rc counters.
    let (mut steps, mut peak, mut allocations, mut leaked) = (0u64, 0u64, 0u64, 0u64);
    let (mut chunks, mut steals, mut steal_failures, mut barrier, mut region) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    let (mut rc_hits, mut rc_misses, mut imbalance) = (0u64, 0u64, 1.0f64);
    for p in &programs {
        let (result, report) = compiler
            .run_profiled_scheduled(&p.src, t, Limits::default(), Schedule::Static)
            .map_err(|e| io::Error::other(e.to_string()))?;
        x.check(&result.output, p);
        allocations += u64::from(result.allocations);
        leaked += u64::from(result.leaked);
        let interp = report.interp.unwrap_or_default();
        steps += interp.total_steps;
        peak = peak.max(interp.peak_live_bytes);
        if let Some(pool) = report.pool {
            chunks += pool.chunks_issued;
            steals += pool.steals.iter().sum::<u64>();
            steal_failures += pool.steal_failures.iter().sum::<u64>();
            barrier += pool.barrier_wait_nanos;
            region += pool.region_nanos;
            imbalance = imbalance.max(pool.imbalance_ratio());
        }
        rc_hits += report.rc.hits;
        rc_misses += report.rc.misses;
    }
    x.put("loopir.steps", "count", steps as f64);
    x.put("loopir.steps_per_s", "1/s", steps as f64 / (vm_t1 / 1e3));
    x.put("loopir.peak_live_bytes", "bytes", peak as f64);
    x.put("forkjoin.imbalance_ratio", "ratio", imbalance);
    x.put("forkjoin.chunks_issued", "count", chunks as f64);
    x.put("forkjoin.steals", "count", steals as f64);
    x.put("forkjoin.steal_failures", "count", steal_failures as f64);
    x.put(
        "forkjoin.barrier_wait_share",
        "ratio",
        barrier as f64 / region.max(1) as f64,
    );
    x.put(
        "rc.pool_hit_ratio",
        "ratio",
        rc_hits as f64 / (rc_hits + rc_misses).max(1) as f64,
    );
    x.put("rc.allocations", "count", allocations as f64);
    x.put("rc.leaked", "count", leaked as f64);

    schedule_probe(&mut x, &compiler, t, reps)?;
    x.canary();
    pool_and_rc_probes(&mut x, t);
    kernel_probe(&mut x, &compiler, t, reps)?;
    x.canary();
    native_probe(&mut x, &compiler, &programs[0], &irs[0], &dir, t, reps)?;
    x.canary();
    serve_probe(
        &mut x,
        &mut tr,
        &registry,
        &cmmc,
        if opts.quick { 1.0 } else { 3.0 },
    )?;
    x.canary();
    tune_probe(&mut x, &mut tr, &compiler, &cmmc, &dir, t, reps)?;
    x.canary();

    x.put("host.cpus", "count", crate::host_cpus() as f64);
    x.put("host.canary_ms", "ms", stats::median(&x.canaries));
    x.put(
        "host.canary_iqr_pct",
        "%",
        stats::iqr_share(&x.canaries) * 100.0,
    );
    x.put("host.loadavg", "count", crate::loadavg());
    x.put(
        "trace.overhead_pct",
        "%",
        (stats::median(&traced_ms) / stats::median(&untraced_ms) - 1.0) * 100.0,
    );
    x.put("trace.unattributed_pct", "%", stats::median(&unattributed));
    x.put("trace.spans", "count", tr.spans.len() as f64);

    let path = opts
        .root
        .join("benchmark/out")
        .join(format!("{}.trace.json", opts.workload));
    std::fs::write(&path, trace::chrome_json(&tr.spans))?;

    let mut notes = vec![
        format!(
            "workload={} seed={} trace=1 T={} host.cpus={} programs={} ({} source bytes){}",
            opts.workload,
            opts.seed,
            t,
            crate::host_cpus(),
            programs.len(),
            source_bytes,
            if opts.quick { " QUICK" } else { "" }
        ),
        format!("trace written to {}", path.display()),
        format!(
            "canary readings between sections (ms): {}",
            x.canaries
                .iter()
                .map(|c| format!("{c:.1}"))
                .collect::<Vec<_>>()
                .join(" ")
        ),
    ];
    // Where one operation's time went, by layer.
    let op = tr
        .spans
        .iter()
        .rev()
        .find(|s| s.name == "bench.pipeline")
        .map(|s| s.op)
        .unwrap_or(0);
    let layers = trace::layer_self_ms(&tr.spans, op);
    let total: f64 = layers.values().sum();
    let shares: Vec<String> = layers
        .iter()
        .map(|(l, ms)| format!("{l} {ms:.3} ms ({:.1}%)", ms / total * 100.0))
        .collect();
    notes.push(format!(
        "self time by layer, last bench.pipeline operation ({total:.3} ms): {}",
        shares.join(", ")
    ));
    notes.append(&mut x.flags);
    Ok(Report {
        tally: x.tally,
        metrics: x.metrics,
        notes,
    })
}

/// The imbalanced program with its directive stripped, under each
/// process-default schedule, and whether the makespan model orders the
/// three schedules as the clock does.
fn schedule_probe(x: &mut Traced, compiler: &Compiler, t: usize, reps: usize) -> io::Result<()> {
    let program = gen::imbalanced(x.opts.seed, IMBALANCED_ROWS, IMBALANCED_WIDTH / 4, "");
    let ir = compiler
        .compile(&program.src)
        .map_err(|e| io::Error::other(e.to_string()))?;
    let schedules = [
        Schedule::Static,
        Schedule::Dynamic { chunk: 4 },
        Schedule::Guided { min_chunk: 1 },
    ];
    let mut ms: [Vec<f64>; 3] = Default::default();
    for _ in 0..reps {
        for (s, samples) in schedules.iter().zip(ms.iter_mut()) {
            let (out, t_ms) = exec_ms(&ir, t, Tier::Vm, *s);
            x.check(&out, &program);
            samples.push(t_ms);
        }
    }
    let measured: Vec<f64> = ms.iter().map(|v| stats::median(v)).collect();
    x.put("forkjoin.static_ms", "ms", measured[0]);
    x.put("forkjoin.dynamic_ms", "ms", measured[1]);
    x.put("forkjoin.guided_ms", "ms", measured[2]);
    x.put(
        "forkjoin.dynamic_over_static",
        "ratio",
        measured[1] / measured[0],
    );

    let (result, costs, _fuel) = compiler
        .run_cost_probe(&program.src, Limits::default())
        .map_err(|e| io::Error::other(e.to_string()))?;
    x.check(&result.output, &program);
    let grain = ForkJoinPool::new(1).tile_policy().static_grain;
    let heavy = costs.iter().max_by_key(|c| c.iters.iter().sum::<u64>());
    let modeled: Vec<f64> = schedules
        .iter()
        .map(|s| heavy.map_or(0, |c| deque_makespan(&c.iters, *s, t, grain).makespan) as f64)
        .collect();
    let order = |v: &[f64]| {
        let mut idx = [0, 1, 2];
        idx.sort_by(|&a, &b| v[a].total_cmp(&v[b]));
        idx
    };
    x.put(
        "forkjoin.model_order_agrees",
        "bool",
        f64::from(u8::from(order(&modeled) == order(&measured))),
    );
    Ok(())
}

fn pool_and_rc_probes(x: &mut Traced, t: usize) {
    x.put(
        "forkjoin.pool_new_ms",
        "ms",
        median_ms(20, || drop(ForkJoinPool::new(t))),
    );
    let pool = ForkJoinPool::new(t);
    let rounds = 2000;
    let (_, ms) = timed(|| (0..rounds).for_each(|_| pool.run(|_, _| {})));
    x.put(
        "forkjoin.region_dispatch_us",
        "us",
        ms * 1e3 / rounds as f64,
    );
    let allocs = 200_000;
    let (_, ms) = timed(|| {
        (0..allocs).for_each(|_| drop(std::hint::black_box(RcBuf::<f32>::new(1024, 0.0))))
    });
    x.put("rc.alloc_ns", "ns", ms * 1e6 / allocs as f64);
}

/// The `cmm-runtime` matmul kernels at the size `matmul_dense` runs, and
/// the `.xc` matmul against them: the gap ROADMAP item 1 is about.
fn kernel_probe(x: &mut Traced, compiler: &Compiler, t: usize, reps: usize) -> io::Result<()> {
    let n = MATMUL_N;
    let a: Vec<f32> = (0..n * n)
        .map(|i| ((i / n * 7 + i % n * 3 + 1) % 16) as f32 * 0.25)
        .collect();
    let b: Vec<f32> = (0..n * n)
        .map(|i| ((i / n * 5 + i % n * 11 + 2) % 16) as f32 * 0.25)
        .collect();
    let (mut naive, mut blocked, mut parallel) = (
        vec![0.0f32; n * n],
        vec![0.0f32; n * n],
        vec![0.0f32; n * n],
    );
    let pool = ForkJoinPool::new(t);
    let tile = pool.tile_policy().matmul_tile(std::mem::size_of::<f32>());
    let naive_ms = median_ms(reps, || kernels::matmul_naive(&a, &b, &mut naive, n, n, n));
    let blocked_ms = median_ms(reps, || {
        kernels::matmul_tiled(&a, &b, &mut blocked, n, n, n, tile)
    });
    let parallel_ms = median_ms(reps, || {
        kernels::matmul_parallel_blocked(&pool, &a, &b, &mut parallel, n, n, n)
    });
    // Exact inputs: every kernel must agree bitwise.
    x.tally.record(naive == blocked && naive == parallel);
    x.put("runtime.matmul_naive_ms", "ms", naive_ms);
    x.put("runtime.matmul_blocked_ms", "ms", blocked_ms);
    x.put("runtime.matmul_parallel_blocked_ms", "ms", parallel_ms);
    x.put("runtime.blocked_over_naive", "ratio", blocked_ms / naive_ms);
    x.put(
        "runtime.matmul_gflops",
        "GFLOP/s",
        2.0 * (n * n * n) as f64 / (blocked_ms / 1e3) / 1e9,
    );
    let program = gen::matmul(x.opts.seed, n);
    let ir = compiler
        .compile(&program.src)
        .map_err(|e| io::Error::other(e.to_string()))?;
    let (out, xc_ms) = exec_ms(&ir, 1, Tier::Vm, Schedule::Static);
    x.check(&out, &program);
    x.put("runtime.xc_over_kernel", "ratio", xc_ms / blocked_ms);
    Ok(())
}

/// The emitted C of the workload's first program: gcc time, run time,
/// and how much faster than the VM it is. Without a gcc the three
/// metrics are omitted and flagged.
fn native_probe(
    x: &mut Traced,
    compiler: &Compiler,
    program: &Program,
    ir: &IrProgram,
    dir: &std::path::Path,
    t: usize,
    reps: usize,
) -> io::Result<()> {
    if !workloads::gcc_present() {
        x.flags.push(
            "gcc absent: native.gcc_compile_ms, native.run_ms and native.over_vm omitted".into(),
        );
        return Ok(());
    }
    let c = compiler
        .compile_to_c(&program.src)
        .map_err(|e| io::Error::other(e.to_string()))?;
    std::fs::write(dir.join("traced.c"), c)?;
    let (accepted, gcc_ms) = timed(|| {
        workloads::gcc_accepts(
            dir,
            &[
                "-O2", "-fopenmp", "-msse2", "traced.c", "-o", "traced", "-lm",
            ],
        )
    });
    x.tally.record(accepted);
    let mut runs = Vec::new();
    for _ in 0..reps {
        let mut cmd = Command::new(dir.join("traced"));
        cmd.env("OMP_NUM_THREADS", t.to_string());
        let exit = proc::run(&cmd).ok().filter(|e| e.ok());
        x.check(exit.as_ref().map_or("", |e| &e.stdout), program);
        runs.extend(exit.map(|e| e.wall_ms));
    }
    if runs.is_empty() {
        x.flags
            .push("native.* omitted: the emitted C did not build or run".into());
        return Ok(());
    }
    let (out, vm_ms) = exec_ms(ir, t, Tier::Vm, Schedule::Static);
    x.check(&out, program);
    x.put("native.gcc_compile_ms", "ms", gcc_ms);
    x.put("native.run_ms", "ms", stats::median(&runs));
    x.put("native.over_vm", "ratio", vm_ms / stats::median(&runs));
    Ok(())
}

/// A short session against a child `cmmc serve` with the seeded mix,
/// then the same request's steps in process under spans: the difference
/// between the two is what the daemon adds around the work.
fn serve_probe(
    x: &mut Traced,
    tr: &mut Tracer,
    registry: &Registry,
    cmmc: &std::path::Path,
    seconds: f64,
) -> io::Result<()> {
    let server = Server::start(cmmc, x.opts.threads)?;
    let mut connections = Vec::new();
    for c in 0..workloads::SERVE_CONNECTIONS {
        connections.push(Connection::open(
            &server.addr,
            Stream::new(x.opts.seed, c, x.opts.corrupt_reference),
        )?);
    }
    for conn in &mut connections {
        for _ in 0..40 {
            let ok = conn.next().1.ok;
            x.tally.record(ok);
        }
    }
    let cpu0 = server.cpu_ms();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let done: Vec<(Done, u64, u64)> = all_at_once(&mut connections, |_, conn| {
        let mut done = Vec::new();
        while Instant::now() < deadline {
            let (_, d, resp) = conn.next();
            done.push((
                d,
                json_u64(&resp, "queue_ms").unwrap_or(0),
                json_u64(&resp, "elapsed_ms").unwrap_or(0),
            ));
        }
        done
    });
    let cpu = server.cpu_ms() - cpu0;
    for (d, _, _) in &done {
        x.tally.record(d.ok);
    }
    let p = |pick: &dyn Fn(&Done) -> bool, pct: f64| {
        let v = stats::sorted(
            &done
                .iter()
                .filter(|(d, _, _)| d.ok && pick(d))
                .map(|(d, _, _)| d.latency_ms)
                .collect::<Vec<_>>(),
        );
        if v.is_empty() {
            0.0
        } else {
            stats::percentile(&v, pct)
        }
    };
    x.put("serve.p50_ms", "ms", p(&|_| true, 50.0));
    x.put("serve.p95_ms", "ms", p(&|_| true, 95.0));
    x.put("serve.p99_ms", "ms", p(&|_| true, 99.0));
    x.put("serve.rps", "1/s", done.len() as f64 / seconds);
    for class in Class::ALL {
        x.put(
            &format!("serve.{}_p50_ms", class.name()),
            "ms",
            p(&|d| d.class == class, 50.0),
        );
    }
    x.put("serve.hot_p50_ms", "ms", p(&|d| d.hot, 50.0));
    x.put("serve.unique_p50_ms", "ms", p(&|d| !d.hot, 50.0));
    // The daemon reports whole milliseconds: count the requests that
    // queued at all, and average the execution time.
    x.put(
        "serve.queued",
        "count",
        done.iter().filter(|d| d.1 > 0).count() as f64,
    );
    x.put(
        "serve.elapsed_ms_mean",
        "ms",
        done.iter().map(|d| d.2 as f64).sum::<f64>() / done.len().max(1) as f64,
    );

    let control = &mut connections[0];
    let mut pings = Vec::new();
    for i in 0..200 {
        let (ms, resp) =
            control.roundtrip(&format!("{{\"id\": \"ping{i}\", \"cmd\": \"ping\"}}\n"))?;
        x.tally.record(json_u64(&resp, "code") == Some(0));
        pings.push(ms * 1e3);
    }
    x.put("serve.ping_p50_us", "us", stats::median(&pings));
    let (_, stats_line) = control.roundtrip("{\"id\": \"stats\", \"cmd\": \"stats\"}\n")?;
    let stat = |key: &str| json_u64(&stats_line, key).unwrap_or(0) as f64;
    x.put(
        "serve.pool_hit_ratio",
        "ratio",
        stat("hits") / (stat("hits") + stat("misses")).max(1.0),
    );
    x.put("serve.shed", "count", stat("shed"));
    x.put("serve.server_threads", "count", stat("server_threads"));
    x.put(
        "serve.server_cpu_s_per_kreq",
        "s",
        cpu / done.len().max(1) as f64,
    );
    // Two-thread requests, which the untraced mix leaves out (see
    // `gen::Stream`): both connections send the hot medium programs with
    // `"threads": 2` for a second. From then on the daemon caches
    // two-thread pools, and what it burns with nothing to do is read
    // next: their idle workers spin instead of sleeping.
    let (_, medium) = gen::hot_sources(x.opts.seed);
    let deadline = Instant::now() + Duration::from_secs(1);
    let two_thread: Vec<(bool, f64)> = all_at_once(&mut connections, |c, conn| {
        let mut done = Vec::new();
        while Instant::now() < deadline {
            let program = &medium[done.len() % medium.len()];
            let id = format!("t2-{c}-{}", done.len());
            let line = gen::request_line(
                &id,
                &format!("tenant{c}"),
                "run",
                ", \"threads\": 2",
                &program.src,
            );
            let (ms, resp) = conn.roundtrip(&line).unwrap_or((0.0, String::new()));
            done.push((
                response_ok(&resp, &Expect::Output(program.expected.clone())),
                ms,
            ));
        }
        done
    });
    for (ok, _) in &two_thread {
        x.tally.record(*ok && !x.opts.corrupt_reference);
    }
    let ok_ms: Vec<f64> = two_thread
        .iter()
        .filter(|(ok, _)| *ok)
        .map(|(_, ms)| *ms)
        .collect();
    if !ok_ms.is_empty() {
        x.put("serve.medium_t2_p50_ms", "ms", stats::median(&ok_ms));
    }
    let (idle0, idle) = (server.cpu_ms(), Duration::from_millis(300));
    std::thread::sleep(idle);
    x.put(
        "serve.idle_cpu_share",
        "ratio",
        (server.cpu_ms() - idle0) / idle.as_secs_f64() / 1e3,
    );
    drop(connections);
    let (clean, rss_kb) = server.stop();
    x.tally.record(clean);
    x.put("serve.server_rss_mb", "MB", rss_kb as f64 / 1024.0);

    // The hot small request, step by step, as the daemon's worker runs it.
    let request = Stream::new(x.opts.seed, 0, false)
        .find(|r| r.class == Class::SmallRun && r.hot)
        .expect("hot small request");
    let cache = PoolCache::new(8);
    let mut inproc = Vec::new();
    for _ in 0..50 {
        let first = tr.spans.len();
        let output = tr.op("bench.request", |tr| {
            let parsed = tr
                .span("serve.json_parse", |_| {
                    Request::parse(request.line.trim_end())
                })
                .expect("generated request parses");
            let compiler = tr
                .span("core.compiler", |_| registry.compiler(&EXTENSIONS))
                .expect("the standard composition");
            let (pool, _, _) = tr.span("serve.pool_checkout", |_| cache.checkout(1));
            let result = tr.span("core.run_on_pool", |_| {
                compiler.run_on_pool(
                    &parsed.src,
                    Arc::clone(&pool),
                    Limits::default(),
                    Schedule::Static,
                )
            });
            tr.span("serve.pool_checkin", |_| cache.checkin(1, pool));
            let output = result.map(|r| r.output).unwrap_or_default();
            tr.span("serve.response_line", |_| {
                Response::ok(&parsed.id, Some(output.clone()), None).to_line()
            });
            output
        });
        x.check(&output, &request.program);
        inproc.push(tr.spans[first].duration_us() / 1e3);
    }
    let last = |name: &str| tr.last_ms(name).unwrap_or(0.0);
    x.put("serve.json_parse_us", "us", last("serve.json_parse") * 1e3);
    x.put(
        "serve.response_line_us",
        "us",
        last("serve.response_line") * 1e3,
    );
    x.put(
        "serve.pool_checkout_hit_us",
        "us",
        last("serve.pool_checkout") * 1e3,
    );
    x.put(
        "serve.pool_checkout_miss_us",
        "us",
        cache.stats().construct_nanos as f64 / 1e3 / cache.stats().misses.max(1) as f64,
    );
    x.put("serve.inproc_run_ms", "ms", last("core.run_on_pool"));
    let small_p50 = x
        .metrics
        .iter()
        .find(|m| m.name == "serve.small_p50_ms")
        .map_or(0.0, |m| m.value);
    x.put(
        "serve.overhead_ms",
        "ms",
        small_p50 - stats::median(&inproc),
    );
    Ok(())
}

/// The tuner on the shape of `examples/imbalanced.xc` (48 rows of width
/// 160, no directive): `cmmc tune --seed 0` as a child process for the
/// wall time a user waits, the same search in process for its counts, and
/// whether the winner it picks is faster by the clock.
fn tune_probe(
    x: &mut Traced,
    tr: &mut Tracer,
    compiler: &Compiler,
    cmmc: &std::path::Path,
    dir: &std::path::Path,
    t: usize,
    reps: usize,
) -> io::Result<()> {
    let program = gen::imbalanced(x.opts.seed, 48, 160, "");
    std::fs::write(dir.join("tune.xc"), &program.src)?;
    let mut cli = Command::new(cmmc);
    cli.args(["tune", "tune.xc", "--seed", "0"])
        .current_dir(dir);
    let exit = proc::run(&cli)?;
    x.tally.record(exit.ok());
    let wall_ms = exit.wall_ms;
    let cfg = cmm::tune::TuneConfig {
        seed: 0,
        ..Default::default()
    };
    let outcome = tr
        .op("tune.tune", |_| cmm::tune::tune(&program.src, &cfg))
        .map_err(|e| io::Error::other(e.to_string()))?;
    x.tally.record(outcome.verified);
    let candidates: usize = outcome.sites.iter().map(|s| s.candidates.len()).sum();
    let pruned = outcome
        .sites
        .iter()
        .flat_map(|s| &s.candidates)
        .filter(|c| matches!(c.status, cmm::tune::CandidateStatus::Pruned { .. }))
        .count();
    x.put("tune.wall_ms", "ms", wall_ms);
    x.put("tune.sites", "count", outcome.sites.len() as f64);
    x.put("tune.candidates", "count", candidates as f64);
    x.put("tune.pruned", "count", pruned as f64);
    let (probe, probe_ms) = timed(|| compiler.run_cost_probe(&program.src, Limits::default()));
    x.check(
        &probe.map(|(r, _, _)| r.output).unwrap_or_default(),
        &program,
    );
    x.put("tune.probe_ms", "ms", probe_ms);
    x.put(
        "tune.ms_per_candidate",
        "ms",
        wall_ms / candidates.max(1) as f64,
    );
    x.put(
        "tune.modeled_gain_pct",
        "%",
        (1.0 - outcome.tuned_cost as f64 / outcome.baseline_cost.max(1) as f64) * 100.0,
    );
    let compile = |src: &str| {
        compiler
            .compile(src)
            .map_err(|e| io::Error::other(e.to_string()))
    };
    let (untuned, tuned) = (compile(&program.src)?, compile(&outcome.tuned_source)?);
    let (mut before, mut after) = (Vec::new(), Vec::new());
    for _ in 0..reps.max(3) {
        for (ir, samples) in [(&untuned, &mut before), (&tuned, &mut after)] {
            let (out, ms) = exec_ms(ir, t, Tier::Vm, Schedule::Static);
            x.check(&out, &program);
            samples.push(ms);
        }
    }
    x.put(
        "tune.measured_gain_pct",
        "%",
        (1.0 - stats::median(&after) / stats::median(&before)) * 100.0,
    );
    Ok(())
}
