//! Unboxed loops: the VM tier runs an innermost `for` with a straight-line
//! scalar body as a typed program over unboxed registers, the tree tier
//! interprets the statements, and nothing but time may tell them apart —
//! same result bits in every buffer, same `steps_used()`, same pass/fail
//! and `LimitKind` at every fuel budget, same runtime-error text and the
//! same buffer contents when an iteration fails part-way through the
//! loop. Which loops are translated is pinned, not guessed.

use cmm::eddy::programs::{full_compiler, temporal_mean_program};
use cmm::eddy::{synthetic_ssh, write_f32, SshParams};
use cmm::loopir::{
    BufHandle, Builtin, CType, Elem, ForLoop, Interp, InterpProfile, IrBinOp as B, IrExpr,
    IrFunction, IrProgram, IrStmt, LimitKind, Limits, Name, Tier, Value, UNBOXED_STRIP as STRIP,
};
use proptest::prelude::*;
use proptest::test_runner::TestRng;
use std::time::{Duration, Instant};

// ---- (a) generated bodies --------------------------------------------------

fn var(n: &str) -> IrExpr {
    IrExpr::Var(n.into())
}
fn int(x: i64) -> IrExpr {
    IrExpr::Int(x)
}
fn load(elem: Elem, buf: &str, idx: IrExpr) -> IrExpr {
    IrExpr::Load {
        elem,
        buf: Box::new(var(buf)),
        idx: Box::new(idx),
    }
}
fn store(elem: Elem, buf: &str, idx: IrExpr, value: IrExpr) -> IrStmt {
    IrStmt::Store {
        elem,
        buf: var(buf),
        idx,
        value,
    }
}
fn decl(ty: CType, name: &str, init: IrExpr) -> IrStmt {
    IrStmt::Decl {
        ty,
        name: name.into(),
        init: Some(init),
    }
}
fn assign(name: &str, value: IrExpr) -> IrStmt {
    IrStmt::Assign {
        name: name.into(),
        value,
    }
}
fn for_loop(var: &str, hi: IrExpr, body: Vec<IrStmt>, parallel: bool) -> IrStmt {
    IrStmt::For(ForLoop {
        var: var.into(),
        lo: int(0),
        hi,
        body,
        parallel,
        vector: false,
        schedule: None,
    })
}

/// Generator of straight-line loop bodies over
///
/// * the index `i`, the extent `n` and two invariants `k: int`, `s: float`;
/// * three loop-carried accumulators `ai: int`, `af: float`, `fl: bool`;
/// * inputs `xi`, `xf`, `xb` of `n` cells and outputs `oi`, `of`, `ob`
///   written at `base + i`.
struct Gen {
    rng: TestRng,
    /// Locals declared by earlier statements of the body, by type.
    ints: Vec<String>,
    floats: Vec<String>,
    bools: Vec<String>,
}

impl Gen {
    fn pick(&mut self, n: usize) -> usize {
        (self.rng.next_u64() % n as u64) as usize
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.rng.next_u64() % 100 < percent
    }

    fn one_of<T: Clone>(&mut self, xs: &[T]) -> T {
        xs[self.pick(xs.len())].clone()
    }

    /// An index into an input: usually in bounds, now and then one that
    /// leaves them at the first or last iteration, or a loaded value.
    fn index(&mut self) -> IrExpr {
        match self.pick(12) {
            0..=5 => var("i"),
            6 | 7 => IrExpr::bin(B::Sub, IrExpr::bin(B::Sub, var("n"), int(1)), var("i")),
            8 | 9 => IrExpr::bin(
                B::Rem,
                IrExpr::add(IrExpr::mul(var("i"), int(3)), int(1)),
                var("n"),
            ),
            10 => load(Elem::I32, "xi", var("i")),
            _ => IrExpr::add(var("i"), int(self.one_of(&[1, -1]))),
        }
    }

    fn int_expr(&mut self, depth: u32) -> IrExpr {
        if depth == 0 || self.chance(30) {
            return match self.pick(8) {
                0 => int(self.one_of(&[
                    0,
                    1,
                    2,
                    3,
                    7,
                    -1,
                    -5,
                    160,
                    i64::from(i32::MAX),
                    i64::from(i32::MIN),
                ])),
                1 => var("i"),
                2 => var("n"),
                3 => var("k"),
                4 => var("ai"),
                5 if !self.ints.is_empty() => var(&self.one_of(&self.ints.clone())),
                6 => IrExpr::CastInt(Box::new(self.bool_expr(0))),
                _ => load(Elem::I32, "xi", self.index()),
            };
        }
        let d = depth - 1;
        match self.pick(10) {
            0..=2 => {
                let op = self.one_of(&[B::Add, B::Sub, B::Mul]);
                IrExpr::bin(op, self.int_expr(d), self.int_expr(d))
            }
            // Division by literals, -1 included (`INT_MIN / -1`), and by
            // loaded values, which are now and then zero.
            3 | 4 => {
                let op = self.one_of(&[B::Div, B::Rem]);
                let by = int(self.one_of(&[1, 2, 7, 160, -1, -3]));
                IrExpr::bin(op, self.int_expr(d), by)
            }
            5 => {
                let op = self.one_of(&[B::Div, B::Rem]);
                // `k` is 5: a loop-invariant zero divisor once in a while.
                let by = if self.chance(85) {
                    load(Elem::I32, "xi", self.index())
                } else {
                    IrExpr::bin(B::Sub, var("k"), int(self.one_of(&[4, 5])))
                };
                IrExpr::bin(op, self.int_expr(d), by)
            }
            6 => IrExpr::Neg(Box::new(self.int_expr(d))),
            7 => IrExpr::CastInt(Box::new(self.float_expr(d))),
            // `x[e] op x[e]`: the VM evaluates the operand once.
            8 => {
                let e = load(Elem::I32, "xi", self.index());
                IrExpr::bin(B::Mul, e.clone(), e)
            }
            _ => IrExpr::bin(
                B::Add,
                self.int_expr(d),
                IrExpr::CastInt(Box::new(self.bool_expr(d))),
            ),
        }
    }

    fn float_expr(&mut self, depth: u32) -> IrExpr {
        if depth == 0 || self.chance(30) {
            return match self.pick(6) {
                0 => IrExpr::Float(self.one_of(&[0.0, 0.5, -1.25, 3.0, 1e30, f32::NAN, 0.37])),
                1 => var("s"),
                2 => var("af"),
                3 if !self.floats.is_empty() => var(&self.one_of(&self.floats.clone())),
                4 => IrExpr::CastFloat(Box::new(self.int_expr(0))),
                _ => load(Elem::F32, "xf", self.index()),
            };
        }
        let d = depth - 1;
        match self.pick(8) {
            0..=3 => {
                let op = self.one_of(&[B::Add, B::Sub, B::Mul, B::Div, B::Rem]);
                IrExpr::bin(op, self.float_expr(d), self.float_expr(d))
            }
            // Mixed operands promote the int side.
            4 => IrExpr::bin(B::Mul, self.int_expr(d), self.float_expr(d)),
            5 => IrExpr::bin(B::Sub, self.float_expr(d), self.int_expr(d)),
            6 => IrExpr::Neg(Box::new(self.float_expr(d))),
            _ => {
                let e = load(Elem::F32, "xf", self.index());
                IrExpr::bin(B::Mul, e.clone(), e)
            }
        }
    }

    fn bool_expr(&mut self, depth: u32) -> IrExpr {
        if depth == 0 || self.chance(25) {
            return match self.pick(4) {
                0 => IrExpr::Bool(self.chance(50)),
                1 => var("fl"),
                2 if !self.bools.is_empty() => var(&self.one_of(&self.bools.clone())),
                _ => load(Elem::Bool, "xb", self.index()),
            };
        }
        let d = depth - 1;
        let cmp = self.one_of(&[B::Lt, B::Le, B::Gt, B::Ge, B::Eq, B::Ne]);
        match self.pick(6) {
            0 | 1 => IrExpr::bin(cmp, self.int_expr(d), self.int_expr(d)),
            2 => IrExpr::bin(cmp, self.float_expr(d), self.float_expr(d)),
            3 => IrExpr::bin(cmp, self.int_expr(d), self.float_expr(d)),
            4 => {
                let op = self.one_of(&[B::Eq, B::Ne]);
                IrExpr::bin(op, self.bool_expr(d), self.bool_expr(d))
            }
            _ => IrExpr::Not(Box::new(if self.chance(50) {
                self.bool_expr(d)
            } else {
                self.int_expr(d)
            })),
        }
    }

    /// A store of a value of some type into a buffer that takes it.
    /// `in_place` stores back into an input (the prefix-sum shape).
    fn store_stmt(&mut self, in_place: bool) -> IrStmt {
        let at = IrExpr::add(var("base"), var("i"));
        match self.pick(6) {
            0 if in_place => store(Elem::F32, "xf", var("i"), var("af")),
            1 if in_place => store(Elem::I32, "xi", var("i"), self.int_expr(1)),
            0 | 1 => store(Elem::I32, "oi", at, self.int_expr(2)),
            2 => store(Elem::I32, "oi", at, self.float_expr(2)),
            3 => store(Elem::F32, "of", at, self.float_expr(2)),
            4 => store(Elem::F32, "of", at, self.int_expr(2)),
            _ => store(Elem::Bool, "ob", at, self.bool_expr(2)),
        }
    }

    fn body(&mut self, in_place: bool) -> Vec<IrStmt> {
        let mut stmts = Vec::new();
        for k in 0..1 + self.pick(4) {
            let stmt = match self.pick(9) {
                0 => {
                    let name = format!("ti{k}");
                    let s = decl(CType::Int, &name, self.int_expr(2));
                    self.ints.push(name);
                    s
                }
                1 => {
                    let name = format!("tf{k}");
                    let s = decl(CType::Float, &name, self.float_expr(2));
                    self.floats.push(name);
                    s
                }
                2 => {
                    let name = format!("tb{k}");
                    let s = decl(CType::Bool, &name, self.bool_expr(2));
                    self.bools.push(name);
                    s
                }
                3 => assign("ai", self.int_expr(2)),
                // Plain copies between slots, carried ones included.
                4 => match self.pick(4) {
                    0 => assign("ai", IrExpr::CastInt(Box::new(var("fl")))),
                    1 => assign("af", var("s")),
                    2 => decl(CType::Int, &format!("tc{k}"), var("ai")),
                    _ => assign("ai", var("i")),
                },
                // The in-place prefix sum's first half.
                5 => assign(
                    "af",
                    IrExpr::add(var("af"), load(Elem::F32, "xf", var("i"))),
                ),
                6 => assign("af", self.float_expr(2)),
                7 => assign("fl", self.bool_expr(2)),
                // An `int` slot a `float` expression re-tags: the typed
                // program must not run with the wrong kind.
                _ if self.chance(30) => assign("ai", self.float_expr(1)),
                _ => assign("ai", IrExpr::add(var("ai"), int(1))),
            };
            stmts.push(stmt);
        }
        // Usually one store, last; sometimes earlier (a checked operation
        // may then follow it) or twice: not translated, still run.
        if self.chance(85) {
            let s = self.store_stmt(in_place);
            let at = if self.chance(85) {
                stmts.len()
            } else {
                self.pick(stmts.len() + 1)
            };
            stmts.insert(at, s);
            if self.chance(8) {
                stmts.push(self.store_stmt(false));
            }
        }
        stmts
    }
}

const OUTER: i64 = 3;

/// `kernel` runs the generated body in `for i in 0..n`, inside an outer
/// loop of [`OUTER`] iterations (sequential or parallel) that declares the
/// accumulators and stores their final values.
fn kernel_program(seed: u64, parallel: bool) -> IrProgram {
    let mut g = Gen {
        rng: TestRng::with_seed(seed),
        ints: Vec::new(),
        floats: Vec::new(),
        bools: Vec::new(),
    };
    // Concurrent outer iterations must not share written cells.
    let body = g.body(!parallel);
    // Now and then the `int` accumulator holds a float on entry, which its
    // declared type does not predict.
    let ai = if g.chance(90) {
        int(3)
    } else {
        IrExpr::Float(3.0)
    };
    let outer = vec![
        decl(CType::Int, "ai", ai),
        decl(CType::Float, "af", IrExpr::Float(0.5)),
        decl(CType::Bool, "fl", IrExpr::Bool(false)),
        decl(CType::Int, "base", IrExpr::mul(var("p"), var("n"))),
        for_loop("i", var("n"), body, false),
        store(Elem::I32, "ri", var("p"), var("ai")),
        store(Elem::F32, "rf", var("p"), var("af")),
        store(Elem::Bool, "rb", var("p"), var("fl")),
    ];
    let buf = |name: &str, elem| (name.into(), CType::Buf(elem));
    IrProgram {
        functions: vec![IrFunction {
            name: "kernel".into(),
            params: vec![
                buf("xi", Elem::I32),
                buf("xf", Elem::F32),
                buf("xb", Elem::Bool),
                buf("oi", Elem::I32),
                buf("of", Elem::F32),
                buf("ob", Elem::Bool),
                buf("ri", Elem::I32),
                buf("rf", Elem::F32),
                buf("rb", Elem::Bool),
                ("n".into(), CType::Int),
                ("k".into(), CType::Int),
                ("s".into(), CType::Float),
            ],
            ret: CType::Void,
            ret_tuple: None,
            body: vec![for_loop("p", int(OUTER), outer, parallel)],
        }],
    }
}

/// What a call of `kernel` leaves behind.
#[derive(Debug, PartialEq)]
struct Observed {
    /// The runtime error's text, if the call failed.
    error: Option<String>,
    /// The cells of all nine buffers.
    bits: Vec<Vec<u32>>,
    /// `steps_used()` of a call that succeeded.
    steps: u64,
}

fn run_kernel(interp: &Interp<'_>, seed: u64, n: usize) -> Observed {
    let mut rng = TestRng::with_seed(seed ^ 0x5eed);
    // Mostly small positive ints (valid indices and divisors), with the
    // odd zero, negative or huge value.
    let xi: Vec<i32> = (0..n)
        .map(|_| match rng.next_u64() % 16 {
            0 => 0,
            1 => -2,
            2 => i32::MIN,
            _ => 1 + (rng.next_u64() % n.max(1) as u64) as i32,
        })
        .collect();
    let xf: Vec<f32> = (0..n)
        .map(|_| (rng.next_u64() % 2001) as f32 * 0.37 - 370.0)
        .collect();
    let xb: Vec<bool> = (0..n).map(|_| rng.next_u64() & 1 == 1).collect();
    let outs = OUTER as usize * n;
    let bufs = [
        BufHandle::from_i32(vec![n], &xi),
        BufHandle::from_f32(vec![n], &xf),
        BufHandle::from_bool(vec![n], &xb),
        BufHandle::new(Elem::I32, vec![outs]),
        BufHandle::new(Elem::F32, vec![outs]),
        BufHandle::new(Elem::Bool, vec![outs]),
        BufHandle::new(Elem::I32, vec![OUTER as usize]),
        BufHandle::new(Elem::F32, vec![OUTER as usize]),
        BufHandle::new(Elem::Bool, vec![OUTER as usize]),
    ];
    let mut args: Vec<Value> = bufs.iter().cloned().map(Value::Buf).collect();
    args.extend([Value::I(n as i32), Value::I(5), Value::F(1.5)]);
    let error = interp.call("kernel", args).err().map(|e| e.to_string());
    let bits = bufs
        .iter()
        .map(|b| {
            let cells = b.to_i32_vec().expect("live");
            cells.into_iter().map(|x| x as u32).collect()
        })
        .collect();
    // A run that dies mid-group has charged the rest of its group in the
    // VM (see `vm.rs`, "Block metering"): steps compare on success only.
    let steps = if error.is_none() {
        interp.steps_used()
    } else {
        0
    };
    Observed { error, bits, steps }
}

fn observe(
    ir: &IrProgram,
    tier: Tier,
    threads: usize,
    profiled: bool,
    seed: u64,
    n: usize,
) -> (Observed, InterpProfile) {
    let interp = Interp::new(ir, threads)
        .with_tier(tier)
        .with_profiling(profiled);
    let seen = run_kernel(&interp, seed, n);
    (seen, interp.profile())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1000))]

    /// Every generated body, under a sequential and under a parallel outer
    /// loop, at one and two threads, with charges batched and (profiled)
    /// metered: the VM leaves what the tree tier leaves. The extent is
    /// short, around one full strip, or a little over two, alike.
    #[test]
    fn prop_vm_loops_are_the_tree_loops(seed in any::<u64>(), range in 0usize..3, at in 0usize..40) {
        let n = match range {
            0 => at,
            1 => STRIP - 2 + at % 5,
            _ => 2 * STRIP + at % 6,
        };
        for parallel in [false, true] {
            let ir = kernel_program(seed, parallel);
            let (want, _) = observe(&ir, Tier::Tree, 1, false, seed, n);
            for (threads, profiled) in [(1, false), (2, false), (2, true)] {
                let (got, _) = observe(&ir, Tier::Vm, threads, profiled, seed, n);
                prop_assert_eq!(&got.error, &want.error, "parallel {}, {} threads", parallel, threads);
                // Which outer iterations got how far before a failing one
                // stopped a parallel region is a matter of timing.
                if !(parallel && want.error.is_some()) {
                    prop_assert_eq!(&got, &want, "parallel {}, {} threads", parallel, threads);
                }
            }
        }
    }
}

/// The property above is only worth its name if the generated bodies are
/// this kernel's input: most must be translated, a good share of those
/// must run in strips (and some, lacking a plan, must not), and the
/// failing paths — an entry guard that declines, an iteration that bails,
/// in a strip too — must occur.
#[test]
fn generated_bodies_reach_the_kernel() {
    let (mut ran, mut declined, mut bailed, mut failed) = (0, 0, 0, 0);
    let (mut stripped, mut planless, mut bailed_in_a_strip) = (0, 0, 0);
    let cases = 200;
    for seed in 0..cases {
        let ir = kernel_program(seed, false);
        let (seen, profile) = observe(&ir, Tier::Vm, 1, true, seed, STRIP + 24);
        assert!(profile.unboxed_strip_iters <= profile.unboxed_iters);
        ran += u64::from(profile.unboxed_loops > 0);
        stripped += u64::from(profile.unboxed_strip_iters > 0);
        planless += u64::from(!profile.per_iteration_loops.is_empty());
        declined += u64::from(profile.unboxed_declines > 0);
        bailed += u64::from(profile.unboxed_bails > 0);
        bailed_in_a_strip +=
            u64::from(profile.unboxed_bails > 0 && profile.unboxed_strip_iters > 0);
        failed += u64::from(seen.error.is_some());
    }
    assert!(ran * 2 > cases, "only {ran} of {cases} bodies ran unboxed");
    assert!(stripped * 2 > ran, "only {stripped} of {ran} ran in strips");
    assert!(planless > 10, "{planless} bodies have no strip plan");
    assert!(
        bailed_in_a_strip > 10,
        "{bailed_in_a_strip} bodies bailed out of a strip"
    );
    assert!(
        failed > 10 && failed < ran,
        "{failed} of {cases} bodies fail"
    );
    assert!(bailed > 10, "{bailed} bodies bailed");
    assert!(declined > 0, "{declined} bodies declined");
}

// ---- (b) budgets -----------------------------------------------------------

fn compile(src: &str, parallelize: bool) -> IrProgram {
    let mut compiler = full_compiler();
    compiler.options.parallelize = parallelize;
    compiler.compile(src).expect("program compiles")
}

/// Two loops of `2·STRIP + 5` iterations — two full strips and a short one
/// each — a fill and a fold, both translated.
fn swept() -> String {
    format!(
        "int main() {{
    int n = {};
    Matrix int <1> x = with ([0] <= [i] < [n]) genarray([n], i * 3 % 7);
    printInt(with ([0] <= [i] < [n]) fold(+, 0, x[i] * 2));
    return 0;
}}",
        2 * STRIP + 5
    )
}

#[test]
fn every_fuel_budget_passes_or_fails_alike() {
    let ir = compile(&swept(), false);
    let run = |tier, fuel| {
        let limits = Limits {
            fuel,
            ..Limits::default()
        };
        let interp = Interp::new(&ir, 1).with_tier(tier).with_limits(limits);
        let r = interp.run_main().map(|_| interp.output());
        (r, interp.steps_used())
    };
    let (free, total) = run(Tier::Vm, None);
    assert_eq!(free.expect("runs"), "1560\n");
    assert_eq!(run(Tier::Tree, None).1, total);
    assert!(total > 1000, "two loops of 261 iterations: {total}");
    for fuel in 0..=total + 1 {
        let (vm, vm_used) = run(Tier::Vm, Some(fuel));
        let (tree, _) = run(Tier::Tree, Some(fuel));
        match (&vm, &tree) {
            (Ok(a), Ok(b)) => {
                assert!(fuel >= total, "{fuel} of {total} steps sufficed");
                assert_eq!((a, vm_used), (b, total));
            }
            (Err(a), Err(b)) => {
                assert!(fuel < total, "a budget of {fuel} covers {total} steps");
                assert_eq!(a.limit_kind(), Some(LimitKind::Fuel), "{a}");
                assert_eq!(b.limit_kind(), Some(LimitKind::Fuel), "{b}");
                // The VM stops at the statement group that crosses the
                // budget — not a block of iterations ahead of it.
                assert!(vm_used <= fuel + 10, "stopped at {vm_used} under {fuel}");
            }
            _ => panic!("fuel {fuel}: vm {vm:?}, tree {tree:?}"),
        }
    }
}

/// The loop is one instruction, but not one uninterruptible unit: each
/// block of iterations is charged before it runs, and the charge checks
/// the clock.
#[test]
fn deadline_stops_a_long_loop_part_way() {
    let ir = compile(
        "int main() {
    printInt(with ([0] <= [i] < [100000000]) fold(+, 0, i % 7));
    return 0;
}",
        true,
    );
    // Scheduling noise can stretch any one attempt; the loop itself, left
    // to finish, takes over a second.
    let mut quickest = Duration::MAX;
    for _ in 0..3 {
        let limits = Limits {
            deadline: Some(Duration::from_millis(5)),
            ..Limits::default()
        };
        let interp = Interp::new(&ir, 1).with_tier(Tier::Vm).with_limits(limits);
        let started = Instant::now();
        let e = interp
            .run_main()
            .expect_err("10^8 iterations do not fit in 5 ms");
        quickest = quickest.min(started.elapsed());
        assert_eq!(e.limit_kind(), Some(LimitKind::Deadline), "{e}");
        assert!(interp.steps_used() < 100_000_000, "stopped inside the loop");
    }
    assert!(quickest < Duration::from_millis(100), "took {quickest:?}");
}

// ---- (c) bails -------------------------------------------------------------

/// `void main()` over one `out` buffer of `len` ints, handed in so that it
/// can be read after the run failed.
fn failing_run(body: Vec<IrStmt>, tier: Tier, len: usize) -> (String, Vec<i32>, InterpProfile) {
    let ir = IrProgram {
        functions: vec![IrFunction {
            name: "main".into(),
            params: vec![("out".into(), CType::Buf(Elem::I32))],
            ret: CType::Void,
            ret_tuple: None,
            body,
        }],
    };
    let out = BufHandle::from_i32(vec![len], &vec![-1; len]);
    let interp = Interp::new(&ir, 1).with_tier(tier).with_profiling(true);
    let e = interp
        .call("main", vec![Value::Buf(out.clone())])
        .expect_err("the loop fails");
    (
        e.to_string(),
        out.to_i32_vec().expect("live"),
        interp.profile(),
    )
}

fn assert_bail_parity(body: Vec<IrStmt>, len: usize, message: &str, out: &[i32]) {
    let (tree_error, tree_out, _) = failing_run(body.clone(), Tier::Tree, len);
    let (vm_error, vm_out, profile) = failing_run(body, Tier::Vm, len);
    assert_eq!(tree_error, format!("runtime error: {message}"));
    assert_eq!(vm_error, tree_error);
    assert_eq!(tree_out, out);
    assert_eq!(vm_out, tree_out);
    assert_eq!(
        (
            profile.unboxed_loops,
            profile.unboxed_bails,
            profile.unboxed_declines
        ),
        (1, 1, 0),
        "the loop ran unboxed up to the failing iteration"
    );
}

#[test]
fn a_failing_iteration_fails_as_the_bytecode_does() {
    // An index that leaves the buffer at iteration 6.
    assert_bail_parity(
        vec![for_loop(
            "i",
            int(10),
            vec![store(
                Elem::I32,
                "out",
                var("i"),
                IrExpr::mul(var("i"), var("i")),
            )],
            false,
        )],
        6,
        "index 6 out of bounds for buffer of 6",
        &[0, 1, 4, 9, 16, 25],
    );
    // A divisor that reaches zero at iteration 4. `d` is carried and
    // updated before the division: the message proves the bytecode resumed
    // from its top-of-iteration value (a second decrement would divide by
    // -1 and go on).
    assert_bail_parity(
        vec![
            decl(CType::Int, "d", int(4)),
            for_loop(
                "i",
                int(8),
                vec![
                    assign("d", IrExpr::bin(B::Sub, var("d"), int(1))),
                    store(
                        Elem::I32,
                        "out",
                        var("i"),
                        IrExpr::bin(B::Div, int(60), var("d")),
                    ),
                ],
                false,
            ),
        ],
        8,
        "integer division by zero",
        &[20, 30, 60, -1, -1, -1, -1, -1],
    );
    // A carried accumulator updated before the failing load, and used as
    // its index: the reported index is the accumulator at the point of
    // failure.
    assert_bail_parity(
        vec![
            decl(CType::Int, "at", int(-3)),
            for_loop(
                "i",
                int(8),
                vec![
                    assign("at", IrExpr::add(var("at"), int(3))),
                    decl(CType::Int, "v", load(Elem::I32, "out", var("at"))),
                    store(Elem::I32, "out", var("i"), IrExpr::add(var("v"), var("at"))),
                ],
                false,
            ),
        ],
        8,
        "index 9 out of bounds for buffer of 8",
        &[-1, 2, 5, -1, -1, -1, -1, -1],
    );
    // `INT_MIN / -1` inside a loop is the same typed error.
    assert_bail_parity(
        vec![for_loop(
            "i",
            int(4),
            vec![store(
                Elem::I32,
                "out",
                var("i"),
                IrExpr::bin(
                    B::Div,
                    int(i64::from(i32::MIN)),
                    IrExpr::bin(B::Sub, IrExpr::mul(var("i"), int(2)), int(3)),
                ),
            )],
            false,
        )],
        4,
        "integer division overflow",
        &[i32::MIN / -3, -1, -1, -1],
    );
}

/// A bail gives back the steps charged ahead for the iterations it did not
/// run, and a block the budget cannot pay for is not charged at all: under
/// any fuel budget that covers the run up to the failing iteration, the
/// failure is the runtime error, as in the tree tier.
#[test]
fn a_bail_under_a_fuel_budget_is_still_the_runtime_error() {
    // 1000 iterations, of which the seventh leaves the 6-cell buffer.
    let ir = IrProgram {
        functions: vec![IrFunction {
            name: "main".into(),
            params: vec![],
            ret: CType::Void,
            ret_tuple: None,
            body: vec![
                decl(
                    CType::Buf(Elem::I32),
                    "out",
                    IrExpr::Builtin(Builtin::AllocMat(Elem::I32), vec![int(6)]),
                ),
                for_loop(
                    "i",
                    int(1000),
                    vec![store(Elem::I32, "out", var("i"), var("i"))],
                    false,
                ),
            ],
        }],
    };
    let run = |tier, fuel| {
        let limits = Limits {
            fuel,
            ..Limits::default()
        };
        let interp = Interp::new(&ir, 1).with_tier(tier).with_limits(limits);
        let e = interp.run_main().expect_err("the loop fails");
        (e.limit_kind(), e.to_string(), interp.steps_used())
    };
    let (_, message, at_failure) = run(Tier::Tree, None);
    assert_eq!(
        message,
        "runtime error: index 6 out of bounds for buffer of 6"
    );
    // The VM charges a statement group at a time, so within a group's
    // steps of the failure it may run out of fuel first (see `vm.rs`).
    let group = 4;
    for fuel in 0..at_failure + 2100 {
        let (vm, _, _) = run(Tier::Vm, Some(fuel));
        let (tree, _, _) = run(Tier::Tree, Some(fuel));
        if fuel + group < at_failure {
            assert_eq!(
                (vm, tree),
                (Some(LimitKind::Fuel), Some(LimitKind::Fuel)),
                "fuel {fuel}"
            );
        } else if fuel >= at_failure + group {
            assert_eq!((vm, tree), (None, None), "fuel {fuel}");
        }
    }
}

// ---- (c') bails, clashes and NaNs inside strips ------------------------------

/// `void main(b0, b1, …)` over int buffers of the given lengths, every cell
/// -1, handed in so that they can be read after the run failed. Returns
/// the error text, if any, the buffers and the profile.
fn run_over(
    body: Vec<IrStmt>,
    tier: Tier,
    lens: &[usize],
) -> (Option<String>, Vec<Vec<i32>>, InterpProfile) {
    let name = |at: usize| Name::from(format!("b{at}"));
    let ir = IrProgram {
        functions: vec![IrFunction {
            name: "main".into(),
            params: (0..lens.len())
                .map(|at| (name(at), CType::Buf(Elem::I32)))
                .collect(),
            ret: CType::Void,
            ret_tuple: None,
            body,
        }],
    };
    let bufs: Vec<BufHandle> = lens
        .iter()
        .map(|&len| BufHandle::from_i32(vec![len], &vec![-1; len]))
        .collect();
    let interp = Interp::new(&ir, 1).with_tier(tier).with_profiling(true);
    let args = bufs.iter().cloned().map(Value::Buf).collect();
    let error = interp.call("main", args).err().map(|e| e.to_string());
    let cells = bufs.iter().map(|b| b.to_i32_vec().expect("live")).collect();
    (error, cells, interp.profile())
}

/// A loop of two full strips and a short one whose iteration `f` fails —
/// `f` the first lane of the first strip, mid-strip, the last lane, the
/// first lane of the second strip — leaves what the tree tier leaves: the
/// error text and every cell of every buffer. The iterations before `f`
/// ran in strips.
#[test]
fn a_failing_lane_fails_as_the_bytecode_does() {
    let n = 2 * STRIP + 5;
    let i = || var("i");
    for f in [0, 57, STRIP - 1, STRIP] {
        let index_error = format!("index {f} out of bounds for buffer of {f}");
        let fi = f as i64;
        let cases: Vec<(&str, Vec<IrStmt>, Vec<usize>, String)> = vec![
            (
                "store",
                vec![store(Elem::I32, "b0", i(), IrExpr::mul(i(), i()))],
                vec![f],
                index_error.clone(),
            ),
            (
                "load",
                vec![store(
                    Elem::I32,
                    "b1",
                    i(),
                    IrExpr::add(load(Elem::I32, "b0", i()), i()),
                )],
                vec![f, n],
                index_error.clone(),
            ),
            // A lane-varying divisor that reaches zero at lane `f`.
            (
                "divisor",
                vec![store(
                    Elem::I32,
                    "b0",
                    i(),
                    IrExpr::bin(B::Div, int(60), IrExpr::bin(B::Sub, int(fi), i())),
                )],
                vec![n],
                "integer division by zero".into(),
            ),
            // A carried accumulator updated before the store that fails
            // (what it holds at the bail: `scalar_loop`'s unit tests).
            (
                "accumulator",
                vec![
                    assign("acc", IrExpr::add(var("acc"), i())),
                    store(Elem::I32, "b0", i(), IrExpr::bin(B::Rem, i(), int(7))),
                ],
                vec![f],
                index_error.clone(),
            ),
        ];
        for (what, body, lens, message) in cases {
            let body = vec![
                decl(CType::Int, "acc", int(0)),
                for_loop("i", int(n as i64), body, false),
            ];
            let (tree_error, tree_cells, _) = run_over(body.clone(), Tier::Tree, &lens);
            let (vm_error, vm_cells, profile) = run_over(body, Tier::Vm, &lens);
            let what = format!("failing {what} at iteration {f}");
            assert_eq!(
                tree_error,
                Some(format!("runtime error: {message}")),
                "{what}"
            );
            assert_eq!(vm_error, tree_error, "{what}");
            assert_eq!(vm_cells, tree_cells, "{what}");
            assert_eq!(profile.per_iteration_loops, [], "{what}");
            assert_eq!(
                (
                    profile.unboxed_bails,
                    profile.unboxed_iters,
                    profile.unboxed_strip_iters,
                    profile.unboxed_declines
                ),
                (1, f as u64, f as u64, 0),
                "{what}: the iterations before it ran, in strips"
            );
        }
    }
}

/// A loop-invariant divisor of zero: the first strip completes no lane and
/// the bytecode raises its error; of -1: every lane is checked, and the one
/// dividing `INT_MIN` fails.
#[test]
fn an_invariant_divisor_of_zero_or_minus_one_fails_as_the_bytecode_does() {
    let n = (STRIP + 9) as i64;
    // `b0[i] = (i - 57 + INT_MIN) / z`: `INT_MIN / z` at iteration 57.
    let dividend = IrExpr::add(
        IrExpr::bin(B::Sub, var("i"), int(57)),
        int(i64::from(i32::MIN)),
    );
    for (z, message, ran) in [
        (0, "integer division by zero", 0),
        (-1, "integer division overflow", 57),
    ] {
        let body = vec![
            decl(CType::Int, "z", int(z)),
            for_loop(
                "i",
                int(n),
                vec![store(
                    Elem::I32,
                    "b0",
                    var("i"),
                    IrExpr::bin(B::Div, dividend.clone(), var("z")),
                )],
                false,
            ),
        ];
        let lens = [n as usize];
        let (tree_error, tree_cells, _) = run_over(body.clone(), Tier::Tree, &lens);
        let (vm_error, vm_cells, profile) = run_over(body, Tier::Vm, &lens);
        assert_eq!(tree_error, Some(format!("runtime error: {message}")));
        assert_eq!(vm_error, tree_error);
        assert_eq!(vm_cells, tree_cells, "divisor {z}");
        assert_eq!(
            (profile.unboxed_bails, profile.unboxed_strip_iters),
            (1, ran),
            "divisor {z}"
        );
    }
}

/// `out[i + 1] = in[i] + 1`: with `in` and `out` one buffer every iteration
/// reads what the one before it wrote, which a strip — all its loads, then
/// all its stores — would not. Such an entry runs per iteration; with two
/// buffers the same loop runs in strips.
#[test]
fn a_loop_that_loads_from_the_storage_it_stores_to_runs_per_iteration() {
    let n = 2 * STRIP + 5;
    let ir = IrProgram {
        functions: vec![IrFunction {
            name: "shift".into(),
            params: vec![
                ("in".into(), CType::Buf(Elem::I32)),
                ("out".into(), CType::Buf(Elem::I32)),
            ],
            ret: CType::Void,
            ret_tuple: None,
            body: vec![for_loop(
                "i",
                int(n as i64 - 1),
                vec![store(
                    Elem::I32,
                    "out",
                    IrExpr::add(var("i"), int(1)),
                    IrExpr::add(load(Elem::I32, "in", var("i")), int(1)),
                )],
                false,
            )],
        }],
    };
    let run = |tier, aliased: bool| {
        let input = BufHandle::from_i32(vec![n], &vec![0; n]);
        let output = if aliased {
            input.clone()
        } else {
            BufHandle::from_i32(vec![n], &vec![0; n])
        };
        let interp = Interp::new(&ir, 1).with_tier(tier).with_profiling(true);
        let args = vec![Value::Buf(input), Value::Buf(output.clone())];
        interp.call("shift", args).expect("runs");
        (output.to_i32_vec().expect("live"), interp.profile())
    };
    let trips = n as u64 - 1;

    let (tree, _) = run(Tier::Tree, true);
    let (vm, profile) = run(Tier::Vm, true);
    assert_eq!(tree, (0..n as i32).collect::<Vec<_>>(), "a running count");
    assert_eq!(vm, tree);
    assert_eq!(profile.per_iteration_loops, [], "the body has a plan");
    assert_eq!(
        (profile.unboxed_iters, profile.unboxed_strip_iters),
        (trips, 0),
        "unboxed, not in strips"
    );

    let (tree, _) = run(Tier::Tree, false);
    let (vm, profile) = run(Tier::Vm, false);
    assert_eq!(tree[..3], [0, 1, 1]);
    assert_eq!(vm, tree);
    assert_eq!(
        (profile.unboxed_iters, profile.unboxed_strip_iters),
        (trips, trips)
    );
}

/// NaNs produced mid-strip carry the bits the tree tier gives them: which
/// NaN `+NaN + -NaN` yields depends on the operand order the compiler
/// picked for the instruction, so the strip that produced one is computed
/// again by the tree tier's own copy of the operation.
#[test]
fn nans_produced_mid_strip_have_the_tree_tiers_bits() {
    let n = STRIP + 40;
    let negative_nan = f32::from_bits(f32::NAN.to_bits() | 0x8000_0000);
    let payload_nan = f32::from_bits(0x7fc0_1234);
    // Operand pairs planted at lanes of the first and of the second strip.
    let planted = [
        (5, f32::NAN, negative_nan),
        (57, negative_nan, f32::NAN),
        (58, f32::INFINITY, f32::INFINITY),
        (59, 0.0, f32::INFINITY),
        (60, f32::NEG_INFINITY, f32::INFINITY),
        (STRIP - 1, payload_nan, negative_nan),
        (STRIP, negative_nan, payload_nan),
        (STRIP + 20, f32::INFINITY, 0.0),
    ];
    let mut a: Vec<f32> = (0..n).map(|k| k as f32 * 0.5 - 20.0).collect();
    let mut b: Vec<f32> = (0..n).map(|k| 3.0 - k as f32 * 0.25).collect();
    for (lane, x, y) in planted {
        (a[lane], b[lane]) = (x, y);
    }
    // One loop an operation, and a fold whose accumulator goes NaN part-way
    // (`+inf` then `-inf`).
    let ops = [B::Add, B::Sub, B::Mul, B::Div, B::Rem];
    let mut body = vec![decl(CType::Float, "acc", IrExpr::Float(0.0))];
    for (at, op) in ops.into_iter().enumerate() {
        let operand = |buf| load(Elem::F32, buf, var("i"));
        body.push(for_loop(
            "i",
            var("n"),
            vec![store(
                Elem::F32,
                &format!("r{at}"),
                var("i"),
                IrExpr::bin(op, operand("a"), operand("b")),
            )],
            false,
        ));
    }
    body.push(for_loop(
        "i",
        var("n"),
        vec![assign(
            "acc",
            IrExpr::add(var("acc"), load(Elem::F32, "b", var("i"))),
        )],
        false,
    ));
    body.push(store(Elem::F32, "r0", int(0), var("acc")));
    let buf = |name: String| (Name::from(name), CType::Buf(Elem::F32));
    let mut params = vec![buf("a".into()), buf("b".into())];
    params.extend((0..ops.len()).map(|at| buf(format!("r{at}"))));
    params.push(("n".into(), CType::Int));
    let ir = IrProgram {
        functions: vec![IrFunction {
            name: "main".into(),
            params,
            ret: CType::Void,
            ret_tuple: None,
            body,
        }],
    };
    let run = |tier| {
        let results: Vec<BufHandle> = (0..ops.len())
            .map(|_| BufHandle::new(Elem::F32, vec![n]))
            .collect();
        let mut args = vec![
            Value::Buf(BufHandle::from_f32(vec![n], &a)),
            Value::Buf(BufHandle::from_f32(vec![n], &b)),
        ];
        args.extend(results.iter().cloned().map(Value::Buf));
        args.push(Value::I(n as i32));
        let interp = Interp::new(&ir, 1).with_tier(tier).with_profiling(true);
        interp.call("main", args).expect("runs");
        let bits: Vec<Vec<u32>> = results
            .iter()
            .map(|r| {
                let cells = r.to_i32_vec().expect("live");
                cells.into_iter().map(|x| x as u32).collect()
            })
            .collect();
        (bits, interp.profile())
    };
    let (tree, _) = run(Tier::Tree);
    let (vm, profile) = run(Tier::Vm);
    assert_eq!(
        profile.unboxed_strip_iters,
        6 * n as u64,
        "all six loops ran in strips"
    );
    for (at, op) in ops.into_iter().enumerate() {
        let nans = tree[at].iter().filter(|x| f32::from_bits(**x).is_nan());
        assert!(nans.count() >= 4, "{op:?} produced NaNs");
        assert_eq!(vm[at], tree[at], "{op:?}");
    }
    assert!(f32::from_bits(tree[0][0]).is_nan(), "the fold went NaN");
}

// ---- (d) eligibility -------------------------------------------------------

fn profiled_run(ir: &IrProgram, threads: usize) -> (String, InterpProfile) {
    let interp = Interp::new(ir, threads)
        .with_tier(Tier::Vm)
        .with_profiling(true);
    interp.run_main().expect("program runs");
    (interp.output(), interp.profile())
}

/// `(entries that ran unboxed, iterations they ran)`, after checking that
/// none declined or bailed and that no innermost loop was left boxed.
fn unboxed(profile: &InterpProfile) -> (u64, u64) {
    assert_eq!((profile.unboxed_declines, profile.unboxed_bails), (0, 0));
    assert_eq!(profile.boxed_loops, []);
    (profile.unboxed_loops, profile.unboxed_iters)
}

#[test]
fn the_example_programs_run_their_inner_loops_unboxed() {
    // imbalanced.xc: the 48 rows of the grid fill (64 columns each), the
    // 48 folds of `rowWork` ((i + 1) · 160 elements) and the final fold.
    let (_, p) = profiled_run(&compile(include_str!("../examples/imbalanced.xc"), true), 2);
    assert_eq!(
        unboxed(&p),
        (48 + 48 + 1, 48 * 64 + 160 * (48 * 49 / 2) + 48)
    );

    // pipeline_profile.xc: the same three loops with a 64-element fold.
    let (_, p) = profiled_run(
        &compile(include_str!("../examples/pipeline_profile.xc"), true),
        2,
    );
    assert_eq!(unboxed(&p), (48 + 48 + 1, 48 * 64 + 48 * 64 + 48));

    // matmul.xc: two float fills (96 and 160 rows), the row folds of the
    // float checksum (96), the int fill (72) and its checksum's row folds
    // (72). The products run as kernel calls, not as loops.
    let (_, p) = profiled_run(&compile(include_str!("../examples/matmul.xc"), true), 2);
    assert_eq!(p.kernel_calls, 2);
    assert_eq!(
        unboxed(&p),
        (
            96 + 160 + 96 + 72 + 72,
            96 * 160 + 160 * 72 + 96 * 72 + 72 * 72 + 72 * 72
        )
    );

    // The paper's temporal mean (Fig 1): the fold over time of each of the
    // 6 × 5 ocean points.
    let dir = std::env::temp_dir().join(format!("cmm-scalar-loop-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let (input, output) = (dir.join("ssh.cmmx"), dir.join("means.cmmx"));
    let params = SshParams {
        lat: 6,
        lon: 5,
        time: 9,
        ..SshParams::default()
    };
    write_f32(&input, &params.dims(), &synthetic_ssh(&params)).expect("input written");
    let src = temporal_mean_program(
        input.to_str().expect("utf-8"),
        output.to_str().expect("utf-8"),
        "",
    );
    let (_, p) = profiled_run(&compile(&src, true), 2);
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(unboxed(&p), (6 * 5, 6 * 5 * 9));
}

#[test]
fn bodies_without_an_unboxed_form_stay_boxed_and_still_run() {
    let boxed_ir = |ir: &IrProgram| {
        let (out, p) = profiled_run(ir, 1);
        assert_eq!(p.unboxed_loops, 0);
        let tree = Interp::new(ir, 1).with_tier(Tier::Tree);
        tree.run_main().expect("program runs");
        assert_eq!(out, tree.output());
        let reasons: Vec<(String, &str)> = p
            .boxed_loops
            .iter()
            .map(|b| (format!("{}: {}", b.function, b.var), b.reason))
            .collect();
        reasons
    };
    let boxed = |src: &str| boxed_ir(&compile(src, false));
    let owned = |xs: &[(&str, &'static str)]| -> Vec<(String, &'static str)> {
        xs.iter().map(|(l, r)| (l.to_string(), *r)).collect()
    };
    // A user call in the body.
    assert_eq!(
        boxed(
            "int twice(int x) { return x * 2; }
int main() {
    printInt(with ([0] <= [i] < [10]) fold(+, 0, twice(i)));
    return 0;
}"
        ),
        owned(&[("main: i", "body calls a user function")])
    );
    // `fold(max, …)` lowers to an `if`.
    assert_eq!(
        boxed(
            "int main() {
    printInt(with ([0] <= [i] < [10]) fold(max, 0, (i * 7) % 5));
    return 0;
}"
        ),
        owned(&[("main: i", "branch in body")])
    );
    // Two stores: an unrolled fill (its epilogue loop has one, and is
    // translated, but runs no iteration of an even extent).
    assert_eq!(
        boxed(
            "int main() {
    Matrix int <1> x = init(Matrix int <1>, 8);
    x = with ([0] <= [i] < [8]) genarray([8], i * i) transform unroll i by 2;
    printInt(x[3] + x[4]);
    return 0;
}"
        ),
        owned(&[("main: i_u", "store before a checked op")])
    );
    // A load after a store — a fill that reads back what it wrote — which
    // no with-loop lowers to: `for i { x[i] = i * i; s = s + x[i]; }`.
    let alloc = IrExpr::Builtin(Builtin::AllocMat(Elem::I32), vec![int(8)]);
    let read_back = IrProgram {
        functions: vec![IrFunction {
            name: "main".into(),
            params: vec![],
            ret: CType::Void,
            ret_tuple: None,
            body: vec![
                decl(CType::Buf(Elem::I32), "x", alloc),
                decl(CType::Int, "s", int(0)),
                for_loop(
                    "i",
                    int(8),
                    vec![
                        store(Elem::I32, "x", var("i"), IrExpr::mul(var("i"), var("i"))),
                        assign("s", IrExpr::add(var("s"), load(Elem::I32, "x", var("i")))),
                    ],
                    false,
                ),
                IrStmt::Expr(IrExpr::Builtin(Builtin::PrintI32, vec![var("s")])),
            ],
        }],
    };
    assert_eq!(
        boxed_ir(&read_back),
        owned(&[("main: i", "store before a checked op")])
    );
}
