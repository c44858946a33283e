//! Seeded, well-typed-by-construction program generator.
//!
//! Programs are built directly as `cmm-ast` trees via
//! [`cmm_ast::builder`] and rendered with
//! [`cmm_ast::display::print_program`], so every emitted case parses and
//! type-checks by construction. The generator covers the composed
//! extension surface — scalar control flow, matrices with
//! `with`-loops / `matrixMap` / slices, tuples, rc-pointers, `spawn` /
//! `sync`, and `transform` directives (`split` / `tile` / `unroll` /
//! `reorder` / `interchange` / `parallelize` / `schedule`) — while
//! staying inside the envelope where all four differential oracles must
//! agree bitwise:
//!
//! * integer magnitudes are bounded (scalar variables are reduced
//!   `% 97` on every assignment, expression trees are depth-limited),
//!   so 64-bit interpreter arithmetic and 32-bit emitted-C arithmetic
//!   never diverge through overflow;
//! * division and remainder only ever use nonzero literal divisors;
//! * float values stay finite (products never chain through variables),
//!   so no NaN can arise and printing is identical across backends;
//! * folds are `+` / `max` / `min` (never `*`), matching the backends'
//!   sequential fold evaluation;
//! * matrix extents are literals tracked at generation time, so every
//!   literal subscript and slice is in bounds. They are small (3–8), but
//!   for one rank-1 matrix in about a tenth of the cases, whose extent is
//!   around one or two strips of the VM's unboxed loops
//!   ([`LONG_EXTENT`]) so that the `vm` oracle sees full strips and strip
//!   boundaries; its int elements are `% 97`-reduced like every other, so
//!   a fold over it stays below 2¹⁵, and it never enters a product;
//! * `print*` calls appear only in sequential positions (helper
//!   functions mapped or spawned in parallel are pure).

use cmm_ast::builder as b;
use cmm_ast::{
    BinOp, ElemKind, Expr, FoldKind, Function, IndexExpr, Stmt, TransformSpec, Type,
};
use cmm_lang::SurfaceBuiltin as Sb;
use cmm_loopir::UNBOXED_STRIP as STRIP;
use cmm_tune::search::{self, DirectiveRng};
use proptest::test_runner::TestRng;

/// Adapter driving the shared directive sampler (`cmm_tune::search`)
/// with the fuzzer's proptest rng. The trait's default draw helpers are
/// byte-for-byte the same arithmetic as [`Gen`]'s own, so delegating
/// directive selection leaves every generated stream unchanged.
struct RngRef<'a>(&'a mut TestRng);

impl DirectiveRng for RngRef<'_> {
    fn next_u64(&mut self) -> u64 {
        self.0.next_u64()
    }
}

/// Call of a source-level builtin.
fn builtin(f: Sb, args: Vec<Expr>) -> Expr {
    b::call(f.name(), args)
}

/// Bound for scalar int variables: every assignment reduces `% 97`.
const INT_MOD: i64 = 97;

/// Extents of the one long vector a case may have: just under a full strip
/// of an unboxed loop to a little over two.
const LONG_EXTENT: (i64, i64) = (STRIP as i64 - 1, 2 * STRIP as i64 + 3);

/// Render the case-`index` program of stream `seed` as source text.
pub fn generate_source(seed: u64, index: u32) -> String {
    let mut g = Gen::new(seed, index);
    let prog = g.program();
    cmm_ast::display::print_program(&prog)
}

/// A rank-1 or rank-2 matrix in scope, with its literal extents.
struct Mat {
    name: String,
    elem: ElemKind,
    extents: Vec<i64>,
    /// Results of matrix products / element-wise ops: excluded from
    /// further products so float magnitudes cannot chain toward
    /// infinity.
    derived: bool,
}

struct Gen {
    rng: TestRng,
    next: u32,
    /// Scalar ints with `|v| < INT_MOD` guaranteed.
    ints: Vec<String>,
    /// Print-only ints (fold results): bounded but not `% 97`-reduced,
    /// so they never re-enter arithmetic.
    wide_ints: Vec<String>,
    floats: Vec<String>,
    bools: Vec<String>,
    /// Literal-valued size variables, never reassigned.
    sizes: Vec<(String, i64)>,
    /// The case's next rank-1 matrix takes a [`LONG_EXTENT`].
    long_vector: bool,
    mats: Vec<Mat>,
    has_map_helper: bool,
    has_tuple_helper: bool,
    has_work_helper: bool,
}

impl Gen {
    fn new(seed: u64, index: u32) -> Gen {
        let case_seed = seed ^ u64::from(index).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        // Drawn from a stream of its own: the other nine tenths of the
        // cases are the programs they were before long vectors existed.
        let mut own = TestRng::with_seed(case_seed ^ 0x006c_6f6e_6776_6563);
        let long_vector = own.next_u64() % 10 < 1;
        Gen {
            long_vector,
            rng: TestRng::with_seed(case_seed),
            next: 0,
            ints: Vec::new(),
            wide_ints: Vec::new(),
            floats: Vec::new(),
            bools: Vec::new(),
            sizes: Vec::new(),
            mats: Vec::new(),
            has_map_helper: false,
            has_tuple_helper: false,
            has_work_helper: false,
        }
    }

    // ------------------------------------------------------------ rng utils

    fn below(&mut self, n: u64) -> u64 {
        self.rng.next_u64() % n.max(1)
    }

    /// Uniform in `lo..=hi`.
    fn int_in(&mut self, lo: i64, hi: i64) -> i64 {
        lo + self.below((hi - lo + 1) as u64) as i64
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }

    fn fresh(&mut self, prefix: &str) -> String {
        self.next += 1;
        format!("{prefix}{}", self.next)
    }

    fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        let i = self.below(items.len() as u64) as usize;
        &items[i]
    }

    // ------------------------------------------------------- expressions

    /// Bounded int atom: literal, reduced scalar var, size var, or an
    /// in-scope index variable. All have `|v| <= 96`.
    fn int_atom(&mut self, idxs: &[String]) -> Expr {
        let mut arms: Vec<u8> = vec![0, 0];
        if !self.ints.is_empty() {
            arms.push(1);
        }
        if !self.sizes.is_empty() {
            arms.push(2);
        }
        if !idxs.is_empty() {
            arms.push(3);
        }
        match *self.pick(&arms) {
            1 => {
                let v = self.pick(&self.ints.clone()).clone();
                b::var_ref(&v)
            }
            2 => {
                let v = self.pick(&self.sizes.clone()).0.clone();
                b::var_ref(&v)
            }
            3 => {
                let v = self.pick(idxs).clone();
                b::var_ref(&v)
            }
            _ => b::int(self.int_in(-9, 9)),
        }
    }

    /// Int expression of the given depth over bounded atoms. With depth
    /// <= 2 and atoms bounded by 96, the value fits comfortably in i32
    /// (worst case 96^4), so interpreter (i64) and emitted C (int) agree.
    fn int_expr(&mut self, idxs: &[String], depth: u32) -> Expr {
        if depth == 0 || self.chance(30) {
            return self.int_atom(idxs);
        }
        let op = *self.pick(&[BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Rem]);
        if op == BinOp::Rem {
            // Remainder only by a nonzero literal: sign semantics
            // (truncation toward zero) match between Rust and C.
            let lhs = self.int_expr(idxs, depth - 1);
            let m = *self.pick(&[5i64, 7, 11, 13]);
            return b::binary(BinOp::Rem, lhs, b::int(m));
        }
        let l = self.int_expr(idxs, depth - 1);
        let r = self.int_expr(idxs, depth - 1);
        b::binary(op, l, r)
    }

    /// `(expr) % 97` — the reduction applied to every scalar int
    /// assignment so variables stay bounded.
    fn reduced(&mut self, e: Expr) -> Expr {
        b::binary(BinOp::Rem, e, b::int(INT_MOD))
    }

    fn float_lit(&mut self) -> Expr {
        // Multiples of 0.25: exact in f32, so source round-trips exactly.
        b::float(self.int_in(-24, 24) as f32 * 0.25)
    }

    /// Float expression. Products never involve float *variables*
    /// (additive reuse only), so magnitudes stay far from overflow and
    /// no NaN can be produced.
    fn float_expr(&mut self, idxs: &[String], depth: u32, vars_ok: bool) -> Expr {
        if depth == 0 || self.chance(25) {
            return self.float_atom(idxs, vars_ok);
        }
        match self.below(4) {
            0 => {
                let l = self.float_expr(idxs, depth - 1, vars_ok);
                let r = self.float_expr(idxs, depth - 1, vars_ok);
                b::binary(BinOp::Add, l, r)
            }
            1 => {
                let l = self.float_expr(idxs, depth - 1, vars_ok);
                let r = self.float_expr(idxs, depth - 1, vars_ok);
                b::binary(BinOp::Sub, l, r)
            }
            2 => {
                // Multiplication over var-free operands only.
                let l = self.float_expr(idxs, depth - 1, false);
                let r = self.float_expr(idxs, depth - 1, false);
                b::binary(BinOp::Mul, l, r)
            }
            _ => {
                let l = self.float_expr(idxs, depth - 1, vars_ok);
                let d = *self.pick(&[2.0f32, 3.0, 4.0, 7.0, 8.0]);
                b::binary(BinOp::Div, l, b::float(d))
            }
        }
    }

    fn float_atom(&mut self, idxs: &[String], vars_ok: bool) -> Expr {
        if vars_ok && !self.floats.is_empty() && self.chance(35) {
            let v = self.pick(&self.floats.clone()).clone();
            return b::var_ref(&v);
        }
        if self.chance(50) {
            let e = self.int_expr(idxs, 1);
            return builtin(Sb::ToFloat, vec![e]);
        }
        self.float_lit()
    }

    fn bool_expr(&mut self, idxs: &[String]) -> Expr {
        let cmp = *self.pick(&[BinOp::Lt, BinOp::Le, BinOp::Gt, BinOp::Ge, BinOp::Eq, BinOp::Ne]);
        if self.chance(40) && !self.floats.is_empty() {
            let l = self.float_expr(idxs, 1, true);
            let r = self.float_expr(idxs, 1, true);
            b::binary(cmp, l, r)
        } else {
            let l = self.int_expr(idxs, 1);
            let r = self.int_expr(idxs, 1);
            b::binary(cmp, l, r)
        }
    }

    // --------------------------------------------------------- helpers

    fn map_helper(&self) -> Function {
        // Pure rank-1 kernel for matrixMap: no prints (it runs under the
        // auto-parallelized outer loop).
        let body = vec![
            b::decl(Type::Int, "hn", builtin(Sb::DimSize, vec![b::var_ref("row"), b::int(0)])),
            b::decl(
                Type::Matrix(ElemKind::Float, 1),
                "hout",
                b::init_matrix(Type::Matrix(ElemKind::Float, 1), vec![b::var_ref("hn")]),
            ),
            b::for_range(
                "hi",
                b::int(0),
                b::var_ref("hn"),
                vec![b::assign(
                    b::lv_index("hout", vec![b::at(b::var_ref("hi"))]),
                    b::binary(
                        BinOp::Add,
                        b::binary(
                            BinOp::Mul,
                            b::index(b::var_ref("row"), vec![b::at(b::var_ref("hi"))]),
                            b::float(0.5),
                        ),
                        builtin(Sb::ToFloat, vec![b::var_ref("hi")]),
                    ),
                )],
            ),
            b::ret(b::var_ref("hout")),
        ];
        b::function(
            Type::Matrix(ElemKind::Float, 1),
            "rowKernel",
            vec![b::param(Type::Matrix(ElemKind::Float, 1), "row")],
            body,
        )
    }

    fn tuple_helper(&self) -> Function {
        let ret = Type::Tuple(vec![Type::Int, Type::Float]);
        let body = vec![b::ret(b::tuple(vec![
            b::binary(
                BinOp::Rem,
                b::binary(BinOp::Add, b::var_ref("ta"), b::var_ref("tb")),
                b::int(INT_MOD),
            ),
            b::binary(
                BinOp::Div,
                builtin(Sb::ToFloat, vec![b::binary(BinOp::Sub, b::var_ref("ta"), b::var_ref("tb"))]),
                b::float(4.0),
            ),
        ]))];
        b::function(
            ret,
            "pairStats",
            vec![b::param(Type::Int, "ta"), b::param(Type::Int, "tb")],
            body,
        )
    }

    fn work_helper(&self) -> Function {
        let body = vec![b::ret(b::binary(
            BinOp::Rem,
            b::binary(
                BinOp::Add,
                b::binary(BinOp::Mul, b::var_ref("wa"), b::var_ref("wb")),
                b::int(7),
            ),
            b::int(INT_MOD),
        ))];
        b::function(
            Type::Int,
            "spawnWork",
            vec![b::param(Type::Int, "wa"), b::param(Type::Int, "wb")],
            body,
        )
    }

    // ------------------------------------------------------- statements

    fn stmt_int_decl(&mut self) -> Vec<Stmt> {
        let name = self.fresh("a");
        let v = self.int_in(-9, 9);
        self.ints.push(name.clone());
        vec![b::decl(Type::Int, &name, b::int(v))]
    }

    fn stmt_float_decl(&mut self) -> Vec<Stmt> {
        let name = self.fresh("x");
        let lit = self.float_lit();
        self.floats.push(name.clone());
        vec![b::decl(Type::Float, &name, lit)]
    }

    fn stmt_int_assign(&mut self, idxs: &[String]) -> Vec<Stmt> {
        if self.ints.is_empty() {
            return self.stmt_int_decl();
        }
        let name = self.pick(&self.ints.clone()).clone();
        let e = self.int_expr(idxs, 2);
        let red = self.reduced(e);
        vec![b::assign_var(&name, red)]
    }

    fn stmt_float_assign(&mut self, idxs: &[String]) -> Vec<Stmt> {
        if self.floats.is_empty() {
            return self.stmt_float_decl();
        }
        let name = self.pick(&self.floats.clone()).clone();
        let e = self.float_expr(idxs, 2, true);
        vec![b::assign_var(&name, e)]
    }

    fn stmt_bool_decl(&mut self, idxs: &[String]) -> Vec<Stmt> {
        let name = self.fresh("p");
        let e = self.bool_expr(idxs);
        self.bools.push(name.clone());
        vec![b::decl(Type::Bool, &name, e)]
    }

    fn stmt_print_scalar(&mut self, idxs: &[String]) -> Vec<Stmt> {
        let mut arms: Vec<u8> = Vec::new();
        if !self.ints.is_empty() {
            arms.push(0);
        }
        if !self.wide_ints.is_empty() {
            arms.push(1);
        }
        if !self.floats.is_empty() {
            arms.push(2);
        }
        if !self.bools.is_empty() {
            arms.push(3);
        }
        if arms.is_empty() {
            return self.stmt_int_decl();
        }
        let stmt = match *self.pick(&arms) {
            0 => {
                let v = self.pick(&self.ints.clone()).clone();
                b::expr_stmt(builtin(Sb::PrintInt, vec![b::var_ref(&v)]))
            }
            1 => {
                let v = self.pick(&self.wide_ints.clone()).clone();
                b::expr_stmt(builtin(Sb::PrintInt, vec![b::var_ref(&v)]))
            }
            2 => {
                let v = self.pick(&self.floats.clone()).clone();
                b::expr_stmt(builtin(Sb::PrintFloat, vec![b::var_ref(&v)]))
            }
            _ => {
                let v = self.pick(&self.bools.clone()).clone();
                b::expr_stmt(builtin(Sb::PrintBool, vec![b::var_ref(&v)]))
            }
        };
        let _ = idxs;
        vec![stmt]
    }

    /// Simple statements usable inside nested blocks (no declarations,
    /// so scope tracking stays trivial).
    fn inner_stmt(&mut self, idxs: &[String]) -> Vec<Stmt> {
        match self.below(3) {
            0 => self.stmt_int_assign(idxs),
            1 => self.stmt_float_assign(idxs),
            _ => self.stmt_print_scalar(idxs),
        }
    }

    fn stmt_if(&mut self, idxs: &[String]) -> Vec<Stmt> {
        let cond = self.bool_expr(idxs);
        let then_blk = self.inner_stmt(idxs);
        if self.chance(50) {
            let else_blk = self.inner_stmt(idxs);
            vec![b::if_else(cond, then_blk, else_blk)]
        } else {
            vec![b::if_stmt(cond, then_blk)]
        }
    }

    fn stmt_for(&mut self, idxs: &[String]) -> Vec<Stmt> {
        let t = self.fresh("t");
        let k = self.int_in(2, 8);
        let mut inner_idxs = idxs.to_vec();
        inner_idxs.push(t.clone());
        let mut body = self.inner_stmt(&inner_idxs);
        if self.chance(40) {
            body.extend(self.inner_stmt(&inner_idxs));
        }
        vec![b::for_range(&t, b::int(0), b::int(k), body)]
    }

    fn stmt_while(&mut self, idxs: &[String]) -> Vec<Stmt> {
        let w = self.fresh("w");
        let k = self.int_in(2, 6);
        let mut inner_idxs = idxs.to_vec();
        inner_idxs.push(w.clone());
        let mut body = self.inner_stmt(&inner_idxs);
        body.push(b::assign_var(&w, b::binary(BinOp::Add, b::var_ref(&w), b::int(1))));
        let out = vec![
            b::decl(Type::Int, &w, b::int(0)),
            b::while_stmt(b::binary(BinOp::Lt, b::var_ref(&w), b::int(k)), body),
        ];
        self.ints.push(w);
        out
    }

    /// Pick a size variable, returning `(name, literal value)`. When a
    /// fresh one is minted, its `int n = <literal>;` declaration is
    /// pushed onto `out` so the reference stays well-scoped.
    fn some_size(&mut self, out: &mut Vec<Stmt>) -> (String, i64) {
        if self.sizes.is_empty() || (self.sizes.len() < 3 && self.chance(40)) {
            let name = self.fresh("n");
            let v = self.int_in(3, 8);
            out.push(b::decl(Type::Int, &name, b::int(v)));
            self.sizes.push((name.clone(), v));
            return (name, v);
        }
        self.pick(&self.sizes.clone()).clone()
    }

    /// The extent of a rank-1 matrix: [`Gen::some_size`], or the case's
    /// long extent — a size variable of its own that no other matrix
    /// shares, so the case stays quick in the tree tier.
    fn vector_size(&mut self, out: &mut Vec<Stmt>) -> (String, i64) {
        if !std::mem::take(&mut self.long_vector) {
            return self.some_size(out);
        }
        let name = self.fresh("n");
        let v = self.int_in(LONG_EXTENT.0, LONG_EXTENT.1);
        out.push(b::decl(Type::Int, &name, b::int(v)));
        (name, v)
    }

    /// A size variable holding exactly `v`, minted (and declared onto
    /// `out`) when none is in scope.
    fn size_of_value(&mut self, v: i64, out: &mut Vec<Stmt>) -> (String, i64) {
        if let Some(hit) = self.sizes.iter().find(|(_, val)| *val == v) {
            return hit.clone();
        }
        let name = self.fresh("n");
        out.push(b::decl(Type::Int, &name, b::int(v)));
        self.sizes.push((name.clone(), v));
        (name, v)
    }

    /// `Matrix <elem> <1> v = with ([0] <= [i] < [n]) genarray([n], body);`
    fn stmt_genarray1(&mut self) -> Vec<Stmt> {
        let mut out = Vec::new();
        let (nvar, nval) = self.vector_size(&mut out);
        let name = self.fresh("v");
        let iv = self.fresh("i");
        let float_elem = self.chance(55);
        let idxs = vec![iv.clone()];
        let body = if float_elem {
            self.float_expr(&idxs, 2, false)
        } else {
            let e = self.int_expr(&idxs, 2);
            self.reduced(e)
        };
        let elem = if float_elem { ElemKind::Float } else { ElemKind::Int };
        let gen = b::generator(&[&iv], vec![b::int(0)], vec![b::var_ref(&nvar)]);
        let with = b::with_genarray(gen, vec![b::var_ref(&nvar)], body);
        out.push(b::decl(Type::Matrix(elem, 1), &name, with));
        self.mats.push(Mat { name, elem, extents: vec![nval], derived: false });
        if nval >= LONG_EXTENT.0 {
            // Its fill is a one-deep parallel loop, which does not run
            // unboxed; a `+` fold over it is a sequential loop with a
            // straight-line body, which does.
            out.extend(self.fold_over(self.mats.len() - 1, FoldKind::Add));
        }
        out
    }

    /// Rank-2 genarray, optionally via `init` + transformed assign.
    fn stmt_genarray2(&mut self) -> Vec<Stmt> {
        self.genarray2((None, None), None)
    }

    /// [`Gen::stmt_genarray2`] with extents and/or the element type
    /// pinned, so a product's operands can be built to conform.
    fn genarray2(
        &mut self,
        (rows, cols): (Option<i64>, Option<i64>),
        elem: Option<ElemKind>,
    ) -> Vec<Stmt> {
        let mut pre = Vec::new();
        let mut size = |g: &mut Gen, pinned: Option<i64>| match pinned {
            Some(v) => g.size_of_value(v, &mut pre),
            None => g.some_size(&mut pre),
        };
        let (mvar, mval) = size(self, rows);
        let (nvar, nval) = size(self, cols);
        let name = self.fresh("m");
        let iv = self.fresh("i");
        let jv = self.fresh("j");
        let idxs = vec![iv.clone(), jv.clone()];
        let float_elem = match elem {
            Some(e) => e == ElemKind::Float,
            None => self.chance(70),
        };
        let body = if float_elem {
            self.float_expr(&idxs, 2, false)
        } else {
            let e = self.int_expr(&idxs, 2);
            self.reduced(e)
        };
        let elem = if float_elem { ElemKind::Float } else { ElemKind::Int };
        let ty = Type::Matrix(elem, 2);
        let gen = b::generator(
            &[&iv, &jv],
            vec![b::int(0), b::int(0)],
            vec![b::var_ref(&mvar), b::var_ref(&nvar)],
        );
        let with = b::with_genarray(gen, vec![b::var_ref(&mvar), b::var_ref(&nvar)], body);
        let mut out = pre;
        if self.chance(55) {
            // Transformed form: transforms attach to assignments, so
            // declare via init() first.
            let transforms = self.transforms_for(&iv, &jv);
            out.push(b::decl(
                ty.clone(),
                &name,
                b::init_matrix(ty, vec![b::var_ref(&mvar), b::var_ref(&nvar)]),
            ));
            out.push(b::assign_transformed(b::lv_var(&name), with, transforms));
        } else {
            out.push(b::decl(ty, &name, with));
        }
        self.mats.push(Mat { name, elem, extents: vec![mval, nval], derived: false });
        out
    }

    /// A coherent directive list over a 2-D loop nest with indices
    /// `i`, `j` — every referenced index names an actual loop. The
    /// shape itself comes from the shared sampler the autotuner also
    /// explores with ([`cmm_tune::search::sample_rank2`]).
    fn transforms_for(&mut self, i: &str, j: &str) -> Vec<TransformSpec> {
        let inner = self.fresh("in");
        let outer = self.fresh("out");
        search::sample_rank2(&mut RngRef(&mut self.rng), i, j, &inner, &outer)
    }

    /// Rank-1 transformed with-assign (split / unroll / schedule).
    fn stmt_transformed1(&mut self) -> Vec<Stmt> {
        let mut out = Vec::new();
        let (nvar, nval) = self.vector_size(&mut out);
        let name = self.fresh("v");
        let iv = self.fresh("i");
        let idxs = vec![iv.clone()];
        let e = self.int_expr(&idxs, 2);
        let body = self.reduced(e);
        let ty = Type::Matrix(ElemKind::Int, 1);
        let gen = b::generator(&[&iv], vec![b::int(0)], vec![b::var_ref(&nvar)]);
        let with = b::with_genarray(gen, vec![b::var_ref(&nvar)], body);
        let inner = self.fresh("in");
        let outer = self.fresh("out");
        let transforms = search::sample_rank1(&mut RngRef(&mut self.rng), &iv, &inner, &outer);
        out.push(b::decl(ty.clone(), &name, b::init_matrix(ty, vec![b::var_ref(&nvar)])));
        out.push(b::assign_transformed(b::lv_var(&name), with, transforms));
        self.mats.push(Mat { name, elem: ElemKind::Int, extents: vec![nval], derived: false });
        if nval >= LONG_EXTENT.0 {
            out.extend(self.fold_over(self.mats.len() - 1, FoldKind::Add));
        }
        out
    }

    fn pick_mat(&mut self, want: impl Fn(&Mat) -> bool) -> Option<usize> {
        let hits: Vec<usize> = self
            .mats
            .iter()
            .enumerate()
            .filter(|(_, m)| want(m))
            .map(|(i, _)| i)
            .collect();
        if hits.is_empty() {
            return None;
        }
        Some(*self.pick(&hits))
    }

    /// `with (...) modarray(src, body)` over a sub-box of an existing
    /// rank-2 float matrix.
    fn stmt_modarray(&mut self) -> Vec<Stmt> {
        let Some(mi) = self.pick_mat(|m| m.elem == ElemKind::Float && m.extents.len() == 2 && m.extents.iter().all(|&e| e >= 2))
        else {
            return self.stmt_genarray2();
        };
        let (src, er, ec) = {
            let m = &self.mats[mi];
            (m.name.clone(), m.extents[0], m.extents[1])
        };
        let name = self.fresh("m");
        let iv = self.fresh("i");
        let jv = self.fresh("j");
        let idxs = vec![iv.clone(), jv.clone()];
        let body = self.float_expr(&idxs, 2, false);
        let gen = b::generator(
            &[&iv, &jv],
            vec![b::int(1), b::int(1)],
            vec![b::int(er), b::int(ec)],
        );
        let with = b::with_modarray(gen, b::var_ref(&src), body);
        let stmt = b::decl(Type::Matrix(ElemKind::Float, 2), &name, with);
        self.mats.push(Mat {
            name,
            elem: ElemKind::Float,
            extents: vec![er, ec],
            derived: false,
        });
        vec![stmt]
    }

    /// Print a fold over an existing matrix (or bind an int fold to a
    /// print-only wide variable).
    fn stmt_fold(&mut self) -> Vec<Stmt> {
        let Some(mi) = self.pick_mat(|_| true) else {
            return self.stmt_genarray1();
        };
        let kind = *self.pick(&[FoldKind::Add, FoldKind::Max, FoldKind::Min]);
        self.fold_over(mi, kind)
    }

    /// [`Gen::stmt_fold`] of kind `kind` over matrix `mi`.
    fn fold_over(&mut self, mi: usize, kind: FoldKind) -> Vec<Stmt> {
        let (name, elem, extents) = {
            let m = &self.mats[mi];
            (m.name.clone(), m.elem, m.extents.clone())
        };
        let vars: Vec<String> = (0..extents.len()).map(|_| self.fresh("k")).collect();
        let var_refs: Vec<&str> = vars.iter().map(|s| s.as_str()).collect();
        let gen = b::generator(
            &var_refs,
            extents.iter().map(|_| b::int(0)).collect(),
            extents.iter().map(|&e| b::int(e)).collect(),
        );
        let subject = b::index(
            b::var_ref(&name),
            vars.iter().map(|v| b::at(b::var_ref(v))).collect(),
        );
        match elem {
            ElemKind::Float => {
                let fold = b::with_fold(gen, kind, b::float(0.0), subject);
                vec![b::expr_stmt(builtin(Sb::PrintFloat, vec![fold]))]
            }
            _ => {
                let fold = b::with_fold(gen, kind, b::int(0), subject);
                let wide = self.fresh("s");
                let out = vec![
                    b::decl(Type::Int, &wide, fold),
                    b::expr_stmt(builtin(Sb::PrintInt, vec![b::var_ref(&wide)])),
                ];
                self.wide_ints.push(wide);
                out
            }
        }
    }

    /// Print one element through a literal in-bounds subscript (or the
    /// `end` keyword on rank-1 matrices).
    fn stmt_elem_print(&mut self) -> Vec<Stmt> {
        let Some(mi) = self.pick_mat(|_| true) else {
            return self.stmt_genarray1();
        };
        let (name, elem, extents) = {
            let m = &self.mats[mi];
            (m.name.clone(), m.elem, m.extents.clone())
        };
        let use_end = extents.len() == 1 && self.chance(30);
        let indices: Vec<IndexExpr> = if use_end {
            vec![b::at(Expr::End(cmm_ast::Span::SYNTH))]
        } else {
            extents
                .iter()
                .map(|&e| {
                    let l = self.int_in(0, e - 1);
                    b::at(b::int(l))
                })
                .collect()
        };
        let read = b::index(b::var_ref(&name), indices);
        let print = if elem == ElemKind::Float { Sb::PrintFloat } else { Sb::PrintInt };
        vec![b::expr_stmt(builtin(print, vec![read]))]
    }

    /// Store into one element: `m[l1, l2] = expr;`
    fn stmt_elem_store(&mut self) -> Vec<Stmt> {
        let Some(mi) = self.pick_mat(|_| true) else {
            return self.stmt_genarray1();
        };
        let (name, elem, extents) = {
            let m = &self.mats[mi];
            (m.name.clone(), m.elem, m.extents.clone())
        };
        let indices: Vec<IndexExpr> = extents
            .iter()
            .map(|&e| {
                let l = self.int_in(0, e - 1);
                b::at(b::int(l))
            })
            .collect();
        let value = if elem == ElemKind::Float {
            self.float_expr(&[], 1, true)
        } else {
            let e = self.int_expr(&[], 1);
            self.reduced(e)
        };
        vec![b::assign(b::lv_index(&name, indices), value)]
    }

    /// Slice a rank-2 float matrix into a column (`m[:, c]`) or a
    /// row-band (`m[a : b, :]`).
    fn stmt_slice(&mut self) -> Vec<Stmt> {
        let Some(mi) = self.pick_mat(|m| m.elem == ElemKind::Float && m.extents.len() == 2)
        else {
            return self.stmt_genarray2();
        };
        let (src, er, ec) = {
            let m = &self.mats[mi];
            (m.name.clone(), m.extents[0], m.extents[1])
        };
        if self.chance(50) {
            let name = self.fresh("col");
            let c = self.int_in(0, ec - 1);
            let stmt = b::decl(
                Type::Matrix(ElemKind::Float, 1),
                &name,
                b::index(b::var_ref(&src), vec![IndexExpr::All, b::at(b::int(c))]),
            );
            self.mats.push(Mat {
                name,
                elem: ElemKind::Float,
                extents: vec![er],
                derived: true,
            });
            vec![stmt]
        } else {
            let name = self.fresh("band");
            let lo = self.int_in(0, er - 2);
            let hi = self.int_in(lo, er - 1);
            let stmt = b::decl(
                Type::Matrix(ElemKind::Float, 2),
                &name,
                b::index(
                    b::var_ref(&src),
                    vec![
                        IndexExpr::Range(Box::new(b::int(lo)), Box::new(b::int(hi))),
                        IndexExpr::All,
                    ],
                ),
            );
            self.mats.push(Mat {
                name,
                elem: ElemKind::Float,
                extents: vec![hi - lo + 1, ec],
                derived: true,
            });
            vec![stmt]
        }
    }

    /// `c = a * b` matrix product of non-derived rank-2 operands, float
    /// or int (derived results are excluded from further products so
    /// magnitudes cannot chain; int operands are `% 97`-reduced, so an
    /// 8-term dot product stays far inside 32 bits). About a third of
    /// the products are `a * a` (aliased operands, square); the rest
    /// multiply by a distinct `k × n` matrix and are in general
    /// non-square. Operands come from scope when one conforms and are
    /// built for the purpose otherwise.
    fn stmt_matmul(&mut self) -> Vec<Stmt> {
        let aliased = self.chance(30);
        let mut out = Vec::new();
        let usable = |m: &Mat| m.extents.len() == 2 && !m.derived;
        let ai = match self.pick_mat(|m| usable(m) && (!aliased || m.extents[0] == m.extents[1])) {
            Some(ai) => ai,
            None => {
                let edge = aliased.then(|| self.int_in(3, 8));
                out.extend(self.genarray2((edge, edge), None));
                self.mats.len() - 1
            }
        };
        let (lhs, elem, m, k) = {
            let a = &self.mats[ai];
            (a.name.clone(), a.elem, a.extents[0], a.extents[1])
        };
        let bi = if aliased {
            ai
        } else {
            let conforming = self.pick_mat(|x| {
                usable(x) && x.name != lhs && x.elem == elem && x.extents[0] == k
            });
            match conforming {
                Some(bi) => bi,
                None => {
                    out.extend(self.genarray2((Some(k), None), Some(elem)));
                    self.mats.len() - 1
                }
            }
        };
        let (rhs, n) = (self.mats[bi].name.clone(), self.mats[bi].extents[1]);
        let name = self.fresh("prod");
        out.push(b::decl(
            Type::Matrix(elem, 2),
            &name,
            b::binary(BinOp::Mul, b::var_ref(&lhs), b::var_ref(&rhs)),
        ));
        self.mats.push(Mat {
            name,
            elem,
            extents: vec![m, n],
            derived: true,
        });
        out
    }

    /// `c = matrixMap(rowKernel, m, [1]);`
    fn stmt_matrix_map(&mut self) -> Vec<Stmt> {
        if !self.has_map_helper {
            return self.stmt_genarray2();
        }
        let Some(mi) = self.pick_mat(|m| m.elem == ElemKind::Float && m.extents.len() == 2)
        else {
            return self.stmt_genarray2();
        };
        let (src, extents) = {
            let m = &self.mats[mi];
            (m.name.clone(), m.extents.clone())
        };
        let name = self.fresh("mapd");
        let stmt = b::decl(
            Type::Matrix(ElemKind::Float, 2),
            &name,
            b::matrix_map("rowKernel", b::var_ref(&src), vec![1]),
        );
        self.mats.push(Mat { name, elem: ElemKind::Float, extents, derived: false });
        vec![stmt]
    }

    /// `(q, g) = pairStats(a, b);`
    fn stmt_tuple_call(&mut self) -> Vec<Stmt> {
        if !self.has_tuple_helper {
            return self.stmt_int_decl();
        }
        let q = self.fresh("q");
        let g = self.fresh("g");
        let a1 = self.int_atom(&[]);
        let a2 = self.int_atom(&[]);
        let out = vec![
            b::decl(Type::Int, &q, b::int(0)),
            b::decl(Type::Float, &g, b::float(0.0)),
            b::assign(b::lv_tuple(&[&q, &g]), b::call("pairStats", vec![a1, a2])),
        ];
        self.ints.push(q);
        self.floats.push(g);
        out
    }

    /// rc-pointer block: alloc, fill, read back, length.
    fn stmt_rc_block(&mut self) -> Vec<Stmt> {
        let buf = self.fresh("buf");
        let len = self.int_in(3, 8);
        let iv = self.fresh("ri");
        let fill = self.float_expr(std::slice::from_ref(&iv), 1, false);
        let out = vec![
            b::decl(
                Type::Rc(ElemKind::Float),
                &buf,
                b::rc_alloc(ElemKind::Float, b::int(len)),
            ),
            b::for_range(
                &iv,
                b::int(0),
                b::int(len),
                vec![b::expr_stmt(builtin(
                    Sb::RcSet,
                    vec![b::var_ref(&buf), b::var_ref(&iv), fill],
                ))],
            ),
            b::expr_stmt(builtin(
                Sb::PrintFloat,
                vec![builtin(Sb::RcGet, vec![b::var_ref(&buf), b::int(len - 1)])],
            )),
            b::expr_stmt(builtin(Sb::PrintInt, vec![builtin(Sb::RcLen, vec![b::var_ref(&buf)])])),
        ];
        out
    }

    /// Spawn two helper calls, sync, print the results.
    fn stmt_spawn_block(&mut self) -> Vec<Stmt> {
        if !self.has_work_helper {
            return self.stmt_int_decl();
        }
        let r1 = self.fresh("r");
        let r2 = self.fresh("r");
        let args1 = vec![self.int_atom(&[]), self.int_atom(&[])];
        let args2 = vec![self.int_atom(&[]), self.int_atom(&[])];
        let out = vec![
            b::decl(Type::Int, &r1, b::int(0)),
            b::decl(Type::Int, &r2, b::int(0)),
            b::spawn(Some(&r1), b::call("spawnWork", args1)),
            b::spawn(Some(&r2), b::call("spawnWork", args2)),
            b::sync(),
            b::expr_stmt(builtin(Sb::PrintInt, vec![b::var_ref(&r1)])),
            b::expr_stmt(builtin(Sb::PrintInt, vec![b::var_ref(&r2)])),
        ];
        self.ints.push(r1);
        self.ints.push(r2);
        out
    }

    fn random_stmt(&mut self) -> Vec<Stmt> {
        match self.below(18) {
            0 => self.stmt_int_decl(),
            1 => self.stmt_float_decl(),
            2 => self.stmt_int_assign(&[]),
            3 => self.stmt_float_assign(&[]),
            4 => self.stmt_bool_decl(&[]),
            5 => self.stmt_if(&[]),
            6 => self.stmt_for(&[]),
            7 => self.stmt_while(&[]),
            8 => self.stmt_genarray1(),
            9 => self.stmt_genarray2(),
            10 => self.stmt_transformed1(),
            11 => self.stmt_modarray(),
            12 => self.stmt_fold(),
            13 => self.stmt_elem_print(),
            14 => self.stmt_elem_store(),
            15 => self.stmt_slice(),
            16 => match self.below(4) {
                0 => self.stmt_matmul(),
                1 => self.stmt_matrix_map(),
                2 => self.stmt_tuple_call(),
                _ => self.stmt_spawn_block(),
            },
            _ => match self.below(3) {
                0 => self.stmt_rc_block(),
                _ => self.stmt_print_scalar(&[]),
            },
        }
    }

    fn program(&mut self) -> cmm_ast::Program {
        self.has_map_helper = self.chance(50);
        self.has_tuple_helper = self.chance(50);
        self.has_work_helper = self.chance(50);
        let mut functions = Vec::new();
        if self.has_map_helper {
            functions.push(self.map_helper());
        }
        if self.has_tuple_helper {
            functions.push(self.tuple_helper());
        }
        if self.has_work_helper {
            functions.push(self.work_helper());
        }

        let mut stmts: Vec<Stmt> = Vec::new();
        // Seed scope: two ints, a float, and one matrix so most
        // statement kinds are immediately applicable.
        stmts.extend(self.stmt_int_decl());
        stmts.extend(self.stmt_int_decl());
        stmts.extend(self.stmt_float_decl());
        stmts.extend(self.stmt_genarray1());

        let budget = 6 + self.below(9);
        for _ in 0..budget {
            let s = self.random_stmt();
            stmts.extend(s);
        }

        // Tail: make every case observable — fold the newest matrices
        // and print one scalar of each live kind.
        for _ in 0..2 {
            stmts.extend(self.stmt_fold());
        }
        stmts.extend(self.stmt_print_scalar(&[]));
        stmts.push(b::ret(b::int(0)));

        functions.push(b::function(Type::Int, "main", vec![], stmts));
        b::program(functions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_per_seed_and_case() {
        let a = generate_source(42, 7);
        let b = generate_source(42, 7);
        assert_eq!(a, b);
        let c = generate_source(42, 8);
        assert_ne!(a, c, "distinct cases should differ");
        let d = generate_source(43, 7);
        assert_ne!(a, d, "distinct seeds should differ");
    }

    /// The generator's with-loops are the unboxed-loop executor's input
    /// (genarray fills, `fold(+|*)`, elementwise nests): the `vm` and
    /// `limits` oracles only test that executor on cases that enter it.
    /// Measured: 479 of 500. The floor leaves room for generator changes
    /// but not for a refactor that silently makes loops ineligible. Their
    /// extents are 3–8, so only the long vectors run a strip to its full
    /// width or cross from one strip into the next: measured 39 of 500.
    #[test]
    fn most_cases_enter_an_unboxed_loop_and_some_run_a_full_strip() {
        let harness = crate::Harness::new().expect("harness");
        let (mut entered, mut full_strip) = (0, 0);
        for case in 0..500 {
            let reach = harness
                .unboxed_reach(&generate_source(42, case), false)
                .expect("generated programs run");
            entered += u32::from(reach.0);
            full_strip += u32::from(reach.1);
        }
        assert!(entered >= 450, "only {entered} of seed 42's 500 cases enter an unboxed loop");
        assert!(full_strip >= 30, "only {full_strip} of seed 42's 500 cases run a full strip");
    }

    /// A long vector is one matrix of a case, not a size other matrices
    /// share: no case has two.
    #[test]
    fn a_case_has_at_most_one_long_extent() {
        let long = |line: &&str| {
            let declared = line.trim().strip_prefix("int n");
            let literal = declared.and_then(|l| l.split_once(" = "));
            let value = literal.and_then(|(_, v)| v.trim_end_matches(';').parse::<i64>().ok());
            value.is_some_and(|v| v >= LONG_EXTENT.0)
        };
        let per_case = (0..500).map(|case| generate_source(42, case).lines().filter(long).count());
        let counts: Vec<usize> = per_case.collect();
        assert!(counts.iter().all(|&n| n <= 1), "{counts:?}");
        let cases = counts.iter().filter(|&&n| n == 1).count();
        assert!(
            (25..=75).contains(&cases),
            "{cases} of 500 cases have a long vector"
        );
    }

    /// The `vm` oracle is the matmul kernel's differential test, so the
    /// generator must reach the kernel's cases: aliased operands, distinct
    /// (in general non-square) operands, and both element types.
    #[test]
    fn products_cover_aliased_distinct_and_int_operands() {
        let (mut aliased, mut distinct, mut int, mut float) = (0, 0, 0, 0);
        for case in 0..500 {
            let src = generate_source(42, case);
            for line in src.lines().filter(|l| l.contains("> prod")) {
                let (decl, product) = line.split_once(" = ").expect("product declaration");
                let product = product.trim_start_matches('(').trim_end_matches(");");
                let (a, b) = product.split_once(" * ").expect("a * b");
                if a == b {
                    aliased += 1;
                } else {
                    distinct += 1;
                }
                if decl.contains("Matrix int") {
                    int += 1;
                } else {
                    float += 1;
                }
            }
        }
        assert!(aliased >= 5 && distinct >= 20 && int >= 5 && float >= 20,
            "aliased {aliased}, distinct {distinct}, int {int}, float {float}");
    }

    #[test]
    fn every_case_has_output_and_a_main() {
        for case in 0..20 {
            let src = generate_source(1, case);
            assert!(src.contains("int main()"), "{src}");
            assert!(src.contains("print"), "case {case} produces no output:\n{src}");
        }
    }
}
