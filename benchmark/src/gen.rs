//! Seeded input generators and their independent references.
//!
//! Every program generated here comes with the text it must print,
//! worked out in integer arithmetic by this file alone: no repository
//! code is called. Float programs use multiples of 1/4 small enough that
//! every partial sum is exact in `f32`, so the result cannot depend on
//! summation order, thread count or schedule.

use std::fmt::Write as _;

/// splitmix64: small, seedable, and good enough for picking constants.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as i64
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.range(0, i as i64) as usize);
        }
    }
}

/// A generated program and the stdout it must produce.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    pub src: String,
    pub expected: String,
}

// ───────────────────────── matmul_dense ─────────────────────────

/// `C = A * B` at `n × n` with an integer checksum fold. Entries are
/// multiples of 0.25 in [0, 4), so every product and partial sum is a
/// multiple of 1/16 below 2^24/16 and exact in `f32`.
pub fn matmul(seed: u64, n: usize) -> Program {
    let mut rng = Rng::new(seed ^ 0x6d61_746d);
    // Two-digit constants: the source length must not depend on the seed.
    let k: Vec<i64> = (0..6).map(|_| rng.range(10, 15)).collect();
    let src = format!(
        "int main() {{
    int n = {n};
    Matrix float <2> a = with ([0, 0] <= [i, j] < [n, n])
        genarray([n, n], toFloat((i * {} + j * {} + {}) % 16) * 0.25);
    Matrix float <2> b = with ([0, 0] <= [i, j] < [n, n])
        genarray([n, n], toFloat((i * {} + j * {} + {}) % 16) * 0.25);
    Matrix float <2> c = a * b;
    printInt(with ([0, 0] <= [i, j] < [n, n]) fold(+, 0, toInt(c[i, j] * 16.0) % 9973));
    return 0;
}}
",
        k[0], k[1], k[2], k[3], k[4], k[5]
    );
    let entry = |i: usize, j: usize, p: &[i64]| (i as i64 * p[0] + j as i64 * p[1] + p[2]) % 16;
    let a: Vec<i64> = (0..n * n).map(|x| entry(x / n, x % n, &k[0..3])).collect();
    let b: Vec<i64> = (0..n * n).map(|x| entry(x / n, x % n, &k[3..6])).collect();
    let mut checksum = 0i64;
    for i in 0..n {
        let mut row = vec![0i64; n];
        for t in 0..n {
            let av = a[i * n + t];
            for (j, r) in row.iter_mut().enumerate() {
                *r += av * b[t * n + j];
            }
        }
        checksum += row.iter().map(|c16| c16 % 9973).sum::<i64>();
    }
    Program {
        src,
        expected: format!("{checksum}\n"),
    }
}

// ──────────────────────── imbalanced_fold ────────────────────────

/// The shape of `examples/imbalanced.xc`: the fold for row `i` walks
/// `(i + 1) * width` elements, so work grows linearly down the rows.
/// `directive` is appended to the heavy loop (empty for none).
pub fn imbalanced(seed: u64, rows: usize, width: usize, directive: &str) -> Program {
    let mut rng = Rng::new(seed ^ 0x696d_6261);
    let (ka, kb, ks) = (rng.range(10, 15), rng.range(10, 15), rng.range(10, 15));
    let transform = if directive.is_empty() {
        String::new()
    } else {
        format!("\n        transform {directive}")
    };
    let src = format!(
        "float rowWork(Matrix float <2> grid, int i) {{
    return with ([0] <= [j] < [(i + 1) * {width}])
        fold(+, 0.0, grid[i, j / {width}] * 0.5);
}}

int main() {{
    int m = {rows};
    Matrix float <2> grid = with ([0, 0] <= [i, j] < [m, m])
        genarray([m, m], toFloat((i * {ka} + j * {kb} + {ks}) % 16) * 0.25);
    Matrix float <1> work = init(Matrix float <1>, m);
    work = with ([0] <= [i] < [m])
        genarray([m], rowWork(grid, i)){transform};
    printInt(with ([0] <= [i] < [m]) fold(+, 0, toInt(work[i] * 8.0) % 9973));
    return 0;
}}
"
    );
    // work[i] * 8 = width * Σ_{c ≤ i} grid4[i][c]; at most 2^21 for the
    // sizes used here, so exact.
    let mut checksum = 0i64;
    for i in 0..rows as i64 {
        let row: i64 = (0..=i).map(|c| (i * ka + c * kb + ks) % 16).sum();
        checksum += (width as i64 * row) % 9973;
    }
    Program {
        src,
        expected: format!("{checksum}\n"),
    }
}

// ───────────────────────── compile_wide ─────────────────────────

/// The three-line program: process start, composition of the five
/// extensions and LALR construction, and nothing else.
pub fn three_line(seed: u64) -> Program {
    let v = Rng::new(seed ^ 0x3333).range(100, 999);
    Program {
        src: format!("int main() {{\n    printInt({v});\n    return 0;\n}}\n"),
        expected: format!("{v}\n"),
    }
}

/// The function templates of a wide file. Together they use all five
/// extensions: with-loops, slices, logical indexing, `matrixMap` and
/// matrix product (ext-matrix), tuples, rc pointers, `spawn`/`sync`
/// (ext-cilk) and transform directives.
pub const TEMPLATES: [&str; 13] = [
    "sumsq",
    "rowslice",
    "rangeslice",
    "mapcum",
    "divmod",
    "rcbuf",
    "spawn",
    "tile",
    "sched",
    "split",
    "gcd",
    "mask",
    "matmul",
];

/// One instance of template `kind`: its source (helpers first), the
/// name of its `int f()` entry point, and the value that returns.
/// Constants are drawn from ranges of a fixed digit count, so the source
/// length does not depend on the seed.
pub fn instantiate(kind: &str, id: usize, rng: &mut Rng) -> (String, String, i64) {
    let id = format!("{id:03}");
    let name = format!("{kind}_{id}");
    let (a, b) = (rng.range(2, 9), rng.range(1, 9));
    let (src, value) = match kind {
        "sumsq" => {
            let (n, p) = (rng.range(10, 16), rng.range(11, 19));
            let src = format!(
                "int {name}() {{
    int n = {n};
    Matrix int <1> v = with ([0] <= [i] < [n]) genarray([n], (i * {a} + {b}) % {p});
    return with ([0] <= [i] < [n]) fold(+, 0, v[i]);
}}
"
            );
            (src, (0..n).map(|i| (i * a + b) % p).sum())
        }
        "rowslice" => {
            let (rows, cols, p) = (rng.range(4, 9), rng.range(4, 9), rng.range(11, 19));
            let r = rng.range(0, 3);
            let src = format!(
                "int {name}() {{
    Matrix int <2> m = with ([0, 0] <= [i, j] < [{rows}, {cols}]) genarray([{rows}, {cols}], (i * {a} + j * {b}) % {p});
    Matrix int <1> row = m[{r}, :];
    return with ([0] <= [j] < [{cols}]) fold(+, 0, row[j]);
}}
"
            );
            (src, (0..cols).map(|j| (r * a + j * b) % p).sum())
        }
        "rangeslice" => {
            let (n, lo, hi) = (rng.range(12, 19), rng.range(1, 4), rng.range(6, 9));
            let src = format!(
                "int {name}() {{
    int n = {n};
    Matrix int <1> v = with ([0] <= [i] < [n]) genarray([n], i * {a} + {b});
    Matrix int <1> part = v[{lo} : {hi}];
    return dimSize(part, 0) * 1000 + with ([0] <= [k] < [dimSize(part, 0)]) fold(+, 0, part[k]);
}}
"
            );
            // `lo : hi` is inclusive at both ends.
            (
                src,
                (hi - lo + 1) * 1000 + (lo..=hi).map(|i| i * a + b).sum::<i64>(),
            )
        }
        "mapcum" => {
            let (rows, cols, p) = (rng.range(3, 6), rng.range(4, 9), rng.range(3, 9));
            let (r2, c2) = (rng.range(0, 2), rng.range(0, 3));
            let src = format!(
                "Matrix float <1> cum_{id}(Matrix float <1> row) {{
    int n = dimSize(row, 0);
    Matrix float <1> out = init(Matrix float <1>, n);
    float acc = 0.0;
    for (int i = 0; i < n; i++) {{
        acc = acc + row[i];
        out[i] = acc;
    }}
    return out;
}}
int {name}() {{
    Matrix float <2> m = with ([0, 0] <= [i, j] < [{rows}, {cols}]) genarray([{rows}, {cols}], toFloat((i * {a} + j) % {p}) * 0.5);
    Matrix float <2> c = matrixMap(cum_{id}, m, [1]);
    return toInt(c[{}, {}] * 2.0) + toInt(c[{r2}, {c2}] * 2.0);
}}
",
                rows - 1,
                cols - 1
            );
            let cum = |i: i64, j: i64| (0..=j).map(|t| (i * a + t) % p).sum::<i64>();
            (src, cum(rows - 1, cols - 1) + cum(r2, c2))
        }
        "divmod" => {
            let (x, y) = (rng.range(100, 999), rng.range(11, 19));
            let src = format!(
                "(int, int) dm_{id}(int a, int b) {{
    return (a / b, a % b);
}}
int {name}() {{
    int q = 0;
    int r = 0;
    (q, r) = dm_{id}({x}, {y});
    return q * 100 + r;
}}
"
            );
            (src, x / y * 100 + x % y)
        }
        "rcbuf" => {
            let len = rng.range(5, 9);
            let src = format!(
                "int {name}() {{
    rc<int> buf = rcAlloc(int, {len});
    for (int i = 0; i < {len}; i++) {{ rcSet(buf, i, i * {a} + {b}); }}
    rc<int> alias = buf;
    int s = 0;
    for (int i = 0; i < rcLen(alias); i++) {{ s = s + rcGet(alias, i); }}
    return s;
}}
"
            );
            (src, (0..len).map(|i| i * a + b).sum())
        }
        "spawn" => {
            let (x, y) = (rng.range(10, 40), rng.range(10, 40));
            let src = format!(
                "int work_{id}(int x) {{
    int s = 0;
    for (int i = 0; i < x; i++) {{ s = s + i % 7; }}
    return s;
}}
int {name}() {{
    int a = 0;
    int b = 0;
    spawn a = work_{id}({x});
    spawn b = work_{id}({y});
    sync;
    return a + b;
}}
"
            );
            let work = |x: i64| (0..x).map(|i| i % 7).sum::<i64>();
            (src, work(x) + work(y))
        }
        "tile" => {
            let p = rng.range(11, 19);
            let src = format!(
                "int {name}() {{
    int n = 8;
    Matrix int <2> g = init(Matrix int <2>, n, n);
    g = with ([0, 0] <= [i, j] < [n, n]) genarray([n, n], (i * {a} + j * {b}) % {p})
        transform tile i, j by 4, 4. parallelize i_out;
    return with ([0, 0] <= [x, y] < [n, n]) fold(+, 0, g[x, y]);
}}
"
            );
            (src, (0..64).map(|t| (t / 8 * a + t % 8 * b) % p).sum())
        }
        "sched" => {
            let (p, chunk) = (rng.range(53, 97), rng.range(2, 4));
            let src = format!(
                "int {name}() {{
    int n = 16;
    Matrix int <1> v = init(Matrix int <1>, n);
    v = with ([0] <= [x] < [n]) genarray([n], (x * {a} + {b}) % {p})
        transform schedule x dynamic, {chunk};
    return with ([0] <= [x] < [n]) fold(max, 0, v[x]);
}}
"
            );
            (src, (0..16).map(|x| (x * a + b) % p).max().unwrap())
        }
        "split" => {
            // The paper's Fig 9 shape. The mean over p = 4 multiples of
            // 1/4 is a multiple of 1/16, exact.
            let src = format!(
                "int {name}() {{
    int m = 4;
    int n = 8;
    int p = 4;
    Matrix float <3> mat = with ([0, 0, 0] <= [i, j, k] < [m, n, p])
        genarray([m, n, p], toFloat((i + j * {a} + k * {b}) % 8) * 0.25);
    Matrix float <2> means = init(Matrix float <2>, m, n);
    means = with ([0, 0] <= [i, j] < [m, n])
        genarray([m, n], with ([0] <= [k] < [p]) fold(+, 0.0, mat[i, j, k]) / toFloat(p))
        transform split j by 4, jin, jout. vectorize jin. parallelize i;
    return toInt(with ([0, 0] <= [x, y] < [m, n]) fold(+, 0.0, means[x, y]) * 16.0);
}}
"
            );
            let mut sum = 0;
            for i in 0..4 {
                for j in 0..8 {
                    for k in 0..4 {
                        sum += (i + j * a + k * b) % 8;
                    }
                }
            }
            (src, sum)
        }
        "gcd" => {
            let (x, y) = (rng.range(1000, 9999), rng.range(100, 999));
            let src = format!(
                "int {name}() {{
    int a = {x};
    int b = {y};
    int steps = 0;
    while (b > 0) {{
        int t = a % b;
        a = b;
        b = t;
        steps = steps + 1;
    }}
    return a * 100 + steps;
}}
"
            );
            let (mut x, mut y, mut steps) = (x, y, 0);
            while y > 0 {
                (x, y) = (y, x % y);
                steps += 1;
            }
            (src, x * 100 + steps)
        }
        "mask" => {
            let (n, p, t) = (rng.range(10, 19), rng.range(5, 9), rng.range(1, 3));
            let src = format!(
                "int {name}() {{
    int n = {n};
    Matrix int <1> v = with ([0] <= [i] < [n]) genarray([n], (i * i) % {p});
    Matrix int <1> big = v[v > {t}];
    return dimSize(big, 0);
}}
"
            );
            (src, (0..n).filter(|i| i * i % p > t).count() as i64)
        }
        "matmul" => {
            let src = format!(
                "int {name}() {{
    Matrix float <2> a = with ([0, 0] <= [i, j] < [4, 4]) genarray([4, 4], toFloat((i * {a} + j) % 4) * 0.5);
    Matrix float <2> p = a * a;
    return toInt(with ([0, 0] <= [x, y] < [4, 4]) fold(+, 0.0, p[x, y]) * 4.0);
}}
"
            );
            let e = |i: i64, j: i64| (i * a + j) % 4;
            let mut sum = 0;
            for x in 0..4 {
                for y in 0..4 {
                    sum += (0..4).map(|k| e(x, k) * e(k, y)).sum::<i64>();
                }
            }
            (src, sum)
        }
        other => panic!("unknown template {other}"),
    };
    (src, name, value)
}

/// Wide file `index`: `sets` instances of every template, each set in a
/// seeded order, and a `main` that prints every function's result.
pub fn wide_file(seed: u64, index: usize, sets: usize) -> Program {
    let mut rng = Rng::new(seed ^ (0x7769_6465 + index as u64));
    let (mut src, mut main, mut expected) =
        (String::new(), String::from("int main() {\n"), String::new());
    for set in 0..sets {
        let mut kinds = TEMPLATES;
        rng.shuffle(&mut kinds);
        for (slot, kind) in kinds.iter().enumerate() {
            let (text, name, value) = instantiate(kind, set * TEMPLATES.len() + slot, &mut rng);
            src.push_str(&text);
            let _ = writeln!(main, "    printInt({name}());");
            let _ = writeln!(expected, "{value}");
        }
    }
    src.push_str(&main);
    src.push_str("    return 0;\n}\n");
    Program { src, expected }
}

// ────────────────────────── serve_mixed ──────────────────────────

/// Request classes of the serve traffic mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Class {
    SmallRun,
    MediumRun,
    Compile,
    Check,
}

impl Class {
    pub const ALL: [Class; 4] = [
        Class::SmallRun,
        Class::MediumRun,
        Class::Compile,
        Class::Check,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Class::SmallRun => "small",
            Class::MediumRun => "medium",
            Class::Compile => "compile",
            Class::Check => "check",
        }
    }
}

/// What a response must carry besides `code` 0.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expect {
    /// `run`: the program's stdout.
    Output(String),
    /// `compile`: C source; its text is checked once in set-up by
    /// compiling and running one sample, here only that it is a program.
    EmittedC,
    /// `check`: no output.
    Nothing,
}

#[derive(Debug, Clone)]
pub struct Request {
    pub line: String,
    pub class: Class,
    pub hot: bool,
    pub expect: Expect,
    /// The request's program, kept for set-up checks and the traced run.
    pub program: Program,
}

/// A small program: a scalar expression (`kind` 0) or a 10-element
/// with-loop (`kind` 1).
pub fn small_program(kind: usize, rng: &mut Rng) -> Program {
    let (a, b, c) = (rng.range(10, 99), rng.range(10, 99), rng.range(100, 999));
    if kind == 0 {
        Program {
            src: format!("int main() {{\n    int a = {a};\n    int b = {b};\n    printInt(a * b + {c});\n    return 0;\n}}\n"),
            expected: format!("{}\n", a * b + c),
        }
    } else {
        Program {
            src: format!(
                "int main() {{
    Matrix int <1> v = with ([0] <= [i] < [10]) genarray([10], i * {a} + {b});
    printInt(with ([0] <= [i] < [10]) fold(+, 0, v[i]) + {c});
    return 0;
}}
"
            ),
            expected: format!("{}\n", 45 * a + 10 * b + c),
        }
    }
}

/// A medium program: the paper's temporal-mean with-loop (`kind` 0), or
/// the row-score shape of `examples/pipeline_profile.xc` (`kind` 1).
pub fn medium_program(kind: usize, rng: &mut Rng) -> Program {
    let (a, b) = (rng.range(2, 9), rng.range(2, 9));
    if kind == 0 {
        // Means over p = 16 multiples of 1/4 are multiples of 1/64.
        let src = format!(
            "int main() {{
    int m = 8;
    int n = 12;
    int p = 16;
    Matrix float <3> mat = with ([0, 0, 0] <= [i, j, k] < [m, n, p])
        genarray([m, n, p], toFloat((i * {a} + j * {b} + k) % 16) * 0.25);
    Matrix float <2> means = with ([0, 0] <= [i, j] < [m, n])
        genarray([m, n], with ([0] <= [k] < [p]) fold(+, 0.0, mat[i, j, k]) / toFloat(p));
    printInt(toInt(with ([0, 0] <= [x, y] < [m, n]) fold(+, 0.0, means[x, y]) * 64.0));
    return 0;
}}
"
        );
        let mut sum = 0;
        for i in 0..8 {
            for j in 0..12 {
                for k in 0..16 {
                    sum += (i * a + j * b + k) % 16;
                }
            }
        }
        Program {
            src,
            expected: format!("{sum}\n"),
        }
    } else {
        let src = format!(
            "float rowScore(Matrix float <2> grid, int i, int n) {{
    return with ([0] <= [j] < [n]) fold(+, 0.0, grid[i, j] * grid[i, j]);
}}

int main() {{
    int m = 48;
    int n = 64;
    Matrix float <2> grid = with ([0, 0] <= [i, j] < [m, n])
        genarray([m, n], toFloat((i * {a} + j * {b}) % 8) * 0.5);
    Matrix float <1> scores = with ([0] <= [i] < [m])
        genarray([m], rowScore(grid, i, n));
    printInt(toInt(with ([0] <= [i] < [m]) fold(+, 0.0, scores[i]) * 4.0));
    return 0;
}}
"
        );
        let mut sum = 0;
        for i in 0..48 {
            for j in 0..64 {
                let g = (i * a + j * b) % 8;
                sum += g * g;
            }
        }
        Program {
            src,
            expected: format!("{sum}\n"),
        }
    }
}

pub fn json_quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// One request line. `extra` is further fields, as `, "threads": 2`.
pub fn request_line(id: &str, tenant: &str, cmd: &str, extra: &str, src: &str) -> String {
    format!(
        "{{\"id\": {}, \"cmd\": \"{cmd}\", \"tenant\": {}{extra}, \"src\": {}}}\n",
        json_quote(id),
        json_quote(tenant),
        json_quote(src)
    )
}

/// The request stream of one connection. Requests come in blocks of 20
/// with the mix exact in every block — 12 small `run`, 3 medium `run`,
/// 3 `compile`, 2 `check` — and exactly half of each block drawn from
/// the 8 hot sources (5 small, 3 medium), the other half unique; only
/// the order inside a block is random. The mix is exact so that every
/// latency slice sees the same traffic.
///
/// Every request runs on the daemon's one-thread session pool. The issue
/// had the medium ones ask for `"threads": 2`; that makes the daemon
/// cache two-thread pools whose idle workers spin, and with two spinning
/// threads beside two workers on two processors the kernel either pairs
/// each worker with a spinner (p50 ≈ 4.3 ms) or puts both workers on one
/// processor (p50 ≈ 8.5 ms) and changes its mind every few seconds
/// (`CALIBRATION.md`): no statistic of a 24 s run was steady. The traced
/// run still sends such requests and reports what they cost
/// (`serve.medium_t2_p50_ms`, `serve.idle_cpu_share`).
pub struct Stream {
    rng: Rng,
    tenant: String,
    hot_small: Vec<Program>,
    hot_medium: Vec<Program>,
    block: Vec<Request>,
    issued: u64,
    /// Deliberately wrong `run` references, to show a mismatch is caught.
    corrupt: bool,
}

/// The 8 hot sources, 5 small and 3 medium, the two kinds of each in
/// turn so that their cost does not depend on the seed. They depend on
/// the seed alone: every connection draws from the same ones.
pub fn hot_sources(seed: u64) -> (Vec<Program>, Vec<Program>) {
    let mut rng = Rng::new(seed ^ 0x686f_7421);
    let small = (0..5).map(|i| small_program(i % 2, &mut rng)).collect();
    let medium = (0..3).map(|i| medium_program(i % 2, &mut rng)).collect();
    (small, medium)
}

impl Stream {
    pub fn new(seed: u64, connection: usize, corrupt: bool) -> Stream {
        let (hot_small, hot_medium) = hot_sources(seed);
        Stream {
            rng: Rng::new(seed ^ (0x7365_7276 + connection as u64)),
            tenant: format!("tenant{connection}"),
            hot_small,
            hot_medium,
            block: Vec::new(),
            issued: 0,
            corrupt,
        }
    }

    fn request(&mut self, class: Class, hot: bool) -> Request {
        let medium = class == Class::MediumRun;
        let program = match (hot, medium) {
            (true, false) => self.hot_small[self.rng.range(0, 4) as usize].clone(),
            (true, true) => self.hot_medium[self.rng.range(0, 2) as usize].clone(),
            (false, false) => small_program(self.rng.range(0, 1) as usize, &mut self.rng),
            (false, true) => medium_program(self.rng.range(0, 1) as usize, &mut self.rng),
        };
        let mut program = program;
        if self.corrupt {
            program.expected.insert(0, '9');
        }
        let id = format!("{}-{}", self.tenant, self.issued);
        self.issued += 1;
        let (cmd, expect) = match class {
            Class::SmallRun | Class::MediumRun => ("run", Expect::Output(program.expected.clone())),
            Class::Compile => ("compile", Expect::EmittedC),
            Class::Check => ("check", Expect::Nothing),
        };
        let line = request_line(&id, &self.tenant, cmd, "", &program.src);
        Request {
            line,
            class,
            hot,
            expect,
            program,
        }
    }

    fn refill(&mut self) {
        // Odd classes split 2 hot + 1 unique or the reverse, in
        // opposite phases, so the block total stays 10 hot.
        let flip = (self.issued / 20).is_multiple_of(2);
        let plan = [
            (Class::SmallRun, 6, 6),
            (
                Class::MediumRun,
                if flip { 2 } else { 1 },
                if flip { 1 } else { 2 },
            ),
            (
                Class::Compile,
                if flip { 1 } else { 2 },
                if flip { 2 } else { 1 },
            ),
            (Class::Check, 1, 1),
        ];
        for (class, hot, unique) in plan {
            for i in 0..hot + unique {
                let r = self.request(class, i < hot);
                self.block.push(r);
            }
        }
        let mut block = std::mem::take(&mut self.block);
        self.rng.shuffle(&mut block);
        self.block = block;
    }
}

impl Iterator for Stream {
    type Item = Request;

    fn next(&mut self) -> Option<Request> {
        if self.block.is_empty() {
            self.refill();
        }
        self.block.pop()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn corpus(seed: u64) -> String {
        let mut all = matmul(seed, 16).src + &imbalanced(seed, 8, 4, "schedule i dynamic, 4").src;
        all += &three_line(seed).src;
        all += &wide_file(seed, 0, 2).src;
        all += &wide_file(seed, 1, 2).src;
        all
    }

    fn requests(seed: u64, connection: usize, n: usize) -> String {
        Stream::new(seed, connection, false)
            .take(n)
            .map(|r| r.line)
            .collect()
    }

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        assert_eq!(corpus(7), corpus(7));
        assert_ne!(corpus(7), corpus(8));
        assert_eq!(
            corpus(7).len(),
            corpus(8).len(),
            "source size must not depend on the seed"
        );
        assert_eq!(requests(7, 0, 100), requests(7, 0, 100));
        assert_ne!(requests(7, 0, 100), requests(8, 0, 100));
        assert_ne!(requests(7, 0, 100), requests(7, 1, 100));
    }

    #[test]
    fn every_block_has_the_exact_mix() {
        let reqs: Vec<Request> = Stream::new(3, 0, false).take(200).collect();
        for block in reqs.chunks(20) {
            let mut count: HashMap<Class, usize> = HashMap::new();
            for r in block {
                *count.entry(r.class).or_default() += 1;
            }
            assert_eq!(count[&Class::SmallRun], 12);
            assert_eq!(count[&Class::MediumRun], 3);
            assert_eq!(count[&Class::Compile], 3);
            assert_eq!(count[&Class::Check], 2);
            assert_eq!(block.iter().filter(|r| r.hot).count(), 10);
        }
    }

    /// Each generated program, run in process at a tiny size on one and
    /// two threads, must print what the generator worked out by itself.
    #[test]
    fn closed_forms_match_the_translator() {
        let compiler = cmm::core::Registry::standard()
            .compiler(&[
                "ext-matrix",
                "ext-tuples",
                "ext-rcptr",
                "ext-transform",
                "ext-cilk",
            ])
            .expect("standard composition");
        let check = |what: &str, p: &Program| {
            for threads in [1, 2] {
                let got = compiler
                    .run(&p.src, threads)
                    .unwrap_or_else(|e| panic!("{what}: {e}\n{}", p.src));
                assert_eq!(
                    got.output, p.expected,
                    "{what} on {threads} thread(s)\n{}",
                    p.src
                );
                assert_eq!(got.leaked, 0, "{what} leaked");
            }
        };
        for seed in 0..6 {
            check("matmul", &matmul(seed, 12));
            check(
                "imbalanced",
                &imbalanced(seed, 9, 5, "schedule i dynamic, 4"),
            );
            check("imbalanced (no directive)", &imbalanced(seed, 9, 5, ""));
            check("three_line", &three_line(seed));
            let mut rng = Rng::new(seed);
            for kind in [0, 1] {
                check("small", &small_program(kind, &mut rng));
                check("medium", &medium_program(kind, &mut rng));
            }
            // Every template on its own, so a mismatch names the template.
            for (i, kind) in TEMPLATES.iter().enumerate() {
                let (text, name, value) = instantiate(kind, i, &mut rng);
                let src =
                    format!("{text}int main() {{\n    printInt({name}());\n    return 0;\n}}\n");
                check(
                    kind,
                    &Program {
                        src,
                        expected: format!("{value}\n"),
                    },
                );
            }
        }
        check("wide_file", &wide_file(11, 0, 2));
    }
}
