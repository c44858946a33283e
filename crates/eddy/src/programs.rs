//! The paper's application programs as extended-C source text.
//!
//! These are the programs of Figs 1, 4 and 8, adapted to this
//! reproduction's concrete syntax (`range(a, b)` for `(a::b)`, see
//! DESIGN.md), parameterized over input/output file paths so tests and
//! experiments can feed them synthetic data through the CMMX container
//! format shared by the Rust runtime, the interpreter, and the emitted C.

use cmm_core::{Compiler, Registry};

/// A compiler with every extension enabled (the configuration the paper's
/// applications use).
pub fn full_compiler() -> Compiler {
    Registry::standard()
        .compiler(&cmm_core::ALL_EXTENSIONS)
        .expect("standard extensions compose")
}

/// Fig 1: temporal mean of sea-surface heights. `transform` is an
/// optional §V transform clause (e.g. the Fig 9 recipe); pass `""` for
/// the automatic parallelization of §III-C.
pub fn temporal_mean_program(input: &str, output: &str, transform: &str) -> String {
    format!(
        r#"
// Fig 1: compute for every ocean point the average sea height over time.
int main() {{
    Matrix float <3> mat = readMatrix("{input}");
    int m = dimSize(mat, 0);
    int n = dimSize(mat, 1);
    int p = dimSize(mat, 2);
    Matrix float <2> means = init(Matrix float <2>, m, n);
    means = with ([0, 0] <= [i, j] < [m, n])
        genarray([m, n],
            with ([0] <= [k] < [p]) fold(+, 0.0, mat[i, j, k]) / toFloat(p)){transform};
    writeMatrix("{output}", means);
    return 0;
}}
"#
    )
}

/// Fig 8: the ocean-eddy scoring pipeline (`getTrough`, `computeArea`,
/// `scoreTS`, and `matrixMap(scoreTS, data, [2])`).
pub fn eddy_scoring_program(input: &str, output: &str) -> String {
    format!(
        r#"
// Fig 8: ocean eddy scoring implementation.
(Matrix float <1>, int, int) getTrough(Matrix float <1> ts, int i) {{
    int beginning = i;
    int n = dimSize(ts, 0);
    // Walk downwards.
    while (i + 1 < n && ts[i] >= ts[i + 1]) {{ i = i + 1; }}
    // Walk upwards.
    while (i + 1 < n && ts[i] < ts[i + 1]) {{ i = i + 1; }}
    // Return the trough.
    return (ts[beginning : i], beginning, i);
}}

Matrix float <1> computeArea(Matrix float <1> areaOfInterest) {{
    int n = dimSize(areaOfInterest, 0);
    if (n < 2) {{
        return with ([0] <= [q] < [n]) genarray([n], 0.0);
    }}
    float y1 = areaOfInterest[0];
    float y2 = areaOfInterest[end];
    int x2 = n - 1;
    // compute slope and y intercept
    float slope = (y1 - y2) / (0.0 - toFloat(x2));
    float b = y1;
    Matrix float <1> line = toFloat(range(0, x2)) * slope + b;
    float area = with ([0] <= [q] < [n])
        fold(+, 0.0, line[q] - areaOfInterest[q]);
    return with ([0] <= [q] < [n]) genarray([n], area);
}}

Matrix float <1> scoreTS(Matrix float <1> ts) {{
    int n = dimSize(ts, 0);
    Matrix float <1> scores = init(Matrix float <1>, n);
    if (n < 3) {{ return scores; }}
    // Trimming: climb to the first local maximum.
    int i = 0;
    while (i + 1 < n && ts[i] < ts[i + 1]) {{ i = i + 1; }}
    int beginning = 0;
    int fin = 0;
    Matrix float <1> trough;
    while (i < n - 1) {{
        (trough, beginning, fin) = getTrough(ts, i);
        scores[beginning : fin] = computeArea(trough);
        if (fin == i) {{ i = n; }} else {{ i = fin; }}
    }}
    return scores;
}}

int main() {{
    Matrix float <3> data = readMatrix("{input}");
    Matrix float <3> scores = matrixMap(scoreTS, data, [2]);
    writeMatrix("{output}", scores);
    return 0;
}}
"#
    )
}

/// Fig 4: per-frame connected-component labelling of thresholded SSH,
/// mapped over time. The in-language `connComp` uses iterative
/// minimum-label propagation (the classic data-parallel formulation);
/// tests compare its canonicalized output against the native union-find.
pub fn connected_components_program(input: &str, output: &str, threshold: f32) -> String {
    format!(
        r#"
// Fig 4: label connected components in space for each point in time.
Matrix int <2> connComp(Matrix bool <2> binary) {{
    int rows = dimSize(binary, 0);
    int cols = dimSize(binary, 1);
    Matrix int <2> labels = init(Matrix int <2>, rows, cols);
    for (int i = 0; i < rows; i++) {{
        for (int j = 0; j < cols; j++) {{
            if (binary[i, j]) {{
                labels[i, j] = i * cols + j + 1;
            }}
        }}
    }}
    // Minimum-label propagation to a fixed point.
    bool changed = true;
    while (changed) {{
        changed = false;
        for (int i = 0; i < rows; i++) {{
            for (int j = 0; j < cols; j++) {{
                if (binary[i, j]) {{
                    int best = labels[i, j];
                    if (i > 0 && binary[i - 1, j] && labels[i - 1, j] < best) {{
                        best = labels[i - 1, j];
                    }}
                    if (j > 0 && binary[i, j - 1] && labels[i, j - 1] < best) {{
                        best = labels[i, j - 1];
                    }}
                    if (i < rows - 1 && binary[i + 1, j] && labels[i + 1, j] < best) {{
                        best = labels[i + 1, j];
                    }}
                    if (j < cols - 1 && binary[i, j + 1] && labels[i, j + 1] < best) {{
                        best = labels[i, j + 1];
                    }}
                    if (best < labels[i, j]) {{
                        labels[i, j] = best;
                        changed = true;
                    }}
                }}
            }}
        }}
    }}
    return labels;
}}

Matrix int <2> connCompFrame(Matrix float <2> frame) {{
    Matrix bool <2> binary = frame < {threshold:?};
    return connComp(binary);
}}

int main() {{
    Matrix float <3> ssh = readMatrix("{input}");
    Matrix int <3> labels = matrixMap(connCompFrame, ssh, [0, 1]);
    writeMatrix("{output}", labels);
    return 0;
}}
"#
    )
}

/// A small demonstration program used by the quickstart example: all four
/// extensions in ~30 lines.
pub fn quickstart_program() -> &'static str {
    r#"
// Quickstart: matrices, with-loops, tuples, rc pointers and a transform.
(int, int) minmax(Matrix int <1> v) {
    int n = dimSize(v, 0);
    int lo = with ([0] <= [i] < [n]) fold(min, 1000000, v[i]);
    int hi = with ([0] <= [i] < [n]) fold(max, -1000000, v[i]);
    return (lo, hi);
}

int main() {
    int n = 16;
    Matrix int <1> v = init(Matrix int <1>, n);
    v = with ([0] <= [i] < [n]) genarray([n], (i * 7) % 13)
        transform unroll i by 4;
    int lo = 0;
    int hi = 0;
    (lo, hi) = minmax(v);
    printInt(lo);
    printInt(hi);
    rc<int> counts = rcAlloc(int, 13);
    for (int i = 0; i < n; i++) {
        rcSet(counts, v[i], rcGet(counts, v[i]) + 1);
    }
    printInt(rcGet(counts, 0));
    Matrix int <1> evens = v[v % 2 == 0];
    printInt(dimSize(evens, 0));
    return 0;
}
"#
}
