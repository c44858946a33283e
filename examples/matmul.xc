// Matrix products through the language: `a * b` on rank-2 matrices is
// linear-algebra multiplication, and under the default VM tier it runs
// as one call into the runtime's cache-blocked kernel on the operands'
// own storage (`--profile` counts it under "kernel calls"). The tree
// tier interprets the scalar i/j/k nest the operator lowers to — the
// operator's definition — so
//
//     cmmc run examples/matmul.xc --tier vm
//     cmmc run examples/matmul.xc --tier tree
//
// print the same lines (and charge the same fuel) at any --threads and
// --schedule; CI diffs the two. The shapes are non-square and straddle
// the kernel's tile edge; the float entries are not exactly
// representable, so the printed sums depend on every rounding step.
int main() {
    int m = 96;
    int k = 160;
    int n = 72;
    Matrix float <2> a = with ([0, 0] <= [i, j] < [m, k])
        genarray([m, k], toFloat((i * 7 + j * 13) % 101) * 0.37 - 11.3);
    Matrix float <2> b = with ([0, 0] <= [i, j] < [k, n])
        genarray([k, n], toFloat((i * 5 + j * 11) % 103) * 0.21 - 9.7);
    Matrix float <2> c = a * b;
    printFloat(c[0, 0]);
    printFloat(c[m - 1, n - 1]);
    printFloat(with ([0, 0] <= [i, j] < [m, n]) fold(+, 0.0, c[i, j]));

    // Int products wrap like scalar int arithmetic does.
    Matrix int <2> p = with ([0, 0] <= [i, j] < [n, n])
        genarray([n, n], ((i * 3 + j * 17) % 89 - 44) * 40009);
    Matrix int <2> q = p * p;
    printInt(q[0, 0]);
    printInt(with ([0, 0] <= [i, j] < [n, n]) fold(+, 0, q[i, j] % 9973));
    return 0;
}
