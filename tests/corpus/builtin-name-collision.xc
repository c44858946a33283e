// User functions may reuse the names of the runtime's builtins (`len`,
// `rank`, `dim`, `print_i32` are functions of the emitted C prelude and of
// the interpreter): they live in a separate namespace, and the program's
// own matrix operations keep reaching the real builtins.
int len() {
    return 3;
}

int rank(int x) {
    return x + 1;
}

int dim(int a, int b) {
    return a * 10 + b;
}

int print_i32(int x) {
    printInt(x * 2);
    return x;
}

int cmm_panic(int x) {
    return x - 1;
}

// Variables may too — a parameter, a local, a generator index: inside
// `trace` the subscript `m[len, dim]` still reaches the prelude's `dim()`
// (the emitted C renames the variables, as it renames the functions).
int trace(Matrix int <2> m, int dim) {
    int rank = dim - 1;
    int cmm_alloc = with ([0] <= [len] < [dim]) fold(+, 0, m[len, len]);
    return cmm_alloc * 10 + with ([0, 0] <= [len, dim] < [rank, rank]) fold(+, 0, m[len, dim]);
}

int main() {
    Matrix int <2> m = with ([0, 0] <= [i, j] < [len(), 4]) genarray([len(), 4], i * 4 + j);
    printInt(len());
    printInt(rank(41));
    printInt(dim(4, 2));
    printInt(print_i32(21));
    printInt(cmm_panic(8));
    printInt(dimSize(m, 0) * 100 + dimSize(m, 1));
    printInt(trace(m, 3));
    Matrix int <1> row = m[rank(0), :];
    printInt(with ([0] <= [k] < [4]) fold(+, 0, row[k]));
    return 0;
}
