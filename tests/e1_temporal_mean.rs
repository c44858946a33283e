//! Experiment E1 — Fig 1 → Fig 3: the nested with-loops of the temporal
//! mean expand into the paper's nested for-loop structure, with the
//! with-loop/assignment fusion applied, and compute the same values as
//! the native mirror kernels.

use cmm::core::Registry;
use cmm::eddy::programs::{full_compiler, temporal_mean_program};
use cmm::eddy::{synthetic_ssh, SshParams};
use cmm::loopir::{ForLoop, IrStmt};
use cmm::runtime::kernels::temporal_mean_fig3;
use cmm::runtime::{read_matrix, write_matrix, Matrix};

const FIG1: &str = r#"
int main() {
    Matrix float <3> mat = readMatrix("IN");
    int m = dimSize(mat, 0);
    int n = dimSize(mat, 1);
    int p = dimSize(mat, 2);
    Matrix float <2> means = init(Matrix float <2>, m, n);
    means = with ([0, 0] <= [i, j] < [m, n])
        genarray([m, n],
            with ([0] <= [k] < [p]) fold(+, 0.0, mat[i, j, k]) / toFloat(p));
    writeMatrix("OUT", means);
    return 0;
}
"#;

fn find_loop<'a>(stmts: &'a [IrStmt], var: &str) -> Option<&'a ForLoop> {
    for s in stmts {
        match s {
            IrStmt::For(f) => {
                if &*f.var == var {
                    return Some(f);
                }
                if let Some(r) = find_loop(&f.body, var) {
                    return Some(r);
                }
            }
            IrStmt::Block(b) => {
                if let Some(r) = find_loop(b, var) {
                    return Some(r);
                }
            }
            IrStmt::If { then_b, else_b, .. } => {
                if let Some(r) = find_loop(then_b, var).or_else(|| find_loop(else_b, var)) {
                    return Some(r);
                }
            }
            IrStmt::While { body, .. } => {
                if let Some(r) = find_loop(body, var) {
                    return Some(r);
                }
            }
            _ => {}
        }
    }
    None
}

#[test]
fn fig1_expands_to_fig3_loop_nest() {
    let compiler = full_compiler();
    let ir = compiler.compile(FIG1).expect("translates");
    let main = ir.function("main").expect("main");

    // Fig 3 structure: i { j { k-accumulation; means store } }, with the
    // outer loop automatically parallelized (§III-C).
    let i_loop = find_loop(&main.body, "i").expect("outer i loop");
    assert!(i_loop.parallel, "outer with-loop loop is parallelized");
    let j_loop = find_loop(&i_loop.body, "j").expect("j loop inside i");
    let k_loop = find_loop(&j_loop.body, "k").expect("k fold loop inside j");
    assert!(!k_loop.parallel, "the inner fold stays sequential (Fig 3)");

    // Copy elision: no element-copy loop between the with-loop result and
    // `means` — the assignment re-binds the handle (§III-A4). An
    // element-wise copy would appear as a Store loop after the nest whose
    // body loads and stores the same index; instead we expect rc calls.
    let c = cmm::loopir::emit::emit_program(&ir).expect("emit");
    assert!(c.contains("rc_incr"), "handle transfer, not a copy");
}

#[test]
fn compiled_fig1_matches_native_kernel() {
    let params = SshParams {
        lat: 6,
        lon: 9,
        time: 14,
        ..Default::default()
    };
    let cube = synthetic_ssh(&params);
    let dir = std::env::temp_dir();
    let input = dir.join(format!("e1-in-{}.cmmx", std::process::id()));
    let output = dir.join(format!("e1-out-{}.cmmx", std::process::id()));
    write_matrix(&input, &cube).expect("write");

    let compiler = full_compiler();
    let program = temporal_mean_program(
        input.to_str().expect("path"),
        output.to_str().expect("path"),
        "",
    );
    let r = compiler.run(&program, 2).expect("run");
    assert_eq!(r.leaked, 0);

    let compiled: Matrix<f32> = read_matrix(&output).expect("read result");
    let mut native = vec![0.0f32; params.lat * params.lon];
    temporal_mean_fig3(
        cube.as_slice(),
        params.lat,
        params.lon,
        params.time,
        &mut native,
    );
    assert_eq!(compiled.len(), native.len());
    for (a, b) in compiled.as_slice().iter().zip(&native) {
        assert!((a - b).abs() < 1e-4, "{a} vs {b}");
    }
    std::fs::remove_file(&input).ok();
    std::fs::remove_file(&output).ok();
}

#[test]
fn library_mode_allocates_more_than_fused_mode() {
    // E11: the with-loop/assignment copy elision measured as allocations.
    let src = FIG1;
    let cube = synthetic_ssh(&SshParams {
        lat: 4,
        lon: 4,
        time: 8,
        ..Default::default()
    });
    let dir = std::env::temp_dir();
    let input = dir.join(format!("e11-in-{}.cmmx", std::process::id()));
    let output = dir.join(format!("e11-out-{}.cmmx", std::process::id()));
    write_matrix(&input, &cube).expect("write");
    let src = src
        .replace("IN", input.to_str().expect("path"))
        .replace("OUT", output.to_str().expect("path"));

    let registry = Registry::standard();
    let mut fused = registry
        .compiler(&["ext-matrix", "ext-tuples", "ext-rcptr", "ext-transform"])
        .expect("compose");
    fused.options.fuse_with_assign = true;
    let fused_allocs = fused.run(&src, 1).expect("fused run").allocations;

    let mut library = registry
        .compiler(&["ext-matrix", "ext-tuples", "ext-rcptr", "ext-transform"])
        .expect("compose");
    library.options.fuse_with_assign = false;
    let library_allocs = library.run(&src, 1).expect("library run").allocations;

    assert!(
        library_allocs > fused_allocs,
        "library mode must allocate the extra temporary: fused={fused_allocs}, library={library_allocs}"
    );
    std::fs::remove_file(&input).ok();
    std::fs::remove_file(&output).ok();
}
