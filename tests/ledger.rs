//! Ceilings on counts no host can move, for one program at one size.
//! `tests/golden/wide_templates.xc` (one instance of each `compile_wide`
//! benchmark template) lowers to at most so many IR statements and emits
//! at most so many bytes of C, each 1.02 × the count measured when its
//! ceiling was set. A change that lowers a count lowers its ceiling in
//! the same diff; one that raises a count says why.

use cmm::core::{Registry, ALL_EXTENSIONS};

/// What pass `pass` counts on `wide_templates.xc`: IR statements for
/// `lower`, bytes of C for `emit`.
fn pass_items(pass: &str) -> u64 {
    let src = include_str!("golden/wide_templates.xc");
    let compiler = Registry::standard()
        .compiler(&ALL_EXTENSIONS)
        .expect("full language");
    let (_, metrics) = compiler.compile_to_c_metered(src).expect("compiles");
    metrics
        .passes
        .iter()
        .find(|p| p.name == pass)
        .unwrap_or_else(|| panic!("no {pass} pass"))
        .items
}

#[test]
fn wide_templates_lower_to_few_statements() {
    // 341 measured: with-loop bounds in place, only guards that can fire,
    // counted `for` loops, no release after a `return` (580 before).
    let stmts = pass_items("lower");
    assert!(
        stmts <= 347,
        "lowering: {stmts} IR statements (ceiling 347)"
    );
}

#[test]
fn wide_templates_emit_few_bytes() {
    // 28 861 measured, the C prelude included (39 601 before).
    let bytes = pass_items("emit");
    assert!(
        bytes <= 29_438,
        "emission: {bytes} bytes of C (ceiling 29 438)"
    );
}
