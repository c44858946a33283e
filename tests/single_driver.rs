//! One LR driver, two reducers. `Parser::parse` builds a CST and the
//! compiler's front end builds the AST as it reduces; both run the same
//! parse loop, so on any input they must stop at the same syntax error
//! with the same words. (That the AST reducer has a rule for every
//! production of the standard language is checked when `cmm-core` is
//! built, by the well-definedness analysis.)

use cmm::core::{CompileError, Registry, ALL_EXTENSIONS};

fn programs() -> Vec<(String, String)> {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut out = Vec::new();
    for dir in ["tests/corpus", "examples"] {
        let entries = std::fs::read_dir(root.join(dir)).expect("directory exists");
        for path in entries.filter_map(Result::ok).map(|e| e.path()) {
            if path.extension().is_some_and(|x| x == "xc") {
                let src = std::fs::read_to_string(&path).expect("readable program");
                out.push((path.display().to_string(), src));
            }
        }
    }
    out.sort();
    out
}

#[test]
fn both_reducers_stop_at_the_same_syntax_error() {
    let compiler = Registry::standard()
        .compiler(&ALL_EXTENSIONS)
        .expect("full language");
    let programs = programs();
    assert!(
        programs.len() >= 8,
        "corpus and examples: {}",
        programs.len()
    );
    let mut compared = 0;
    for (path, src) in &programs {
        // Every cut in the first 64 bytes, then about 80 more across the file.
        let step = (src.len() / 80).max(1);
        let cuts = (0..src.len().min(64)).chain((64..src.len()).step_by(step));
        for cut in cuts.filter(|&c| src.is_char_boundary(c)) {
            let prefix = &src[..cut];
            match (compiler.parser().parse(prefix), compiler.frontend(prefix)) {
                (Err(cst), Err(CompileError::Parse(ast))) => {
                    assert_eq!(cst.to_string(), ast, "{path} cut at {cut}");
                    compared += 1;
                }
                (Err(cst), other) => panic!(
                    "{path} cut at {cut}: CST parse failed ({cst}), AST parse gave {other:?}"
                ),
                (Ok(_), Err(CompileError::Parse(ast))) => {
                    panic!("{path} cut at {cut}: only the AST parse failed: {ast}")
                }
                (Ok(_), _) => {}
            }
        }
        assert!(
            compiler.parser().parse(src).is_ok() && compiler.frontend(src).is_ok(),
            "{path}"
        );
    }
    assert!(compared > 500, "only {compared} syntax errors compared");
}
