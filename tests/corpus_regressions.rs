//! Replay of the differential-fuzzing corpus.
//!
//! `tests/corpus/` holds hand-written seed programs plus every
//! minimized reproducer `cmmc fuzz` has ever written. Each file is run
//! through the full five-oracle differential harness on every
//! `cargo test`, so a once-found compiler bug can never silently
//! return, and the seeds keep the paper's showcase shapes (Fig 9
//! split/vectorize, per-loop schedules, tiling) continuously
//! cross-checked against the untransformed reference, every schedule
//! policy, metered execution, both execution tiers (the bytecode-VM
//! baseline and the tree-walker reference via the `vm` oracle), and
//! gcc-compiled emitted C.

use cmm::core::{compile_and_run_c, gcc_available_or_skip, Registry, ALL_EXTENSIONS};
use cmm::fuzz::{Harness, ALL_ORACLES};
use cmm::loopir::{Interp, Tier};

fn corpus_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus")
}

#[test]
fn every_corpus_program_passes_all_oracles() {
    let dir = corpus_dir();
    let mut entries: Vec<_> = std::fs::read_dir(&dir)
        .expect("tests/corpus exists")
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "xc"))
        .collect();
    entries.sort();
    assert!(
        !entries.is_empty(),
        "tests/corpus must contain at least the seed programs"
    );

    let harness = Harness::new().expect("full extension set composes");
    let mut failures = Vec::new();
    for path in &entries {
        let src = std::fs::read_to_string(path).expect("readable corpus file");
        if let Err(f) = harness.check(&src, &ALL_ORACLES) {
            failures.push(format!("{}: {}", path.display(), f.detail));
        }
    }
    assert!(
        failures.is_empty(),
        "corpus regressions:\n{}",
        failures.join("\n---\n")
    );
}

/// Without the with-loop / assignment fusion (`--no-fusion`), reassigning
/// a matrix copies the new value into a fresh buffer. Its one reference
/// passes to the target: both tiers free every buffer and print what the
/// fused program prints, and the emitted C increments no copy it has just
/// assigned.
#[test]
fn unfused_reassignment_leaks_nothing() {
    let src = std::fs::read_to_string(corpus_dir().join("no-fusion-reassign.xc"))
        .expect("corpus file");
    let registry = Registry::standard();
    let fused = registry.compiler(&ALL_EXTENSIONS).expect("full language");
    let expected = fused.run(&src, 2).expect("fused run").output;
    assert_eq!(expected, "5\n");
    let mut unfused = registry.compiler(&ALL_EXTENSIONS).expect("full language");
    unfused.options.fuse_with_assign = false;
    let ir = unfused.compile(&src).expect("unfused compile");
    for tier in [Tier::Vm, Tier::Tree] {
        let run = Interp::new(&ir, 2).with_tier(tier);
        run.run_main().expect("unfused run");
        assert_eq!(run.output(), expected, "{tier:?}");
        let (leaked, of) = (run.live_buffers(), run.alloc_count());
        assert_eq!(leaked, 0, "{tier:?}: {leaked} of {of} buffers leaked");
    }
    let c = unfused.compile_to_c(&src).expect("emit");
    let lines: Vec<&str> = c.lines().map(str::trim).collect();
    let mut copies = 0;
    for pair in lines.windows(2) {
        let assigned = pair[0].strip_suffix(';').and_then(|l| l.split_once(" = __cp_"));
        if let Some((target, _)) = assigned {
            assert_ne!(pair[1], format!("rc_incr({target});"), "the copy is counted twice");
            copies += 1;
        }
    }
    assert_eq!(copies, 1, "one reassignment, one copy:\n{c}");
    if gcc_available_or_skip("unfused_reassignment_leaks_nothing") {
        let ran = compile_and_run_c(&c, 2).expect("gcc build and run");
        assert_eq!(ran, expected);
    }
}

/// The corpus seeds must actually exercise the shapes they claim to
/// pin (guards against someone gutting a seed file during an edit).
#[test]
fn corpus_seeds_cover_the_showcase_directives() {
    let read = |name: &str| {
        std::fs::read_to_string(corpus_dir().join(name))
            .unwrap_or_else(|e| panic!("{name}: {e}"))
    };
    let fig9 = read("seed-fig9-vectorize-split.xc");
    assert!(fig9.contains("split j by 4"), "Fig 9 seed keeps its split");
    assert!(fig9.contains("vectorize jin"), "Fig 9 seed keeps vectorize");
    let sched = read("seed-schedule-tile.xc");
    assert!(sched.contains("schedule x dynamic"), "schedule seed keeps dynamic");
    assert!(sched.contains("schedule p guided"), "schedule seed keeps guided");
    assert!(sched.contains("tile i, j by 4, 4"), "schedule seed keeps tile");
}
