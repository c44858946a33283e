//! Every example prints the tree-walking reference's bytes on the VM, at
//! 1, 2 and 4 threads, with and without the §III-A4 fusions
//! (`--no-fusion`): the thread count changes when and where work runs,
//! the fusions how much is allocated, and neither what a program prints.
//! Each VM run allocates what the reference run of the same IR allocates
//! and leaks nothing. `tests/corpus/no-fusion-reassign.xc` joins the
//! examples: its reassignment is the unfused path's copy.

use cmm::core::Compiler;
use cmm::eddy::programs::full_compiler;
use cmm::loopir::{Interp, IrProgram, Tier};

/// Output, allocations and leaked buffers of one run of `ir`.
fn run(ir: &IrProgram, tier: Tier, threads: usize) -> (String, u32, u32) {
    let interp = Interp::new(ir, threads).with_tier(tier);
    interp
        .run_main()
        .unwrap_or_else(|e| panic!("{tier:?} at {threads} threads: {e}"));
    (interp.output(), interp.alloc_count(), interp.live_buffers())
}

fn programs() -> Vec<(String, String)> {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut paths: Vec<_> = std::fs::read_dir(root.join("examples"))
        .expect("examples/ exists")
        .map(|e| e.expect("readable entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "xc"))
        .collect();
    paths.sort();
    assert!(!paths.is_empty(), "examples/*.xc");
    paths.push(root.join("tests/corpus/no-fusion-reassign.xc"));
    paths
        .into_iter()
        .map(|p| {
            let src = std::fs::read_to_string(&p).expect("readable program");
            (p.display().to_string(), src)
        })
        .collect()
}

#[test]
fn every_example_prints_the_reference_bytes_on_the_vm() {
    let fused = full_compiler();
    let mut unfused: Compiler = full_compiler();
    unfused.options.fuse_with_assign = false;
    unfused.options.fuse_slice_index = false;
    for (name, src) in programs() {
        let mut printed = None;
        for (variant, compiler) in [("fused", &fused), ("unfused", &unfused)] {
            let ir = compiler
                .compile(&src)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            let (output, allocations, leaked) = run(&ir, Tier::Tree, 1);
            assert_eq!(leaked, 0, "{name} ({variant}): the reference leaks");
            // The unfused program prints what the fused one does.
            let reference = printed.get_or_insert_with(|| output.clone());
            assert_eq!(
                &output, reference,
                "{name} ({variant}): the reference's output"
            );
            for threads in [1, 2, 4] {
                let got = run(&ir, Tier::Vm, threads);
                let want = (reference.clone(), allocations, 0);
                assert_eq!(got, want, "{name} ({variant}, {threads} threads)");
            }
        }
    }
}

/// The cost probe (`Interp::with_cost_probe`, what `cmmc tune` scores
/// with) records the same per-iteration costs, steps and output on both
/// tiers: the VM probes for the tuner, and the tree tier is what it must
/// equal.
#[test]
fn every_example_probes_alike_on_both_tiers() {
    let compiler = full_compiler();
    for (name, src) in programs() {
        let ir = compiler
            .compile(&src)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let [tree, vm] = [Tier::Tree, Tier::Vm].map(|tier| {
            let interp = Interp::new(&ir, 1).with_tier(tier).with_cost_probe(true);
            interp
                .run_main()
                .unwrap_or_else(|e| panic!("{name} on {tier:?}: {e}"));
            (interp.loop_costs(), interp.steps_used(), interp.output())
        });
        assert!(!tree.0.is_empty(), "{name}: no parallel loop was recorded");
        assert_eq!(vm, tree, "{name}");
    }
}
