//! Experiments E12/E13: run the paper's two modular analyses on every
//! registered extension and print the verdict table — reproducing §VI-A's
//! result that the matrix extension passes `isComposable` while the
//! tuples extension fails on its initial `(` and "will be packaged as
//! part of the host language", and §VI-B's result that all extensions
//! pass the modular well-definedness analysis.
//!
//! ```sh
//! cargo run --release --example composability_report
//! ```

use cmm::core::Registry;

fn main() {
    let registry = Registry::standard();

    println!("=== modular determinism analysis (isComposable, §VI-A) ===\n");
    println!(
        "{:<16} {:<12} {:<28} packaging",
        "extension", "verdict", "marking terminals"
    );
    for report in registry.composability_reports() {
        let ext = registry
            .extensions()
            .iter()
            .find(|e| e.name == report.extension)
            .expect("registered");
        println!(
            "{:<16} {:<12} {:<28} {}",
            report.extension,
            if report.passed { "COMPOSABLE" } else { "rejected" },
            report.marking_terminals.join(","),
            ext.packaged.as_deref().unwrap_or("independent unit"),
        );
        for v in &report.violations {
            println!("    ↳ {v}");
        }
    }

    println!("\n=== modular well-definedness analysis (§VI-B) ===\n");
    for report in registry.well_definedness_reports() {
        println!(
            "{:<16} {}",
            report.subject,
            if report.passed { "WELL-DEFINED" } else { "NOT WELL-DEFINED" }
        );
        for m in report.missing.iter().chain(&report.duplicates).chain(&report.modularity) {
            println!("    ↳ {m}");
        }
    }

    println!("\n=== the composition theorem in action ===\n");
    // Passing extensions compose to an LALR(1) grammar without any
    // whole-composition check by the user (§VI-A).
    let c = registry
        .compiler(&["ext-matrix", "ext-rcptr"])
        .expect("passing extensions compose");
    println!(
        "host ∪ ext-matrix ∪ ext-rcptr composed: parser has {} LALR states",
        c.parser().num_states()
    );
    let full = registry
        .compiler(&["ext-matrix", "ext-tuples", "ext-rcptr", "ext-transform"])
        .expect("full composition (tuples/transform packaged)");
    println!(
        "full language (tuples/transform packaged in): {} LALR states",
        full.parser().num_states()
    );
}
