//! Composes the standard language when `cmm-core` is built, the way
//! Copper generates a translator's parser once (§VI-A). Every
//! independently composable extension is verified with `isComposable`.
//! Every extension's AG module, derived from its fragment and the AST
//! rules, passes the modular well-definedness analysis (§VI-B), and so
//! does their composition. The full selection is then composed, and what
//! parsing reads of it (its grammar view, LALR(1) tables and scanner DFA)
//! is written to `OUT_DIR` as `static`s, next to the encoding of the
//! fragments it was built from.
//! `lib.rs` includes both. An extension that does not compose, or that
//! has a production the AST builder has no rule for, fails the build.

// The build reads the fragments and their packaging, nothing else.
#[allow(dead_code)]
#[path = "src/standard.rs"]
mod standard;

use std::path::PathBuf;

use cmm_ag::{analyze_composition, analyze_fragment, AgFragment};
use cmm_grammar::{is_composable, ComposedGrammar, GrammarFragment, Parser};
use cmm_lang::ag_fragment;

fn main() {
    println!("cargo:rerun-if-changed=build.rs");
    println!("cargo:rerun-if-changed=src/standard.rs");
    let host = cmm_lang::host_grammar();
    let extensions = standard::extensions();
    // Selecting every extension selects every one: none is packaged with
    // an extension outside the list.
    let selected: Vec<&standard::Extension> = extensions.iter().collect();
    for e in selected.iter().filter(|e| e.packaged.is_none()) {
        let report = is_composable(&host, &e.grammar);
        assert!(report.passed, "the standard language does not compose:\n{report}");
    }
    let host_ag = ag_fragment(&host, None);
    let ags: Vec<AgFragment> = selected
        .iter()
        .map(|e| ag_fragment(&e.grammar, Some(&host)))
        .collect();
    let all = analyze_composition(&host_ag, &ags.iter().collect::<Vec<_>>());
    for report in ags.iter().map(|ag| analyze_fragment(&host_ag, ag)).chain([all]) {
        assert!(report.passed, "the standard language is not well defined:\n{report}");
    }
    let fragments: Vec<&GrammarFragment> = selected.iter().map(|e| &e.grammar).collect();
    let grammar = ComposedGrammar::compose(&host, &fragments)
        .unwrap_or_else(|e| panic!("the standard language does not compose: {e}"));
    let parser = Parser::new(grammar).unwrap_or_else(|conflicts| {
        let first = &conflicts[0];
        panic!(
            "the standard language is not LALR(1): {} conflicts, first on '{}' in state {}: {}",
            conflicts.len(),
            first.terminal,
            first.state,
            first.description
        )
    });
    let out = PathBuf::from(std::env::var_os("OUT_DIR").expect("cargo sets OUT_DIR"));
    let write = |name: &str, bytes: &[u8]| {
        std::fs::write(out.join(name), bytes).unwrap_or_else(|e| panic!("write {name}: {e}"))
    };
    write("standard.enc", &standard::composition_encoding(&host, &selected));
    write("standard_parser.rs", parser.static_source("standard_parser").as_bytes());
}
