//! The standard language: the paper's extensions in registration order,
//! with their packaging. Written once and read twice — by
//! `Registry::standard`, and by `build.rs`, which composes the full
//! selection when this crate is built — so the parser built ahead of time
//! is the parser of the registered language.

use cmm_grammar::GrammarFragment;
use cmm_lang::typecheck::Ext;

/// One pluggable language extension: its specifications plus packaging
/// status as determined by the modular analyses.
pub struct Extension {
    /// Extension name.
    pub name: String,
    /// Concrete-syntax fragment; its attribute-grammar module is derived
    /// from it ([`cmm_lang::ag_fragment`]).
    pub grammar: GrammarFragment,
    /// `None` when the extension composes independently (passes
    /// `isComposable`); `Some(reason)` when it must be packaged with the
    /// host/another extension instead.
    pub packaged: Option<String>,
    /// The extension this one is packaged with: selecting this one has no
    /// effect unless that one is selected too.
    pub requires: Option<&'static str>,
    /// The semantic-analysis switch selecting this extension turns on.
    pub ext: Ext,
}

/// The paper's configuration over the CMINUS host: matrix, rc-pointer and
/// cilk extensions independently composable; tuples packaged with the
/// host; transformations packaged with the matrix extension.
pub fn extensions() -> Vec<Extension> {
    vec![
        Extension {
            name: cmm_ext_matrix::NAME.to_string(),
            grammar: cmm_ext_matrix::grammar(),
            packaged: None,
            requires: None,
            ext: Ext::Matrix,
        },
        Extension {
            name: cmm_ext_rcptr::NAME.to_string(),
            grammar: cmm_ext_rcptr::grammar(),
            packaged: None,
            requires: None,
            ext: Ext::Rcptr,
        },
        Extension {
            name: cmm_ext_cilk::NAME.to_string(),
            grammar: cmm_ext_cilk::grammar(),
            packaged: None,
            requires: None,
            ext: Ext::Cilk,
        },
        Extension {
            name: cmm_ext_tuples::NAME.to_string(),
            grammar: cmm_ext_tuples::grammar(),
            packaged: Some(
                "fails the modular determinism analysis (initial terminal is the \
                 host's '('); packaged as part of the host language (§VI-A)"
                    .to_string(),
            ),
            requires: None,
            ext: Ext::Tuples,
        },
        Extension {
            name: cmm_ext_transform::NAME.to_string(),
            grammar: cmm_ext_transform::grammar(),
            packaged: Some(
                "its clause begins with host syntax (the transformed assignment); \
                 packaged with the matrix extension it extends (§V)"
                    .to_string(),
            ),
            requires: Some(cmm_ext_matrix::NAME),
            ext: Ext::Transform,
        },
    ]
}

/// The canonical encoding of what a composition is built from: the host
/// fragment, then each selected extension's fragment and whether
/// `isComposable` verifies it (it does unless the extension is packaged).
/// Equal encodings mean the same parser and the same verdicts.
pub fn composition_encoding(host: &GrammarFragment, selected: &[&Extension]) -> Vec<u8> {
    let mut out = Vec::new();
    host.encode(&mut out);
    for e in selected {
        e.grammar.encode(&mut out);
        out.push(e.packaged.is_none() as u8);
    }
    out
}
