//! The modular well-definedness analysis (§VI-B).
//!
//! Composition of AG fragments "may not be well-defined (meaning some
//! attributes do not have defining equations)". Silver's analysis
//! guarantees: if every chosen extension passes in isolation against the
//! host, the composition of all of them is well defined. The rules
//! enforced here are the effective core of that discipline:
//!
//! 1. **Completeness.** For every production `P` and synthesized attribute
//!    `a` occurring on `P`'s LHS: `P` has an equation for `a`, or `P`
//!    forwards. For every inherited attribute `a` occurring on a
//!    nonterminal child of `P`: `P` has a child equation for it.
//! 2. **Uniqueness.** No `(production, attribute, target)` is defined
//!    twice across the composition.
//! 3. **Modularity.** An extension may only define equations (a) on its own
//!    productions, or (b) for its *own* attributes as aspects on host
//!    productions — never a host attribute on a host production (that
//!    equation belongs to the host and duplicating it across extensions
//!    would collide).
//! 4. **Aspect completeness.** If an extension declares a new attribute
//!    occurring on a host nonterminal, it must give an aspect equation for
//!    that attribute on *every* host production of that nonterminal (it
//!    cannot know which other extensions exist, so it must cover the host
//!    exhaustively itself).
//! 5. **Forwarding for bridge productions.** An extension production whose
//!    LHS is a host nonterminal must forward (its host-attribute semantics
//!    are then inherited from its translation), unless it explicitly
//!    defines every host attribute — forwarding is the paper's translation
//!    story, so we require it.

use std::collections::{HashMap, HashSet};

use crate::spec::{AgFragment, AttrKind, EquationTarget};

/// Result of analysing a fragment (or a whole composition).
#[derive(Debug, Clone)]
pub struct WellDefinednessReport {
    /// Fragment analysed (or `<composition>`).
    pub subject: String,
    /// True iff no problems were found.
    pub passed: bool,
    /// Missing-equation problems.
    pub missing: Vec<String>,
    /// Duplicate-equation problems.
    pub duplicates: Vec<String>,
    /// Modularity violations.
    pub modularity: Vec<String>,
}

impl WellDefinednessReport {
    fn finish(mut self) -> Self {
        self.passed =
            self.missing.is_empty() && self.duplicates.is_empty() && self.modularity.is_empty();
        self
    }
}

impl std::fmt::Display for WellDefinednessReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "AG fragment '{}': {}",
            self.subject,
            if self.passed { "WELL-DEFINED" } else { "NOT WELL-DEFINED" }
        )?;
        for m in &self.missing {
            writeln!(f, "  missing: {m}")?;
        }
        for d in &self.duplicates {
            writeln!(f, "  duplicate: {d}")?;
        }
        for m in &self.modularity {
            writeln!(f, "  modularity: {m}")?;
        }
        Ok(())
    }
}

struct Composed<'a> {
    fragments: Vec<&'a AgFragment>,
    /// attr name -> (kind, owner fragment)
    attrs: HashMap<&'a str, (AttrKind, &'a str)>,
    /// occurrences: (attr, nt)
    occurrences: HashSet<(&'a str, &'a str)>,
    /// production name -> (sig owner, lhs, children)
    prods: HashMap<&'a str, (&'a str, &'a str, &'a [String])>,
    /// forwarding productions
    forwards: HashSet<&'a str>,
}

fn compose<'a>(host: &'a AgFragment, exts: &[&'a AgFragment]) -> Composed<'a> {
    let mut fragments = vec![host];
    fragments.extend_from_slice(exts);
    let mut attrs = HashMap::new();
    let mut occurrences = HashSet::new();
    let mut prods = HashMap::new();
    let mut forwards = HashSet::new();
    for frag in &fragments {
        for a in &frag.attrs {
            attrs.insert(a.name.as_str(), (a.kind, frag.name.as_str()));
        }
        for o in &frag.occurrences {
            occurrences.insert((o.attr.as_str(), o.nt.as_str()));
        }
        for p in &frag.productions {
            prods.insert(
                p.name.as_str(),
                (frag.name.as_str(), p.lhs.as_str(), p.children.as_slice()),
            );
        }
        for fwd in &frag.forwards {
            forwards.insert(fwd.as_str());
        }
    }
    Composed {
        fragments,
        attrs,
        occurrences,
        prods,
        forwards,
    }
}

/// Analyse `host` composed with `exts` as one whole (rule 1 and 2 over the
/// full composition). The modular analysis [`analyze_fragment`] implies
/// this passes; it is exposed so tests can verify the implication.
pub fn analyze_composition(host: &AgFragment, exts: &[&AgFragment]) -> WellDefinednessReport {
    let c = compose(host, exts);
    let mut report = WellDefinednessReport {
        subject: "<composition>".to_string(),
        passed: false,
        missing: Vec::new(),
        duplicates: Vec::new(),
        modularity: Vec::new(),
    };

    // Uniqueness across all fragments.
    let mut seen: HashMap<(&str, &str, EquationTarget), &str> = HashMap::new();
    for frag in &c.fragments {
        for eq in &frag.equations {
            let key = (eq.production.as_str(), eq.attr.as_str(), eq.target);
            if let Some(prev) = seen.insert(key, frag.name.as_str()) {
                report.duplicates.push(format!(
                    "equation for {} on '{}' defined by both '{}' and '{}'",
                    eq.attr, eq.production, prev, frag.name
                ));
            }
        }
    }

    // Completeness.
    for (pname, (_, lhs, children)) in &c.prods {
        let forwards = c.forwards.contains(pname);
        for (attr, (kind, _)) in &c.attrs {
            match kind {
                AttrKind::Synthesized => {
                    if c.occurrences.contains(&(*attr, *lhs))
                        && !forwards
                        && !seen.contains_key(&(*pname, *attr, EquationTarget::Lhs))
                    {
                        report.missing.push(format!(
                            "production '{pname}' lacks an equation for synthesized \
                             attribute '{attr}' on its LHS '{lhs}'"
                        ));
                    }
                }
                AttrKind::Inherited => {
                    for (i, child) in children.iter().enumerate() {
                        if c.occurrences.contains(&(*attr, child.as_str()))
                            && !forwards
                            && !seen.contains_key(&(*pname, *attr, EquationTarget::Child(i)))
                        {
                            report.missing.push(format!(
                                "production '{pname}' lacks an equation for inherited \
                                 attribute '{attr}' on child {i} ('{child}')"
                            ));
                        }
                    }
                }
            }
        }
    }
    report.finish()
}

/// The modular analysis: check one extension against the host alone.
/// Passing extensions compose: rule 3/4 guarantee no cross-extension
/// collisions or gaps, so the composed analysis also passes.
pub fn analyze_fragment(host: &AgFragment, ext: &AgFragment) -> WellDefinednessReport {
    // Start with the pairwise composition check.
    let pairwise = analyze_composition(host, &[ext]);
    let mut report = WellDefinednessReport {
        subject: ext.name.clone(),
        passed: false,
        missing: pairwise.missing,
        duplicates: pairwise.duplicates,
        modularity: Vec::new(),
    };

    let host_prods: HashMap<&str, &crate::spec::ProductionSig> =
        host.productions.iter().map(|p| (p.name.as_str(), p)).collect();
    let host_nts: HashSet<&str> = host
        .productions
        .iter()
        .map(|p| p.lhs.as_str())
        .collect();
    let ext_prods: HashSet<&str> = ext.productions.iter().map(|p| p.name.as_str()).collect();
    let ext_attrs: HashSet<&str> = ext.attrs.iter().map(|a| a.name.as_str()).collect();

    // Rule 3: equations only on own productions or own attributes.
    for eq in &ext.equations {
        let own_prod = ext_prods.contains(eq.production.as_str());
        let own_attr = ext_attrs.contains(eq.attr.as_str());
        if !own_prod && !own_attr {
            report.modularity.push(format!(
                "extension defines host attribute '{}' on host production '{}'",
                eq.attr, eq.production
            ));
        }
        if !own_prod && !host_prods.contains_key(eq.production.as_str()) {
            report.modularity.push(format!(
                "equation on unknown production '{}'",
                eq.production
            ));
        }
    }

    // Rule 4: new attributes on host nonterminals must cover every host
    // production of that nonterminal.
    for occ in &ext.occurrences {
        if !ext_attrs.contains(occ.attr.as_str()) || !host_nts.contains(occ.nt.as_str()) {
            continue;
        }
        let kind = ext
            .attrs
            .iter()
            .find(|a| a.name == occ.attr)
            .map(|a| a.kind)
            .unwrap_or(AttrKind::Synthesized);
        if kind != AttrKind::Synthesized {
            continue; // inherited aspects are demanded at use sites
        }
        for hp in host.productions.iter().filter(|p| p.lhs == occ.nt) {
            let covered = ext.equations.iter().any(|e| {
                e.production == hp.name && e.attr == occ.attr && e.target == EquationTarget::Lhs
            });
            if !covered {
                report.modularity.push(format!(
                    "extension attribute '{}' occurs on host nonterminal '{}' but has \
                     no aspect equation on host production '{}'",
                    occ.attr, occ.nt, hp.name
                ));
            }
        }
    }

    // Rule 5: bridge productions must forward.
    for p in &ext.productions {
        if host_nts.contains(p.lhs.as_str()) && !ext.forwards.contains(&p.name) {
            // ... unless it explicitly defines every host synthesized
            // attribute occurring on that nonterminal.
            let missing: Vec<&str> = host
                .attrs
                .iter()
                .filter(|a| a.kind == AttrKind::Synthesized)
                .filter(|a| {
                    host.occurrences
                        .iter()
                        .any(|o| o.attr == a.name && o.nt == p.lhs)
                })
                .filter(|a| {
                    !ext.equations.iter().any(|e| {
                        e.production == p.name
                            && e.attr == a.name
                            && e.target == EquationTarget::Lhs
                    })
                })
                .map(|a| a.name.as_str())
                .collect();
            if !missing.is_empty() {
                report.modularity.push(format!(
                    "bridge production '{}' on host nonterminal '{}' neither forwards \
                     nor defines host attributes: {}",
                    p.name,
                    p.lhs,
                    missing.join(", ")
                ));
            }
        }
    }

    report.finish()
}
