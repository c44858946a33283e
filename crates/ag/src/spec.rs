//! Attribute-grammar fragments as declarative data.
//!
//! A fragment mirrors one Silver grammar module: the host language or one
//! extension. It declares attributes, states which nonterminals they occur
//! on, lists production signatures, and gives equations. Equations carry no
//! code here — the analysis only needs to know *that* a defining equation
//! exists and who owns it.

/// Synthesized attributes flow up the tree; inherited flow down.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AttrKind {
    /// Computed on a node from its children (and its own inherited).
    Synthesized,
    /// Supplied to a child by its parent's equations.
    Inherited,
}

/// Declaration of an attribute.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttrDecl {
    /// Attribute name, e.g. `typeof`, `errors`, `cTrans`, `env`.
    pub name: String,
    /// Synthesized or inherited.
    pub kind: AttrKind,
}

/// An attribute occurrence: attribute `attr` decorates nonterminal `nt`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Occurrence {
    /// Attribute name.
    pub attr: String,
    /// Nonterminal name.
    pub nt: String,
}

/// Production signature: name, LHS nonterminal, and the nonterminal
/// children in order (terminal children are irrelevant to attribute flow).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProductionSig {
    /// Production name (matches the grammar fragment's production names).
    pub name: String,
    /// LHS nonterminal.
    pub lhs: String,
    /// Nonterminal children, in RHS order.
    pub children: Vec<String>,
}

/// Where an equation writes its value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EquationTarget {
    /// A synthesized attribute on the production's LHS node.
    Lhs,
    /// An inherited attribute on nonterminal child `i` (0-based among
    /// nonterminal children).
    Child(usize),
}

/// A defining equation for `(production, attr, target)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Equation {
    /// Production the equation is attached to.
    pub production: String,
    /// Attribute defined.
    pub attr: String,
    /// LHS (synthesized) or child (inherited).
    pub target: EquationTarget,
}

/// One AG module: the host language or an extension.
#[derive(Debug, Clone, Default)]
pub struct AgFragment {
    /// Fragment name (matches the grammar fragment name).
    pub name: String,
    /// Attributes declared by this fragment.
    pub attrs: Vec<AttrDecl>,
    /// Occurrences declared by this fragment (`attr` may be declared here
    /// or in another fragment; `nt` likewise).
    pub occurrences: Vec<Occurrence>,
    /// Productions introduced by this fragment.
    pub productions: Vec<ProductionSig>,
    /// Equations given by this fragment (on its own productions or as
    /// *aspects* on other fragments' productions).
    pub equations: Vec<Equation>,
    /// Productions of this fragment that forward: a forwarding production
    /// implicitly defines every synthesized attribute it lacks an explicit
    /// equation for by delegating to its forward tree (Silver's mechanism
    /// that lets extension constructs inherit host semantics — used here by
    /// every extension's translation-to-host-C story).
    pub forwards: Vec<String>,
}

impl AgFragment {
    /// New empty fragment.
    pub fn new(name: &str) -> Self {
        AgFragment {
            name: name.to_string(),
            ..Default::default()
        }
    }

    /// Declare an attribute (builder style).
    pub fn attr(mut self, name: &str, kind: AttrKind) -> Self {
        self.attrs.push(AttrDecl {
            name: name.to_string(),
            kind,
        });
        self
    }

    /// Declare an occurrence (builder style).
    pub fn occurs(mut self, attr: &str, nt: &str) -> Self {
        self.occurrences.push(Occurrence {
            attr: attr.to_string(),
            nt: nt.to_string(),
        });
        self
    }

    /// Declare occurrences of one attribute on many nonterminals.
    pub fn occurs_on(mut self, attr: &str, nts: &[&str]) -> Self {
        for nt in nts {
            self.occurrences.push(Occurrence {
                attr: attr.to_string(),
                nt: nt.to_string(),
            });
        }
        self
    }

    /// Declare a production signature (builder style).
    pub fn production(mut self, name: &str, lhs: &str, children: &[&str]) -> Self {
        self.productions.push(ProductionSig {
            name: name.to_string(),
            lhs: lhs.to_string(),
            children: children.iter().map(|s| s.to_string()).collect(),
        });
        self
    }

    /// Add an equation for a synthesized attribute on a production's LHS.
    pub fn syn_eq(mut self, production: &str, attr: &str) -> Self {
        self.equations.push(Equation {
            production: production.to_string(),
            attr: attr.to_string(),
            target: EquationTarget::Lhs,
        });
        self
    }

    /// Add an equation for an inherited attribute on child `i`.
    pub fn inh_eq(mut self, production: &str, attr: &str, child: usize) -> Self {
        self.equations.push(Equation {
            production: production.to_string(),
            attr: attr.to_string(),
            target: EquationTarget::Child(child),
        });
        self
    }

    /// Mark a production as forwarding.
    pub fn forward(mut self, production: &str) -> Self {
        self.forwards.push(production.to_string());
        self
    }
}
