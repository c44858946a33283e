use crate::spec::*;
use crate::*;

/// Host AG: an expression language with a synthesized `typeof` and
/// `errors`, and an inherited `env`.
fn host_ag() -> AgFragment {
    AgFragment::new("host")
        .attr("typeof", AttrKind::Synthesized)
        .attr("errors", AttrKind::Synthesized)
        .attr("env", AttrKind::Inherited)
        .occurs_on("typeof", &["Expr"])
        .occurs_on("errors", &["Expr", "Stmt"])
        .occurs_on("env", &["Expr", "Stmt"])
        .production("expr_add", "Expr", &["Expr", "Expr"])
        .production("expr_num", "Expr", &[])
        .production("expr_var", "Expr", &[])
        .production("stmt_expr", "Stmt", &["Expr"])
        .syn_eq("expr_add", "typeof")
        .syn_eq("expr_num", "typeof")
        .syn_eq("expr_var", "typeof")
        .syn_eq("expr_add", "errors")
        .syn_eq("expr_num", "errors")
        .syn_eq("expr_var", "errors")
        .syn_eq("stmt_expr", "errors")
        .inh_eq("expr_add", "env", 0)
        .inh_eq("expr_add", "env", 1)
        .inh_eq("stmt_expr", "env", 0)
}

/// A well-behaved extension: new construct on Expr that forwards, plus a
/// new attribute with aspects on every host Expr production.
fn good_ext() -> AgFragment {
    AgFragment::new("ext-matrix")
        .attr("dims", AttrKind::Synthesized)
        .occurs_on("dims", &["Expr"])
        .production("expr_with", "Expr", &["Expr", "Expr"])
        .forward("expr_with")
        .syn_eq("expr_with", "dims")
        .syn_eq("expr_add", "dims")
        .syn_eq("expr_num", "dims")
        .syn_eq("expr_var", "dims")
}

mod analysis_tests {
    use super::*;

    #[test]
    fn host_alone_is_well_defined() {
        let r = analyze_composition(&host_ag(), &[]);
        assert!(r.passed, "{r}");
    }

    #[test]
    fn good_extension_passes_modular_analysis() {
        let r = analyze_fragment(&host_ag(), &good_ext());
        assert!(r.passed, "{r}");
    }

    #[test]
    fn composition_of_passing_extensions_is_well_defined() {
        // The theorem: pass individually => composition passes.
        let host = host_ag();
        let e1 = good_ext();
        let e2 = AgFragment::new("ext-tuples")
            .production("expr_tuple", "Expr", &["Expr", "Expr"])
            .forward("expr_tuple")
            // e2 must also cover e1's "dims"? No: dims belongs to e1; e2
            // doesn't know it. Forwarding covers it on expr_tuple.
            ;
        assert!(analyze_fragment(&host, &e1).passed);
        assert!(analyze_fragment(&host, &e2).passed);
        let all = analyze_composition(&host, &[&e1, &e2]);
        assert!(all.passed, "{all}");
    }

    #[test]
    fn missing_equation_detected() {
        let host = AgFragment::new("host")
            .attr("typeof", AttrKind::Synthesized)
            .occurs_on("typeof", &["Expr"])
            .production("expr_num", "Expr", &[]);
        // no equation for typeof on expr_num
        let r = analyze_composition(&host, &[]);
        assert!(!r.passed);
        assert!(r.missing[0].contains("typeof"));
    }

    #[test]
    fn missing_inherited_equation_detected() {
        let host = AgFragment::new("host")
            .attr("env", AttrKind::Inherited)
            .occurs_on("env", &["Expr"])
            .production("expr_add", "Expr", &["Expr", "Expr"])
            .inh_eq("expr_add", "env", 0); // child 1 missing
        let r = analyze_composition(&host, &[]);
        assert!(!r.passed);
        assert!(r.missing.iter().any(|m| m.contains("child 1")));
    }

    #[test]
    fn duplicate_equation_detected() {
        let host = host_ag();
        let ext = AgFragment::new("ext-dup")
            .attr("dims", AttrKind::Synthesized)
            .occurs_on("dims", &["Expr"])
            .syn_eq("expr_num", "dims")
            .syn_eq("expr_num", "dims") // duplicate
            .syn_eq("expr_add", "dims")
            .syn_eq("expr_var", "dims");
        let r = analyze_fragment(&host, &ext);
        assert!(!r.passed);
        assert!(!r.duplicates.is_empty());
    }

    #[test]
    fn extension_defining_host_attribute_on_host_production_fails() {
        let ext = AgFragment::new("ext-bad").syn_eq("expr_num", "typeof");
        let r = analyze_fragment(&host_ag(), &ext);
        assert!(!r.passed);
        assert!(r.modularity[0].contains("host attribute"));
    }

    #[test]
    fn incomplete_aspects_fail() {
        // New attribute on host NT but aspect missing for expr_var.
        let ext = AgFragment::new("ext-partial")
            .attr("dims", AttrKind::Synthesized)
            .occurs_on("dims", &["Expr"])
            .syn_eq("expr_add", "dims")
            .syn_eq("expr_num", "dims");
        let r = analyze_fragment(&host_ag(), &ext);
        assert!(!r.passed);
        assert!(r
            .modularity
            .iter()
            .any(|m| m.contains("expr_var")), "{:?}", r.modularity);
    }

    #[test]
    fn bridge_without_forward_fails() {
        let ext = AgFragment::new("ext-nofwd")
            .production("expr_with", "Expr", &["Expr"]);
        let r = analyze_fragment(&host_ag(), &ext);
        assert!(!r.passed);
        assert!(r.modularity[0].contains("neither forwards"));
    }

    #[test]
    fn bridge_with_explicit_host_equations_passes() {
        let ext = AgFragment::new("ext-explicit")
            .production("expr_with", "Expr", &["Expr"])
            .syn_eq("expr_with", "typeof")
            .syn_eq("expr_with", "errors")
            .inh_eq("expr_with", "env", 0);
        let r = analyze_fragment(&host_ag(), &ext);
        assert!(r.passed, "{r}");
    }
}
