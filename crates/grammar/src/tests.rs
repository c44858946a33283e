use crate::dfa::Dfa;
use crate::grammar::*;
use crate::regex::{parse as rx, ByteSet};
use crate::*;
use proptest::prelude::*;

fn matches(pattern: &str, input: &str) -> bool {
    let re = rx(pattern).unwrap();
    let dfa = Dfa::build(std::slice::from_ref(&re));
    let mut state = dfa.start();
    for &b in input.as_bytes() {
        state = dfa.step(state, b);
        if state == crate::dfa::DEAD {
            return false;
        }
    }
    !dfa.accepts(state).is_empty()
}

mod regex_tests {
    use super::*;

    #[test]
    fn literals_and_escapes() {
        assert!(matches("abc", "abc"));
        assert!(!matches("abc", "ab"));
        assert!(!matches("abc", "abcd"));
        assert!(matches(r"a\.b", "a.b"));
        assert!(!matches(r"a\.b", "axb"));
        assert!(matches(r"\n", "\n"));
        assert!(matches(r"\\", "\\"));
    }

    #[test]
    fn classes_and_ranges() {
        assert!(matches("[a-z]+", "hello"));
        assert!(!matches("[a-z]+", "Hello"));
        assert!(matches("[a-zA-Z_][a-zA-Z0-9_]*", "_x9Y"));
        assert!(matches("[^0-9]", "x"));
        assert!(!matches("[^0-9]", "5"));
        assert!(matches(r"[\]]", "]"));
    }

    #[test]
    fn postfix_operators() {
        assert!(matches("ab*", "a"));
        assert!(matches("ab*", "abbb"));
        assert!(matches("ab+", "abb"));
        assert!(!matches("ab+", "a"));
        assert!(matches("ab?", "a"));
        assert!(matches("ab?", "ab"));
        assert!(!matches("ab?", "abb"));
    }

    #[test]
    fn alternation_and_grouping() {
        assert!(matches("cat|dog", "cat"));
        assert!(matches("cat|dog", "dog"));
        assert!(!matches("cat|dog", "cow"));
        assert!(matches("(ab)+", "ababab"));
        assert!(!matches("(ab)+", "aba"));
    }

    #[test]
    fn dot_excludes_newline() {
        assert!(matches(".", "x"));
        assert!(!matches(".", "\n"));
        assert!(matches("//.*", "// a comment"));
    }

    #[test]
    fn block_comment_pattern() {
        let p = r"/\*([^*]|\*+[^*/])*\*+/";
        assert!(matches(p, "/* hi */"));
        assert!(matches(p, "/* a * b */"));
        assert!(matches(p, "/**/"));
        assert!(!matches(p, "/* unclosed"));
    }

    #[test]
    fn float_literal_pattern() {
        let p = r"[0-9]+\.[0-9]+";
        assert!(matches(p, "3.14"));
        assert!(!matches(p, "3."));
        assert!(!matches(p, "314"));
    }

    #[test]
    fn errors_reported() {
        assert!(rx("(a").is_err());
        assert!(rx("[a-").is_err());
        assert!(rx("*a").is_err());
        assert!(rx("[z-a]").is_err());
        assert!(rx("a)").is_err());
    }

    #[test]
    fn byteset_ops() {
        let mut s = ByteSet::empty();
        s.insert_range(b'a', b'c');
        assert!(s.contains(b'b'));
        assert!(!s.contains(b'd'));
        let c = s.complement();
        assert!(!c.contains(b'b'));
        assert!(c.contains(b'd'));
        assert_eq!(s.iter().count(), 3);
    }

    /// The set as its members were once listed: every byte, filtered.
    fn members_by_filter(s: &ByteSet) -> Vec<u8> {
        (0u16..256).map(|b| b as u8).filter(|&b| s.contains(b)).collect()
    }

    fn set_of(words: [u64; 4]) -> ByteSet {
        let mut s = ByteSet::empty();
        for b in 0..=255u8 {
            if words[b as usize / 64] >> (b % 64) & 1 == 1 {
                s.insert(b);
            }
        }
        s
    }

    #[test]
    fn byteset_iter_lists_the_edges_the_empty_and_the_full_set() {
        let full = ByteSet::empty().complement();
        for s in [ByteSet::empty(), full, ByteSet::single(0), ByteSet::single(255), set_of([1, 0, 0, 1 << 63])] {
            assert_eq!(s.iter().collect::<Vec<u8>>(), members_by_filter(&s), "{s:?}");
        }
        assert_eq!(full.iter().count(), 256);
        assert_eq!(set_of([1, 0, 0, 1 << 63]).iter().collect::<Vec<u8>>(), [0, 255]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Walking set bits lists what filtering `0..256` lists, in the
        /// same ascending order, for sparse and dense sets alike.
        #[test]
        fn prop_byteset_iter_walks_exactly_the_members(
            a in any::<u64>(), b in any::<u64>(), c in any::<u64>(), d in any::<u64>()
        ) {
            for words in [[a, b, c, d], [a & b, b & c, c & d, d & a], [a & b & c, 0, b & c & d, 0]] {
                let s = set_of(words);
                prop_assert_eq!(s.iter().collect::<Vec<u8>>(), members_by_filter(&s));
            }
        }
    }
}

/// A tiny expression host language used across the parser tests.
fn expr_host() -> GrammarFragment {
    GrammarFragment::new("host")
        .terminal(Terminal::ignored("WS", "[ \t\n]+"))
        .terminal(Terminal::new("NUM", "[0-9]+"))
        .terminal(Terminal::new("ID", "[a-zA-Z_][a-zA-Z0-9_]*"))
        .terminal(Terminal::new("PLUS", r"\+"))
        .terminal(Terminal::new("STAR", r"\*"))
        .terminal(Terminal::new("LP", r"\("))
        .terminal(Terminal::new("RP", r"\)"))
        .start("Expr")
        .production("expr_add", "Expr", vec![Sym::N("Expr".into()), Sym::T("PLUS".into()), Sym::N("Term".into())])
        .production("expr_term", "Expr", vec![Sym::N("Term".into())])
        .production("term_mul", "Term", vec![Sym::N("Term".into()), Sym::T("STAR".into()), Sym::N("Factor".into())])
        .production("term_factor", "Term", vec![Sym::N("Factor".into())])
        .production("factor_num", "Factor", vec![Sym::T("NUM".into())])
        .production("factor_id", "Factor", vec![Sym::T("ID".into())])
        .production("factor_paren", "Factor", vec![Sym::T("LP".into()), Sym::N("Expr".into()), Sym::T("RP".into())])
}

mod lalr_tests {
    use super::*;

    #[test]
    fn expression_grammar_is_lalr() {
        let g = ComposedGrammar::compose(&expr_host(), &[]).unwrap();
        let t = lalr::build(&g);
        assert!(t.is_lalr(), "conflicts: {:?}", t.conflicts);
        assert!(t.num_states > 5);
    }

    #[test]
    fn ambiguous_grammar_reports_conflict() {
        // E -> E + E | num : classic shift/reduce ambiguity.
        let frag = GrammarFragment::new("host")
            .terminal(Terminal::new("NUM", "[0-9]+"))
            .terminal(Terminal::new("PLUS", r"\+"))
            .start("E")
            .production("add", "E", vec![Sym::N("E".into()), Sym::T("PLUS".into()), Sym::N("E".into())])
            .production("num", "E", vec![Sym::T("NUM".into())]);
        let g = ComposedGrammar::compose(&frag, &[]).unwrap();
        let t = lalr::build(&g);
        assert!(!t.is_lalr());
        assert!(t.conflicts.iter().any(|c| c.terminal == "PLUS"));
    }

    #[test]
    fn conflicting_composition_builds_identically_every_time() {
        // `pair a b` juxtaposes two expressions: `pair 1 + 2 3` and
        // `pair 1 + 2` both leave the parser unable to decide on `+`, in
        // several states. Every `HashMap` in the process is seeded
        // differently, so a builder whose state numbering follows a
        // map's iteration order gives different tables and a differently
        // worded, differently ordered conflict list on each build.
        let ext = GrammarFragment::new("ext-pair")
            .terminal(Terminal::keyword("KW_PAIR", "pair"))
            .production(
                "factor_pair",
                "Factor",
                vec![Sym::T("KW_PAIR".into()), Sym::N("Expr".into()), Sym::N("Expr".into())],
            );
        let g = ComposedGrammar::compose(&expr_host(), &[&ext]).unwrap();
        let snapshot = || {
            let t = lalr::build(&g);
            let states = 0..t.num_states as u32;
            let actions: Vec<Action> = states
                .clone()
                .flat_map(|s| (0..g.num_terminals() as u16).map(move |x| (s, x)))
                .map(|(s, x)| t.action(s, x))
                .collect();
            let gotos: Vec<Option<u32>> = states
                .flat_map(|s| (0..g.num_nonterminals() as u16).map(move |n| (s, n)))
                .map(|(s, n)| t.goto(s, n))
                .collect();
            (t.conflicts, actions, gotos)
        };
        let first = snapshot();
        assert!(first.0.len() > 1, "{:?}", first.0);
        let position: Vec<(u32, u16)> = first
            .0
            .iter()
            .map(|c| (c.state, g.terminal_id(&c.terminal).unwrap()))
            .collect();
        assert!(position.is_sorted(), "conflicts out of (state, terminal) order: {position:?}");
        for _ in 1..8 {
            assert!(snapshot() == first, "two builds of one grammar differ");
        }
    }

    #[test]
    fn epsilon_productions_supported() {
        // S -> A 'x'; A -> ε | 'a' A
        let frag = GrammarFragment::new("host")
            .terminal(Terminal::new("A", "a"))
            .terminal(Terminal::new("X", "x"))
            .start("S")
            .production("s", "S", vec![Sym::N("As".into()), Sym::T("X".into())])
            .production("as_empty", "As", vec![])
            .production("as_cons", "As", vec![Sym::T("A".into()), Sym::N("As".into())]);
        let g = ComposedGrammar::compose(&frag, &[]).unwrap();
        let t = lalr::build(&g);
        assert!(t.is_lalr(), "conflicts: {:?}", t.conflicts);
        let p = Parser::new(g).unwrap();
        assert!(p.parse("aax").is_ok());
        assert!(p.parse("x").is_ok());
        assert!(p.parse("xa").is_err());
    }

    #[test]
    fn lalr_but_not_slr_grammar() {
        // Classic grammar that is LALR(1) but not SLR(1):
        // S -> L = R | R ; L -> * R | id ; R -> L
        let frag = GrammarFragment::new("host")
            .terminal(Terminal::ignored("WS", "[ \t\n]+"))
            .terminal(Terminal::new("EQ", "="))
            .terminal(Terminal::new("STAR", r"\*"))
            .terminal(Terminal::new("ID", "[a-z]+"))
            .start("S")
            .production("assign", "S", vec![Sym::N("L".into()), Sym::T("EQ".into()), Sym::N("R".into())])
            .production("rval", "S", vec![Sym::N("R".into())])
            .production("deref", "L", vec![Sym::T("STAR".into()), Sym::N("R".into())])
            .production("lid", "L", vec![Sym::T("ID".into())])
            .production("rl", "R", vec![Sym::N("L".into())]);
        let g = ComposedGrammar::compose(&frag, &[]).unwrap();
        let t = lalr::build(&g);
        assert!(t.is_lalr(), "conflicts: {:?}", t.conflicts);
        let p = Parser::new(g).unwrap();
        assert!(p.parse("*x = y").is_ok());
        assert!(p.parse("x").is_ok());
    }
}

mod parser_tests {
    use super::*;

    #[test]
    fn parses_expression_to_cst() {
        let g = ComposedGrammar::compose(&expr_host(), &[]).unwrap();
        let p = Parser::new(g).unwrap();
        let cst = p.parse("1 + 2 * x").unwrap();
        // Top node must be expr_add with * nested under the right child.
        assert_eq!(cst.prod_name(p.grammar()), Some("expr_add"));
        let rhs = &cst.children()[2];
        assert_eq!(rhs.prod_name(p.grammar()), Some("term_mul"));
    }

    #[test]
    fn precedence_via_grammar_levels() {
        let g = ComposedGrammar::compose(&expr_host(), &[]).unwrap();
        let p = Parser::new(g).unwrap();
        // (1 + 2) * 3 — parens force the add under the mul.
        let cst = p.parse("(1 + 2) * 3").unwrap();
        assert_eq!(cst.prod_name(p.grammar()), Some("expr_term"));
    }

    #[test]
    fn syntax_error_has_position_and_expectations() {
        // With a context-aware scanner, a token that is not valid in the
        // current parser state fails at *scan* time — the scanner only
        // looks for valid terminals (§VI-A). The error still carries the
        // position and the expected set.
        let g = ComposedGrammar::compose(&expr_host(), &[]).unwrap();
        let p = Parser::new(g).unwrap();
        let err = p.parse("1 + * 2").unwrap_err();
        match err {
            ParseError::Scan(e) => {
                assert_eq!((e.line, e.col), (1, 5));
                assert!(e.expected.contains(&"NUM".to_string()));
                assert!(!e.expected.contains(&"STAR".to_string()));
            }
            other => panic!("wrong error: {other:?}"),
        }
    }

    #[test]
    fn scan_error_on_garbage() {
        let g = ComposedGrammar::compose(&expr_host(), &[]).unwrap();
        let p = Parser::new(g).unwrap();
        assert!(matches!(p.parse("1 + $"), Err(ParseError::Scan(_))));
    }

    #[test]
    fn multiline_positions() {
        let g = ComposedGrammar::compose(&expr_host(), &[]).unwrap();
        let p = Parser::new(g).unwrap();
        let err = p.parse("1 +\n+ 2").unwrap_err();
        match err {
            ParseError::Scan(e) => assert_eq!((e.line, e.col), (2, 1)),
            other => panic!("wrong error: {other:?}"),
        }
    }

    #[test]
    fn static_tables_parse_what_built_tables_parse() {
        // `from_static` over copies of a built parser's arrays, leaked to
        // 'static as generated statics are: same trees, same errors.
        fn leak<T: Clone>(v: &[T]) -> &'static [T] {
            Box::leak(v.to_vec().into_boxed_slice())
        }
        let grammar = || ComposedGrammar::compose(&expr_host(), &[]).unwrap();
        let built = Parser::new(grammar()).unwrap();
        let (t, d) = (built.tables(), built.dfa());
        let copy = Parser::from_static(
            built.view().clone(),
            grammar,
            leak(&t.action),
            leak(&t.goto_nt),
            leak(&d.next),
            leak(&d.accept_ids),
            leak(&d.accept_offsets),
        );
        assert_eq!(copy.num_states(), built.num_states());
        for src in ["1 + 2 * x", "(1 + 2) * 3", "1 + * 2", "1 + $", "1 +\n+ 2"] {
            assert_eq!(copy.parse(src), built.parse(src), "{src:?}");
        }
        // The grammar behind the static tables is composed when asked for.
        assert_eq!(copy.grammar().productions.len(), built.grammar().productions.len());
        let source = built.static_source("expr_parser");
        assert!(source.starts_with(
            "pub fn expr_parser(compose: fn() -> ::cmm_grammar::ComposedGrammar) -> ::cmm_grammar::Parser {\n"
        ));
        let action = format!("static ACTION: [::cmm_grammar::Action; {}] = [", t.action.len());
        assert!(source.contains(&action), "{source}");
        assert!(source.contains("static TEXT: &str = \"expr_addexpr_term"), "{source}");
    }

    #[test]
    fn the_view_reads_the_grammar_it_was_made_from() {
        let g = ComposedGrammar::compose(&expr_host(), &[]).unwrap();
        let view = GrammarView::new(&g);
        assert_eq!(view.num_productions(), g.productions.len());
        assert_eq!(view.num_terminals(), g.num_terminals());
        assert_eq!(view.num_nonterminals(), g.num_nonterminals());
        for (p, (prod, (lhs, rhs))) in g.productions.iter().zip(&g.prods).enumerate() {
            let p = p as u32;
            assert_eq!((view.production_name(p), view.lhs(p), view.rhs_len(p)), (&*prod.name, *lhs, rhs.len()));
        }
        for (t, term) in g.terminals.iter().enumerate() {
            let t = t as u16;
            assert_eq!(view.terminal_name(t), term.name);
            assert_eq!((view.precedence(t), view.is_layout(t)), (term.precedence, term.ignore));
        }
        for (n, name) in g.nonterminals.iter().enumerate() {
            assert_eq!(view.nonterminal_name(n as u16), name);
        }
        let spellings: Vec<Option<&str>> = (0..g.num_terminals() as u16).map(|t| view.spelling(t)).collect();
        let (plus, star, lp, rp) = (Some("+"), Some("*"), Some("("), Some(")"));
        assert_eq!(spellings, [None, None, None, None, plus, star, lp, rp]);
    }

    #[test]
    #[should_panic(expected = "do not fit the grammar")]
    fn static_tables_of_another_grammar_are_refused() {
        let built = Parser::new(ComposedGrammar::compose(&expr_host(), &[]).unwrap()).unwrap();
        let (t, d) = (built.tables(), built.dfa());
        let leak = |v: &[u32]| -> &'static [u32] { Box::leak(v.to_vec().into_boxed_slice()) };
        let action: &'static [Action] = Box::leak(t.action.to_vec().into_boxed_slice());
        let ids: &'static [u16] = Box::leak(d.accept_ids.to_vec().into_boxed_slice());
        let mut other = expr_host();
        other.terminals.push(Terminal::new("MINUS", "-"));
        let other = GrammarView::new(&ComposedGrammar::compose(&other, &[]).unwrap());
        let compose = || ComposedGrammar::compose(&expr_host(), &[]).unwrap();
        Parser::from_static(other, compose, action, leak(&t.goto_nt), leak(&d.next), ids, leak(&d.accept_offsets));
    }
}

mod encoding_tests {
    use super::*;

    fn encode(f: &GrammarFragment) -> Vec<u8> {
        let mut out = Vec::new();
        f.encode(&mut out);
        out
    }

    #[test]
    fn equal_fragments_encode_alike_and_every_field_edit_shows() {
        assert_eq!(encode(&expr_host()), encode(&expr_host()));
        let edits: [fn(&mut GrammarFragment); 12] = [
            |f| f.name.push('x'),
            |f| f.terminals[1].name.push('x'),
            |f| f.terminals[1].pattern.push('x'),
            |f| f.terminals[1].precedence += 1,
            |f| f.terminals[1].ignore ^= true,
            |f| f.terminals.swap(1, 2),
            |f| f.productions[0].name.push('x'),
            |f| f.productions[0].lhs = "Term".into(),
            |f| f.productions[0].rhs[1] = Sym::N("PLUS".into()),
            |f| {
                f.productions[0].rhs.pop();
            },
            |f| f.start = None,
            // Moving a byte across a string boundary: lengths tell.
            |f| {
                f.productions[0].name = "expr_ad".into();
                f.productions[0].lhs = "dExpr".into();
            },
        ];
        let mut seen = vec![encode(&expr_host())];
        for (i, edit) in edits.iter().enumerate() {
            let mut f = expr_host();
            edit(&mut f);
            let bytes = encode(&f);
            assert!(!seen.contains(&bytes), "edit {i} encodes like an earlier fragment");
            seen.push(bytes);
        }
    }
}

mod scanner_tests {
    use super::*;

    /// Host with identifiers plus an extension adding a `with` keyword;
    /// the scanner must pick keyword vs identifier by parser context and
    /// precedence.
    #[test]
    fn keyword_vs_identifier_precedence() {
        let host = GrammarFragment::new("host")
            .terminal(Terminal::ignored("WS", "[ \t\n]+"))
            .terminal(Terminal::new("ID", "[a-zA-Z_][a-zA-Z0-9_]*"))
            .terminal(Terminal::keyword("KW_WITH", "with"))
            .start("S")
            .production("s_kw", "S", vec![Sym::T("KW_WITH".into()), Sym::T("ID".into())])
            .production("s_id", "S", vec![Sym::T("ID".into())]);
        let g = ComposedGrammar::compose(&host, &[]).unwrap();
        let p = Parser::new(g).unwrap();
        // 'with x' parses via the keyword; bare 'withx' is one identifier
        // (maximal munch), so it parses via s_id.
        assert!(p.parse("with x").is_ok());
        let cst = p.parse("withx").unwrap();
        assert_eq!(cst.prod_name(p.grammar()), Some("s_id"));
    }

    /// The same keyword text used by two fragments in different contexts:
    /// context-aware scanning resolves it, the paper's flagship scanner
    /// feature.
    #[test]
    fn context_disambiguates_overlapping_keywords() {
        // 'loop' keyword means different terminals in statement vs tail
        // position; a conventional scanner could not give both the same
        // spelling.
        let host = GrammarFragment::new("host")
            .terminal(Terminal::ignored("WS", "[ \t\n]+"))
            .terminal(Terminal::keyword("LOOP_A", "loop"))
            .terminal(Terminal::keyword("LOOP_B", "loop"))
            .terminal(Terminal::new("SEMI", ";"))
            .start("S")
            // S -> loopA ; loopB
            .production("s", "S", vec![Sym::T("LOOP_A".into()), Sym::T("SEMI".into()), Sym::T("LOOP_B".into())]);
        let g = ComposedGrammar::compose(&host, &[]).unwrap();
        let p = Parser::new(g).unwrap();
        // Both 'loop's scan correctly because only one of the two terminals
        // is valid in each parser state.
        assert!(p.parse("loop ; loop").is_ok());
    }

    #[test]
    fn maximal_munch_prefers_longest() {
        let host = GrammarFragment::new("host")
            .terminal(Terminal::new("LT", "<"))
            .terminal(Terminal::new("LE", "<="))
            .terminal(Terminal::new("NUM", "[0-9]+"))
            .start("S")
            .production("s", "S", vec![Sym::T("NUM".into()), Sym::T("LE".into()), Sym::T("NUM".into())]);
        let g = ComposedGrammar::compose(&host, &[]).unwrap();
        let p = Parser::new(g).unwrap();
        assert!(p.parse("1<=2").is_ok());
    }

    #[test]
    fn comments_are_layout() {
        let host = expr_host().terminal(Terminal::ignored("COMMENT", "//[^\n]*"));
        let g = ComposedGrammar::compose(&host, &[]).unwrap();
        let p = Parser::new(g).unwrap();
        assert!(p.parse("1 + // add\n 2").is_ok());
    }
}

mod compose_tests {
    use super::*;

    /// Extension adding `sum(Expr)` with its own marking keyword: passes.
    fn sum_ext() -> GrammarFragment {
        GrammarFragment::new("ext-sum")
            .terminal(Terminal::keyword("KW_SUM", "sum"))
            .production(
                "factor_sum",
                "Factor",
                vec![
                    Sym::T("KW_SUM".into()),
                    Sym::T("LP".into()),
                    Sym::N("Expr".into()),
                    Sym::T("RP".into()),
                ],
            )
    }

    /// Extension adding tuples `(e, e)` that *starts with the host's
    /// left-paren*: fails the analysis, exactly like the paper's tuples
    /// extension (§VI-A).
    fn tuple_ext() -> GrammarFragment {
        GrammarFragment::new("ext-tuples")
            .terminal(Terminal::new("COMMA", ","))
            .production(
                "factor_tuple",
                "Factor",
                vec![
                    Sym::T("LP".into()),
                    Sym::N("Expr".into()),
                    Sym::T("COMMA".into()),
                    Sym::N("Expr".into()),
                    Sym::T("RP".into()),
                ],
            )
    }

    #[test]
    fn marking_terminal_extension_passes() {
        let r = is_composable(&expr_host(), &sum_ext());
        assert!(r.passed, "{r}");
        assert_eq!(r.marking_terminals, vec!["KW_SUM".to_string()]);
        assert!(r.is_lalr_with_host);
    }

    #[test]
    fn host_initial_terminal_extension_fails() {
        let r = is_composable(&expr_host(), &tuple_ext());
        assert!(!r.passed);
        assert!(r.violations.iter().any(|v| v.contains("host terminal 'LP'")), "{:?}", r.violations);
    }

    #[test]
    fn compose_verified_accepts_passing_extensions() {
        let host = expr_host();
        let e1 = sum_ext();
        let e2 = GrammarFragment::new("ext-min")
            .terminal(Terminal::keyword("KW_MIN", "min"))
            .production(
                "factor_min",
                "Factor",
                vec![
                    Sym::T("KW_MIN".into()),
                    Sym::T("LP".into()),
                    Sym::N("Expr".into()),
                    Sym::T("RP".into()),
                ],
            );
        let g = compose_verified(&host, &[&e1, &e2]).unwrap();
        let p = Parser::new(g).unwrap();
        assert!(p.parse("sum(1 + min(2))").is_ok());
    }

    #[test]
    fn compose_verified_rejects_failing_extension() {
        let host = expr_host();
        let bad = tuple_ext();
        let err = match compose_verified(&host, &[&bad]) {
            Err(e) => e,
            Ok(_) => panic!("expected composition to fail"),
        };
        assert_eq!(err.len(), 1);
        assert_eq!(err[0].extension, "ext-tuples");
    }

    #[test]
    fn duplicate_terminal_names_rejected() {
        let host = expr_host();
        let ext = GrammarFragment::new("ext-dup").terminal(Terminal::new("NUM", "[0-9]+"));
        assert!(matches!(
            ComposedGrammar::compose(&host, &[&ext]),
            Err(ComposeError::DuplicateTerminal { .. })
        ));
    }

    #[test]
    fn unknown_symbol_rejected() {
        let host = expr_host().production("bad", "Expr", vec![Sym::N("Nope".into())]);
        assert!(matches!(
            ComposedGrammar::compose(&host, &[]),
            Err(ComposeError::UnknownSymbol { .. })
        ));
    }

    #[test]
    fn extension_with_start_symbol_fails() {
        let ext = GrammarFragment::new("ext-bad").start("Expr");
        let r = is_composable(&expr_host(), &ext);
        assert!(!r.passed);
    }

    #[test]
    fn two_keyword_extensions_do_not_interfere() {
        // Independent extensions both pass individually; their combination
        // is LALR per the theorem, verified explicitly here.
        let host = expr_host();
        let e1 = sum_ext();
        let e2 = GrammarFragment::new("ext-abs")
            .terminal(Terminal::keyword("KW_ABS", "abs"))
            .production(
                "factor_abs",
                "Factor",
                vec![
                    Sym::T("KW_ABS".into()),
                    Sym::T("LP".into()),
                    Sym::N("Expr".into()),
                    Sym::T("RP".into()),
                ],
            );
        assert!(is_composable(&host, &e1).passed);
        assert!(is_composable(&host, &e2).passed);
        assert!(is_lalr(&host, &[&e1, &e2]).unwrap());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn prop_parser_accepts_generated_expressions(depth in 0u32..6, seed in any::<u64>()) {
        // Generate a random well-formed expression and check it parses.
        fn gen(depth: u32, seed: &mut u64) -> String {
            *seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let pick = (*seed >> 33) % if depth == 0 { 2 } else { 5 };
            match pick {
                0 => format!("{}", (*seed >> 20) % 100),
                1 => "x".to_string(),
                2 => format!("{} + {}", gen(depth - 1, seed), gen(depth - 1, seed)),
                3 => format!("{} * {}", gen(depth - 1, seed), gen(depth - 1, seed)),
                _ => format!("({})", gen(depth - 1, seed)),
            }
        }
        let g = ComposedGrammar::compose(&expr_host(), &[]).unwrap();
        let p = Parser::new(g).unwrap();
        let mut s = seed;
        let input = gen(depth, &mut s);
        prop_assert!(p.parse(&input).is_ok(), "failed on: {input}");
    }

    #[test]
    fn prop_number_tokens_roundtrip(nums in proptest::collection::vec(0u32..10_000, 1..10)) {
        let src = nums.iter().map(|n| n.to_string()).collect::<Vec<_>>().join(" + ");
        let g = ComposedGrammar::compose(&expr_host(), &[]).unwrap();
        let p = Parser::new(g).unwrap();
        prop_assert!(p.parse(&src).is_ok());
    }
}
