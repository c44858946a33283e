//! The Cilk-style parallelism extension — the paper's §VIII future work,
//! implemented: "we are also developing a extension that adds Cilk style
//! parallelism constructs to C. The goal is to determine how
//! sophisticated run-times, like in Cilk, can be delivered as a pluggable
//! language extension."
//!
//! Surface syntax:
//!
//! ```text
//! spawn x = f(a, b);   // spawn the call; x receives the result at sync
//! spawn g(c);           // void spawn
//! sync;                 // wait for all outstanding spawns
//! ```
//!
//! Both statements begin with extension-owned marking terminals (`spawn`,
//! `sync`), so — answering the paper's question affirmatively — the Cilk
//! extension **passes the modular determinism analysis** and composes as
//! an independent unit.
//!
//! **Runtime model.** Arguments are evaluated at the spawn point (as in
//! Cilk); the calls themselves are deferred and executed concurrently on
//! the persistent fork-join pool at the next `sync` (functions sync
//! implicitly before returning, as in Cilk). The batch is distributed
//! through the pool's per-worker work-stealing deques, so a `sync`
//! reached *inside* a parallel region (a spawned function that itself
//! spawns) pushes its children onto the current worker's deque and they
//! run in parallel — nested spawn no longer degrades to a sequential
//! drain. This batch-at-sync schedule is a legal schedule of the
//! corresponding Cilk program; programs whose spawned children race with
//! the continuation are indeterminate in Cilk too. Emitted C uses the
//! *serial elision* (each spawn becomes a plain call), Cilk's defining
//! property.

use cmm_grammar::{GrammarFragment, Sym, Terminal};

/// Fragment name.
pub const NAME: &str = "ext-cilk";

fn t(n: &str) -> Sym {
    Sym::T(n.to_string())
}
fn n(s: &str) -> Sym {
    Sym::N(s.to_string())
}

/// The concrete-syntax fragment of the Cilk extension.
pub fn grammar() -> GrammarFragment {
    GrammarFragment::new(NAME)
        .terminal(Terminal::keyword("KW_SPAWN", "spawn"))
        .terminal(Terminal::keyword("KW_SYNC", "sync"))
        // spawn x = f(args);
        .production(
            "stmt_spawn_assign",
            "Stmt",
            vec![
                t("KW_SPAWN"),
                n("Expr"),
                t("ASSIGN"),
                n("Expr"),
                t("SEMI"),
            ],
        )
        // spawn f(args);
        .production(
            "stmt_spawn_call",
            "Stmt",
            vec![t("KW_SPAWN"), n("Expr"), t("SEMI")],
        )
        // sync;
        .production("stmt_sync", "Stmt", vec![t("KW_SYNC"), t("SEMI")])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn statements_start_with_marking_terminals() {
        let g = grammar();
        let own: Vec<&str> = g.terminals.iter().map(|t| t.name.as_str()).collect();
        assert_eq!(own, vec!["KW_SPAWN", "KW_SYNC"]);
        for p in &g.productions {
            let Sym::T(first) = &p.rhs[0] else {
                panic!("{} must start with a terminal", p.name);
            };
            assert!(own.contains(&first.as_str()), "{}", p.name);
        }
    }
}
