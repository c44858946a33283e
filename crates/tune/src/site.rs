//! Tunable-site discovery and AST-level directive application.
//!
//! A *site* is a statement whose right-hand side is a matrix-producing
//! with-loop — the loop nests the `[ext-transform]` directives address.
//! Two statement shapes qualify:
//!
//! * `m = with (...) genarray/modarray(...);` — directives attach to
//!   assignments, so candidates simply replace the transform list;
//! * `Matrix T <r> m = with (...) genarray(...);` — declarations carry
//!   no directives, so applying a non-empty candidate rewrites the
//!   statement to `Matrix T <r> m = init(...); m = with (...) ...;`
//!   (the same desugaring the fuzz generator uses), which is an
//!   AST-level change, never text patching.
//!
//! Discovery and application walk the program in the same order, so a
//! site's ordinal is a stable address across candidate builds.

use cmm_ast::{Block, Expr, LValue, Program, Span, Stmt, TransformSpec, Type, WithOp};

/// A tunable loop nest.
#[derive(Debug, Clone)]
pub struct Site {
    /// Discovery ordinal — the site's address for [`apply`].
    pub id: usize,
    /// Enclosing function name.
    pub function: String,
    /// Assigned (or declared) variable name.
    pub target: String,
    /// Generator index names, outermost first; the names directives
    /// address the loops by.
    pub indices: Vec<String>,
    /// Directives currently on the site (empty for declarations).
    pub baseline: Vec<TransformSpec>,
}

/// Whether a statement is a tunable site, and the pieces needed to
/// describe it. Declarations qualify only with a `genarray` initializer
/// (a `modarray` result's shape is the source matrix's, so there is no
/// shape expression to seed the `init` rewrite with).
fn as_site(stmt: &Stmt) -> Option<(String, Vec<String>, Vec<TransformSpec>)> {
    match stmt {
        Stmt::Assign {
            target: LValue::Var(name, _),
            value: Expr::With { generator, op: WithOp::Genarray { .. } | WithOp::Modarray { .. }, .. },
            transforms,
            ..
        } => Some((name.clone(), generator.vars.clone(), transforms.clone())),
        Stmt::Decl {
            ty: Type::Matrix(..),
            name,
            init: Some(Expr::With { generator, op: WithOp::Genarray { .. }, .. }),
            ..
        } => Some((name.clone(), generator.vars.clone(), Vec::new())),
        _ => None,
    }
}

fn walk_block(func: &str, block: &Block, next_id: &mut usize, out: &mut Vec<Site>) {
    for stmt in &block.stmts {
        if let Some((target, indices, baseline)) = as_site(stmt) {
            out.push(Site {
                id: *next_id,
                function: func.to_string(),
                target,
                indices,
                baseline,
            });
            *next_id += 1;
        }
        match stmt {
            Stmt::If { then_blk, else_blk, .. } => {
                walk_block(func, then_blk, next_id, out);
                if let Some(e) = else_blk {
                    walk_block(func, e, next_id, out);
                }
            }
            Stmt::While { body, .. } | Stmt::For { body, .. } => {
                walk_block(func, body, next_id, out)
            }
            Stmt::Nested(b) => walk_block(func, b, next_id, out),
            _ => {}
        }
    }
}

/// All tunable sites of `prog`, in a deterministic walk order
/// (functions in definition order, statements top-down, nested blocks
/// depth-first).
pub fn discover(prog: &Program) -> Vec<Site> {
    let mut out = Vec::new();
    let mut next_id = 0usize;
    for f in &prog.functions {
        walk_block(&f.name, &f.body, &mut next_id, &mut out);
    }
    out
}

/// Rewrite one site statement to carry `transforms`. Returns the
/// replacement statements (one for assignments, two for the
/// declaration desugaring, the original for an empty list on a decl).
fn rewrite(stmt: &Stmt, transforms: &[TransformSpec]) -> Vec<Stmt> {
    match stmt {
        Stmt::Assign { target, value, span, .. } => vec![Stmt::Assign {
            target: target.clone(),
            value: value.clone(),
            transforms: transforms.to_vec(),
            span: *span,
        }],
        Stmt::Decl { ty, name, init: Some(with @ Expr::With { op, .. }), span } => {
            if transforms.is_empty() {
                return vec![stmt.clone()];
            }
            let WithOp::Genarray { shape, .. } = op else {
                return vec![stmt.clone()];
            };
            vec![
                Stmt::Decl {
                    ty: ty.clone(),
                    name: name.clone(),
                    init: Some(Expr::Init {
                        ty: ty.clone(),
                        dims: shape.clone(),
                        span: *span,
                    }),
                    span: *span,
                },
                Stmt::Assign {
                    target: LValue::Var(name.clone(), Span::SYNTH),
                    value: with.clone(),
                    transforms: transforms.to_vec(),
                    span: *span,
                },
            ]
        }
        _ => vec![stmt.clone()],
    }
}

fn apply_block(
    block: &Block,
    changes: &[(usize, Vec<TransformSpec>)],
    next_id: &mut usize,
) -> Block {
    let mut stmts = Vec::with_capacity(block.stmts.len());
    for stmt in &block.stmts {
        let mut replaced = false;
        if as_site(stmt).is_some() {
            let id = *next_id;
            *next_id += 1;
            if let Some((_, ts)) = changes.iter().find(|(cid, _)| *cid == id) {
                stmts.extend(rewrite(stmt, ts));
                replaced = true;
            }
        }
        if replaced {
            continue;
        }
        let stmt = match stmt {
            Stmt::If { cond, then_blk, else_blk, span } => Stmt::If {
                cond: cond.clone(),
                then_blk: apply_block(then_blk, changes, next_id),
                else_blk: else_blk.as_ref().map(|e| apply_block(e, changes, next_id)),
                span: *span,
            },
            Stmt::While { cond, body, span } => Stmt::While {
                cond: cond.clone(),
                body: apply_block(body, changes, next_id),
                span: *span,
            },
            Stmt::For { init, cond, step, body, span } => Stmt::For {
                init: init.clone(),
                cond: cond.clone(),
                step: step.clone(),
                body: apply_block(body, changes, next_id),
                span: *span,
            },
            Stmt::Nested(b) => Stmt::Nested(apply_block(b, changes, next_id)),
            other => other.clone(),
        };
        stmts.push(stmt);
    }
    Block { stmts }
}

/// Return a copy of `prog` with each `(site id, directive list)` change
/// applied. Site ids are [`discover`] ordinals; unknown ids are ignored.
pub fn apply(prog: &Program, changes: &[(usize, Vec<TransformSpec>)]) -> Program {
    let mut out = prog.clone();
    let mut next_id = 0usize;
    for f in &mut out.functions {
        f.body = apply_block(&f.body, changes, &mut next_id);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmm_ast::ScheduleKind;

    const SRC: &str = r#"
int main() {
    int m = 8;
    int n = 6;
    Matrix float <2> grid = with ([0, 0] <= [i, j] < [m, n])
        genarray([m, n], toFloat(i + j));
    float total = with ([0] <= [i] < [m]) fold(+, 0.0, grid[i, 0]);
    printFloat(total);
    return 0;
}
"#;

    fn parse(src: &str) -> Program {
        let reg = cmm_core::Registry::standard();
        let c = reg
            .compiler(&cmm_core::ALL_EXTENSIONS)
            .expect("compose");
        c.frontend(src).expect("frontend")
    }

    #[test]
    fn discovers_genarray_decl_but_not_fold() {
        let prog = parse(SRC);
        let sites = discover(&prog);
        assert_eq!(sites.len(), 1);
        assert_eq!(sites[0].target, "grid");
        assert_eq!(sites[0].indices, vec!["i", "j"]);
        assert!(sites[0].baseline.is_empty());
    }

    #[test]
    fn apply_desugars_decl_and_roundtrips() {
        let prog = parse(SRC);
        let ts = vec![cmm_ast::TransformSpec::Schedule {
            index: "i".into(),
            kind: ScheduleKind::Dynamic,
            chunk: Some(2),
        }];
        let tuned = apply(&prog, &[(0, ts)]);
        let printed = cmm_ast::display::print_program(&tuned);
        assert!(printed.contains("init("), "decl not desugared:\n{printed}");
        assert!(printed.contains("schedule i dynamic, 2"), "directive missing:\n{printed}");
        // The rewritten program still compiles and agrees with the original.
        let reg = cmm_core::Registry::standard();
        let c = reg
            .compiler(&cmm_core::ALL_EXTENSIONS)
            .expect("compose");
        let base = c.run(SRC, 2).expect("base run");
        let tuned_run = c.run(&printed, 2).expect("tuned run");
        assert_eq!(base.output, tuned_run.output);
        assert_eq!(tuned_run.leaked, 0);
    }

    #[test]
    fn unknown_ids_are_ignored() {
        let prog = parse(SRC);
        let tuned = apply(&prog, &[(99, Vec::new())]);
        assert_eq!(
            cmm_ast::display::print_program(&tuned),
            cmm_ast::display::print_program(&prog)
        );
    }
}
