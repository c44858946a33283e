//! Stable textual snapshots of lowered IR.
//!
//! The differential harness (`cmm-fuzz`) compares a program lowered with
//! and without optimizations/transformations; when their *outputs*
//! disagree, the report needs to show what the transformation pipeline
//! actually changed. This module renders an [`IrProgram`] to a stable
//! line-oriented skeleton — loop nests with their parallel / vector /
//! schedule flags, statement kinds, expressions in debug form — plus a
//! fingerprint for cheap equality and a first-divergence diff for
//! reports. The dump is total (never fails) and deterministic for a
//! given IR, but is a diagnostic format, not a parseable one.

use crate::ir::{ForLoop, IrFunction, IrProgram, IrStmt};
use std::fmt::Write as _;

/// Render the whole program as a stable line-oriented skeleton.
pub fn dump(prog: &IrProgram) -> String {
    let mut out = String::new();
    for f in &prog.functions {
        dump_function(f, &mut out);
    }
    out
}

fn dump_function(f: &IrFunction, out: &mut String) {
    let params: Vec<String> = f.params.iter().map(|(n, t)| format!("{t:?} {n}")).collect();
    let ret = match &f.ret_tuple {
        Some(tys) => format!("{tys:?}"),
        None => format!("{:?}", f.ret),
    };
    let _ = writeln!(out, "fn {}({}) -> {}", f.name, params.join(", "), ret);
    dump_body(&f.body, 1, out);
}

fn dump_body(body: &[IrStmt], depth: usize, out: &mut String) {
    for s in body {
        dump_stmt(s, depth, out);
    }
}

fn pad(depth: usize, out: &mut String) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn loop_header(f: &ForLoop) -> String {
    let mut flags = String::new();
    if f.parallel {
        flags.push_str(" [parallel]");
    }
    if f.vector {
        flags.push_str(" [vector]");
    }
    if let Some(s) = f.schedule {
        let _ = write!(flags, " [schedule {s:?}]");
    }
    format!("for {} in {:?} .. {:?}{}", f.var, f.lo, f.hi, flags)
}

fn dump_stmt(s: &IrStmt, depth: usize, out: &mut String) {
    if !matches!(s, IrStmt::Kernel { .. }) {
        pad(depth, out);
    }
    match s {
        IrStmt::Decl { ty, name, init } => {
            let _ = match init {
                Some(e) => writeln!(out, "decl {ty:?} {name} = {e:?}"),
                None => writeln!(out, "decl {ty:?} {name}"),
            };
        }
        IrStmt::Assign { name, value } => {
            let _ = writeln!(out, "assign {name} = {value:?}");
        }
        IrStmt::Store { elem, buf, idx, value } => {
            let _ = writeln!(out, "store[{elem:?}] {buf:?}[{idx:?}] = {value:?}");
        }
        IrStmt::For(f) => {
            let _ = writeln!(out, "{}", loop_header(f));
            dump_body(&f.body, depth + 1, out);
        }
        IrStmt::While { cond, body } => {
            let _ = writeln!(out, "while {cond:?}");
            dump_body(body, depth + 1, out);
        }
        IrStmt::If { cond, then_b, else_b } => {
            let _ = writeln!(out, "if {cond:?}");
            dump_body(then_b, depth + 1, out);
            if !else_b.is_empty() {
                pad(depth, out);
                out.push_str("else\n");
                dump_body(else_b, depth + 1, out);
            }
        }
        IrStmt::Expr(e) => {
            let _ = writeln!(out, "expr {e:?}");
        }
        IrStmt::Return(e) => {
            let _ = match e {
                Some(e) => writeln!(out, "return {e:?}"),
                None => writeln!(out, "return"),
            };
        }
        IrStmt::Spawn { target, target_is_buf, func, args } => {
            let _ = writeln!(
                out,
                "spawn {target:?} (buf={target_is_buf}) = {func}({args:?})"
            );
        }
        IrStmt::Sync => out.push_str("sync\n"),
        IrStmt::UnpackCall { targets, call } => {
            let _ = writeln!(out, "unpack {targets:?} = {call:?}");
        }
        IrStmt::Comment(c) => {
            let _ = writeln!(out, "# {c}");
        }
        IrStmt::Block(b) => {
            out.push_str("block\n");
            dump_body(b, depth + 1, out);
        }
        // A kernel op is its scalar nest, in place.
        IrStmt::Kernel { fallback, .. } => {
            for s in fallback {
                dump_stmt(s, depth, out);
            }
        }
    }
}

/// FNV-1a fingerprint of the dump: cheap equality check for "did the
/// pipeline change anything".
pub fn fingerprint(prog: &IrProgram) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for b in dump(prog).bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Line diff of the two programs' dumps: `None` when identical,
/// otherwise a report of the first divergence with one line of context
/// on each side. Enough for fuzz reports; not a full edit script.
pub fn diff(a: &IrProgram, b: &IrProgram) -> Option<String> {
    let da = dump(a);
    let db = dump(b);
    if da == db {
        return None;
    }
    let la: Vec<&str> = da.lines().collect();
    let lb: Vec<&str> = db.lines().collect();
    let first = la
        .iter()
        .zip(lb.iter())
        .position(|(x, y)| x != y)
        .unwrap_or(la.len().min(lb.len()));
    let mut out = format!(
        "IR diverges at line {} ({} vs {} lines)\n",
        first + 1,
        la.len(),
        lb.len()
    );
    let lo = first.saturating_sub(1);
    for side in [("a", &la), ("b", &lb)] {
        let (tag, lines) = side;
        for (i, line) in lines.iter().enumerate().skip(lo).take(3) {
            let _ = writeln!(out, "  {tag}:{:>4} | {line}", i + 1);
        }
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{CType, IrExpr, IrFunction, IrProgram, IrStmt};

    fn prog_with_loop(parallel: bool) -> IrProgram {
        IrProgram {
            functions: vec![IrFunction {
                name: "main".into(),
                params: vec![],
                ret: CType::Int,
                ret_tuple: None,
                body: vec![IrStmt::For(crate::ir::ForLoop {
                    var: "i".into(),
                    lo: IrExpr::Int(0),
                    hi: IrExpr::Int(8),
                    body: vec![IrStmt::Expr(IrExpr::Int(1))],
                    parallel,
                    vector: false,
                    schedule: None,
                })],
            }],
        }
    }

    #[test]
    fn dump_is_deterministic_and_shows_flags() {
        let p = prog_with_loop(true);
        let d = dump(&p);
        assert_eq!(d, dump(&p));
        assert!(d.contains("[parallel]"), "{d}");
        assert!(!dump(&prog_with_loop(false)).contains("[parallel]"));
    }

    #[test]
    fn fingerprint_tracks_dump_equality() {
        let a = prog_with_loop(true);
        let b = prog_with_loop(false);
        assert_eq!(fingerprint(&a), fingerprint(&a.clone()));
        assert_ne!(fingerprint(&a), fingerprint(&b));
    }

    #[test]
    fn diff_reports_first_divergence() {
        let a = prog_with_loop(true);
        assert!(diff(&a, &a).is_none());
        let d = diff(&a, &prog_with_loop(false)).expect("programs differ");
        assert!(d.contains("diverges at line 2"), "{d}");
    }
}
