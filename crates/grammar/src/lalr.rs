//! LALR(1) table construction.
//!
//! The composed grammar is required to be LALR(1), "the class of
//! deterministic (and thus unambiguous) grammars" the paper builds on
//! (§VI-A). Tables are built the classical way — the LR(0) automaton,
//! then lookaheads by spontaneous generation and propagation over kernel
//! items (Dragon Book Alg. 4.63) — on dense structures:
//!
//! * symbols are one id space (terminals, then nonterminals), a state's
//!   successors are a vector sorted by symbol id, and states are numbered
//!   breadth-first in that order, so the tables and every diagnostic that
//!   names a state are the same in every process;
//! * the LR(1) closure that discovers lookaheads is computed once per
//!   *nonterminal after the dot* ([`Reach`]), not once per kernel item:
//!   what an item `[A → α · B β]` hands to the productions reachable from
//!   `B` depends on the item only through `FIRST(β)` and its own
//!   lookaheads, which are substituted in afterwards. The same memo
//!   answers the ε-reductions at table-fill time;
//! * lookahead sets are rows of one bit matrix ([`BitRows`]).
//!
//! Composing the full language (116 productions, 73 terminals, 281
//! states) from scratch is one of these builds plus one per independently
//! composable extension — since `cmm-core`'s build script does it, at
//! build time; EXPERIMENTS.md E-C1 and E-S1 have the timings.

use std::borrow::Cow;
use std::collections::HashMap;

use crate::grammar::{ComposedGrammar, GSym, EOF};

/// One parse action.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// No action: syntax error.
    Error,
    /// Shift and go to state.
    Shift(u32),
    /// Reduce by production index.
    Reduce(u32),
    /// Accept the input.
    Accept,
}

/// A shift/reduce or reduce/reduce conflict, reported with production
/// names so extension authors can diagnose composition failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Conflict {
    /// State where the conflict occurs.
    pub state: u32,
    /// Terminal on which the actions clash.
    pub terminal: String,
    /// Human-readable description of the two actions.
    pub description: String,
}

/// LALR(1) parse tables: owned when [`build`] made them, borrowed when
/// they are `static`s written by [`crate::Parser::static_source`], read
/// the same way either way.
pub struct Tables {
    /// `action[state * num_terminals + terminal]`.
    pub(crate) action: Cow<'static, [Action]>,
    /// `goto_nt[state * num_nonterminals + nt]` = target state or u32::MAX.
    pub(crate) goto_nt: Cow<'static, [u32]>,
    pub(crate) num_terminals: usize,
    pub(crate) num_nonterminals: usize,
    /// Conflicts found during construction; non-empty means the composed
    /// grammar is not LALR(1).
    pub conflicts: Vec<Conflict>,
    /// Number of LR(0)/LALR states.
    pub num_states: usize,
}

impl Tables {
    /// Look up the action for `(state, terminal)`.
    #[inline]
    pub fn action(&self, state: u32, terminal: u16) -> Action {
        self.action[state as usize * self.num_terminals + terminal as usize]
    }

    /// Look up the goto for `(state, nonterminal)`.
    #[inline]
    pub fn goto(&self, state: u32, nt: u16) -> Option<u32> {
        let g = self.goto_nt[state as usize * self.num_nonterminals + nt as usize];
        (g != u32::MAX).then_some(g)
    }

    /// Terminals with a non-error action in `state` — the context the
    /// scanner uses to disambiguate overlapping terminals (§VI-A).
    pub fn valid_terminals(&self, state: u32) -> Vec<u16> {
        let row = &self.action
            [state as usize * self.num_terminals..(state as usize + 1) * self.num_terminals];
        row.iter()
            .enumerate()
            .filter(|(_, a)| !matches!(a, Action::Error))
            .map(|(t, _)| t as u16)
            .collect()
    }

    /// Whether the grammar is LALR(1) (no conflicts).
    pub fn is_lalr(&self) -> bool {
        self.conflicts.is_empty()
    }
}

/// Rows of bits in one allocation: FIRST sets per nonterminal, lookahead
/// sets per kernel item.
struct BitRows {
    words: usize,
    bits: Vec<u64>,
}

impl BitRows {
    fn new(rows: usize, width: usize) -> Self {
        let words = width.div_ceil(64).max(1);
        BitRows {
            words,
            bits: vec![0; rows * words],
        }
    }

    fn push_row(&mut self) -> usize {
        self.bits.resize(self.bits.len() + self.words, 0);
        self.bits.len() / self.words - 1
    }

    #[inline]
    fn row(&self, r: usize) -> &[u64] {
        &self.bits[r * self.words..(r + 1) * self.words]
    }

    #[inline]
    fn insert(&mut self, r: usize, bit: usize) -> bool {
        let w = &mut self.bits[r * self.words + bit / 64];
        let m = 1u64 << (bit % 64);
        let added = *w & m == 0;
        *w |= m;
        added
    }

    /// `row[dst] |= src`; whether `row[dst]` grew.
    #[inline]
    fn union_with(&mut self, dst: usize, src: &[u64]) -> bool {
        let mut changed = false;
        for (a, b) in self.bits[dst * self.words..].iter_mut().zip(src) {
            changed |= *b & !*a != 0;
            *a |= *b;
        }
        changed
    }

    /// `row[dst] |= row[src]`; whether `row[dst]` grew.
    #[inline]
    fn union_rows(&mut self, dst: usize, src: usize) -> bool {
        let mut changed = false;
        for w in 0..self.words {
            let b = self.bits[src * self.words + w];
            let a = &mut self.bits[dst * self.words + w];
            changed |= b & !*a != 0;
            *a |= b;
        }
        changed
    }
}

/// `dst |= src`.
#[inline]
fn union_into(dst: &mut [u64], src: &[u64]) {
    for (a, b) in dst.iter_mut().zip(src) {
        *a |= *b;
    }
}

/// Set bits of a row, ascending.
fn bits(row: &[u64]) -> impl Iterator<Item = usize> + '_ {
    row.iter().enumerate().flat_map(|(wi, &w)| {
        std::iter::successors((w != 0).then_some(w), |&rest| {
            let rest = rest & (rest - 1);
            (rest != 0).then_some(rest)
        })
        .map(move |rest| wi * 64 + rest.trailing_zeros() as usize)
    })
}

/// Packed LR item: production index in the high bits, dot position low.
type Item = u32;

#[inline]
fn item(prod: usize, dot: usize) -> Item {
    (prod as u32) << 8 | dot as u32
}
#[inline]
fn item_prod(i: Item) -> usize {
    (i >> 8) as usize
}
#[inline]
fn item_dot(i: Item) -> usize {
    (i & 0xff) as usize
}

/// The grammar as the builder reads it: the augmented production
/// `S' → S` appended (index `aug_prod`), productions grouped by
/// left-hand side, FIRST sets and nullability.
struct Dense<'a> {
    grammar: &'a ComposedGrammar,
    aug_prod: usize,
    aug_rhs: [GSym; 1],
    prods_of: Vec<Vec<usize>>,
    nullable: Vec<bool>,
    /// FIRST set of each nonterminal (bits = terminal ids).
    first: BitRows,
}

impl<'a> Dense<'a> {
    fn new(grammar: &'a ComposedGrammar) -> Self {
        let nt_count = grammar.num_nonterminals();
        let mut prods_of: Vec<Vec<usize>> = vec![Vec::new(); nt_count];
        for (i, (lhs, _)) in grammar.prods.iter().enumerate() {
            prods_of[*lhs as usize].push(i);
        }
        let mut nullable = vec![false; nt_count];
        let mut first = BitRows::new(nt_count, grammar.num_terminals());
        loop {
            let mut changed = false;
            for (lhs, rhs) in &grammar.prods {
                let l = *lhs as usize;
                let mut all_nullable = true;
                for sym in rhs {
                    match *sym {
                        GSym::T(t) => {
                            changed |= first.insert(l, t as usize);
                            all_nullable = false;
                        }
                        GSym::N(n) => {
                            changed |= first.union_rows(l, n as usize);
                            all_nullable = nullable[n as usize];
                        }
                    }
                    if !all_nullable {
                        break;
                    }
                }
                if all_nullable && !nullable[l] {
                    nullable[l] = true;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        Dense {
            grammar,
            aug_prod: grammar.prods.len(),
            aug_rhs: [GSym::N(grammar.start)],
            prods_of,
            nullable,
            first,
        }
    }

    fn rhs(&self, p: usize) -> &[GSym] {
        if p == self.aug_prod {
            &self.aug_rhs
        } else {
            &self.grammar.prods[p].1
        }
    }

    /// Symbol after the dot of `it`, if any.
    fn after_dot(&self, it: Item) -> Option<GSym> {
        self.rhs(item_prod(it)).get(item_dot(it)).copied()
    }

    /// One id space for transitions: terminals, then nonterminals.
    fn sym_id(&self, sym: GSym) -> u32 {
        match sym {
            GSym::T(t) => t as u32,
            GSym::N(n) => (self.grammar.num_terminals() + n as usize) as u32,
        }
    }

    /// `out = FIRST(β)` for `it = [A → α · X β]`; whether `β` can derive
    /// the empty string.
    fn first_beyond(&self, it: Item, out: &mut [u64]) -> bool {
        out.fill(0);
        self.first_of_seq(&self.rhs(item_prod(it))[item_dot(it) + 1..], out)
    }

    /// `out |= FIRST(seq)`; whether `seq` can derive the empty string.
    fn first_of_seq(&self, seq: &[GSym], out: &mut [u64]) -> bool {
        for sym in seq {
            match *sym {
                GSym::T(t) => {
                    out[t as usize / 64] |= 1 << (t % 64);
                    return false;
                }
                GSym::N(n) => {
                    union_into(out, self.first.row(n as usize));
                    if !self.nullable[n as usize] {
                        return false;
                    }
                }
            }
        }
        true
    }
}

/// The LR(1) closure of `[… · B …, #]` for one nonterminal `B`, `#` a
/// probe lookahead standing for whatever follows `B` in the item: for
/// each nonterminal `C` whose productions the closure adds, the terminals
/// that closure gives them outright (`la`) and whether `#` reaches them
/// (`through`). An item `[A → α · B β, L]` then hands `C`'s productions
/// `la(C)`, plus `FIRST(β)` — and `L`, if `β` is nullable — when `#` got
/// through.
struct Reach {
    /// Nonterminals reachable from `B` at the left edge, `B` first.
    nts: Vec<u16>,
    /// Row `i` = `la(nts[i])`.
    la: BitRows,
    through: Vec<bool>,
    /// `(i, p)`: ε-production `p` of `nts[i]` — the only complete items
    /// a closure contributes.
    epsilons: Vec<(usize, usize)>,
}

impl Reach {
    fn of(g: &Dense, b: u16, row_of: &mut [usize], scratch: &mut [u64]) -> Reach {
        const UNSEEN: usize = usize::MAX;
        let mut r = Reach {
            nts: vec![b],
            la: BitRows::new(1, g.grammar.num_terminals()),
            through: vec![true],
            epsilons: Vec::new(),
        };
        row_of[b as usize] = 0;
        let mut stack = vec![0usize];
        while let Some(ci) = stack.pop() {
            for &p in &g.prods_of[r.nts[ci] as usize] {
                let rhs = g.rhs(p);
                let Some(GSym::N(d)) = rhs.first().copied() else {
                    continue;
                };
                // What [C → · D δ, la(C)] hands to D: FIRST(δ la(C)).
                scratch.fill(0);
                let tail_nullable = g.first_of_seq(&rhs[1..], scratch);
                let through = tail_nullable && r.through[ci];
                if tail_nullable {
                    union_into(scratch, r.la.row(ci));
                }
                let mut di = row_of[d as usize];
                let new = di == UNSEEN;
                if new {
                    di = r.la.push_row();
                    row_of[d as usize] = di;
                    r.nts.push(d);
                    r.through.push(false);
                }
                let grew = r.la.union_with(di, scratch) | (through && !r.through[di]);
                r.through[di] |= through;
                if new || grew {
                    stack.push(di);
                }
            }
        }
        for (i, &c) in r.nts.iter().enumerate() {
            row_of[c as usize] = UNSEEN;
            for &p in &g.prods_of[c as usize] {
                if g.rhs(p).is_empty() {
                    r.epsilons.push((i, p));
                }
            }
        }
        r
    }
}

/// The LR(0) automaton: kernels, and per state the successors sorted by
/// symbol id.
struct Lr0 {
    kernels: Vec<Vec<Item>>,
    /// `(symbol id, target state)`, ascending by symbol id.
    transitions: Vec<Vec<(u32, u32)>>,
    /// `kernel_base[s] + i` numbers kernel item `i` of state `s` across
    /// the automaton (row index of its lookahead set).
    kernel_base: Vec<usize>,
}

impl Lr0 {
    fn build(g: &Dense, reach: &[Reach]) -> Lr0 {
        let start_kernel = vec![item(g.aug_prod, 0)];
        let mut kernels: Vec<Vec<Item>> = vec![start_kernel.clone()];
        // Interning only: looked up by key, never iterated, so the map's
        // per-process seed cannot reach the numbering.
        let mut state_of: HashMap<Vec<Item>, u32> = HashMap::new();
        state_of.insert(start_kernel, 0);
        let mut transitions: Vec<Vec<(u32, u32)>> = Vec::new();
        // Marks stamped with `state + 1`: which nonterminals' productions
        // this state's closure already holds.
        let mut closed = vec![0usize; g.grammar.num_nonterminals()];
        let mut advanced: Vec<(u32, Item)> = Vec::new();
        let mut s = 0usize;
        while s < kernels.len() {
            advanced.clear();
            for &it in &kernels[s] {
                let Some(sym) = g.after_dot(it) else { continue };
                advanced.push((g.sym_id(sym), it + 1));
                let GSym::N(b) = sym else { continue };
                for &c in &reach[b as usize].nts {
                    if std::mem::replace(&mut closed[c as usize], s + 1) == s + 1 {
                        continue;
                    }
                    for &p in &g.prods_of[c as usize] {
                        if let Some(&x) = g.rhs(p).first() {
                            advanced.push((g.sym_id(x), item(p, 1)));
                        }
                    }
                }
            }
            // Sorted by (symbol, item): each run of one symbol is that
            // successor's kernel, already in item order.
            advanced.sort_unstable();
            let mut out = Vec::new();
            for run in advanced.chunk_by(|a, b| a.0 == b.0) {
                let kernel: Vec<Item> = run.iter().map(|&(_, it)| it).collect();
                let target = match state_of.get(&kernel) {
                    Some(&id) => id,
                    None => {
                        let id = kernels.len() as u32;
                        state_of.insert(kernel.clone(), id);
                        kernels.push(kernel);
                        id
                    }
                };
                out.push((run[0].0, target));
            }
            transitions.push(out);
            s += 1;
        }
        let kernel_base = kernels
            .iter()
            .scan(0usize, |next, k| {
                let base = *next;
                *next += k.len();
                Some(base)
            })
            .collect();
        Lr0 {
            kernels,
            transitions,
            kernel_base,
        }
    }

    fn goto(&self, s: usize, sym: u32) -> usize {
        let row = &self.transitions[s];
        let at = row
            .binary_search_by_key(&sym, |&(sym, _)| sym)
            .expect("every symbol after a dot has a successor");
        row[at].1 as usize
    }

    /// Lookahead row of kernel item `it` of state `s`.
    fn kernel_row(&self, s: usize, it: Item) -> usize {
        let at = self.kernels[s]
            .binary_search(&it)
            .expect("an advanced item is in its successor's kernel");
        self.kernel_base[s] + at
    }

    /// For each production whose dot-0 item is in the closure of `s`: the
    /// lookahead row of its advanced item, written to `row_of_prod`
    /// (entries of other productions are stale and must not be read).
    fn closure_targets(&self, s: usize, row_of_prod: &mut [usize]) {
        for &(_, target) in &self.transitions[s] {
            let target = target as usize;
            for (i, &it) in self.kernels[target].iter().enumerate() {
                if item_dot(it) == 1 {
                    row_of_prod[item_prod(it)] = self.kernel_base[target] + i;
                }
            }
        }
    }
}

/// Build LALR(1) tables for a composed grammar.
pub fn build(grammar: &ComposedGrammar) -> Tables {
    let nt_count = grammar.num_nonterminals();
    let t_count = grammar.num_terminals();
    let g = Dense::new(grammar);
    let words = g.first.words;
    let mut scratch = vec![0u64; words];
    let mut row_of = vec![usize::MAX; nt_count];
    let reach: Vec<Reach> = (0..nt_count as u16)
        .map(|b| Reach::of(&g, b, &mut row_of, &mut scratch))
        .collect();
    let lr0 = Lr0::build(&g, &reach);
    let num_states = lr0.kernels.len();

    // --- Lookaheads: spontaneous generation, then propagation ---------
    let kernel_items = lr0.kernels.iter().map(Vec::len).sum();
    let mut la = BitRows::new(kernel_items, t_count);
    la.insert(0, EOF as usize);
    let mut propagate: Vec<(usize, usize)> = Vec::new();
    let mut row_of_prod = vec![0usize; g.aug_prod + 1];
    for (s, kernel) in lr0.kernels.iter().enumerate() {
        lr0.closure_targets(s, &mut row_of_prod);
        for (i, &kit) in kernel.iter().enumerate() {
            let from = lr0.kernel_base[s] + i;
            let Some(sym) = g.after_dot(kit) else {
                continue;
            };
            let target = lr0.goto(s, g.sym_id(sym));
            propagate.push((from, lr0.kernel_row(target, kit + 1)));
            let GSym::N(b) = sym else { continue };
            // FIRST(β) of [A → α · B β]: what the item adds wherever the
            // probe got through.
            let beta_nullable = g.first_beyond(kit, &mut scratch);
            let r = &reach[b as usize];
            for (ci, &c) in r.nts.iter().enumerate() {
                for &p in &g.prods_of[c as usize] {
                    if g.rhs(p).is_empty() {
                        continue;
                    }
                    let to = row_of_prod[p];
                    la.union_with(to, r.la.row(ci));
                    if r.through[ci] {
                        la.union_with(to, &scratch);
                        if beta_nullable {
                            propagate.push((from, to));
                        }
                    }
                }
            }
        }
    }
    loop {
        let mut changed = false;
        for &(from, to) in &propagate {
            changed |= la.union_rows(to, from);
        }
        if !changed {
            break;
        }
    }

    // --- Table construction -------------------------------------------
    let mut action = vec![Action::Error; num_states * t_count];
    let mut goto_nt = vec![u32::MAX; num_states * nt_count];
    let mut conflicts = Vec::new();
    // Reductions of the state at hand: (production, lookaheads).
    let mut reductions: Vec<(usize, Vec<u64>)> = Vec::new();
    for (s, kernel) in lr0.kernels.iter().enumerate() {
        for &(sym, target) in &lr0.transitions[s] {
            match (sym as usize).checked_sub(t_count) {
                None => action[s * t_count + sym as usize] = Action::Shift(target),
                Some(n) => goto_nt[s * nt_count + n] = target,
            }
        }
        // Complete items: kernel items with the dot at the end, and the
        // closure's ε-productions, whose lookaheads are the memo's with
        // this item's FIRST(β) and final lookaheads substituted in.
        reductions.clear();
        for (i, &kit) in kernel.iter().enumerate() {
            let own = la.row(lr0.kernel_base[s] + i);
            let b = match g.after_dot(kit) {
                None => {
                    reductions.push((item_prod(kit), own.to_vec()));
                    continue;
                }
                Some(GSym::T(_)) => continue,
                Some(GSym::N(b)) => b,
            };
            let r = &reach[b as usize];
            if r.epsilons.is_empty() {
                continue;
            }
            if g.first_beyond(kit, &mut scratch) {
                union_into(&mut scratch, own);
            }
            for &(ci, p) in &r.epsilons {
                let at = match reductions.iter().position(|(q, _)| *q == p) {
                    Some(at) => at,
                    None => {
                        reductions.push((p, vec![0; words]));
                        reductions.len() - 1
                    }
                };
                let set = &mut reductions[at].1;
                union_into(set, r.la.row(ci));
                if r.through[ci] {
                    union_into(set, &scratch);
                }
            }
        }
        // Terminal by terminal, productions ascending: conflicts come out
        // in (state, terminal) order and the lowest production keeps the
        // cell.
        reductions.sort_unstable_by_key(|(p, _)| *p);
        scratch.fill(0);
        for (_, set) in &reductions {
            union_into(&mut scratch, set);
        }
        for t in bits(&scratch) {
            for (p, set) in &reductions {
                if set[t / 64] & (1 << (t % 64)) == 0 {
                    continue;
                }
                let cell = &mut action[s * t_count + t];
                let new = if *p == g.aug_prod {
                    Action::Accept
                } else {
                    Action::Reduce(*p as u32)
                };
                match *cell {
                    Action::Error => *cell = new,
                    existing if existing == new => {}
                    existing => conflicts.push(Conflict {
                        state: s as u32,
                        terminal: grammar.terminals[t].name.clone(),
                        description: describe_conflict(grammar, existing, new, g.aug_prod),
                    }),
                }
            }
        }
    }

    Tables {
        action: action.into(),
        goto_nt: goto_nt.into(),
        num_terminals: t_count,
        num_nonterminals: nt_count,
        conflicts,
        num_states,
    }
}

fn describe_conflict(grammar: &ComposedGrammar, a: Action, b: Action, aug_prod: usize) -> String {
    let name = |act: Action| match act {
        Action::Shift(s) => format!("shift({s})"),
        Action::Reduce(p) => {
            if p as usize == aug_prod {
                "accept".to_string()
            } else {
                format!("reduce({})", grammar.productions[p as usize].name)
            }
        }
        Action::Accept => "accept".to_string(),
        Action::Error => "error".to_string(),
    };
    format!("{} vs {}", name(a), name(b))
}
