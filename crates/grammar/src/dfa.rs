//! Subset construction: one DFA recognizing every terminal of the
//! composed language at once.
//!
//! Each DFA state records *all* terminals that accept there; the
//! context-aware scanner intersects that set with the parser state's
//! valid-terminal set at match time, which is what lets composed languages
//! reuse overlapping lexical syntax (§VI-A).

use std::borrow::Cow;
use std::collections::HashMap;

use crate::regex::{ByteSet, Nfa, Regex};

/// Sentinel for "no transition".
pub const DEAD: u32 = u32::MAX;

/// Deterministic automaton over bytes with terminal-accept sets per state.
///
/// The arrays are owned when [`Dfa::build`] made them and borrowed when
/// they are `static`s written by [`crate::Parser::static_source`]; either
/// way [`Dfa::step`] and [`Dfa::accepts`] read them the same way.
pub struct Dfa {
    /// `next[state * 256 + byte]` = target state or [`DEAD`].
    pub(crate) next: Cow<'static, [u32]>,
    /// Terminal ids accepting in each state, state after state (each run
    /// sorted).
    pub(crate) accept_ids: Cow<'static, [u16]>,
    /// State `s` accepts `accept_ids[accept_offsets[s]..accept_offsets[s + 1]]`.
    pub(crate) accept_offsets: Cow<'static, [u32]>,
}

impl Dfa {
    /// Build the combined DFA for `terminals` (id = index).
    ///
    /// Subset construction runs over *byte classes*, not bytes: two bytes
    /// that belong to exactly the same [`ByteSet`]s of the NFA move every
    /// subset to the same target, so one probe per class decides all of
    /// them (the full language has a few dozen classes). Rows are expanded
    /// back to 256 entries at the end, so [`Dfa::step`] stays one load.
    pub fn build(terminals: &[Regex]) -> Dfa {
        const NONE: u16 = u16::MAX;
        let mut nfa = Nfa::default();
        let mut starts = Vec::new();
        let mut accepting = Vec::new(); // (NFA accept state, terminal id)
        for (tid, re) in terminals.iter().enumerate() {
            let (s, a) = nfa.compile(re);
            starts.push(s as u32);
            accepting.push((a, tid as u16));
        }
        let mut accept_of = vec![NONE; nfa.epsilon.len()];
        for (a, tid) in accepting {
            accept_of[a] = tid;
        }

        // Distinct byte sets; the classes they induce, numbered by their
        // lowest byte; and for each set the classes it is the union of.
        let mut sets: Vec<ByteSet> = nfa
            .transitions
            .iter()
            .flatten()
            .map(|(set, _)| *set)
            .collect();
        sets.sort_unstable();
        sets.dedup();
        let mut class_of = [0u16; 256];
        let mut classes = 1usize;
        for set in &sets {
            // Split every class the set cuts: members move to a new class.
            let mut moved = vec![NONE; classes];
            for b in set.iter() {
                let c = class_of[b as usize] as usize;
                if moved[c] == NONE {
                    moved[c] = classes as u16;
                    classes += 1;
                }
                class_of[b as usize] = moved[c];
            }
        }
        // A class whose every member moved is left empty: renumber densely.
        let mut dense = vec![NONE; classes];
        let mut representative: Vec<u8> = Vec::new();
        for b in 0..=255u8 {
            let c = &mut dense[class_of[b as usize] as usize];
            if *c == NONE {
                *c = representative.len() as u16;
                representative.push(b);
            }
            class_of[b as usize] = *c;
        }
        let classes = representative.len();
        let classes_of_set: Vec<Vec<u16>> = sets
            .iter()
            .map(|set| {
                (0..classes as u16)
                    .filter(|&c| set.contains(representative[c as usize]))
                    .collect()
            })
            .collect();
        // Byte edges as (set index, target), per NFA state.
        let edges: Vec<Vec<(u32, u32)>> = nfa
            .transitions
            .iter()
            .map(|out| {
                out.iter()
                    .map(|(set, t)| {
                        let at = sets
                            .binary_search(set)
                            .expect("every edge's set was collected");
                        (at as u32, *t as u32)
                    })
                    .collect()
            })
            .collect();

        // ε-closure of `seeds`, sorted: membership is a mark stamped with
        // the closure's serial number.
        let mut mark = vec![0u32; nfa.epsilon.len()];
        let mut serial = 0u32;
        let mut closure = |seeds: &[u32]| -> Vec<u32> {
            serial += 1;
            let mut members = Vec::with_capacity(seeds.len() * 2);
            for &s in seeds {
                if std::mem::replace(&mut mark[s as usize], serial) != serial {
                    members.push(s);
                }
            }
            let mut at = 0;
            while at < members.len() {
                for &t in &nfa.epsilon[members[at] as usize] {
                    if std::mem::replace(&mut mark[t], serial) != serial {
                        members.push(t as u32);
                    }
                }
                at += 1;
            }
            members.sort_unstable();
            members
        };

        let start_set = closure(&starts);
        let mut states: Vec<Vec<u32>> = vec![start_set.clone()];
        // Subset → state id. Looked up by key only, never iterated, so the
        // map's per-process seed cannot reach the numbering.
        let mut index = HashMap::new();
        index.insert(start_set, 0u32);
        let mut class_next: Vec<u32> = Vec::new(); // [state * classes + class]
        let mut accept_ids: Vec<u16> = Vec::new();
        let mut accept_offsets: Vec<u32> = vec![0];
        let mut moves: Vec<Vec<u32>> = vec![Vec::new(); classes];
        let mut work = 0usize;
        while work < states.len() {
            let at = accept_ids.len();
            accept_ids.extend(
                states[work]
                    .iter()
                    .map(|&s| accept_of[s as usize])
                    .filter(|&tid| tid != NONE),
            );
            accept_ids[at..].sort_unstable();
            accept_offsets.push(accept_ids.len() as u32);
            // One pass over the subset's byte edges, each target dropped
            // into the classes its set covers.
            for &s in &states[work] {
                for &(set, t) in &edges[s as usize] {
                    for &c in &classes_of_set[set as usize] {
                        moves[c as usize].push(t);
                    }
                }
            }
            // Classes ascend by lowest byte, so states are numbered in the
            // order a byte-by-byte construction would find them.
            for c in 0..classes {
                if moves[c].is_empty() {
                    class_next.push(DEAD);
                    continue;
                }
                moves[c].sort_unstable();
                moves[c].dedup();
                // Neighbouring classes mostly move to the same set (digits
                // beside letters inside an identifier): skipping their
                // closure and lookup halves the build (E-C1).
                let id = if c > 0 && moves[c] == moves[c - 1] {
                    class_next[class_next.len() - 1]
                } else {
                    let target = closure(&moves[c]);
                    match index.get(&target) {
                        Some(&id) => id,
                        None => {
                            let id = states.len() as u32;
                            index.insert(target.clone(), id);
                            states.push(target);
                            id
                        }
                    }
                };
                class_next.push(id);
            }
            moves.iter_mut().for_each(Vec::clear);
            work += 1;
        }

        let mut next = Vec::with_capacity(states.len() * 256);
        for row in class_next.chunks_exact(classes) {
            next.extend(class_of.iter().map(|&c| row[c as usize]));
        }
        Dfa {
            next: next.into(),
            accept_ids: accept_ids.into(),
            accept_offsets: accept_offsets.into(),
        }
    }

    /// Start state (always 0).
    #[inline]
    pub fn start(&self) -> u32 {
        0
    }

    /// Transition from `state` on `byte`, or [`DEAD`].
    #[inline]
    pub fn step(&self, state: u32, byte: u8) -> u32 {
        self.next[state as usize * 256 + byte as usize]
    }

    /// Terminals accepting in `state` (sorted ids).
    #[inline]
    pub fn accepts(&self, state: u32) -> &[u16] {
        let s = state as usize;
        &self.accept_ids[self.accept_offsets[s] as usize..self.accept_offsets[s + 1] as usize]
    }

    /// Number of DFA states.
    pub fn num_states(&self) -> usize {
        self.accept_offsets.len() - 1
    }
}
