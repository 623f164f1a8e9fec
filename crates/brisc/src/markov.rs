//! Order-1 semi-static Markov opcode assignment.
//!
//! §4: "To perform dictionary encoding, the compressor uses an order-1
//! semi-static Markov model so that all opcodes fit within 8 bits. …
//! the compressor builds (and the decompressor can build, based on the
//! dictionary) a table for each possible instruction pattern I that
//! enumerates the instruction patterns that can follow I. … There is a
//! special context in the Markov model for basic block beginnings … so
//! that the BRISC program remains interpretable."
//!
//! Concretely: per predecessor context (a dictionary entry, or the
//! dedicated block-start context used at every basic-block leader), the
//! successor entries observed in the program are ordered by frequency
//! and assigned bytes `0, 1, 2, …`. A context with 256 or more distinct
//! successors reserves byte 255 as an escape followed by the entry id in
//! two bytes (the paper splits over-full patterns instead; the escape is
//! operationally equivalent and simpler). The tables are transmitted in
//! the image and their size is charged to the compressed program.

use crate::BriscError;
use std::collections::HashMap;

/// The context id used at basic-block leaders.
pub const BLOCK_START: u32 = u32::MAX;

/// Escape byte used in contexts with ≥ 256 successors.
const ESCAPE: u8 = 255;

/// Per-context opcode tables.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MarkovTables {
    /// Context → successor entry ids, byte-code order (index = byte).
    contexts: HashMap<u32, Vec<u32>>,
}

impl MarkovTables {
    /// Builds tables from the observed `(context, entry)` transitions,
    /// ordering each context's successors by descending frequency
    /// (ties: smaller entry id first) so common successors get small
    /// bytes.
    pub fn build(transitions: impl IntoIterator<Item = (u32, u32)>) -> MarkovTables {
        let mut counts: HashMap<u32, HashMap<u32, u64>> = HashMap::new();
        for (ctx, entry) in transitions {
            *counts.entry(ctx).or_default().entry(entry).or_insert(0) += 1;
        }
        let mut contexts = HashMap::new();
        for (ctx, succ) in counts {
            let mut ordered: Vec<(u32, u64)> = succ.into_iter().collect();
            ordered.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            contexts.insert(ctx, ordered.into_iter().map(|(e, _)| e).collect());
        }
        MarkovTables { contexts }
    }

    /// Successor list of a context (empty if unseen).
    pub fn successors(&self, ctx: u32) -> &[u32] {
        self.contexts.get(&ctx).map(Vec::as_slice).unwrap_or(&[])
    }

    /// All contexts, for serialization (sorted for determinism).
    pub fn iter_sorted(&self) -> Vec<(u32, &[u32])> {
        let mut v: Vec<(u32, &[u32])> = self
            .contexts
            .iter()
            .map(|(&c, s)| (c, s.as_slice()))
            .collect();
        v.sort_by_key(|&(c, _)| c);
        v
    }

    /// Rebuilds from serialized form.
    pub fn from_lists(lists: Vec<(u32, Vec<u32>)>) -> MarkovTables {
        MarkovTables {
            contexts: lists.into_iter().collect(),
        }
    }

    /// Whether this context uses the escape mechanism.
    fn escaped(&self, ctx: u32) -> bool {
        self.successors(ctx).len() > usize::from(ESCAPE)
    }

    /// Appends the opcode byte(s) selecting `entry` in `ctx`.
    ///
    /// # Errors
    ///
    /// [`BriscError::Compress`] if the transition was never observed.
    pub fn encode_opcode(&self, ctx: u32, entry: u32, out: &mut Vec<u8>) -> Result<(), BriscError> {
        let succ = self.successors(ctx);
        let pos = succ.iter().position(|&e| e == entry).ok_or_else(|| {
            BriscError::Compress(format!("transition {ctx}->{entry} missing from model"))
        })?;
        if self.escaped(ctx) && pos >= usize::from(ESCAPE) {
            out.push(ESCAPE);
            let id = u16::try_from(entry)
                .map_err(|_| BriscError::Compress("entry id exceeds u16".into()))?;
            out.extend_from_slice(&id.to_le_bytes());
        } else {
            out.push(pos as u8);
        }
        Ok(())
    }

    /// Bytes the opcode for `entry` in `ctx` will occupy (1 or 3).
    pub fn opcode_len(&self, ctx: u32, entry: u32) -> usize {
        let succ = self.successors(ctx);
        match succ.iter().position(|&e| e == entry) {
            Some(pos) if self.escaped(ctx) && pos >= usize::from(ESCAPE) => 3,
            _ => 1,
        }
    }

    /// Number of contexts.
    pub fn context_count(&self) -> usize {
        self.contexts.len()
    }

    /// The largest successor-set size (the paper reports "at most 244").
    pub fn max_successors(&self) -> usize {
        self.contexts.values().map(Vec::len).max().unwrap_or(0)
    }
}

/// The decoder's view of [`MarkovTables`]: every context's successor
/// list back to back in one array, indexed by context. Built once per
/// image, so an opcode decode is an array index rather than a hash
/// lookup.
///
/// Slots `0..entries` are the dictionary entries, then one always-empty
/// slot for context ids the dictionary has no entry for, then
/// [`BLOCK_START`] last. Decoding only ever reaches contexts that are
/// entry ids or `BLOCK_START`; lists stored under any other id are
/// dropped.
#[derive(Debug)]
pub struct SuccessorTable {
    /// `ids[start[s]..start[s + 1]]` is slot `s`'s successor list.
    start: Vec<u32>,
    ids: Vec<u32>,
}

impl SuccessorTable {
    /// Flattens `markov` for a dictionary of `entries` entries.
    pub fn new(markov: &MarkovTables, entries: usize) -> SuccessorTable {
        let mut lists: Vec<&[u32]> = vec![&[]; entries + 2];
        for (&ctx, succ) in &markov.contexts {
            if ctx == BLOCK_START {
                lists[entries + 1] = succ;
            } else if (ctx as usize) < entries {
                lists[ctx as usize] = succ;
            }
        }
        let mut start = Vec::with_capacity(lists.len() + 1);
        let mut ids = Vec::with_capacity(lists.iter().map(|l| l.len()).sum());
        for list in lists {
            start.push(ids.len() as u32);
            ids.extend_from_slice(list);
        }
        start.push(ids.len() as u32);
        SuccessorTable { start, ids }
    }

    /// Successor list of a context (empty if unseen).
    pub fn successors(&self, ctx: u32) -> &[u32] {
        let entries = self.start.len() - 3;
        let slot = if ctx == BLOCK_START {
            entries + 1
        } else {
            (ctx as usize).min(entries)
        };
        &self.ids[self.start[slot] as usize..self.start[slot + 1] as usize]
    }

    /// Decodes an opcode at `bytes[*pos..]`, advancing `pos`.
    ///
    /// # Errors
    ///
    /// [`BriscError::Corrupt`] on truncation or invalid codes.
    pub fn decode_opcode(
        &self,
        ctx: u32,
        bytes: &[u8],
        pos: &mut usize,
    ) -> Result<u32, BriscError> {
        let b = *bytes
            .get(*pos)
            .ok_or_else(|| BriscError::Corrupt("opcode past end of code".into()))?;
        *pos += 1;
        let succ = self.successors(ctx);
        if succ.len() > usize::from(ESCAPE) && b == ESCAPE {
            let lo = bytes.get(*pos).copied();
            let hi = bytes.get(*pos + 1).copied();
            *pos += 2;
            let (Some(lo), Some(hi)) = (lo, hi) else {
                return Err(BriscError::Corrupt("escape opcode truncated".into()));
            };
            return Ok(u32::from(u16::from_le_bytes([lo, hi])));
        }
        succ.get(usize::from(b))
            .copied()
            .ok_or_else(|| BriscError::Corrupt(format!("opcode {b} invalid in context {ctx}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frequent_successor_gets_byte_zero() {
        let t = MarkovTables::build(vec![(1, 7), (1, 7), (1, 9), (1, 7)]);
        assert_eq!(t.successors(1), &[7, 9]);
        let mut out = Vec::new();
        t.encode_opcode(1, 7, &mut out).unwrap();
        assert_eq!(out, vec![0]);
        t.encode_opcode(1, 9, &mut out).unwrap();
        assert_eq!(out, vec![0, 1]);
    }

    #[test]
    fn roundtrip_decode() {
        let t = MarkovTables::build(vec![
            (BLOCK_START, 3),
            (BLOCK_START, 5),
            (BLOCK_START, 3),
            (3, 5),
            (5, 3),
        ]);
        let mut bytes = Vec::new();
        let seq = [(BLOCK_START, 3u32), (3, 5), (5, 3), (BLOCK_START, 5)];
        for &(ctx, e) in &seq {
            t.encode_opcode(ctx, e, &mut bytes).unwrap();
        }
        let flat = SuccessorTable::new(&t, 6);
        let mut pos = 0;
        for &(ctx, e) in &seq {
            assert_eq!(flat.decode_opcode(ctx, &bytes, &mut pos).unwrap(), e);
        }
        assert_eq!(pos, bytes.len());
    }

    #[test]
    fn unknown_transition_rejected() {
        let t = MarkovTables::build(vec![(1, 2)]);
        let mut out = Vec::new();
        assert!(t.encode_opcode(1, 99, &mut out).is_err());
        assert!(t.encode_opcode(42, 2, &mut out).is_err());
    }

    #[test]
    fn invalid_byte_rejected() {
        let t = SuccessorTable::new(&MarkovTables::build(vec![(1, 2)]), 3);
        let mut pos = 0;
        assert!(t.decode_opcode(1, &[5], &mut pos).is_err());
        let mut pos = 0;
        assert!(t.decode_opcode(1, &[], &mut pos).is_err());
    }

    #[test]
    fn escape_mechanism_handles_wide_contexts() {
        // 300 distinct successors in one context.
        let transitions: Vec<(u32, u32)> = (0..300u32)
            .flat_map(|e| {
                // Make entry 0 most frequent so ordering is deterministic.
                std::iter::repeat_n((7u32, e), if e == 0 { 5 } else { 1 })
            })
            .collect();
        let t = MarkovTables::build(transitions);
        assert_eq!(t.successors(7).len(), 300);
        assert_eq!(t.max_successors(), 300);
        // Entry at position 0: single byte.
        let first = t.successors(7)[0];
        assert_eq!(t.opcode_len(7, first), 1);
        // Entry at position 299: escape (3 bytes).
        let deep = t.successors(7)[299];
        assert_eq!(t.opcode_len(7, deep), 3);
        let mut bytes = Vec::new();
        t.encode_opcode(7, first, &mut bytes).unwrap();
        t.encode_opcode(7, deep, &mut bytes).unwrap();
        assert_eq!(bytes.len(), 4);
        let flat = SuccessorTable::new(&t, 300);
        assert_eq!(flat.successors(7), t.successors(7));
        let mut pos = 0;
        assert_eq!(flat.decode_opcode(7, &bytes, &mut pos).unwrap(), first);
        assert_eq!(flat.decode_opcode(7, &bytes, &mut pos).unwrap(), deep);
    }

    #[test]
    fn serialization_lists_roundtrip() {
        let t = MarkovTables::build(vec![(1, 2), (1, 3), (2, 1), (BLOCK_START, 1)]);
        let lists: Vec<(u32, Vec<u32>)> = t
            .iter_sorted()
            .into_iter()
            .map(|(c, s)| (c, s.to_vec()))
            .collect();
        let back = MarkovTables::from_lists(lists);
        assert_eq!(back, t);
    }
}
