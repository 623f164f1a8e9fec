//! Stream separation and reassembly.
//!
//! §3 step 2: "form one stream holding the nested operator patterns and
//! one for each type of operator that takes a literal operand". The
//! splitter turns a sequence of statement trees into a pattern-symbol
//! stream (over an interned pattern table) plus one literal stream per
//! operator class; the joiner inverts it exactly.

use crate::treepat::{stream_key_of, TreePattern};
use crate::CoreError;
use codecomp_ir::op::{Literal, Op, Width};
use codecomp_ir::tree::Tree;
use std::collections::BTreeMap;

/// A literal-stream key (the operator mnemonic with width flag).
pub type StreamKey = String;

/// The split representation of a tree sequence.
#[derive(Debug, Clone, PartialEq)]
pub struct SplitStreams {
    /// Interned pattern table, indexed by the symbols in `pattern_stream`.
    pub patterns: Vec<TreePattern>,
    /// One symbol per statement tree.
    pub pattern_stream: Vec<u32>,
    /// Literal streams, keyed by operator class, each in program order.
    pub literals: BTreeMap<StreamKey, Vec<Literal>>,
}

impl SplitStreams {
    /// Splits statement trees into streams.
    pub fn split(trees: &[Tree]) -> SplitStreams {
        let mut patterns: Vec<TreePattern> = Vec::new();
        let mut index: BTreeMap<TreePattern, u32> = BTreeMap::new();
        let mut pattern_stream = Vec::with_capacity(trees.len());
        let mut literals: BTreeMap<StreamKey, Vec<Literal>> = BTreeMap::new();
        // This is the one place that already walks every IR node of a
        // compiled program, so per-operator-class attribution lives
        // here rather than in the ir crate (which core depends on).
        let telemetry_on = crate::telemetry::enabled();
        let mut class_counts: BTreeMap<&'static str, u64> = BTreeMap::new();
        for tree in trees {
            let pat = TreePattern::of(tree);
            let sym = *index.entry(pat.clone()).or_insert_with(|| {
                patterns.push(pat.clone());
                patterns.len() as u32 - 1
            });
            pattern_stream.push(sym);
            collect_literals(tree, &mut literals);
            if telemetry_on {
                count_classes(tree, &mut class_counts);
            }
        }
        if telemetry_on {
            for (class, n) in &class_counts {
                crate::telemetry::counter_add(&format!("ir.nodes.{class}"), *n);
            }
            crate::telemetry::counter_add("core.split.trees", trees.len() as u64);
            crate::telemetry::counter_add("core.split.patterns", patterns.len() as u64);
        }
        SplitStreams {
            patterns,
            pattern_stream,
            literals,
        }
    }

    /// Reassembles the original tree sequence, consuming the streams.
    ///
    /// This is the decode hot path. The slot→stream mapping is resolved
    /// once per distinct pattern (memoized against the sorted key list)
    /// and literals are moved out of their streams in order, so the
    /// per-literal work is one indexed iterator step.
    ///
    /// # Errors
    ///
    /// [`CoreError`] if a stream underflows or a symbol is out of range.
    pub fn join(self) -> Result<Vec<Tree>, CoreError> {
        let SplitStreams {
            patterns,
            pattern_stream,
            literals,
        } = self;
        /// Where a pattern's literal slot draws from.
        #[derive(Clone, Copy)]
        enum Slot {
            Stream(usize),
            /// Operator with no stream; the key is only rendered if the
            /// slot is actually consumed, so unreferenced patterns
            /// cannot fail a decode.
            Missing(Op, Width),
        }
        let mut keys: Vec<String> = Vec::with_capacity(literals.len());
        let mut streams: Vec<std::vec::IntoIter<Literal>> = Vec::with_capacity(literals.len());
        for (key, stream) in literals {
            // BTreeMap iterates sorted, so `keys` supports binary search.
            keys.push(key);
            streams.push(stream.into_iter());
        }
        // Slot resolution renders a stream-key `String` per distinct
        // *operator*, not per pattern slot: patterns share a handful of
        // literal-bearing operators, so memoizing on `(Op, Width)` cuts
        // thousands of key allocations per module to a dozen.
        let mut op_slots: BTreeMap<(Op, Width), Slot> = BTreeMap::new();
        let mut slot_maps: Vec<Option<Vec<Slot>>> = (0..patterns.len()).map(|_| None).collect();
        let mut out = Vec::with_capacity(pattern_stream.len());
        for sym in pattern_stream {
            let pat = patterns
                .get(sym as usize)
                .ok_or_else(|| CoreError::Mismatch(format!("bad pattern symbol {sym}")))?;
            let slots = slot_maps[sym as usize].get_or_insert_with(|| {
                let mut v = Vec::with_capacity(pat.literal_slots());
                pat.walk(&mut |node| {
                    if node.has_literal {
                        let slot = *op_slots.entry((node.op, node.width)).or_insert_with(|| {
                            match keys.binary_search(&stream_key_of(node.op, node.width)) {
                                Ok(i) => Slot::Stream(i),
                                Err(_) => Slot::Missing(node.op, node.width),
                            }
                        });
                        v.push(slot);
                    }
                });
                v
            });
            let mut slot_idx = 0;
            let tree = pat.rebuild_slots(&mut || {
                let slot = slots[slot_idx];
                slot_idx += 1;
                match slot {
                    Slot::Stream(i) => streams[i].next().ok_or_else(|| {
                        CoreError::StreamUnderflow(format!("stream {} empty", keys[i]))
                    }),
                    Slot::Missing(op, width) => Err(CoreError::StreamUnderflow(format!(
                        "no stream {}",
                        stream_key_of(op, width)
                    ))),
                }
            })?;
            out.push(tree);
        }
        Ok(out)
    }
}

fn count_classes(tree: &Tree, counts: &mut BTreeMap<&'static str, u64>) {
    *counts.entry(tree.op().opcode.class()).or_insert(0) += 1;
    for k in tree.kids() {
        count_classes(k, counts);
    }
}

fn collect_literals(tree: &Tree, streams: &mut BTreeMap<StreamKey, Vec<Literal>>) {
    if let Some(lit) = tree.literal() {
        let key = crate::treepat::stream_key_of(tree.op(), tree.width());
        streams.entry(key).or_default().push(lit.clone());
    }
    for k in tree.kids() {
        collect_literals(k, streams);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use codecomp_ir::op::Literal;
    use codecomp_ir::parse::parse_tree;

    fn salt_trees() -> Vec<Tree> {
        [
            "ASGNI(ADDRLP8[72],SUBI(INDIRI(ADDRLP8[72]),CNSTC[1]))",
            "LEI[1](INDIRI(ADDRLP8[68]),CNSTC[0])",
            "ARGI(INDIRI(ADDRLP8[72]))",
            "ARGI(INDIRI(ADDRLP8[68]))",
            "CALLI(ADDRGP[pepper])",
            "ASGNI(ADDRLP8[68],SUBI(INDIRI(ADDRLP8[68]),CNSTC[1]))",
            "LABELV[1]",
            "RETI(INDIRI(ADDRLP8[68]))",
        ]
        .iter()
        .map(|s| parse_tree(s).unwrap())
        .collect()
    }

    #[test]
    fn paper_addrlp8_stream() {
        // §3: "The ADDRLP8 stream is [72 72 68 72 68 68 68 68]".
        let split = SplitStreams::split(&salt_trees());
        let addrlp8: Vec<i64> = split.literals["ADDRLP8"]
            .iter()
            .map(|l| match l {
                Literal::Offset(v) => i64::from(*v),
                other => panic!("unexpected literal {other:?}"),
            })
            .collect();
        assert_eq!(addrlp8, vec![72, 72, 68, 72, 68, 68, 68, 68]);
    }

    #[test]
    fn pattern_stream_shares_repeated_shapes() {
        let split = SplitStreams::split(&salt_trees());
        // The two ASGNI statements and the two ARGI statements share
        // patterns: 8 statements, 6 distinct patterns.
        assert_eq!(split.pattern_stream.len(), 8);
        assert_eq!(split.patterns.len(), 6);
        assert_eq!(split.pattern_stream[0], split.pattern_stream[5]);
        assert_eq!(split.pattern_stream[2], split.pattern_stream[3]);
    }

    #[test]
    fn join_inverts_split() {
        let trees = salt_trees();
        let split = SplitStreams::split(&trees);
        assert_eq!(split.join().unwrap(), trees);
    }

    #[test]
    fn streams_are_per_operator_class() {
        let split = SplitStreams::split(&salt_trees());
        assert!(split.literals.contains_key("ADDRLP8"));
        assert!(split.literals.contains_key("CNSTC"));
        assert!(split.literals.contains_key("ADDRGP"));
        assert!(split.literals.contains_key("LEI"));
        assert!(split.literals.contains_key("LABELV"));
        assert_eq!(
            split.literals["ADDRGP"],
            vec![Literal::Symbol("pepper".into())]
        );
    }

    #[test]
    fn join_detects_truncated_stream() {
        let trees = salt_trees();
        let mut split = SplitStreams::split(&trees);
        split.literals.get_mut("CNSTC").unwrap().pop();
        assert!(split.join().is_err());
    }

    #[test]
    fn join_detects_bad_symbol() {
        let trees = salt_trees();
        let mut split = SplitStreams::split(&trees);
        split.pattern_stream[0] = 999;
        assert!(split.join().is_err());
    }

    #[test]
    fn empty_input() {
        let split = SplitStreams::split(&[]);
        assert!(split.patterns.is_empty());
        assert!(split.literals.is_empty());
        assert_eq!(split.join().unwrap(), Vec::<Tree>::new());
    }
}
