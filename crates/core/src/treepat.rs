//! Tree patternization.
//!
//! "Patternization accepts an actual program and proposes specialized
//! instructions … The patterns replace each combination of operands with
//! wildcards" (§2). The wire format uses the fully-wildcarded pattern of
//! each statement tree as its operator-stream symbol.

use codecomp_ir::op::{Literal, Op, Opcode, Width};
use codecomp_ir::tree::Tree;
use std::fmt;

/// A tree with every literal operand replaced by a wildcard.
///
/// The operator identity keeps the width flag for offset operators
/// (`ADDRLP8` vs `ADDRLP`), since the paper treats those as distinct
/// specialized operators.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TreePattern {
    /// The operator.
    pub op: Op,
    /// Width flag (only meaningful for offset-carrying operators).
    pub width: Width,
    /// Whether the node carries a (wildcarded) literal.
    pub has_literal: bool,
    /// Child patterns.
    pub kids: Vec<TreePattern>,
}

impl TreePattern {
    /// The fully-wildcarded pattern of a tree.
    pub fn of(tree: &Tree) -> TreePattern {
        TreePattern {
            op: tree.op(),
            width: tree.width(),
            has_literal: tree.literal().is_some(),
            kids: tree.kids().iter().map(TreePattern::of).collect(),
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        1 + self.kids.iter().map(TreePattern::node_count).sum::<usize>()
    }

    /// Number of wildcarded literal slots, in prefix order.
    pub fn literal_slots(&self) -> usize {
        usize::from(self.has_literal)
            + self
                .kids
                .iter()
                .map(TreePattern::literal_slots)
                .sum::<usize>()
    }

    /// Visits nodes in prefix order.
    pub fn walk<'a>(&'a self, f: &mut impl FnMut(&'a TreePattern)) {
        f(self);
        for k in &self.kids {
            k.walk(f);
        }
    }

    /// Rebuilds a tree from this pattern, drawing literals from `next`,
    /// which receives the stream key of each literal slot in prefix order.
    ///
    /// # Errors
    ///
    /// Whatever `next` returns, or a build error string, when the
    /// supplied literals do not fit the operator signature.
    pub fn rebuild(
        &self,
        next: &mut impl FnMut(&str) -> Result<Literal, crate::CoreError>,
    ) -> Result<Tree, crate::CoreError> {
        let literal = if self.has_literal {
            Some(next(&stream_key_of(self.op, self.width))?)
        } else {
            None
        };
        let mut kids = Vec::with_capacity(self.kids.len());
        for k in &self.kids {
            kids.push(k.rebuild(next)?);
        }
        Tree::build(self.op, literal, kids).map_err(|e| crate::CoreError::Mismatch(e.to_string()))
    }

    /// Keyless [`Self::rebuild`]: draws one literal per slot in prefix
    /// order without rendering stream keys. Callers that resolved the
    /// slot→stream mapping up front use this to skip the per-slot
    /// `String` allocation.
    ///
    /// # Errors
    ///
    /// As [`Self::rebuild`].
    pub fn rebuild_slots(
        &self,
        next: &mut impl FnMut() -> Result<Literal, crate::CoreError>,
    ) -> Result<Tree, crate::CoreError> {
        let literal = if self.has_literal { Some(next()?) } else { None };
        let mut kids = Vec::with_capacity(self.kids.len());
        for k in &self.kids {
            kids.push(k.rebuild_slots(next)?);
        }
        Tree::build(self.op, literal, kids).map_err(|e| crate::CoreError::Mismatch(e.to_string()))
    }
}

/// The literal-stream key for an operator/width pair, rendered as the
/// paper renders it, e.g. `"ADDRLP8"` or `"CNSTC"`.
pub fn stream_key_of(op: Op, width: Width) -> String {
    let mut key = op.mnemonic();
    if matches!(op.opcode, Opcode::AddrL | Opcode::AddrF) && width != Width::W32 {
        key.push_str(width.print_suffix());
    }
    key
}

impl fmt::Display for TreePattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", stream_key_of(self.op, self.width))?;
        if self.has_literal {
            write!(f, "[*]")?;
        }
        if !self.kids.is_empty() {
            write!(f, "(")?;
            for (i, k) in self.kids.iter().enumerate() {
                if i > 0 {
                    write!(f, ",")?;
                }
                write!(f, "{k}")?;
            }
            write!(f, ")")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use codecomp_ir::op::IrType;
    use codecomp_ir::parse::parse_tree;

    #[test]
    fn paper_patternization_example() {
        // §3 step 2: the patternized operator stream for the salt example.
        let t = parse_tree("ASGNI(ADDRLP8[72],SUBI(INDIRI(ADDRLP8[72]),CNSTC[1]))").unwrap();
        let p = TreePattern::of(&t);
        assert_eq!(
            p.to_string(),
            "ASGNI(ADDRLP8[*],SUBI(INDIRI(ADDRLP8[*]),CNSTC[*]))"
        );
        assert_eq!(p.literal_slots(), 3);
        assert_eq!(p.node_count(), 6);
    }

    #[test]
    fn branch_and_call_patterns() {
        let t = parse_tree("LEI[1](INDIRI(ADDRLP8[68]),CNSTC[0])").unwrap();
        assert_eq!(
            TreePattern::of(&t).to_string(),
            "LEI[*](INDIRI(ADDRLP8[*]),CNSTC[*])"
        );
        let t = parse_tree("CALLI(ADDRGP[pepper])").unwrap();
        assert_eq!(TreePattern::of(&t).to_string(), "CALLI(ADDRGP[*])");
    }

    #[test]
    fn identical_shapes_share_a_pattern() {
        let a = parse_tree("ASGNI(ADDRLP8[72],SUBI(INDIRI(ADDRLP8[72]),CNSTC[1]))").unwrap();
        let b = parse_tree("ASGNI(ADDRLP8[68],SUBI(INDIRI(ADDRLP8[68]),CNSTC[1]))").unwrap();
        assert_eq!(TreePattern::of(&a), TreePattern::of(&b));
        // Different width flags are different patterns.
        let c = parse_tree("ASGNI(ADDRLP16[300],SUBI(INDIRI(ADDRLP16[300]),CNSTC[1]))").unwrap();
        assert_ne!(TreePattern::of(&a), TreePattern::of(&c));
    }

    #[test]
    fn stream_keys() {
        let key = |t: &Tree| stream_key_of(t.op(), t.width());
        assert_eq!(key(&Tree::addr_local(72)), "ADDRLP8");
        assert_eq!(key(&Tree::addr_local(300)), "ADDRLP16");
        assert_eq!(key(&Tree::addr_local(100_000)), "ADDRLP");
        assert_eq!(key(&Tree::cnst(IrType::C, 1)), "CNSTC");
        assert_eq!(key(&Tree::label(1)), "LABELV");
    }

    #[test]
    fn rebuild_inverts_patternization() {
        let original = parse_tree("ASGNI(ADDRLP8[72],SUBI(INDIRI(ADDRLP8[72]),CNSTC[1]))").unwrap();
        let pattern = TreePattern::of(&original);
        // Collect literals in prefix order, then replay them.
        let mut lits = Vec::new();
        collect(&original, &mut lits);
        let mut iter = lits.into_iter();
        let rebuilt = pattern
            .rebuild(&mut |_key| {
                iter.next()
                    .ok_or_else(|| crate::CoreError::StreamUnderflow("out".into()))
            })
            .unwrap();
        assert_eq!(rebuilt, original);
    }

    fn collect(t: &Tree, out: &mut Vec<Literal>) {
        if let Some(l) = t.literal() {
            out.push(l.clone());
        }
        for k in t.kids() {
            collect(k, out);
        }
    }
}
