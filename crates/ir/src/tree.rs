//! Trees, functions, and modules.

use crate::op::{IrType, Literal, LiteralKind, Op, Opcode, Width};
use crate::IrError;

/// One IR expression or statement tree.
///
/// Construction goes through the typed helpers ([`Tree::cnst`],
/// [`Tree::asgn`], …) or [`Tree::build`], which validates arity and
/// literal kind; a `Tree` therefore always satisfies the operator table.
#[derive(Debug, Clone, PartialEq)]
pub struct Tree {
    op: Op,
    literal: Option<Literal>,
    kids: Vec<Tree>,
}

impl Tree {
    /// Builds and validates a node.
    ///
    /// # Errors
    ///
    /// [`IrError::Malformed`] if the child count or literal kind does not
    /// match the opcode's signature.
    #[inline]
    pub fn build(op: Op, literal: Option<Literal>, kids: Vec<Tree>) -> Result<Tree, IrError> {
        let arity_ok = match op.opcode.arity() {
            Some(n) => kids.len() == n,
            None => kids.len() <= 1,
        };
        let want = op.opcode.literal_kind();
        let got = literal.as_ref().map_or(LiteralKind::None, Literal::kind);
        if arity_ok && want == got && !(op.opcode == Opcode::Cvt && op.from.is_none()) {
            return Ok(Tree { op, literal, kids });
        }
        Err(Self::build_error(op, literal, &kids))
    }

    /// The diagnostic for a [`Tree::build`] rejection, out of line so the
    /// hot constructor stays small enough to inline.
    #[cold]
    fn build_error(op: Op, literal: Option<Literal>, kids: &[Tree]) -> IrError {
        if let Some(n) = op.opcode.arity() {
            if kids.len() != n {
                return IrError::Malformed(format!(
                    "{} expects {} children, got {}",
                    op.mnemonic(),
                    n,
                    kids.len()
                ));
            }
        } else if kids.len() > 1 {
            return IrError::Malformed(format!(
                "{} expects at most one child, got {}",
                op.mnemonic(),
                kids.len()
            ));
        }
        let want = op.opcode.literal_kind();
        let got = literal.as_ref().map_or(LiteralKind::None, Literal::kind);
        if want != got {
            return IrError::Malformed(format!(
                "{} expects literal kind {:?}, got {:?}",
                op.mnemonic(),
                want,
                got
            ));
        }
        IrError::Malformed("CVT requires a source type".into())
    }

    /// The operator at the root.
    pub fn op(&self) -> Op {
        self.op
    }

    /// The literal operand, if any.
    pub fn literal(&self) -> Option<&Literal> {
        self.literal.as_ref()
    }

    /// The children.
    pub fn kids(&self) -> &[Tree] {
        &self.kids
    }

    /// The width flag this node prints/encodes with: derived from the
    /// literal for offset-carrying operators, `W32` otherwise.
    pub fn width(&self) -> Width {
        match (self.op.opcode, &self.literal) {
            (Opcode::AddrL | Opcode::AddrF, Some(lit)) => lit.width(),
            (Opcode::Cnst, Some(_)) => Width::for_constant(self.op.ty),
            _ => Width::W32,
        }
    }

    /// The operator, literal and children, moved out of the node;
    /// [`Tree::build`] puts them back together.
    pub fn into_parts(self) -> (Op, Option<Literal>, Vec<Tree>) {
        (self.op, self.literal, self.kids)
    }

    /// Number of nodes in the tree.
    pub fn node_count(&self) -> usize {
        1 + self.kids.iter().map(Tree::node_count).sum::<usize>()
    }

    /// Visits nodes in prefix order.
    pub fn walk<'a>(&'a self, f: &mut impl FnMut(&'a Tree)) {
        f(self);
        for k in &self.kids {
            k.walk(f);
        }
    }

    // ---- constructors -------------------------------------------------

    /// `CNST<ty>[v]` — the front end picks `ty` to flag literal width.
    pub fn cnst(ty: IrType, v: i64) -> Tree {
        Tree {
            op: Op::new(Opcode::Cnst, ty),
            literal: Some(Literal::Int(v)),
            kids: vec![],
        }
    }

    /// An integer constant with its type narrowed to the paper's
    /// width-flag convention (`CNSTC` for 8-bit, `CNSTS` for 16, else `CNSTI`).
    pub fn cnst_auto(v: i64) -> Tree {
        let ty = match Width::for_value(v) {
            Width::W8 => IrType::C,
            Width::W16 => IrType::S,
            Width::W32 => IrType::I,
        };
        Tree::cnst(ty, v)
    }

    /// `ADDRGP[name]`.
    pub fn addr_global(name: impl Into<String>) -> Tree {
        Tree {
            op: Op::new(Opcode::AddrG, IrType::P),
            literal: Some(Literal::Symbol(name.into())),
            kids: vec![],
        }
    }

    /// `ADDRLP[offset]`.
    pub fn addr_local(offset: i32) -> Tree {
        Tree {
            op: Op::new(Opcode::AddrL, IrType::P),
            literal: Some(Literal::Offset(offset)),
            kids: vec![],
        }
    }

    /// `ADDRFP[offset]`.
    pub fn addr_formal(offset: i32) -> Tree {
        Tree {
            op: Op::new(Opcode::AddrF, IrType::P),
            literal: Some(Literal::Offset(offset)),
            kids: vec![],
        }
    }

    /// `INDIR<ty>(addr)`.
    pub fn indir(ty: IrType, addr: Tree) -> Tree {
        Tree {
            op: Op::new(Opcode::Indir, ty),
            literal: None,
            kids: vec![addr],
        }
    }

    /// `ASGN<ty>(addr, value)`.
    pub fn asgn(ty: IrType, addr: Tree, value: Tree) -> Tree {
        Tree {
            op: Op::new(Opcode::Asgn, ty),
            literal: None,
            kids: vec![addr, value],
        }
    }

    /// A binary arithmetic node.
    ///
    /// # Panics
    ///
    /// Panics if `opcode` is not a two-child arithmetic operator.
    pub fn binary(opcode: Opcode, ty: IrType, a: Tree, b: Tree) -> Tree {
        assert_eq!(opcode.arity(), Some(2), "binary() needs a 2-ary opcode");
        assert_eq!(
            opcode.literal_kind(),
            LiteralKind::None,
            "binary() takes no literal"
        );
        Tree {
            op: Op::new(opcode, ty),
            literal: None,
            kids: vec![a, b],
        }
    }

    /// `ADD<ty>(a, b)`.
    pub fn add(ty: IrType, a: Tree, b: Tree) -> Tree {
        Tree::binary(Opcode::Add, ty, a, b)
    }

    /// `SUB<ty>(a, b)`.
    pub fn sub(ty: IrType, a: Tree, b: Tree) -> Tree {
        Tree::binary(Opcode::Sub, ty, a, b)
    }

    /// `MUL<ty>(a, b)`.
    pub fn mul(ty: IrType, a: Tree, b: Tree) -> Tree {
        Tree::binary(Opcode::Mul, ty, a, b)
    }

    /// A unary node (`NEG`, `BCOM`, `CVT`, …).
    ///
    /// # Panics
    ///
    /// Panics if `op` is not 1-ary or carries a literal.
    pub fn unary(op: Op, kid: Tree) -> Tree {
        assert_eq!(op.opcode.arity(), Some(1), "unary() needs a 1-ary opcode");
        assert_eq!(
            op.opcode.literal_kind(),
            LiteralKind::None,
            "unary() takes no literal"
        );
        Tree {
            op,
            literal: None,
            kids: vec![kid],
        }
    }

    /// A conditional branch `Eq/Ne/Lt/Le/Gt/Ge <ty>[label](a, b)`.
    ///
    /// # Panics
    ///
    /// Panics if `opcode` is not a branch.
    pub fn branch(opcode: Opcode, ty: IrType, label: u32, a: Tree, b: Tree) -> Tree {
        assert!(opcode.is_branch(), "branch() needs a comparison opcode");
        Tree {
            op: Op::new(opcode, ty),
            literal: Some(Literal::Label(label)),
            kids: vec![a, b],
        }
    }

    /// `ARG<ty>(value)`.
    pub fn arg(ty: IrType, value: Tree) -> Tree {
        Tree {
            op: Op::new(Opcode::Arg, ty),
            literal: None,
            kids: vec![value],
        }
    }

    /// `CALL<ty>(addr)`.
    pub fn call(ty: IrType, addr: Tree) -> Tree {
        Tree {
            op: Op::new(Opcode::Call, ty),
            literal: None,
            kids: vec![addr],
        }
    }

    /// `RET<ty>(value)`.
    pub fn ret(ty: IrType, value: Tree) -> Tree {
        Tree {
            op: Op::new(Opcode::Ret, ty),
            literal: None,
            kids: vec![value],
        }
    }

    /// `RETV` with no value.
    pub fn ret_void() -> Tree {
        Tree {
            op: Op::new(Opcode::Ret, IrType::V),
            literal: None,
            kids: vec![],
        }
    }

    /// `JUMPV[label]`.
    pub fn jump(label: u32) -> Tree {
        Tree {
            op: Op::new(Opcode::Jump, IrType::V),
            literal: Some(Literal::Label(label)),
            kids: vec![],
        }
    }

    /// `LABELV[label]`.
    pub fn label(label: u32) -> Tree {
        Tree {
            op: Op::new(Opcode::LabelDef, IrType::V),
            literal: Some(Literal::Label(label)),
            kids: vec![],
        }
    }
}

/// A compiled function: a forest of statement trees plus frame layout.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Function {
    /// Function name.
    pub name: String,
    /// Number of declared parameters.
    pub param_count: usize,
    /// Bytes of locals (parameters are spilled into the frame too).
    pub frame_size: u32,
    /// Statement trees in execution order.
    pub body: Vec<Tree>,
}

impl Function {
    /// Creates an empty function.
    pub fn new(name: impl Into<String>, param_count: usize, frame_size: u32) -> Self {
        Self {
            name: name.into(),
            param_count,
            frame_size,
            body: Vec::new(),
        }
    }

    /// Total tree-node count across the body.
    pub fn node_count(&self) -> usize {
        self.body.iter().map(Tree::node_count).sum()
    }

    /// All labels defined in the body.
    pub fn defined_labels(&self) -> Vec<u32> {
        let mut labels = Vec::new();
        for stmt in &self.body {
            if stmt.op().opcode == Opcode::LabelDef {
                if let Some(Literal::Label(l)) = stmt.literal() {
                    labels.push(*l);
                }
            }
        }
        labels
    }

    /// Checks that every referenced label is defined exactly once.
    ///
    /// # Errors
    ///
    /// [`IrError::Malformed`] listing the offending label.
    pub fn validate_labels(&self) -> Result<(), IrError> {
        let defined = self.defined_labels();
        let mut sorted = defined.clone();
        sorted.sort_unstable();
        sorted.dedup();
        if sorted.len() != defined.len() {
            return Err(IrError::Malformed(format!(
                "function {}: duplicate label definition",
                self.name
            )));
        }
        let mut err = None;
        for stmt in &self.body {
            stmt.walk(&mut |node| {
                if err.is_some() {
                    return;
                }
                if let Some(Literal::Label(l)) = node.literal() {
                    if node.op().opcode != Opcode::LabelDef && sorted.binary_search(l).is_err() {
                        err = Some(IrError::Malformed(format!(
                            "function {}: branch to undefined label {l}",
                            self.name
                        )));
                    }
                }
            });
        }
        match err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

/// A global data definition.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Global {
    /// Symbol name.
    pub name: String,
    /// Size in bytes.
    pub size: u32,
    /// Optional initializer bytes (zero-filled when absent or short).
    pub init: Vec<u8>,
}

/// A whole compiled module.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Module {
    /// Global variables.
    pub globals: Vec<Global>,
    /// Functions in definition order.
    pub functions: Vec<Function>,
}

impl Module {
    /// Creates an empty module.
    pub fn new() -> Self {
        Self::default()
    }

    /// Finds a function by name.
    pub fn function(&self, name: &str) -> Option<&Function> {
        self.functions.iter().find(|f| f.name == name)
    }

    /// Total tree-node count across all functions.
    pub fn node_count(&self) -> usize {
        self.functions.iter().map(Function::node_count).sum()
    }

    /// Validates all function label references.
    ///
    /// # Errors
    ///
    /// First label error found, if any.
    pub fn validate(&self) -> Result<(), IrError> {
        for f in &self.functions {
            f.validate_labels()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_validates_arity() {
        let bad = Tree::build(
            Op::new(Opcode::Add, IrType::I),
            None,
            vec![Tree::cnst_auto(1)],
        );
        assert!(matches!(bad, Err(IrError::Malformed(_))));
    }

    #[test]
    fn build_validates_literal_kind() {
        let bad = Tree::build(
            Op::new(Opcode::Cnst, IrType::I),
            Some(Literal::Label(3)),
            vec![],
        );
        assert!(matches!(bad, Err(IrError::Malformed(_))));
        let good = Tree::build(
            Op::new(Opcode::Cnst, IrType::I),
            Some(Literal::Int(3)),
            vec![],
        );
        assert!(good.is_ok());
    }

    #[test]
    fn ret_accepts_zero_or_one_children() {
        assert!(Tree::build(Op::new(Opcode::Ret, IrType::V), None, vec![]).is_ok());
        assert!(Tree::build(
            Op::new(Opcode::Ret, IrType::I),
            None,
            vec![Tree::cnst_auto(1)]
        )
        .is_ok());
        assert!(Tree::build(
            Op::new(Opcode::Ret, IrType::I),
            None,
            vec![Tree::cnst_auto(1), Tree::cnst_auto(2)]
        )
        .is_err());
    }

    #[test]
    fn cnst_auto_narrows() {
        assert_eq!(Tree::cnst_auto(1).op().ty, IrType::C);
        assert_eq!(Tree::cnst_auto(300).op().ty, IrType::S);
        assert_eq!(Tree::cnst_auto(100_000).op().ty, IrType::I);
    }

    #[test]
    fn width_flags() {
        assert_eq!(Tree::addr_local(72).width(), Width::W8);
        assert_eq!(Tree::addr_local(300).width(), Width::W16);
        assert_eq!(Tree::addr_local(100_000).width(), Width::W32);
        assert_eq!(Tree::cnst(IrType::C, 1).width(), Width::W8);
        assert_eq!(Tree::cnst(IrType::I, 1).width(), Width::W32);
    }

    #[test]
    fn node_count_and_walk() {
        let t = Tree::asgn(
            IrType::I,
            Tree::addr_local(0),
            Tree::add(IrType::I, Tree::cnst_auto(1), Tree::cnst_auto(2)),
        );
        assert_eq!(t.node_count(), 5);
        let mut names = Vec::new();
        t.walk(&mut |n| names.push(n.op().opcode));
        assert_eq!(
            names,
            vec![
                Opcode::Asgn,
                Opcode::AddrL,
                Opcode::Add,
                Opcode::Cnst,
                Opcode::Cnst
            ]
        );
    }

    #[test]
    fn label_validation_catches_undefined() {
        let mut f = Function::new("f", 0, 0);
        f.body.push(Tree::branch(
            Opcode::Le,
            IrType::I,
            9,
            Tree::cnst_auto(0),
            Tree::cnst_auto(1),
        ));
        assert!(f.validate_labels().is_err());
        f.body.push(Tree::label(9));
        assert!(f.validate_labels().is_ok());
    }

    #[test]
    fn label_validation_catches_duplicates() {
        let mut f = Function::new("f", 0, 0);
        f.body.push(Tree::label(1));
        f.body.push(Tree::label(1));
        assert!(f.validate_labels().is_err());
    }

    #[test]
    fn module_lookup() {
        let mut m = Module::new();
        m.functions.push(Function::new("main", 0, 8));
        assert!(m.function("main").is_some());
        assert!(m.function("other").is_none());
        assert!(m.validate().is_ok());
    }
}
