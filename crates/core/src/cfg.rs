//! Control-flow graph derivation from the Control Structure Tree.
//!
//! The CFG is never transmitted: both producer and consumer derive it
//! deterministically from the CST (§7), including the canonical
//! ordering of each join block's incoming edges — which is what gives
//! phi operands their positional meaning ("the n-th argument of the phi
//! function corresponds to the n-th incoming branch", §2).
//!
//! Exception edges: every exceptional instruction inside a `try` region
//! adds an edge from its block to the innermost handler entry; the edge
//! records how many instruction results of the source block are visible
//! along it (§7's sub-block splitting expressed as an edge attribute).

use crate::cst::Cst;
use crate::function::{Function, ENTRY};
use crate::value::BlockId;
use std::cell::Cell;
use std::fmt;

thread_local! {
    static BUILDS: Cell<u64> = const { Cell::new(0) };
}

/// Number of [`Cfg::build`] calls made on the current thread: a
/// deterministic work counter, so tests can pin how often a consumer
/// derives a function's CFG.
pub fn builds_on_this_thread() -> u64 {
    BUILDS.with(Cell::get)
}

/// How control reaches a block along one edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeKind {
    /// Ordinary control transfer (fall-through, branch, back edge,
    /// break, continue).
    Normal,
    /// Exceptional transfer raised by instruction `upto` of the source
    /// block (or by a `throw` terminator when `upto` equals the
    /// instruction count). Exactly the first `upto` instruction results
    /// of the source block are visible along this edge.
    Exception {
        /// Number of leading instruction results visible on this edge.
        upto: u32,
    },
}

/// One incoming CFG edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    /// Source block.
    pub from: BlockId,
    /// Kind of transfer.
    pub kind: EdgeKind,
}

/// A structural error found while deriving the CFG.
#[derive(Debug, Clone, PartialEq)]
pub enum CfgError {
    /// `Break(n)` with fewer than `n + 1` enclosing labeled regions.
    BadBreakDepth(u32),
    /// `Continue(n)` with fewer than `n + 1` enclosing loops.
    BadContinueDepth(u32),
    /// A block id out of range for the function.
    BadBlock(BlockId),
    /// The first executed block must be the entry block (pre-loads live
    /// there).
    EntryNotFirst,
    /// The same block appears at two different CST positions.
    DuplicateBlock(BlockId),
}

impl fmt::Display for CfgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CfgError::BadBreakDepth(n) => write!(f, "break depth {n} exceeds labeled nesting"),
            CfgError::BadContinueDepth(n) => {
                write!(f, "continue depth {n} exceeds loop nesting")
            }
            CfgError::BadBlock(b) => write!(f, "block {b} out of range"),
            CfgError::EntryNotFirst => write!(f, "entry block is not the first executed block"),
            CfgError::DuplicateBlock(b) => write!(f, "block {b} used twice in the CST"),
        }
    }
}

impl std::error::Error for CfgError {}

/// The control-flow graph derived from a function's CST.
#[derive(Debug, Clone)]
pub struct Cfg {
    /// Incoming edges per block, in canonical order.
    pub preds: Vec<Vec<Edge>>,
    /// Successor block ids per block (derived, unordered semantics).
    pub succs: Vec<Vec<BlockId>>,
    /// Whether each block is reachable from the entry.
    pub reachable: Vec<bool>,
    /// Blocks in the deterministic traversal order the CST visits them.
    pub traversal: Vec<BlockId>,
    /// `(branching block, condition value)` for every reachable `If`.
    pub cond_uses: Vec<(BlockId, crate::value::ValueId)>,
    /// `(returning block, value)` for every reachable `Return`.
    pub return_uses: Vec<(BlockId, Option<crate::value::ValueId>)>,
    /// `(throwing block, value)` for every reachable `Throw`.
    pub throw_uses: Vec<(BlockId, crate::value::ValueId)>,
    /// Whether control can fall off the end of the function body.
    pub falls_through: bool,
}

impl Cfg {
    /// Number of blocks.
    pub fn len(&self) -> usize {
        self.preds.len()
    }

    /// Whether the CFG has no blocks (never true for a built CFG).
    pub fn is_empty(&self) -> bool {
        self.preds.is_empty()
    }

    /// The canonical incoming edges of `b`.
    pub fn preds_of(&self, b: BlockId) -> &[Edge] {
        &self.preds[b.index()]
    }

    /// Derives the CFG of `f`.
    ///
    /// # Errors
    ///
    /// Returns a [`CfgError`] if the CST is structurally malformed.
    pub fn build(f: &Function) -> Result<Cfg, CfgError> {
        BUILDS.with(|c| c.set(c.get() + 1));
        let n = f.block_count();
        let mut b = Builder::new(f, vec![Vec::new(); n], false);
        let final_frontier = b.walk(&f.body, Frontier::Start)?;
        let falls_through = !matches!(final_frontier, Frontier::Dead);
        let b2 = (b.cond_uses, b.return_uses, b.throw_uses);
        let preds = b.preds;
        let traversal = b.traversal;
        let mut succs = vec![Vec::new(); n];
        for (to, edges) in preds.iter().enumerate() {
            for e in edges {
                succs[e.from.index()].push(BlockId(to as u32));
            }
        }
        // Reachability from the entry block.
        let mut reachable = vec![false; n];
        if n > 0 {
            let mut stack = vec![ENTRY];
            reachable[ENTRY.index()] = true;
            while let Some(x) = stack.pop() {
                for &s in &succs[x.index()] {
                    if !reachable[s.index()] {
                        reachable[s.index()] = true;
                        stack.push(s);
                    }
                }
            }
        }
        Ok(Cfg {
            preds,
            succs,
            reachable,
            traversal,
            cond_uses: b2.0,
            return_uses: b2.1,
            throw_uses: b2.2,
            falls_through,
        })
    }

    /// Re-derives `cond_uses`, `return_uses` and `throw_uses` from
    /// `f`'s CST, keeping the graph. `f` must be the function this CFG
    /// was built from with, at most, different CST value references: a
    /// streaming decoder builds the CFG before those references arrive
    /// and fills the use lists in afterwards, so the result equals
    /// `Cfg::build(f)` without deriving the graph twice.
    ///
    /// # Errors
    ///
    /// Returns a [`CfgError`] if the CST's structure is not the one the
    /// CFG was built from.
    pub fn refresh_uses(&mut self, f: &Function) -> Result<(), CfgError> {
        let mut b = Builder::new(f, std::mem::take(&mut self.preds), true);
        let walked = b.walk(&f.body, Frontier::Start);
        self.preds = b.preds;
        walked?;
        self.cond_uses = b.cond_uses;
        self.return_uses = b.return_uses;
        self.throw_uses = b.throw_uses;
        Ok(())
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Frontier {
    /// Function entry: the next executed block must be `ENTRY`.
    Start,
    /// Control falls through from this block.
    At(BlockId),
    /// Control cannot reach this point.
    Dead,
}

struct Builder<'a> {
    f: &'a Function,
    preds: Vec<Vec<Edge>>,
    labels: Vec<BlockId>,
    loops: Vec<BlockId>,
    handlers: Vec<BlockId>,
    seen: Vec<bool>,
    traversal: Vec<BlockId>,
    first: bool,
    cond_uses: Vec<(BlockId, crate::value::ValueId)>,
    return_uses: Vec<(BlockId, Option<crate::value::ValueId>)>,
    throw_uses: Vec<(BlockId, crate::value::ValueId)>,
    /// Replaying a built CFG: `preds` are final, and only the use lists
    /// are collected.
    replay: bool,
}

impl<'a> Builder<'a> {
    fn new(f: &'a Function, preds: Vec<Vec<Edge>>, replay: bool) -> Builder<'a> {
        let n = if replay { 0 } else { preds.len() };
        Builder {
            f,
            preds,
            labels: Vec::new(),
            loops: Vec::new(),
            handlers: Vec::new(),
            seen: vec![false; n],
            traversal: Vec::new(),
            first: true,
            cond_uses: Vec::new(),
            return_uses: Vec::new(),
            throw_uses: Vec::new(),
            replay,
        }
    }

    fn check_block(&mut self, b: BlockId) -> Result<(), CfgError> {
        if self.replay {
            return Ok(());
        }
        if b.index() >= self.preds.len() {
            return Err(CfgError::BadBlock(b));
        }
        if self.seen[b.index()] {
            return Err(CfgError::DuplicateBlock(b));
        }
        self.seen[b.index()] = true;
        self.traversal.push(b);
        Ok(())
    }

    fn edge(&mut self, from: BlockId, to: BlockId, kind: EdgeKind) {
        if !self.replay {
            self.preds[to.index()].push(Edge { from, kind });
        }
    }

    /// Connects `frontier` to `to`; returns whether `to` is live.
    fn connect(&mut self, frontier: Frontier, to: BlockId) -> Result<bool, CfgError> {
        match frontier {
            Frontier::Start => {
                if to != ENTRY {
                    return Err(CfgError::EntryNotFirst);
                }
                self.first = false;
                Ok(true)
            }
            Frontier::At(from) => {
                self.edge(from, to, EdgeKind::Normal);
                Ok(true)
            }
            Frontier::Dead => Ok(false),
        }
    }

    /// Adds the exception edges of block `b` to the innermost handler.
    fn exception_edges(&mut self, b: BlockId) {
        if self.replay {
            return;
        }
        if let Some(&h) = self.handlers.last() {
            let instrs = &self.f.block(b).instrs;
            for (k, i) in instrs.iter().enumerate() {
                if i.is_exceptional() {
                    self.edge(b, h, EdgeKind::Exception { upto: k as u32 });
                }
            }
        }
    }

    fn walk(&mut self, cst: &Cst, frontier: Frontier) -> Result<Frontier, CfgError> {
        match cst {
            Cst::Basic(b) => {
                self.check_block(*b)?;
                let live = self.connect(frontier, *b)?;
                if live {
                    self.exception_edges(*b);
                    Ok(Frontier::At(*b))
                } else {
                    Ok(Frontier::Dead)
                }
            }
            Cst::Seq(items) => {
                let mut fr = frontier;
                for c in items {
                    fr = self.walk(c, fr)?;
                }
                Ok(fr)
            }
            Cst::If {
                cond,
                then_br,
                else_br,
                join,
            } => {
                self.check_block(*join)?;
                if let Frontier::At(b) = frontier {
                    self.cond_uses.push((b, *cond));
                }
                let t = self.walk(then_br, frontier)?;
                if let Frontier::At(b) = t {
                    self.edge(b, *join, EdgeKind::Normal);
                }
                let e = self.walk(else_br, frontier)?;
                if let Frontier::At(b) = e {
                    self.edge(b, *join, EdgeKind::Normal);
                }
                let join_dead =
                    self.preds[join.index()].is_empty() && !matches!(frontier, Frontier::Start);
                if join_dead || matches!(frontier, Frontier::Dead) {
                    Ok(Frontier::Dead)
                } else {
                    // Control continues in the join block; code placed
                    // there can raise too.
                    self.exception_edges(*join);
                    Ok(Frontier::At(*join))
                }
            }
            Cst::Loop { header, body } => {
                self.check_block(*header)?;
                let live = self.connect(frontier, *header)?;
                if live {
                    self.exception_edges(*header);
                }
                self.loops.push(*header);
                let body_fr = self.walk(
                    body,
                    if live {
                        Frontier::At(*header)
                    } else {
                        Frontier::Dead
                    },
                )?;
                self.loops.pop();
                if let Frontier::At(b) = body_fr {
                    self.edge(b, *header, EdgeKind::Normal);
                }
                // A loop only exits through break/return/throw.
                Ok(Frontier::Dead)
            }
            Cst::Labeled { body, join } => {
                self.check_block(*join)?;
                self.labels.push(*join);
                let fr = self.walk(body, frontier)?;
                self.labels.pop();
                if let Frontier::At(b) = fr {
                    self.edge(b, *join, EdgeKind::Normal);
                }
                if self.preds[join.index()].is_empty() {
                    Ok(Frontier::Dead)
                } else {
                    self.exception_edges(*join);
                    Ok(Frontier::At(*join))
                }
            }
            Cst::Break(n) => {
                if let Frontier::At(b) = frontier {
                    let depth = self.labels.len();
                    let target = depth
                        .checked_sub(1 + *n as usize)
                        .map(|i| self.labels[i])
                        .ok_or(CfgError::BadBreakDepth(*n))?;
                    self.edge(b, target, EdgeKind::Normal);
                }
                Ok(Frontier::Dead)
            }
            Cst::Continue(n) => {
                if let Frontier::At(b) = frontier {
                    let depth = self.loops.len();
                    let target = depth
                        .checked_sub(1 + *n as usize)
                        .map(|i| self.loops[i])
                        .ok_or(CfgError::BadContinueDepth(*n))?;
                    self.edge(b, target, EdgeKind::Normal);
                }
                Ok(Frontier::Dead)
            }
            Cst::Return(v) => {
                if let Frontier::At(b) = frontier {
                    self.return_uses.push((b, *v));
                }
                Ok(Frontier::Dead)
            }
            Cst::Throw(v) => {
                // A throw inside a try region is caught by the innermost
                // handler; all instruction results of the block are
                // visible along the edge.
                if let Frontier::At(b) = frontier {
                    self.throw_uses.push((b, *v));
                    if let Some(&h) = self.handlers.last() {
                        let upto = self.f.block(b).instrs.len() as u32;
                        self.edge(b, h, EdgeKind::Exception { upto });
                    }
                }
                Ok(Frontier::Dead)
            }
            Cst::Try {
                body,
                handler_entry,
                handler,
                join,
            } => {
                // The handler and join are traversed *after* the body, so
                // a streaming decoder knows every exception edge into the
                // handler before the handler's own blocks arrive.
                self.handlers.push(*handler_entry);
                let body_fr = self.walk(body, frontier)?;
                self.handlers.pop();
                self.check_block(*handler_entry)?;
                if let Frontier::At(b) = body_fr {
                    self.edge(b, *join, EdgeKind::Normal);
                }
                let handler_live = !self.preds[handler_entry.index()].is_empty();
                if handler_live {
                    self.exception_edges(*handler_entry);
                }
                let h_fr = self.walk(
                    handler,
                    if handler_live {
                        Frontier::At(*handler_entry)
                    } else {
                        Frontier::Dead
                    },
                )?;
                self.check_block(*join)?;
                if let Frontier::At(b) = h_fr {
                    self.edge(b, *join, EdgeKind::Normal);
                }
                if self.preds[join.index()].is_empty() {
                    Ok(Frontier::Dead)
                } else {
                    self.exception_edges(*join);
                    Ok(Frontier::At(*join))
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{PrimKind, TypeTable};
    use crate::value::ValueId;

    fn two_block_if() -> (Function, TypeTable) {
        let types = TypeTable::new();
        let b = types.prim(PrimKind::Bool);
        let mut f = Function::new("t", None, vec![b], None);
        let then_b = f.add_block();
        let join = f.add_block();
        f.body = Cst::Seq(vec![
            Cst::Basic(ENTRY),
            Cst::If {
                cond: ValueId(0),
                then_br: Box::new(Cst::Basic(then_b)),
                else_br: Box::new(Cst::empty()),
                join,
            },
        ]);
        (f, types)
    }

    #[test]
    fn if_join_pred_order_is_then_else() {
        let (f, _) = two_block_if();
        let cfg = Cfg::build(&f).unwrap();
        let join = BlockId(2);
        let preds = cfg.preds_of(join);
        assert_eq!(preds.len(), 2);
        assert_eq!(preds[0].from, BlockId(1), "then edge first");
        assert_eq!(preds[1].from, ENTRY, "empty else edge second");
        assert!(cfg.reachable.iter().all(|&r| r));
    }

    #[test]
    fn loop_header_preds_entry_then_back() {
        let types = TypeTable::new();
        let b = types.prim(PrimKind::Bool);
        let mut f = Function::new("t", None, vec![b], None);
        let header = f.add_block();
        let body_b = f.add_block();
        let exit = f.add_block();
        f.body = Cst::Seq(vec![
            Cst::Basic(ENTRY),
            Cst::Labeled {
                body: Box::new(Cst::Loop {
                    header,
                    body: Box::new(Cst::Seq(vec![Cst::If {
                        cond: ValueId(0),
                        then_br: Box::new(Cst::Basic(body_b)),
                        else_br: Box::new(Cst::Break(0)),
                        join: f.add_block(),
                    }])),
                }),
                join: exit,
            },
        ]);
        let cfg = Cfg::build(&f).unwrap();
        let hp = cfg.preds_of(header);
        assert_eq!(hp.len(), 2);
        assert_eq!(hp[0].from, ENTRY);
        // back edge comes from the if-join block
        assert_eq!(hp[1].from, BlockId(4));
        let ep = cfg.preds_of(exit);
        assert_eq!(ep.len(), 1);
        assert_eq!(ep[0].from, header, "break edge from header block");
    }

    #[test]
    fn unreachable_join_when_both_branches_return() {
        let types = TypeTable::new();
        let b = types.prim(PrimKind::Bool);
        let mut f = Function::new("t", None, vec![b], None);
        let join = f.add_block();
        f.body = Cst::Seq(vec![
            Cst::Basic(ENTRY),
            Cst::If {
                cond: ValueId(0),
                then_br: Box::new(Cst::Return(None)),
                else_br: Box::new(Cst::Return(None)),
                join,
            },
        ]);
        let cfg = Cfg::build(&f).unwrap();
        assert!(!cfg.reachable[join.index()]);
        assert!(cfg.preds_of(join).is_empty());
    }

    #[test]
    fn bad_break_depth_is_error() {
        let types = TypeTable::new();
        let _ = types;
        let mut f = Function::new("t", None, vec![], None);
        let _ = &mut f;
        f.body = Cst::Seq(vec![Cst::Basic(ENTRY), Cst::Break(0)]);
        assert_eq!(Cfg::build(&f).unwrap_err(), CfgError::BadBreakDepth(0));
    }

    #[test]
    fn duplicate_block_is_error() {
        let mut f = Function::new("t", None, vec![], None);
        f.body = Cst::Seq(vec![Cst::Basic(ENTRY), Cst::Basic(ENTRY)]);
        assert_eq!(Cfg::build(&f).unwrap_err(), CfgError::DuplicateBlock(ENTRY));
    }

    #[test]
    fn entry_must_be_first() {
        let mut f = Function::new("t", None, vec![], None);
        let b1 = f.add_block();
        f.body = Cst::Seq(vec![Cst::Basic(b1), Cst::Basic(ENTRY)]);
        assert_eq!(Cfg::build(&f).unwrap_err(), CfgError::EntryNotFirst);
    }

    #[test]
    fn exception_edges_reach_handler() {
        use crate::instr::Instr;
        use crate::primops;
        let mut types = TypeTable::new();
        let int = types.prim(PrimKind::Int);
        let mut f = Function::new("t", None, vec![int, int], None);
        let body_b = f.add_block();
        let handler_entry = f.add_block();
        let join = f.add_block();
        let div = primops::find(PrimKind::Int, "div").unwrap();
        f.add_instr(
            &mut types,
            body_b,
            Instr::XPrimitive {
                ty: int,
                op: div,
                args: vec![f.param_value(0), f.param_value(1)],
            },
        )
        .unwrap();
        f.body = Cst::Seq(vec![
            Cst::Basic(ENTRY),
            Cst::Try {
                body: Box::new(Cst::Basic(body_b)),
                handler_entry,
                handler: Box::new(Cst::empty()),
                join,
            },
        ]);
        let cfg = Cfg::build(&f).unwrap();
        let hp = cfg.preds_of(handler_entry);
        assert_eq!(hp.len(), 1);
        assert_eq!(hp[0].from, body_b);
        assert_eq!(hp[0].kind, EdgeKind::Exception { upto: 0 });
        // join has two preds: body fall-through and handler fall-through
        assert_eq!(cfg.preds_of(join).len(), 2);
    }

    #[test]
    fn throw_inside_try_goes_to_handler() {
        let mut types = TypeTable::new();
        let _ = &mut types;
        let mut f = Function::new("t", None, vec![], None);
        let body_b = f.add_block();
        let handler_entry = f.add_block();
        let join = f.add_block();
        f.body = Cst::Seq(vec![
            Cst::Basic(ENTRY),
            Cst::Try {
                body: Box::new(Cst::Seq(vec![Cst::Basic(body_b), Cst::Throw(ValueId(0))])),
                handler_entry,
                handler: Box::new(Cst::empty()),
                join,
            },
        ]);
        let cfg = Cfg::build(&f).unwrap();
        let hp = cfg.preds_of(handler_entry);
        assert_eq!(hp.len(), 1);
        assert!(matches!(hp[0].kind, EdgeKind::Exception { .. }));
        // join reachable only through the handler
        assert_eq!(cfg.preds_of(join).len(), 1);
        assert_eq!(cfg.preds_of(join)[0].from, handler_entry);
    }
}
