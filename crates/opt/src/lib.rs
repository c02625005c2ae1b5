//! # safetsa-opt
//!
//! Producer-side optimization of SafeTSA programs (§8 of the paper):
//! the code *producer* runs constant propagation, common subexpression
//! elimination, and dead-code elimination, and ships the optimized
//! program — the format transports the result tamper-proof, which is
//! the paper's headline capability (null-check and bounds-check
//! elimination whose results survive transport).
//!
//! * [`constprop`] — constant folding over the SSA graph,
//! * [`cse`] — dominator-scoped available-expression CSE with the `Mem`
//!   pseudo-value for memory dependences (stores and calls define a new
//!   memory state; loads key on the current one),
//! * [`checkelim`] — check elimination beyond CSE's reach (no
//!   dominating identical check required): safe-ref plane witnesses
//!   retire `nullcheck`s, and range plus liveness facts from
//!   `safetsa-analysis` delete dead proven `indexcheck`s,
//! * [`loadfwd`] — redundant-load elimination and store-to-load
//!   forwarding over the allocation-site alias/escape facts; strictly
//!   stronger than CSE's `Mem` model (forwards stored values, keeps
//!   facts alive across calls for non-escaping receivers),
//! * [`dse`] — dead-store elimination: stores overwritten before any
//!   observer, and stores to non-escaping allocations never read,
//! * [`dce`] — liveness-based dead instruction and phi removal.
//!
//! Baseline check elimination falls out of CSE: a dominating
//! `nullcheck` (`indexcheck`) of the same value(s) makes later ones
//! redundant; the later check's uses are rewired to the dominating
//! safe value. [`checkelim`] goes beyond that, e.g. removing the very
//! *first* check of a freshly allocated object.
//!
//! # Examples
//!
//! ```
//! let prog = safetsa_frontend::compile(
//!     "class A { int f; static int g(A a) { return a.f + a.f; } }",
//! )?;
//! let mut lowered = safetsa_ssa::lower_program(&prog)?;
//! let stats = safetsa_opt::optimize_module(&mut lowered.module);
//! assert!(stats.null_checks_after <= stats.null_checks_before);
//! safetsa_core::verify::verify_module(&lowered.module)?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub mod checkelim;
pub mod constprop;
pub mod cse;
pub mod dce;
pub mod dse;
mod fixup;
pub mod loadfwd;

use safetsa_core::function::Function;
use safetsa_core::instr::Instr;
use safetsa_core::module::Module;
use safetsa_core::types::TypeTable;
use safetsa_telemetry::Telemetry;

/// How CSE models memory dependences.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MemModel {
    /// §8's single `Mem` pseudo-value: any store or call invalidates
    /// every load.
    #[default]
    Monolithic,
    /// §8's proposed improvement (field analysis, the paper's citation
    /// \[15\]): `Mem` partitioned by field name and by array element
    /// type; only calls invalidate everything. Sound because of type
    /// separation.
    FieldPartitioned,
}

/// Which passes to run (ablation knobs for the pass-contribution
/// breakdown the paper reports in §8).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Passes {
    /// Constant propagation and folding.
    pub constprop: bool,
    /// Common subexpression elimination (with `Mem`).
    pub cse: bool,
    /// Check elimination (safe-ref witnesses, range + liveness analysis).
    pub checkelim: bool,
    /// Alias/escape-driven load forwarding.
    pub loadfwd: bool,
    /// Alias/escape-driven dead-store elimination.
    pub dse: bool,
    /// Dead code and phi elimination.
    pub dce: bool,
    /// Memory model used by CSE.
    pub mem: MemModel,
}

impl Passes {
    /// Everything on (the paper's "SafeTSA optimized" configuration).
    pub const ALL: Passes = Passes {
        constprop: true,
        cse: true,
        checkelim: true,
        loadfwd: true,
        dse: true,
        dce: true,
        mem: MemModel::Monolithic,
    };

    /// Everything on, with the field-partitioned memory extension.
    pub const ALL_FIELD_MEM: Passes = Passes {
        constprop: true,
        cse: true,
        checkelim: true,
        loadfwd: true,
        dse: true,
        dce: true,
        mem: MemModel::FieldPartitioned,
    };

    /// Nothing on.
    pub const NONE: Passes = Passes {
        constprop: false,
        cse: false,
        checkelim: false,
        loadfwd: false,
        dse: false,
        dce: false,
        mem: MemModel::Monolithic,
    };
}

/// Aggregate statistics for Figure 6.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OptStats {
    /// Instructions before optimization.
    pub instrs_before: usize,
    /// Instructions after.
    pub instrs_after: usize,
    /// Phi nodes before.
    pub phis_before: usize,
    /// Phi nodes after.
    pub phis_after: usize,
    /// `nullcheck` instructions before.
    pub null_checks_before: usize,
    /// `nullcheck` instructions after.
    pub null_checks_after: usize,
    /// `indexcheck` instructions before.
    pub index_checks_before: usize,
    /// `indexcheck` instructions after.
    pub index_checks_after: usize,
    /// Instructions removed by constant propagation.
    pub removed_by_constprop: usize,
    /// Instructions removed by CSE.
    pub removed_by_cse: usize,
    /// Checks rewritten away or deleted by check elimination.
    pub removed_by_checkelim: usize,
    /// Loads removed by load forwarding.
    pub removed_by_loadfwd: usize,
    /// Stores removed by dead-store elimination.
    pub removed_by_dse: usize,
    /// Instructions (and phis) removed by DCE.
    pub removed_by_dce: usize,
    /// Per-analysis telemetry from check elimination.
    pub checkelim: checkelim::CheckElimStats,
    /// Per-analysis telemetry from load forwarding (includes the
    /// alias/escape analysis counters).
    pub loadfwd: loadfwd::LoadFwdStats,
    /// Telemetry from dead-store elimination.
    pub dse: dse::DseStats,
}

impl OptStats {
    /// Accumulates another function's statistics.
    pub fn add(&mut self, o: &OptStats) {
        self.instrs_before += o.instrs_before;
        self.instrs_after += o.instrs_after;
        self.phis_before += o.phis_before;
        self.phis_after += o.phis_after;
        self.null_checks_before += o.null_checks_before;
        self.null_checks_after += o.null_checks_after;
        self.index_checks_before += o.index_checks_before;
        self.index_checks_after += o.index_checks_after;
        self.removed_by_constprop += o.removed_by_constprop;
        self.removed_by_cse += o.removed_by_cse;
        self.removed_by_checkelim += o.removed_by_checkelim;
        self.removed_by_loadfwd += o.removed_by_loadfwd;
        self.removed_by_dse += o.removed_by_dse;
        self.removed_by_dce += o.removed_by_dce;
        self.checkelim.add(&o.checkelim);
        self.loadfwd.add(&o.loadfwd);
        self.dse.add(&o.dse);
    }
}

fn count_checks(f: &Function) -> (usize, usize) {
    (
        f.count_instrs(|i| matches!(i, Instr::NullCheck { .. })),
        f.count_instrs(|i| matches!(i, Instr::IndexCheck { .. })),
    )
}

/// Optimizes one function with the selected passes, returning the new
/// function and its statistics.
pub fn optimize_function(types: &TypeTable, f: &Function, passes: Passes) -> (Function, OptStats) {
    let mut stats = OptStats {
        instrs_before: f.instr_count(),
        phis_before: f.phi_count(),
        ..OptStats::default()
    };
    let (nb, ib) = count_checks(f);
    stats.null_checks_before = nb;
    stats.index_checks_before = ib;

    let mut cur = f.clone();
    // Iterate to a small fixpoint: constant propagation can expose CSE,
    // CSE exposes dead code, and DCE can expose more constants.
    for _ in 0..3 {
        let mut changed = false;
        if passes.constprop {
            let (next, removed) = constprop::run(types, &cur);
            stats.removed_by_constprop += removed;
            changed |= removed > 0;
            cur = next;
        }
        if passes.cse {
            let (next, removed) = cse::run_with(types, &cur, passes.mem);
            stats.removed_by_cse += removed;
            changed |= removed > 0;
            cur = next;
        }
        if passes.checkelim {
            let (next, ce) = checkelim::run(types, &cur);
            stats.removed_by_checkelim += ce.removed();
            stats.checkelim.add(&ce);
            changed |= ce.removed() > 0;
            cur = next;
        }
        if passes.loadfwd {
            let (next, lf) = loadfwd::run(types, &cur);
            stats.removed_by_loadfwd += lf.removed();
            stats.loadfwd.add(&lf);
            changed |= lf.removed() > 0;
            cur = next;
        }
        if passes.dse {
            let (next, ds) = dse::run(types, &cur);
            stats.removed_by_dse += ds.removed();
            stats.dse.add(&ds);
            changed |= ds.removed() > 0;
            cur = next;
        }
        if passes.dce {
            let (next, removed) = dce::run(&cur);
            stats.removed_by_dce += removed;
            changed |= removed > 0;
            cur = next;
        }
        if !changed {
            break;
        }
    }

    stats.instrs_after = cur.instr_count();
    stats.phis_after = cur.phi_count();
    let (na, ia) = count_checks(&cur);
    stats.null_checks_after = na;
    stats.index_checks_after = ia;
    (cur, stats)
}

/// Optimizes every function of a module in place with all passes.
pub fn optimize_module(m: &mut Module) -> OptStats {
    optimize(m, Passes::ALL, &Telemetry::disabled())
}

/// The canonical entry point: optimizes every function of a module in
/// place with the selected passes, and — when the registry is enabled —
/// records the optimization wall time (`opt.optimize_ns`) and the exact
/// quantities behind the paper's Tables 1–3: instruction/phi counts
/// before and after, per-pass removal counters (`opt.constprop.removed`
/// / `opt.cse.removed` / `opt.dce.removed`), and the check-elimination
/// plane (`opt.null_checks.{before,after,eliminated}`, likewise
/// `opt.index_checks`). A disabled registry costs nothing beyond the
/// [`OptStats`] bookkeeping the passes already do.
///
/// In debug/test builds the optimized module is re-validated with
/// [`safetsa_core::verify::verify_module`]: every pass must preserve
/// the type-separation and safety invariants the format enforces on
/// the wire.
pub fn optimize(m: &mut Module, passes: Passes, tm: &Telemetry) -> OptStats {
    let stats = tm.time("opt.optimize_ns", || {
        let mut total = OptStats::default();
        let functions = std::mem::take(&mut m.functions);
        for f in functions {
            let (g, stats) = optimize_function(&m.types, &f, passes);
            total.add(&stats);
            m.functions.push(g);
        }
        #[cfg(debug_assertions)]
        if let Err(e) = safetsa_core::verify::verify_module(m) {
            panic!("optimizer produced an unverifiable module: {e}");
        }
        total
    });
    record_stats(&stats, &passes, tm);
    stats
}

/// Records one [`OptStats`] into the `opt.*` and `analysis.*` counter
/// planes. The loadfwd and dse key planes (including the alias and
/// escape `analysis.*` keys loadfwd feeds) are emitted only when that
/// pass is enabled; every other key is always emitted, zero when its
/// pass is off.
pub fn record_stats(stats: &OptStats, passes: &Passes, tm: &Telemetry) {
    if !tm.is_enabled() {
        return;
    }
    tm.add("opt.instrs.before", stats.instrs_before as u64);
    tm.add("opt.instrs.after", stats.instrs_after as u64);
    tm.add("opt.phis.before", stats.phis_before as u64);
    tm.add("opt.phis.after", stats.phis_after as u64);
    tm.add("opt.null_checks.before", stats.null_checks_before as u64);
    tm.add("opt.null_checks.after", stats.null_checks_after as u64);
    tm.add(
        "opt.null_checks.eliminated",
        stats.null_checks_before.saturating_sub(stats.null_checks_after) as u64,
    );
    tm.add("opt.index_checks.before", stats.index_checks_before as u64);
    tm.add("opt.index_checks.after", stats.index_checks_after as u64);
    tm.add(
        "opt.index_checks.eliminated",
        stats
            .index_checks_before
            .saturating_sub(stats.index_checks_after) as u64,
    );
    tm.add("opt.constprop.removed", stats.removed_by_constprop as u64);
    tm.add("opt.cse.removed", stats.removed_by_cse as u64);
    tm.add("opt.checkelim.removed", stats.removed_by_checkelim as u64);
    tm.add("opt.dce.removed", stats.removed_by_dce as u64);
    let ce = &stats.checkelim;
    tm.add("opt.checkelim.null_converted", ce.null_converted as u64);
    tm.add("opt.checkelim.index_deleted", ce.index_deleted as u64);
    tm.add("analysis.range.facts", ce.range_facts);
    tm.add("analysis.range.checks_proven", ce.index_proven as u64);
    tm.add("analysis.range.fixpoint_iterations", ce.range_iterations);
    if passes.loadfwd {
        let lf = &stats.loadfwd;
        tm.add("opt.loadfwd.removed", stats.removed_by_loadfwd as u64);
        tm.add("opt.loadfwd.store_forwarded", lf.store_forwarded as u64);
        tm.add("opt.loadfwd.load_reused", lf.load_reused as u64);
        tm.add("opt.loadfwd.kept_across_calls", lf.kept_across_calls as u64);
        tm.add("analysis.alias.sites", lf.alias_sites);
        tm.add("analysis.alias.facts", lf.alias_facts);
        tm.add("analysis.alias.fixpoint_iterations", lf.alias_iterations);
        tm.add("analysis.escape.no_escape", lf.escape_no);
        tm.add("analysis.escape.arg_escape", lf.escape_arg);
        tm.add("analysis.escape.global_escape", lf.escape_global);
    }
    if passes.dse {
        tm.add("opt.dse.removed", stats.removed_by_dse as u64);
        tm.add("opt.dse.overwritten", stats.dse.overwritten as u64);
        tm.add("opt.dse.never_read", stats.dse.never_read as u64);
    }
}
