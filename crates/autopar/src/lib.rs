//! # autopar — a model of the automatic parallelizing compilers
//!
//! §5–§7 of the paper report that the manufacturer-supplied automatic
//! parallelizing compilers of both the HP Exemplar and the Tera MTA were
//! "unable to identify any practical opportunities for parallelization" in
//! either benchmark, for identifiable reasons:
//!
//! 1. shared scalar induction variables (`num_intervals`),
//! 2. data-dependent store subscripts (`intervals[num_intervals]`),
//! 3. overlapping writes across iterations (`masking` regions of
//!    influence),
//! 4. chains of function calls and pointer operations that thwart
//!    dependence analysis,
//!
//! and that even the manually transformed programs were only parallelized
//! once explicit parallel-loop pragmas were added.
//!
//! This crate reproduces that compiler behaviour — and then builds the
//! compiler the paper wished for:
//!
//! * a loop-nest IR ([`ir`]);
//! * the conservative dependence analyzer ([`deps`]) with the standard
//!   scalar/affine (GCD) subscript tests — the 1998 stance, on which the
//!   paper's Programs 1–4 ([`programs`]) reach exactly the published
//!   verdicts;
//! * a worklist bitset dataflow engine ([`dataflow`]: reaching
//!   definitions + liveness) solved to the least fixpoint of a
//!   union/monotone lattice;
//! * recognition on top of the solved facts ([`reduction`]): associative
//!   reductions, scalar/array privatization, the `out[count++]`
//!   compaction idiom, and interprocedural purity summaries — each
//!   clearing (and each residual rejection) carrying statement-level
//!   provenance in canal-style reports ([`report`]);
//! * an emission pass ([`emit`]) turning parallel verdicts into
//!   [`sthreads::Schedule`] annotations, executed by the `repro
//!   table-auto` experiment against the manual transformations.
//!
//! The dataflow pass parallelizes Programs 1 and 2 *without* pragmas and
//! still rejects Programs 3 and 4 for their genuinely carried
//! dependences — see `docs/AUTOPAR.md` for the living auto-vs-manual
//! comparison.

#![warn(missing_docs)]

pub mod dataflow;
pub mod deps;
pub mod emit;
pub mod ir;
pub mod programs;
pub mod reduction;
pub mod report;

pub use deps::{analyze_loop, analyze_loop_with, AnalysisOptions};
pub use emit::{emit_plan, ParallelPlan};
pub use ir::{ArrayRef, Expr, LoopNest, Node, ReduceOp, Reduction, Stmt};
pub use reduction::{
    analyze_loop_dataflow, DataflowOptions, DataflowReport, DataflowVerdict, Summaries,
};
pub use report::{ClearedKind, Clearing, LoopVerdict, Reason, ReasonKind, Report};
