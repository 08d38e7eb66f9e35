//! The emission pass: turn a "parallelizable" verdict into an executable
//! plan — an [`sthreads`] schedule choice plus the privatization /
//! reduction / compaction clauses the runtime must honor — rendered as a
//! pragma-style annotation.
//!
//! The schedule heuristic mirrors how the paper's manual transformations
//! were scheduled:
//!
//! * loops whose iterations have *data-dependent* cost — a compaction
//!   store (output size varies per iteration) or cleared calls (work
//!   depends on the data) — self-schedule ([`Schedule::Dynamic`]), like
//!   Program 4's next-unprocessed-threat counter;
//! * otherwise, loops with opaque subscripts (irregular access, uniform
//!   cost) use [`Schedule::Stealing`] to keep contiguous per-worker runs
//!   while rebalancing;
//! * dense affine loops block statically ([`Schedule::Static`]), the
//!   paper's `(chunk*n)/num_chunks` expression.

use crate::ir::{Expr, LoopNest, Node, Reduction};
use crate::reduction::DataflowVerdict;
use sthreads::Schedule;

/// An executable parallelization plan for one loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParallelPlan {
    /// The loop the plan is for.
    pub loop_label: String,
    /// Chosen iteration-to-worker schedule.
    pub schedule: Schedule,
    /// Reductions to privatize and combine after the loop.
    pub reductions: Vec<Reduction>,
    /// Scalars and arrays given per-iteration copies (last value out).
    pub privatized: Vec<String>,
    /// Compacted `(array, counter)` outputs: workers fill private
    /// sections, concatenated in iteration order after the loop.
    pub compactions: Vec<(String, String)>,
}

impl ParallelPlan {
    /// Render the plan as a pragma-style annotation, e.g.
    /// `#pragma sthreads parallel schedule(dynamic) reduction(count:num_intervals) compaction(intervals[num_intervals])`.
    pub fn annotation(&self) -> String {
        let mut out = format!("#pragma sthreads parallel schedule({})", self.schedule);
        for r in &self.reductions {
            out.push_str(&format!(" reduction({}:{})", r.op, r.name));
        }
        if !self.privatized.is_empty() {
            out.push_str(&format!(" lastprivate({})", self.privatized.join(",")));
        }
        for (array, counter) in &self.compactions {
            out.push_str(&format!(" compaction({array}[{counter}])"));
        }
        out
    }
}

/// Does any subscript in the nest fall outside affine-in-some-variable
/// analysis (the irregular-access signal for the schedule heuristic)?
fn any_opaque_subscript(l: &LoopNest) -> bool {
    fn walk(nodes: &[Node]) -> bool {
        nodes.iter().any(|n| match n {
            Node::Stmt(s) => s
                .arrays
                .iter()
                .any(|a| a.indices.iter().any(|e| matches!(e, Expr::Opaque(_)))),
            Node::Loop(l) => walk(&l.body),
        })
    }
    walk(&l.body)
}

/// Emit the plan for a loop the dataflow pass (or the programmer's
/// pragma) declared parallel; `None` for rejected loops.
pub fn emit_plan(l: &LoopNest, v: &DataflowVerdict) -> Option<ParallelPlan> {
    if !v.verdict.parallel {
        return None;
    }
    let data_dependent_cost = !v.compactions.is_empty() || !v.cleared_calls.is_empty();
    let schedule = if data_dependent_cost {
        Schedule::Dynamic
    } else if any_opaque_subscript(l) {
        Schedule::Stealing
    } else {
        Schedule::Static
    };
    let mut privatized = v.privatized_scalars.clone();
    privatized.extend(v.privatized_arrays.iter().cloned());
    Some(ParallelPlan {
        loop_label: l.label.clone(),
        schedule,
        reductions: v.reductions.clone(),
        privatized,
        compactions: v.compactions.clone(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{LoopNest, Stmt};
    use crate::reduction::{analyze_loop_dataflow, DataflowOptions};

    fn plan(l: &LoopNest, opts: &DataflowOptions) -> Option<ParallelPlan> {
        emit_plan(l, &analyze_loop_dataflow(l, opts))
    }

    #[test]
    fn rejected_loops_emit_no_plan() {
        let l = LoopNest::new("for i", "i").stmt(Stmt::new("x = f(i)").writes(&["x"]).call("f"));
        assert_eq!(plan(&l, &DataflowOptions::new()), None);
    }

    #[test]
    fn dense_affine_loops_schedule_statically() {
        let l = crate::programs::affine_vector_loop();
        let p = plan(&l, &DataflowOptions::new()).expect("parallel");
        assert_eq!(p.schedule, Schedule::Static);
        assert_eq!(p.annotation(), "#pragma sthreads parallel schedule(static)");
    }

    #[test]
    fn compaction_loops_self_schedule() {
        let l = LoopNest::new("for i", "i").stmt(
            Stmt::new("out[n] = a[i]; n++")
                .reads(&["n"])
                .writes(&["n"])
                .reduces_op("n", crate::ir::ReduceOp::Count)
                .array("out", vec![Expr::Opaque("n".into())], true)
                .array("a", vec![Expr::var("i")], false),
        );
        let p = plan(&l, &DataflowOptions::new()).expect("parallel");
        assert_eq!(p.schedule, Schedule::Dynamic);
        let text = p.annotation();
        assert!(text.contains("reduction(count:n)"), "{text}");
        assert!(text.contains("compaction(out[n])"), "{text}");
    }

    #[test]
    fn irregular_but_uniform_loops_steal() {
        // Opaque read subscript, no calls, no compaction.
        let l = LoopNest::new("for i", "i").stmt(
            Stmt::new("a[i] = b[idx]")
                .array("a", vec![Expr::var("i")], true)
                .array("b", vec![Expr::Opaque("idx".into())], false),
        );
        let p = plan(&l, &DataflowOptions::new()).expect("parallel");
        assert_eq!(p.schedule, Schedule::Stealing);
    }

    #[test]
    fn pragma_loops_still_get_a_plan() {
        let l = crate::programs::program2_threat_chunked(true);
        let p = plan(&l, &DataflowOptions::benchmark()).expect("pragma loops run parallel");
        assert_eq!(p.loop_label, l.label);
    }
}
