//! Criterion benchmarks whose numbers feed a report.
//!
//! * `kernels` — each c3i hot kernel against its pinned baseline (LOS
//!   recurrence, ring iteration, engagement scan); the `ci.sh` smoke run
//!   and the EXPERIMENTS.md kernel table.
//! * `overhead` — sthreads region dispatch: fresh scoped threads vs the
//!   persistent pool, per-task dispatch cost, and the fine-grain task
//!   storm; the EXPERIMENTS.md `spawn_overhead` numbers.
