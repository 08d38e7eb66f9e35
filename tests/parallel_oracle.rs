//! Regression oracle for the harness's own parallelization: measuring the
//! workload across host threads must produce **byte-identical** results
//! to the sequential path — the same "parallelization must not change
//! program output" bar the paper holds its benchmark parallelizations to,
//! applied to our measurement harness.

use std::sync::OnceLock;
use tera_c3i::eval_core::{Workload, WorkloadScale};
use tera_c3i::sthreads::Schedule;

/// The sequential oracle: one worker, measured once per test binary.
fn oracle() -> &'static Workload {
    static W: OnceLock<Workload> = OnceLock::new();
    W.get_or_init(|| Workload::build_with(WorkloadScale::Reduced, 1, Schedule::Dynamic))
}

#[test]
fn parallel_workload_measurement_equals_sequential_oracle() {
    // Full-struct equality covers every OpCounts of every scenario
    // (OpCounts is integer-only, so == is exact, not approximate).
    for schedule in [Schedule::Static, Schedule::Dynamic, Schedule::Stealing] {
        for n_threads in [1usize, 2, 8] {
            let w = Workload::build_with(WorkloadScale::Reduced, n_threads, schedule);
            assert_eq!(
                &w,
                oracle(),
                "workload diverged at {schedule:?} x {n_threads} threads"
            );
        }
    }
}

#[test]
fn default_build_equals_explicit_sequential_build() {
    // `Workload::build` picks the host thread count and dynamic
    // scheduling; whatever it picked, the result must equal the oracle.
    let w = Workload::build(WorkloadScale::Reduced);
    assert_eq!(&w, oracle());
}
