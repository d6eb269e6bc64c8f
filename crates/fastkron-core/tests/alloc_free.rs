//! Counting-allocator proof of the fused execution path's contract: after
//! [`Workspace`] creation, executing a whole factor chain into
//! caller-provided output performs **zero heap allocations** — no per-step
//! intermediates, no transpose scratch, nothing.
//!
//! The test binary installs a global allocator that counts allocations.
//! The problems here run below the parallel-dispatch FLOP threshold, so
//! auto-selection picks the serial path; the grouped-chain tests force
//! row tiles and wide mode with `set_partition`, and warm each mode with
//! one execute before counting, since the persistent pool's task handoff
//! is allocation-free only once its queue is warm.
//!
//! The counter is process-wide and the test harness runs tests on parallel
//! threads, so every test holds [`serial`]'s lock for its whole body: one
//! test's set-up allocations must not land in another's counting window.
//! Other threads still allocate outside the lock: the harness reports a
//! finished test and spawns the next test's thread, and the global pool's
//! workers start up after the first execute. So each counting window opens
//! only once no allocation has happened for a while.

use fastkron_core::exec::Workspace;
use kron_core::{Element, FactorShape, KronProblem, Matrix};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: a pure pass-through to `System` — every layout/pointer
// contract is forwarded unchanged; the only addition is a relaxed
// counter bump, which touches no allocator state.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    // SAFETY: pass-through to `System::realloc`, contracts forwarded.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

static SERIAL: Mutex<()> = Mutex::new(());

/// How long the process must go without allocating before a window opens.
const QUIET: Duration = Duration::from_millis(20);

/// Serializes the tests of this binary. The guarded data is `()`, so a
/// test that panicked while holding the lock leaves nothing torn and the
/// poison is cleared rather than failing every later test.
fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Allocations performed while running `f`, counted from the first moment
/// after the process has gone [`QUIET`] long without allocating.
fn allocations_during<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let mut last = ALLOCATIONS.load(Ordering::SeqCst);
    loop {
        std::thread::sleep(QUIET);
        let now = ALLOCATIONS.load(Ordering::SeqCst);
        if now == last {
            break;
        }
        last = now;
    }
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let result = f();
    (ALLOCATIONS.load(Ordering::SeqCst) - before, result)
}

fn seq_matrix(rows: usize, cols: usize, start: usize) -> Matrix<f64> {
    Matrix::from_fn(rows, cols, |r, c| {
        ((start + r * cols + c) % 11) as f64 - 5.0
    })
}

fn assert_allocation_free(problem: &KronProblem, label: &str) {
    let x = seq_matrix(problem.m, problem.input_cols(), 1);
    let fs: Vec<Matrix<f64>> = problem
        .factors
        .iter()
        .enumerate()
        .map(|(i, s)| seq_matrix(s.p, s.q, i + 2))
        .collect();
    let refs: Vec<&Matrix<f64>> = fs.iter().collect();

    let mut workspace = Workspace::new(problem);
    let mut y = Matrix::zeros(problem.m, problem.output_cols());
    // Warm-up proves correctness-independent state (nothing lazily grows).
    workspace.execute_into(&x, &refs, &mut y).unwrap();

    let (allocs, result) = allocations_during(|| workspace.execute_into(&x, &refs, &mut y));
    result.unwrap();
    assert_eq!(
        allocs, 0,
        "{label}: fused exec path allocated {allocs} times after Workspace creation"
    );

    // The result is still right, not just cheap.
    let oracle = kron_core::naive::kron_matmul_naive(&x, &refs).unwrap();
    kron_core::assert_matrices_close(&y, &oracle, label);
}

#[test]
fn uniform_chain_is_allocation_free() {
    let _serial = serial();
    assert_allocation_free(
        &KronProblem::uniform(2, 4, 3).unwrap(),
        "uniform 4^3 (3 factor steps)",
    );
}

#[test]
fn long_chain_is_allocation_free() {
    let _serial = serial();
    // Six factor steps: per-step allocation would show up six-fold.
    assert_allocation_free(
        &KronProblem::uniform(1, 2, 6).unwrap(),
        "uniform 2^6 (6 factor steps)",
    );
}

#[test]
fn mixed_rectangular_chain_is_allocation_free() {
    let _serial = serial();
    assert_allocation_free(
        &KronProblem::new(
            2,
            vec![
                FactorShape::new(2, 3),
                FactorShape::new(3, 2),
                FactorShape::new(4, 4),
            ],
        )
        .unwrap(),
        "mixed 2×3 ⊗ 3×2 ⊗ 4×4",
    );
}

/// A chain the workspace cuts into group steps on hosts with AVX-512F
/// (4⁴: two runs of two factors for both f32 and f64), executed in every
/// partition mode. The group plan lives in the workspace and the group
/// kernel's buffers on the stack, so no mode allocates per execute.
fn assert_grouped_chain_allocation_free<T: Element>() {
    let problem = KronProblem::uniform(2, 4, 4).unwrap();
    let x = Matrix::<T>::from_fn(2, problem.input_cols(), |r, c| {
        T::from_f64(((r * 7 + c) % 11) as f64 - 5.0)
    });
    let fs: Vec<Matrix<T>> = (0..4)
        .map(|i| Matrix::from_fn(4, 4, |r, c| T::from_f64(((i + r * 4 + c) % 5) as f64 - 2.0)))
        .collect();
    let refs: Vec<&Matrix<T>> = fs.iter().collect();
    let oracle = kron_core::naive::kron_matmul_naive(&x, &refs).unwrap();
    let mut workspace = Workspace::<T>::new(&problem);
    let mut y = Matrix::zeros(2, problem.output_cols());
    for (partition, mode) in [((1, 1), "serial"), ((2, 1), "row tiles"), ((2, 2), "wide")] {
        workspace.set_partition(Some(partition));
        workspace.execute_into(&x, &refs, &mut y).unwrap();
        let (allocs, result) = allocations_during(|| workspace.execute_into(&x, &refs, &mut y));
        result.unwrap();
        let label = format!("grouped 4^4 {} ({mode})", T::DTYPE.rust_name());
        assert_eq!(allocs, 0, "{label}: allocated {allocs} times per execute");
        kron_core::assert_matrices_close(&y, &oracle, &label);
    }
}

#[test]
fn grouped_chain_is_allocation_free_in_every_mode_f32() {
    let _serial = serial();
    assert_grouped_chain_allocation_free::<f32>();
}

#[test]
fn grouped_chain_is_allocation_free_in_every_mode_f64() {
    let _serial = serial();
    assert_grouped_chain_allocation_free::<f64>();
}

#[test]
fn old_per_step_path_allocated_and_fused_does_not() {
    let _serial = serial();
    // Regression guard on the motivation itself: the shuffle reference
    // allocates per factor step (reshape-GEMM-transpose materializes fresh
    // matrices); the fused path must not.
    let problem = KronProblem::uniform(2, 4, 3).unwrap();
    let x = seq_matrix(2, 64, 3);
    let fs: Vec<Matrix<f64>> = (0..3).map(|i| seq_matrix(4, 4, i)).collect();
    let refs: Vec<&Matrix<f64>> = fs.iter().collect();

    let (shuffle_allocs, _) =
        allocations_during(|| kron_core::shuffle::kron_matmul_shuffle(&x, &refs).unwrap());
    assert!(
        shuffle_allocs >= problem.num_factors() as u64,
        "shuffle reference was expected to allocate per step, saw {shuffle_allocs}"
    );

    let mut workspace = Workspace::<f64>::new(&problem);
    let mut y = Matrix::zeros(2, 64);
    workspace.execute_into(&x, &refs, &mut y).unwrap();
    let (fused_allocs, _) = allocations_during(|| workspace.execute_into(&x, &refs, &mut y));
    assert_eq!(fused_allocs, 0);
}
