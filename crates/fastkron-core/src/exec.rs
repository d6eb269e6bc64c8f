//! The fused sliced-multiply execution path: Algorithm 1 with zero
//! intermediate allocations and no transpose pass.
//!
//! This is the CPU analog of the paper's central claim — that the shuffle
//! algorithm's cost is dominated by its memory shuffle (reshape → GEMM →
//! transpose-inner), and that writing each output element *directly* to
//! column `q·K/P + slice` in the kernel epilogue removes the transpose
//! entirely. The module mirrors the emulated CUDA kernel's four steps
//! ([`crate::kernel::SlicedMultiplyKernel`]) at row granularity:
//!
//! 1. **Workspace** ([`Workspace`]): two ping-pong buffers, each sized once
//!    from [`KronProblem::max_intermediate_elems`]. After construction, no
//!    factor step allocates — intermediates bounce between the two buffers,
//!    and the final step writes straight into the caller's output matrix.
//! 2. **Packed slice panels**: each microkernel invocation transposes a
//!    block of consecutive slices into a `P × width` panel held on the
//!    stack, so the multiply's inner loop reads unit-stride (the CPU
//!    equivalent of the kernel's `ShiftGToS` staging into shared memory).
//!    The block is as wide as the register tile that will consume it: 16
//!    slices (f32) or 8 (f64) when the 512-bit tile runs, [`RK`] otherwise.
//! 3. **Register-tile multiply**, with the tile picked at run time: on
//!    x86-64 CPUs that report AVX-512F, an explicit `std::arch` tile keeps
//!    one zmm register of slices times 8 factor columns in 8 accumulators
//!    (one vector load, eight broadcast FMAs per factor row). Elsewhere,
//!    and for the slices and columns at a block's edge, the portable
//!    [`RK`]`×`[`RQ`] tile runs: `mul_add` over the factor's `P` rows with
//!    bounds checks hoisted out of the loop. Both compute every output
//!    element as one in-order FMA chain over `p` starting from zero, so
//!    they agree bit for bit whichever runs.
//! 4. **Epilogue scatter** ([`fused_output_col`]): accumulated results go
//!    directly to output column `q·S + s` (`S` = slice count), exactly step
//!    4 of the emulated kernel — consecutive tile results are consecutive
//!    output elements, so the scatter is one contiguous store per factor
//!    column (a single 512-bit store in the wide tile).
//!
//! Rows of the problem are independent, so the whole factor chain is
//! parallelized by partitioning rows into tiles and running each tile's
//! *entire* chain on one thread — one dispatch per execute, not one per
//! factor, with each thread ping-ponging inside its own disjoint slice of
//! the workspace buffers. Dispatch goes to the process-wide persistent
//! [`rayon::ThreadPool`] (workers parked on a channel), so an execute costs
//! one task handoff per tile, never a thread spawn.
//!
//! When the problem has fewer rows than the host has threads (the paper's
//! Table 3/4 small-M shapes), row tiles alone cannot use the machine. The
//! **wide mode** then splits the *slice range within each row* across
//! threads as well: every factor step becomes one pool broadcast over a
//! `rows × column-groups` grid, with the broadcast's completion acting as
//! the inter-step barrier. Each task computes slices `[s_lo, s_hi)` of its
//! row and scatters to the same `q·S + s` output columns the serial path
//! uses, so the two modes are numerically identical (pinned by a proptest).
//! Slice ranges are cut in whole blocks of the running tile, so only the
//! last range of a row reaches the edge tiles.

use kron_core::{Element, KronError, KronProblem, Matrix, Result};
use rayon::ThreadPool;
use std::any::TypeId;
use std::mem::MaybeUninit;

/// Slice-block edge of the portable register tile: it computes [`RK`]
/// consecutive slices per accumulator tile, and the epilogue stores them as
/// one contiguous run (they are adjacent output columns). This tile is the
/// only one on hosts without AVX-512F; with it, the 512-bit tile covers
/// full blocks and this one the remainder slices and columns.
pub const RK: usize = 8;

/// Factor-column edge of the portable register tile.
pub const RQ: usize = 4;

/// Factor-column edge of the 512-bit register tile.
const WQ: usize = 8;

/// Widest slice block any tile packs (the f32 512-bit tile's 16 lanes).
const PANEL_SLICES: usize = 16;
const _: () = assert!(RK <= PANEL_SLICES);

/// Largest factor-row count the packed-panel fast path supports; factors
/// taller than this (none in the paper's evaluation) take a safe strided
/// fallback instead of a stack panel.
const PANEL_MAX_P: usize = 160;

/// Problems below this FLOP count run single-threaded; tiny chains are
/// dominated by thread dispatch otherwise.
const MIN_PAR_FLOPS: u64 = 1 << 15;

/// Output column a sliced multiply writes slice `s` of factor column `q`
/// to: `q·S + s` where `S` is the slice count (`K/P`).
///
/// This single line is what makes the transpose unnecessary (paper §3):
/// the new factor index `q` lands in the slowest-varying position at write
/// time. Shared by the functional fused path and the thread-block-accurate
/// kernel emulation so the two layers cannot drift apart.
#[inline(always)]
pub fn fused_output_col(q: usize, slices: usize, s: usize) -> usize {
    q * slices + s
}

/// Reusable execution state for one [`KronProblem`]: two ping-pong buffers
/// sized once at construction.
///
/// Create once, call [`Workspace::execute`] or [`Workspace::execute_into`]
/// many times; after construction the fused path performs **zero heap
/// allocations per factor step** (asserted by a counting-allocator test).
/// Parallel dispatch goes to the persistent global [`ThreadPool`], whose
/// boxing-free task handoff keeps even multi-threaded executes
/// allocation-free once the pool's queue is warm.
pub struct Workspace<T> {
    problem: KronProblem,
    /// Row stride of both buffers (`max_intermediate_cols`).
    stride: usize,
    buf_a: Vec<T>,
    buf_b: Vec<T>,
    /// Forced `(row_groups, col_groups)` decomposition; `None` auto-selects
    /// from the pool width and problem size.
    partition: Option<(usize, usize)>,
}

/// How one execute is decomposed across the worker pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ExecMode {
    /// One thread runs the whole chain.
    Serial,
    /// Rows are cut into this many tiles; each tile runs its entire chain
    /// on one pool task (no inter-step synchronization).
    RowTiles(usize),
    /// Every factor step broadcasts a `row_groups × col_groups` task grid,
    /// splitting the slice range within each row; the broadcast return is
    /// the inter-step barrier. This is what lets `M < threads` problems
    /// use the whole host.
    Wide {
        /// Row-range groups (≤ rows).
        row_groups: usize,
        /// Slice-range groups per row.
        col_groups: usize,
    },
}

impl<T: Element> Workspace<T> {
    /// Allocates the ping-pong buffers for `problem`.
    ///
    /// Single-factor problems need no intermediates; their buffers are
    /// empty and execution streams `X` straight to `Y`.
    pub fn new(problem: &KronProblem) -> Self {
        let (stride, elems) = if problem.num_factors() > 1 {
            (
                problem.max_intermediate_cols(),
                problem.max_intermediate_elems(),
            )
        } else {
            (0, 0)
        };
        Workspace {
            problem: problem.clone(),
            stride,
            buf_a: vec![T::ZERO; elems],
            buf_b: vec![T::ZERO; elems],
            partition: None,
        }
    }

    /// The problem this workspace was sized for.
    pub fn problem(&self) -> &KronProblem {
        &self.problem
    }

    /// Pins the parallel decomposition to `(row_groups, col_groups)`
    /// instead of auto-selecting from the host's thread count: `(1, 1)`
    /// forces the serial path, `(r, 1)` forces `r` row tiles, and
    /// `(r, c)` with `c > 1` forces the wide (column-splitting) mode.
    ///
    /// Intended for tests and benchmarks that must exercise a specific
    /// mode regardless of the machine they run on; `None` restores
    /// auto-selection.
    pub fn set_partition(&mut self, partition: Option<(usize, usize)>) {
        self.partition = partition;
    }

    /// Computes `Y = X · (F1 ⊗ … ⊗ FN)`, allocating only the result.
    ///
    /// # Errors
    /// Shape mismatches between the operands and the workspace's problem.
    pub fn execute(&mut self, x: &Matrix<T>, factors: &[&Matrix<T>]) -> Result<Matrix<T>> {
        let mut y = Matrix::zeros(self.problem.m, self.problem.output_cols());
        self.execute_into(x, factors, &mut y)?;
        Ok(y)
    }

    /// Computes `Y = X · (F1 ⊗ … ⊗ FN)` into caller-provided storage —
    /// the fully allocation-free entry point.
    ///
    /// # Errors
    /// Shape mismatches between the operands and the workspace's problem.
    pub fn execute_into(
        &mut self,
        x: &Matrix<T>,
        factors: &[&Matrix<T>],
        y: &mut Matrix<T>,
    ) -> Result<()> {
        self.validate(x, factors, y)?;
        self.run(x.as_slice(), factors, y.as_mut_slice(), self.problem.m);
        Ok(())
    }

    /// Computes the first `rows` rows of `Y = X · (F1 ⊗ … ⊗ FN)`, where
    /// `rows` may be anything up to the workspace's planned capacity
    /// (`problem.m`) and `X`/`Y` may hold **at least** `rows` rows.
    ///
    /// This is the batched-serving entry point: a runtime sizes one
    /// workspace for its maximum batch and executes whatever number of
    /// request rows actually arrived, with no reallocation and no
    /// per-batch planning. `rows == 0` is a no-op.
    ///
    /// # Errors
    /// Shape mismatches: wrong factor shapes or column counts, fewer than
    /// `rows` rows in an operand, or `rows` above the planned capacity.
    pub fn execute_rows(
        &mut self,
        x: &Matrix<T>,
        factors: &[&Matrix<T>],
        y: &mut Matrix<T>,
        rows: usize,
    ) -> Result<()> {
        self.validate_factors(factors)?;
        if rows > self.problem.m {
            return Err(KronError::ShapeMismatch {
                expected: format!("at most {} rows (workspace capacity)", self.problem.m),
                found: format!("{rows} rows"),
            });
        }
        if x.rows() < rows || x.cols() != self.problem.input_cols() {
            return Err(KronError::ShapeMismatch {
                expected: format!("X with ≥{} rows × {}", rows, self.problem.input_cols()),
                found: format!("X {}×{}", x.rows(), x.cols()),
            });
        }
        if y.rows() < rows || y.cols() != self.problem.output_cols() {
            return Err(KronError::ShapeMismatch {
                expected: format!("Y with ≥{} rows × {}", rows, self.problem.output_cols()),
                found: format!("Y {}×{}", y.rows(), y.cols()),
            });
        }
        if rows == 0 {
            return Ok(());
        }
        self.run(x.as_slice(), factors, y.as_mut_slice(), rows);
        Ok(())
    }

    /// Dispatches `rows` rows over the selected execution mode. `x`/`y`
    /// are full row-major buffers with strides `input_cols()` and
    /// `output_cols()`.
    fn run(&mut self, x: &[T], factors: &[&Matrix<T>], y: &mut [T], rows: usize) {
        let k0 = self.problem.input_cols();
        let l = self.problem.output_cols();
        let stride = self.stride;

        // Execution order: last factor first (Algorithm 1 line 5).
        let chain = Chain { factors, k0 };

        match self.mode(rows) {
            ExecMode::Serial => run_tile(
                chain,
                TileBuffers {
                    x,
                    y,
                    a: &mut self.buf_a,
                    b: &mut self.buf_b,
                    stride,
                    rows,
                    l,
                },
            ),
            ExecMode::RowTiles(tiles) => {
                run_row_tiles(
                    chain,
                    x,
                    y,
                    &mut self.buf_a,
                    &mut self.buf_b,
                    stride,
                    rows,
                    l,
                    tiles,
                );
            }
            ExecMode::Wide {
                row_groups,
                col_groups,
            } => self.run_wide(chain, x, y, rows, l, row_groups, col_groups),
        }
    }

    /// Picks the decomposition for an execute over `rows` rows.
    fn mode(&self, rows: usize) -> ExecMode {
        if let Some((r, c)) = self.partition {
            let r = r.clamp(1, rows.max(1));
            let c = c.max(1);
            return if r * c <= 1 {
                ExecMode::Serial
            } else if c == 1 {
                ExecMode::RowTiles(r)
            } else {
                ExecMode::Wide {
                    row_groups: r,
                    col_groups: c,
                }
            };
        }
        // The global pool caches its width; querying available_parallelism
        // directly would allocate (it reads cgroup quota files), breaking
        // the zero-allocation contract.
        let threads = ThreadPool::global().threads();
        // FLOPs for the rows actually executing, not the full capacity.
        let flops = (self.problem.flops() / self.problem.m as u64) * rows as u64;
        if threads <= 1 || flops < MIN_PAR_FLOPS {
            ExecMode::Serial
        } else if rows >= threads {
            ExecMode::RowTiles(threads)
        } else {
            let col_groups = threads / rows;
            if col_groups <= 1 {
                ExecMode::RowTiles(rows)
            } else {
                ExecMode::Wide {
                    row_groups: rows,
                    col_groups,
                }
            }
        }
    }

    /// Wide mode: one pool broadcast per factor step over a
    /// `row_groups × col_groups` grid, each task computing the slice range
    /// `[s_lo, s_hi)` of its rows. The broadcast's completion is the
    /// barrier that lets the next step consume this step's output.
    #[allow(clippy::too_many_arguments)]
    fn run_wide(
        &mut self,
        chain: Chain<'_, T>,
        x: &[T],
        y: &mut [T],
        rows: usize,
        l: usize,
        row_groups: usize,
        col_groups: usize,
    ) {
        let stride = self.stride;
        let n = chain.factors.len();
        let pool = ThreadPool::global();
        let mut k_in = chain.k0;
        let mut cur = self.buf_a.as_mut_ptr();
        let mut nxt = self.buf_b.as_mut_ptr();
        let width = block_slices(WideTile::select::<T>());
        for (step, f) in chain.factors.iter().rev().enumerate() {
            let (p, q) = (f.rows(), f.cols());
            debug_assert!(p > 0 && k_in.is_multiple_of(p));
            let slices = k_in / p;
            let k_out = slices * q;
            let first = step == 0;
            let last = step + 1 == n;
            let (src, src_stride) = if first {
                (x.as_ptr(), chain.k0)
            } else {
                (cur as *const T, stride)
            };
            // Mirrors `run_tile`'s buffer selection: the first step fills
            // `cur`, middle steps write `nxt` and swap, the last streams
            // into `Y`.
            let (dst, dst_stride) = if last {
                (y.as_mut_ptr(), l)
            } else if first {
                (cur, stride)
            } else {
                (nxt, stride)
            };

            let rows_per = rows.div_ceil(row_groups);
            let row_tasks = rows.div_ceil(rows_per);
            // Column chunks are whole packed blocks of the tile that will
            // run, so only the last chunk of a row reaches the edge tiles.
            let s_chunk = slices.div_ceil(col_groups).div_ceil(width) * width;
            let col_tasks = slices.div_ceil(s_chunk);

            let srcp = ConstPtr(src);
            let dstp = MutPtr(dst);
            let f_data = f.as_slice();
            pool.broadcast(row_tasks * col_tasks, &|t| {
                let rg = t / col_tasks;
                let cg = t % col_tasks;
                let r0 = rg * rows_per;
                let nr = rows_per.min(rows - r0);
                let s_lo = cg * s_chunk;
                let s_hi = (s_lo + s_chunk).min(slices);
                let mut panel = uninit_panel();
                for r in r0..r0 + nr {
                    // SAFETY: tasks partition the (row, slice-range) grid
                    // disjointly; reads from `src` are shared, writes go to
                    // output columns `q·S + s` with `s ∈ [s_lo, s_hi)`,
                    // which no other task touches. The broadcast barrier
                    // sequences this step's writes before the next step's
                    // reads.
                    unsafe {
                        let x_row =
                            std::slice::from_raw_parts(srcp.ptr().add(r * src_stride), k_in);
                        let out_row = dstp.ptr().add(r * dst_stride);
                        sliced_multiply_row_range(
                            x_row, f_data, p, q, slices, s_lo, s_hi, out_row, &mut panel,
                        );
                    }
                }
            });

            if !first && !last {
                std::mem::swap(&mut cur, &mut nxt);
            }
            k_in = k_out;
        }
    }

    fn validate_factors(&self, factors: &[&Matrix<T>]) -> Result<()> {
        if factors.len() != self.problem.num_factors() {
            return Err(KronError::ShapeMismatch {
                expected: format!("{} factors", self.problem.num_factors()),
                found: format!("{} factors", factors.len()),
            });
        }
        for (i, (f, s)) in factors.iter().zip(self.problem.factors.iter()).enumerate() {
            if f.rows() != s.p || f.cols() != s.q {
                return Err(KronError::ShapeMismatch {
                    expected: format!("factor {} of shape {s}", i + 1),
                    found: format!("{}×{}", f.rows(), f.cols()),
                });
            }
        }
        Ok(())
    }

    fn validate(&self, x: &Matrix<T>, factors: &[&Matrix<T>], y: &Matrix<T>) -> Result<()> {
        self.validate_factors(factors)?;
        if x.rows() != self.problem.m || x.cols() != self.problem.input_cols() {
            return Err(KronError::ShapeMismatch {
                expected: format!("X {}×{}", self.problem.m, self.problem.input_cols()),
                found: format!("X {}×{}", x.rows(), x.cols()),
            });
        }
        if y.rows() != self.problem.m || y.cols() != self.problem.output_cols() {
            return Err(KronError::ShapeMismatch {
                expected: format!("Y {}×{}", self.problem.m, self.problem.output_cols()),
                found: format!("Y {}×{}", y.rows(), y.cols()),
            });
        }
        Ok(())
    }
}

/// Caller-owned pack buffer for [`sliced_multiply_rows_into`]: the packed
/// slice panel the register-blocked microkernel stages slices through.
///
/// Hoisted into the caller so external engines (the distributed workers in
/// `kron-dist`) can keep one panel per simulated device and stay
/// allocation-free across calls, exactly like the fused path's row tiles.
pub struct PackPanel<T: Element> {
    buf: Panel<T>,
}

impl<T: Element> PackPanel<T> {
    /// A fresh panel, left uninitialized: the pack loop writes every
    /// element a tile reads. `16 · 160` elements, fine on the stack.
    pub fn new() -> Self {
        PackPanel {
            buf: uninit_panel(),
        }
    }
}

impl<T: Element> Default for PackPanel<T> {
    fn default() -> Self {
        PackPanel::new()
    }
}

/// One sliced multiplication over `rows` row-major rows, written through
/// caller-owned buffers: `out[r][q·S + s] = Σ_p x[r][s·P + p] · f[p][q]`
/// with `S = k_in / P` slices per row.
///
/// This is the allocation-free primitive external engines build on — the
/// distributed engine's per-GPU local multiply is exactly this on its
/// `TGM × TGK` block, `Nlocal` times between exchanges. `x` and `out` are
/// raw row-major buffers with row strides `x_stride` / `out_stride` (both
/// may exceed the logical widths `k_in` / `k_in/P·Q`), and `panel` is the
/// caller's reusable pack buffer.
///
/// Numerically identical to the fused path's serial row loop: it runs the
/// same microkernels (packed-panel register tiles with the
/// [`fused_output_col`] epilogue), so engines layered on it agree
/// bit-for-bit with every single-device path.
///
/// # Errors
/// [`KronError::ShapeMismatch`] when `k_in` is not a multiple of the
/// factor's `P`, a stride is smaller than its row's logical width, or a
/// buffer cannot hold `rows` rows at its stride.
#[allow(clippy::too_many_arguments)]
pub fn sliced_multiply_rows_into<T: Element>(
    x: &[T],
    x_stride: usize,
    f: &Matrix<T>,
    rows: usize,
    k_in: usize,
    out: &mut [T],
    out_stride: usize,
    panel: &mut PackPanel<T>,
) -> Result<()> {
    let (p, q) = (f.rows(), f.cols());
    if p == 0 || k_in == 0 || !k_in.is_multiple_of(p) {
        return Err(KronError::ShapeMismatch {
            expected: format!("k_in a positive multiple of P = {p}"),
            found: format!("k_in = {k_in}"),
        });
    }
    let slices = k_in / p;
    let k_out = slices * q;
    if x_stride < k_in || out_stride < k_out {
        return Err(KronError::ShapeMismatch {
            expected: format!("strides ≥ row widths {k_in} / {k_out}"),
            found: format!("{x_stride} / {out_stride}"),
        });
    }
    if rows == 0 {
        return Ok(());
    }
    if x.len() < (rows - 1) * x_stride + k_in {
        return Err(KronError::ShapeMismatch {
            expected: format!("x holding {rows} rows at stride {x_stride}"),
            found: format!("{} elements", x.len()),
        });
    }
    if out.len() < (rows - 1) * out_stride + k_out {
        return Err(KronError::ShapeMismatch {
            expected: format!("out holding {rows} rows at stride {out_stride}"),
            found: format!("{} elements", out.len()),
        });
    }
    let f_data = f.as_slice();
    for r in 0..rows {
        sliced_multiply_row(
            &x[r * x_stride..r * x_stride + k_in],
            f_data,
            p,
            q,
            slices,
            &mut out[r * out_stride..r * out_stride + k_out],
            &mut panel.buf,
        );
    }
    Ok(())
}

/// Computes `Y = X · (F1 ⊗ … ⊗ FN)` on the fused path with a throwaway
/// [`Workspace`] — the drop-in replacement for the old per-step-allocating
/// `kron_matmul_fastkron` loop. Callers in a loop should hold a
/// [`Workspace`] instead and pay the buffer allocation once.
///
/// # Errors
/// Shape errors when `X.cols() != ∏Pᵢ` or `factors` is empty.
pub fn kron_matmul_fused<T: Element>(x: &Matrix<T>, factors: &[&Matrix<T>]) -> Result<Matrix<T>> {
    if factors.is_empty() {
        return Err(KronError::NoFactors);
    }
    let shapes = factors
        .iter()
        .map(|f| kron_core::FactorShape::new(f.rows(), f.cols()))
        .collect();
    let problem = KronProblem::new(x.rows().max(1), shapes)?;
    if x.cols() != problem.input_cols() {
        return Err(KronError::ShapeMismatch {
            expected: format!("X with ∏Pᵢ = {} cols", problem.input_cols()),
            found: format!("X with {} cols", x.cols()),
        });
    }
    if x.rows() == 0 {
        return Ok(Matrix::zeros(0, problem.output_cols()));
    }
    Workspace::new(&problem).execute(x, factors)
}

/// The factor chain one execute runs, shared read-only across row tiles.
#[derive(Clone, Copy)]
struct Chain<'a, T> {
    /// Factors in Kronecker-product order (`F1` first); iterated in
    /// reverse, as Algorithm 1 prescribes.
    factors: &'a [&'a Matrix<T>],
    /// Input columns (`∏Pᵢ`).
    k0: usize,
}

/// One row tile's disjoint slices of every buffer an execute touches.
struct TileBuffers<'a, T> {
    /// This tile's rows of `X` (row stride `k0`).
    x: &'a [T],
    /// This tile's rows of `Y` (row stride `l`).
    y: &'a mut [T],
    /// This tile's slice of ping-pong buffer A (row stride `stride`).
    a: &'a mut [T],
    /// This tile's slice of ping-pong buffer B (row stride `stride`).
    b: &'a mut [T],
    /// Row stride of the ping-pong buffers.
    stride: usize,
    /// Rows in this tile.
    rows: usize,
    /// Output columns (`∏Qᵢ`).
    l: usize,
}

/// Shared read pointer a pool task may dereference; disjointness of the
/// written regions is the caller's (documented) obligation.
#[derive(Clone, Copy)]
struct ConstPtr<T>(*const T);
// SAFETY: tasks only read through the pointer while the owning broadcast
// keeps the buffer borrowed.
unsafe impl<T: Send + Sync> Send for ConstPtr<T> {}
unsafe impl<T: Send + Sync> Sync for ConstPtr<T> {}

impl<T> ConstPtr<T> {
    /// Accessor (rather than field access) so closures capture the Sync
    /// wrapper, not the raw pointer field (edition-2021 disjoint capture).
    fn ptr(self) -> *const T {
        self.0
    }
}

/// Mutable base pointer a pool task writes disjoint regions through.
#[derive(Clone, Copy)]
struct MutPtr<T>(*mut T);
// SAFETY: see `ConstPtr`; every dispatch site partitions the written
// ranges disjointly across tasks.
unsafe impl<T: Send + Sync> Send for MutPtr<T> {}
unsafe impl<T: Send + Sync> Sync for MutPtr<T> {}

impl<T> MutPtr<T> {
    /// See [`ConstPtr::ptr`].
    fn ptr(self) -> *mut T {
        self.0
    }
}

/// Cuts `rows` into `tiles` contiguous blocks and runs each block's entire
/// factor chain as one task on the persistent pool. Each task reconstructs
/// its disjoint slices of `X`, `Y`, and both ping-pong buffers from base
/// pointers (the closure is shared across workers, so sequential
/// `split_at_mut` handoff is not possible).
#[allow(clippy::too_many_arguments)]
fn run_row_tiles<T: Element>(
    chain: Chain<'_, T>,
    x: &[T],
    y: &mut [T],
    buf_a: &mut [T],
    buf_b: &mut [T],
    stride: usize,
    rows: usize,
    l: usize,
    tiles: usize,
) {
    let rows_per_tile = rows.div_ceil(tiles);
    let tasks = rows.div_ceil(rows_per_tile);
    let xp = ConstPtr(x.as_ptr());
    let yp = MutPtr(y.as_mut_ptr());
    let ap = MutPtr(buf_a.as_mut_ptr());
    let bp = MutPtr(buf_b.as_mut_ptr());
    let k0 = chain.k0;
    ThreadPool::global().broadcast(tasks, &|t| {
        let r0 = t * rows_per_tile;
        let nr = rows_per_tile.min(rows - r0);
        // SAFETY: tile `t` owns rows [r0, r0+nr), a range no other task
        // touches, so the reconstructed slices are disjoint; the broadcast
        // blocks until every task finishes, keeping the borrows alive.
        unsafe {
            run_tile(
                chain,
                TileBuffers {
                    x: std::slice::from_raw_parts(xp.ptr().add(r0 * k0), nr * k0),
                    y: std::slice::from_raw_parts_mut(yp.ptr().add(r0 * l), nr * l),
                    a: std::slice::from_raw_parts_mut(ap.ptr().add(r0 * stride), nr * stride),
                    b: std::slice::from_raw_parts_mut(bp.ptr().add(r0 * stride), nr * stride),
                    stride,
                    rows: nr,
                    l,
                },
            );
        }
    });
}

/// Runs the entire factor chain for one row tile: step 0 reads from `X`,
/// the final step writes into `Y`, everything between ping-pongs through
/// the two workspace slices. No allocation anywhere in here.
fn run_tile<T: Element>(chain: Chain<'_, T>, bufs: TileBuffers<'_, T>) {
    let TileBuffers {
        x,
        y,
        a,
        b,
        stride,
        rows,
        l,
    } = bufs;
    // One packed-panel buffer per tile, reused by every row and factor
    // step; the pack loop writes the whole `p·rk` region a tile reads.
    let mut panel = uninit_panel();
    let n = chain.factors.len();
    let (mut cur, mut nxt) = (a, b);
    let mut k_in = chain.k0;
    for (step, f) in chain.factors.iter().rev().enumerate() {
        let (p, q) = (f.rows(), f.cols());
        debug_assert!(p > 0 && k_in.is_multiple_of(p));
        let slices = k_in / p;
        let k_out = slices * q;
        let f_data = f.as_slice();
        let first = step == 0;
        let last = step + 1 == n;
        for r in 0..rows {
            // Distinct source/destination buffers in every arm, so the
            // borrows never alias.
            match (first, last) {
                (true, true) => sliced_multiply_row(
                    &x[r * chain.k0..r * chain.k0 + k_in],
                    f_data,
                    p,
                    q,
                    slices,
                    &mut y[r * l..r * l + k_out],
                    &mut panel,
                ),
                (true, false) => sliced_multiply_row(
                    &x[r * chain.k0..r * chain.k0 + k_in],
                    f_data,
                    p,
                    q,
                    slices,
                    &mut cur[r * stride..r * stride + k_out],
                    &mut panel,
                ),
                (false, true) => sliced_multiply_row(
                    &cur[r * stride..r * stride + k_in],
                    f_data,
                    p,
                    q,
                    slices,
                    &mut y[r * l..r * l + k_out],
                    &mut panel,
                ),
                (false, false) => sliced_multiply_row(
                    &cur[r * stride..r * stride + k_in],
                    f_data,
                    p,
                    q,
                    slices,
                    &mut nxt[r * stride..r * stride + k_out],
                    &mut panel,
                ),
            }
        }
        if !first && !last {
            std::mem::swap(&mut cur, &mut nxt);
        }
        k_in = k_out;
    }
}

/// A packed-panel buffer: room for a `P × width` slice block up to
/// [`PANEL_MAX_P`] rows and [`PANEL_SLICES`] slices. It is never zeroed;
/// each block's pack loop writes exactly the `p·width` prefix its tiles
/// read before they read it.
type Panel<T> = [MaybeUninit<T>; PANEL_SLICES * PANEL_MAX_P];

/// A panel with no initialization cost.
fn uninit_panel<T>() -> Panel<T> {
    [const { MaybeUninit::uninit() }; PANEL_SLICES * PANEL_MAX_P]
}

/// The 512-bit register tile this host runs for an element type. On
/// targets other than x86-64 the enum has no variants, so only the
/// portable tile exists.
#[derive(Clone, Copy)]
enum WideTile {
    /// 16 f32 slices × [`WQ`] columns.
    #[cfg(target_arch = "x86_64")]
    F32,
    /// 8 f64 slices × [`WQ`] columns.
    #[cfg(target_arch = "x86_64")]
    F64,
}

impl WideTile {
    /// The wide tile for `T` if the CPU supports AVX-512F, else `None`.
    /// The detection result is cached by the standard library, so this is
    /// one load per call.
    fn select<T: Element>() -> Option<WideTile> {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx512f") {
                let t = TypeId::of::<T>();
                if t == TypeId::of::<f32>() {
                    return Some(WideTile::F32);
                }
                if t == TypeId::of::<f64>() {
                    return Some(WideTile::F64);
                }
            }
        }
        None
    }

    /// Slices per tile: one 512-bit register of elements.
    fn slices(self) -> usize {
        match self {
            #[cfg(target_arch = "x86_64")]
            WideTile::F32 => avx512::F32_SLICES,
            #[cfg(target_arch = "x86_64")]
            WideTile::F64 => avx512::F64_SLICES,
        }
    }

    /// Runs the tile on columns `[q0, q0 + WQ)` of a packed block of
    /// [`WideTile::slices`] slices starting at slice `s0`.
    ///
    /// # Safety
    /// `self` came from [`WideTile::select::<T>`] (so `T` is the tile's
    /// element type and the CPU has AVX-512F), `panel.len() >= p·slices()`,
    /// `f.len() >= p·q`, `q0 + WQ <= q`, `s0 + slices() <= slices`, and
    /// `out` is valid for `slices·q` element writes with the written
    /// columns owned by this thread.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    unsafe fn run<T: Element>(
        self,
        panel: &[T],
        f: &[T],
        p: usize,
        q: usize,
        q0: usize,
        s0: usize,
        slices: usize,
        out: *mut T,
    ) {
        debug_assert!(panel.len() >= p * self.slices() && f.len() >= p * q);
        match self {
            #[cfg(target_arch = "x86_64")]
            WideTile::F32 => avx512::tile_f32(
                panel.as_ptr().cast(),
                f.as_ptr().cast(),
                p,
                q,
                q0,
                s0,
                slices,
                out.cast(),
            ),
            #[cfg(target_arch = "x86_64")]
            WideTile::F64 => avx512::tile_f64(
                panel.as_ptr().cast(),
                f.as_ptr().cast(),
                p,
                q,
                q0,
                s0,
                slices,
                out.cast(),
            ),
        }
    }
}

/// Slices per packed block: the wide tile's width when one runs, else
/// [`RK`].
fn block_slices(wide: Option<WideTile>) -> usize {
    wide.map_or(RK, WideTile::slices)
}

/// One row's sliced multiply, `out[q·S + s] = Σ_p x[s·P + p] · F[p][q]`,
/// register-blocked with a packed slice panel.
///
/// `f` is the factor's row-major `P × Q` buffer. `x` must hold at least
/// `slices·p` elements and `out` at least `slices·q`. `panel` is the
/// caller's pack buffer, hoisted out so it lives once per tile, not once
/// per row per factor step.
fn sliced_multiply_row<T: Element>(
    x: &[T],
    f: &[T],
    p: usize,
    q: usize,
    slices: usize,
    out: &mut [T],
    panel: &mut Panel<T>,
) {
    debug_assert!(out.len() >= slices * q);
    // SAFETY: `out` is an exclusive borrow covering all `slices·q` writes,
    // and the full slice range is computed by this one call.
    unsafe { sliced_multiply_row_range(x, f, p, q, slices, 0, slices, out.as_mut_ptr(), panel) }
}

/// The slice-range form of [`sliced_multiply_row`]: computes only slices
/// `[s_lo, s_hi)`, writing output columns `q·S + s` for `s` in that range.
/// This is the unit the wide execution mode hands to each pool task —
/// several tasks write *interleaved but disjoint* columns of the same row,
/// which is why `out` is a raw base pointer rather than `&mut [T]`.
///
/// # Safety
/// `out` must be valid for `slices·q` element writes, `x` must hold at
/// least `s_hi·p` elements, `f` at least `p·q`, `s_lo ≤ s_hi ≤ slices`,
/// and no other thread may concurrently touch the output elements
/// `{q·slices + s | s ∈ [s_lo, s_hi), q ∈ [0, q)}`.
#[allow(clippy::too_many_arguments)]
unsafe fn sliced_multiply_row_range<T: Element>(
    x: &[T],
    f: &[T],
    p: usize,
    q: usize,
    slices: usize,
    s_lo: usize,
    s_hi: usize,
    out: *mut T,
    panel: &mut Panel<T>,
) {
    // SAFETY: this function's contract, forwarded unchanged, plus a tile
    // from `select::<T>()` as the `_with` form requires.
    unsafe {
        sliced_multiply_row_range_with(
            WideTile::select::<T>(),
            x,
            f,
            p,
            q,
            slices,
            s_lo,
            s_hi,
            out,
            panel,
        )
    }
}

/// [`sliced_multiply_row_range`] with the wide tile chosen by the caller;
/// `None` runs only the portable tile (the bit-identity test compares the
/// two).
///
/// # Safety
/// The contract of [`sliced_multiply_row_range`], and `wide` is `None` or
/// the result of [`WideTile::select::<T>`].
#[allow(clippy::too_many_arguments)]
unsafe fn sliced_multiply_row_range_with<T: Element>(
    wide: Option<WideTile>,
    x: &[T],
    f: &[T],
    p: usize,
    q: usize,
    slices: usize,
    s_lo: usize,
    s_hi: usize,
    out: *mut T,
    panel: &mut Panel<T>,
) {
    debug_assert!(s_lo <= s_hi && s_hi <= slices);
    debug_assert!(x.len() >= s_hi * p);
    debug_assert!(f.len() >= p * q);
    if p > PANEL_MAX_P {
        return sliced_multiply_row_tall(x, f, p, q, slices, s_lo, s_hi, out);
    }

    let width = block_slices(wide);
    let mut s0 = s_lo;
    while s0 < s_hi {
        let rk = width.min(s_hi - s0);
        // Packed panel: panel[pi·rk + i] holds x[(s0+i)·P + pi], i.e. the
        // slice block transposed so the multiply reads unit-stride in `i`.
        for i in 0..rk {
            let slice = &x[(s0 + i) * p..(s0 + i) * p + p];
            for (pi, &v) in slice.iter().enumerate() {
                panel[pi * rk + i] = MaybeUninit::new(v);
            }
        }
        // SAFETY: the loop above wrote index `pi·rk + i` for every
        // `pi < p`, `i < rk`, i.e. all of `[0, p·rk)`, and `p·rk` fits the
        // panel because `p <= PANEL_MAX_P` and `rk <= PANEL_SLICES`.
        let packed = unsafe { std::slice::from_raw_parts(panel.as_ptr().cast::<T>(), p * rk) };
        // Full blocks go to the wide tile, 8 columns at a time; the
        // portable tile takes the remainder columns and partial blocks.
        let mut q_wide = 0;
        if let Some(tile) = wide.filter(|_| rk == width) {
            q_wide = q - q % WQ;
            for q0 in (0..q_wide).step_by(WQ) {
                // SAFETY: `tile` is `select::<T>()` (caller contract), the
                // block is full (`packed` holds `p·width`, `s0 + width <=
                // s_hi <= slices`), `q0 + WQ <= q_wide <= q`, and `out`
                // and column ownership are this function's own contract.
                unsafe { tile.run(packed, f, p, q, q0, s0, slices, out) };
            }
        }
        // SAFETY: `packed` holds `p·rk`, `s0 + rk <= s_hi <= slices`, and
        // `out` and column ownership are this function's own contract.
        unsafe { portable_block(packed, rk, f, p, q, q_wide, s0, slices, out) };
        s0 += rk;
    }
}

/// Portable [`RK`]`×`[`RQ`] tiles over columns `[q_lo, q)` of a packed
/// block of `rk` slices starting at slice `s0` (panel row stride `rk`).
///
/// # Safety
/// `panel.len() >= p·rk`, `f.len() >= p·q`, `s0 + rk <= slices`, and `out`
/// valid for `slices·q` element writes with the written columns owned by
/// this thread.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
unsafe fn portable_block<T: Element>(
    panel: &[T],
    rk: usize,
    f: &[T],
    p: usize,
    q: usize,
    q_lo: usize,
    s0: usize,
    slices: usize,
    out: *mut T,
) {
    for i0 in (0..rk).step_by(RK) {
        let sub = RK.min(rk - i0);
        let sub_panel = &panel[i0..];
        for q0 in (q_lo..q).step_by(RQ) {
            let rq = RQ.min(q - q0);
            if sub == RK && rq == RQ {
                // SAFETY: `sub_panel` starts at slice `i0` of a `p·rk`
                // panel with `i0 + RK <= rk`, so it holds the
                // `(p-1)·rk + RK` elements the unchecked tile reads; `f`
                // holds `p·q` with `q0 + RQ <= q`, and `out` covers
                // `slices·q` elements with `s0 + i0 + RK <= slices`.
                unsafe { full_tile(sub_panel, rk, f, p, q, q0, s0 + i0, slices, out) };
            } else {
                // SAFETY: `out` as above; panel and `f` reads are checked.
                unsafe { edge_tile(sub_panel, rk, f, p, q, q0, rq, s0 + i0, sub, slices, out) };
            }
        }
    }
}

/// Full [`RK`]`×`[`RQ`] register tile over a packed panel with row stride
/// `ld`; the hot loop on hosts without AVX-512F. Bounds checks are hoisted
/// to the caller.
///
/// # Safety
/// Requires `p >= 1`, `panel.len() >= (p-1)·ld + RK`, `f.len() >= p·q`,
/// `q0 + RQ <= q`, `s0 + RK <= slices`, and `out` valid for `slices·q`
/// element writes with the written columns owned by this thread.
#[allow(clippy::too_many_arguments, clippy::needless_range_loop)]
#[inline(always)]
unsafe fn full_tile<T: Element>(
    panel: &[T],
    ld: usize,
    f: &[T],
    p: usize,
    q: usize,
    q0: usize,
    s0: usize,
    slices: usize,
    out: *mut T,
) {
    let mut acc = [[T::ZERO; RQ]; RK];
    for pi in 0..p {
        let xs = panel.get_unchecked(pi * ld..pi * ld + RK);
        let fr = f.get_unchecked(pi * q + q0..pi * q + q0 + RQ);
        for i in 0..RK {
            let xv = *xs.get_unchecked(i);
            for j in 0..RQ {
                acc[i][j] = xv.mul_add(*fr.get_unchecked(j), acc[i][j]);
            }
        }
    }
    // Epilogue: column q0+j's slice block starts at (q0+j)·S + s0; the RK
    // results are consecutive there — one contiguous store per column.
    for j in 0..RQ {
        let base = fused_output_col(q0 + j, slices, s0);
        for i in 0..RK {
            *out.add(base + i) = acc[i][j];
        }
    }
}

/// Partial tile at the `slices`/`q` edges, over a panel with row stride
/// `ld`.
///
/// # Safety
/// `out` must be valid for `slices·q` element writes with the written
/// columns owned by this thread; panel/`f` bounds as in the caller.
#[allow(clippy::too_many_arguments, clippy::needless_range_loop)]
unsafe fn edge_tile<T: Element>(
    panel: &[T],
    ld: usize,
    f: &[T],
    p: usize,
    q: usize,
    q0: usize,
    rq: usize,
    s0: usize,
    rk: usize,
    slices: usize,
    out: *mut T,
) {
    let mut acc = [[T::ZERO; RQ]; RK];
    for pi in 0..p {
        let xs = &panel[pi * ld..pi * ld + rk];
        let fr = &f[pi * q + q0..pi * q + q0 + rq];
        for (i, &xv) in xs.iter().enumerate() {
            for (j, &fv) in fr.iter().enumerate() {
                acc[i][j] = xv.mul_add(fv, acc[i][j]);
            }
        }
    }
    for j in 0..rq {
        let base = fused_output_col(q0 + j, slices, s0);
        for i in 0..rk {
            *out.add(base + i) = acc[i][j];
        }
    }
}

/// The 512-bit register tiles. Each keeps [`WQ`] accumulators of one zmm
/// register of consecutive slices; per factor row `p` it loads one vector
/// from the packed panel and issues one FMA per column against a broadcast
/// of `F[p][q0 + j]`. Lane `i` of accumulator `j` is therefore the same
/// in-order FMA chain over `p`, starting from zero, that the portable
/// tile computes for slice `s0 + i`, column `q0 + j`.
#[cfg(target_arch = "x86_64")]
mod avx512 {
    use super::{fused_output_col, WQ};
    use std::arch::x86_64::{
        _mm512_fmadd_pd, _mm512_fmadd_ps, _mm512_loadu_pd, _mm512_loadu_ps, _mm512_set1_pd,
        _mm512_set1_ps, _mm512_setzero_pd, _mm512_setzero_ps, _mm512_storeu_pd, _mm512_storeu_ps,
    };

    /// Slices per f32 tile: the f32 lanes of one zmm register.
    pub(super) const F32_SLICES: usize = 16;

    /// Slices per f64 tile: the f64 lanes of one zmm register.
    pub(super) const F64_SLICES: usize = 8;

    const _: () = assert!(F32_SLICES <= super::PANEL_SLICES && F64_SLICES <= super::PANEL_SLICES);

    /// 16 f32 slices × [`WQ`] columns.
    ///
    /// # Safety
    /// The CPU supports AVX-512F; `panel` is valid for `p·16` reads (row
    /// stride 16), `f` for `p·q` reads with `q0 + WQ <= q`, and `out` for
    /// `slices·q` writes with `s0 + 16 <= slices` and the written columns
    /// owned by this thread.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn tile_f32(
        panel: *const f32,
        f: *const f32,
        p: usize,
        q: usize,
        q0: usize,
        s0: usize,
        slices: usize,
        out: *mut f32,
    ) {
        let mut acc = [_mm512_setzero_ps(); WQ];
        for pi in 0..p {
            // SAFETY: `pi < p`, so the 16 panel and `WQ` factor elements
            // read here are inside the ranges the caller guarantees.
            unsafe {
                let xv = _mm512_loadu_ps(panel.add(pi * F32_SLICES));
                let fr = f.add(pi * q + q0);
                for (j, a) in acc.iter_mut().enumerate() {
                    *a = _mm512_fmadd_ps(xv, _mm512_set1_ps(*fr.add(j)), *a);
                }
            }
        }
        for (j, a) in acc.into_iter().enumerate() {
            // SAFETY: column `q0 + j < q`'s 16 results are consecutive at
            // `(q0 + j)·slices + s0`, inside `out` since `s0 + 16 <= slices`.
            unsafe { _mm512_storeu_ps(out.add(fused_output_col(q0 + j, slices, s0)), a) };
        }
    }

    /// 8 f64 slices × [`WQ`] columns.
    ///
    /// # Safety
    /// As [`tile_f32`], with 8 slices: `panel` valid for `p·8` reads (row
    /// stride 8) and `s0 + 8 <= slices`.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn tile_f64(
        panel: *const f64,
        f: *const f64,
        p: usize,
        q: usize,
        q0: usize,
        s0: usize,
        slices: usize,
        out: *mut f64,
    ) {
        let mut acc = [_mm512_setzero_pd(); WQ];
        for pi in 0..p {
            // SAFETY: as in `tile_f32`, with 8 panel elements per row.
            unsafe {
                let xv = _mm512_loadu_pd(panel.add(pi * F64_SLICES));
                let fr = f.add(pi * q + q0);
                for (j, a) in acc.iter_mut().enumerate() {
                    *a = _mm512_fmadd_pd(xv, _mm512_set1_pd(*fr.add(j)), *a);
                }
            }
        }
        for (j, a) in acc.into_iter().enumerate() {
            // SAFETY: as in `tile_f32`, with `s0 + 8 <= slices`.
            unsafe { _mm512_storeu_pd(out.add(fused_output_col(q0 + j, slices, s0)), a) };
        }
    }
}

/// Fallback for factors taller than [`PANEL_MAX_P`]: no packing (the panel
/// would not fit the stack), strided reads, still allocation-free and still
/// scattering through [`fused_output_col`].
///
/// # Safety
/// Same contract as [`sliced_multiply_row_range`].
#[allow(clippy::too_many_arguments)]
unsafe fn sliced_multiply_row_tall<T: Element>(
    x: &[T],
    f: &[T],
    p: usize,
    q: usize,
    slices: usize,
    s_lo: usize,
    s_hi: usize,
    out: *mut T,
) {
    for s in s_lo..s_hi {
        let slice = &x[s * p..(s + 1) * p];
        let mut q0 = 0;
        while q0 < q {
            let rq = RQ.min(q - q0);
            let mut acc = [T::ZERO; RQ];
            for (pi, &xv) in slice.iter().enumerate() {
                let fr = &f[pi * q + q0..pi * q + q0 + rq];
                for (j, &fv) in fr.iter().enumerate() {
                    acc[j] = xv.mul_add(fv, acc[j]);
                }
            }
            for (j, &v) in acc[..rq].iter().enumerate() {
                *out.add(fused_output_col(q0 + j, slices, s)) = v;
            }
            q0 += RQ;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kron_core::naive::kron_matmul_naive;
    use kron_core::shuffle::kron_matmul_shuffle;
    use kron_core::{assert_matrices_close, FactorShape};

    fn seq_matrix(rows: usize, cols: usize, start: usize) -> Matrix<f64> {
        Matrix::from_fn(rows, cols, |r, c| {
            ((start + 3 * r * cols + c) % 13) as f64 - 6.0
        })
    }

    fn check_problem(problem: &KronProblem, seed: usize) {
        let x = seq_matrix(problem.m, problem.input_cols(), seed);
        let fs: Vec<Matrix<f64>> = problem
            .factors
            .iter()
            .enumerate()
            .map(|(i, s)| seq_matrix(s.p, s.q, seed + 2 * i + 1))
            .collect();
        let refs: Vec<&Matrix<f64>> = fs.iter().collect();
        let mut ws = Workspace::new(problem);
        let got = ws.execute(&x, &refs).unwrap();
        let naive = kron_matmul_naive(&x, &refs).unwrap();
        let shuffle = kron_matmul_shuffle(&x, &refs).unwrap();
        assert_matrices_close(&got, &naive, &format!("{problem} fused vs naive"));
        assert_matrices_close(&got, &shuffle, &format!("{problem} fused vs shuffle"));
    }

    #[test]
    fn single_factor_streams_straight_through() {
        check_problem(
            &KronProblem::new(3, vec![FactorShape::new(6, 4)]).unwrap(),
            1,
        );
    }

    #[test]
    fn uniform_chains() {
        for &(m, p, n) in &[(1usize, 2usize, 6usize), (3, 4, 3), (16, 8, 2), (2, 3, 4)] {
            check_problem(&KronProblem::uniform(m, p, n).unwrap(), m + p);
        }
    }

    #[test]
    fn rectangular_and_mixed_chains() {
        check_problem(
            &KronProblem::new(5, vec![FactorShape::new(2, 3), FactorShape::new(4, 2)]).unwrap(),
            2,
        );
        // Table 4 row 20 shape: 5×5 ⊗ 5×5 ⊗ 5×5 ⊗ 2×2.
        check_problem(
            &KronProblem::new(
                2,
                vec![
                    FactorShape::square(5),
                    FactorShape::square(5),
                    FactorShape::square(5),
                    FactorShape::square(2),
                ],
            )
            .unwrap(),
            3,
        );
        // Expanding then contracting intermediates.
        check_problem(
            &KronProblem::new(3, vec![FactorShape::new(2, 8), FactorShape::new(8, 2)]).unwrap(),
            4,
        );
    }

    #[test]
    fn edge_tiles_and_non_power_of_two_sizes() {
        // slices and q both indivisible by the register tile edges.
        check_problem(&KronProblem::uniform(3, 3, 3).unwrap(), 5);
        check_problem(
            &KronProblem::new(2, vec![FactorShape::new(7, 5), FactorShape::new(3, 9)]).unwrap(),
            6,
        );
    }

    #[test]
    fn tall_factor_takes_fallback_path() {
        // P = 200 > PANEL_MAX_P exercises sliced_multiply_row_tall.
        check_problem(
            &KronProblem::new(2, vec![FactorShape::new(200, 3)]).unwrap(),
            7,
        );
        check_problem(
            &KronProblem::new(1, vec![FactorShape::new(2, 2), FactorShape::new(200, 3)]).unwrap(),
            8,
        );
    }

    #[test]
    fn above_parallel_threshold_matches_oracle() {
        // Big enough that row_tiles() > 1 on multi-core hosts.
        let problem = KronProblem::uniform(32, 8, 3).unwrap();
        assert!(problem.flops() >= MIN_PAR_FLOPS);
        check_problem(&problem, 9);
    }

    #[test]
    fn workspace_is_reusable_across_calls() {
        let problem = KronProblem::uniform(4, 4, 3).unwrap();
        let mut ws = Workspace::<f64>::new(&problem);
        let mut y = Matrix::zeros(4, problem.output_cols());
        for seed in 0..4 {
            let x = seq_matrix(4, problem.input_cols(), seed);
            let fs: Vec<Matrix<f64>> = (0..3).map(|i| seq_matrix(4, 4, seed + i)).collect();
            let refs: Vec<&Matrix<f64>> = fs.iter().collect();
            ws.execute_into(&x, &refs, &mut y).unwrap();
            let oracle = kron_matmul_naive(&x, &refs).unwrap();
            assert_matrices_close(&y, &oracle, &format!("reuse seed {seed}"));
        }
    }

    #[test]
    fn f32_path_matches_oracle() {
        let problem = KronProblem::uniform(3, 8, 2).unwrap();
        let x = Matrix::<f32>::from_fn(3, 64, |r, c| ((r * 64 + c) % 7) as f32 - 3.0);
        let fs: Vec<Matrix<f32>> = (0..2)
            .map(|i| Matrix::from_fn(8, 8, |r, c| ((i + r * 8 + c) % 5) as f32 - 2.0))
            .collect();
        let refs: Vec<&Matrix<f32>> = fs.iter().collect();
        let got = Workspace::new(&problem).execute(&x, &refs).unwrap();
        let oracle = kron_matmul_naive(&x, &refs).unwrap();
        assert_matrices_close(&got, &oracle, "f32 fused");
    }

    #[test]
    fn epilogue_matches_figure2_by_hand() {
        // Paper Figure 2's worked single iteration: row [1,2,3,4] sliced
        // into (1,2) and (3,4) against F = [[10,20],[30,40]]. Column 0
        // lands at out[0..2], column 1 at out[2..4] — already shuffled.
        let x = [1.0f64, 2.0, 3.0, 4.0];
        let f = [10.0f64, 20.0, 30.0, 40.0];
        let mut out = [0.0f64; 4];
        let mut panel = uninit_panel();
        sliced_multiply_row(&x, &f, 2, 2, 2, &mut out, &mut panel);
        assert_eq!(out, [70.0, 150.0, 100.0, 220.0]);
    }

    /// Real values in `[-1, 1)` from a 64-bit LCG: products and sums
    /// round, so two kernels agree bit for bit only if they run the same
    /// FMA chains in the same order.
    fn random_vec<T: Element>(len: usize, state: &mut u64) -> Vec<T> {
        (0..len)
            .map(|_| {
                *state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                T::from_f64((*state >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0)
            })
            .collect()
    }

    /// The wide tile and the portable tile, each called directly on the
    /// same row ranges, must write the same bits.
    fn assert_wide_tile_matches_portable<T: Element>() {
        let Some(wide) = WideTile::select::<T>() else {
            eprintln!(
                "SKIPPED wide-vs-portable bit identity ({}): this CPU has no AVX-512F, \
                 so only the portable tile exists",
                T::DTYPE.rust_name()
            );
            return;
        };
        let width = wide.slices();
        let mut rng = 0x9E37_79B9_7F4A_7C15_u64;
        for p in [1usize, 2, 3, 8, 17, 160] {
            for q in [1usize, 5, 8, 13, 16] {
                // Slice counts below, at and off multiples of the width.
                for slices in [1usize, 7, width, width + 5, 3 * width - 3] {
                    let x = random_vec::<T>(slices * p, &mut rng);
                    let f = random_vec::<T>(p * q, &mut rng);
                    // Ranges as wide mode cuts a row (whole blocks, the
                    // last chunk short) plus one unaligned interior range.
                    let mut ranges = vec![(slices / 5, slices - slices / 7)];
                    for col_groups in 1..=3 {
                        let chunk = slices.div_ceil(col_groups).div_ceil(width) * width;
                        ranges.extend(
                            (0..slices)
                                .step_by(chunk)
                                .map(|lo| (lo, (lo + chunk).min(slices))),
                        );
                    }
                    for (s_lo, s_hi) in ranges {
                        let mut panel = uninit_panel();
                        let mut run = |tile: Option<WideTile>| {
                            let mut out = vec![T::ZERO; slices * q];
                            // SAFETY: `out` holds `slices·q` elements owned
                            // by this thread, `x` holds `slices·p`, `f`
                            // holds `p·q`, `s_lo <= s_hi <= slices`, and
                            // `tile` is `None` or `select::<T>()`.
                            unsafe {
                                sliced_multiply_row_range_with(
                                    tile,
                                    &x,
                                    &f,
                                    p,
                                    q,
                                    slices,
                                    s_lo,
                                    s_hi,
                                    out.as_mut_ptr(),
                                    &mut panel,
                                )
                            };
                            out
                        };
                        let (want, got) = (run(None), run(Some(wide)));
                        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                            assert_eq!(
                                g.to_f64().to_bits(),
                                w.to_f64().to_bits(),
                                "p={p} q={q} slices={slices} [{s_lo},{s_hi}) element {i}: \
                                 wide {g} vs portable {w}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn wide_tile_is_bit_identical_to_portable_tile_f32() {
        assert_wide_tile_matches_portable::<f32>();
    }

    #[test]
    fn wide_tile_is_bit_identical_to_portable_tile_f64() {
        assert_wide_tile_matches_portable::<f64>();
    }

    #[test]
    fn fused_output_col_is_the_kernel_epilogue_map() {
        // q varies slowest, slice fastest — no transpose needed afterwards.
        assert_eq!(fused_output_col(0, 4, 0), 0);
        assert_eq!(fused_output_col(0, 4, 3), 3);
        assert_eq!(fused_output_col(1, 4, 0), 4);
        assert_eq!(fused_output_col(2, 4, 1), 9);
    }

    #[test]
    fn rows_into_matches_sliced_multiply_and_validates() {
        use crate::algorithm::sliced_multiply;
        let x = seq_matrix(3, 12, 2);
        let f = seq_matrix(4, 5, 7);
        let expected = sliced_multiply(&x, &f).unwrap();
        // Strided buffers wider than the logical rows.
        let (xs, os) = (16, 20);
        let mut xbuf = vec![0.0f64; 3 * xs];
        for r in 0..3 {
            xbuf[r * xs..r * xs + 12].copy_from_slice(x.row(r));
        }
        let mut out = vec![-1.0f64; 3 * os];
        let mut panel = PackPanel::new();
        sliced_multiply_rows_into(&xbuf, xs, &f, 3, 12, &mut out, os, &mut panel).unwrap();
        for r in 0..3 {
            assert_eq!(&out[r * os..r * os + 15], expected.row(r), "row {r}");
        }
        // Validation: k_in not a multiple of P, short strides, short buffers.
        let err = |r| -> bool { matches!(r, Err(kron_core::KronError::ShapeMismatch { .. })) };
        let mut o = vec![0.0f64; 60];
        assert!(err(sliced_multiply_rows_into(
            &xbuf, xs, &f, 3, 10, &mut o, os, &mut panel
        )));
        assert!(err(sliced_multiply_rows_into(
            &xbuf, 8, &f, 3, 12, &mut o, os, &mut panel
        )));
        assert!(err(sliced_multiply_rows_into(
            &xbuf, xs, &f, 3, 12, &mut o, 10, &mut panel
        )));
        assert!(err(sliced_multiply_rows_into(
            &xbuf[..20],
            xs,
            &f,
            3,
            12,
            &mut o,
            os,
            &mut panel
        )));
        assert!(err(sliced_multiply_rows_into(
            &xbuf,
            xs,
            &f,
            3,
            12,
            &mut o[..40],
            os,
            &mut panel
        )));
        // rows == 0 is a no-op.
        sliced_multiply_rows_into(&xbuf, xs, &f, 0, 12, &mut o, os, &mut panel).unwrap();
    }

    #[test]
    fn convenience_wrapper_validates() {
        let x = Matrix::<f64>::zeros(2, 9);
        let f = Matrix::<f64>::identity(2);
        assert!(kron_matmul_fused(&x, &[&f, &f]).is_err());
        assert!(kron_matmul_fused::<f64>(&x, &[]).is_err());
        let ok = seq_matrix(2, 4, 0);
        assert!(kron_matmul_fused(&ok, &[&f, &f]).is_ok());
    }

    #[test]
    fn workspace_validates_operands() {
        let problem = KronProblem::uniform(2, 4, 2).unwrap();
        let mut ws = Workspace::<f64>::new(&problem);
        let x = seq_matrix(2, 16, 0);
        let f = seq_matrix(4, 4, 1);
        let wrong_f = seq_matrix(2, 4, 1);
        assert!(ws.execute(&x, &[&f]).is_err());
        assert!(ws.execute(&x, &[&f, &wrong_f]).is_err());
        let wrong_x = seq_matrix(2, 8, 0);
        assert!(ws.execute(&wrong_x, &[&f, &f]).is_err());
        let mut wrong_y = Matrix::zeros(2, 8);
        assert!(ws.execute_into(&x, &[&f, &f], &mut wrong_y).is_err());
        assert!(ws.execute(&x, &[&f, &f]).is_ok());
    }
}
