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
//!    The 512-bit path packs full blocks with an in-register transpose of
//!    `width × width` blocks when `P` is a multiple of the width; every
//!    other block takes the scalar transposing loop.
//! 3. **Register-tile multiply**, with the tile picked at run time: on
//!    x86-64 CPUs that report AVX-512F, an explicit `std::arch` tile keeps
//!    one zmm register of slices times 8 factor columns in 8 accumulators
//!    (one vector load, eight broadcast FMAs per factor row). Elsewhere,
//!    and for the partial slice block at a range's edge, the portable
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
//! **Group steps** (paper §4.2 fusion, on the CPU). [`Workspace::new`]
//! cuts the factor chain, in execution order, into stages. A run of
//! `k >= 2` consecutive factors becomes one group step when every local
//! intermediate of the run (its `∏P`, then each partial `∏Q·∏P`) fits
//! a budget of 1024 elements per lane, and both the outer slice count
//! `O = K_in/∏P` and `∏P` itself are multiples of the 512-bit lane width
//! (16 for f32, 8 for f64); every other factor stays a single step as
//! above. A group step handles `width` consecutive outer slices at a
//! time: it packs their `width × ∏P` inputs lane-major with the
//! in-register transpose, applies the `k` sliced multiplies to vectors
//! held in two uninitialized stack buffers with the same broadcast-FMA
//! tile, and stores each vector of the last multiply straight to output
//! column `qidx·O + o0` — the [`fused_output_col`] map with `O` slices.
//! A run thus costs one memory pass and one pack instead of `k`. The
//! budget keeps both buffers at 64 KB (1024 vectors of 512 bits each),
//! small enough to stay in the L2 cache and well inside a default 2 MB
//! thread stack; never zeroing them keeps a group step's set-up cost at
//! a stack-pointer move. The lane conditions keep every block full and
//! let every block's pack run as whole `width × width` transposes.
//! Each lane still computes every output as one in-order FMA chain from
//! zero with intermediates rounded to `T`, so grouped and single-step
//! execution agree bit for bit. Hosts without AVX-512F run single steps
//! only.
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
//! threads as well: every stage becomes one pool broadcast over a
//! `rows × column-groups` grid, with the broadcast's completion acting as
//! the inter-stage barrier (a group step broadcasts once for its whole
//! run). Each task computes slices `[s_lo, s_hi)` of its row (outer
//! slices, for a group step) and scatters to the same output columns the
//! serial path uses, so the two modes are numerically identical (pinned
//! by a proptest). Ranges are cut in whole blocks of the running tile, so
//! only the last range of a row reaches the edge tiles, and a group
//! step's ranges are whole lane blocks.

use kron_core::shape::IterationShape;
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

/// Per-lane element budget of a group step's local intermediates: a run's
/// input block (`∏P`) and every partial product it forms (`∏Q·∏P`) must
/// each fit. The group kernel holds two ping-pong buffers of this many
/// 512-bit vectors (2 × 64 KB) uninitialized on the stack of the thread
/// that runs it, so the intermediates of a run never touch the workspace
/// buffers.
const GROUP_BUDGET: usize = 1024;

/// Most factors one group step fuses. `P = 1` factors do not grow `∏P`, so
/// the budget alone would not bound a run's length.
const GROUP_MAX_LEN: usize = 10;

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
/// sized once at construction, and the plan that cuts the factor chain
/// into single steps and group steps (see the module docs).
///
/// Create once, call [`Workspace::execute`] or [`Workspace::execute_into`]
/// many times; after construction the fused path performs **zero heap
/// allocations per factor step** (asserted by a counting-allocator test).
/// Parallel dispatch goes to the persistent global [`ThreadPool`], whose
/// boxing-free task handoff keeps even multi-threaded executes
/// allocation-free once the pool's queue is warm. A group step keeps its
/// intermediates in about 130 KB of stack on the thread that runs it,
/// which a default 2 MB thread stack holds.
pub struct Workspace<T> {
    problem: KronProblem,
    /// Row stride of both buffers (`max_intermediate_cols`).
    stride: usize,
    buf_a: Vec<T>,
    buf_b: Vec<T>,
    /// The 512-bit tile this host runs for `T`, if any.
    tile: Option<WideTile>,
    /// The factor chain cut into single steps and group steps, in
    /// execution order (see [`plan_stages`]).
    stages: Vec<Stage>,
    /// Forced `(row_groups, col_groups)` decomposition; `None` auto-selects
    /// from the pool width and problem size.
    partition: Option<(usize, usize)>,
}

/// One unit of the execution order: `len` consecutive factors starting at
/// execution step `first` (step 0 multiplies the last factor). `len == 1`
/// is a single sliced multiply; `len >= 2` is a group step, which applies
/// all `len` multiplies to a block of outer slices held in registers and
/// stack buffers and writes memory once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Stage {
    first: usize,
    len: usize,
}

/// Cuts the factor chain of `problem`, in execution order, into stages.
/// A run of `k >= 2` consecutive factors becomes one group step only when
/// every local intermediate of the run (its `∏P`, then each partial
/// `∏Q·∏P`) fits [`GROUP_BUDGET`] and both `∏P` and the outer slice count
/// `O = K_in / ∏P` are multiples of `lanes`, so every block of `lanes`
/// outer slices is full and packs as whole transposes. From the first
/// factor that has not been placed, the longest run that fits is taken
/// (a shorter prefix may fail the `∏P` condition where a longer one
/// holds); every other factor stays a single step.
/// `lanes` is `None` where no 512-bit tile runs, and then every factor is
/// a single step.
fn plan_stages(problem: &KronProblem, lanes: Option<usize>) -> Vec<Stage> {
    let its: Vec<_> = problem.iterations().collect();
    let mut stages = Vec::new();
    let mut first = 0;
    while first < its.len() {
        let longest = GROUP_MAX_LEN.min(its.len() - first);
        let len = lanes
            .and_then(|lanes| {
                (2..=longest)
                    .rev()
                    .find(|&len| run_fits(&its[first..first + len], lanes))
            })
            .unwrap_or(1);
        stages.push(Stage { first, len });
        first += len;
    }
    stages
}

/// Whether `run` (consecutive iterations, execution order) may form one
/// group step at `lanes` outer slices per block.
fn run_fits(run: &[IterationShape], lanes: usize) -> bool {
    let Some(block) = run
        .iter()
        .try_fold(1usize, |acc, it| acc.checked_mul(it.factor.p))
    else {
        return false;
    };
    if block > GROUP_BUDGET
        || !block.is_multiple_of(lanes)
        || !(run[0].input_cols / block).is_multiple_of(lanes)
    {
        return false;
    }
    // After each step the local row holds the Q's applied so far times
    // the P's still to come.
    let mut local = block;
    run.iter()
        .all(|it| match (local / it.factor.p).checked_mul(it.factor.q) {
            Some(next) if next <= GROUP_BUDGET => {
                local = next;
                true
            }
            _ => false,
        })
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
        let tile = WideTile::select::<T>();
        Workspace {
            problem: problem.clone(),
            stride,
            buf_a: vec![T::ZERO; elems],
            buf_b: vec![T::ZERO; elems],
            tile,
            stages: plan_stages(problem, tile.map(WideTile::slices)),
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
        let chain = Chain {
            factors,
            stages: &self.stages,
            tile: self.tile,
            k0,
        };

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
            } => run_wide(
                chain,
                x,
                y,
                &mut self.buf_a,
                &mut self.buf_b,
                stride,
                rows,
                l,
                row_groups,
                col_groups,
            ),
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
    /// The workspace's stage plan over `factors`.
    stages: &'a [Stage],
    /// The 512-bit tile this host runs for `T`, if any.
    tile: Option<WideTile>,
    /// Input columns (`∏Pᵢ`).
    k0: usize,
}

impl<'a, T: Element> Chain<'a, T> {
    /// `stage` resolved against its factors and its input width `k_in`.
    fn step(&self, stage: Stage, k_in: usize) -> StageStep<'a, T> {
        let n = self.factors.len();
        let factors = &self.factors[n - stage.first - stage.len..n - stage.first];
        let (prod_p, prod_q) = factors
            .iter()
            .fold((1, 1), |(p, q), f| (p * f.rows(), q * f.cols()));
        debug_assert!(prod_p > 0 && k_in.is_multiple_of(prod_p));
        let units = k_in / prod_p;
        StageStep {
            factors,
            tile: self.tile,
            k_in,
            k_out: units * prod_q,
            units,
            // A group step's blocks are one vector of outer slices: the
            // tile's width too.
            width: block_slices(self.tile),
        }
    }
}

/// One stage of the chain, resolved for execution.
#[derive(Clone, Copy)]
struct StageStep<'a, T> {
    /// The stage's factors in Kronecker order; they run last first.
    factors: &'a [&'a Matrix<T>],
    /// The 512-bit tile this host runs for `T`, if any. A group step
    /// always has one.
    tile: Option<WideTile>,
    /// Row width the stage reads.
    k_in: usize,
    /// Row width the stage writes.
    k_out: usize,
    /// Independent units a row splits into: slices (`K_in / P`) for a
    /// single step, outer slices (`K_in / ∏P`) for a group step.
    units: usize,
    /// Units per packed block; wide mode cuts unit ranges in whole blocks.
    width: usize,
}

impl<T: Element> StageStep<'_, T> {
    /// Runs the whole stage on one row.
    fn row(&self, x: &[T], out: &mut [T], panel: &mut Panel<T>) {
        debug_assert!(x.len() >= self.k_in && out.len() >= self.k_out);
        // SAFETY: `out` is an exclusive borrow covering the row's `k_out`
        // writes, and the full unit range is computed by this one call.
        unsafe { self.run_range(x, 0, self.units, out.as_mut_ptr(), panel) }
    }

    /// Computes units `[lo, hi)` of one row.
    ///
    /// # Safety
    /// `x` holds at least `k_in` elements, `lo <= hi <= units`, `out` is
    /// valid for `k_out` element writes, and no other thread concurrently
    /// touches the output elements of units `[lo, hi)`. For a group step
    /// `lo` and `hi` are multiples of `width`.
    unsafe fn run_range(&self, x: &[T], lo: usize, hi: usize, out: *mut T, panel: &mut Panel<T>) {
        match (self.factors, self.tile) {
            ([f], tile) => {
                // SAFETY: this function's contract with `slices = units`,
                // and `tile` is `select::<T>()`.
                unsafe {
                    sliced_multiply_row_range(
                        tile,
                        x,
                        f.as_slice(),
                        f.rows(),
                        f.cols(),
                        self.units,
                        lo,
                        hi,
                        out,
                        panel,
                    )
                }
            }
            // SAFETY: the plan formed this group (so `tile` is
            // `select::<T>()`, the run fits the budget and its `∏P` is a
            // multiple of the lanes), and the range and output contract
            // are this function's own.
            (factors, Some(tile)) => unsafe {
                tile.group(
                    &x[..self.k_in],
                    factors,
                    self.k_in / self.units,
                    lo,
                    hi,
                    out,
                )
            },
            (_, None) => unreachable!("group steps are planned only where a 512-bit tile runs"),
        }
    }
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

/// Wide mode: one pool broadcast per stage over a
/// `row_groups × col_groups` grid, each task computing the unit range
/// `[lo, hi)` of its rows (slices of a single step, outer slices of a
/// group step). The broadcast's completion is the barrier that lets
/// the next stage consume this stage's output.
#[allow(clippy::too_many_arguments)]
fn run_wide<T: Element>(
    chain: Chain<'_, T>,
    x: &[T],
    y: &mut [T],
    buf_a: &mut [T],
    buf_b: &mut [T],
    stride: usize,
    rows: usize,
    l: usize,
    row_groups: usize,
    col_groups: usize,
) {
    let n = chain.stages.len();
    let pool = ThreadPool::global();
    let mut k_in = chain.k0;
    let mut cur = buf_a.as_mut_ptr();
    let mut nxt = buf_b.as_mut_ptr();
    for (i, &stage) in chain.stages.iter().enumerate() {
        let step = chain.step(stage, k_in);
        let first = i == 0;
        let last = i + 1 == n;
        let (src, src_stride) = if first {
            (x.as_ptr(), chain.k0)
        } else {
            (cur as *const T, stride)
        };
        // Mirrors `run_tile`'s buffer selection: the first stage fills
        // `cur`, middle stages write `nxt` and swap, the last streams
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
        // Unit chunks are whole packed blocks of the kernel that will
        // run, so only the last chunk of a row reaches the edge tiles
        // (and a group step's chunks are whole lane blocks).
        let u_chunk = step.units.div_ceil(col_groups).div_ceil(step.width) * step.width;
        let col_tasks = step.units.div_ceil(u_chunk);

        let srcp = ConstPtr(src);
        let dstp = MutPtr(dst);
        pool.broadcast(row_tasks * col_tasks, &|t| {
            let rg = t / col_tasks;
            let cg = t % col_tasks;
            let r0 = rg * rows_per;
            let nr = rows_per.min(rows - r0);
            let lo = cg * u_chunk;
            let hi = (lo + u_chunk).min(step.units);
            let mut panel = uninit_panel();
            for r in r0..r0 + nr {
                // SAFETY: tasks partition the (row, unit-range) grid
                // disjointly; reads from `src` are shared, writes go to
                // the output columns of units `[lo, hi)` only, which no
                // other task touches. The broadcast barrier sequences
                // this stage's writes before the next stage's reads.
                unsafe {
                    let x_row =
                        std::slice::from_raw_parts(srcp.ptr().add(r * src_stride), step.k_in);
                    step.run_range(x_row, lo, hi, dstp.ptr().add(r * dst_stride), &mut panel);
                }
            }
        });

        if !first && !last {
            std::mem::swap(&mut cur, &mut nxt);
        }
        k_in = step.k_out;
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
    // One packed-panel buffer per tile, reused by every row and stage;
    // the pack loop writes the whole `p·rk` region a tile reads.
    let mut panel = uninit_panel();
    let n = chain.stages.len();
    let (mut cur, mut nxt) = (a, b);
    let mut k_in = chain.k0;
    for (i, &stage) in chain.stages.iter().enumerate() {
        let step = chain.step(stage, k_in);
        let k_out = step.k_out;
        let first = i == 0;
        let last = i + 1 == n;
        for r in 0..rows {
            // Distinct source/destination buffers in every arm, so the
            // borrows never alias.
            let xr = r * chain.k0..r * chain.k0 + k_in;
            let yr = r * l..r * l + k_out;
            let (sr, dr) = (
                r * stride..r * stride + k_in,
                r * stride..r * stride + k_out,
            );
            match (first, last) {
                (true, true) => step.row(&x[xr], &mut y[yr], &mut panel),
                (true, false) => step.row(&x[xr], &mut cur[dr], &mut panel),
                (false, true) => step.row(&cur[sr], &mut y[yr], &mut panel),
                (false, false) => step.row(&cur[sr], &mut nxt[dr], &mut panel),
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
/// read before they read it. Cache-line aligned, so each 512-bit panel
/// row the wide tile loads is one aligned line rather than two halves.
#[repr(C, align(64))]
struct Panel<T>([MaybeUninit<T>; PANEL_SLICES * PANEL_MAX_P]);

impl<T> std::ops::Deref for Panel<T> {
    type Target = [MaybeUninit<T>; PANEL_SLICES * PANEL_MAX_P];

    fn deref(&self) -> &Self::Target {
        &self.0
    }
}

impl<T> std::ops::DerefMut for Panel<T> {
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut self.0
    }
}

/// A panel with no initialization cost.
fn uninit_panel<T>() -> Panel<T> {
    Panel([const { MaybeUninit::uninit() }; PANEL_SLICES * PANEL_MAX_P])
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
            WideTile::F32 => avx512::f32x::LANES,
            #[cfg(target_arch = "x86_64")]
            WideTile::F64 => avx512::f64x::LANES,
        }
    }

    /// Runs the tile on every column of a packed block of
    /// [`WideTile::slices`] slices starting at slice `s0`.
    ///
    /// # Safety
    /// `self` came from [`WideTile::select::<T>`] (so `T` is the tile's
    /// element type and the CPU has AVX-512F), `panel.len() >= p·slices()`,
    /// `f.len() >= p·q`, `s0 + slices() <= slices`, and `out` is valid
    /// for `slices·q` element writes with the written columns owned by
    /// this thread.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    unsafe fn columns<T: Element>(
        self,
        panel: &[T],
        f: &[T],
        p: usize,
        q: usize,
        s0: usize,
        slices: usize,
        out: *mut T,
    ) {
        debug_assert!(panel.len() >= p * self.slices() && f.len() >= p * q);
        // SAFETY: the caller's contract; column `c`'s block of results
        // starts at `fused_output_col(c, slices, s0)`, i.e. `out + s0` at
        // column stride `slices`.
        unsafe {
            match self {
                #[cfg(target_arch = "x86_64")]
                WideTile::F32 => avx512::f32x::columns(
                    panel.as_ptr().cast(),
                    f.as_ptr().cast(),
                    p,
                    q,
                    out.add(s0).cast(),
                    slices,
                ),
                #[cfg(target_arch = "x86_64")]
                WideTile::F64 => avx512::f64x::columns(
                    panel.as_ptr().cast(),
                    f.as_ptr().cast(),
                    p,
                    q,
                    out.add(s0).cast(),
                    slices,
                ),
            }
        }
    }

    /// Lane-major pack: vector `j < count` of `dst` gets lane `i` from
    /// `src[i·stride + j]`, for `i` below [`WideTile::slices`].
    ///
    /// # Safety
    /// `self` came from [`WideTile::select::<T>`], `count` is a multiple
    /// of [`WideTile::slices`], `src` is valid for reads at every
    /// `i·stride + j`, and `dst` for `count·slices()` element writes.
    #[inline(always)]
    unsafe fn pack<T: Element>(self, src: *const T, stride: usize, count: usize, dst: *mut T) {
        // SAFETY: the caller's contract.
        unsafe {
            match self {
                #[cfg(target_arch = "x86_64")]
                WideTile::F32 => avx512::f32x::pack(src.cast(), stride, count, dst.cast()),
                #[cfg(target_arch = "x86_64")]
                WideTile::F64 => avx512::f64x::pack(src.cast(), stride, count, dst.cast()),
            }
        }
    }

    /// Group step: applies `factors` (Kronecker order, run last first) to
    /// the outer slices `[o_lo, o_hi)` of one row made of `x.len() / block`
    /// outer slices of `block = ∏P` elements, one block of
    /// [`WideTile::slices`] outer slices at a time.
    ///
    /// # Safety
    /// `self` came from [`WideTile::select::<T>`]; `factors` is a run
    /// [`plan_stages`] formed (at most [`GROUP_MAX_LEN`] factors whose
    /// local intermediates fit [`GROUP_BUDGET`]) and `block` is its `∏P`,
    /// a multiple of `slices()`;
    /// `o_lo` and `o_hi <= outer` are multiples of `slices()`; `out` is
    /// valid for `outer·∏Q` element writes, and no other thread touches
    /// the output columns `qidx·outer + o`, `o ∈ [o_lo, o_hi)`.
    #[inline(always)]
    unsafe fn group<T: Element>(
        self,
        x: &[T],
        factors: &[&Matrix<T>],
        block: usize,
        o_lo: usize,
        o_hi: usize,
        out: *mut T,
    ) {
        debug_assert!(factors.len() <= GROUP_MAX_LEN);
        // The run in execution order, as raw factor descriptors.
        let mut run = [(std::ptr::null::<T>(), 0, 0); GROUP_MAX_LEN];
        for (d, f) in run.iter_mut().zip(factors.iter().rev()) {
            *d = (f.as_slice().as_ptr(), f.rows(), f.cols());
        }
        let run = &run[..factors.len()];
        let outer = x.len() / block;
        debug_assert!(block <= GROUP_BUDGET && o_hi <= outer);
        // SAFETY: the caller's contract, with the factor pointers valid
        // for `p·q` reads each.
        unsafe {
            match self {
                #[cfg(target_arch = "x86_64")]
                WideTile::F32 => avx512::f32x::group(
                    x.as_ptr().cast(),
                    run_cast(run),
                    block,
                    outer,
                    o_lo,
                    o_hi,
                    out.cast(),
                ),
                #[cfg(target_arch = "x86_64")]
                WideTile::F64 => avx512::f64x::group(
                    x.as_ptr().cast(),
                    run_cast(run),
                    block,
                    outer,
                    o_lo,
                    o_hi,
                    out.cast(),
                ),
            }
        }
    }
}

/// A run's factor descriptors with the element pointer cast to `U`.
#[cfg(target_arch = "x86_64")]
fn run_cast<T, U>(run: &[(*const T, usize, usize)]) -> &[(*const U, usize, usize)] {
    // SAFETY: `(*const T, usize, usize)` and `(*const U, usize, usize)`
    // have the same layout (thin pointers of equal size and alignment).
    unsafe { std::slice::from_raw_parts(run.as_ptr().cast(), run.len()) }
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
    let (wide, out) = (WideTile::select::<T>(), out.as_mut_ptr());
    // SAFETY: `out` is an exclusive borrow covering all `slices·q` writes,
    // the full slice range is computed by this one call, and `wide` is
    // `select::<T>()`.
    unsafe { sliced_multiply_row_range(wide, x, f, p, q, slices, 0, slices, out, panel) }
}

/// The slice-range form of [`sliced_multiply_row`]: computes only slices
/// `[s_lo, s_hi)`, writing output columns `q·S + s` for `s` in that range.
/// This is the unit the wide execution mode hands to each pool task —
/// several tasks write *interleaved but disjoint* columns of the same row,
/// which is why `out` is a raw base pointer rather than `&mut [T]`.
/// `wide` is the 512-bit tile to run; `None` runs only the portable tile
/// (the bit-identity test compares the two).
///
/// # Safety
/// `wide` is `None` or the result of [`WideTile::select::<T>`]; `out`
/// must be valid for `slices·q` element writes, `x` must hold at least
/// `s_hi·p` elements, `f` at least `p·q`, `s_lo ≤ s_hi ≤ slices`, and no
/// other thread may concurrently touch the output elements
/// `{q·slices + s | s ∈ [s_lo, s_hi), q ∈ [0, q)}`.
#[allow(clippy::too_many_arguments)]
unsafe fn sliced_multiply_row_range<T: Element>(
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
        // Full blocks whose `P` is a multiple of the lanes pack with the
        // in-register transpose; the rest take the scalar loop.
        match wide.filter(|_| rk == width && p.is_multiple_of(width)) {
            // SAFETY: `tile` is `select::<T>()` (caller contract), `p` is
            // a multiple of its lanes; the pack reads `x[(s0+i)·p + pi]`
            // for `i < width`, `pi < p`, all below `s_hi·p <= x.len()`,
            // and writes the `p·width <= PANEL_MAX_P·PANEL_SLICES`
            // elements at the panel's start.
            Some(tile) => unsafe {
                tile.pack(x.as_ptr().add(s0 * p), p, p, panel.as_mut_ptr().cast())
            },
            None => {
                for i in 0..rk {
                    let slice = &x[(s0 + i) * p..(s0 + i) * p + p];
                    for (pi, &v) in slice.iter().enumerate() {
                        panel[pi * rk + i] = MaybeUninit::new(v);
                    }
                }
            }
        }
        // SAFETY: the pack above wrote index `pi·rk + i` for every
        // `pi < p`, `i < rk`, i.e. all of `[0, p·rk)`, and `p·rk` fits the
        // panel because `p <= PANEL_MAX_P` and `rk <= PANEL_SLICES`.
        let packed = unsafe { std::slice::from_raw_parts(panel.as_ptr().cast::<T>(), p * rk) };
        // Full blocks go to the wide tile; the portable tile takes
        // partial blocks.
        match wide.filter(|_| rk == width) {
            // SAFETY: `tile` is `select::<T>()` (caller contract), the
            // block is full (`packed` holds `p·width`, `s0 + width <=
            // s_hi <= slices`), and `out` and column ownership are this
            // function's own contract.
            Some(tile) => unsafe { tile.columns(packed, f, p, q, s0, slices, out) },
            // SAFETY: `packed` holds `p·rk`, `s0 + rk <= s_hi <= slices`,
            // and `out` and column ownership are this function's own
            // contract.
            None => unsafe { portable_block(packed, rk, f, p, q, s0, slices, out) },
        }
        s0 += rk;
    }
}

/// Portable [`RK`]`×`[`RQ`] tiles over every column of a packed block of
/// `rk` slices starting at slice `s0` (panel row stride `rk`).
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
    s0: usize,
    slices: usize,
    out: *mut T,
) {
    for i0 in (0..rk).step_by(RK) {
        let sub = RK.min(rk - i0);
        let sub_panel = &panel[i0..];
        for q0 in (0..q).step_by(RQ) {
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

/// The 512-bit kernels, one module per element type generated from one
/// body: the register tile, the transposing pack and the group step.
///
/// The tile keeps `NQ` accumulators of one zmm register of consecutive
/// slices; per factor row `p` it loads one vector from the packed panel
/// and issues one FMA per column against a broadcast of `F[p][q0 + j]`.
/// Lane `i` of accumulator `j` is therefore the same in-order FMA chain
/// over `p`, starting from zero, that the portable tile computes for slice
/// `s0 + i`, column `q0 + j`.
#[cfg(target_arch = "x86_64")]
mod avx512 {
    use super::GROUP_BUDGET;
    use std::arch::x86_64::{
        __m512, __m512d, _mm512_castpd_ps, _mm512_castps_pd, _mm512_fmadd_pd, _mm512_fmadd_ps,
        _mm512_loadu_pd, _mm512_loadu_ps, _mm512_set1_pd, _mm512_set1_ps, _mm512_setzero_pd,
        _mm512_setzero_ps, _mm512_shuffle_f32x4, _mm512_shuffle_f64x2, _mm512_storeu_pd,
        _mm512_storeu_ps, _mm512_unpackhi_pd, _mm512_unpackhi_ps, _mm512_unpacklo_pd,
        _mm512_unpacklo_ps,
    };
    use std::mem::MaybeUninit;

    macro_rules! lane_kernels {
        (
            $name:ident, $t:ty, $v:ty, $lanes:literal,
            $load:ident, $store:ident, $set1:ident, $zero:ident, $fmadd:ident,
            $transpose:ident
        ) => {
            /// Kernels over one zmm register of
            #[doc = concat!("`", stringify!($t), "`")]
            /// lanes.
            pub(super) mod $name {
                use super::*;

                /// Lanes of one zmm register.
                pub(in super::super) const LANES: usize = $lanes;

                /// `LANES` slices × `NQ` columns. Column `q0 + j`'s
                /// results are stored as one vector at
                /// `out + (q0 + j)·col_stride`.
                ///
                /// # Safety
                /// The CPU supports AVX-512F; `panel` is valid for
                /// `p·LANES` reads (row stride `LANES`), `f` for `p·q`
                /// reads with `q0 + NQ <= q`, and `out` for a vector write
                /// at each `(q0 + j)·col_stride`, owned by this thread.
                #[allow(clippy::too_many_arguments)]
                #[target_feature(enable = "avx512f")]
                unsafe fn tile<const NQ: usize>(
                    panel: *const $t,
                    f: *const $t,
                    p: usize,
                    q: usize,
                    q0: usize,
                    out: *mut $t,
                    col_stride: usize,
                ) {
                    let mut acc = [$zero(); NQ];
                    for pi in 0..p {
                        // SAFETY: `pi < p`, so the `LANES` panel and `NQ`
                        // factor elements read here are inside the ranges
                        // the caller guarantees.
                        unsafe {
                            let xv = $load(panel.add(pi * LANES));
                            let fr = f.add(pi * q + q0);
                            for (j, a) in acc.iter_mut().enumerate() {
                                *a = $fmadd(xv, $set1(*fr.add(j)), *a);
                            }
                        }
                    }
                    for (j, a) in acc.into_iter().enumerate() {
                        // SAFETY: column `q0 + j < q`'s vector slot is
                        // one the caller guarantees writable.
                        unsafe { $store(out.add((q0 + j) * col_stride), a) };
                    }
                }

                /// All `q` columns of one packed slice block: `WQ` at a
                /// time, then 4, 2 and 1.
                ///
                /// # Safety
                /// As [`tile`], for every column below `q`.
                #[target_feature(enable = "avx512f")]
                pub(in super::super) unsafe fn columns(
                    panel: *const $t,
                    f: *const $t,
                    p: usize,
                    q: usize,
                    out: *mut $t,
                    col_stride: usize,
                ) {
                    let mut q0 = 0;
                    // SAFETY: every call covers columns below `q`, the
                    // caller's contract.
                    unsafe {
                        while q0 + super::super::WQ <= q {
                            tile::<{ super::super::WQ }>(panel, f, p, q, q0, out, col_stride);
                            q0 += super::super::WQ;
                        }
                        if q0 + 4 <= q {
                            tile::<4>(panel, f, p, q, q0, out, col_stride);
                            q0 += 4;
                        }
                        if q0 + 2 <= q {
                            tile::<2>(panel, f, p, q, q0, out, col_stride);
                            q0 += 2;
                        }
                        if q0 < q {
                            tile::<1>(panel, f, p, q, q0, out, col_stride);
                        }
                    }
                }

                /// Lane-major pack: vector `j < count` of `dst` gets
                /// lane `i` from `src[i·stride + j]`. Each `LANES × LANES`
                /// block is read as `LANES` contiguous row vectors and
                /// transposed in registers, so every source line is
                /// loaded once.
                ///
                /// # Safety
                /// The CPU supports AVX-512F; `count` is a multiple of
                /// `LANES`; `src` is valid for reads at every
                /// `i·stride + j`, `i < LANES`, `j < count`; `dst` for
                /// `count·LANES` writes.
                #[target_feature(enable = "avx512f")]
                pub(in super::super) unsafe fn pack(
                    src: *const $t,
                    stride: usize,
                    count: usize,
                    dst: *mut $t,
                ) {
                    debug_assert!(count.is_multiple_of(LANES));
                    for j0 in (0..count).step_by(LANES) {
                        let mut rows = [$zero(); LANES];
                        // SAFETY: row `i` reads `src[i·stride + j0 ..
                        // + LANES]` with `j0 + LANES <= count`, and vector
                        // `j0 + c` of `dst` is below `count`.
                        unsafe {
                            for (i, r) in rows.iter_mut().enumerate() {
                                *r = $load(src.add(i * stride + j0));
                            }
                            $transpose(&mut rows);
                            for (c, r) in rows.into_iter().enumerate() {
                                $store(dst.add((j0 + c) * LANES), r);
                            }
                        }
                    }
                }

                /// Group step over outer slices `[o_lo, o_hi)` of one
                /// row: per block of `LANES` outer slices, pack the
                /// block's `LANES × block` inputs lane-major into a stack
                /// buffer, apply every factor of `run` (execution order,
                /// `(ptr, P, Q)`) ping-ponging between two stack buffers,
                /// and store each vector of the last step straight to
                /// output column `qidx·outer + o0`.
                ///
                /// # Safety
                /// The CPU supports AVX-512F; `run` is non-empty; `block`
                /// is a multiple of `LANES`, and every local intermediate
                /// (`block`, then each partial `∏Q·∏P`) is at most
                /// [`GROUP_BUDGET`]; each `(ptr, p, q)`
                /// is valid for `p·q` reads; `x` is valid for
                /// `outer·block` reads; `o_lo`, `o_hi <= outer` are
                /// multiples of `LANES`; `out` is valid for `outer·∏Q`
                /// writes, and no other thread touches the output columns
                /// `qidx·outer + o` with `o ∈ [o_lo, o_hi)`.
                #[target_feature(enable = "avx512f")]
                pub(in super::super) unsafe fn group(
                    x: *const $t,
                    run: &[(*const $t, usize, usize)],
                    block: usize,
                    outer: usize,
                    o_lo: usize,
                    o_hi: usize,
                    out: *mut $t,
                ) {
                    // Never zeroed: the pack writes the `block` vectors
                    // the first step reads, and every step writes the
                    // `s·q` vectors the next one reads.
                    let mut a = [const { MaybeUninit::<$v>::uninit() }; GROUP_BUDGET];
                    let mut b = [const { MaybeUninit::<$v>::uninit() }; GROUP_BUDGET];
                    let (a, b) = (a.as_mut_ptr().cast::<$t>(), b.as_mut_ptr().cast::<$t>());
                    let mut o0 = o_lo;
                    while o0 < o_hi {
                        // SAFETY: block `o0` holds `x[(o0 + i)·block + j]`
                        // for `i < LANES`, `j < block`, inside `x` as
                        // `o0 + LANES <= outer`; `block` is a multiple of
                        // `LANES`, and `a` holds `block <= GROUP_BUDGET`
                        // vectors.
                        unsafe { pack(x.add(o0 * block), block, block, a) };
                        let (mut src, mut dst) = (a, b);
                        let mut len = block;
                        for (i, &(f, p, q)) in run.iter().enumerate() {
                            let s = len / p;
                            let last = i + 1 == run.len();
                            for si in 0..s {
                                // Local slice `si` is vectors
                                // `[si·p, si·p + p)` of `src`; its column
                                // `c` goes to local vector `c·s + si`,
                                // which the last step maps to output
                                // column `(c·s + si)·outer + o0`.
                                // SAFETY: `si·p + p <= len <= GROUP_BUDGET`
                                // vectors of `src` were written by the
                                // previous step (or the pack); `dst` holds
                                // `s·q <= GROUP_BUDGET` vectors; the last
                                // step writes lanes `[o0, o0 + LANES)` of
                                // output columns below `outer·∏Q`, owned
                                // by this thread.
                                unsafe {
                                    let panel = src.add(si * p * LANES);
                                    if last {
                                        columns(
                                            panel,
                                            f,
                                            p,
                                            q,
                                            out.add(si * outer + o0),
                                            s * outer,
                                        );
                                    } else {
                                        columns(panel, f, p, q, dst.add(si * LANES), s * LANES);
                                    }
                                }
                            }
                            std::mem::swap(&mut src, &mut dst);
                            len = s * q;
                        }
                        o0 += LANES;
                    }
                }
            }
        };
    }

    lane_kernels!(
        f32x,
        f32,
        __m512,
        16,
        _mm512_loadu_ps,
        _mm512_storeu_ps,
        _mm512_set1_ps,
        _mm512_setzero_ps,
        _mm512_fmadd_ps,
        transpose_16x16
    );
    lane_kernels!(
        f64x,
        f64,
        __m512d,
        8,
        _mm512_loadu_pd,
        _mm512_storeu_pd,
        _mm512_set1_pd,
        _mm512_setzero_pd,
        _mm512_fmadd_pd,
        transpose_8x8
    );

    /// Transposes 16 rows of 16 f32 in place: afterwards `r[c]` holds
    /// column `c`. Unpacks pair rows within 128-bit lanes, then two rounds
    /// of `shuffle_f32x4` gather each column's four 4-row pieces.
    #[target_feature(enable = "avx512f")]
    fn transpose_16x16(r: &mut [__m512; 16]) {
        // v[g][e], lane k: rows 4g..4g+3 at column 4k + e.
        let mut v = [[_mm512_setzero_ps(); 4]; 4];
        for (g, vg) in v.iter_mut().enumerate() {
            let [a, b, c, d] = [r[4 * g], r[4 * g + 1], r[4 * g + 2], r[4 * g + 3]];
            let (ab_lo, ab_hi) = (_mm512_unpacklo_ps(a, b), _mm512_unpackhi_ps(a, b));
            let (cd_lo, cd_hi) = (_mm512_unpacklo_ps(c, d), _mm512_unpackhi_ps(c, d));
            let pd = _mm512_castps_pd;
            *vg = [
                _mm512_castpd_ps(_mm512_unpacklo_pd(pd(ab_lo), pd(cd_lo))),
                _mm512_castpd_ps(_mm512_unpackhi_pd(pd(ab_lo), pd(cd_lo))),
                _mm512_castpd_ps(_mm512_unpacklo_pd(pd(ab_hi), pd(cd_hi))),
                _mm512_castpd_ps(_mm512_unpackhi_pd(pd(ab_hi), pd(cd_hi))),
            ];
        }
        for e in 0..4 {
            let even01 = _mm512_shuffle_f32x4::<0x88>(v[0][e], v[1][e]);
            let even23 = _mm512_shuffle_f32x4::<0x88>(v[2][e], v[3][e]);
            let odd01 = _mm512_shuffle_f32x4::<0xdd>(v[0][e], v[1][e]);
            let odd23 = _mm512_shuffle_f32x4::<0xdd>(v[2][e], v[3][e]);
            r[e] = _mm512_shuffle_f32x4::<0x88>(even01, even23);
            r[8 + e] = _mm512_shuffle_f32x4::<0xdd>(even01, even23);
            r[4 + e] = _mm512_shuffle_f32x4::<0x88>(odd01, odd23);
            r[12 + e] = _mm512_shuffle_f32x4::<0xdd>(odd01, odd23);
        }
    }

    /// Transposes 8 rows of 8 f64 in place: afterwards `r[c]` holds
    /// column `c`.
    #[target_feature(enable = "avx512f")]
    fn transpose_8x8(r: &mut [__m512d; 8]) {
        // t[2h + i], 128-bit lane k: rows 2h, 2h+1 at column 2k + i.
        let mut t = [_mm512_setzero_pd(); 8];
        for h in 0..4 {
            t[2 * h] = _mm512_unpacklo_pd(r[2 * h], r[2 * h + 1]);
            t[2 * h + 1] = _mm512_unpackhi_pd(r[2 * h], r[2 * h + 1]);
        }
        // u[b + e], e < 4: rows b..b+3 at columns e and e + 4.
        let mut u = [_mm512_setzero_pd(); 8];
        for b in [0, 4] {
            u[b] = _mm512_shuffle_f64x2::<0x88>(t[b], t[b + 2]);
            u[b + 1] = _mm512_shuffle_f64x2::<0x88>(t[b + 1], t[b + 3]);
            u[b + 2] = _mm512_shuffle_f64x2::<0xdd>(t[b], t[b + 2]);
            u[b + 3] = _mm512_shuffle_f64x2::<0xdd>(t[b + 1], t[b + 3]);
        }
        for e in 0..4 {
            r[e] = _mm512_shuffle_f64x2::<0x88>(u[e], u[4 + e]);
            r[4 + e] = _mm512_shuffle_f64x2::<0xdd>(u[e], u[4 + e]);
        }
    }

    const _: () = assert!(f32x::LANES <= super::PANEL_SLICES && f64x::LANES <= super::PANEL_SLICES);
}

/// Fallback for factors taller than [`PANEL_MAX_P`]: no packing (the panel
/// would not fit the stack), strided reads, still allocation-free and still
/// scattering through [`fused_output_col`].
///
/// # Safety
/// The contract of [`sliced_multiply_row_range`] for `x`, `f`, the slice
/// range and `out`.
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
            for q in [1usize, 5, 7, 8, 13, 16] {
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
                                sliced_multiply_row_range(
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

    fn stages(runs: &[usize]) -> Vec<Stage> {
        let mut first = 0;
        runs.iter()
            .map(|&len| {
                first += len;
                Stage {
                    first: first - len,
                    len,
                }
            })
            .collect()
    }

    fn shapes(m: usize, fs: &[(usize, usize)]) -> KronProblem {
        KronProblem::new(m, fs.iter().map(|&(p, q)| FactorShape::new(p, q)).collect()).unwrap()
    }

    #[test]
    fn planner_cuts_runs_at_the_budget_and_the_lane_width() {
        for lanes in [8, 16] {
            // Run of 32·32 = GROUP_BUDGET exactly forms; O = 16.
            let at_budget = shapes(2, &[(16, 16), (32, 32), (32, 32)]);
            assert_eq!(plan_stages(&at_budget, Some(lanes)), stages(&[2, 1]));
            // One more column makes the run's second intermediate
            // 33·32 > GROUP_BUDGET, so the run starts one factor later.
            let over = shapes(2, &[(16, 16), (32, 33), (32, 32)]);
            assert_eq!(plan_stages(&over, Some(lanes)), stages(&[1, 2]));
            // O = 4 after two factors: never a multiple of the lanes.
            let narrow = shapes(3, &[(4, 4), (4, 4), (2, 2)]);
            assert_eq!(plan_stages(&narrow, Some(lanes)), stages(&[1, 1, 1]));
            // O = 64 fits, but ∏P = 4 is below the lanes, so the block
            // would not pack as whole transposes.
            let short = shapes(2, &[(64, 64), (2, 2), (2, 2)]);
            assert_eq!(plan_stages(&short, Some(lanes)), stages(&[1, 1, 1]));
            // Without a 512-bit tile every factor is a single step.
            assert_eq!(plan_stages(&at_budget, None), stages(&[1, 1, 1]));
        }
        // 4⁴ (the serving mix's f32 model and the allocation gate's
        // chain): two runs of two factors at either lane width.
        let p4 = shapes(2, &[(4, 4); 4]);
        assert_eq!(plan_stages(&p4, Some(16)), stages(&[2, 2]));
        assert_eq!(plan_stages(&p4, Some(8)), stages(&[2, 2]));
        // The f32 lanes (16) need a larger O than the f64 lanes (8).
        let p8 = shapes(3, &[(8, 8); 4]);
        assert_eq!(plan_stages(&p8, Some(16)), stages(&[2, 2]));
        assert_eq!(plan_stages(&p8, Some(8)), stages(&[3, 1]));
        // 2⁸: the two- and three-factor prefixes fail the ∏P condition at
        // 16 lanes, so the planner takes the longest run that fits, not
        // the first that stops growing.
        let p2 = shapes(2, &[(2, 2); 8]);
        assert_eq!(plan_stages(&p2, Some(16)), stages(&[4, 4]));
        assert_eq!(plan_stages(&p2, Some(8)), stages(&[5, 3]));
        // Figure 9 shapes: P = 64 and 128 stay single steps.
        for (p, n, f32_runs) in [
            (8, 5, &[3, 2][..]),
            (8, 6, &[3, 3]),
            (16, 4, &[2, 2]),
            (16, 5, &[2, 2, 1]),
            (32, 3, &[2, 1]),
            (32, 4, &[2, 2]),
            (64, 2, &[1, 1]),
            (128, 3, &[1, 1, 1]),
        ] {
            let problem = KronProblem::uniform(16, p, n).unwrap();
            assert_eq!(
                plan_stages(&problem, Some(16)),
                stages(f32_runs),
                "p{p}n{n}"
            );
        }
    }

    #[test]
    fn differential_pinned_shapes_form_runs() {
        // The shapes `tests/differential.rs` pins for the group path.
        for (fs, lanes) in [
            (&[(8, 8); 4][..], 16),
            (&[(2, 2); 8], 16),
            (&[(8, 3), (4, 2), (2, 4), (4, 4), (2, 2)], 16),
            (&[(8, 8); 4], 8),
            (&[(2, 2); 8], 8),
            (&[(4, 2), (2, 4), (4, 4), (2, 2)], 8),
        ] {
            let plan = plan_stages(&shapes(2, fs), Some(lanes));
            assert!(
                plan.iter().any(|s| s.len >= 2),
                "{fs:?} at {lanes} lanes: {plan:?}"
            );
        }
    }

    /// The transposing pack must place `src[i·stride + j]` in lane `i` of
    /// vector `j`.
    fn assert_pack_is_lane_major<T: Element>() {
        let Some(tile) = WideTile::select::<T>() else {
            eprintln!("SKIPPED lane-major pack: this CPU has no AVX-512F");
            return;
        };
        let lanes = tile.slices();
        for (count, stride) in [(lanes, lanes), (2 * lanes, 3 * lanes), (lanes, 40)] {
            let src: Vec<T> = (0..lanes * stride).map(|v| T::from_f64(v as f64)).collect();
            let mut dst = vec![T::ZERO; count * lanes];
            // SAFETY: `tile` is `select::<T>()`, `count` is a multiple of
            // its lanes, `src` holds `lanes·stride >= (lanes - 1)·stride +
            // count` elements and `dst` `count·lanes`.
            unsafe { tile.pack(src.as_ptr(), stride, count, dst.as_mut_ptr()) };
            for j in 0..count {
                for i in 0..lanes {
                    assert_eq!(
                        dst[j * lanes + i].to_f64(),
                        (i * stride + j) as f64,
                        "count {count} stride {stride}: vector {j} lane {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn pack_is_lane_major_f32() {
        assert_pack_is_lane_major::<f32>();
    }

    #[test]
    fn pack_is_lane_major_f64() {
        assert_pack_is_lane_major::<f64>();
    }

    /// Grouped execution, in every partition mode, must write the same
    /// bits as step-by-step execution on random real data.
    fn assert_groups_match_single_steps<T: Element>() {
        let Some(lanes) = WideTile::select::<T>().map(WideTile::slices) else {
            eprintln!(
                "SKIPPED group-vs-step bit identity ({}): this CPU has no AVX-512F, \
                 so no group steps form",
                T::DTYPE.rust_name()
            );
            return;
        };
        let mut rng = 0x2545_F491_4F6C_DD1D_u64;
        for (m, fs) in [
            // P ≠ Q, Q not a multiple of 8: a run of (2,7)·(8,3), then a
            // single (32,5) step.
            (3, &[(32, 5), (8, 3), (2, 7)][..]),
            // A run at exactly the budget, and one cut just past it.
            (2, &[(16, 16), (32, 32), (32, 32)]),
            (2, &[(16, 16), (32, 33), (32, 32)]),
            // O not a multiple of the lanes: single steps only.
            (3, &[(4, 4), (4, 4), (2, 2)]),
            // Long runs of small factors, and a run ending the chain.
            (5, &[(2, 2); 8]),
            (3, &[(8, 8); 4]),
            (2, &[(8, 3), (4, 2), (2, 4), (4, 4), (2, 2)]),
        ] {
            let problem = shapes(m, fs);
            let x = Matrix::from_vec(m, problem.input_cols(), {
                random_vec::<T>(m * problem.input_cols(), &mut rng)
            })
            .unwrap();
            let factors: Vec<Matrix<T>> = fs
                .iter()
                .map(|&(p, q)| Matrix::from_vec(p, q, random_vec::<T>(p * q, &mut rng)).unwrap())
                .collect();
            let refs: Vec<&Matrix<T>> = factors.iter().collect();

            let mut steps = Workspace::<T>::new(&problem);
            steps.stages = plan_stages(&problem, None);
            steps.set_partition(Some((1, 1)));
            let want = steps.execute(&x, &refs).unwrap();

            let mut grouped = Workspace::<T>::new(&problem);
            assert_eq!(grouped.stages, plan_stages(&problem, Some(lanes)));
            for partition in [
                Some((1, 1)),
                Some((2, 1)),
                Some((1, 2)),
                Some((1, 3)),
                Some((2, 3)),
            ] {
                grouped.set_partition(partition);
                let got = grouped.execute(&x, &refs).unwrap();
                for (i, (g, w)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
                    assert_eq!(
                        g.to_f64().to_bits(),
                        w.to_f64().to_bits(),
                        "{problem} {partition:?} element {i}: grouped {g} vs steps {w}"
                    );
                }
            }
        }
    }

    #[test]
    fn group_steps_are_bit_identical_to_single_steps_f32() {
        assert_groups_match_single_steps::<f32>();
    }

    #[test]
    fn group_steps_are_bit_identical_to_single_steps_f64() {
        assert_groups_match_single_steps::<f64>();
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
        // Shapes whose ∏P overflows usize are typed errors, not wraps:
        // four 65536×1 factors (∏P = 2^64) and 41 factors of 3×3.
        let tall = Matrix::<f64>::zeros(65536, 1);
        let three = Matrix::<f64>::identity(3);
        for factors in [vec![&tall; 4], vec![&three; 41]] {
            assert!(matches!(
                kron_matmul_fused(&x, &factors),
                Err(KronError::ShapeOverflow { .. })
            ));
        }
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
