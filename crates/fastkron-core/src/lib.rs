//! # fastkron-core
//!
//! The paper's contribution: Kron-Matmul by *sliced multiplication*
//! (Algorithm 1), a tiled kernel with shift caching (§4.1), fusion of
//! consecutive sliced multiplications in shared memory (§4.2), and an
//! autotuner over tile sizes (§4.3).
//!
//! Four execution layers are provided:
//!
//! * [`exec`] — **the production path**: fused sliced-multiply execution
//!   with zero intermediate allocations and no transpose pass. A
//!   [`exec::Workspace`] holds two ping-pong buffers sized once from
//!   [`kron_core::KronProblem::max_intermediate_elems`]; each factor step
//!   runs a register-blocked microkernel (packed slice panels; a 512-bit
//!   tile on AVX-512F CPUs, chosen at run time, and the portable `RK×RQ`
//!   `mul_add` tile elsewhere) whose epilogue scatters results directly
//!   to output column `q·K/P + slice` ([`exec::fused_output_col`]) — the
//!   memory shuffle the shuffle algorithm pays for never happens. On
//!   AVX-512F CPUs, runs of consecutive small factors execute as one
//!   *group step* (the §4.2 fusion): a block of outer slices stays in
//!   registers and stack buffers across the run's multiplies, and memory
//!   is written once per run instead of once per factor. Row tiles run
//!   in parallel, each threading its *entire* factor chain through its
//!   own disjoint slice of the workspace.
//! * [`algorithm`] — the straightforward per-step functional reference for
//!   a single sliced multiply ([`algorithm::sliced_multiply`]); the full
//!   chain ([`algorithm::kron_matmul_fastkron`]) now runs on the fused
//!   [`exec`] path.
//! * [`kernel`] / [`fused`] — thread-block-accurate emulation of the CUDA
//!   kernels, usable both functionally (tests) and in address-only trace
//!   mode (performance counters). The kernel epilogue and [`exec`] share
//!   one output-column map, so the layers cannot drift apart.
//! * [`engine`] — the public planned API: [`FastKron::plan`] autotunes tile
//!   sizes for a problem on a device, [`KronPlan::execute`] computes (on
//!   the fused path), and [`KronPlan::simulate`] produces a simulated-time
//!   [`gpu_sim::ExecReport`].

#![deny(missing_docs)]

pub mod algorithm;
pub mod engine;
pub mod exec;
pub mod fused;
pub mod kernel;
pub mod tile;
pub mod tuner;

pub use engine::{FastKron, KronPlan, PlanStage};
pub use exec::{kron_matmul_fused, sliced_multiply_rows_into, PackPanel, Workspace};
pub use tile::{Caching, TileConfig};
pub use tuner::{AutoTuner, Constraints, TuneOutcome, TuneReport};
