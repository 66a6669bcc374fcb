//! Execution-time and memory cost models for DynaPipe's planners.
//!
//! The paper (§3) builds cost models by *profiling* forward/backward time
//! and memory at power-of-two micro-batch sizes and sequence lengths, then
//! bridging gaps with linear interpolation. This crate reproduces that
//! machinery: [`profile`] samples the analytic hardware model (the
//! reproduction's stand-in for running kernels on a real GPU) on a geometric
//! grid, and [`grid`] provides the multilinear interpolation. [`CostModel`]
//! composes per-layer estimates into per-stage and per-micro-batch
//! estimates, and [`iteration`] implements the pipeline iteration-time
//! model of §4 (Eq. 1).
//!
//! The interpolation gap between grid points — plus the simulator's
//! execution-time jitter — is what separates the planner's estimates from
//! "measured" values, reproducing the prediction-error study of Fig. 18.

pub mod costmodel;
pub mod grid;
pub mod iteration;
pub mod profile;

pub use costmodel::{CostModel, ModePrices, ShapePricer};
pub use grid::{grid_query_stats, Axis, GridQueryStats, GridSet, NdGrid};
pub use iteration::iteration_time;
pub use profile::{ProfileDb, ProfileOptions};
