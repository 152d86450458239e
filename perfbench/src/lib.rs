//! Host-time benchmark of the fft2d-3dmem simulator.
//!
//! Four closed-loop workloads call the simulator's public API and are
//! timed from outside; a traced run splits each unit across the layers
//! (`layout`, `mem3d`, `fft2d` phases and explorer, `sim-exec`,
//! `tenancy`). Every unit's simulated output is checked against golden
//! digests made on the reference service path. See `README.md` for the
//! workloads and the metric map.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod golden;
pub mod host;
pub mod layers;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workload;
