//! A benchmark of the decay-space system end to end: scenario specs
//! through compile, session, engine and channel, and the paper's office
//! capacity pipeline. See `README.md` for the workloads and metrics.

pub mod drive;
pub mod pins;
pub mod probe;
pub mod stats;
pub mod workloads;
