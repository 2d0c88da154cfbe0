//! Layered storage-op benchmark: wall time per simulated storage op through
//! the whole stack (driver → client → executor → `Cluster::submit` →
//! stores), on blob, queue and table workloads, attributed per layer by a
//! separate traced run. See `README.md` for the metrics and how to run it.

pub mod host;
pub mod trace;
pub mod twin;
pub mod workload;
