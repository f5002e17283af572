//! Host-time benchmark of the pre-stores simulator.
//!
//! Four workloads drive the repository's crates through their public
//! functions. An untraced run reports the end-to-end metrics; a traced
//! run times the benchmark's own calls into each layer and reports the
//! per-layer metrics. See `README.md` in this directory.

pub mod host;
pub mod metrics;
pub mod pinned;
pub mod reference;
pub mod run;
pub mod spans;
pub mod work;
