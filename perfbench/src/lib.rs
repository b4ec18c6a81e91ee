//! Wall-clock end-to-end benchmark of the sharded key-value store over
//! real TCP sockets. See `README.md` for the workloads, the metrics and
//! what their units mean.

#![forbid(unsafe_code)]

pub mod cluster;
pub mod layers;
pub mod run;
pub mod store;
pub mod sys;
pub mod tap;
pub mod verdict;
