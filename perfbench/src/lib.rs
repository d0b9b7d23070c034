//! FARe training benchmark: order statistics over unit times, self-time
//! spans, the rules that decide when a unit failed, and a traced replica
//! of `Trainer::run`. The `perfbench` binary drives them; README.md
//! describes the workloads and metrics.

pub mod replica;
pub mod stats;
pub mod trace;
pub mod verdict;
