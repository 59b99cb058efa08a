//! # maybms-bench — workload generators and experiment harnesses
//!
//! Reproduces the MayBMS evaluation artifacts (DESIGN.md §3): seeded
//! generators for the NBA what-if scenario (Figure 1), random DNF
//! families, walk-group lineage, and the U-relation-overhead workloads; plus [`naive`], the reference
//! implementations the property tests in `tests/` compare against.
//! Criterion benches live in `benches/`; printable experiment harnesses
//! in `src/bin/exp_*.rs`; CI's tracing-overhead gate is
//! `src/bin/overhead_gate.rs`.

pub mod naive;
pub mod workloads;
