//! # maybms-bench — workload generators and experiment harnesses
//!
//! Seeded generators for the MayBMS evaluation (§3): the NBA what-if
//! scenario (Figure 1), random DNF families, walk-group lineage, and the
//! U-relation-overhead workloads; plus [`naive`], the reference
//! implementations the property tests in `tests/` compare against.
//! Printable experiment harnesses live in `src/bin/exp_*.rs`; CI's
//! tracing-overhead gate is `src/bin/overhead_gate.rs`. Performance is
//! measured by the repository's `benchmark/` package, not here.

pub mod naive;
pub mod workloads;
