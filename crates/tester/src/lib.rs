//! Randomized coherence protocol tester (paper §3.4).
//!
//! "All three protocols — Snooping, Directory, and BASH — were tested using
//! a stand-alone random tester. This tester uses false sharing, random
//! action/check (store/load) pairs, and widely variable message latencies
//! to force each protocol through a myriad of corner cases."
//!
//! This crate is that tester: [`RandomWorkload`] run through
//! [`run_verify`], the one harness every workload is checked under
//! ([`RandomWorkload::hostile`] is the tester's setup):
//!
//! * **false sharing** — a handful of hot blocks, each node writing its own
//!   word of them, so data races never exist at word granularity while the
//!   blocks themselves bounce violently between caches;
//! * **action/check pairs** — every store's value is a per-node monotone
//!   counter; a node loading *its own* word must see exactly its last
//!   store, and loading *another node's* word must see a non-decreasing
//!   sequence (per-location coherence order) bounded by the writer's issue
//!   counter;
//! * **variable latencies** — crossbar injection/traversal jitter shuffles
//!   message timing (ordered networks stay totally ordered, as in real
//!   hardware);
//! * **quiescence invariants** — after draining: exactly one owner per
//!   block, home owner records match cache states, every cached copy equals
//!   the owner's data, and each word equals its writer's last store;
//! * **transition coverage** — every controller records its (state, event)
//!   transitions, which the [`VerifyReport`] merges; Table 1 is built from
//!   them.
//!
//! The harness is not tied to the random tester; it is a full
//! **scenario-driven verification subsystem**:
//!
//! * [`verify`] — drive any catalog scenario, replayed trace or other
//!   workload through any protocol with the (generalized) value oracle,
//!   quiescence and structural invariants enabled;
//! * [`differential`] — replay one captured trace through all three
//!   protocols, each replay under the full invariant suite, and compare
//!   their per-node latency distributions;
//! * [`minimize`] — greedily shrink a failing trace while the violation
//!   reproduces, yielding a minimal `.trace` repro.

pub mod checker;
pub mod differential;
pub mod harness;
pub mod minimize;
pub mod verify;
pub mod workload;

pub use checker::{CheckViolation, Oracle};
pub use differential::{differential_trace, DifferentialReport, LatencyDiff, LatencySummary};
pub use harness::sweep_structural;
pub use minimize::{minimize_trace, MinimizeOutcome};
pub use verify::{
    run_verify, run_verify_scenario, run_verify_trace, verify_catalog_reports, CheckedWorkload,
    VerifyConfig, VerifyReport,
};
pub use workload::RandomWorkload;
