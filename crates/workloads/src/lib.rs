//! Workload generators for the BASH reproduction.
//!
//! * [`microbench`] — the paper's locking microbenchmark (§4.1): every
//!   processor acquires and releases mostly-uncontended locks; with the
//!   number of locks ≈ lines per cache, essentially every acquire is a
//!   sharing miss (near worst case for the directory protocol).
//! * [`synthetic`] — parameterized stand-ins for the paper's five
//!   full-system workloads (Table 2). We cannot run Simics + DB2/Apache/JVM
//!   images; the generators reproduce the three properties §5.4 says drive
//!   the results: L2 miss rate, fraction of sharing misses, and read/write
//!   mix (the README's "Scenario catalog & traces" section gives the
//!   substitution argument and each stand-in's parameters).
//! * [`patterns`] — the classic sharing patterns (producer-consumer,
//!   migratory, false sharing, Zipf hot set, phase-shifting mixes).
//! * [`catalog`] — every workload above as a named, seeded scenario.
//! * [`trace_replay`] — feeds a captured [`bash_trace::Trace`] back
//!   through any protocol.
//!
//! All implement the [`Workload`] trait consumed by the `bash-sim` driver.

pub mod catalog;
pub mod microbench;
pub mod patterns;
pub mod script;
pub mod synthetic;
pub mod trace_replay;

use bash_coherence::ProcOp;
use bash_kernel::{Duration, Time};
use bash_net::NodeId;

/// One unit of work for a processor: optional think/execute time, the
/// instructions retired during it, then a memory operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkItem {
    /// Time the processor computes before issuing the operation.
    pub think: Duration,
    /// Instructions retired during `think` (for instructions/second
    /// performance metrics; the paper assumes 4 billion instructions/s when
    /// the memory system beyond L1 is perfect).
    pub instructions: u64,
    /// The memory operation to issue.
    pub op: ProcOp,
}

/// A source of memory operations for every processor in the system.
///
/// The driver calls [`next_item`](Workload::next_item) whenever a processor
/// becomes free and [`on_complete`](Workload::on_complete) when the issued
/// operation finishes (hit or miss), letting the workload track ownership
/// and domain metrics (e.g. lock acquires).
pub trait Workload {
    /// The next unit of work for `node`, or `None` if the node is done.
    fn next_item(&mut self, node: NodeId, now: Time) -> Option<WorkItem>;

    /// Notification that `node`'s current operation completed with the
    /// loaded/stored word value.
    fn on_complete(&mut self, node: NodeId, now: Time, op: &ProcOp, value: u64) {
        let _ = (node, now, op, value);
    }

    /// Short display name.
    fn name(&self) -> &str;
}

impl<W: Workload + ?Sized> Workload for Box<W> {
    fn next_item(&mut self, node: NodeId, now: Time) -> Option<WorkItem> {
        (**self).next_item(node, now)
    }

    fn on_complete(&mut self, node: NodeId, now: Time, op: &ProcOp, value: u64) {
        (**self).on_complete(node, now, op, value)
    }

    fn name(&self) -> &str {
        (**self).name()
    }
}

pub use catalog::Scenario;
pub use microbench::LockingMicrobench;
pub use patterns::{PatternKind, PatternParams, PatternWorkload};
pub use script::{Completion, ScriptWorkload};
pub use synthetic::{SyntheticWorkload, WorkloadParams};
pub use trace_replay::{StreamingTraceWorkload, TraceWorkload};
