//! MOSI cache-coherence protocol engines for the BASH reproduction:
//! **Snooping** (§3.1), a GS320-style **Directory** (§3.2), and the
//! **Bandwidth Adaptive Snooping Hybrid** itself (§3.3).
//!
//! Snooping is not a separate engine: it is the BASH engine
//! ([`snoopcache`] + [`bash`]) with the cast decision pinned to
//! always-broadcast, under which every request is sufficient and no retry
//! or nack can occur. The flat Directory is the only distinct protocol.
//!
//! All three protocols are write-invalidate MOSI with silent S→I downgrade,
//! GetS / GetM / PutM transactions, blocking processors and sequential
//! consistency, exactly as assumed by the paper. Controllers are pure state
//! machines emitting [`actions::Action`]s into a reusable
//! [`actions::ActionSink`], which makes every race unit-testable without a
//! network and keeps the hot path allocation-free; the system driver lives
//! in `bash-sim`.
//!
//! Module map:
//!
//! * [`types`] — blocks, transactions, protocol messages, the sufficiency
//!   predicate at the heart of BASH;
//! * [`actions`] — what controllers emit (sends, miss completions,
//!   rejected deliveries) and the reusable sink they emit into;
//! * [`cache`] — the set-associative data array;
//! * [`common`] — the shared cache-side core (the processor side both
//!   engines run: hits and stalls, completions, data replies, evictions,
//!   state labels) and the home record both homes keep per block, plus the
//!   MSHR, writeback entry and statistics blocks;
//! * [`snoopcache`] — the ordered-network cache controller (the paper:
//!   processors "react identically to requests, regardless of whether they
//!   are unicasts, multicasts, or broadcasts");
//! * [`bash`] — the ordered-network home controller (sufficiency check,
//!   retries, broadcast escalation, nacks);
//! * [`directory`] — the flat directory cache + home controllers;
//! * [`blocktable`] — the combined per-block state table
//!   all controllers resolve block state through (one probe per event);
//! * [`hierarchy`] — cluster/bank geometry for two-level coherence
//!   (snooping clusters under a sharded directory spine);
//! * [`protocol`] — protocol selection, dispatch, and message routing;
//! * [`registry`] — transition coverage (Table 1).

pub mod actions;
pub mod bash;
pub mod blocktable;
pub mod cache;
pub mod common;
#[cfg(test)]
mod dircache_tests;
pub mod directory;
pub mod hierarchy;
#[cfg(test)]
mod memctrl_tests;
pub mod protocol;
pub mod registry;
pub mod snoopcache;
#[cfg(test)]
mod snoopcache_tests;
#[cfg(test)]
mod test_support;
pub mod types;

pub use actions::{AccessOutcome, Action, ActionSink, Violation};
pub use blocktable::BlockTable;
pub use cache::{CacheArray, CacheGeometry, Mosi};
pub use hierarchy::{home_of, HierarchyConfig};
pub use protocol::{route, CacheCtrl, MemCtrl, ProtocolKind, Routing};
pub use registry::TransitionLog;
pub use types::{
    is_sufficient, BlockAddr, BlockData, Owner, ProcOp, ProtoMsg, Request, TxnId, TxnKind,
};
