//! Hash-order independence gate for the per-block state tables.
//!
//! Every coherence controller resolves per-block state through a
//! [`bash::coherence::BlockTable`], whose iteration order depends on the
//! probe seed. Nothing observable may depend on that order: iteration
//! feeding canonical report text must go through the table's sorted
//! drain, and the remaining full-table walks must be order-independent
//! folds (quiescence booleans). This binary proves it end to end, the
//! same way PR 8's `heap_and_calendar_queues_produce_identical_reports`
//! pinned the queue swap: replay the committed mini-traces under the
//! default probe seed and under a scrambling one, and require **byte
//! identical** canonical reports.
//!
//! The probe seed is a process-wide test hook, so this lives in its own
//! integration-test binary: cargo gives it a dedicated process and the
//! seed flip cannot race any other test.

use std::path::{Path, PathBuf};

use bash::coherence::blocktable::set_probe_seed;
use bash::{sweep_canonical_text, ProtocolKind, SimBuilder, Trace};

const BANDWIDTHS: [u64; 3] = [400, 800, 1600];
const SEED: u64 = 0xF00D;
const WARMUP_NS: u64 = 5_000;
const MEASURE_NS: u64 = 20_000;

const PROTOCOLS: [ProtocolKind; 3] = [
    ProtocolKind::Snooping,
    ProtocolKind::Directory,
    ProtocolKind::Bash,
];

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn mini_trace(scenario: &str) -> Trace {
    let path = golden_dir().join(format!("{scenario}.trace"));
    Trace::read_from(&path)
        .unwrap_or_else(|e| panic!("committed trace {} is invalid: {e}", path.display()))
}

fn replay(trace: &Trace, proto: ProtocolKind) -> String {
    sweep_canonical_text(
        &SimBuilder::new(proto)
            .trace_in(trace.clone())
            .bandwidths(BANDWIDTHS)
            .seed(SEED)
            .warmup_ns(WARMUP_NS)
            .measure_ns(MEASURE_NS)
            .run_sweep(),
    )
}

/// Replays the committed mini-traces through all three protocols under
/// the default probe seed and under a seed that permutes every table's
/// iteration order, and requires byte-identical canonical reports.
#[test]
fn reports_are_identical_under_both_probe_seeds() {
    for scenario in ["migratory", "zipf", "phase-shift"] {
        let trace = mini_trace(scenario);
        for proto in PROTOCOLS {
            set_probe_seed(0);
            let default_order = replay(&trace, proto);
            set_probe_seed(0x5EED_FACE_CAFE_F00D);
            let scrambled_order = replay(&trace, proto);
            set_probe_seed(0);
            assert_eq!(
                default_order, scrambled_order,
                "{scenario}/{proto:?}: canonical report depends on block-table hash order"
            );
        }
    }
}
