//! Watch the adaptive mechanism react to a workload phase change: the
//! policy counter climbs toward unicast when the lock pool becomes hot
//! (high intensity) and decays back to broadcast when think time rises.
//!
//! This mirrors the paper's §1 motivation: "a given workload's demand on
//! system bandwidth varies dynamically over time". It also shows the
//! builder's escape hatch: a custom [`Workload`] plugged in with
//! `workload_with`, and `build_system` for callers that drive simulated
//! time themselves.
//!
//! ```text
//! cargo run --release --example adaptive_phases
//! ```

use bash::kernel::DetRng;
use bash::{
    BlockAddr, CacheGeometry, Duration, NodeId, ProcOp, ProtocolKind, SimBuilder, Time, WorkItem,
    Workload,
};

/// A microbenchmark whose think time alternates between phases: full
/// intensity, then light load, repeating.
struct PhasedWorkload {
    rngs: Vec<DetRng>,
    counters: Vec<u64>,
    locks: u64,
    phase_ns: u64,
}

impl PhasedWorkload {
    fn new(nodes: u16, locks: u64, phase_ns: u64, seed: u64) -> Self {
        let mut root = DetRng::seed_from(seed);
        PhasedWorkload {
            rngs: (0..nodes).map(|i| root.fork(i as u64)).collect(),
            counters: vec![0; nodes as usize],
            locks,
            phase_ns,
        }
    }
}

impl Workload for PhasedWorkload {
    fn next_item(&mut self, node: NodeId, now: Time) -> Option<WorkItem> {
        let idx = node.index();
        let hot = (now.as_ns() / self.phase_ns).is_multiple_of(2);
        let think = if hot {
            Duration::ZERO
        } else {
            Duration::from_ns(2_000)
        };
        self.counters[idx] += 1;
        let lock = self.rngs[idx].below(self.locks);
        Some(WorkItem {
            think,
            instructions: 0,
            op: ProcOp::Store {
                block: BlockAddr(lock),
                word: idx % 8,
                value: self.counters[idx],
            },
        })
    }

    fn name(&self) -> &str {
        "phased-microbenchmark"
    }
}

fn main() {
    let nodes = 32u16;
    let phase_ns = 200_000;
    let mut sys = SimBuilder::new(ProtocolKind::Bash)
        .nodes(nodes)
        .bandwidth_mbps(800)
        .cache(CacheGeometry { sets: 512, ways: 4 })
        .workload_with(move |nodes, _seed| Box::new(PhasedWorkload::new(nodes, 512, phase_ns, 99)))
        .build_system()
        .expect("valid configuration");
    sys.enable_policy_trace();
    sys.try_run_until(Time::from_ns(4 * phase_ns))
        .expect("the phased workload never wedges");
    println!("Adaptive mechanism vs workload phases (hot ↔ light every {phase_ns} ns)");
    println!("policy counter: 0 = always broadcast … 255 = always unicast\n");
    let trace = sys.policy_trace().expect("trace enabled").to_vec();
    // Downsample to ~40 rows with a bar per row.
    let step = (trace.len() / 40).max(1);
    for chunk in trace.chunks(step) {
        let (t, p) = chunk[chunk.len() - 1];
        let hot = (t.as_ns() / phase_ns) % 2 == 0;
        let bar = "#".repeat((p / 4.0).round() as usize);
        println!(
            "{:>9} {:>5} |{bar:<64}| {p:>5.1}",
            t.to_string(),
            if hot { "hot" } else { "light" },
        );
    }
    println!(
        "\nfinal unicast probability: {:.2}",
        sys.mean_unicast_probability()
    );
}
