//! Figures that don't need the full system simulator: the queueing model
//! (Figure 2), the utilization-counter trace (Figure 3), and the protocol
//! transaction walkthroughs (Figure 4).

use bash::queueing::{figure2_curve, simulate, RepairmanParams};
use bash::{
    AdaptorConfig, BlockAddr, CacheGeometry, DecisionMode, Duration, NodeId, ProcOp, ProtocolKind,
    ScriptWorkload, System, SystemConfig, UtilizationCounter,
};

use crate::common::{ascii_chart, write_csv, Options};

/// Figure 2: average queueing delay vs. utilization for the closed queue
/// (S ~ exp(1), N = 16, Z swept). Analytic curve cross-checked by DES.
pub fn fig2(opts: &Options) {
    let thinks: Vec<f64> = vec![
        200.0, 100.0, 60.0, 40.0, 30.0, 24.0, 20.0, 17.0, 15.0, 13.0, 11.0, 9.0, 7.0, 5.0, 3.0,
        2.0, 1.0,
    ];
    let analytic = figure2_curve(16, &thinks);
    let mut csv = Vec::new();
    let mut sim_pts = Vec::new();
    for &z in &thinks {
        let s = simulate(
            RepairmanParams {
                customers: 16,
                mean_service: 1.0,
                mean_think: z,
            },
            100_000,
            7,
        );
        sim_pts.push((s.utilization * 100.0, s.mean_queueing_delay));
    }
    for (u, d) in &analytic {
        csv.push(format!("analytic,{:.4},{:.4}", u * 100.0, d));
    }
    for (u, d) in &sim_pts {
        csv.push(format!("simulated,{:.4},{:.4}", u, d));
    }
    let analytic_pct: Vec<(f64, f64)> = analytic.iter().map(|&(u, d)| (u * 100.0, d)).collect();
    ascii_chart(
        "Figure 2: mean queueing delay vs utilization (N=16 closed queue) — note the knee",
        &[("analytic", analytic_pct), ("simulated", sim_pts)],
        false,
    );
    let path = write_csv(
        opts,
        "fig2",
        "method,utilization_pct,mean_queueing_delay",
        &csv,
    );
    println!("  wrote {}", path.display());
}

/// Figure 3: the utilization counter's worked example — busy 4 of 7 cycles
/// at a 75 % threshold gives 4·(+1) + 3·(−3) = −5.
pub fn fig3(opts: &Options) {
    let c = UtilizationCounter::for_threshold_percent(75);
    // The paper's trace: busy, idle, busy, idle, busy, idle, busy →
    // the counter steps +1, −3, +1, −3, +1, −3, +1.
    let pattern = [true, false, true, false, true, false, true];
    let mut value = 0i64;
    let mut csv = Vec::new();
    println!("\n  Figure 3: utilization counter operation (threshold 75% ⇒ +1 busy / -3 idle)");
    println!("  {:>5} {:>6} {:>7}", "cycle", "link", "counter");
    for (i, &busy) in pattern.iter().enumerate() {
        value += if busy {
            c.inc_weight() as i64
        } else {
            -(c.dec_weight() as i64)
        };
        println!(
            "  {:>5} {:>6} {:>7}",
            i,
            if busy { "busy" } else { "idle" },
            value
        );
        csv.push(format!("{},{},{}", i, busy as u8, value));
    }
    let busy = pattern.iter().filter(|&&b| b).count() as u64;
    let total = pattern.len() as u64;
    assert_eq!(c.value_for_window(busy, total), -5);
    println!(
        "  sampled value: {} (negative ⇒ below threshold: {}/{} = {:.0}% < 75%)",
        c.value_for_window(busy, total),
        busy,
        total,
        100.0 * busy as f64 / total as f64
    );
    let path = write_csv(opts, "fig3", "cycle,busy,counter", &csv);
    println!("  wrote {}", path.display());
}

/// Figure 4: the six transaction walkthroughs — memory-to-cache and
/// cache-to-cache transfers under Snooping/BASH-broadcast, Directory, and
/// BASH-unicast. Prints the actual message trace of each.
pub fn fig4(opts: &Options) {
    let mut csv = Vec::new();
    let panels: [(&str, ProtocolKind, DecisionMode, bool); 6] = [
        (
            "(a) Snooping, memory-to-cache",
            ProtocolKind::Snooping,
            DecisionMode::Adaptive,
            false,
        ),
        (
            "(b) Directory, memory-to-cache",
            ProtocolKind::Directory,
            DecisionMode::Adaptive,
            false,
        ),
        (
            "(c) BASH unicast, memory-to-cache",
            ProtocolKind::Bash,
            DecisionMode::AlwaysUnicast,
            false,
        ),
        (
            "(d) Snooping, cache-to-cache",
            ProtocolKind::Snooping,
            DecisionMode::Adaptive,
            true,
        ),
        (
            "(e) Directory, cache-to-cache",
            ProtocolKind::Directory,
            DecisionMode::Adaptive,
            true,
        ),
        (
            "(f) BASH unicast, cache-to-cache",
            ProtocolKind::Bash,
            DecisionMode::AlwaysUnicast,
            true,
        ),
    ];
    for (title, proto, mode, cache_to_cache) in panels {
        println!("\n  Figure 4 {title}");
        let trace = walkthrough(proto, mode, cache_to_cache);
        for line in &trace {
            println!("    {line}");
            csv.push(format!("\"{}\",\"{}\"", title, line.replace('"', "'")));
        }
    }
    let path = write_csv(opts, "fig4", "panel,event", &csv);
    println!("\n  wrote {}", path.display());
}

/// Runs the Figure 4 scenario: 4 processors + memory at node 0 (block 0's
/// home). For the cache-to-cache case, P1 first takes the block M and P3
/// takes it S (P1 ends up the O owner, P3 a sharer), then P0 requests M.
fn walkthrough(proto: ProtocolKind, mode: DecisionMode, cache_to_cache: bool) -> Vec<String> {
    let mut adaptor = AdaptorConfig::paper_default();
    adaptor.mode = mode;
    let cfg = SystemConfig::paper_default(proto, 4, 100_000)
        .with_adaptor(adaptor)
        .with_cache(CacheGeometry { sets: 16, ways: 2 });
    let block = BlockAddr(0); // home = node 0
    let mut script = ScriptWorkload::new(4);
    let mut setup_until = Duration::ZERO;
    if cache_to_cache {
        // P1 takes M, then P3 reads it (P1 → O owner, P3 sharer).
        script.push(
            NodeId(1),
            Duration::ZERO,
            ProcOp::Store {
                block,
                word: 1,
                value: 0x11,
            },
        );
        script.push(
            NodeId(3),
            Duration::from_ns(2_000),
            ProcOp::Load { block, word: 1 },
        );
        setup_until = Duration::from_ns(10_000);
    }
    script.push(
        NodeId(0),
        setup_until,
        ProcOp::Store {
            block,
            word: 0,
            value: 0xAA,
        },
    );
    let mut sys = System::new(cfg, script);
    sys.try_run_until(bash::Time::ZERO + setup_until)
        .expect("the setup script drains");
    sys.enable_delivery_trace();
    sys.try_run_to_idle()
        .expect("the walkthrough script drains");
    let mut out: Vec<String> = sys
        .delivery_trace()
        .unwrap_or(&[])
        .iter()
        .map(|s| compress(s))
        .collect();
    let done = sys
        .workload()
        .completions()
        .iter()
        .find(|c| c.node == NodeId(0))
        .map(|c| format!("P0's GetM completes at {}", c.at))
        .unwrap_or_else(|| "P0's GetM did not complete!".to_string());
    out.push(done);
    out
}

/// Compresses a delivery-trace line for display.
fn compress(s: &str) -> String {
    let s = s
        .replace("Request(Request { kind: ", "")
        .replace("ProtoMsg::", "")
        .replace("BlockAddr(0)", "B0");
    if s.len() > 140 {
        format!("{}…", &s[..139])
    } else {
        s
    }
}
