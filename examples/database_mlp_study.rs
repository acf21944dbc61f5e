//! A focused study of the database workload: where do its off-chip
//! accesses come from, how clustered are they, and how do issue policy
//! and window size change its MLP?
//!
//! ```text
//! cargo run --release --example database_mlp_study
//! ```

use mlp_isa::TraceSource;
use mlp_mem::{Hierarchy, HierarchyConfig};
use mlp_workloads::{Workload, WorkloadKind};
use mlpsim::{IssueConfig, MlpsimConfig, Simulator};

fn main() {
    let kind = WorkloadKind::Database;
    let warmup = 500_000u64;
    let measure = 2_000_000u64;

    // --- Miss census -----------------------------------------------------
    // Counted from the `Access` each reference returns, over the measured
    // window only: off-chip instruction fetches, loads and prefetches
    // (store fills are not useful accesses) per measured instruction.
    let mut wl = Workload::new(kind, 42);
    let mut mem = Hierarchy::new(HierarchyConfig::default());
    let (mut imisses, mut dmisses, mut pmisses, mut insts) = (0u64, 0u64, 0u64, 0u64);
    let mut distances = Vec::new();
    let mut last_miss: Option<u64> = None;
    for n in 0..warmup + measure {
        let Some(inst) = wl.next_inst() else { break };
        let imiss = mem.ifetch(inst.pc).is_off_chip();
        let (mut dmiss, mut pmiss) = (false, false);
        if let Some(m) = inst.mem {
            match inst.kind {
                mlp_isa::OpKind::Store => {
                    mem.store(m.addr);
                }
                mlp_isa::OpKind::Prefetch => pmiss = mem.prefetch(m.addr).is_off_chip(),
                _ => dmiss = mem.load(m.addr).is_off_chip(),
            }
        }
        if n < warmup {
            continue;
        }
        insts += 1;
        imisses += u64::from(imiss);
        dmisses += u64::from(dmiss);
        pmisses += u64::from(pmiss);
        if imiss || dmiss || pmiss {
            if let Some(p) = last_miss {
                distances.push(n - p);
            }
            last_miss = Some(n);
        }
    }
    println!("== Database off-chip access census ==");
    println!(
        "miss rate: {:.3} per 100 instructions (paper: 0.84)",
        100.0 * (imisses + dmisses + pmisses) as f64 / insts.max(1) as f64
    );
    println!("breakdown: {dmisses} data / {imisses} instruction / {pmisses} prefetch");
    let mean = distances.iter().sum::<u64>() as f64 / distances.len().max(1) as f64;
    let within = |n: u64| {
        100.0 * distances.iter().filter(|&&d| d <= n).count() as f64 / distances.len() as f64
    };
    println!("mean inter-miss distance: {mean:.0} instructions");
    println!(
        "P[next miss within 10/50/200 insts] = {:.0}% / {:.0}% / {:.0}% (clustered!)",
        within(10),
        within(50),
        within(200)
    );
    println!();

    // --- Issue policy & window sweep (Figure 4 in miniature) -------------
    println!("== MLP vs window size and issue configuration ==");
    println!(
        "{:>8} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "size", "A", "B", "C", "D", "E"
    );
    for size in [16usize, 32, 64, 128, 256] {
        print!("{size:>8}");
        for issue in IssueConfig::ALL {
            let cfg = MlpsimConfig::builder()
                .issue(issue)
                .coupled_window(size)
                .build();
            let mut wl = Workload::new(kind, 42);
            let r = Simulator::new(cfg).run(&mut wl, warmup, measure);
            print!(" {:>8.3}", r.mlp());
        }
        println!();
    }
    println!();
    println!(
        "Read it like the paper's Figure 4: relaxing issue constraints\n\
         matters more and more as the window grows."
    );
}
