//! Cross-crate integration tests: workloads flowing through both
//! simulators and the experiment harness end to end.

use mlp_experiments::{exp, RunScale};
use mlp_isa::chunked::{self, ChunkedWriter};
use mlp_workloads::{Workload, WorkloadKind};
use mlpsim::{MlpsimConfig, Simulator};

fn quick() -> RunScale {
    RunScale::quick()
}

#[test]
fn workload_survives_trace_file_round_trip() {
    let insts: Vec<_> = Workload::new(WorkloadKind::Database, 7)
        .take(20_000)
        .collect();
    // Several chunks, the last one partial.
    let mut buf = Vec::new();
    let mut w = ChunkedWriter::new(&mut buf, 4096).expect("start trace");
    w.extend(insts.iter().copied()).expect("write trace");
    assert_eq!(w.finish().expect("finish trace").chunks.len(), 5);
    let soa = chunked::read_all(buf.as_slice()).expect("read trace");
    let back: Vec<_> = (0..soa.len()).map(|i| soa.get(i)).collect();
    assert_eq!(back, insts);

    // Simulating the replayed trace gives the same result as the stream.
    let a = Simulator::new(MlpsimConfig::default()).run(&mut insts.into_iter(), 5_000, u64::MAX);
    let b = Simulator::new(MlpsimConfig::default()).run(&mut back.into_iter(), 5_000, u64::MAX);
    assert_eq!(a.offchip, b.offchip);
    assert_eq!(a.epochs, b.epochs);
}

#[test]
fn table5_in_order_ordering_holds() {
    let t5 = exp::table5::run(quick());
    for row in &t5.rows {
        assert!(
            row.stall_on_use >= row.stall_on_miss - 1e-9,
            "{}: stall-on-use {} must be at least stall-on-miss {}",
            row.kind.name(),
            row.stall_on_use,
            row.stall_on_miss
        );
        assert!(row.stall_on_miss >= 1.0);
    }
    // SPECweb99's software prefetches give it the highest in-order MLP
    // (the paper's Table 5).
    let web = t5.row(WorkloadKind::SpecWeb99).unwrap();
    let jbb = t5.row(WorkloadKind::SpecJbb2000).unwrap();
    assert!(web.stall_on_miss > jbb.stall_on_miss);
}

#[test]
fn figure4_mlp_grows_with_window_and_aggressiveness() {
    let f4 = exp::figure4::run(quick());
    for s in &f4.surfaces {
        // Config E at 256 entries dominates config A at 16 entries.
        let low = s.mlp[0][0];
        let high = s.mlp[exp::figure4::SIZES.len() - 1][4];
        assert!(
            high > low,
            "{}: 256E ({high}) must exceed 16A ({low})",
            s.kind.name()
        );
        // Within config E, MLP is (weakly) monotone in window size.
        for w in s.mlp.windows(2) {
            assert!(w[1][4] >= w[0][4] - 0.05);
        }
    }
}

#[test]
fn figure6_decoupling_helps() {
    let f6 = exp::figure6::run_grid(
        quick(),
        &[64],
        &[mlpsim::IssueConfig::D, mlpsim::IssueConfig::E],
    );
    for kind in WorkloadKind::ALL {
        for issue in [mlpsim::IssueConfig::D, mlpsim::IssueConfig::E] {
            let bar = f6.bar(kind, 64, issue).unwrap();
            assert!(
                bar.by_mult[3] >= bar.by_mult[0] - 0.02,
                "{kind}: ROB 8x ({:.3}) should not lose to 1x ({:.3})",
                bar.by_mult[3],
                bar.by_mult[0]
            );
        }
        // The INF reference is the ceiling of the coupled config-E bar.
        let inf = f6.inf_mlp(kind).unwrap();
        let bar = f6.bar(kind, 64, mlpsim::IssueConfig::E).unwrap();
        assert!(inf >= bar.by_mult[0] - 0.02);
    }
}

#[test]
fn figure8_runahead_dominates_conventional() {
    let f8 = exp::figure8::run(quick());
    for r in &f8.rows {
        assert!(
            r.rae > r.conv_256 && r.conv_256 >= r.conv_64 - 0.02,
            "{}: RAE {:.3} vs 256 {:.3} vs 64 {:.3}",
            r.kind.name(),
            r.rae,
            r.conv_256,
            r.conv_64
        );
        assert!(
            r.gain_over_64() > 20.0,
            "{}: RAE gain should be large",
            r.kind.name()
        );
    }
}

#[test]
fn figure9_value_prediction_never_hurts() {
    let f9 = exp::figure9::run(quick());
    for r in &f9.rows {
        let g = r.gains();
        for (k, &gain) in g.iter().enumerate() {
            assert!(
                gain > -1.0,
                "{} config {k}: VP must not hurt ({gain:.2}%)",
                r.kind.name()
            );
        }
        // Table 6 sanity: rates form a distribution.
        let (c, w, n) = r.accuracy;
        assert!((c + w + n - 1.0).abs() < 1e-6);
        assert!(c > 0.05, "{}: some predictability expected", r.kind.name());
    }
}

#[test]
fn figure10_perfect_arms_dominate_base() {
    let f10 = exp::figure10::run(quick());
    for series in f10.rae.iter().chain(f10.conventional.iter()) {
        let base = series.mlp[0];
        for (k, &m) in series.mlp.iter().enumerate().skip(1) {
            assert!(
                m >= base - 0.05,
                "{} arm {k}: perfect feature must not reduce MLP ({m:.3} vs {base:.3})",
                series.kind.name()
            );
        }
        // perfVP+perfBP is the strongest single arm.
        let combo = series.mlp[4];
        assert!(combo >= series.mlp[2] - 0.05 && combo >= series.mlp[3] - 0.05);
    }
}

#[test]
fn figure7_database_mlp_shrinks_with_cache() {
    let f7 = exp::figure7::run(quick());
    let db = f7.series_for(WorkloadKind::Database).unwrap();
    let first = db.points.first().unwrap();
    let last = db.points.last().unwrap();
    assert!(
        last.0 <= first.0 + 0.05,
        "database MLP should not grow with L2 size ({:.3} -> {:.3})",
        first.0,
        last.0
    );
    // Miss rate strictly falls with capacity.
    assert!(last.1 < first.1);
}

#[test]
fn figure2_misses_are_clustered() {
    let f2 = exp::figure2::run(quick());
    let idx = exp::figure2::THRESHOLDS
        .iter()
        .position(|&t| t == 100)
        .unwrap();
    for s in &f2.series {
        // The observed CDF must exceed the uniform one at short distances.
        // The paper's Figure 2: the divergence is extreme for SPECjbb2000
        // and SPECweb99, milder for the database workload.
        let factor = if s.kind == WorkloadKind::Database {
            1.15
        } else {
            2.0
        };
        assert!(
            s.observed[idx] > factor * s.uniform[idx],
            "{}: observed {:.3} vs uniform {:.3} at distance 100",
            s.kind.name(),
            s.observed[idx],
            s.uniform[idx]
        );
    }
}

#[test]
fn store_buffer_study_shows_database_sensitivity() {
    let study = exp::extensions::run_store_buffer(quick());
    let db = study.series_for(WorkloadKind::Database).unwrap();
    let (tiny_mlp, tiny_smlp) = db.points.first().unwrap();
    let (inf_mlp, inf_smlp) = db.points.last().unwrap();
    assert!(
        inf_smlp > tiny_smlp,
        "store MLP must grow with buffer size ({tiny_smlp:.2} -> {inf_smlp:.2})"
    );
    assert!(
        inf_mlp >= tiny_mlp,
        "a bounded store buffer must not help load MLP ({tiny_mlp:.2} -> {inf_mlp:.2})"
    );
}

#[test]
fn epoch_distributions_shift_right_under_runahead() {
    let stats = exp::epochs::run(quick());
    for kind in WorkloadKind::ALL {
        let conv = stats.distribution(kind, "64C").unwrap();
        let rae = stats.distribution(kind, "RAE").unwrap();
        // Runahead has fewer single-access epochs: its CDF at <=1 is lower.
        assert!(
            rae.cdf[0] <= conv.cdf[0] + 0.02,
            "{kind}: RAE <=1 share {:.2} vs conventional {:.2}",
            rae.cdf[0],
            conv.cdf[0]
        );
        assert!(rae.mlp >= conv.mlp);
        // CDFs are monotone and end at 1 for the conventional core (its
        // window bounds epoch size).
        assert!(conv.cdf.windows(2).all(|w| w[1] >= w[0] - 1e-12));
        assert!(conv.cdf.last().unwrap() > &0.999);
    }
}
