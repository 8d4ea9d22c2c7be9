//! End-to-end scenarios on city-scale generated data: the full
//! pipeline from generation through indexing to ranked answers, plus
//! behavioural properties the paper's evaluation relies on.

use atsq_core::prelude::*;
use atsq_datagen::{generate, generate_queries, CityConfig, QueryGenConfig};
use atsq_matching::{min_match_distance, order_match::min_order_match_distance};

#[test]
fn la_like_pipeline_produces_consistent_topk() {
    let dataset = generate(&CityConfig::la_like(0.004)).unwrap();
    let gat = GatEngine::build(&dataset).unwrap();
    let queries = generate_queries(
        &dataset,
        &QueryGenConfig {
            query_points: 4,
            acts_per_point: 3,
            ..Default::default()
        },
        10,
    );
    for q in &queries {
        let res = gat.atsq(&dataset, q, 9);
        // Results sorted ascending, distances non-negative, no dups.
        assert!(res.windows(2).all(|w| w[0].distance <= w[1].distance));
        assert!(res.iter().all(|r| r.distance >= 0.0));
        let mut ids: Vec<_> = res.iter().map(|r| r.trajectory).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), res.len(), "duplicate trajectory in top-k");
        // The source trajectory of the query guarantees ≥1 match.
        assert!(!res.is_empty());
    }
}

#[test]
fn oatsq_results_are_a_subset_relation_of_atsq_matches() {
    // Every ordered match is an unordered match with Dmm ≤ Dmom.
    let dataset = generate(&CityConfig::tiny(91)).unwrap();
    let gat = GatEngine::build(&dataset).unwrap();
    let queries = generate_queries(
        &dataset,
        &QueryGenConfig {
            query_points: 3,
            acts_per_point: 2,
            ..Default::default()
        },
        5,
    );
    for q in &queries {
        for r in gat.oatsq(&dataset, q, 10) {
            let pts = &dataset.trajectory(r.trajectory).points;
            let dmm = min_match_distance(q, pts).expect("ordered match implies match");
            assert!(dmm <= r.distance + 1e-9, "Lemma 3 violated");
            let dmom = min_order_match_distance(q, pts, f64::INFINITY).unwrap();
            assert!((dmom - r.distance).abs() < 1e-9);
        }
    }
}

#[test]
fn io_stats_show_gat_pruning() {
    // GAT must evaluate far fewer full distances than the number of
    // trajectories containing the query activities (the IL candidate
    // count) on a skewed workload.
    let dataset = generate(&CityConfig::la_like(0.004)).unwrap();
    let gat = GatEngine::build(&dataset).unwrap();
    let il = IlEngine::build(&dataset);
    let queries = generate_queries(&dataset, &QueryGenConfig::default(), 10);
    let mut il_candidates = 0usize;
    for q in &queries {
        let _ = gat.atsq(&dataset, q, 9);
        il_candidates += il.candidates(q).len();
    }
    let snap = gat.index().stats();
    assert!(snap.distances_computed > 0);
    // The headline claim in miniature: GAT's spatial+activity pruning
    // avoids evaluating a large share of IL's activity-only candidates.
    assert!(
        (snap.distances_computed as usize) < il_candidates.max(1) * 2,
        "GAT evaluated {} vs IL candidates {}",
        snap.distances_computed,
        il_candidates
    );
}

#[test]
fn grid_granularity_sweep_runs() {
    // Fig. 8 machinery: all four granularities produce identical
    // answers and monotone non-decreasing memory.
    let dataset = generate(&CityConfig::tiny(13)).unwrap();
    let queries = generate_queries(&dataset, &QueryGenConfig::default(), 3);
    let mut reference: Option<Vec<Vec<QueryResult>>> = None;
    let mut last_mem = 0usize;
    for d in [5u8, 6, 7, 8] {
        let engine = GatEngine::build_with(
            &dataset,
            GatConfig {
                grid_level: d,
                memory_level: d.min(6),
                ..GatConfig::default()
            },
        )
        .unwrap();
        let answers: Vec<Vec<QueryResult>> = queries
            .iter()
            .map(|q| engine.atsq(&dataset, q, 9))
            .collect();
        match &reference {
            None => reference = Some(answers),
            Some(r) => assert_eq!(r, &answers, "granularity {d} changed answers"),
        }
        let mem = engine.index().memory_report().main_memory_bytes();
        assert!(mem >= last_mem);
        last_mem = mem;
    }
}

#[test]
fn scalability_samples_preserve_prefix_results() {
    // Fig. 7 machinery: results on a prefix sample agree with a scan
    // of that sample (the sample is a valid standalone dataset).
    let dataset = generate(&CityConfig::ny_like(0.004)).unwrap();
    let half = dataset.sample_prefix(dataset.len() / 2);
    assert_eq!(half.len(), dataset.len() / 2);
    let gat = GatEngine::build(&half).unwrap();
    let queries = generate_queries(&half, &QueryGenConfig::default(), 5);
    for q in &queries {
        let got = gat.atsq(&half, q, 5);
        let mut want = Vec::new();
        for tr in half.trajectories() {
            if let Some(d) = min_match_distance(q, &tr.points) {
                want.push(QueryResult::new(tr.id, d));
            }
        }
        let want = atsq_core::types::rank_top_k(want, 5);
        assert_eq!(got, want);
    }
}

#[test]
fn vocabulary_survives_round_trip() {
    let dataset = generate(&CityConfig::tiny(3)).unwrap();
    let v = dataset.vocabulary();
    // Every activity id used by any point resolves to a name, and that
    // name resolves back to the same id.
    for tr in dataset.trajectories() {
        for p in &tr.points {
            for a in p.activities.iter() {
                let name = v.name(a).expect("name for used id");
                assert_eq!(v.get(name), Some(a));
            }
        }
    }
}

#[test]
fn kbct_prefers_geometry_over_activities() {
    // Reconstructs Fig. 1's motivation on generated data: k-BCT (pure
    // geometry) and ATSQ (activity-aware) disagree on some queries, and
    // for each result Dbm ≤ Dmm (Lemma 2).
    let dataset = generate(&CityConfig::tiny(301)).unwrap();
    let rt = atsq_core::RtEngine::build(&dataset);
    let queries = generate_queries(&dataset, &QueryGenConfig::default(), 10);
    let mut disagreements = 0;
    for q in &queries {
        let kbct = rt.kbct(&dataset, q, 3);
        let atsq = rt.atsq(&dataset, q, 3);
        assert!(!kbct.is_empty());
        // Lemma 2 on the activity-aware results.
        for r in &atsq {
            let pts = &dataset.trajectory(r.trajectory).points;
            let dbm = atsq_matching::best_match_distance(q, pts);
            assert!(dbm <= r.distance + 1e-9);
        }
        if kbct.first().map(|r| r.trajectory) != atsq.first().map(|r| r.trajectory) {
            disagreements += 1;
        }
        // kbct distances are ascending and equal the kernel value.
        for r in &kbct {
            let pts = &dataset.trajectory(r.trajectory).points;
            let dbm = atsq_matching::best_match_distance(q, pts);
            assert!((dbm - r.distance).abs() < 1e-9);
        }
    }
    assert!(
        disagreements > 0,
        "k-BCT should disagree with ATSQ on some queries (Fig. 1's point)"
    );
}

#[test]
fn simplification_preserves_query_answers() {
    // Dropping activity-free points must not change any ATSQ/OATSQ
    // answer (the kernels only consult activity-bearing points).
    let dataset = generate(&CityConfig::tiny(307)).unwrap();
    let mut b = atsq_core::prelude::DatasetBuilder::new().without_frequency_ranking();
    for i in 0..dataset.vocabulary().len() as u32 {
        let name = dataset
            .vocabulary()
            .name(atsq_core::prelude::ActivityId(i))
            .unwrap();
        b.observe_activity(name);
    }
    for tr in dataset.trajectories() {
        // Interleave synthetic GPS breadcrumbs between venues.
        let mut pts = Vec::new();
        for w in tr.points.windows(2) {
            pts.push(w[0].clone());
            let mid = Point::new(
                (w[0].loc.x + w[1].loc.x) / 2.0,
                (w[0].loc.y + w[1].loc.y) / 2.0,
            );
            pts.push(TrajectoryPoint::new(mid, ActivitySet::new()));
        }
        pts.push(tr.points.last().unwrap().clone());
        b.push_trajectory(atsq_core::types::simplify::simplify(&pts, 0.05));
    }
    let simplified = b.finish().unwrap();
    let g1 = GatEngine::build(&dataset).unwrap();
    let g2 = GatEngine::build(&simplified).unwrap();
    let queries = generate_queries(&dataset, &QueryGenConfig::default(), 5);
    for q in &queries {
        let a = g1.atsq(&dataset, q, 5);
        let b2 = g2.atsq(&simplified, q, 5);
        assert_eq!(
            a.iter()
                .map(|r| (r.trajectory, (r.distance * 1e9).round() as i64))
                .collect::<Vec<_>>(),
            b2.iter()
                .map(|r| (r.trajectory, (r.distance * 1e9).round() as i64))
                .collect::<Vec<_>>(),
            "simplification changed answers"
        );
    }
}
