//! Dynamic-update correctness: a GAT index grown with
//! `insert_trajectory` must answer exactly like an index rebuilt from
//! scratch over the extended dataset.

use atsq_datagen::{generate, generate_queries, CityConfig, QueryGenConfig};
use atsq_gat::{GatConfig, GatIndex};
use atsq_matching::min_match_distance;
use atsq_types::{rank_top_k, QueryResult};

fn config() -> GatConfig {
    GatConfig {
        grid_level: 6,
        memory_level: 4,
        ..GatConfig::default()
    }
}

#[test]
fn incremental_index_equals_rebuilt_index() {
    let full = generate(&CityConfig::tiny(123)).unwrap();
    let n = full.len();
    let half = n / 2;

    // Start from the first half, then append the rest one by one.
    let mut dataset = full.sample_prefix(half);
    let mut index = GatIndex::build_with(&dataset, config()).unwrap();
    for tr in &full.trajectories()[half..] {
        let id = dataset.append_trajectory(tr.points.clone()).unwrap();
        index.insert_trajectory(dataset.trajectory(id)).unwrap();
    }
    assert_eq!(dataset.len(), n);
    assert_eq!(index.len(), n);

    // Note: `dataset` now differs from `full` only in activity counts
    // (append re-counts), not in geometry or activity sets, so query
    // results must be identical to a fresh build over `dataset`.
    let rebuilt = GatIndex::build_with(&dataset, config()).unwrap();
    let queries = generate_queries(&dataset, &QueryGenConfig::default(), 8);
    for q in &queries {
        assert_eq!(
            atsq_gat::atsq(&index, &dataset, q, 9),
            atsq_gat::atsq(&rebuilt, &dataset, q, 9),
            "incremental vs rebuilt diverged (ATSQ)"
        );
        assert_eq!(
            atsq_gat::oatsq(&index, &dataset, q, 9),
            atsq_gat::oatsq(&rebuilt, &dataset, q, 9),
            "incremental vs rebuilt diverged (OATSQ)"
        );
    }
}

#[test]
fn incremental_index_matches_scan_oracle() {
    let full = generate(&CityConfig::tiny(77)).unwrap();
    let mut dataset = full.sample_prefix(10);
    let mut index = GatIndex::build_with(&dataset, config()).unwrap();
    for tr in &full.trajectories()[10..30] {
        let id = dataset.append_trajectory(tr.points.clone()).unwrap();
        index.insert_trajectory(dataset.trajectory(id)).unwrap();
    }
    let queries = generate_queries(&dataset, &QueryGenConfig::default(), 5);
    for q in &queries {
        let got = atsq_gat::atsq(&index, &dataset, q, 7);
        let mut want = Vec::new();
        for tr in dataset.trajectories() {
            if let Some(d) = min_match_distance(q, &tr.points) {
                want.push(QueryResult::new(tr.id, d));
            }
        }
        assert_eq!(got, rank_top_k(want, 7));
    }
}

#[test]
fn append_rejects_unknown_activities() {
    let mut dataset = generate(&CityConfig::tiny(5)).unwrap();
    let bogus = atsq_types::TrajectoryPoint::new(
        atsq_types::Point::new(0.0, 0.0),
        atsq_types::ActivitySet::from_raw([999_999]),
    );
    assert!(dataset.append_trajectory(vec![bogus]).is_err());
}

#[test]
fn append_with_new_interned_activity() {
    let mut dataset = generate(&CityConfig::tiny(5)).unwrap();
    let fresh = dataset.vocabulary_mut().intern("brand-new-activity");
    let mut index = GatIndex::build_with(&dataset, config()).unwrap();
    // Rebuild is NOT needed for a new vocabulary entry: only the new
    // trajectory references it.
    let id = dataset
        .append_trajectory(vec![atsq_types::TrajectoryPoint::new(
            atsq_types::Point::new(5.0, 5.0),
            atsq_types::ActivitySet::from_ids([fresh]),
        )])
        .unwrap();
    index.insert_trajectory(dataset.trajectory(id)).unwrap();
    let q = atsq_types::Query::new(vec![atsq_types::QueryPoint::new(
        atsq_types::Point::new(5.0, 5.0),
        atsq_types::ActivitySet::from_ids([fresh]),
    )])
    .unwrap();
    let res = atsq_gat::atsq(&index, &dataset, &q, 3);
    assert_eq!(res.len(), 1);
    assert_eq!(res[0].trajectory, id);
    assert_eq!(res[0].distance, 0.0);
}

#[test]
fn out_of_region_appends_are_clamped_but_correct() {
    let full = generate(&CityConfig::tiny(9)).unwrap();
    let mut dataset = full.sample_prefix(20);
    let mut index = GatIndex::build_with(&dataset, config()).unwrap();
    // Append a trajectory far outside the original bounds.
    let a = dataset.trajectories()[0].points[0].activities.clone();
    let id = dataset
        .append_trajectory(vec![atsq_types::TrajectoryPoint::new(
            atsq_types::Point::new(10_000.0, 10_000.0),
            a.clone(),
        )])
        .unwrap();
    index.insert_trajectory(dataset.trajectory(id)).unwrap();
    // Queries near the outlier must still find it (clamped cells keep
    // the index correct, if less selective).
    let q = atsq_types::Query::new(vec![atsq_types::QueryPoint::new(
        atsq_types::Point::new(10_000.0, 10_000.0),
        a,
    )])
    .unwrap();
    let res = atsq_gat::atsq(&index, &dataset, &q, 1);
    assert_eq!(res[0].trajectory, id);
}
