//! Structural invariants of every index on generated data:
//! HICL ancestor closure, ITL completeness, TAS no-false-dismissal,
//! APL exactness, R-tree shape invariants, and the Algorithm-2 lower
//! bound actually lower-bounding real distances.

use atsq_datagen::{generate, generate_queries, CityConfig, QueryGenConfig};
use atsq_gat::{GatConfig, GatIndex};
use atsq_matching::min_match_distance;
use atsq_rtree::RTree;
use atsq_types::{Dataset, Rect};

fn dataset() -> Dataset {
    generate(&CityConfig::tiny(31)).unwrap()
}

fn index(d: &Dataset) -> GatIndex {
    GatIndex::build_with(
        d,
        GatConfig {
            grid_level: 6,
            memory_level: 4,
            tas_intervals: 3,
            ..GatConfig::default()
        },
    )
    .unwrap()
}

#[test]
fn hicl_contains_every_point_activity_at_every_level() {
    let d = dataset();
    let idx = index(&d);
    for tr in d.trajectories() {
        for p in &tr.points {
            let leaf = idx.grid().leaf_cell_of(&p.loc);
            for a in p.activities.iter() {
                for level in 1..=idx.grid().max_level() {
                    let cell = leaf.ancestor_at(level);
                    assert!(
                        idx.hicl().cell_contains(cell, a),
                        "HICL misses activity {a} at level {level}"
                    );
                }
            }
        }
    }
}

#[test]
fn itl_lists_every_trajectory_under_its_activities() {
    let d = dataset();
    let idx = index(&d);
    for tr in d.trajectories() {
        for p in &tr.points {
            let leaf = idx.grid().leaf_cell_of(&p.loc);
            for a in p.activities.iter() {
                assert!(
                    idx.itl().trajectories(leaf, a).contains(&tr.id),
                    "ITL misses {} under {a}",
                    tr.id
                );
            }
        }
    }
}

#[test]
fn tas_never_dismisses_a_true_match() {
    let d = dataset();
    let idx = index(&d);
    for tr in d.trajectories() {
        let all = tr.all_activities();
        let sketch = idx.sketch(tr.id);
        assert!(
            sketch.covers(&all),
            "TAS dismissed {}'s own activities",
            tr.id
        );
        for a in all.iter() {
            assert!(sketch.contains(a));
        }
    }
}

#[test]
fn apl_is_exact() {
    let d = dataset();
    let idx = index(&d);
    for tr in d.trajectories() {
        let postings = idx.postings(tr.id).unwrap();
        for (i, p) in tr.points.iter().enumerate() {
            for a in p.activities.iter() {
                assert!(postings.postings(a).contains(&(i as u32)));
            }
        }
        // No phantom postings.
        let all = tr.all_activities();
        assert!(postings.contains_all(&all));
        for a in all.iter() {
            for &pi in postings.postings(a) {
                assert!(tr.points[pi as usize].activities.contains(a));
            }
        }
    }
}

#[test]
fn gat_results_lower_bounded_by_construction() {
    // Every distance GAT reports must equal the kernel-computed Dmm —
    // i.e. the index must never corrupt a distance.
    let d = dataset();
    let idx = index(&d);
    let queries = generate_queries(&d, &QueryGenConfig::default(), 5);
    for q in &queries {
        for r in atsq_gat::atsq(&idx, &d, q, 10) {
            let exact = min_match_distance(q, &d.trajectory(r.trajectory).points)
                .expect("reported result must be a match");
            assert!(
                (r.distance - exact).abs() < 1e-9,
                "distance drift for {}",
                r.trajectory
            );
        }
    }
}

#[test]
fn rtree_invariants_on_generated_venues() {
    let d = dataset();
    let mut tree: RTree<u32> = RTree::new();
    let mut bulk_items = Vec::new();
    let mut n = 0u32;
    for tr in d.trajectories() {
        for p in &tr.points {
            tree.insert(Rect::from_point(p.loc), n);
            bulk_items.push((Rect::from_point(p.loc), n));
            n += 1;
        }
    }
    tree.check_invariants().unwrap();
    let bulk: RTree<u32> = RTree::bulk_load(bulk_items);
    bulk.check_invariants().unwrap();
    assert_eq!(tree.len(), bulk.len());
}

#[test]
fn memory_report_scales_with_grid_depth() {
    // Fig. 8's memory curve: finer grids must never *reduce* the
    // index footprint.
    let d = dataset();
    let mut last = 0usize;
    for depth in [4u8, 5, 6] {
        let idx = GatIndex::build_with(
            &d,
            GatConfig {
                grid_level: depth,
                memory_level: depth.min(4),
                ..GatConfig::default()
            },
        )
        .unwrap();
        let mem = idx.memory_report().main_memory_bytes();
        assert!(
            mem >= last,
            "memory shrank with finer grid: {last} -> {mem} at d={depth}"
        );
        last = mem;
    }
}

#[test]
fn grid_level_does_not_change_results() {
    let d = dataset();
    let queries = generate_queries(&d, &QueryGenConfig::default(), 3);
    let reference = index(&d);
    for depth in [4u8, 5, 7] {
        let idx = GatIndex::build_with(
            &d,
            GatConfig {
                grid_level: depth,
                memory_level: depth.min(4),
                ..GatConfig::default()
            },
        )
        .unwrap();
        for q in &queries {
            assert_eq!(
                atsq_gat::atsq(&idx, &d, q, 5),
                atsq_gat::atsq(&reference, &d, q, 5),
                "results changed at grid depth {depth}"
            );
            assert_eq!(
                atsq_gat::oatsq(&idx, &d, q, 5),
                atsq_gat::oatsq(&reference, &d, q, 5),
                "ordered results changed at grid depth {depth}"
            );
        }
    }
}

#[test]
fn tight_bound_is_sound_under_tiny_frontier_budget() {
    // Regression test for the Algorithm-2 frontier: with lb_cells = 1
    // and λ = 1 the tracked cellsn(qi) prefix shrinks constantly while
    // many farther cells remain unvisited. A bound computed from a
    // *truncated* (rather than prefix-viewed) frontier overestimates in
    // exactly this regime and silently drops true results.
    use atsq_types::{ActivitySet, DatasetBuilder, Point, Query, QueryPoint, TrajectoryPoint};
    let mut b = DatasetBuilder::new().without_frequency_ranking();
    let a = b.observe_activity("a");
    let bct = b.observe_activity("b");
    // A dense ring of single-point decoys around the query, plus two
    // genuine matches at different radii.
    for i in 0..120u32 {
        let ang = f64::from(i) * 0.21;
        let r = 3.0 + f64::from(i % 7);
        b.push_trajectory(vec![TrajectoryPoint::new(
            Point::new(50.0 + r * ang.cos(), 50.0 + r * ang.sin()),
            ActivitySet::from_ids([a]),
        )]);
    }
    // True matches (need both activities).
    b.push_trajectory(vec![
        TrajectoryPoint::new(Point::new(51.0, 50.0), ActivitySet::from_ids([a])),
        TrajectoryPoint::new(Point::new(50.0, 51.0), ActivitySet::from_ids([bct])),
    ]);
    b.push_trajectory(vec![TrajectoryPoint::new(
        Point::new(58.0, 50.0),
        ActivitySet::from_ids([a, bct]),
    )]);
    let d = b.finish().unwrap();
    let q = Query::new(vec![QueryPoint::new(
        Point::new(50.0, 50.0),
        ActivitySet::from_ids([a, bct]),
    )])
    .unwrap();

    let mut want = Vec::new();
    for tr in d.trajectories() {
        if let Some(dist) = min_match_distance(&q, &tr.points) {
            want.push(atsq_types::QueryResult::new(tr.id, dist));
        }
    }
    let want = atsq_types::rank_top_k(want, 5);
    assert_eq!(want.len(), 2);

    for lb_cells in [1usize, 2, 3] {
        for lambda in [1usize, 2] {
            let idx = GatIndex::build_with(
                &d,
                GatConfig {
                    grid_level: 7,
                    memory_level: 4,
                    lambda,
                    lb_cells,
                    ..GatConfig::default()
                },
            )
            .unwrap();
            let got = atsq_gat::atsq(&idx, &d, &q, 5);
            assert_eq!(got, want, "lb_cells={lb_cells} λ={lambda}");
        }
    }
}
