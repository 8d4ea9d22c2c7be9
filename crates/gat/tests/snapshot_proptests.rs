//! Property tests for the snapshot subsystem (the PR's acceptance
//! criterion): an index loaded from a snapshot answers **all four
//! query kinds identically** to the freshly built index it was
//! serialized from — single-index and sharded (S ∈ {1, 2, 4}), across
//! random micro-datasets, queries, `k` and `tau`.

use atsq_gat::snapshot::{read_index, write_index, IndexCache};
use atsq_gat::{GatConfig, GatIndex, Partition};
use atsq_types::{ActivitySet, Dataset, DatasetBuilder, Point, Query, QueryPoint, TrajectoryPoint};
use proptest::prelude::*;

/// Random micro-dataset: up to 14 trajectories of up to 6 points over
/// a 20-activity vocabulary in a 10 km plane.
fn arb_dataset() -> impl Strategy<Value = Dataset> {
    let point = (
        0.0f64..10.0,
        0.0f64..10.0,
        prop::collection::vec(0u32..20, 1..3),
    );
    let traj = prop::collection::vec(point, 1..6);
    prop::collection::vec(traj, 1..14).prop_map(|trs| {
        let mut b = DatasetBuilder::new().without_frequency_ranking();
        for i in 0..20 {
            b.observe_activity(&format!("a{i}"));
        }
        for tr in trs {
            let pts = tr
                .into_iter()
                .map(|(x, y, acts)| {
                    TrajectoryPoint::new(Point::new(x, y), ActivitySet::from_raw(acts))
                })
                .collect();
            b.push_trajectory(pts);
        }
        b.finish().expect("valid dataset")
    })
}

fn arb_query() -> impl Strategy<Value = Query> {
    prop::collection::vec(
        (
            0.0f64..10.0,
            0.0f64..10.0,
            prop::collection::vec(0u32..20, 1..3),
        ),
        1..4,
    )
    .prop_map(|pts| {
        Query::new(
            pts.into_iter()
                .map(|(x, y, acts)| QueryPoint::new(Point::new(x, y), ActivitySet::from_raw(acts)))
                .collect(),
        )
        .expect("non-empty query points")
    })
}

fn small_config(grid_level: u8) -> GatConfig {
    GatConfig {
        grid_level,
        memory_level: grid_level.min(3),
        ..GatConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Single index: snapshot → load answers every query kind exactly
    /// like the built index, for arbitrary data, queries, k and tau.
    #[test]
    fn loaded_index_answers_identically(
        dataset in arb_dataset(),
        query in arb_query(),
        k in 1usize..7,
        tau in 0.0f64..15.0,
        grid_level in 2u8..7,
    ) {
        use atsq_gat::{atsq, atsq_range, oatsq, oatsq_range};
        let built = GatIndex::build_with(&dataset, small_config(grid_level)).expect("build");
        let bytes = write_index(&built, &dataset).expect("serialize");
        let loaded = read_index(&bytes, &dataset).expect("load");
        prop_assert_eq!(
            atsq(&built, &dataset, &query, k),
            atsq(&loaded, &dataset, &query, k)
        );
        prop_assert_eq!(
            oatsq(&built, &dataset, &query, k),
            oatsq(&loaded, &dataset, &query, k)
        );
        prop_assert_eq!(
            atsq_range(&built, &dataset, &query, tau),
            atsq_range(&loaded, &dataset, &query, tau)
        );
        prop_assert_eq!(
            oatsq_range(&built, &dataset, &query, tau),
            oatsq_range(&loaded, &dataset, &query, tau)
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Sharded indexes restored from an index cache answer every query
    /// kind exactly like the indexes they were saved from, for
    /// S ∈ {1, 2, 4} and both partitioners.
    #[test]
    fn loaded_sharded_engine_answers_identically(
        dataset in arb_dataset(),
        query in arb_query(),
        k in 1usize..7,
        tau in 0.0f64..15.0,
        spatial in any::<bool>(),
    ) {
        let partition = if spatial { Partition::Spatial } else { Partition::Hash };
        let dir = std::env::temp_dir().join(format!(
            "atsq-snapshot-proptest-{}",
            std::process::id()
        ));
        let cache = IndexCache::new(&dir);
        let config = small_config(4);
        use atsq_gat::{atsq, atsq_range, oatsq, oatsq_range};
        let d = &dataset;
        for shards in [1usize, 2, 4] {
            let built = GatIndex::build_sharded(d, config, shards, partition)
                .expect("build sharded");
            cache.save_index(d, &built).expect("save");
            let loaded = cache
                .load_index(d, &config, shards, partition)
                .expect("load sharded");
            prop_assert_eq!(atsq(&built, d, &query, k), atsq(&loaded, d, &query, k));
            prop_assert_eq!(oatsq(&built, d, &query, k), oatsq(&loaded, d, &query, k));
            prop_assert_eq!(
                atsq_range(&built, d, &query, tau),
                atsq_range(&loaded, d, &query, tau)
            );
            prop_assert_eq!(
                oatsq_range(&built, d, &query, tau),
                oatsq_range(&loaded, d, &query, tau)
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
