//! Property tests for the GAT components: TAS soundness, the optimal
//! sketch partition, and the Algorithm-2 lower bound's validity on
//! random micro-datasets.

use atsq_gat::tas::Sketch;
use atsq_gat::{GatConfig, GatIndex};
use atsq_matching::min_match_distance;
use atsq_types::{
    rank_top_k, ActivitySet, Dataset, DatasetBuilder, Point, Query, QueryPoint, QueryResult,
    TrajectoryPoint,
};
use proptest::prelude::*;

fn arb_acts(max: u32, len: usize) -> impl Strategy<Value = ActivitySet> {
    prop::collection::vec(0..max, 1..=len).prop_map(ActivitySet::from_raw)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// TAS never dismisses an id the trajectory contains, under any M.
    #[test]
    fn sketch_has_no_false_dismissals(acts in arb_acts(500, 20), m in 1usize..8) {
        let s = Sketch::build(&acts, m);
        for id in acts.iter() {
            prop_assert!(s.contains(id));
        }
        prop_assert!(s.covers(&acts));
        prop_assert!(s.intervals().len() <= m.max(acts.len()));
    }

    /// The gap-split partition minimises total width (exhaustive check
    /// against all split choices on small inputs).
    #[test]
    fn sketch_partition_is_optimal(acts in arb_acts(200, 9), m in 1usize..5) {
        let fast = Sketch::build(&acts, m).total_width();
        let ids: Vec<u32> = acts.iter().map(|a| a.0).collect();
        if ids.len() <= m {
            prop_assert_eq!(fast, 0);
            return Ok(());
        }
        let gaps = ids.len() - 1;
        let mut best = u64::MAX;
        for mask in 0u32..(1 << gaps) {
            if (mask.count_ones() as usize) != m - 1 {
                continue;
            }
            let mut width = 0u64;
            let mut start = 0usize;
            for g in 0..gaps {
                if mask & (1 << g) != 0 {
                    width += u64::from(ids[g] - ids[start]);
                    start = g + 1;
                }
            }
            width += u64::from(ids[ids.len() - 1] - ids[start]);
            best = best.min(width);
        }
        prop_assert_eq!(fast, best);
    }

    /// Sketch intervals are disjoint and ascending.
    #[test]
    fn sketch_intervals_well_formed(acts in arb_acts(300, 15), m in 1usize..6) {
        let s = Sketch::build(&acts, m);
        let iv = s.intervals();
        prop_assert!(iv.iter().all(|&(lo, hi)| lo <= hi));
        prop_assert!(iv.windows(2).all(|w| w[0].1 < w[1].0));
    }
}

/// Random micro-dataset strategy: up to 12 trajectories of up to 6
/// points over a 20-activity vocabulary in a 10 km plane.
fn arb_dataset() -> impl Strategy<Value = Dataset> {
    let point = (
        0.0f64..10.0,
        0.0f64..10.0,
        prop::collection::vec(0u32..20, 1..3),
    );
    let traj = prop::collection::vec(point, 1..6);
    prop::collection::vec(traj, 1..12).prop_map(|trs| {
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// GAT (under assorted configurations) equals the exhaustive scan
    /// on arbitrary micro-datasets — exercising the Algorithm-2 bound,
    /// the TAS filter and the termination logic together.
    #[test]
    fn gat_equals_scan_on_random_data(
        dataset in arb_dataset(),
        query in arb_query(),
        k in 1usize..6,
        grid_level in 2u8..7,
        lambda in 1usize..9,
        lb_cells in 1usize..6,
    ) {
        let idx = GatIndex::build_with(
            &dataset,
            GatConfig {
                grid_level,
                memory_level: grid_level.min(3),
                lambda,
                lb_cells,
                ..GatConfig::default()
            },
        )
        .expect("index builds");
        let got = atsq_gat::atsq(&idx, &dataset, &query, k);
        let mut want = Vec::new();
        for tr in dataset.trajectories() {
            if let Some(d) = min_match_distance(&query, &tr.points) {
                want.push(QueryResult::new(tr.id, d));
            }
        }
        let want = rank_top_k(want, k);
        prop_assert_eq!(&got, &want, "grid={} λ={} m={}", grid_level, lambda, lb_cells);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The paged APL is a pure storage substitution: GAT over pages
    /// (any page size / pool size) returns exactly what the in-memory
    /// backend returns, for ATSQ and OATSQ alike.
    #[test]
    fn paged_backend_is_transparent(
        dataset in arb_dataset(),
        query in arb_query(),
        k in 1usize..6,
        page_size in prop::sample::select(vec![64usize, 128, 512, 4096]),
        pool_frames in 1usize..5,
    ) {
        use atsq_gat::{PagedAplConfig, PagedBacking};
        let config = GatConfig {
            grid_level: 4,
            memory_level: 3,
            ..GatConfig::default()
        };
        let mem = GatIndex::build_with(&dataset, config).expect("memory index");
        let paged = GatIndex::build_paged(
            &dataset,
            config,
            &PagedAplConfig {
                page_size,
                pool_frames,
                backing: PagedBacking::Memory,
            },
        )
        .expect("paged index");
        prop_assert_eq!(
            atsq_gat::atsq(&paged, &dataset, &query, k),
            atsq_gat::atsq(&mem, &dataset, &query, k),
            "ATSQ diverged (page={}, frames={})", page_size, pool_frames
        );
        prop_assert_eq!(
            atsq_gat::oatsq(&paged, &dataset, &query, k),
            atsq_gat::oatsq(&mem, &dataset, &query, k),
            "OATSQ diverged (page={}, frames={})", page_size, pool_frames
        );
    }

    /// Posting-list blobs roundtrip through the byte codec for
    /// arbitrary trajectories.
    #[test]
    fn postings_codec_roundtrips(
        points in prop::collection::vec(
            (0.0f64..10.0, prop::collection::vec(0u32..50, 0..4)),
            1..10,
        ),
    ) {
        use atsq_gat::apl::TrajectoryPostings;
        use atsq_types::TrajectoryId;
        let tr = atsq_types::Trajectory::new(
            TrajectoryId(0),
            points
                .into_iter()
                .map(|(x, acts)| {
                    TrajectoryPoint::new(Point::new(x, 0.0), ActivitySet::from_raw(acts))
                })
                .collect(),
        );
        let p = TrajectoryPostings::build(&tr);
        let q = TrajectoryPostings::from_bytes(&p.to_bytes()).expect("decodes");
        for a in 0..50u32 {
            let a = atsq_types::ActivityId(a);
            prop_assert_eq!(p.postings(a), q.postings(a));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Sharding is a pure execution strategy: for any shard count,
    /// either partitioner, and all four query kinds, an index whose
    /// verification half is split into parts returns exactly the
    /// single-index answer — ids, distances and tie-breaks included.
    /// This is the guarantee behind running one Algorithm-1 loop over
    /// the one traversal half and verifying each candidate on its
    /// owner part.
    #[test]
    fn sharded_engine_equals_single_index(
        dataset in arb_dataset(),
        query in arb_query(),
        k in 1usize..6,
        tau in 0.0f64..30.0,
        shards in prop::sample::select(vec![1usize, 2, 3, 7]),
        spatial in proptest::arbitrary::any::<bool>(),
    ) {
        use atsq_gat::Partition;
        let partition = if spatial { Partition::Spatial } else { Partition::Hash };
        let single = GatIndex::build(&dataset).expect("single index");
        let sharded = GatIndex::build_sharded(&dataset, GatConfig::default(), shards, partition)
            .expect("sharded index");
        prop_assert_eq!(
            atsq_gat::atsq(&sharded, &dataset, &query, k),
            atsq_gat::atsq(&single, &dataset, &query, k),
            "ATSQ diverged (S={}, {})", shards, partition
        );
        prop_assert_eq!(
            atsq_gat::oatsq(&sharded, &dataset, &query, k),
            atsq_gat::oatsq(&single, &dataset, &query, k),
            "OATSQ diverged (S={}, {})", shards, partition
        );
        prop_assert_eq!(
            atsq_gat::atsq_range(&sharded, &dataset, &query, tau),
            atsq_gat::atsq_range(&single, &dataset, &query, tau),
            "range ATSQ diverged (S={}, {})", shards, partition
        );
        prop_assert_eq!(
            atsq_gat::oatsq_range(&sharded, &dataset, &query, tau),
            atsq_gat::oatsq_range(&single, &dataset, &query, tau),
            "range OATSQ diverged (S={}, {})", shards, partition
        );
    }
}
