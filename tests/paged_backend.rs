//! The paged APL backend must be a pure storage substitution: GAT over
//! pages returns byte-identical results to GAT in memory (and therefore
//! to every baseline engine), page traffic is actually measured, and
//! storage faults surface as errors — never as silently wrong results.

use atsq_core::{GatConfig, GatEngine, PagedAplConfig, PagedBacking, QueryEngine};
use atsq_datagen::{generate, generate_queries, CityConfig, QueryGenConfig};
use atsq_gat::{try_atsq, AplStorage, GatIndex, PagedApl};
use atsq_storage::{FaultInjectingStore, FaultPlan, MemPageStore, PageStore};
use atsq_types::Error;

fn paged_configs() -> Vec<PagedAplConfig> {
    vec![
        PagedAplConfig::default(),
        // Tiny pages and a tiny pool: every posting fetch churns.
        PagedAplConfig {
            page_size: 128,
            pool_frames: 2,
            backing: PagedBacking::Memory,
        },
        // Realistic pages, starved pool.
        PagedAplConfig {
            page_size: 1024,
            pool_frames: 1,
            backing: PagedBacking::Memory,
        },
    ]
}

#[test]
fn paged_gat_agrees_with_memory_gat() {
    let dataset = generate(&CityConfig::tiny(99)).unwrap();
    let mem = GatEngine::build(&dataset).unwrap();
    let queries = generate_queries(
        &dataset,
        &QueryGenConfig {
            query_points: 3,
            acts_per_point: 2,
            ..Default::default()
        },
        8,
    );
    for cfg in paged_configs() {
        let paged = GatEngine::build_paged(&dataset, GatConfig::default(), &cfg).unwrap();
        for (qi, q) in queries.iter().enumerate() {
            for k in [1, 5, 10] {
                assert_eq!(
                    paged.atsq(&dataset, q, k),
                    mem.atsq(&dataset, q, k),
                    "ATSQ diverged: cfg={cfg:?} query={qi} k={k}"
                );
                assert_eq!(
                    paged.oatsq(&dataset, q, k),
                    mem.oatsq(&dataset, q, k),
                    "OATSQ diverged: cfg={cfg:?} query={qi} k={k}"
                );
            }
            let tau = 30.0;
            assert_eq!(
                paged.atsq_range(&dataset, q, tau),
                mem.atsq_range(&dataset, q, tau),
                "range ATSQ diverged: cfg={cfg:?} query={qi}"
            );
        }
    }
}

#[test]
fn paged_gat_measures_page_traffic() {
    let dataset = generate(&CityConfig::tiny(7)).unwrap();
    let cfg = PagedAplConfig {
        page_size: 128,
        pool_frames: 1, // nothing stays resident between fetches
        backing: PagedBacking::Memory,
    };
    let engine = GatEngine::build_paged(&dataset, GatConfig::default(), &cfg).unwrap();
    let queries = generate_queries(&dataset, &QueryGenConfig::default(), 3);

    let before = engine.index().apl_pool_stats().expect("paged backend");
    assert_eq!(before.hits + before.misses, 0, "build must reset counters");

    let mut any = 0;
    for q in &queries {
        any += engine.atsq(&dataset, q, 5).len();
    }
    let after = engine.index().apl_pool_stats().expect("paged backend");
    if any > 0 {
        assert!(
            after.misses > 0,
            "a one-frame pool cannot serve postings without misses: {after:?}"
        );
    }
    // Simulated APL-read counter and measured pool accesses must agree
    // on the number of posting fetches: one pool access per record
    // chunk, at least one per APL read.
    let snapshot = engine.index().stats();
    assert!(after.hits + after.misses >= snapshot.apl_reads);
}

#[test]
fn file_backed_gat_answers_queries() {
    let dir = std::env::temp_dir().join("atsq-paged-backend-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("apl.pages");
    let dataset = generate(&CityConfig::tiny(3)).unwrap();
    let cfg = PagedAplConfig {
        page_size: 512,
        pool_frames: 8,
        backing: PagedBacking::File(path.clone()),
    };
    let mem = GatEngine::build(&dataset).unwrap();
    let paged = GatEngine::build_paged(&dataset, GatConfig::default(), &cfg).unwrap();
    let queries = generate_queries(&dataset, &QueryGenConfig::default(), 4);
    for q in &queries {
        assert_eq!(paged.atsq(&dataset, q, 7), mem.atsq(&dataset, q, 7));
    }
    assert!(path.metadata().unwrap().len() > 0);
    // The cold HICL levels live in a sibling page file.
    let mut cold = path.clone().into_os_string();
    cold.push(".hicl");
    assert!(std::path::Path::new(&cold).exists());
    drop(paged);
    std::fs::remove_file(&path).unwrap();
    std::fs::remove_file(&cold).unwrap();
}

#[test]
fn storage_faults_surface_as_errors_not_results() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    let dataset = generate(&CityConfig::tiny(11)).unwrap();
    let index = GatIndex::build(&dataset).unwrap();

    // A store that serves the build, then fails every read afterwards:
    // the arming switch stays off until the index is ready.
    let switch = Arc::new(AtomicBool::new(false));
    let store: Box<dyn PageStore> = Box::new(FaultInjectingStore::new(
        MemPageStore::new(256).unwrap(),
        FaultPlan {
            fail_reads_from: Some(0),
            arm_switch: Some(Arc::clone(&switch)),
            ..FaultPlan::default()
        },
    ));
    // One frame: at most one page can be served warm from the build.
    let paged = PagedApl::build_with_store(dataset.trajectories().iter(), store, 1).unwrap();
    let index = index
        .with_apl_storage(AplStorage::Paged(paged))
        .expect("a single-part index takes replacement APL storage");
    switch.store(true, Ordering::Relaxed); // pull the plug

    let mem = GatEngine::build(&dataset).unwrap();
    let queries = generate_queries(&dataset, &QueryGenConfig::default(), 8);
    let mut saw_error = false;
    for q in &queries {
        match try_atsq(&index, &dataset, q, 5) {
            // Served entirely from the warm frame: must still be right.
            Ok(results) => assert_eq!(results, mem.atsq(&dataset, q, 5)),
            Err(Error::Storage(msg)) => {
                assert!(msg.contains("injected read fault"), "{msg}");
                saw_error = true;
            }
            Err(other) => panic!("unexpected error kind: {other:?}"),
        }
    }
    assert!(
        saw_error,
        "no query ever faulted a page — workload too weak"
    );
}

/// A store that serves reads whose payload has been silently replaced
/// by garbage *after* the checksum was verified — the nightmare case a
/// page checksum cannot catch (e.g. a bug between medium and decoder).
/// The record decoder must still refuse to produce postings.
#[derive(Debug)]
struct GarblingStore {
    inner: MemPageStore,
    garble_reads: bool,
}

impl PageStore for GarblingStore {
    fn page_size(&self) -> usize {
        self.inner.page_size()
    }
    fn page_count(&self) -> u64 {
        self.inner.page_count()
    }
    fn allocate(&mut self) -> atsq_storage::StorageResult<atsq_storage::PageId> {
        self.inner.allocate()
    }
    fn read(
        &mut self,
        id: atsq_storage::PageId,
        page: &mut atsq_storage::Page,
    ) -> atsq_storage::StorageResult<()> {
        self.inner.read(id, page)?;
        if self.garble_reads {
            for b in page.payload_mut() {
                *b = 0xFF;
            }
            page.seal(); // keep the checksum consistent: pure garbage data
        }
        Ok(())
    }
    fn write(
        &mut self,
        id: atsq_storage::PageId,
        page: &mut atsq_storage::Page,
    ) -> atsq_storage::StorageResult<()> {
        self.inner.write(id, page)
    }
    fn sync(&mut self) -> atsq_storage::StorageResult<()> {
        self.inner.sync()
    }
    fn io_counts(&self) -> (u64, u64) {
        self.inner.io_counts()
    }
}

#[test]
fn garbled_page_payload_is_detected_at_query_time() {
    let dataset = generate(&CityConfig::tiny(13)).unwrap();
    let index = GatIndex::build(&dataset).unwrap();

    let store: Box<dyn PageStore> = Box::new(GarblingStore {
        inner: MemPageStore::new(256).unwrap(),
        garble_reads: true, // writes are clean; every read decays
    });
    // pool_frames = 1 so queries always re-read through the garbler.
    let paged = PagedApl::build_with_store(dataset.trajectories().iter(), store, 1).unwrap();
    let index = index
        .with_apl_storage(AplStorage::Paged(paged))
        .expect("a single-part index takes replacement APL storage");

    let queries = generate_queries(&dataset, &QueryGenConfig::default(), 5);
    let mut saw_error = false;
    for q in &queries {
        match try_atsq(&index, &dataset, q, 5) {
            Ok(results) => assert!(results.is_empty(), "results decoded from garbage"),
            Err(Error::Storage(_)) => saw_error = true,
            Err(other) => panic!("unexpected error kind: {other:?}"),
        }
    }
    assert!(
        saw_error,
        "no query ever touched the APL — workload too weak"
    );
}

#[test]
fn paged_gat_serves_concurrent_queries() {
    let dataset = generate(&CityConfig::tiny(31)).unwrap();
    let queries = generate_queries(
        &dataset,
        &QueryGenConfig {
            query_points: 3,
            acts_per_point: 2,
            ..Default::default()
        },
        16,
    );
    let mem = GatEngine::build(&dataset).unwrap();
    // A starved pool maximizes contention on the shared buffer frames.
    let paged = GatEngine::build_paged(
        &dataset,
        GatConfig::default(),
        &PagedAplConfig {
            page_size: 128,
            pool_frames: 2,
            backing: PagedBacking::Memory,
        },
    )
    .unwrap();

    // Four threads, each running every fourth query against the one
    // paged engine, must match the in-memory engine run sequentially.
    for ordered in [false, true] {
        let run = |engine: &GatEngine, q| {
            if ordered {
                engine.oatsq(&dataset, q, 7)
            } else {
                engine.atsq(&dataset, q, 7)
            }
        };
        let sequential: Vec<_> = queries.iter().map(|q| run(&mem, q)).collect();
        let mut concurrent = vec![Vec::new(); queries.len()];
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|t| {
                    let (run, paged, queries) = (&run, &paged, &queries);
                    scope.spawn(move || {
                        (t..queries.len())
                            .step_by(4)
                            .map(|i| (i, run(paged, &queries[i])))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            for h in handles {
                for (i, results) in h.join().unwrap() {
                    concurrent[i] = results;
                }
            }
        });
        assert_eq!(sequential, concurrent, "ordered={ordered}");
    }

    // All page traffic from four threads is accounted for.
    let pool = paged.index().apl_pool_stats().unwrap();
    assert!(pool.hits + pool.misses > 0);
}

#[test]
fn cold_hicl_levels_are_paged_and_measured() {
    let dataset = generate(&CityConfig::tiny(43)).unwrap();
    // memory_level 2 of a level-6 grid: levels 3..=6 go to pages.
    let config = GatConfig {
        grid_level: 6,
        memory_level: 2,
        ..GatConfig::default()
    };
    let mem = GatEngine::build_with(&dataset, config).unwrap();
    let paged = GatEngine::build_paged(
        &dataset,
        config,
        &PagedAplConfig {
            page_size: 256,
            pool_frames: 2,
            backing: PagedBacking::Memory,
        },
    )
    .unwrap();
    let cold = paged.index().cold_hicl().expect("cold levels exist");
    assert_eq!(cold.first_level(), 3);
    assert!(cold.disk_bytes() > 0);
    let before = cold.pool_stats();
    assert_eq!(before.hits + before.misses, 0, "build resets counters");

    let queries = generate_queries(
        &dataset,
        &QueryGenConfig {
            query_points: 3,
            acts_per_point: 2,
            ..Default::default()
        },
        6,
    );
    for q in &queries {
        assert_eq!(paged.atsq(&dataset, q, 5), mem.atsq(&dataset, q, 5));
        assert_eq!(paged.oatsq(&dataset, q, 5), mem.oatsq(&dataset, q, 5));
    }
    let after = cold.pool_stats();
    assert!(
        after.hits + after.misses > 0,
        "the descent below level 2 must fetch cold cells: {after:?}"
    );
    // Measured cold fetches and the simulated counter agree in order:
    // every simulated cold read was served by at least one pool access
    // or by a directory miss (unoccupied cell, no record to fetch).
    let simulated = paged.index().stats().hicl_cold_reads;
    assert!(simulated > 0);
}

#[test]
fn cold_hicl_absent_when_everything_is_hot() {
    let dataset = generate(&CityConfig::tiny(2)).unwrap();
    let config = GatConfig {
        grid_level: 4,
        memory_level: 4, // nothing cold
        ..GatConfig::default()
    };
    let paged = GatEngine::build_paged(&dataset, config, &PagedAplConfig::default()).unwrap();
    assert!(paged.index().cold_hicl().is_none());
}

#[test]
fn paged_cold_hicl_rejects_dynamic_inserts() {
    let dataset = generate(&CityConfig::tiny(6)).unwrap();
    let mut index =
        GatIndex::build_paged(&dataset, GatConfig::default(), &PagedAplConfig::default()).unwrap();
    let mut grown = dataset.clone();
    let points = grown.trajectories()[0].points.clone();
    let id = grown.append_trajectory(points).unwrap();
    let err = index.insert_trajectory(grown.trajectory(id)).unwrap_err();
    assert!(
        err.to_string().contains("rebuild"),
        "want the rebuild guidance, got: {err}"
    );
}
