//! The APL on real pages: build a GAT index whose posting lists live in
//! a page file behind an LRU buffer pool, query it, and watch the page
//! traffic respond to the pool size — the paper's "APL on hard disk"
//! design (§IV) made concrete.
//!
//! Run with: `cargo run --example paged_storage`

use atsq_core::prelude::*;
use atsq_core::{PagedAplConfig, PagedBacking};
use atsq_datagen::{generate, generate_queries, CityConfig, QueryGenConfig};

fn main() {
    // A mid-sized synthetic city (the Foursquare-like generator).
    let dataset = generate(&CityConfig::la_like(0.02)).expect("generation");
    let queries = generate_queries(
        &dataset,
        &QueryGenConfig {
            query_points: 3,
            acts_per_point: 2,
            ..Default::default()
        },
        20,
    );
    println!(
        "{} trajectories; running {} queries per configuration\n",
        dataset.len(),
        queries.len()
    );

    // Reference: everything in memory.
    let mem = GatEngine::build(&dataset).expect("index builds");

    // The APL in a real page file, pools from generous to starved.
    let path = std::env::temp_dir().join("atsq-example-apl.pages");
    println!(
        "{:>8} {:>10} {:>10} {:>10} {:>8}",
        "pool", "hits", "misses", "evictions", "hit%"
    );
    for frames in [1024, 64, 8, 1] {
        let engine = GatEngine::build_paged(
            &dataset,
            GatConfig::default(),
            &PagedAplConfig {
                page_size: 4096,
                pool_frames: frames,
                backing: PagedBacking::File(path.clone()),
            },
        )
        .expect("paged index builds");

        let mut checked = 0usize;
        for q in &queries {
            let got = engine.atsq(&dataset, q, 9);
            assert_eq!(
                got,
                mem.atsq(&dataset, q, 9),
                "pages must not change answers"
            );
            checked += got.len();
        }
        let s = engine
            .index()
            .apl_pool_stats()
            .expect("paged backend reports pool stats");
        println!(
            "{frames:>8} {:>10} {:>10} {:>10} {:>7.1}%",
            s.hits,
            s.misses,
            s.evictions,
            s.hit_ratio() * 100.0
        );
        let _ = checked;
    }
    println!("\nidentical answers at every pool size — storage is a pure substitution");
    let _ = std::fs::remove_file(&path);
    // The cold HICL levels live in a sibling page file.
    let mut cold = path.into_os_string();
    cold.push(".hicl");
    let _ = std::fs::remove_file(cold);
}
