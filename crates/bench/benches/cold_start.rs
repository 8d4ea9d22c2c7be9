//! Cold start: building the GAT index from the dataset vs loading a
//! persisted snapshot.
//!
//! A self-driving harness (`harness = false`, no criterion): builds
//! the NY-like city, then for each shard count measures (a) the
//! from-scratch index build a cache-less `atsq serve` start pays, and
//! (b) the snapshot save + validated load that `--index-cache` pays
//! instead. Every loaded engine is verified to answer a sample of
//! queries exactly like the built one before its timing counts.
//! Every shard count writes one snapshot file. Prints a table and
//! emits `BENCH_cold_start.json` (path overridable via `BENCH_OUT`),
//! with the git revision, host parallelism, scale and dataset hash.
//!
//! Environment knobs: `COLD_START_SCALE` (dataset scale, default
//! 0.006 — the Fig. 7 full-size city), `COLD_START_SHARDS`
//! (comma-separated, default `1,4`), `COLD_START_QUERIES` (default 8).

use atsq_bench::{workload, Setting};
use atsq_core::{GatConfig, GatEngine, IndexCache, Partition, QueryEngine};
use atsq_datagen::{generate, CityConfig};
use atsq_types::{Dataset, Query};
use std::time::Instant;

struct Sweep {
    shards: usize,
    build_ms: f64,
    save_ms: f64,
    load_ms: f64,
    snapshot_bytes: u64,
}

fn main() {
    let scale: f64 = env_or("COLD_START_SCALE", 0.006);
    let n_queries: usize = env_or("COLD_START_QUERIES", 8);
    let shard_counts: Vec<usize> = std::env::var("COLD_START_SHARDS")
        .unwrap_or_else(|_| "1,4".into())
        .split(',')
        .map(|s| s.trim().parse().expect("COLD_START_SHARDS"))
        .collect();

    let config = CityConfig::ny_like(scale);
    let dataset = generate(&config).expect("dataset");
    let setting = Setting::default();
    let queries = workload(&dataset, &setting, n_queries, 0xC01D);
    let dir = std::env::temp_dir().join(format!("atsq-cold-start-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let cache = IndexCache::new(&dir);

    println!(
        "cold_start: {} ({} trajectories), {} verify queries, k={}",
        config.name,
        dataset.len(),
        queries.len(),
        setting.k
    );
    println!(
        "{:>8}{:>12}{:>12}{:>12}{:>12}{:>10}",
        "shards", "build ms", "save ms", "load ms", "snap KiB", "speedup"
    );

    let mut sweeps = Vec::new();
    for &shards in &shard_counts {
        let sweep = sweep(&cache, &dataset, shards, &queries, setting.k);
        println!(
            "{:>8}{:>12.1}{:>12.1}{:>12.1}{:>12.1}{:>9.1}x",
            sweep.shards,
            sweep.build_ms,
            sweep.save_ms,
            sweep.load_ms,
            sweep.snapshot_bytes as f64 / 1024.0,
            sweep.build_ms / sweep.load_ms.max(1e-9)
        );
        // The headline claim — loading beats building — is only a
        // meaningful assertion when the build is long enough to
        // measure; at CI-smoke scales both sides are microseconds and
        // one slow filesystem access would fail the run spuriously.
        if sweep.build_ms >= 20.0 {
            assert!(
                sweep.load_ms < sweep.build_ms,
                "snapshot load ({:.1} ms) must beat the index build ({:.1} ms) at S={}",
                sweep.load_ms,
                sweep.build_ms,
                sweep.shards
            );
        } else if sweep.load_ms >= sweep.build_ms {
            println!(
                "note: load ({:.2} ms) did not beat build ({:.2} ms) at S={} — \
                 dataset too small for the comparison to be meaningful",
                sweep.load_ms, sweep.build_ms, sweep.shards
            );
        }
        sweeps.push(sweep);
    }

    let out = std::env::var("BENCH_OUT").unwrap_or_else(|_| "BENCH_cold_start.json".into());
    let json = to_json(&config.name, scale, &dataset, &sweeps);
    std::fs::write(&out, json).expect("write json");
    println!("wrote {out}");
    std::fs::remove_dir_all(&dir).ok();
}

fn sweep(
    cache: &IndexCache,
    dataset: &Dataset,
    shards: usize,
    queries: &[Query],
    k: usize,
) -> Sweep {
    let partition = Partition::Hash;
    let t0 = Instant::now();
    let built = GatEngine::build_sharded(dataset, shards, partition).expect("build");
    let build_ms = t0.elapsed().as_secs_f64() * 1e3;

    let t0 = Instant::now();
    let path = cache.save_index(dataset, built.index()).expect("save");
    let save_ms = t0.elapsed().as_secs_f64() * 1e3;
    let snapshot_bytes = path.metadata().expect("snapshot metadata").len();

    let t0 = Instant::now();
    let loaded = cache
        .load_index(dataset, &GatConfig::default(), shards, partition)
        .expect("load");
    let load_ms = t0.elapsed().as_secs_f64() * 1e3;
    let loaded = GatEngine::from_index(loaded);

    for q in queries {
        assert_eq!(
            built.atsq(dataset, q, k),
            loaded.atsq(dataset, q, k),
            "loaded index diverged at S={shards}"
        );
        assert_eq!(
            built.oatsq(dataset, q, k),
            loaded.oatsq(dataset, q, k),
            "loaded index diverged at S={shards} (ordered)"
        );
    }
    Sweep {
        shards,
        build_ms,
        save_ms,
        load_ms,
        snapshot_bytes,
    }
}

fn env_or<T: std::str::FromStr>(name: &str, default: T) -> T {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn to_json(city: &str, scale: f64, dataset: &Dataset, sweeps: &[Sweep]) -> String {
    let rows: Vec<String> = sweeps
        .iter()
        .map(|s| {
            format!(
                concat!(
                    r#"{{"shards":{},"build_ms":{:.3},"save_ms":{:.3},"#,
                    r#""load_ms":{:.3},"snapshot_bytes":{},"speedup":{:.2}}}"#
                ),
                s.shards,
                s.build_ms,
                s.save_ms,
                s.load_ms,
                s.snapshot_bytes,
                s.build_ms / s.load_ms.max(1e-9)
            )
        })
        .collect();
    format!(
        concat!(
            r#"{{"bench":"cold_start",{},"city":"{}","trajectories":{},"#,
            r#""sweeps":[{}]}}"#
        ),
        atsq_bench::provenance_json(scale, dataset),
        city,
        dataset.len(),
        rows.join(",")
    )
}
