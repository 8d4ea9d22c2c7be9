//! Service throughput: QPS and cache hit rate vs. worker count.
//!
//! Unlike the figure benches this is a self-driving harness
//! (`harness = false`, no criterion): it runs a closed-loop in-process
//! workload against `atsq-service` at several worker counts and two
//! cache settings, prints a table, and emits `BENCH_service_throughput.json`
//! (path overridable via `BENCH_OUT`) for the benchmark trajectory.
//!
//! Environment knobs: `SERVICE_BENCH_SCALE` (dataset scale, default
//! 0.002), `SERVICE_BENCH_REQUESTS` (default 2000).

use atsq_core::{Engine, GatEngine};
use atsq_datagen::{generate, generate_queries, CityConfig, QueryGenConfig, Zipf};
use atsq_service::{Request, Service, ServiceConfig};
use atsq_types::Query;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

struct Sweep {
    workers: usize,
    cache: usize,
    qps: f64,
    p50_ms: f64,
    p99_ms: f64,
    hit_rate: f64,
}

fn main() {
    let scale: f64 = std::env::var("SERVICE_BENCH_SCALE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.002);
    let requests: usize = std::env::var("SERVICE_BENCH_REQUESTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2000);

    let dataset = generate(&CityConfig::la_like(scale)).expect("dataset");
    let engine = Arc::new(Engine::Gat(GatEngine::build(&dataset).expect("engine")));
    let dataset = Arc::new(dataset);
    let pool = generate_queries(
        &dataset,
        &QueryGenConfig {
            query_points: 3,
            acts_per_point: 2,
            ..QueryGenConfig::default()
        },
        64,
    );

    // Worker counts beyond the core count are still meaningful (they
    // are plain threads), so the sweep is fixed rather than derived
    // from `available_parallelism`.
    let worker_counts: [usize; 4] = [1, 2, 4, 8];

    println!(
        "service_throughput: {} requests over {} pooled queries, Zipf(1.0) reuse",
        requests,
        pool.len()
    );
    println!(
        "{:>8}{:>8}{:>12}{:>10}{:>10}{:>10}",
        "workers", "cache", "qps", "p50 ms", "p99 ms", "hit rate"
    );

    let mut sweeps = Vec::new();
    for &workers in &worker_counts {
        for cache in [0usize, 4096] {
            let s = run_sweep(&dataset, &engine, &pool, workers, cache, requests);
            println!(
                "{:>8}{:>8}{:>12.1}{:>10.2}{:>10.2}{:>10.2}",
                s.workers, s.cache, s.qps, s.p50_ms, s.p99_ms, s.hit_rate
            );
            sweeps.push(s);
        }
    }

    let out = std::env::var("BENCH_OUT").unwrap_or_else(|_| "BENCH_service_throughput.json".into());
    let json = to_json(&sweeps, requests, pool.len());
    std::fs::write(&out, json).expect("write bench json");
    println!("wrote {out}");
}

fn run_sweep(
    dataset: &Arc<atsq_types::Dataset>,
    engine: &Arc<Engine>,
    pool: &[Query],
    workers: usize,
    cache: usize,
    requests: usize,
) -> Sweep {
    let service = Service::start(
        dataset.clone(),
        engine.clone(),
        ServiceConfig {
            workers,
            cache_capacity: cache,
            queue_capacity: 4096,
            ..ServiceConfig::default()
        },
    );
    let handle = service.handle();
    let zipf = Zipf::new(pool.len(), 1.0);
    let issued = AtomicUsize::new(0);
    // Closed loop: one in-flight request per submitter thread, enough
    // submitters to keep every worker busy.
    let submitters = (workers * 2).clamp(2, 32);
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for tid in 0..submitters {
            let handle = handle.clone();
            let zipf = &zipf;
            let issued = &issued;
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(0xBEEF ^ ((tid as u64) << 17));
                loop {
                    if issued.fetch_add(1, Ordering::Relaxed) >= requests {
                        break;
                    }
                    let q = pool[zipf.sample(&mut rng)].clone();
                    match handle.call(Request::Atsq { query: q, k: 9 }) {
                        Ok(_) => {}
                        Err(e) => panic!("submit failed: {e}"),
                    }
                }
            });
        }
    });
    let wall = t0.elapsed();
    let snap = handle.stats();
    let sweep = Sweep {
        workers,
        cache,
        qps: snap.completed as f64 / wall.as_secs_f64().max(1e-9),
        p50_ms: snap.p50_ms,
        p99_ms: snap.p99_ms,
        hit_rate: snap.cache_hit_rate(),
    };
    service.shutdown();
    sweep
}

fn to_json(sweeps: &[Sweep], requests: usize, pool: usize) -> String {
    let mut rows = String::new();
    for (i, s) in sweeps.iter().enumerate() {
        if i > 0 {
            rows.push(',');
        }
        rows.push_str(&format!(
            r#"{{"workers":{},"cache":{},"qps":{:.2},"p50_ms":{:.4},"p99_ms":{:.4},"cache_hit_rate":{:.4}}}"#,
            s.workers, s.cache, s.qps, s.p50_ms, s.p99_ms, s.hit_rate
        ));
    }
    format!(
        r#"{{"bench":"service_throughput","requests":{requests},"pool":{pool},"sweeps":[{rows}]}}"#
    )
}
