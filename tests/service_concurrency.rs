//! Concurrency tests: many threads sharing one immutable index must
//! behave exactly like serial execution, and the service layer's
//! admission control (cache, deadlines, overflow) must be observable
//! end to end.

use atsq_core::{Engine, GatEngine, QueryEngine};
use atsq_datagen::{generate, generate_queries, CityConfig, QueryGenConfig};
use atsq_service::{Request, Response, Server, Service, ServiceConfig, SubmitError};
use atsq_types::{Dataset, Query, QueryResult};
use std::sync::Arc;
use std::time::Duration;

fn city(seed: u64) -> (Dataset, Vec<Query>) {
    let dataset = generate(&CityConfig::tiny(seed)).unwrap();
    let queries = generate_queries(
        &dataset,
        &QueryGenConfig {
            query_points: 3,
            acts_per_point: 2,
            ..QueryGenConfig::default()
        },
        12,
    );
    (dataset, queries)
}

/// N threads hammering one shared `Arc<Engine>` return results
/// identical to serial execution — for every engine, both query types.
#[test]
fn engines_agree_under_concurrency() {
    let (dataset, queries) = city(31);
    let dataset = Arc::new(dataset);
    for engine in Engine::build_all(&dataset).unwrap() {
        let engine = Arc::new(engine);
        let serial: Vec<(Vec<QueryResult>, Vec<QueryResult>)> = queries
            .iter()
            .map(|q| (engine.atsq(&dataset, q, 5), engine.oatsq(&dataset, q, 5)))
            .collect();
        std::thread::scope(|scope| {
            for t in 0..8 {
                let engine = engine.clone();
                let dataset = dataset.clone();
                let queries = &queries;
                let serial = &serial;
                scope.spawn(move || {
                    // Different threads walk the workload from
                    // different offsets so interleavings vary.
                    for i in 0..queries.len() {
                        let j = (i + t) % queries.len();
                        let q = &queries[j];
                        assert_eq!(
                            engine.atsq(&dataset, q, 5),
                            serial[j].0,
                            "{} diverged under concurrency",
                            engine.name()
                        );
                        assert_eq!(
                            engine.oatsq(&dataset, q, 5),
                            serial[j].1,
                            "{} diverged under concurrency (ordered)",
                            engine.name()
                        );
                    }
                });
            }
        });
    }
}

/// The same property through the whole service stack: concurrent
/// submitters via the worker pool get byte-identical answers to the
/// direct engine, with the cache on.
#[test]
fn service_answers_match_direct_engine_under_load() {
    let (dataset, queries) = city(32);
    let service = Service::build(
        dataset,
        ServiceConfig {
            workers: 4,
            ..ServiceConfig::default()
        },
    )
    .unwrap();
    let handle = service.handle();
    let expected: Vec<Vec<QueryResult>> = queries
        .iter()
        .map(|q| handle.engine().atsq(&handle.dataset(), q, 7))
        .collect();
    std::thread::scope(|scope| {
        for t in 0..8 {
            let handle = handle.clone();
            let queries = &queries;
            let expected = &expected;
            scope.spawn(move || {
                for rep in 0..15 {
                    let j = (t + rep) % queries.len();
                    let response = handle
                        .call(Request::Atsq {
                            query: queries[j].clone(),
                            k: 7,
                        })
                        .unwrap();
                    assert_eq!(response.results().unwrap(), expected[j].as_slice());
                }
            });
        }
    });
    let stats = handle.stats();
    assert_eq!(stats.completed, 120);
    assert!(stats.cache_hits > 0, "repeated queries never hit the cache");
    service.shutdown();
}

/// Cache hits, deadline expiry and queue-overflow rejection are all
/// reported faithfully by the service.
#[test]
fn service_admission_control_paths() {
    let (dataset, queries) = city(33);

    // Cache: same request twice — second comes back cached.
    let service = Service::build(
        dataset.clone(),
        ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        },
    )
    .unwrap();
    let handle = service.handle();
    let request = Request::Atsq {
        query: queries[0].clone(),
        k: 5,
    };
    assert!(!handle.call(request.clone()).unwrap().is_cached());
    assert!(handle.call(request.clone()).unwrap().is_cached());

    // Deadline: an already-expired deadline is answered Expired
    // without running the engine.
    let evals_before = handle.stats().engine.distance_evals;
    let response = handle
        .submit_with_deadline(request.clone(), Some(Duration::ZERO))
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(response, Response::Expired);
    assert_eq!(handle.stats().engine.distance_evals, evals_before);
    assert_eq!(handle.stats().expired, 1);
    service.shutdown();

    // Overflow: no workers draining a capacity-2 queue — the third
    // submission is rejected, not queued.
    let service = Service::build(
        dataset,
        ServiceConfig {
            workers: 0,
            queue_capacity: 2,
            ..ServiceConfig::default()
        },
    )
    .unwrap();
    let handle = service.handle();
    let _a = handle.submit(request.clone()).unwrap();
    let _b = handle.submit(request.clone()).unwrap();
    assert_eq!(handle.submit(request).unwrap_err(), SubmitError::QueueFull);
    assert_eq!(handle.stats().rejected, 1);
    service.shutdown();
}

/// The acceptance scenario for the sharded engine: a server built with
/// `shards > 1` driven by the closed-loop load generator in verify
/// mode, where every response is checked against a locally built
/// single-index engine — zero mismatches allowed. Also checks the
/// stats surface reports per-shard candidate counts.
#[test]
fn loadgen_verifies_sharded_server() {
    use atsq_core::Partition;
    use atsq_service::{run_loadgen, LoadgenConfig};

    let (dataset, _) = city(35);
    let service = Service::build(
        dataset.clone(),
        ServiceConfig {
            workers: 4,
            shards: 3,
            partition: Partition::Spatial,
            ..ServiceConfig::default()
        },
    )
    .unwrap();
    let server = Server::bind(service.handle(), "127.0.0.1:0").unwrap();
    let addr = server.local_addr().to_string();

    let report = run_loadgen(
        &addr,
        &dataset,
        &LoadgenConfig {
            concurrency: 6,
            requests: 240,
            pool: 16,
            k: 5,
            verify: true,
            ..LoadgenConfig::default()
        },
    )
    .unwrap();
    assert_eq!(report.incorrect, 0, "sharded answers diverged: {report}");
    assert_eq!(report.errors, 0, "{report}");
    assert_eq!(report.ok, 240, "{report}");

    let stats = service.stats();
    assert_eq!(stats.shard_candidates.len(), 3);
    assert!(stats.shard_candidates.iter().sum::<u64>() > 0);

    server.stop();
    service.shutdown();
}

/// Full-stack smoke: GAT behind the service behind TCP equals GAT
/// called directly, under concurrent TCP clients.
#[test]
fn tcp_clients_get_correct_results_concurrently() {
    use atsq_service::wire::{decode_server_reply, encode_request, ServerReply};
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;

    let (dataset, queries) = city(34);
    let reference = GatEngine::build(&dataset).unwrap();
    let expected: Vec<Vec<QueryResult>> = queries
        .iter()
        .map(|q| reference.atsq(&dataset, q, 5))
        .collect();

    let service = Service::build(
        dataset,
        ServiceConfig {
            workers: 4,
            ..ServiceConfig::default()
        },
    )
    .unwrap();
    let server = Server::bind(service.handle(), "127.0.0.1:0").unwrap();
    let addr = server.local_addr();

    std::thread::scope(|scope| {
        for t in 0..6 {
            let queries = &queries;
            let expected = &expected;
            scope.spawn(move || {
                let stream = TcpStream::connect(addr).unwrap();
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                let mut stream = stream;
                for rep in 0..10 {
                    let j = (t + rep) % queries.len();
                    let line = encode_request(
                        &Request::Atsq {
                            query: queries[j].clone(),
                            k: 5,
                        },
                        None,
                    )
                    .to_json();
                    stream.write_all(line.as_bytes()).unwrap();
                    stream.write_all(b"\n").unwrap();
                    let mut reply = String::new();
                    reader.read_line(&mut reply).unwrap();
                    match decode_server_reply(reply.trim()).unwrap() {
                        ServerReply::Ok { results, .. } => {
                            assert_eq!(results.len(), expected[j].len());
                            for (got, want) in results.iter().zip(&expected[j]) {
                                assert_eq!(got.trajectory, want.trajectory);
                                assert!((got.distance - want.distance).abs() < 1e-9);
                            }
                        }
                        other => panic!("unexpected {other:?}"),
                    }
                }
            });
        }
    });

    server.stop();
    service.shutdown();
}
