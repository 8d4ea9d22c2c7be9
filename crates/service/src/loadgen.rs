//! Closed-loop load generator for the TCP front-end.
//!
//! `concurrency` client threads each hold one connection and keep one
//! request in flight (closed loop), drawing queries from a fixed pool
//! with **Zipf-skewed reuse** — the skew models real traffic where
//! popular queries repeat, which is what exercises the result cache.
//! With `verify` on, every response is checked against direct
//! [`GatEngine`](atsq_core::GatEngine) answers computed locally.
//!
//! Multi-city servers are driven with [`run_loadgen_cities`]: each
//! workload names a city and carries that city's dataset (its own
//! query pool and reference engine), and clients spread requests
//! across the cities round-robin — the access pattern that exercises
//! lazy loads and budget eviction server-side.

use crate::stats::percentile_sorted;
use crate::wire::{decode_server_reply_full, encode_request_for_city, ServerReply};
use crate::Request;
use atsq_core::{GatEngine, QueryEngine};
use atsq_datagen::{generate_queries, QueryGenConfig, Zipf};
use atsq_types::{Dataset, Query, QueryResult};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Workload parameters for [`run_loadgen`].
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Concurrent client connections (closed loop each).
    pub concurrency: usize,
    /// Total requests across all clients.
    pub requests: usize,
    /// Top-k per request.
    pub k: usize,
    /// Distinct queries in the pool.
    pub pool: usize,
    /// Zipf exponent of query reuse (0 = uniform, 1 ≈ web traffic).
    pub zipf_s: f64,
    /// Stops per query.
    pub query_points: usize,
    /// Activities per stop.
    pub acts_per_point: usize,
    /// Optional per-request deadline sent to the server.
    pub deadline_ms: Option<u64>,
    /// Check every response against a locally built engine.
    pub verify: bool,
    /// Workload RNG seed.
    pub seed: u64,
    /// When set, write one JSON line per request — sequence number,
    /// server-assigned request id, status, cached flag and latency —
    /// to this path after the run.
    pub latency_out: Option<std::path::PathBuf>,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            concurrency: 8,
            requests: 1000,
            k: 9,
            pool: 100,
            zipf_s: 1.0,
            query_points: 3,
            acts_per_point: 2,
            deadline_ms: None,
            verify: false,
            seed: 0x10AD,
            latency_out: None,
        }
    }
}

/// Outcome of one load-generation run.
#[derive(Debug, Clone, Default)]
pub struct LoadgenReport {
    /// Requests sent.
    pub sent: u64,
    /// `ok` responses.
    pub ok: u64,
    /// `ok` responses served from the server's cache.
    pub cached: u64,
    /// `expired` responses (deadline passed while queued).
    pub expired: u64,
    /// `rejected` responses (queue overflow).
    pub rejected: u64,
    /// Protocol/transport errors.
    pub errors: u64,
    /// Responses that disagreed with the local engine (verify mode).
    pub incorrect: u64,
    /// Wall-clock time of the run.
    pub wall: Duration,
    /// Completed (`ok`) requests per wall-clock second.
    pub qps: f64,
    /// Client-observed median latency.
    pub p50_ms: f64,
    /// Client-observed 99th-percentile latency.
    pub p99_ms: f64,
    /// The server's own cache hit rate, read via the `stats` op.
    pub server_cache_hit_rate: Option<f64>,
}

impl std::fmt::Display for LoadgenReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "sent {}  ok {} ({} cached)  expired {}  rejected {}  errors {}  incorrect {}",
            self.sent,
            self.ok,
            self.cached,
            self.expired,
            self.rejected,
            self.errors,
            self.incorrect
        )?;
        write!(
            f,
            "wall {:.2}s  qps {:.1}  p50 {:.2} ms  p99 {:.2} ms",
            self.wall.as_secs_f64(),
            self.qps,
            self.p50_ms,
            self.p99_ms
        )?;
        if let Some(rate) = self.server_cache_hit_rate {
            write!(f, "  server cache hit rate {:.1}%", rate * 100.0)?;
        }
        Ok(())
    }
}

struct ThreadTally {
    report: LoadgenReport,
    latencies_ms: Vec<f64>,
    /// Per-request JSON record lines, collected only when
    /// [`LoadgenConfig::latency_out`] is set.
    records: Vec<String>,
}

/// Formats one latency-record line: the client-side sequence number,
/// the server's echoed request id (absent when the server did not
/// attach one), terminal status, cached flag and client latency.
fn record_line(
    seq: usize,
    request_id: Option<u64>,
    status: &str,
    cached: bool,
    latency_ms: f64,
) -> String {
    use crate::json::{obj, Value};
    let mut members = vec![("seq", Value::Num(seq as f64))];
    if let Some(id) = request_id {
        members.push(("request_id", Value::Num(id as f64)));
    }
    members.push(("status", Value::Str(status.into())));
    members.push(("cached", Value::Bool(cached)));
    members.push(("latency_ms", Value::Num(latency_ms)));
    obj(members).to_json()
}

/// One city's slice of a multi-city workload: which city to address
/// on the wire (`None` = the server's default) and the dataset backing
/// it, from which the query pool and reference answers derive.
#[derive(Debug, Clone)]
pub struct CityWorkload {
    /// `city` member sent on each request; `None` omits it.
    pub city: Option<String>,
    /// The dataset the named city serves.
    pub dataset: Dataset,
}

/// A city workload with its pool and reference answers materialised.
struct PreparedWorkload {
    city: Option<String>,
    pool: Vec<Query>,
    expected: Option<Vec<Vec<QueryResult>>>,
}

/// Runs the closed-loop workload against `addr`. The dataset must be
/// the one the server is serving — it seeds the query pool and, with
/// `verify`, the local reference engine.
pub fn run_loadgen(
    addr: &str,
    dataset: &Dataset,
    cfg: &LoadgenConfig,
) -> std::io::Result<LoadgenReport> {
    run_loadgen_cities(
        addr,
        &[CityWorkload {
            city: None,
            dataset: dataset.clone(),
        }],
        cfg,
    )
}

/// Runs the closed-loop workload across several cities of one server.
/// Request `i` goes to city `i % workloads.len()` (round-robin), with
/// Zipf-skewed query reuse inside each city's own pool; with `verify`,
/// each city's responses are checked against a reference engine built
/// over *that city's* dataset.
pub fn run_loadgen_cities(
    addr: &str,
    workloads: &[CityWorkload],
    cfg: &LoadgenConfig,
) -> std::io::Result<LoadgenReport> {
    assert!(cfg.concurrency >= 1 && cfg.requests >= 1 && cfg.pool >= 1);
    assert!(!workloads.is_empty(), "at least one city workload");
    let prepared: Vec<PreparedWorkload> = workloads
        .iter()
        .map(|w| {
            let pool: Vec<Query> = generate_queries(
                &w.dataset,
                &QueryGenConfig {
                    query_points: cfg.query_points,
                    acts_per_point: cfg.acts_per_point,
                    diameter_km: None,
                    common_acts_only: false,
                    seed: cfg.seed,
                },
                cfg.pool,
            );
            // Reference answers, computed once per pool entry.
            let expected: Option<Vec<Vec<QueryResult>>> = cfg.verify.then(|| {
                let engine = GatEngine::build(&w.dataset).expect("reference engine build");
                pool.iter()
                    .map(|q| engine.atsq(&w.dataset, q, cfg.k))
                    .collect()
            });
            PreparedWorkload {
                city: w.city.clone(),
                pool,
                expected,
            }
        })
        .collect();
    let zipf = Zipf::new(cfg.pool, cfg.zipf_s);

    let issued = AtomicUsize::new(0);
    let failures: Mutex<Option<std::io::Error>> = Mutex::new(None);
    let t0 = Instant::now();
    let tallies: Vec<ThreadTally> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..cfg.concurrency)
            .map(|tid| {
                let prepared = &prepared;
                let zipf = &zipf;
                let issued = &issued;
                let failures = &failures;
                scope.spawn(move || {
                    match client_loop(addr, cfg, tid as u64, prepared, zipf, issued) {
                        Ok(tally) => tally,
                        Err(e) => {
                            *failures.lock() = Some(e);
                            ThreadTally {
                                report: LoadgenReport::default(),
                                latencies_ms: Vec::new(),
                                records: Vec::new(),
                            }
                        }
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    if let Some(e) = failures.lock().take() {
        return Err(e);
    }
    let wall = t0.elapsed();

    let mut report = LoadgenReport::default();
    let mut latencies: Vec<f64> = Vec::new();
    let mut records: Vec<String> = Vec::new();
    for t in tallies {
        report.sent += t.report.sent;
        report.ok += t.report.ok;
        report.cached += t.report.cached;
        report.expired += t.report.expired;
        report.rejected += t.report.rejected;
        report.errors += t.report.errors;
        report.incorrect += t.report.incorrect;
        latencies.extend(t.latencies_ms);
        records.extend(t.records);
    }
    if let Some(path) = &cfg.latency_out {
        records.sort_unstable_by_key(|line| {
            crate::json::parse(line)
                .ok()
                .and_then(|v| v.get("seq").and_then(crate::json::Value::as_usize))
                .unwrap_or(usize::MAX)
        });
        let mut body = records.join("\n");
        if !body.is_empty() {
            body.push('\n');
        }
        std::fs::write(path, body)?;
    }
    report.wall = wall;
    report.qps = report.ok as f64 / wall.as_secs_f64().max(1e-9);
    // total_cmp is a total order (NaN included); a partial_cmp
    // fallback would silently leave a NaN-bearing slice mis-sorted.
    latencies.sort_unstable_by(f64::total_cmp);
    // Nearest-rank percentiles — the same convention the server's
    // histogram stats use, so client and server numbers compare.
    report.p50_ms = percentile_sorted(&latencies, 0.50);
    report.p99_ms = percentile_sorted(&latencies, 0.99);
    report.server_cache_hit_rate = fetch_server_hit_rate(addr).ok();
    Ok(report)
}

fn client_loop(
    addr: &str,
    cfg: &LoadgenConfig,
    tid: u64,
    workloads: &[PreparedWorkload],
    zipf: &Zipf,
    issued: &AtomicUsize,
) -> std::io::Result<ThreadTally> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut stream = stream;
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ (0x9E37 + tid * 0x1000_0001));
    let mut tally = ThreadTally {
        report: LoadgenReport::default(),
        latencies_ms: Vec::new(),
        records: Vec::new(),
    };
    loop {
        // ordering: Relaxed — work-stealing ticket counter; atomicity
        // gives each client a distinct sequence number and nothing
        // else is published through it.
        let seq = issued.fetch_add(1, Ordering::Relaxed);
        if seq >= cfg.requests {
            break;
        }
        // Round-robin across cities; Zipf-skewed reuse within a city.
        let workload = &workloads[seq % workloads.len()];
        let qi = zipf.sample(&mut rng);
        let request = Request::Atsq {
            query: workload.pool[qi].clone(),
            k: cfg.k,
        };
        let line = encode_request_for_city(
            &request,
            cfg.deadline_ms.map(Duration::from_millis),
            workload.city.as_deref(),
        )
        .to_json();
        let sent_at = Instant::now();
        stream.write_all(line.as_bytes())?;
        stream.write_all(b"\n")?;
        let mut reply = String::new();
        if reader.read_line(&mut reply)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        tally.report.sent += 1;
        let latency_ms = sent_at.elapsed().as_secs_f64() * 1e3;
        let decoded = decode_server_reply_full(reply.trim());
        let (request_id, cached, status) = match &decoded {
            Ok((id, ServerReply::Ok { cached, .. })) => (*id, *cached, "ok"),
            Ok((id, ServerReply::Expired)) => (*id, false, "expired"),
            Ok((id, ServerReply::Rejected(_))) => (*id, false, "rejected"),
            Ok((id, ServerReply::Error(_))) => (*id, false, "error"),
            Err(_) => (None, false, "error"),
        };
        match decoded {
            Ok((_, ServerReply::Ok { results, cached: c })) => {
                tally.report.ok += 1;
                if c {
                    tally.report.cached += 1;
                }
                tally.latencies_ms.push(latency_ms);
                if let Some(expected) = &workload.expected {
                    if !results_match(&results, &expected[qi]) {
                        tally.report.incorrect += 1;
                    }
                }
            }
            Ok((_, ServerReply::Expired)) => tally.report.expired += 1,
            Ok((_, ServerReply::Rejected(_))) => tally.report.rejected += 1,
            Ok((_, ServerReply::Error(_))) | Err(_) => tally.report.errors += 1,
        }
        if cfg.latency_out.is_some() {
            tally
                .records
                .push(record_line(seq, request_id, status, cached, latency_ms));
        }
    }
    Ok(tally)
}

fn results_match(got: &[QueryResult], want: &[QueryResult]) -> bool {
    got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(g, w)| g.trajectory == w.trajectory && (g.distance - w.distance).abs() < 1e-9)
}

fn fetch_server_hit_rate(addr: &str) -> std::io::Result<f64> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    stream.write_all(b"{\"op\":\"stats\"}\n")?;
    let mut reply = String::new();
    reader.read_line(&mut reply)?;
    crate::json::parse(reply.trim())
        .ok()
        .and_then(|v| v.get("cache_hit_rate").and_then(crate::json::Value::as_f64))
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "bad stats reply"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::Server;
    use crate::service::{Service, ServiceConfig};
    use atsq_datagen::{generate, CityConfig};

    /// The acceptance-criteria scenario in miniature: loadgen at
    /// concurrency 8 against a generated city, all responses verified
    /// against the direct engine, zero incorrect.
    #[test]
    fn closed_loop_run_is_correct_and_hits_cache() {
        let dataset = generate(&CityConfig::tiny(42)).unwrap();
        let service = Service::build(
            dataset.clone(),
            ServiceConfig {
                workers: 4,
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
                concurrency: 8,
                requests: 300,
                pool: 20,
                k: 5,
                verify: true,
                ..LoadgenConfig::default()
            },
        )
        .unwrap();

        assert_eq!(report.sent, 300);
        assert_eq!(report.ok, 300);
        assert_eq!(report.incorrect, 0, "{report}");
        assert_eq!(report.errors, 0, "{report}");
        // 300 Zipf-skewed draws over 20 queries must repeat.
        assert!(report.cached > 0, "{report}");
        assert!(report.qps > 0.0);
        assert!(report.p50_ms <= report.p99_ms);
        assert!(report.server_cache_hit_rate.unwrap() > 0.0, "{report}");

        server.stop();
        service.shutdown();
    }

    /// `latency_out` writes one parseable record per request, in
    /// sequence order, each carrying a distinct server request id.
    #[test]
    fn latency_out_writes_per_request_records() {
        let dataset = generate(&CityConfig::tiny(7)).unwrap();
        let service = Service::build(
            dataset.clone(),
            ServiceConfig {
                workers: 2,
                ..ServiceConfig::default()
            },
        )
        .unwrap();
        let server = Server::bind(service.handle(), "127.0.0.1:0").unwrap();
        let addr = server.local_addr().to_string();
        let path =
            std::env::temp_dir().join(format!("atsq-latency-test-{}.jsonl", std::process::id()));

        let report = run_loadgen(
            &addr,
            &dataset,
            &LoadgenConfig {
                concurrency: 2,
                requests: 40,
                pool: 5,
                k: 3,
                latency_out: Some(path.clone()),
                ..LoadgenConfig::default()
            },
        )
        .unwrap();

        let body = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        let lines: Vec<&str> = body.lines().collect();
        assert_eq!(lines.len() as u64, report.sent);
        let mut ids = std::collections::HashSet::new();
        for (i, line) in lines.iter().enumerate() {
            let v = crate::json::parse(line).unwrap();
            assert_eq!(
                v.get("seq").and_then(crate::json::Value::as_usize),
                Some(i),
                "records are merged in sequence order"
            );
            assert_eq!(
                v.get("status").and_then(crate::json::Value::as_str),
                Some("ok")
            );
            let id = v
                .get("request_id")
                .and_then(crate::json::Value::as_f64)
                .expect("ok records carry the server's request id") as u64;
            assert!(ids.insert(id), "request ids are unique");
            assert!(
                v.get("latency_ms")
                    .and_then(crate::json::Value::as_f64)
                    .unwrap()
                    >= 0.0
            );
        }

        server.stop();
        service.shutdown();
    }

    /// Round-robin across two cities of one server, every response
    /// verified against each city's own reference engine.
    #[test]
    fn multi_city_round_robin_verifies_per_city() {
        use atsq_core::{Engine, Partition};
        use atsq_tenant::{CityId, CityRegistry, LoadedCity};
        use std::sync::Arc;

        let datasets: Vec<_> = (0..2u64)
            .map(|i| generate(&CityConfig::tiny(60 + i)).unwrap())
            .collect();
        let registry = Arc::new(CityRegistry::new(CityId::new("a").unwrap(), None));
        for (name, dataset) in ["a", "b"].iter().zip(&datasets) {
            let dataset = dataset.clone();
            registry
                .add_city(
                    CityId::new(*name).unwrap(),
                    Arc::new(move || {
                        let (engine, _) = Engine::build_gat(&dataset, 1, Partition::Hash, None)
                            .map_err(|e| e.to_string())?;
                        Ok(LoadedCity {
                            dataset: Arc::new(dataset.clone()),
                            engine: Arc::new(engine),
                            loaded_from_snapshot: false,
                        })
                    }),
                )
                .unwrap();
        }
        let service = Service::start_registry(
            registry,
            ServiceConfig {
                workers: 2,
                ..ServiceConfig::default()
            },
        );
        let server = Server::bind(service.handle(), "127.0.0.1:0").unwrap();
        let addr = server.local_addr().to_string();

        let workloads: Vec<CityWorkload> = ["a", "b"]
            .iter()
            .zip(&datasets)
            .map(|(name, dataset)| CityWorkload {
                city: Some((*name).to_owned()),
                dataset: dataset.clone(),
            })
            .collect();
        let report = run_loadgen_cities(
            &addr,
            &workloads,
            &LoadgenConfig {
                concurrency: 4,
                requests: 80,
                pool: 10,
                k: 5,
                verify: true,
                ..LoadgenConfig::default()
            },
        )
        .unwrap();
        assert_eq!(report.sent, 80);
        assert_eq!(report.ok, 80, "{report}");
        assert_eq!(report.incorrect, 0, "{report}");
        assert_eq!(report.errors, 0, "{report}");
        // Round-robin split the traffic evenly across both cities.
        let infos = service.handle().cities();
        for info in &infos {
            assert_eq!(info.queries, 40, "{info:?}");
        }

        server.stop();
        service.shutdown();
    }
}
