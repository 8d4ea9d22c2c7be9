//! Lock-order checker integration tests.
//!
//! The parking_lot shim records every held→acquired lock edge in a
//! global acquisition graph and panics *before blocking* when a new
//! edge closes a cycle (`shims/parking_lot/src/order.rs`). Two things
//! must hold:
//!
//! 1. a deliberately seeded inversion is caught, with both locks named
//!    in the panic message, and
//! 2. the real service path — serve over TCP, drive with the load
//!    generator, scrape metrics and the slow-query log — runs clean
//!    with the checker on.
//!
//! The checker is enabled in debug builds and whenever
//! `ATSQ_LOCK_ORDER=1` (CI runs this test with the variable set, so
//! release runs are covered too); tests no-op when it is off.

use atsq_datagen::{generate, CityConfig};
use atsq_service::{run_loadgen, LoadgenConfig, Server, Service, ServiceConfig};
use parking_lot::{checking_enabled, Mutex};
use std::sync::Arc;

/// Acquiring A→B on one thread and B→A on another must panic at the
/// second thread's inner acquisition, naming both locks, instead of
/// deadlocking.
#[test]
fn seeded_inversion_panics_with_both_lock_names() {
    if !checking_enabled() {
        eprintln!("lock-order checker disabled; skipping");
        return;
    }
    let outer = Arc::new(Mutex::new(0u32));
    let inner = Arc::new(Mutex::new(0u32));
    outer.set_name("inversion.outer");
    inner.set_name("inversion.inner");

    // Establish the legal order outer → inner.
    {
        let _o = outer.lock();
        let _i = inner.lock();
    }

    // Now close the cycle on a separate thread: inner → outer.
    let result = std::thread::Builder::new()
        .name("inverted-acquirer".into())
        .spawn({
            let outer = Arc::clone(&outer);
            let inner = Arc::clone(&inner);
            move || {
                let _i = inner.lock();
                let _o = outer.lock(); // must panic, not deadlock
            }
        })
        .expect("spawn")
        .join();

    let payload = result.expect_err("inversion must panic");
    let msg = payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .expect("panic payload is a string");
    assert!(
        msg.contains("lock-order inversion"),
        "unexpected panic message: {msg}"
    );
    assert!(
        msg.contains("inversion.outer") && msg.contains("inversion.inner"),
        "panic must name both locks: {msg}"
    );
}

/// The full service path holds no conflicting lock orders: serve a
/// dataset over TCP, hammer it with the closed-loop load generator,
/// then exercise the stats, Prometheus metrics and slow-query-log
/// surfaces — all with the checker recording every acquisition.
#[test]
fn service_path_is_inversion_free_under_checker() {
    if !checking_enabled() {
        eprintln!("lock-order checker disabled; skipping");
        return;
    }
    let dataset = generate(&CityConfig::tiny(41)).unwrap();
    let service = Service::build(
        dataset.clone(),
        ServiceConfig {
            workers: 3,
            cache_capacity: 32,
            slowlog_capacity: 16,
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
            concurrency: 4,
            requests: 120,
            pool: 12,
            k: 5,
            ..LoadgenConfig::default()
        },
    )
    .unwrap();
    assert_eq!(report.errors, 0, "{report}");
    assert!(report.ok > 0, "{report}");

    // The observability surfaces take the same locks from a scraper
    // thread — walk them all while workers are still alive.
    let handle = service.handle();
    let stats = handle.stats();
    assert!(stats.completed > 0);
    let metrics = handle.metrics_text();
    assert!(metrics.contains("atsq_"), "metrics surface: {metrics}");
    let _entries = handle.slowlog();

    server.stop();
    service.shutdown();
}
