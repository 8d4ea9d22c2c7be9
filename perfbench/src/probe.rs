//! Direct calls into single layers, each inside a span: dataset read
//! and index build, `wire::decode_client_line`, the served GAT engine
//! and the IL baseline through `QueryEngine`, `wire::encode_response`,
//! and a four-shard `ShardedEngine` over the same data. Run only by the
//! traced run, after the served phases.

use crate::inputs::{read_dataset, same_answer, Inputs, Op};
use crate::report::{mean, percentile, ratio, Report};
use crate::trace::Tracer;
use atsq_core::{Engine, EngineCounters, Partition, Profiled, QueryEngine};
use atsq_obs::{CounterScope, CounterSink};
use atsq_service::wire::{self, ClientMessage};
use atsq_service::{Request, Response};
use std::sync::Arc;
use std::time::Instant;

/// Distinct requests probed per run.
const PROBE_ITEMS: usize = 96;
/// Of those, requests also sent to the sharded engine.
const SHARDED_ITEMS: usize = 32;
/// Shards of the probed sharded engine.
const SHARDS: usize = 4;
/// Probe spans get ids above every served request's.
const PROBE_ID_BASE: u64 = 1 << 40;

fn engine_span(op: Op) -> &'static str {
    match op {
        Op::Atsq => "QueryEngine::atsq",
        Op::Oatsq => "QueryEngine::oatsq",
        Op::AtsqRange => "QueryEngine::atsq_range",
        Op::OatsqRange => "QueryEngine::oatsq_range",
    }
}

fn il_span(op: Op) -> &'static str {
    match op {
        Op::Atsq => "IlEngine::atsq",
        Op::Oatsq => "IlEngine::oatsq",
        Op::AtsqRange => "IlEngine::atsq_range",
        Op::OatsqRange => "IlEngine::oatsq_range",
    }
}

fn call(
    engine: &impl QueryEngine,
    ds: &atsq_types::Dataset,
    request: &Request,
) -> Vec<atsq_types::QueryResult> {
    match request {
        Request::Atsq { query, k } => engine.atsq(ds, query, *k),
        Request::Oatsq { query, k } => engine.oatsq(ds, query, *k),
        Request::AtsqRange { query, tau } => engine.atsq_range(ds, query, *tau),
        Request::OatsqRange { query, tau } => engine.oatsq_range(ds, query, *tau),
    }
}

/// `a - b`, field by field.
fn counters_minus(a: EngineCounters, b: EngineCounters) -> EngineCounters {
    EngineCounters {
        candidates: a.candidates - b.candidates,
        distance_evals: a.distance_evals - b.distance_evals,
        tas_pruned: a.tas_pruned - b.tas_pruned,
        tas_false_positives: a.tas_false_positives - b.tas_false_positives,
        apl_reads: a.apl_reads - b.apl_reads,
        cold_reads: a.cold_reads - b.cold_reads,
    }
}

/// Probes every layer below the service with the run's first distinct
/// requests and reports the setup, wire, engine and IL metrics.
pub fn run(report: &mut Report, tracer: &mut Tracer, inputs: &Inputs) -> Result<(), String> {
    let t0 = Instant::now();
    let (dataset, read_s) = read_dataset(&inputs.data_path)?;
    tracer.record(PROBE_ID_BASE, "atsq_io::read_dataset", t0, Instant::now());
    let t1 = Instant::now();
    let (engine, _) =
        Engine::build_gat(&dataset, 1, Partition::Hash, None).map_err(|e| e.to_string())?;
    let build_s = t1.elapsed().as_secs_f64();
    tracer.record(PROBE_ID_BASE, "Engine::build_gat", t1, Instant::now());
    report.metric("setup.dataset_read_s", read_s, 1);
    report.metric("setup.index_build_s", build_s, 1);
    report.metric(
        "setup.index_mb",
        engine.approx_resident_bytes() as f64 / 1048576.0,
        1,
    );

    // One cycle of the sequence holds every item once.
    let picks: Vec<usize> = inputs.sequence.iter().copied().take(PROBE_ITEMS).collect();
    let before = engine.counters();
    let mut per_query = Vec::new();
    let mut results = Vec::new();
    let mut il_candidates = Vec::new();
    let mut reply_bytes = Vec::new();
    for &i in &picks {
        let item = &inputs.items[i];
        let id = PROBE_ID_BASE + 1 + i as u64;
        let decoded = tracer.time(id, "wire::decode_client_line", || {
            wire::decode_client_line(item.line.trim_end(), &dataset)
        });
        if decoded != Ok(ClientMessage::Query(item.request.clone(), None)) {
            report.problem(format!("wire decode changed request {i}: {decoded:?}"));
        }
        let sink = CounterSink::new();
        let got = tracer.time(id, engine_span(item.op), || {
            let _scope = CounterScope::enter(sink.clone());
            call(&engine, &dataset, &item.request)
        });
        per_query.push(EngineCounters::from(sink.counters()));
        if !same_answer(&got, &item.expect) {
            report.problem(format!(
                "direct {} call differs from IL on request {i}",
                engine.name()
            ));
        }
        results.push(got.len() as f64);
        let fetches = inputs.il.fetches();
        tracer.time(id, il_span(item.op), || {
            call(&inputs.il, &inputs.dataset, &item.request)
        });
        il_candidates.push((inputs.il.fetches() - fetches) as f64);
        let response = Response::Ok {
            results: Arc::new(got),
            cached: false,
        };
        let line = tracer.time(id, "wire::encode_response", || {
            wire::encode_response(&response, Some(id)).to_json()
        });
        reply_bytes.push(line.len() as f64 + 1.0);
    }
    let total = EngineCounters::sum(per_query.iter().copied());
    let delta = counters_minus(engine.counters(), before);
    if total != delta {
        report.problem(format!(
            "per-query counters {total:?} do not sum to the engine's {delta:?}"
        ));
    }

    let n = picks.len();
    let us = |name: &str| percentile(tracer.durations_ms(name), 0.5) * 1e3;
    report.metric("wire.decode_us", us("wire::decode_client_line"), n);
    report.metric("wire.encode_us", us("wire::encode_response"), n);
    report.metric("wire.reply_bytes", mean(&reply_bytes), n);

    let op_ms = |names: &[&str]| {
        let ms: Vec<f64> = names.iter().flat_map(|s| tracer.durations_ms(s)).collect();
        (percentile(ms.clone(), 0.5), ms.len())
    };
    let (gat_atsq, n_atsq) = op_ms(&["QueryEngine::atsq"]);
    let (gat_oatsq, n_oatsq) = op_ms(&["QueryEngine::oatsq"]);
    let (gat_range, n_range) = op_ms(&["QueryEngine::atsq_range", "QueryEngine::oatsq_range"]);
    let (il_atsq, _) = op_ms(&["IlEngine::atsq"]);
    let (il_oatsq, _) = op_ms(&["IlEngine::oatsq"]);
    report.metric("gat.atsq_ms", gat_atsq, n_atsq);
    report.metric("gat.oatsq_ms", gat_oatsq, n_oatsq);
    report.metric("gat.range_ms", gat_range, n_range);
    report.metric("il.atsq_ms", il_atsq, n_atsq);
    report.metric("il.oatsq_ms", il_oatsq, n_oatsq);
    report.metric("il.candidates", mean(&il_candidates), n);
    report.metric("gat_il.atsq_ratio", ratio(gat_atsq, il_atsq), n_atsq);
    report.metric("gat_il.oatsq_ratio", ratio(gat_oatsq, il_oatsq), n_oatsq);
    eprintln!(
        "perfbench: in-run {}/IL p50 ratio: atsq {:.3} ({gat_atsq:.3} / {il_atsq:.3} ms), oatsq {:.3} ({gat_oatsq:.3} / {il_oatsq:.3} ms)",
        engine.name(),
        ratio(gat_atsq, il_atsq),
        ratio(gat_oatsq, il_oatsq),
    );

    let per = |x: u64| ratio(x as f64, n as f64);
    report.metric("gat.candidates", per(total.candidates), n);
    report.metric("gat.tas_pruned", per(total.tas_pruned), n);
    report.metric("gat.tas_false_positives", per(total.tas_false_positives), n);
    report.metric("gat.apl_reads", per(total.apl_reads), n);
    report.metric("gat.distance_evals", per(total.distance_evals), n);
    report.metric("gat.cold_reads", per(total.cold_reads), n);
    report.metric("gat.results", mean(&results), n);
    let confirmed = total.apl_reads - total.tas_false_positives;
    report.metric(
        "gat.apl_yield",
        ratio(confirmed as f64, total.apl_reads as f64),
        n,
    );
    report.metric(
        "gat.candidate_yield",
        ratio(total.distance_evals as f64, total.candidates as f64),
        n,
    );
    sharded(
        report,
        tracer,
        inputs,
        &dataset,
        &picks[..n.min(SHARDED_ITEMS)],
    )
}

/// The same requests on a hash-partitioned four-shard engine: router
/// busy time, per-query shard busy times, candidate balance.
fn sharded(
    report: &mut Report,
    tracer: &mut Tracer,
    inputs: &Inputs,
    dataset: &atsq_types::Dataset,
    picks: &[usize],
) -> Result<(), String> {
    let (engine, _) =
        Engine::build_gat(dataset, SHARDS, Partition::Hash, None).map_err(|e| e.to_string())?;
    let router_before = engine.router_busy_ns().unwrap_or(0);
    let before: Vec<u64> = engine
        .per_shard_counters()
        .iter()
        .map(|c| c.candidates)
        .collect();
    let mut critical = Vec::new();
    let mut sum = Vec::new();
    for &i in picks {
        let item = &inputs.items[i];
        let sink = CounterSink::new();
        let got = tracer.time(PROBE_ID_BASE + 1 + i as u64, "ShardedEngine::query", || {
            let _scope = CounterScope::enter(sink.clone());
            call(&engine, dataset, &item.request)
        });
        if !same_answer(&got, &item.expect) {
            report.problem(format!("sharded engine differs from IL on request {i}"));
        }
        let busy: Vec<f64> = sink
            .shard_busy_ns()
            .iter()
            .map(|&ns| ns as f64 / 1e6)
            .collect();
        critical.push(busy.iter().copied().fold(0.0, f64::max));
        sum.push(busy.iter().sum());
    }
    let n = picks.len();
    let router_ns = engine.router_busy_ns().unwrap_or(0) - router_before;
    let candidates: Vec<f64> = engine
        .per_shard_counters()
        .iter()
        .zip(&before)
        .map(|(c, b)| (c.candidates - b) as f64)
        .collect();
    let max = candidates.iter().copied().fold(0.0, f64::max);
    report.metric(
        "sharded.router_ms",
        ratio(router_ns as f64 / 1e6, n as f64),
        n,
    );
    report.metric("sharded.shard_critical_ms", percentile(critical, 0.5), n);
    report.metric("sharded.shard_sum_ms", percentile(sum, 0.5), n);
    report.metric(
        "sharded.candidate_imbalance",
        ratio(max, mean(&candidates)),
        n,
    );
    Ok(())
}
