//! `perfbench` — the serving benchmark of the atsq stack.
//!
//! One invocation runs one workload for a fixed time against a fresh
//! server and prints, as its last stdout line, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`; the line before it
//! carries provenance and the sample count of every metric.
//!
//! * `--trace 0` — end-to-end metrics, with the program's tracing off.
//! * `--trace 1` — the separate traced run: the same traffic split
//!   into an untraced and a traced half, then direct calls into each
//!   layer, each timed from outside; it reports the per-layer metrics.
//!
//! Every answer, of every op, is compared with the IL baseline's
//! answer, computed before timing starts. Any difference, rejection,
//! expiry or transport error fails the run (exit code 1).
//!
//! Every workload drives the shipped `atsq serve`, its result cache
//! off, over loopback TCP with two closed-loop client connections. `run.py` next to this
//! crate builds `atsq` and this binary and passes their paths; run it
//! rather than this binary directly.

mod inputs;
mod probe;
mod report;
mod tcp;
mod trace;

use atsq_obs::{Stage, STAGES};
use atsq_service::json::{parse, Value};
use atsq_service::wire::{decode_server_reply_full, ServerReply};
use inputs::{same_answer, Inputs, Item, Op};
use report::{percentile, ratio, Report, END_TO_END, PER_LAYER};
use std::collections::HashMap;
use std::path::PathBuf;
use std::time::Instant;
use tcp::{closed_loop, Conn, LoopRun, Sample, ServerProc};
use trace::Tracer;

pub struct Workload {
    pub name: &'static str,
    /// `CityConfig::ny_like` scale.
    pub scale: f64,
    /// Queries ask for the trajectory's popular categories rather
    /// than the visited venues' own tags.
    pub popular: bool,
    /// Distinct queries, each sent as all four ops.
    pub pool: usize,
}

const WORKLOADS: &[Workload] = &[
    Workload {
        name: "venue-cold",
        scale: 0.1,
        popular: false,
        pool: 64,
    },
    Workload {
        name: "popular-cold",
        scale: 0.1,
        popular: true,
        pool: 64,
    },
];

/// Fresh starts per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Untimed traffic after start, before the timed phase.
const WARMUP_S: f64 = 1.0;
/// Client connections of the closed loops.
const CONNS: usize = 2;
/// Slow-log ring of the traced server: every traced request is kept,
/// up to this many.
const SLOWLOG_CAPACITY: &str = "16384";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    atsq: PathBuf,
    work: PathBuf,
    rev: String,
    tiny: bool,
}

const USAGE: &str = "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 \
                     --atsq PATH --work DIR [--rev REV] [--city ny|tiny]";

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut flags: HashMap<&str, &str> = HashMap::new();
    for pair in argv.chunks(2) {
        match pair {
            [name, value] if name.starts_with("--") => {
                flags.insert(&name[2..], value);
            }
            _ => return Err(format!("unexpected argument `{}`", pair[0])),
        }
    }
    let get = |name: &str| {
        flags
            .get(name)
            .copied()
            .ok_or_else(|| format!("--{name} is required"))
    };
    let num = |name: &str| -> Result<f64, String> {
        get(name)?
            .parse()
            .map_err(|_| format!("--{name} needs a number"))
    };
    Ok(Args {
        workload: get("workload")?.to_owned(),
        seed: get("seed")?
            .parse()
            .map_err(|_| "--seed needs an integer")?,
        seconds: num("seconds")?,
        trace: match get("trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got `{other}`")),
        },
        atsq: get("atsq")?.into(),
        work: get("work")?.into(),
        rev: flags.get("rev").copied().unwrap_or("unknown").to_owned(),
        tiny: match flags.get("city").copied().unwrap_or("ny") {
            "ny" => false,
            "tiny" => true,
            other => return Err(format!("--city must be ny or tiny, got `{other}`")),
        },
    })
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}\n{USAGE}");
        std::process::exit(2)
    });
    let code = match run(&args) {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(e) => {
            eprintln!("perfbench: {e}");
            1
        }
    };
    std::process::exit(code)
}

fn run(args: &Args) -> Result<bool, String> {
    let workload = WORKLOADS
        .iter()
        .find(|w| w.name == args.workload)
        .ok_or_else(|| format!("unknown workload `{}`", args.workload))?;
    std::fs::create_dir_all(&args.work).map_err(|e| e.to_string())?;
    let inputs = Inputs::build(workload, args.seed, args.tiny, &args.work)?;
    let mut report = Report::default();
    report.provenance = vec![
        ("workload", Value::Str(workload.name.into())),
        ("rev", Value::Str(args.rev.clone())),
        ("nproc", Value::Num(nproc() as f64)),
        ("city", Value::Str(inputs.city.clone())),
        ("scale", Value::Num(inputs.scale)),
        ("trajectories", Value::Num(inputs.dataset.len() as f64)),
        (
            "content_hash",
            Value::Str(format!("{:016x}", inputs.dataset.content_hash())),
        ),
        ("seed", Value::Num(args.seed as f64)),
        ("seconds", Value::Num(args.seconds)),
        ("trace", Value::Bool(args.trace)),
        ("distinct_requests", Value::Num(inputs.items.len() as f64)),
    ];
    if args.trace {
        let mut tracer = Tracer::new(Instant::now());
        tcp_traced(args, &inputs, &mut report, &mut tracer)?;
        probe::run(&mut report, &mut tracer, &inputs)?;
        let path = args
            .work
            .join(format!("trace-{}-{}.jsonl", workload.name, args.seed));
        tracer.write(&path).map_err(|e| e.to_string())?;
        report
            .provenance
            .push(("spans", Value::Num(tracer.spans.len() as f64)));
    } else {
        tcp_end_to_end(args, &inputs, &mut report)?;
    }
    Ok(report.print(if args.trace { PER_LAYER } else { END_TO_END }))
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn warmup_s(args: &Args) -> f64 {
    WARMUP_S.min(args.seconds / 4.0)
}

/// Checks one server reply line against the IL answer.
fn check_reply(reply: &Result<String, String>, item: &Item) -> Result<u64, String> {
    let line = reply.as_ref()?;
    match decode_server_reply_full(line).map_err(|e| e.to_string())? {
        (id, ServerReply::Ok { results, .. }) if same_answer(&results, &item.expect) => {
            Ok(id.unwrap_or(0))
        }
        (_, ServerReply::Ok { .. }) => Err("answer differs from IL".into()),
        (_, other) => Err(format!("{other:?}")),
    }
}

/// Latencies of answered requests, in ms, with their op.
#[derive(Default)]
struct Served {
    latency_ms: Vec<(Op, f64)>,
    wall_s: f64,
}

impl Served {
    fn qps(&self) -> f64 {
        ratio(self.latency_ms.len() as f64, self.wall_s)
    }
}

/// Counts a request as attempted, and as failed when `outcome` is an
/// error; a run with any failure is not correct.
fn tally<T>(report: &mut Report, outcome: Result<T, String>) -> Option<T> {
    report.attempted += 1;
    match outcome {
        Ok(v) => Some(v),
        Err(e) => {
            report.failed += 1;
            if report.failed <= 5 {
                eprintln!("perfbench: request failed: {e}");
            }
            None
        }
    }
}

/// Checks every reply of a closed loop; returns the answered requests
/// with their server-assigned ids.
fn check_loop<'a>(
    report: &mut Report,
    inputs: &Inputs,
    run: &'a LoopRun,
) -> (Served, Vec<(u64, &'a Sample)>) {
    let mut served = Served {
        wall_s: run.wall_s,
        ..Served::default()
    };
    let mut ids = Vec::new();
    for s in &run.samples {
        let item = &inputs.items[s.item];
        if let Some(id) = tally(report, check_reply(&s.reply, item)) {
            served.latency_ms.push((item.op, s.ms()));
            ids.push((id, s));
        }
    }
    (served, ids)
}

fn end_to_end(report: &mut Report, setups: Vec<f64>, served: &Served, rss_mb: f64) {
    report.metric("setup_s", percentile(setups.clone(), 0.5), setups.len());
    let n = served.latency_ms.len();
    report.metric("throughput_qps", served.qps(), n);
    // Medians per op only: on popular queries OATSQ costs about five
    // times ATSQ, so the median of all ops together falls in the gap
    // between them and swings with every run.
    let all: Vec<f64> = served.latency_ms.iter().map(|&(_, ms)| ms).collect();
    report.metric("latency_p90_ms", percentile(all, 0.9), n);
    for (name, op) in [
        ("atsq_p50_ms", Op::Atsq),
        ("oatsq_p50_ms", Op::Oatsq),
        ("atsq_range_p50_ms", Op::AtsqRange),
        ("oatsq_range_p50_ms", Op::OatsqRange),
    ] {
        let ms: Vec<f64> = served
            .latency_ms
            .iter()
            .filter(|&&(o, _)| o == op)
            .map(|&(_, ms)| ms)
            .collect();
        let count = ms.len();
        report.metric(name, percentile(ms, 0.5), count);
    }
    report.metric("server_rss_mb", rss_mb, 1);
}

/// Server flags: the result cache off, so every request reaches the
/// engine, and tracing off unless the run is traced.
fn tcp_flags(traced: bool) -> Vec<&'static str> {
    let mut flags = vec!["--cache", "0"];
    if traced {
        // Every traced request lands in the slow log, the only place
        // the server exposes per-request stage timings.
        flags.extend(["--slowlog-ms", "0", "--slowlog-capacity", SLOWLOG_CAPACITY]);
    } else {
        flags.push("--no-tracing");
    }
    flags
}

/// A fresh `atsq serve` measured from `starts` launches (all but the
/// last killed after their first answer), warmed up, then driven by
/// the closed loop for `seconds`.
struct TcpPhase {
    server: ServerProc,
    conns: Vec<Conn>,
    setup_s: Vec<f64>,
    run: LoopRun,
}

fn tcp_phase(
    args: &Args,
    inputs: &Inputs,
    report: &mut Report,
    flags: &[&str],
    starts: usize,
    seconds: f64,
) -> Result<TcpPhase, String> {
    let first = &inputs.items[inputs.sequence[0]];
    let mut setup_s = Vec::new();
    let mut started = None;
    for _ in 0..starts {
        drop(started.take()); // kill the previous server first
        let t0 = Instant::now();
        let server = ServerProc::launch(&args.atsq, &inputs.data_path, flags)?;
        let mut conn = Conn::open(&server.addr)?;
        let reply = conn.call(&first.line).map(str::to_owned);
        setup_s.push(t0.elapsed().as_secs_f64());
        tally(report, check_reply(&reply, first));
        started = Some((server, conn));
    }
    let (server, conn) = started.expect("at least one start");
    let mut conns = vec![conn];
    for _ in 1..CONNS {
        conns.push(Conn::open(&server.addr)?);
    }
    let warm = closed_loop(
        &mut conns,
        &inputs.items,
        &inputs.sequence,
        1,
        warmup_s(args),
    );
    check_loop(report, inputs, &warm);
    let run = closed_loop(
        &mut conns,
        &inputs.items,
        &inputs.sequence,
        warm.next,
        seconds,
    );
    Ok(TcpPhase {
        server,
        conns,
        setup_s,
        run,
    })
}

fn tcp_end_to_end(args: &Args, inputs: &Inputs, report: &mut Report) -> Result<(), String> {
    let flags = tcp_flags(false);
    let phase = tcp_phase(args, inputs, report, &flags, SETUPS, args.seconds)?;
    let rss = phase.server.peak_rss_mb()?;
    drop(phase.conns);
    drop(phase.server);
    let (served, _) = check_loop(report, inputs, &phase.run);
    end_to_end(report, phase.setup_s, &served, rss);
    Ok(())
}

/// One request's stage breakdown as the service traced it.
struct StageTrace {
    total_ms: f64,
    stages_ms: [f64; STAGES],
}

impl StageTrace {
    fn stage(&self, stage: Stage) -> f64 {
        self.stages_ms[stage as usize]
    }
}

fn num(v: &Value, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("missing `{key}`"))
}

/// Splits a `slowlog` reply into its entries' JSON texts. Entries are
/// parsed one at a time: the wire parser copies each string character
/// after re-validating the rest of its input, so one multi-megabyte
/// parse would take minutes.
fn slowlog_entries(reply: &str) -> Result<Vec<String>, String> {
    const START: &str = "{\"request_id\":";
    let body = reply
        .split_once("\"entries\":[")
        .and_then(|(_, rest)| rest.strip_suffix("]}"))
        .ok_or("malformed slowlog reply")?;
    if body.is_empty() {
        return Ok(Vec::new());
    }
    let body = body.strip_prefix(START).ok_or("malformed slowlog entry")?;
    Ok(body
        .split(&format!(",{START}"))
        .map(|entry| format!("{START}{entry}"))
        .collect())
}

fn slowlog_traces(reply: &str) -> Result<HashMap<u64, StageTrace>, String> {
    slowlog_entries(reply)?
        .iter()
        .map(|text| {
            let e = parse(text).map_err(|e| format!("slowlog entry: {e}"))?;
            let stages = e.get("stages").ok_or("entry has no stages")?;
            let mut stages_ms = [0.0; STAGES];
            for stage in Stage::ALL {
                stages_ms[stage as usize] = num(stages, stage.name())?;
            }
            let trace = StageTrace {
                total_ms: num(&e, "total_ms")?,
                stages_ms,
            };
            Ok((num(&e, "request_id")? as u64, trace))
        })
        .collect()
}

/// Service-level counters of one traced phase.
struct ServiceCounts {
    hit_rate: f64,
    batch_size: f64,
    coalesced_share: f64,
}

/// Reports the service, cache and server metrics of a traced phase.
/// `traces` pairs each request's stage breakdown with its latency as
/// the client saw it, in ms.
fn service_layers(report: &mut Report, traces: &[(StageTrace, f64)], counts: &ServiceCounts) {
    let n = traces.len();
    if let Some((t, _)) = traces
        .iter()
        .find(|(t, _)| (t.stages_ms.iter().sum::<f64>() - t.total_ms).abs() > 1e-6)
    {
        report.problem(format!(
            "stage spans {:?} ms do not sum to the trace total {} ms",
            t.stages_ms, t.total_ms
        ));
    }
    let outside = traces
        .iter()
        .map(|(t, ms)| (ms - t.total_ms) * 1e3)
        .collect();
    report.metric("server.outside_us", percentile(outside, 0.5), n);
    for (name, stage, scale) in [
        ("cache.stage_us", Stage::Cache, 1e3),
        ("service.admission_us", Stage::Admission, 1e3),
        ("service.queue_ms", Stage::Queue, 1.0),
        ("service.assembly_ms", Stage::Assembly, 1.0),
        ("service.reply_us", Stage::Reply, 1e3),
    ] {
        let v = traces.iter().map(|(t, _)| t.stage(stage) * scale).collect();
        report.metric(name, percentile(v, 0.5), n);
    }
    // Cache hits never reach the engine.
    let engine: Vec<f64> = traces
        .iter()
        .map(|(t, _)| t.stage(Stage::Engine))
        .filter(|&ms| ms > 0.0)
        .collect();
    let executed = engine.len();
    report.metric("engine.stage_ms", percentile(engine, 0.5), executed);
    report.metric("cache.hit_rate", counts.hit_rate, n);
    report.metric("service.batch_size", counts.batch_size, n);
    report.metric("service.coalesced_share", counts.coalesced_share, n);
}

/// The traced TCP run: an untraced and a traced half on fresh servers,
/// then the traced server's slow log and stats.
fn tcp_traced(
    args: &Args,
    inputs: &Inputs,
    report: &mut Report,
    tracer: &mut Tracer,
) -> Result<(), String> {
    let half = args.seconds / 2.0;
    let plain = tcp_phase(args, inputs, report, &tcp_flags(false), 1, half)?;
    drop(plain.conns);
    drop(plain.server);
    let (untraced, _) = check_loop(report, inputs, &plain.run);

    let mut phase = tcp_phase(args, inputs, report, &tcp_flags(true), 1, half)?;
    let slowlog = phase.conns[0].call("{\"op\":\"slowlog\"}\n")?.to_owned();
    let stats = phase.conns[0].control("stats")?;
    drop(phase.conns);
    drop(phase.server);
    let (traced, ids) = check_loop(report, inputs, &phase.run);
    for &(id, s) in &ids {
        tracer.record(id, "client.round_trip", s.start, s.end);
    }
    let mut by_id = slowlog_traces(&slowlog)?;
    let traces: Vec<(StageTrace, f64)> = ids
        .iter()
        .filter_map(|&(id, s)| by_id.remove(&id).map(|t| (t, s.ms())))
        .collect();
    let completed = num(&stats, "completed")?;
    let counts = ServiceCounts {
        hit_rate: num(&stats, "cache_hit_rate")?,
        batch_size: num(&stats, "mean_batch_size")?,
        coalesced_share: ratio(num(&stats, "coalesced")?, completed),
    };
    service_layers(report, &traces, &counts);
    report.metric(
        "trace.overhead",
        ratio(traced.qps(), untraced.qps()),
        traces.len(),
    );
    Ok(())
}
