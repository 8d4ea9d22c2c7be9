//! Wire mapping between [`Request`]/[`Response`] and the NDJSON
//! protocol spoken by [`crate::server`].
//!
//! One request per line, one response line per request:
//!
//! ```json
//! {"op":"atsq","k":5,"stops":[{"x":12.0,"y":7.5,"acts":["coffee"]}]}
//! {"status":"ok","cached":false,"results":[{"trajectory":3,"distance":1.2}]}
//! ```
//!
//! * `op` — `atsq` | `oatsq` (with `k`), `atsq_range` | `oatsq_range`
//!   (with `tau`), `stats`, `metrics`, `slowlog`, `ping`, or the
//!   multi-tenant admin ops `cities`, `city_load`, `city_unload`
//!   (the latter two with a `city` member).
//! * `city` (optional on query ops) — the named dataset to query in a
//!   multi-city server. Absent means the default city, so single-city
//!   clients are unaffected. The server resolves the city *before*
//!   decoding stops: activity names bind to that city's vocabulary.
//! * Stops carry activities as names (`acts`, resolved against the
//!   dataset vocabulary) and/or raw ids (`act_ids`).
//! * `deadline_ms` (optional) — per-request deadline.
//! * Response `status` — `ok`, `expired`, `rejected`, or `error`.
//! * Query responses echo the service-assigned `request_id`, the
//!   handle that joins a wire reply to its slow-log entry.
//! * `metrics` answers with the Prometheus exposition text in a
//!   `metrics` field; `slowlog` answers with an `entries` array of
//!   per-request traces (stage breakdown in ms, engine counters).

use crate::json::{obj, parse, Value};
use crate::request::{Request, Response};
use crate::service::SubmitError;
use crate::stats::StatsSnapshot;
use atsq_obs::{SlowEntry, Stage};
use atsq_types::{
    ActivityId, ActivitySet, Dataset, Point, Query, QueryPoint, QueryResult, TrajectoryId,
};
use std::time::Duration;

/// A malformed request line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError(pub String);

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for WireError {}

fn bad(msg: impl Into<String>) -> WireError {
    WireError(msg.into())
}

/// One decoded client line.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientMessage {
    /// A query to submit, with its optional deadline.
    Query(Request, Option<Duration>),
    /// Stats snapshot request.
    Stats,
    /// Prometheus metrics-page request.
    Metrics,
    /// Slow-query log request.
    Slowlog,
    /// Liveness probe.
    Ping,
    /// Per-city registry listing (`{"op":"cities"}`).
    Cities,
    /// Warm a city's engine ahead of traffic.
    CityLoad(String),
    /// Release a city's resident memory.
    CityUnload(String),
}

/// A parsed line whose query body has *not* yet been decoded.
///
/// Query decoding needs a dataset (activity names bind to a
/// vocabulary), and in a multi-city server the dataset depends on the
/// `city` member of the very line being decoded. The envelope splits
/// the two steps: the server first resolves `city` to a lease, then
/// finishes decoding against that city's dataset with
/// [`decode_query_request`].
#[derive(Debug, Clone, PartialEq)]
pub enum Envelope {
    /// A query op: the target city (if named) plus the retained JSON
    /// to finish decoding once the city's dataset is resolved.
    Query {
        /// `city` member, when present.
        city: Option<String>,
        /// The parsed line, for [`decode_query_request`].
        value: Value,
    },
    /// A control op that needs no dataset.
    Control(ClientMessage),
}

/// Parses one request line far enough to route it: control ops decode
/// completely; query ops yield an [`Envelope::Query`] naming the
/// target city so the caller can resolve a dataset before finishing
/// with [`decode_query_request`].
pub fn decode_envelope(line: &str) -> Result<Envelope, WireError> {
    let value = parse(line).map_err(|e| bad(e.to_string()))?;
    let op = value
        .get("op")
        .and_then(Value::as_str)
        .ok_or_else(|| bad("missing `op`"))?;
    let city_member = |value: &Value| -> Result<String, WireError> {
        value
            .get("city")
            .and_then(Value::as_str)
            .map(str::to_owned)
            .ok_or_else(|| bad(format!("`{op}` needs a `city` string")))
    };
    match op {
        "stats" => Ok(Envelope::Control(ClientMessage::Stats)),
        "metrics" => Ok(Envelope::Control(ClientMessage::Metrics)),
        "slowlog" => Ok(Envelope::Control(ClientMessage::Slowlog)),
        "ping" => Ok(Envelope::Control(ClientMessage::Ping)),
        "cities" => Ok(Envelope::Control(ClientMessage::Cities)),
        "city_load" => Ok(Envelope::Control(ClientMessage::CityLoad(city_member(
            &value,
        )?))),
        "city_unload" => Ok(Envelope::Control(ClientMessage::CityUnload(city_member(
            &value,
        )?))),
        "atsq" | "oatsq" | "atsq_range" | "oatsq_range" => {
            let city = match value.get("city") {
                None | Some(Value::Null) => None,
                Some(v) => Some(
                    v.as_str()
                        .ok_or_else(|| bad("`city` must be a string"))?
                        .to_owned(),
                ),
            };
            Ok(Envelope::Query { city, value })
        }
        other => Err(bad(format!("unknown op `{other}`"))),
    }
}

/// Finishes decoding an [`Envelope::Query`]'s retained JSON against
/// the resolved city's dataset vocabulary.
pub fn decode_query_request(
    value: &Value,
    dataset: &Dataset,
) -> Result<(Request, Option<Duration>), WireError> {
    let op = value
        .get("op")
        .and_then(Value::as_str)
        .ok_or_else(|| bad("missing `op`"))?;
    let query = decode_query(value, dataset)?;
    let deadline = match value.get("deadline_ms") {
        None | Some(Value::Null) => None,
        Some(v) => Some(Duration::from_millis(
            v.as_usize().ok_or_else(|| bad("bad `deadline_ms`"))? as u64,
        )),
    };
    let request = match op {
        "atsq" | "oatsq" => {
            let k = match value.get("k") {
                None => 9,
                Some(v) => v.as_usize().ok_or_else(|| bad("bad `k`"))?,
            };
            if op == "atsq" {
                Request::Atsq { query, k }
            } else {
                Request::Oatsq { query, k }
            }
        }
        "atsq_range" | "oatsq_range" => {
            let tau = value
                .get("tau")
                .and_then(Value::as_f64)
                .ok_or_else(|| bad("range ops need a numeric `tau`"))?;
            if op == "atsq_range" {
                Request::AtsqRange { query, tau }
            } else {
                Request::OatsqRange { query, tau }
            }
        }
        other => return Err(bad(format!("unknown op `{other}`"))),
    };
    Ok((request, deadline))
}

/// Decodes one request line against a single dataset vocabulary.
///
/// Single-dataset convenience: any `city` member is ignored. Servers
/// hosting multiple cities use [`decode_envelope`] +
/// [`decode_query_request`] so the vocabulary matches the target city.
pub fn decode_client_line(line: &str, dataset: &Dataset) -> Result<ClientMessage, WireError> {
    match decode_envelope(line)? {
        Envelope::Control(message) => Ok(message),
        Envelope::Query { value, .. } => {
            let (request, deadline) = decode_query_request(&value, dataset)?;
            Ok(ClientMessage::Query(request, deadline))
        }
    }
}

fn decode_query(value: &Value, dataset: &Dataset) -> Result<Query, WireError> {
    let stops = value
        .get("stops")
        .and_then(Value::as_arr)
        .ok_or_else(|| bad("missing `stops` array"))?;
    let mut points = Vec::with_capacity(stops.len());
    for stop in stops {
        let x = stop
            .get("x")
            .and_then(Value::as_f64)
            .ok_or_else(|| bad("stop needs numeric `x`"))?;
        let y = stop
            .get("y")
            .and_then(Value::as_f64)
            .ok_or_else(|| bad("stop needs numeric `y`"))?;
        let mut ids: Vec<ActivityId> = Vec::new();
        if let Some(names) = stop.get("acts").and_then(Value::as_arr) {
            for name in names {
                let name = name.as_str().ok_or_else(|| bad("`acts` must be strings"))?;
                let id = dataset
                    .vocabulary()
                    .get(name)
                    .ok_or_else(|| bad(format!("unknown activity `{name}`")))?;
                ids.push(id);
            }
        }
        if let Some(raw) = stop.get("act_ids").and_then(Value::as_arr) {
            for v in raw {
                let id = v
                    .as_usize()
                    .ok_or_else(|| bad("`act_ids` must be integers"))?;
                ids.push(ActivityId(id as u32));
            }
        }
        let activities = ActivitySet::from_ids(ids);
        // The matching kernels cap per-point activity sets (and panic
        // beyond the cap); refuse here so it is a protocol error, not
        // a worker panic.
        let max = atsq_core::matching::point_match::QueryMask::MAX_ACTIVITIES;
        if activities.len() > max {
            return Err(bad(format!(
                "stop requests {} activities; at most {max} supported",
                activities.len()
            )));
        }
        points.push(QueryPoint::new(Point::new(x, y), activities));
    }
    Query::new(points).map_err(|e| bad(e.to_string()))
}

/// Encodes a query for the client side of the protocol.
pub fn encode_request(request: &Request, deadline: Option<Duration>) -> Value {
    encode_request_for_city(request, deadline, None)
}

/// Encodes a query addressed to a named city. `None` omits the `city`
/// member entirely (the default city), keeping single-city servers'
/// wire traffic byte-identical to the pre-tenant protocol.
pub fn encode_request_for_city(
    request: &Request,
    deadline: Option<Duration>,
    city: Option<&str>,
) -> Value {
    let (op, query) = (request.op(), request.query());
    let stops: Vec<Value> = query
        .points
        .iter()
        .map(|p| {
            obj(vec![
                ("x", Value::Num(p.loc.x)),
                ("y", Value::Num(p.loc.y)),
                (
                    "act_ids",
                    Value::Arr(
                        p.activities
                            .iter()
                            .map(|a| Value::Num(a.0 as f64))
                            .collect(),
                    ),
                ),
            ])
        })
        .collect();
    let mut members = vec![("op", Value::Str(op.into())), ("stops", Value::Arr(stops))];
    if let Some(city) = city {
        members.push(("city", Value::Str(city.into())));
    }
    match request {
        Request::Atsq { k, .. } | Request::Oatsq { k, .. } => {
            members.push(("k", Value::Num(*k as f64)));
        }
        Request::AtsqRange { tau, .. } | Request::OatsqRange { tau, .. } => {
            members.push(("tau", Value::Num(*tau)));
        }
    }
    if let Some(d) = deadline {
        members.push(("deadline_ms", Value::Num(d.as_millis() as f64)));
    }
    obj(members)
}

/// Encodes a service response. `request_id`, when given, is echoed as
/// a `request_id` member — the client's handle for joining a reply to
/// the server's slow-query log and latency records.
pub fn encode_response(response: &Response, request_id: Option<u64>) -> Value {
    let mut members: Vec<(&str, Value)> = Vec::new();
    if let Some(id) = request_id {
        members.push(("request_id", Value::Num(id as f64)));
    }
    match response {
        Response::Ok { results, cached } => {
            members.push(("status", Value::Str("ok".into())));
            members.push(("cached", Value::Bool(*cached)));
            members.push((
                "results",
                Value::Arr(
                    results
                        .iter()
                        .map(|r| {
                            obj(vec![
                                ("trajectory", Value::Num(r.trajectory.0 as f64)),
                                ("distance", Value::Num(r.distance)),
                            ])
                        })
                        .collect(),
                ),
            ));
        }
        Response::Expired => members.push(("status", Value::Str("expired".into()))),
        Response::Failed { error } => {
            members.push(("status", Value::Str("error".into())));
            members.push(("error", Value::Str(error.clone())));
        }
    }
    obj(members)
}

/// Encodes an admission failure. Per-city overload is `rejected` like
/// a full queue (the client may retry); tenant resolution failures
/// (unknown city, failed load) are `error` with the structured message.
pub fn encode_submit_error(error: &SubmitError) -> Value {
    let status = match error {
        SubmitError::QueueFull | SubmitError::CityOverloaded(_) => "rejected",
        SubmitError::Stopped | SubmitError::City(_) => "error",
    };
    obj(vec![
        ("status", Value::Str(status.into())),
        ("error", Value::Str(error.to_string())),
    ])
}

/// Encodes a protocol error.
pub fn encode_error(message: &str) -> Value {
    obj(vec![
        ("status", Value::Str("error".into())),
        ("error", Value::Str(message.into())),
    ])
}

/// Encodes the city-registry listing as a wire reply: one entry per
/// registered city with its lifecycle state, memory footprint and
/// tenancy counters.
pub fn encode_cities(cities: &[atsq_tenant::CityInfo]) -> Value {
    let encoded: Vec<Value> = cities
        .iter()
        .map(|c| {
            let mut members = vec![
                ("city", Value::Str(c.city.as_str().into())),
                ("state", Value::Str(c.state.name().into())),
                ("pinned", Value::Bool(c.pinned)),
                ("resident_bytes", Value::Num(c.resident_bytes as f64)),
                ("inflight", Value::Num(c.inflight as f64)),
                ("queries", Value::Num(c.queries as f64)),
                ("loads", Value::Num(c.loads as f64)),
                ("evictions", Value::Num(c.evictions as f64)),
                ("load_ms_total", Value::Num(c.load_ms_total)),
                ("loaded_from_snapshot", Value::Bool(c.loaded_from_snapshot)),
                ("candidates", Value::Num(c.counters.candidates as f64)),
            ];
            if let Some(err) = &c.last_error {
                members.push(("last_error", Value::Str(err.clone())));
            }
            obj(members)
        })
        .collect();
    obj(vec![
        ("status", Value::Str("ok".into())),
        ("cities", Value::Arr(encoded)),
    ])
}

/// Encodes the acknowledgement for `city_load` / `city_unload`.
/// `cold` is meaningful for loads: true when the op actually built or
/// restored an engine rather than finding one already resident.
pub fn encode_city_ack(city: &str, cold: Option<bool>) -> Value {
    let mut members = vec![
        ("status", Value::Str("ok".into())),
        ("city", Value::Str(city.into())),
    ];
    if let Some(cold) = cold {
        members.push(("cold", Value::Bool(cold)));
    }
    obj(members)
}

/// Encodes a Prometheus metrics page as a wire reply.
pub fn encode_metrics(text: &str) -> Value {
    obj(vec![
        ("status", Value::Str("ok".into())),
        ("metrics", Value::Str(text.into())),
    ])
}

/// Encodes the slow-query log as a wire reply: one entry per recorded
/// request, newest last, with the stage breakdown in milliseconds and
/// the per-query engine counters.
pub fn encode_slowlog(entries: &[SlowEntry]) -> Value {
    let encoded: Vec<Value> = entries
        .iter()
        .map(|e| {
            let r = &e.report;
            let stages = obj(Stage::ALL
                .iter()
                .map(|&s| (s.name(), Value::Num(r.stage_ns[s as usize] as f64 / 1e6)))
                .collect());
            let counters = obj(vec![
                ("candidates", Value::Num(r.counters.candidates as f64)),
                (
                    "distance_evals",
                    Value::Num(r.counters.distance_evals as f64),
                ),
                ("tas_checks", Value::Num(r.counters.tas_checks as f64)),
                (
                    "tas_false_positives",
                    Value::Num(r.counters.tas_false_positives as f64),
                ),
                ("apl_reads", Value::Num(r.counters.apl_reads as f64)),
                ("cold_reads", Value::Num(r.counters.cold_reads as f64)),
            ]);
            obj(vec![
                ("request_id", Value::Num(r.request_id as f64)),
                ("op", Value::Str(r.op.into())),
                ("status", Value::Str(r.status.into())),
                ("cached", Value::Bool(r.cached)),
                ("age_s", Value::Num(e.recorded_at.elapsed().as_secs_f64())),
                ("total_ms", Value::Num(r.total_ns as f64 / 1e6)),
                ("stages", stages),
                ("counters", counters),
                (
                    "shard_busy_ms",
                    Value::Arr(
                        r.shard_busy_ns
                            .iter()
                            .map(|&ns| Value::Num(ns as f64 / 1e6))
                            .collect(),
                    ),
                ),
            ])
        })
        .collect();
    obj(vec![
        ("status", Value::Str("ok".into())),
        ("entries", Value::Arr(encoded)),
    ])
}

/// Encodes a stats snapshot.
pub fn encode_stats(snap: &StatsSnapshot) -> Value {
    obj(vec![
        ("status", Value::Str("ok".into())),
        ("uptime_s", Value::Num(snap.uptime.as_secs_f64())),
        ("submitted", Value::Num(snap.submitted as f64)),
        ("completed", Value::Num(snap.completed as f64)),
        ("rejected", Value::Num(snap.rejected as f64)),
        ("expired", Value::Num(snap.expired as f64)),
        ("cache_hits", Value::Num(snap.cache_hits as f64)),
        ("cache_misses", Value::Num(snap.cache_misses as f64)),
        ("cache_hit_rate", Value::Num(snap.cache_hit_rate())),
        ("failed", Value::Num(snap.failed as f64)),
        // Workers run one request per queue pop and never coalesce
        // duplicates; the two keys stay, fixed, for clients that read
        // them.
        ("coalesced", Value::Num(0.0)),
        ("mean_batch_size", Value::Num(1.0)),
        ("qps", Value::Num(snap.qps)),
        ("p50_ms", Value::Num(snap.p50_ms)),
        ("p90_ms", Value::Num(snap.p90_ms)),
        ("p99_ms", Value::Num(snap.p99_ms)),
        ("queue_depth", Value::Num(snap.queue_depth as f64)),
        (
            "distance_evals",
            Value::Num(snap.engine.distance_evals as f64),
        ),
        (
            "shard_candidates",
            Value::Arr(
                snap.shard_candidates
                    .iter()
                    .map(|&c| Value::Num(c as f64))
                    .collect(),
            ),
        ),
    ])
}

/// The client-side view of one response line.
#[derive(Debug, Clone, PartialEq)]
pub enum ServerReply {
    /// Results, with the server's cached flag.
    Ok {
        /// Ranked results.
        results: Vec<QueryResult>,
        /// Served from the result cache.
        cached: bool,
    },
    /// Deadline expired server-side.
    Expired,
    /// Admission control refused the request.
    Rejected(String),
    /// Protocol or server error.
    Error(String),
}

/// Decodes one server response line (client side).
pub fn decode_server_reply(line: &str) -> Result<ServerReply, WireError> {
    decode_server_reply_full(line).map(|(_, reply)| reply)
}

/// Decodes one server response line along with the echoed
/// `request_id`, when the server attached one.
pub fn decode_server_reply_full(line: &str) -> Result<(Option<u64>, ServerReply), WireError> {
    let value = parse(line).map_err(|e| bad(e.to_string()))?;
    let request_id = value
        .get("request_id")
        .and_then(Value::as_f64)
        .map(|n| n as u64);
    let status = value
        .get("status")
        .and_then(Value::as_str)
        .ok_or_else(|| bad("missing `status`"))?;
    let reply = match status {
        "ok" => {
            let results = match value.get("results") {
                None => Vec::new(),
                Some(arr) => arr
                    .as_arr()
                    .ok_or_else(|| bad("`results` must be an array"))?
                    .iter()
                    .map(|r| {
                        let trajectory = r
                            .get("trajectory")
                            .and_then(Value::as_usize)
                            .ok_or_else(|| bad("result needs `trajectory`"))?;
                        let distance = r
                            .get("distance")
                            .and_then(Value::as_f64)
                            .ok_or_else(|| bad("result needs `distance`"))?;
                        Ok(QueryResult::new(TrajectoryId(trajectory as u32), distance))
                    })
                    .collect::<Result<_, WireError>>()?,
            };
            let cached = value
                .get("cached")
                .and_then(Value::as_bool)
                .unwrap_or(false);
            ServerReply::Ok { results, cached }
        }
        "expired" => ServerReply::Expired,
        "rejected" => ServerReply::Rejected(
            value
                .get("error")
                .and_then(Value::as_str)
                .unwrap_or("rejected")
                .to_owned(),
        ),
        "error" => ServerReply::Error(
            value
                .get("error")
                .and_then(Value::as_str)
                .unwrap_or("error")
                .to_owned(),
        ),
        other => return Err(bad(format!("unknown status `{other}`"))),
    };
    Ok((request_id, reply))
}

#[cfg(test)]
mod tests {
    use super::*;
    use atsq_datagen::{generate, CityConfig};
    use std::sync::Arc;

    fn dataset() -> Dataset {
        generate(&CityConfig::tiny(2)).unwrap()
    }

    #[test]
    fn request_roundtrips_through_the_wire() {
        let ds = dataset();
        let some_act = ds.trajectories()[0].points[0]
            .activities
            .iter()
            .next()
            .unwrap();
        let query = Query::new(vec![QueryPoint::new(
            Point::new(3.5, -1.25),
            ActivitySet::from_ids([some_act]),
        )])
        .unwrap();
        for request in [
            Request::Atsq {
                query: query.clone(),
                k: 7,
            },
            Request::Oatsq {
                query: query.clone(),
                k: 2,
            },
            Request::AtsqRange {
                query: query.clone(),
                tau: 12.5,
            },
            Request::OatsqRange {
                query: query.clone(),
                tau: 0.5,
            },
        ] {
            let line = encode_request(&request, Some(Duration::from_millis(250))).to_json();
            match decode_client_line(&line, &ds).unwrap() {
                ClientMessage::Query(decoded, deadline) => {
                    assert_eq!(decoded, request);
                    assert_eq!(deadline, Some(Duration::from_millis(250)));
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn named_activities_resolve() {
        let ds = dataset();
        let name = ds.vocabulary().name(ActivityId(0)).unwrap().to_owned();
        let line =
            format!(r#"{{"op":"atsq","k":3,"stops":[{{"x":1.0,"y":2.0,"acts":["{name}"]}}]}}"#);
        match decode_client_line(&line, &ds).unwrap() {
            ClientMessage::Query(Request::Atsq { query, k }, None) => {
                assert_eq!(k, 3);
                assert!(query.points[0].activities.contains(ActivityId(0)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn control_messages_decode() {
        let ds = dataset();
        assert_eq!(
            decode_client_line(r#"{"op":"stats"}"#, &ds).unwrap(),
            ClientMessage::Stats
        );
        assert_eq!(
            decode_client_line(r#"{"op":"metrics"}"#, &ds).unwrap(),
            ClientMessage::Metrics
        );
        assert_eq!(
            decode_client_line(r#"{"op":"slowlog"}"#, &ds).unwrap(),
            ClientMessage::Slowlog
        );
        assert_eq!(
            decode_client_line(r#"{"op":"ping"}"#, &ds).unwrap(),
            ClientMessage::Ping
        );
    }

    #[test]
    fn bad_lines_are_rejected() {
        let ds = dataset();
        for bad_line in [
            "not json",
            r#"{"k":3}"#,
            r#"{"op":"warp"}"#,
            r#"{"op":"atsq","stops":[]}"#,
            r#"{"op":"atsq","stops":[{"x":1,"y":2,"acts":["no-such-activity"]}]}"#,
            r#"{"op":"atsq_range","stops":[{"x":1,"y":2,"act_ids":[0]}]}"#,
            r#"{"op":"atsq","k":-2,"stops":[{"x":1,"y":2,"act_ids":[0]}]}"#,
            // 21 activities exceeds the matching kernels' cap; must be
            // a protocol error, not a worker panic.
            r#"{"op":"atsq","k":3,"stops":[{"x":1,"y":2,"act_ids":[0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,19,20]}]}"#,
        ] {
            assert!(decode_client_line(bad_line, &ds).is_err(), "{bad_line}");
        }
    }

    #[test]
    fn city_envelopes_split_routing_from_query_decode() {
        let ds = dataset();
        let query = Query::new(vec![QueryPoint::new(
            Point::new(1.0, 2.0),
            ActivitySet::from_ids([ActivityId(0)]),
        )])
        .unwrap();
        let request = Request::Atsq { query, k: 4 };
        // A city-addressed line surfaces the city before any dataset
        // is needed; the retained value then decodes against it.
        let line = encode_request_for_city(&request, None, Some("tokyo")).to_json();
        match decode_envelope(&line).unwrap() {
            Envelope::Query { city, value } => {
                assert_eq!(city.as_deref(), Some("tokyo"));
                let (decoded, deadline) = decode_query_request(&value, &ds).unwrap();
                assert_eq!(decoded, request);
                assert_eq!(deadline, None);
            }
            other => panic!("unexpected {other:?}"),
        }
        // No city: byte-identical to the pre-tenant wire format.
        let plain = encode_request(&request, None).to_json();
        assert!(!plain.contains("city"), "{plain}");
        match decode_envelope(&plain).unwrap() {
            Envelope::Query { city, .. } => assert_eq!(city, None),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn city_admin_ops_decode() {
        assert_eq!(
            decode_envelope(r#"{"op":"cities"}"#).unwrap(),
            Envelope::Control(ClientMessage::Cities)
        );
        assert_eq!(
            decode_envelope(r#"{"op":"city_load","city":"osaka"}"#).unwrap(),
            Envelope::Control(ClientMessage::CityLoad("osaka".into()))
        );
        assert_eq!(
            decode_envelope(r#"{"op":"city_unload","city":"osaka"}"#).unwrap(),
            Envelope::Control(ClientMessage::CityUnload("osaka".into()))
        );
        // The admin ops require a city string.
        assert!(decode_envelope(r#"{"op":"city_load"}"#).is_err());
        assert!(decode_envelope(r#"{"op":"atsq","city":7,"stops":[]}"#).is_err());
    }

    #[test]
    fn tenant_submit_errors_map_to_statuses() {
        use atsq_tenant::{CityId, TenantError};
        let overloaded = SubmitError::CityOverloaded(CityId::new("tokyo").unwrap());
        match decode_server_reply(&encode_submit_error(&overloaded).to_json()).unwrap() {
            ServerReply::Rejected(msg) => assert!(msg.contains("tokyo"), "{msg}"),
            other => panic!("unexpected {other:?}"),
        }
        let unknown = SubmitError::City(TenantError::UnknownCity(CityId::new("atlantis").unwrap()));
        match decode_server_reply(&encode_submit_error(&unknown).to_json()).unwrap() {
            ServerReply::Error(msg) => assert!(msg.contains("atlantis"), "{msg}"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn unknown_ops_name_themselves_in_the_error() {
        // The op is validated before the query body, so a bare unknown
        // op reports itself rather than a missing-stops complaint.
        let err = decode_client_line(r#"{"op":"warp"}"#, &dataset()).unwrap_err();
        assert!(err.to_string().contains("unknown op `warp`"), "{err}");
    }

    #[test]
    fn responses_roundtrip() {
        let ok = Response::Ok {
            results: Arc::new(vec![QueryResult::new(TrajectoryId(4), 1.75)]),
            cached: true,
        };
        match decode_server_reply(&encode_response(&ok, None).to_json()).unwrap() {
            ServerReply::Ok { results, cached } => {
                assert!(cached);
                assert_eq!(results, vec![QueryResult::new(TrajectoryId(4), 1.75)]);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(
            decode_server_reply(&encode_response(&Response::Expired, None).to_json()).unwrap(),
            ServerReply::Expired
        );
        match decode_server_reply(&encode_submit_error(&SubmitError::QueueFull).to_json()).unwrap()
        {
            ServerReply::Rejected(msg) => assert!(msg.contains("full")),
            other => panic!("unexpected {other:?}"),
        }
        match decode_server_reply(&encode_error("boom").to_json()).unwrap() {
            ServerReply::Error(msg) => assert_eq!(msg, "boom"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn request_ids_echo_through_the_wire() {
        let ok = Response::Ok {
            results: Arc::new(Vec::new()),
            cached: false,
        };
        let line = encode_response(&ok, Some(712)).to_json();
        let (id, reply) = decode_server_reply_full(&line).unwrap();
        assert_eq!(id, Some(712));
        assert!(matches!(reply, ServerReply::Ok { .. }));
        // Replies without an id (tracing off, admission errors) decode
        // to None rather than erroring.
        let (id, reply) = decode_server_reply_full(&encode_error("boom").to_json()).unwrap();
        assert_eq!(id, None);
        assert_eq!(reply, ServerReply::Error("boom".into()));
    }

    #[test]
    fn metrics_reply_carries_exposition_text() {
        let line = encode_metrics("# HELP x X.\n# TYPE x counter\nx 1\n").to_json();
        let value = parse(&line).unwrap();
        assert_eq!(value.get("status").and_then(Value::as_str), Some("ok"));
        let text = value.get("metrics").and_then(Value::as_str).unwrap();
        assert!(text.contains("x 1\n"), "{text}");
    }

    #[test]
    fn slowlog_reply_breaks_down_stages_and_counters() {
        use atsq_obs::QueryCounters;
        use std::time::Instant;
        let entry = SlowEntry {
            report: atsq_obs::TraceReport {
                request_id: 9,
                op: "atsq",
                status: "ok",
                cached: false,
                total_ns: 6_000_000,
                stage_ns: [1_000_000, 2_000_000, 500_000, 500_000, 1_500_000, 500_000],
                counters: QueryCounters {
                    candidates: 11,
                    distance_evals: 4,
                    tas_checks: 10,
                    tas_false_positives: 1,
                    apl_reads: 5,
                    cold_reads: 2,
                },
                shard_busy_ns: vec![1_000_000, 500_000],
            },
            recorded_at: Instant::now(),
        };
        let value = parse(&encode_slowlog(&[entry]).to_json()).unwrap();
        assert_eq!(value.get("status").and_then(Value::as_str), Some("ok"));
        let entries = value.get("entries").and_then(Value::as_arr).unwrap();
        assert_eq!(entries.len(), 1);
        let e = &entries[0];
        assert_eq!(e.get("request_id").and_then(Value::as_f64), Some(9.0));
        assert_eq!(e.get("op").and_then(Value::as_str), Some("atsq"));
        assert_eq!(e.get("total_ms").and_then(Value::as_f64), Some(6.0));
        let stages = e.get("stages").unwrap();
        let mut stage_sum = 0.0;
        for stage in ["admission", "queue", "cache", "assembly", "engine", "reply"] {
            stage_sum += stages.get(stage).and_then(Value::as_f64).unwrap();
        }
        // The stage breakdown sums exactly to the end-to-end latency.
        assert_eq!(stage_sum, 6.0);
        let counters = e.get("counters").unwrap();
        assert_eq!(
            counters.get("candidates").and_then(Value::as_f64),
            Some(11.0)
        );
        assert_eq!(
            counters.get("cold_reads").and_then(Value::as_f64),
            Some(2.0)
        );
        let busy = e.get("shard_busy_ms").and_then(Value::as_arr).unwrap();
        assert_eq!(busy.len(), 2);
        assert_eq!(busy[0].as_f64(), Some(1.0));
    }
}
