//! Seeded inputs: the dataset file the program loads, the query pool,
//! the request sequence, and the IL answer every request must get.
//!
//! The dataset and the query pool are part of a workload's definition:
//! both come from fixed generator seeds, so every run serves the same
//! queries against the same index. Per-query costs spread over two
//! orders of magnitude and are bimodal, so medians over pools drawn
//! per run swung by 20–40% between seeds. The run's `--seed` draws the
//! traffic: the order in which the queries are sent as each op.
//! Reference answers come from the IL baseline (the simplest exact
//! engine) and are computed before any timing starts.

use crate::Workload;
use atsq_core::IlEngine;
use atsq_datagen::{generate, generate_queries, CityConfig, QueryGenConfig};
use atsq_service::{wire, Request};
use atsq_types::{Dataset, Query, QueryResult};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Result-set size of every top-k request.
pub const K: usize = 9;

/// The four request kinds, sent in equal shares.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    Atsq,
    Oatsq,
    AtsqRange,
    OatsqRange,
}

impl Op {
    pub const ALL: [Op; 4] = [Op::Atsq, Op::Oatsq, Op::AtsqRange, Op::OatsqRange];
}

/// One distinct request: what the client sends and the answer it must
/// get back.
pub struct Item {
    pub op: Op,
    pub request: Request,
    /// The request as one NDJSON line, newline included.
    pub line: String,
    /// The IL engine's answer.
    pub expect: Vec<QueryResult>,
}

/// Everything a run sends, fixed before timing starts.
pub struct Inputs {
    pub city: String,
    pub scale: f64,
    pub data_path: PathBuf,
    pub dataset: Dataset,
    pub il: IlEngine,
    pub items: Vec<Item>,
    /// Requests in send order, as indices into `items`; a run that
    /// sends more cycles through it.
    pub sequence: Vec<usize>,
}

/// Generator seed of every workload's query pool.
const POOL_SEED: u64 = 0xA75;

/// The city a workload runs on: `CityConfig::ny_like(scale)`, or the
/// unit-test city in smoke mode.
fn city(workload: &Workload, tiny: bool) -> (CityConfig, f64) {
    if tiny {
        (CityConfig::tiny(0), 0.0)
    } else {
        (CityConfig::ny_like(workload.scale), workload.scale)
    }
}

/// Writes the workload's dataset where the server reads it from.
fn write_dataset(config: &CityConfig, path: &Path) -> Result<(), String> {
    let dataset = generate(config).map_err(|e| e.to_string())?;
    let file = File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
    atsq_io::write_dataset(&dataset, BufWriter::new(file)).map_err(|e| e.to_string())
}

/// Reads a dataset file, returning it with the seconds the read took.
pub fn read_dataset(path: &Path) -> Result<(Dataset, f64), String> {
    let t0 = Instant::now();
    let file = File::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let dataset = atsq_io::read_dataset(BufReader::new(file)).map_err(|e| e.to_string())?;
    Ok((dataset, t0.elapsed().as_secs_f64()))
}

impl Inputs {
    pub fn build(
        workload: &Workload,
        seed: u64,
        tiny: bool,
        work: &Path,
    ) -> Result<Inputs, String> {
        let (config, scale) = city(workload, tiny);
        let data_path = work.join(format!("{}-{scale}.atsq", config.name));
        write_dataset(&config, &data_path)?;
        let (dataset, _) = read_dataset(&data_path)?;
        // Table V query shape: |Q| = 4 stops, 3 activities each, 10 km
        // diameter; venue tags or the trajectory's popular categories.
        let gen = QueryGenConfig {
            query_points: 4,
            acts_per_point: 3,
            diameter_km: Some(10.0),
            common_acts_only: workload.popular,
            seed: POOL_SEED,
        };
        let queries = generate_queries(&dataset, &gen, workload.pool);
        let mut rng = StdRng::seed_from_u64(seed);
        // Item `4q + o` is query `q` sent as `Op::ALL[o]`. Each op takes
        // the queries in its own random order; the ops alternate, so any
        // four consecutive requests hold one of each and a run cut off
        // by its time limit keeps the mix even.
        let orders: Vec<Vec<usize>> = Op::ALL
            .iter()
            .map(|_| {
                let mut order: Vec<usize> = (0..workload.pool).collect();
                order.shuffle(&mut rng);
                order
            })
            .collect();
        let sequence = (0..workload.pool * 4)
            .map(|j| 4 * orders[j % 4][j / 4] + j % 4)
            .collect();
        let il = IlEngine::build(&dataset);
        let items = reference_answers(&il, &dataset, &queries);
        Ok(Inputs {
            city: config.name,
            scale,
            data_path,
            dataset,
            il,
            items,
            sequence,
        })
    }
}

/// Builds each query's four requests with their IL answers, on two
/// threads. A range request's `tau` is IL's k-th distance for the same
/// query, so the range answer is the top-k plus any ties at the
/// boundary.
fn reference_answers(il: &IlEngine, dataset: &Dataset, queries: &[Query]) -> Vec<Item> {
    let answer = |query: &Query| {
        let atsq = il.atsq(dataset, query, K);
        let oatsq = il.oatsq(dataset, query, K);
        let kth = |top: &[QueryResult]| top.last().map_or(0.0, |r| r.distance);
        let (atsq_tau, oatsq_tau) = (kth(&atsq), kth(&oatsq));
        let requests = [
            (
                Request::Atsq {
                    query: query.clone(),
                    k: K,
                },
                atsq,
            ),
            (
                Request::Oatsq {
                    query: query.clone(),
                    k: K,
                },
                oatsq,
            ),
            (
                Request::AtsqRange {
                    query: query.clone(),
                    tau: atsq_tau,
                },
                il.atsq_range(dataset, query, atsq_tau),
            ),
            (
                Request::OatsqRange {
                    query: query.clone(),
                    tau: oatsq_tau,
                },
                il.oatsq_range(dataset, query, oatsq_tau),
            ),
        ];
        Op::ALL
            .into_iter()
            .zip(requests)
            .map(|(op, (request, expect))| Item {
                op,
                line: wire::encode_request(&request, None).to_json() + "\n",
                request,
                expect,
            })
    };
    let mut all: Vec<(usize, Vec<Item>)> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..2)
            .map(|t| {
                let answer = &answer;
                s.spawn(move || {
                    (t..queries.len())
                        .step_by(2)
                        .map(|q| (q, answer(&queries[q]).collect()))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("reference thread"))
            .collect()
    });
    all.sort_by_key(|&(q, _)| q);
    all.into_iter().flat_map(|(_, items)| items).collect()
}

/// Whether an answer equals the reference: the same trajectory ids in
/// the same order, distances within 1e-9.
pub fn same_answer(got: &[QueryResult], want: &[QueryResult]) -> bool {
    got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(g, w)| g.trajectory == w.trajectory && (g.distance - w.distance).abs() <= 1e-9)
}
