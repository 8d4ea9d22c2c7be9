//! Trip planning over a synthetic city — the paper's §I motivating
//! scenario: a tourist plans three stops with desired activities and
//! wants the travel histories of like-minded locals as references.
//!
//! Run with: `cargo run --release --example trip_planning`

use atsq_core::prelude::*;
use atsq_datagen::{generate, generate_queries, CityConfig, QueryGenConfig};
use std::time::Instant;

fn main() {
    // A Los-Angeles-like city at 2% scale: ~630 users.
    let city = CityConfig::la_like(0.02);
    println!(
        "Generating {} ({} trajectories)...",
        city.name, city.trajectories
    );
    let dataset = generate(&city).expect("generation");
    let stats = dataset.stats();
    println!("{stats}\n");

    let t0 = Instant::now();
    let engine = GatEngine::build(&dataset).expect("index");
    println!("GAT index built in {:.1?}", t0.elapsed());
    let mem = engine.index().memory_report();
    println!(
        "memory: HICL {} KiB (+{} KiB cold) | ITL {} KiB | TAS {} KiB | APL {} KiB on disk\n",
        mem.hicl_hot_bytes / 1024,
        mem.hicl_cold_bytes / 1024,
        mem.itl_bytes / 1024,
        mem.tas_bytes / 1024,
        mem.apl_disk_bytes / 1024
    );

    // A three-stop itinerary sampled from real user behaviour (the
    // §VII-A protocol), with the paper's default |q.Φ| = 3.
    let query = generate_queries(
        &dataset,
        &QueryGenConfig {
            query_points: 3,
            acts_per_point: 3,
            diameter_km: Some(10.0),
            common_acts_only: false,
            seed: 2024,
        },
        1,
    )
    .remove(0);

    println!("Tourist itinerary (δ(Q) = {:.1} km):", query.diameter());
    for (i, p) in query.points.iter().enumerate() {
        let names: Vec<&str> = p
            .activities
            .iter()
            .filter_map(|a| dataset.vocabulary().name(a))
            .collect();
        println!("  stop {}: {} wants {:?}", i + 1, p.loc, names);
    }

    let t1 = Instant::now();
    let recommendations = engine.atsq(&dataset, &query, 5);
    println!("\nTop-5 reference trajectories ({:.2?}):", t1.elapsed());
    for r in &recommendations {
        let tr = dataset.trajectory(r.trajectory);
        println!(
            "  {}  Dmm = {:>7.3} km  ({} check-ins, {:.1} km travelled)",
            r.trajectory,
            r.distance,
            tr.len(),
            tr.path_length()
        );
    }

    let snap = engine.index().stats();
    println!(
        "\nindex work: {} candidates, {} TAS checks ({} false positives), {} APL fetches, {} full distance evaluations",
        snap.candidates_retrieved,
        snap.tas_checks,
        snap.tas_false_positives,
        snap.apl_reads,
        snap.distances_computed
    );
}
