//! Per-layer probes: each times one layer's public functions from
//! outside, on the workload's own data. They run only in a traced run,
//! after the timed passes, and feed per-layer metrics — never an
//! end-to-end one.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sp2b_core::workload::SplitMix64;
use sp2b_core::{BenchQuery, ExtQuery};
use sp2b_rdf::{vocab, Graph, Term};
use sp2b_sparql::results::{write_solutions, Format};
use sp2b_sparql::{QueryEngine, ScanCounters};
use sp2b_store::{Id, SharedStore, TripleStore};

use crate::harness::median_seconds;
use crate::pipeline::{self, Stages};
use crate::spec::Measured;
use crate::stats::summarize;

const PROBE_REPS: usize = 5;
const LOOKUPS: usize = 1000;

/// datagen / rdf / store-build metrics from the stage timings of the
/// workload's passes (ingest) or set-up repetitions (50k workloads).
pub fn pipeline_metrics(passes: &[Stages], triples: u64, doc_bytes: usize, m: &mut Measured) {
    let stage = |name: &str| {
        let samples: Vec<f64> = passes.iter().map(|p| p.get(name)).collect();
        summarize(&samples)
    };
    let gen = stage(pipeline::GEN);
    let parse = stage(pipeline::PARSE);
    m.set("datagen.gen_s", gen);
    m.set_exact("datagen.triples_per_s", triples as f64 / gen.median);
    m.set_exact("datagen.bytes", doc_bytes as f64);
    m.set("rdf.parse_s", parse);
    m.set_exact("rdf.parse_mb_per_s", doc_bytes as f64 / 1e6 / parse.median);
    m.set("store.intern_s", stage(pipeline::INTERN));
    m.set("store.build_native_s", stage(pipeline::BUILD));
    for (metric, name) in [
        ("store.build_sharded2_s", pipeline::BUILD_SHARDED2),
        ("store.save_s", pipeline::SAVE),
        ("store.open_s", pipeline::OPEN),
    ] {
        if passes.iter().any(|p| p.get(name) > 0.0) {
            m.set(metric, stage(name));
        }
    }
}

/// `rdf.write_s`: the graph back to N-Triples bytes.
pub fn rdf_write(graph: &Graph, m: &mut Measured) {
    let mut out = Vec::new();
    m.set(
        "rdf.write_s",
        median_seconds(PROBE_REPS, || {
            out.clear();
            sp2b_rdf::ntriples::write_document(&mut out, graph).expect("writing to a Vec");
            black_box(out.len());
        }),
    );
}

/// Range scans, point lookups and estimates on the workload's own store.
pub fn store_probes(store: &dyn TripleStore, seed: u64, m: &mut Measured) {
    let id = |iri: &str| store.resolve(&Term::iri(iri));
    let (Some(rdf_type), Some(article)) = (id(vocab::rdf::TYPE), id(vocab::bench::ARTICLE)) else {
        return; // a document without articles has nothing to probe
    };
    m.set(
        "store.scan1_s",
        median_seconds(PROBE_REPS, || {
            black_box(store.scan([None, Some(rdf_type), None]).count());
        }),
    );
    m.set(
        "store.scan2_s",
        median_seconds(PROBE_REPS, || {
            black_box(store.scan([None, Some(rdf_type), Some(article)]).count());
        }),
    );
    // Seeded subject-bound point scans: subjects drawn from the typed
    // subjects, so every lookup hits.
    let subjects: Vec<Id> = store
        .scan([None, Some(rdf_type), None])
        .map(|t| t[0])
        .collect();
    let mut rng = SplitMix64::new(seed);
    let keys: Vec<Id> = (0..LOOKUPS)
        .map(|_| subjects[(rng.next_u64() % subjects.len() as u64) as usize])
        .collect();
    let per_key_us = |s: crate::stats::Summary| s.scaled(1e6 / LOOKUPS as f64);
    m.set(
        "store.lookup_us",
        per_key_us(median_seconds(PROBE_REPS, || {
            for &s in &keys {
                black_box(store.scan([Some(s), None, None]).count());
            }
        })),
    );
    m.set(
        "store.estimate_us",
        per_key_us(median_seconds(PROBE_REPS, || {
            for &s in &keys {
                black_box(store.estimate([Some(s), None, None]));
            }
        })),
    );
}

/// Work counts of one pass: rows the scans emitted against results
/// returned. ASK queries stop at the first match, which under an
/// exchange is not repeatable, so they are left out; the counting engine
/// runs sequentially for the same reason.
pub fn sparql_counts(store: SharedStore, queries: &[BenchQuery], m: &mut Measured) {
    let mut rows = 0u64;
    let mut results = 0u64;
    for q in queries.iter().filter(|q| !q.is_ask()) {
        let counters = Arc::new(ScanCounters::default());
        let engine = QueryEngine::new(store.clone())
            .parallelism(1)
            .timeout(Duration::from_secs(60))
            .scan_counters(counters.clone());
        let Ok(n) = engine.prepare(q.text()).and_then(|p| engine.count(&p)) else {
            continue;
        };
        rows += counters.total_rows();
        results += n;
    }
    m.set_exact("sparql.rows_scanned", rows as f64);
    m.set_exact("sparql.results", results as f64);
    m.set_exact(
        "sparql.rows_per_result",
        rows as f64 / results.max(1) as f64,
    );
}

/// `sparql.agg_s`: the aggregation extension A1–A5, prepare + count.
/// Kept out of `ta_s`/`tg_s`, which are the paper's 17 queries.
pub fn sparql_agg(engine: &QueryEngine, m: &mut Measured) {
    m.set(
        "sparql.agg_s",
        median_seconds(PROBE_REPS, || {
            for q in ExtQuery::ALL {
                let n = engine.prepare(q.text()).and_then(|p| engine.count(&p));
                black_box(n.ok());
            }
        }),
    );
}

/// Serializes Q2 and Q3a (a wide and a long result) into a `Vec`.
pub fn sparql_serialize(engine: &QueryEngine, m: &mut Measured) {
    let prepared: Vec<_> = [BenchQuery::Q2, BenchQuery::Q3a]
        .iter()
        .filter_map(|q| engine.prepare(q.text()).ok())
        .collect();
    let mut out = Vec::new();
    let mut write_all = |format: Format| {
        out.clear();
        for p in &prepared {
            let mut solutions = engine.solutions(p);
            black_box(write_solutions(&mut out, format, &mut solutions, false).ok());
        }
        out.len()
    };
    m.set(
        "sparql.serialize_json_s",
        median_seconds(PROBE_REPS, || {
            write_all(Format::Json);
        }),
    );
    m.set_exact("sparql.serialize_bytes", write_all(Format::Json) as f64);
    m.set(
        "sparql.serialize_csv_s",
        median_seconds(PROBE_REPS, || {
            write_all(Format::Csv);
        }),
    );
}

/// `core.measure_overhead_us`: one `core::metrics::measure` around
/// nothing — the `/proc` reads the paper's usr/sys/rmem columns cost.
pub fn core_measure_overhead(m: &mut Measured) {
    let reps = 200;
    let start = Instant::now();
    for _ in 0..reps {
        black_box(sp2b_core::measure(|| ()));
    }
    m.set_exact(
        "core.measure_overhead_us",
        start.elapsed().as_secs_f64() * 1e6 / f64::from(reps),
    );
}

/// `obs.record_ns`: one `AtomicHistogram::record`, which the server
/// pays per request.
pub fn obs_record(m: &mut Measured) {
    let hist = sp2b_obs::AtomicHistogram::new();
    let reps = 1_000_000u32;
    let start = Instant::now();
    for i in 0..reps {
        hist.record(Duration::from_nanos(u64::from(i) * 37 + 1000));
    }
    black_box(hist.count());
    m.set_exact(
        "obs.record_ns",
        start.elapsed().as_secs_f64() * 1e9 / f64::from(reps),
    );
}
