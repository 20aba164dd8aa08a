//! The two protocol workloads: the paper's Q1–Q12c, `prepare` + `count`
//! per sample, in process — on the resident native store
//! (`protocol-resident-50k`) and on saved segments behind a block cache
//! smaller than the runs (`protocol-disk-50k`). Same sparql layer, so a
//! change to the store's block path moves the second and predicts no
//! change on the first.

use std::time::{Duration, Instant};

use sp2b_core::BenchQuery;
use sp2b_datagen::Rng;
use sp2b_rdf::Graph;
use sp2b_sparql::{parse, QueryEngine};
use sp2b_store::{CacheStats, SharedStore, TripleStore};

use crate::harness::{
    repeat_setup, timed_passes, trace_overhead_pct, Checker, EndToEnd, Outcome, RunArgs,
    SectionCost,
};
use crate::layers;
use crate::pipeline::{self, Scratch, Stages};
use crate::spec::{query_metric, Measured};
use crate::stats::{penalised_means, summarize, Summary};
use crate::trace::{child_coverage, Tracer};

pub const SCALE: u64 = 50_000;

/// Per-query parallelism of both protocol workloads.
const PARALLELISM: usize = 2;

/// A query that runs this long has failed (ranked 3600 s, as the paper
/// ranks its timeouts).
const QUERY_TIMEOUT: Duration = Duration::from_secs(60);

/// Block-cache budgets of the disk workload: **small** is a fourteenth
/// of the ~1.8 MB of runs, so no query's working set fits; **fit** holds
/// everything with zero evictions. (256 KiB sits on the edge of Q3b's and
/// Q3c's working sets: they then run in 16 µs or 430 µs depending on the
/// seed's document, which moves `tg_s` by 27 % with nothing changed.)
pub const CACHE_SMALL: u64 = 128 * 1024;
pub const CACHE_FIT: u64 = 8 * 1024 * 1024;

/// Result counts of the default-seed 50k document, pinned when the
/// benchmark was written (ASK: 1 = yes, 0 = no).
const PINNED_50K: [(BenchQuery, u64); 17] = [
    (BenchQuery::Q1, 1),
    (BenchQuery::Q2, 671),
    (BenchQuery::Q3a, 3217),
    (BenchQuery::Q3b, 22),
    (BenchQuery::Q3c, 0),
    (BenchQuery::Q4, 71317),
    (BenchQuery::Q5a, 575),
    (BenchQuery::Q5b, 575),
    (BenchQuery::Q6, 3606),
    (BenchQuery::Q7, 2),
    (BenchQuery::Q8, 491),
    (BenchQuery::Q9, 4),
    (BenchQuery::Q10, 286),
    (BenchQuery::Q11, 10),
    (BenchQuery::Q12a, 1),
    (BenchQuery::Q12b, 1),
    (BenchQuery::Q12c, 0),
];

/// One query of a pass and how often a sample repeats it.
#[derive(Debug, Clone, Copy)]
pub struct QuerySpec {
    pub query: BenchQuery,
    pub reps: u32,
}

/// The workload's query list. Sub-10 ms queries repeat a fixed number
/// of times inside one sample (the sample is the mean execution), so
/// scheduler noise on a 30 µs query does not dominate `tg_s`. The disk
/// list leaves out Q6 (store-independent; the resident workload has it)
/// and Q5a/Q7/Q12a (5–14 s a sample through a 256 KiB cache).
pub fn query_list(disk: bool) -> Vec<QuerySpec> {
    use BenchQuery::*;
    BenchQuery::ALL
        .into_iter()
        .filter(|q| !(disk && matches!(q, Q5a | Q6 | Q7 | Q12a)))
        .map(|query| QuerySpec {
            query,
            reps: match query {
                Q1 | Q3b | Q3c | Q10 | Q11 | Q12c => 200,
                Q2 | Q3a | Q7 | Q9 => 10,
                Q5b if !disk => 10,
                _ => 1,
            },
        })
        .collect()
}

/// One pass over the list: per query the mean seconds of one execution
/// and its result count, `None` where the query failed.
pub struct Pass {
    pub seconds: Vec<Option<f64>>,
    pub counts: Vec<Option<u64>>,
}

/// Runs every query of `list` once (times its `reps`). Each execution is
/// a root span `query:<label>` with the layer calls as children.
pub fn run_pass(engine: &QueryEngine, list: &[QuerySpec], tr: &mut Tracer) -> Pass {
    let mut pass = Pass {
        seconds: Vec::with_capacity(list.len()),
        counts: Vec::with_capacity(list.len()),
    };
    for spec in list {
        let root = format!("query:{}", spec.query.label());
        let mut count = None;
        let start = Instant::now();
        for _ in 0..spec.reps {
            tr.enter(&root);
            let parsed = tr.span("sparql.parse", || parse(spec.query.text()));
            let prepared = parsed
                .ok()
                .and_then(|q| tr.span("sparql.plan", || engine.prepare_query(&q)).ok());
            count = prepared.and_then(|p| tr.span("sparql.exec", || engine.count(&p)).ok());
            tr.exit();
            if count.is_none() {
                break;
            }
        }
        let seconds = start.elapsed().as_secs_f64() / f64::from(spec.reps);
        pass.seconds.push(count.map(|_| seconds));
        pass.counts.push(count);
    }
    pass
}

/// Checks a reference pass against what must hold for any seed (the
/// paper's invariants) and, for the default seed, the pinned counts.
fn verify_reference(list: &[QuerySpec], counts: &[Option<u64>], seed: u64, checker: &mut Checker) {
    let count = |q: BenchQuery| {
        list.iter()
            .position(|s| s.query == q)
            .and_then(|i| counts[i])
    };
    for (spec, n) in list.iter().zip(counts) {
        if n.is_none() {
            checker.problem(format!(
                "{} failed in the reference pass",
                spec.query.label()
            ));
        }
        if seed == Rng::DEFAULT_SEED {
            let pinned = PINNED_50K
                .iter()
                .find(|(q, _)| *q == spec.query)
                .map(|p| p.1);
            if *n != pinned {
                checker.problem(format!(
                    "{} returned {n:?}, pinned {pinned:?}",
                    spec.query.label()
                ));
            }
        }
    }
    let mut invariant = |holds: bool, what: &str| {
        if !holds {
            checker.problem(format!("invariant broken: {what}"));
        }
    };
    use BenchQuery::*;
    invariant(count(Q1) == Some(1), "Q1 = 1");
    invariant(count(Q3c) == Some(0), "Q3c = 0");
    invariant(count(Q12c) == Some(0), "Q12c = no");
    if let (Some(a), Some(b)) = (count(Q5a), count(Q5b)) {
        invariant(a == b, "Q5a = Q5b");
    }
    if let (Some(q8), Some(q12b)) = (count(Q8), count(Q12b)) {
        invariant((q8 > 0) == (q12b == 1), "Q12b = (Q8 non-empty)");
    }
}

/// Counts every sample of a pass as an operation: it fails if the query
/// failed or its count differs from the reference.
fn check_pass(list: &[QuerySpec], pass: &Pass, reference: &[Option<u64>], checker: &mut Checker) {
    for ((spec, got), want) in list.iter().zip(&pass.counts).zip(reference) {
        checker.check(got.is_some() && got == want, || {
            format!(
                "{} returned {got:?}, reference {want:?}",
                spec.query.label()
            )
        });
    }
}

/// Per-query samples across passes.
struct Samples(Vec<Vec<Option<f64>>>);

impl Samples {
    fn new(queries: usize) -> Samples {
        Samples(vec![Vec::new(); queries])
    }

    fn push(&mut self, pass: &Pass) {
        for (samples, s) in self.0.iter_mut().zip(&pass.seconds) {
            samples.push(*s);
        }
    }

    /// A query's summary; `None` if any of its samples failed.
    fn summary(&self, i: usize) -> Option<Summary> {
        let ok: Option<Vec<f64>> = self.0[i].iter().copied().collect();
        ok.filter(|v| !v.is_empty()).map(|v| summarize(&v))
    }

    /// Per-query medians, `None` for a query with a failed sample.
    fn medians(&self) -> Vec<Option<f64>> {
        (0..self.0.len())
            .map(|i| self.summary(i).map(|s| s.median))
            .collect()
    }
}

fn engine_over(store: SharedStore) -> QueryEngine {
    QueryEngine::new(store)
        .parallelism(PARALLELISM)
        .timeout(QUERY_TIMEOUT)
}

/// Everything one set-up repetition builds.
struct Built {
    engine: QueryEngine,
    /// The resident store of the same document (the disk workload's
    /// reference for cross-store agreement).
    resident: SharedStore,
    graph: Graph,
    doc_bytes: usize,
    terms: usize,
    disk_bytes: u64,
    dict_bytes: u64,
    stages: Stages,
}

fn build(disk: bool, seed: u64, scratch: &Scratch, tr: &mut Tracer) -> Built {
    let mut stages = Stages::default();
    tr.enter("setup");
    let loaded = pipeline::load(SCALE, seed, tr, &mut stages);
    let resident = loaded.store.into_shared();
    let (mut disk_bytes, mut dict_bytes) = (0, 0);
    let engine = if disk {
        let dir = scratch.path().join("segments");
        disk_bytes = pipeline::save(&dir, &loaded.graph, tr, &mut stages).bytes;
        dict_bytes = pipeline::dict_bytes(&dir);
        let store = pipeline::open(&dir, Some(CACHE_SMALL), tr, &mut stages);
        engine_over(store.into_shared())
    } else {
        engine_over(resident.clone())
    };
    tr.exit();
    Built {
        engine,
        resident,
        graph: loaded.graph,
        doc_bytes: loaded.doc.len(),
        terms: loaded.terms,
        disk_bytes,
        dict_bytes,
        stages,
    }
}

fn cache_delta(after: CacheStats, before: CacheStats) -> (f64, f64, f64) {
    (
        (after.hits - before.hits) as f64,
        (after.misses - before.misses) as f64,
        (after.evictions - before.evictions) as f64,
    )
}

/// Runs `protocol-resident-50k` (`disk = false`) or `protocol-disk-50k`.
pub fn run(disk: bool, args: RunArgs) -> Outcome {
    let mut tr = Tracer::new(args.trace, Instant::now());
    let mut m = Measured::default();
    let mut checker = Checker::default();
    let scratch = Scratch::new(if disk {
        "protocol-disk"
    } else {
        "protocol-resident"
    });
    let list = query_list(disk);

    // Set-up, repeated from nothing; the last repetition is the one used.
    let mut stage_reps = Vec::new();
    let (built, setup_s) = repeat_setup(|| {
        let b = build(disk, args.seed, &scratch, &mut tr);
        stage_reps.push(b.stages.clone());
        b
    });
    let engine = &built.engine;

    // First pass: untimed warm-up, and the reference every later sample
    // must reproduce. The disk store must also agree with the resident
    // store of the same document.
    let warm = Instant::now();
    let reference = run_pass(engine, &list, &mut tr).counts;
    if disk {
        let resident = run_pass(&engine_over(built.resident.clone()), &list, &mut tr).counts;
        if resident != reference {
            checker.problem(format!(
                "disk counts {reference:?} differ from resident counts {resident:?}"
            ));
        }
    }
    let warmup_s = warm.elapsed().as_secs_f64();
    verify_reference(&list, &reference, args.seed, &mut checker);
    if built.graph.len() as u64 != SCALE || engine.store().len() as u64 != SCALE {
        checker.problem(format!("store holds {} triples", engine.store().len()));
    }

    let budget = Duration::from_secs_f64(args.seconds);
    if !args.trace {
        let mut samples = Samples::new(list.len());
        let cost = SectionCost::start();
        let walls = timed_passes(budget, |_| {
            let pass = run_pass(engine, &list, &mut tr);
            check_pass(&list, &pass, &reference, &mut checker);
            samples.push(&pass);
        });
        cost.finish(walls.len(), &mut m);
        EndToEnd {
            setup_reps_s: &setup_s,
            warmup_s,
            load_s: &stage_reps.iter().map(Stages::load_s).collect::<Vec<_>>(),
            kind_medians: &samples.medians(),
        }
        .record(&mut m);
        return Outcome {
            measured: m,
            checker,
            tracer: tr,
        };
    }

    // Traced run: untraced and traced passes alternate, so both see the
    // same machine state; their per-pass medians give the overhead.
    let mut samples = Samples::new(list.len());
    let (mut untraced_s, mut traced_s) = (Vec::new(), Vec::new());
    let mut layer_s: [Vec<f64>; 3] = Default::default();
    let mut cache: [Vec<f64>; 3] = Default::default();
    let first_query_span = tr.mark();
    timed_passes(budget.mul_f64(if disk { 0.5 } else { 0.6 }), |i| {
        let traced = i % 2 == 1;
        tr.set_enabled(traced);
        let mark = tr.mark();
        let before = engine.cache_stats();
        let t = Instant::now();
        let pass = run_pass(engine, &list, &mut tr);
        let wall = t.elapsed().as_secs_f64();
        check_pass(&list, &pass, &reference, &mut checker);
        if let (Some(after), Some(before)) = (engine.cache_stats(), before) {
            let (hits, misses, evictions) = cache_delta(after, before);
            cache[0].push(hits / (hits + misses).max(1.0));
            cache[1].push(misses);
            cache[2].push(evictions);
        }
        if traced {
            traced_s.push(wall);
            samples.push(&pass);
            let totals = tr.totals_since(mark);
            for (samples, name) in
                layer_s
                    .iter_mut()
                    .zip(["sparql.parse", "sparql.plan", "sparql.exec"])
            {
                samples.push(totals.get(name).copied().unwrap_or(0) as f64 / 1e9);
            }
        } else {
            untraced_s.push(wall);
        }
    });
    tr.set_enabled(true);
    m.set_exact(
        "core.trace_overhead_pct",
        trace_overhead_pct(&untraced_s, &traced_s),
    );
    m.set_exact(
        "core.span_coverage",
        child_coverage(&tr.spans()[first_query_span..], "query:"),
    );
    for (i, spec) in list.iter().enumerate() {
        if let Some(s) = samples.summary(i) {
            m.set(&query_metric(spec.query.label()), s);
        }
    }
    for (samples, name) in layer_s
        .iter()
        .zip(["sparql.parse_s", "sparql.plan_s", "sparql.exec_s"])
    {
        m.set(name, summarize(samples));
    }

    if disk {
        for (samples, name) in cache.iter().zip([
            "store.cache_hit_ratio",
            "store.cache_misses",
            "store.cache_evictions",
        ]) {
            m.set(name, summarize(samples));
        }
        let peak = engine.cache_stats().map_or(0, |c| c.peak_resident_bytes);
        m.set_exact("store.cache_peak_bytes", peak as f64);
        m.set_exact("store.disk_bytes", built.disk_bytes as f64);
        m.set_exact("store.dict_bytes", built.dict_bytes as f64);
        m.set_exact(
            "store.disk_bytes_per_triple",
            built.disk_bytes as f64 / SCALE as f64,
        );

        // The fit phase: same segments, a cache that holds every block.
        tr.set_enabled(false);
        let dir = scratch.path().join("segments");
        let fit = pipeline::open(&dir, Some(CACHE_FIT), &mut tr, &mut Stages::default());
        let fit = engine_over(fit.into_shared());
        let mut fit_samples = Samples::new(list.len());
        check_pass(
            &list,
            &run_pass(&fit, &list, &mut tr),
            &reference,
            &mut checker,
        );
        timed_passes(budget.mul_f64(0.25), |_| {
            let pass = run_pass(&fit, &list, &mut tr);
            check_pass(&list, &pass, &reference, &mut checker);
            fit_samples.push(&pass);
        });
        if fit.cache_stats().is_some_and(|c| c.evictions > 0) {
            checker.problem("the fit phase evicted blocks".to_owned());
        }
        m.set_exact("store.fit_ta_s", penalised_means(&fit_samples.medians()).0);
        for (name, q) in [
            ("store.fit_q4_s", BenchQuery::Q4),
            ("store.fit_q5b_s", BenchQuery::Q5b),
        ] {
            let i = list
                .iter()
                .position(|s| s.query == q)
                .expect("in the disk list");
            if let Some(s) = fit_samples.summary(i) {
                m.set(name, s);
            }
        }
        tr.set_enabled(true);
    }

    let queries: Vec<BenchQuery> = list.iter().map(|s| s.query).collect();
    layers::pipeline_metrics(&stage_reps, SCALE, built.doc_bytes, &mut m);
    m.set_exact("store.terms", built.terms as f64);
    layers::rdf_write(&built.graph, &mut m);
    layers::store_probes(engine.store(), args.seed, &mut m);
    layers::sparql_counts(engine.shared_store(), &queries, &mut m);
    layers::sparql_agg(engine, &mut m);
    layers::sparql_serialize(engine, &mut m);
    layers::core_measure_overhead(&mut m);
    m.set_exact("core.fail_ratio", checker.fail_ratio());
    Outcome {
        measured: m,
        checker,
        tracer: tr,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lists_follow_the_paper_order_and_the_disk_cut() {
        let resident = query_list(false);
        assert_eq!(resident.len(), 17);
        let disk: Vec<&str> = query_list(true).iter().map(|s| s.query.label()).collect();
        assert_eq!(
            disk,
            [
                "Q1", "Q2", "Q3a", "Q3b", "Q3c", "Q4", "Q5b", "Q8", "Q9", "Q10", "Q11", "Q12b",
                "Q12c"
            ]
        );
        assert!(resident.iter().all(|s| s.reps >= 1));
        for (q, _) in PINNED_50K {
            assert!(resident.iter().any(|s| s.query == q));
        }
    }

    #[test]
    fn a_failed_sample_penalises_the_means() {
        let mut samples = Samples::new(2);
        samples.push(&Pass {
            seconds: vec![Some(1.0), Some(4.0)],
            counts: vec![Some(1), Some(1)],
        });
        assert_eq!(penalised_means(&samples.medians()).0, 2.5);
        samples.push(&Pass {
            seconds: vec![Some(1.0), None],
            counts: vec![Some(1), None],
        });
        assert_eq!(samples.summary(1), None);
        assert_eq!(penalised_means(&samples.medians()).0, (1.0 + 3600.0) / 2.0);
    }

    #[test]
    fn reference_invariants_are_checked_for_any_seed() {
        let list = query_list(false);
        let mut counts: Vec<Option<u64>> = PINNED_50K.iter().map(|p| Some(p.1)).collect();
        let mut checker = Checker::default();
        verify_reference(&list, &counts, Rng::DEFAULT_SEED, &mut checker);
        assert!(checker.correct(), "{:?}", checker.problems);
        // Another seed: pins do not apply, invariants do.
        counts[1] = Some(700);
        verify_reference(&list, &counts, 7, &mut checker);
        assert!(checker.correct(), "{:?}", checker.problems);
        counts[7] = Some(574); // Q5b != Q5a
        verify_reference(&list, &counts, 7, &mut checker);
        assert_eq!(checker.problems, ["invariant broken: Q5a = Q5b"]);
    }
}
