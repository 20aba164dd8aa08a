//! `ingest-250k`: the write path and nothing else. One pass generates
//! 250k triples into an in-memory N-Triples buffer, parses and interns
//! them, builds the native store, streams the same bytes into a 2-shard
//! store, saves the graph as segments and reopens them. sparql and
//! server never run, so a scan-side gain bought with build time or bytes
//! (six permutations instead of three, bigger blocks) shows here.

use std::time::{Duration, Instant};

use sp2b_datagen::{generate_to_writer, Config};

use crate::harness::{
    repeat_setup, timed_passes, trace_overhead_pct, Checker, EndToEnd, Outcome, RunArgs,
    SectionCost,
};
use crate::layers;
use crate::pipeline::{self, fx_hash, IngestPass, Scratch, Stages};
use crate::spec::Measured;
use crate::stats::{median, summarize};
use crate::trace::{child_coverage, Tracer};

pub const SCALE: u64 = 250_000;

/// The document every pass must regenerate byte for byte.
struct Reference {
    doc_bytes: usize,
    doc_hash: u64,
}

/// Counts one pass as three operations: every store holds the whole
/// document, the generated bytes are the reference bytes, and the saved
/// segments have the size the first pass wrote.
fn check_pass(pass: &IngestPass, reference: &Reference, disk_bytes: u64, checker: &mut Checker) {
    checker.check(pass.lens.iter().all(|&n| n as u64 == SCALE), || {
        format!("store lengths {:?}, expected {SCALE}", pass.lens)
    });
    checker.check(
        pass.doc_bytes == reference.doc_bytes && pass.doc_hash == reference.doc_hash,
        || "the generator did not repeat its document".to_owned(),
    );
    checker.check(pass.disk_bytes == disk_bytes, || {
        format!(
            "segments took {} bytes, first pass {disk_bytes}",
            pass.disk_bytes
        )
    });
}

pub fn run(args: RunArgs) -> Outcome {
    let mut tr = Tracer::new(args.trace, Instant::now());
    let mut m = Measured::default();
    let mut checker = Checker::default();

    // Set-up: the scratch directory and the reference document.
    let ((scratch, reference), setup_s) = repeat_setup(|| {
        let scratch = Scratch::new("ingest");
        let mut doc = Vec::new();
        generate_to_writer(Config::triples(SCALE).with_seed(args.seed), &mut doc)
            .expect("writing to a Vec cannot fail");
        let reference = Reference {
            doc_bytes: doc.len(),
            doc_hash: fx_hash(&doc),
        };
        (scratch, reference)
    });
    let dir = scratch.path().join("segments");

    let warm = Instant::now();
    let first = pipeline::ingest_pass(SCALE, args.seed, &dir, &mut tr);
    let warmup_s = warm.elapsed().as_secs_f64();
    check_pass(&first, &reference, first.disk_bytes, &mut checker);

    let budget = Duration::from_secs_f64(args.seconds);
    let mut passes: Vec<Stages> = Vec::new();
    if !args.trace {
        let cost = SectionCost::start();
        let walls = timed_passes(budget, |_| {
            let pass = pipeline::ingest_pass(SCALE, args.seed, &dir, &mut tr);
            check_pass(&pass, &reference, first.disk_bytes, &mut checker);
            passes.push(pass.stages);
        });
        cost.finish(walls.len(), &mut m);
        // The operation kinds of this workload are the pipeline's stages.
        let stage_medians: Vec<Option<f64>> = first
            .stages
            .iter()
            .map(|(name, _)| {
                Some(median(
                    &passes.iter().map(|p| p.get(name)).collect::<Vec<_>>(),
                ))
            })
            .collect();
        EndToEnd {
            setup_reps_s: &setup_s,
            warmup_s,
            load_s: &passes.iter().map(Stages::load_s).collect::<Vec<_>>(),
            kind_medians: &stage_medians,
        }
        .record(&mut m);
        return Outcome {
            measured: m,
            checker,
            tracer: tr,
        };
    }

    let (mut untraced_s, mut traced_s) = (Vec::new(), Vec::new());
    let first_pass_span = tr.mark();
    timed_passes(budget.mul_f64(0.85), |i| {
        let traced = i % 2 == 1;
        tr.set_enabled(traced);
        let t = Instant::now();
        let pass = pipeline::ingest_pass(SCALE, args.seed, &dir, &mut tr);
        let wall = t.elapsed().as_secs_f64();
        check_pass(&pass, &reference, first.disk_bytes, &mut checker);
        if traced {
            traced_s.push(wall);
            passes.push(pass.stages);
        } else {
            untraced_s.push(wall);
        }
    });
    tr.set_enabled(true);
    m.set("core.ingest_s", summarize(&untraced_s));
    m.set_exact(
        "core.trace_overhead_pct",
        trace_overhead_pct(&untraced_s, &traced_s),
    );
    m.set_exact(
        "core.span_coverage",
        child_coverage(&tr.spans()[first_pass_span..], "ingest"),
    );
    layers::pipeline_metrics(&passes, SCALE, first.doc_bytes, &mut m);
    m.set_exact("store.terms", first.terms as f64);
    m.set_exact("store.disk_bytes", first.disk_bytes as f64);
    m.set_exact("store.dict_bytes", first.dict_bytes as f64);
    m.set_exact(
        "store.disk_bytes_per_triple",
        first.disk_bytes as f64 / SCALE as f64,
    );
    let graph = pipeline::load(SCALE, args.seed, &mut tr, &mut Stages::default()).graph;
    layers::rdf_write(&graph, &mut m);
    layers::core_measure_overhead(&mut m);
    m.set_exact("core.fail_ratio", checker.fail_ratio());
    Outcome {
        measured: m,
        checker,
        tracer: tr,
    }
}
