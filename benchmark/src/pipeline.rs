//! The write path, stage by stage: generate → N-Triples bytes → parse →
//! intern → build. It is the whole of the `ingest-250k` workload and
//! the set-up of the three 50k workloads, so `load_s` (the paper's
//! loading time: N-Triples bytes → queryable native store) is measured
//! by the same code everywhere.

use std::path::{Path, PathBuf};
use std::time::Instant;

use sp2b_datagen::{generate_to_writer, Config};
use sp2b_rdf::ntriples::Parser;
use sp2b_rdf::{Graph, Triple};
use sp2b_store::{
    open_store_with, save_graph, sharded_store_from_reader, Dictionary, IdTriple, IndexSelection,
    NativeStore, SegmentStats, ShardBackend, ShardBy, ShardedStore, TripleStore,
};

use crate::trace::Tracer;

pub const GEN: &str = "datagen.gen";
pub const PARSE: &str = "rdf.parse";
pub const INTERN: &str = "store.intern";
pub const BUILD: &str = "store.build";
pub const BUILD_SHARDED2: &str = "store.build_sharded2";
pub const SAVE: &str = "store.save";
pub const OPEN: &str = "store.open";

/// The stages whose sum is the paper's loading time.
pub const LOAD_STAGES: [&str; 3] = [PARSE, INTERN, BUILD];

/// Seconds per stage of one pass, in execution order.
#[derive(Default, Clone)]
pub struct Stages(Vec<(&'static str, f64)>);

impl Stages {
    /// Runs `f` as stage `name`: one span, one timing.
    pub fn run<T>(&mut self, tr: &mut Tracer, name: &'static str, f: impl FnOnce() -> T) -> T {
        tr.enter(name);
        let start = Instant::now();
        let value = f();
        self.0.push((name, start.elapsed().as_secs_f64()));
        tr.exit();
        value
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, s)| *s)
    }

    pub fn load_s(&self) -> f64 {
        LOAD_STAGES.iter().map(|s| self.get(s)).sum()
    }

    pub fn iter(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.0.iter().copied()
    }
}

/// A document loaded into a resident native store, with what later
/// stages need: the N-Triples bytes (streaming shard load) and the
/// graph (`save_graph`).
pub struct Loaded {
    pub doc: Vec<u8>,
    pub graph: Graph,
    pub store: NativeStore,
    pub terms: usize,
}

/// generate → parse → intern → build, each a stage.
pub fn load(scale: u64, seed: u64, tr: &mut Tracer, stages: &mut Stages) -> Loaded {
    let doc = stages.run(tr, GEN, || {
        let mut doc = Vec::new();
        generate_to_writer(Config::triples(scale).with_seed(seed), &mut doc)
            .expect("writing to a Vec cannot fail");
        doc
    });
    let triples: Vec<Triple> = stages.run(tr, PARSE, || {
        Parser::new(&doc[..])
            .collect::<Result<_, _>>()
            .expect("the generator writes valid N-Triples")
    });
    let (dict, encoded) = stages.run(tr, INTERN, || {
        let mut dict = Dictionary::new();
        let encoded: Vec<IdTriple> = triples.iter().map(|t| dict.encode_triple(t)).collect();
        (dict, encoded)
    });
    let terms = dict.len();
    let store = stages.run(tr, BUILD, || {
        NativeStore::from_encoded(dict, encoded, IndexSelection::all())
    });
    Loaded {
        doc,
        graph: triples.into_iter().collect(),
        store,
        terms,
    }
}

/// The streaming 2-shard load of the same bytes (parser thread routing
/// to two builder threads).
pub fn build_sharded2(doc: &[u8], tr: &mut Tracer, stages: &mut Stages) -> ShardedStore {
    stages.run(tr, BUILD_SHARDED2, || {
        sharded_store_from_reader(
            doc,
            2,
            ShardBy::Subject,
            ShardBackend::Native(IndexSelection::all()),
        )
        .expect("the generator writes valid N-Triples")
    })
}

/// Saves `graph` as a fresh one-shard segment directory.
pub fn save(dir: &Path, graph: &Graph, tr: &mut Tracer, stages: &mut Stages) -> SegmentStats {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).expect("creating the segment directory");
    stages.run(tr, SAVE, || {
        save_graph(dir, graph, 1, ShardBy::Subject).expect("saving segments")
    })
}

pub fn open(
    dir: &Path,
    cache_bytes: Option<u64>,
    tr: &mut Tracer,
    stages: &mut Stages,
) -> ShardedStore {
    stages.run(tr, OPEN, || {
        open_store_with(dir, cache_bytes).expect("reopening saved segments")
    })
}

pub fn dict_bytes(dir: &Path) -> u64 {
    std::fs::metadata(dir.join(sp2b_store::segment::DICT_FILE)).map_or(0, |m| m.len())
}

/// The benchmark's scratch directory, `benchmark/out/` — inside the
/// checkout, named by `.gitignore`, and the only place a run writes.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// A scratch directory private to this process, removed on drop.
pub struct Scratch(PathBuf);

impl Scratch {
    pub fn new(label: &str) -> Scratch {
        let dir = out_dir().join(format!("{label}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("creating the scratch directory");
        Scratch(dir)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// What one full ingest pass produced, for the correctness gate and the
/// exact counts.
pub struct IngestPass {
    pub stages: Stages,
    pub doc_bytes: usize,
    pub doc_hash: u64,
    pub terms: usize,
    pub disk_bytes: u64,
    pub dict_bytes: u64,
    /// `len()` of the native, sharded and reopened stores.
    pub lens: [usize; 3],
}

/// One pass of the `ingest-250k` workload.
pub fn ingest_pass(scale: u64, seed: u64, dir: &Path, tr: &mut Tracer) -> IngestPass {
    let mut stages = Stages::default();
    tr.enter("ingest");
    let loaded = load(scale, seed, tr, &mut stages);
    let sharded = build_sharded2(&loaded.doc, tr, &mut stages);
    let saved = save(dir, &loaded.graph, tr, &mut stages);
    let reopened = open(dir, None, tr, &mut stages);
    tr.exit();
    IngestPass {
        doc_bytes: loaded.doc.len(),
        doc_hash: fx_hash(&loaded.doc),
        terms: loaded.terms,
        disk_bytes: saved.bytes,
        dict_bytes: dict_bytes(dir),
        lens: [loaded.store.len(), sharded.len(), reopened.len()],
        stages,
    }
}

/// The store crate's Fx hash over a byte string (document identity).
pub fn fx_hash(bytes: &[u8]) -> u64 {
    use std::hash::Hasher as _;
    let mut h = sp2b_store::hash::FxHasher::default();
    h.write(bytes);
    h.finish()
}
