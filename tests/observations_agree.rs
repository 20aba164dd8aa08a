//! One walk, three observations: `count`, the streamed `solutions` and
//! the materialized `execute` read the same plan walk with different
//! liberties (skip the sort and the projection; stop at one row), and
//! must agree beyond the benchmark's 22 queries — on the solution
//! modifiers stacked the way endpoint logs stack them, and on ASK over
//! every operator a witness walk passes through. Each shape runs on a
//! resident native store, over 3 shards and from saved segments, at
//! parallelism 1, 2 and 4.

use std::path::PathBuf;

use sp2bench::datagen::{generate_graph, Config};
use sp2bench::sparql::{QueryEngine, QueryOptions};
use sp2bench::store::{
    open_store, save_graph, IndexSelection, NativeStore, ShardBackend, ShardBy, ShardedStore,
    SharedStore, TripleStore,
};

const TRIPLES: u64 = 5_000;

/// Solution-modifier stacks, and whether each must come out empty.
const MODIFIED: [(&str, bool); 5] = [
    (
        "SELECT DISTINCT ?yr ?a WHERE { ?doc dcterms:issued ?yr . ?doc dc:creator ?a }
         ORDER BY DESC(?yr) ?a LIMIT 40 OFFSET 7",
        false,
    ),
    (
        "SELECT ?j WHERE { ?j rdf:type bench:Journal } OFFSET 100000",
        true,
    ),
    ("SELECT ?s WHERE { ?s ?p ?o } LIMIT 0", true),
    ("SELECT DISTINCT * WHERE { ?doc rdf:type ?class }", false),
    (
        "SELECT ?yr (COUNT(*) AS ?n) WHERE { ?doc rdf:type bench:Article . ?doc dcterms:issued ?yr }
         GROUP BY ?yr ORDER BY DESC(?n) ?yr LIMIT 3 OFFSET 1",
        false,
    ),
];

/// Group bodies an ASK and its `SELECT *` twin share: an OPTIONAL, an
/// `OPTIONAL … FILTER(!bound)` anti-join, a UNION, a FILTER and a
/// Q5a-shaped `?x = ?y` hash join, each once answered yes and once no.
const ASKED: [&str; 10] = [
    "?doc rdf:type bench:Article OPTIONAL { ?doc swrc:pages ?pages }",
    "?doc rdf:type bench:Journal OPTIONAL { ?doc swrc:pages ?pages } ?doc bench:nope ?x",
    "?doc dc:creator ?a OPTIONAL { ?doc swrc:pages ?pages } FILTER (!bound(?pages))",
    "?doc rdf:type bench:Article OPTIONAL { ?doc dc:title ?t } FILTER (!bound(?t))",
    "{ ?x rdf:type bench:Journal } UNION { ?x rdf:type bench:Book }",
    "{ ?x rdf:type bench:Journal . ?x bench:nope ?y } UNION { ?x swrc:pages 0 }",
    "?doc dcterms:issued ?yr FILTER (?yr > 1950)",
    "?doc dcterms:issued ?yr FILTER (?yr < 1900)",
    "?article rdf:type bench:Article . ?article dc:creator ?person1 .
     ?inproc rdf:type bench:Inproceedings . ?inproc dc:creator ?person2 .
     ?person1 foaf:name ?name1 . ?person2 foaf:name ?name2
     FILTER (?name1 = ?name2)",
    "?article rdf:type bench:Article . ?article dc:creator ?person1 .
     ?inproc rdf:type bench:Inproceedings . ?inproc dc:creator ?person2 .
     ?person1 foaf:name ?name1 . ?person2 foaf:name ?name2
     FILTER (?name1 = ?name2 && ?name1 = \"nobody\")",
];

/// A scratch directory under the system temp dir, removed on drop.
struct TempDir(PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The three layouts, by name; the directory lives as long as the disk
/// store reads it.
fn stores(tag: &str) -> (TempDir, Vec<(&'static str, SharedStore)>) {
    let (graph, _) = generate_graph(Config::triples(TRIPLES));
    let dir =
        TempDir(std::env::temp_dir().join(format!("sp2b-observe-{}-{tag}", std::process::id())));
    let _ = std::fs::remove_dir_all(&dir.0);
    std::fs::create_dir(&dir.0).expect("create scratch dir");
    save_graph(&dir.0, &graph, 2, ShardBy::Subject).expect("save");
    let sharded = ShardedStore::from_graph(
        &graph,
        3,
        ShardBy::Subject,
        ShardBackend::Native(IndexSelection::all()),
    );
    let stores = vec![
        ("resident", NativeStore::from_graph(&graph).into_shared()),
        ("3 shards", sharded.into_shared()),
        ("disk", open_store(&dir.0).expect("open").into_shared()),
    ];
    (dir, stores)
}

fn engines(stores: &[(&'static str, SharedStore)]) -> Vec<(String, QueryEngine)> {
    let mut out = Vec::new();
    for (name, store) in stores {
        for degree in [1, 2, 4] {
            let options = QueryOptions::new().parallelism(degree);
            let engine = QueryEngine::with_options(store.clone(), options);
            out.push((format!("{name} at parallelism {degree}"), engine));
        }
    }
    out
}

/// `count`, the streamed solutions and the materialized row count.
fn observed(engine: &QueryEngine, text: &str) -> [u64; 3] {
    let prepared = engine
        .prepare(text)
        .unwrap_or_else(|e| panic!("{text}: {e}"));
    let counted = engine.count(&prepared).expect("counts");
    let streamed = engine.solutions(&prepared).collect::<Result<Vec<_>, _>>();
    let streamed = streamed.expect("streams").len() as u64;
    let executed = engine.execute(&prepared).expect("executes").row_count() as u64;
    [counted, streamed, executed]
}

#[test]
fn count_stream_and_execute_agree_under_stacked_modifiers() {
    let (_dir, stores) = stores("modified");
    for (name, engine) in engines(&stores) {
        for (text, empty) in MODIFIED {
            let [counted, streamed, executed] = observed(&engine, text);
            assert_eq!(counted, streamed, "{name}: {text}");
            assert_eq!(counted, executed, "{name}: {text}");
            assert_eq!(counted == 0, empty, "{name}: {text} counted {counted}");
        }
    }
}

#[test]
fn every_ask_answers_whether_its_select_twin_has_a_row() {
    let (_dir, stores) = stores("asked");
    let mut answers = [0; 2];
    for (name, engine) in engines(&stores) {
        for body in ASKED {
            let ask = format!("ASK {{ {body} }}");
            let [select, ..] = observed(&engine, &format!("SELECT * WHERE {{ {body} }}"));
            let yes = select > 0;
            assert_eq!(
                observed(&engine, &ask),
                [u64::from(yes); 3],
                "{name}: {ask}"
            );
            let prepared = engine.prepare(&ask).expect("parses");
            let answer = engine.execute(&prepared).expect("executes").as_bool();
            assert_eq!(answer, Some(yes), "{name}: {ask}");
            answers[usize::from(yes)] += 1;
        }
    }
    assert_eq!(
        answers,
        [5 * 9, 5 * 9],
        "each shape answered once yes, once no"
    );
}
