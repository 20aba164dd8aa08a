//! Malformed N-Triples never panics the load route: a generated
//! ~200-triple document, byte-flipped and truncated from a seeded
//! `SplitMix64`, loads at 1 and 3 shards on mem and native backends
//! into a store holding every triple that parses, or fails with a
//! one-line error naming the line — its channels closed and its builders
//! drained and joined on the way out.
//!
//! `SP2B_SEED=<n> cargo test -p sp2b-store --test malformed_ntriples`
//! replays one mutation.

use sp2b_datagen::rng::SplitMix64;
use sp2b_datagen::{generate_document, Config};
use sp2b_rdf::ntriples::Parser;
use sp2b_store::{sharded_store_from_reader, IndexSelection, ShardBackend, ShardBy, TripleStore};

/// Mutated documents per run.
const CASES: u64 = 300;

/// `doc` with one to three bytes replaced, or cut short, as seed `seed`
/// picks.
fn mutate(doc: &[u8], seed: u64) -> Vec<u8> {
    let mut rng = SplitMix64::new(seed);
    let mut out = doc.to_vec();
    let len = out.len() as u64;
    if rng.next_u64().is_multiple_of(3) {
        out.truncate((rng.next_u64() % len) as usize);
        return out;
    }
    for _ in 0..=rng.next_u64() % 3 {
        let at = (rng.next_u64() % len) as usize;
        out[at] = rng.next_u64() as u8;
    }
    out
}

#[test]
fn malformed_documents_load_or_fail_with_their_line() {
    let (doc, _) = generate_document(Config::triples(200));
    let seeds: Vec<u64> = match std::env::var("SP2B_SEED") {
        Ok(s) => vec![s.parse().expect("SP2B_SEED is a number")],
        Err(_) => (0..CASES).collect(),
    };
    let backends = [
        ShardBackend::Mem,
        ShardBackend::Native(IndexSelection::all()),
    ];
    let (mut loaded, mut failed) = (0, 0);
    for seed in seeds {
        let bad = mutate(&doc, seed);
        let parsed = Parser::new(&bad[..]).collect::<Result<Vec<_>, _>>();
        for backend in backends {
            for shards in [1, 3] {
                let tag = format!("seed {seed}, {} × {shards}", backend.label());
                match sharded_store_from_reader(&bad[..], shards, ShardBy::Subject, backend) {
                    Ok(store) => {
                        let triples = parsed.as_ref().expect("the route loads what parses");
                        assert_eq!(store.len(), triples.len(), "{tag}");
                        loaded += 1;
                    }
                    Err(e) => {
                        let line = e.to_string();
                        assert!(parsed.is_err(), "{tag}: {line}");
                        assert!(!line.contains('\n'), "{tag}: two lines: {line}");
                        assert!(line.contains("at line "), "{tag}: no line number: {line}");
                        failed += 1;
                    }
                }
            }
        }
    }
    // Both outcomes occur, so both paths of the route ran.
    if std::env::var("SP2B_SEED").is_err() {
        assert!(loaded > 0 && failed > 0, "{loaded} loaded, {failed} failed");
    }
}
