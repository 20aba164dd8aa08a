//! Streaming N-Triples loaders: the parallel sharded loader (one
//! parser/interner thread routing encoded triples through bounded
//! channels to per-shard builder threads) and the segment saver.

use std::fs::File;
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::sync::mpsc::sync_channel;
use std::time::Duration;

use sp2b_rdf::ntriples::{Error, Parser};

use crate::dictionary::{Dictionary, IdTriple};
use crate::segment::{write_segments, SegmentError, SegmentStats};
use crate::shard::{build_shard, route, ShardBackend, ShardBy, ShardedStore};
use crate::traits::TripleStore;

/// Why a `sp2b save` failed: the N-Triples source did not parse, or the
/// segment files could not be written.
#[derive(Debug)]
pub enum SaveError {
    /// The N-Triples source is malformed (or unreadable).
    Parse(Error),
    /// Writing the segment directory failed.
    Segment(SegmentError),
}

impl std::fmt::Display for SaveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SaveError::Parse(e) => write!(f, "parsing N-Triples: {e}"),
            SaveError::Segment(e) => write!(f, "writing segments: {e}"),
        }
    }
}

impl std::error::Error for SaveError {}

impl From<Error> for SaveError {
    fn from(e: Error) -> Self {
        SaveError::Parse(e)
    }
}

impl From<SegmentError> for SaveError {
    fn from(e: SegmentError) -> Self {
        SaveError::Segment(e)
    }
}

/// Triples per routed batch: batches amortize channel overhead while the
/// bounded channel keeps the parser from running unboundedly ahead of a
/// slow shard builder.
const ROUTE_BATCH: usize = 4096;

/// In-flight batches per shard channel (the backpressure bound).
const ROUTE_CHANNEL_DEPTH: usize = 4;

/// Streams an N-Triples source into a [`ShardedStore`] with **parallel
/// load**: this thread parses and interns terms into the shared
/// dictionary (ids in document order, identical to an unsharded load)
/// and routes each encoded triple by its partition hash through a
/// bounded channel to one of `shards` builder threads. Mem-backed
/// shards insert as batches arrive; native-backed shards accumulate and
/// then sort their runs — the index build runs concurrently across
/// shards and overlaps the tail of parsing.
///
/// A parse error aborts the load: channels close, builders drain and
/// join, and the error is returned (no partial store escapes).
pub fn sharded_store_from_reader<R: BufRead>(
    reader: R,
    shards: usize,
    shard_by: ShardBy,
    backend: ShardBackend,
) -> Result<ShardedStore, Error> {
    let n = shards.max(1);
    let mut dict = Dictionary::new();
    let (built, parse_error) = std::thread::scope(|scope| {
        let mut txs = Vec::with_capacity(n);
        let mut handles = Vec::with_capacity(n);
        for _ in 0..n {
            let (tx, rx) = sync_channel::<Vec<IdTriple>>(ROUTE_CHANNEL_DEPTH);
            txs.push(tx);
            handles.push(scope.spawn(move || build_shard(backend, rx.into_iter())));
        }
        let mut bufs: Vec<Vec<IdTriple>> =
            (0..n).map(|_| Vec::with_capacity(ROUTE_BATCH)).collect();
        let mut parse_error = None;
        for triple in Parser::new(reader) {
            match triple {
                Ok(t) => {
                    let enc = dict.encode_triple(&t);
                    let shard = shard_by.shard_of(&enc, n);
                    bufs[shard].push(enc);
                    if bufs[shard].len() >= ROUTE_BATCH
                        && txs[shard].send(std::mem::take(&mut bufs[shard])).is_err()
                    {
                        break; // builder gone (it panicked); join reports it
                    }
                }
                Err(e) => {
                    parse_error = Some(e);
                    break;
                }
            }
        }
        if parse_error.is_none() {
            for (tx, buf) in txs.iter().zip(bufs) {
                if !buf.is_empty() {
                    let _ = tx.send(buf);
                }
            }
        }
        drop(txs); // closes the channels: builders finish and exit
        let built: Vec<(Box<dyn TripleStore>, Duration)> = handles
            .into_iter()
            .map(|h| h.join().expect("shard builder thread panicked"))
            .collect();
        (built, parse_error)
    });
    match parse_error {
        Some(e) => Err(e),
        None => Ok(ShardedStore::assemble(dict, shard_by, built)),
    }
}

/// Streams an N-Triples source into a segment directory (see
/// [`crate::segment`] for the on-disk format): terms are interned in
/// document order, triples are routed into `shards` buckets, and each
/// bucket's sorted runs are written as fixed-size checksummed blocks
/// under a per-run first-key index. The saved directory reopens via
/// [`crate::disk::open_store`] without reparsing, and serves scans
/// through a byte-budgeted block cache.
pub fn save_segments_from_reader<R: BufRead>(
    reader: R,
    dir: &Path,
    shards: usize,
    shard_by: ShardBy,
) -> Result<SegmentStats, SaveError> {
    let (dict, buckets) = route(Parser::new(reader), shards, shard_by)?;
    Ok(write_segments(dir, &dict, shard_by, buckets)?)
}

/// Saves an N-Triples file as a segment directory (see
/// [`save_segments_from_reader`]).
pub fn save_segments_from_path(
    path: &Path,
    dir: &Path,
    shards: usize,
    shard_by: ShardBy,
) -> Result<SegmentStats, SaveError> {
    let file = File::open(path).map_err(Error::from)?;
    save_segments_from_reader(
        BufReader::with_capacity(1 << 16, file),
        dir,
        shards,
        shard_by,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::native::{IndexSelection, NativeStore};
    use sp2b_rdf::Graph;

    const DOC: &str = "\
<http://x/s1> <http://x/p> <http://x/o1> .
<http://x/s2> <http://x/p> \"v\"^^<http://www.w3.org/2001/XMLSchema#string> .
_:b1 <http://x/p> <http://x/o1> .
";

    #[test]
    fn parse_errors_propagate() {
        let bad = "<unterminated\n";
        assert!(sharded_store_from_reader(
            bad.as_bytes(),
            2,
            ShardBy::Subject,
            ShardBackend::Native(IndexSelection::all())
        )
        .is_err());
    }

    #[test]
    fn sharded_load_matches_unsharded() {
        // A document larger than one route batch, so batching and the
        // final flush both run.
        let mut doc = String::new();
        for i in 0..(ROUTE_BATCH + 100) {
            doc.push_str(&format!(
                "<http://x/s{}> <http://x/p{}> <http://x/o{}> .\n",
                i % 211,
                i % 7,
                i % 53
            ));
        }
        let graph: Graph = Parser::new(doc.as_bytes())
            .collect::<Result<_, _>>()
            .unwrap();
        let flat = NativeStore::from_graph(&graph);
        for shards in [1, 2, 5] {
            let sharded = sharded_store_from_reader(
                doc.as_bytes(),
                shards,
                ShardBy::Subject,
                ShardBackend::Native(IndexSelection::all()),
            )
            .unwrap();
            assert_eq!(sharded.len(), flat.len(), "{shards} shards");
            assert_eq!(sharded.shard_count(), shards);
            // The shared dictionary interns in document order: ids agree
            // with the unsharded load.
            let p = flat.resolve(&sp2b_rdf::Term::iri("http://x/p3")).unwrap();
            assert_eq!(
                sharded.resolve(&sp2b_rdf::Term::iri("http://x/p3")),
                Some(p)
            );
            assert_eq!(
                sharded.scan([None, Some(p), None]).count(),
                flat.scan([None, Some(p), None]).count()
            );
        }
    }

    #[test]
    fn sharded_mem_load_works() {
        let sharded = sharded_store_from_reader(
            DOC.as_bytes(),
            2,
            ShardBy::PredicateSubject,
            ShardBackend::Mem,
        )
        .unwrap();
        assert_eq!(sharded.len(), 3);
        let p = sharded.resolve(&sp2b_rdf::Term::iri("http://x/p")).unwrap();
        assert_eq!(sharded.scan([None, Some(p), None]).count(), 3);
    }
}
