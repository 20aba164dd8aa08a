//! The one ingest route: every store streams in from N-Triples.
//!
//! parse → intern into the shared dictionary in document order → route
//! each encoded triple by [`ShardBy`] → per-shard [`build_shard`]
//! threads → [`ShardedStore`]. One shard is the unsharded layout (its
//! scans forward straight to the shard), so this is how every resident
//! store is loaded: the engines, the CLI's `--data` and `--triples`,
//! the runner and the experiments. [`route`] is the intern-and-route
//! loop, written once: the loader hands its batches to builder threads,
//! the segment savers collect them into whole buckets for
//! [`write_segments`], and `save_graph` is the one adapter from an
//! in-memory [`sp2b_rdf::Graph`].
//!
//! No owned triple travels the route. Its source lends one
//! [`TripleRef`] at a time ([`TripleSource`]): the parser out of its
//! line buffer, a graph out of its triples. The dictionary hashes the
//! borrowed strings and copies a term's bytes only the first time it
//! sees the term, so the loop allocates per batch and per new term,
//! never per triple.
//!
//! Loading time, as the paper defines it (Section VI-B), is this whole
//! route: from the document's bytes to a store that can be queried.

use std::convert::Infallible;
use std::io::BufRead;
use std::path::Path;
use std::sync::mpsc::sync_channel;

use sp2b_rdf::ntriples::{Error, Parser};
use sp2b_rdf::{Triple, TripleRef};

use crate::dictionary::{Dictionary, IdTriple};
use crate::segment::{write_segments, SegmentError, SegmentStats};
use crate::shard::{build_shard, ShardBackend, ShardBy, ShardedStore};

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

/// What the intern-and-route loop reads: one borrowed triple at a time,
/// lent until the next call, then `None` at the end or the first error.
pub(crate) trait TripleSource {
    /// Why the source stopped early.
    type Error;

    /// The next triple, if any.
    fn next_ref(&mut self) -> Result<Option<TripleRef<'_>>, Self::Error>;
}

impl<R: BufRead> TripleSource for Parser<R> {
    type Error = Error;

    fn next_ref(&mut self) -> Result<Option<TripleRef<'_>>, Error> {
        Parser::next_ref(self)
    }
}

/// A graph's triples, in order (`save_graph`).
impl TripleSource for std::slice::Iter<'_, Triple> {
    type Error = Infallible;

    fn next_ref(&mut self) -> Result<Option<TripleRef<'_>>, Infallible> {
        Ok(self.next().map(Triple::as_ref))
    }
}

/// The intern-and-route loop: interns each triple of `source` into a
/// fresh dictionary in document order (ids identical whatever the shard
/// count) and routes it by `shard_by` to one of `shards` buffers. A
/// buffer that reaches `batch` triples goes to `emit(shard, buffer)`,
/// and every non-empty one does once the source ends, so each shard's
/// triples arrive in document order. `emit` returns `false` to stop
/// early (its consumer is gone). The first source error aborts the loop
/// and is returned; nothing more is emitted then.
pub(crate) fn route<S: TripleSource>(
    mut source: S,
    shards: usize,
    shard_by: ShardBy,
    batch: usize,
    mut emit: impl FnMut(usize, Vec<IdTriple>) -> bool,
) -> Result<Dictionary, S::Error> {
    let n = shards.max(1);
    let mut dict = Dictionary::new();
    let mut bufs: Vec<Vec<IdTriple>> = vec![Vec::new(); n];
    while let Some(t) = source.next_ref()? {
        let enc = dict.encode_triple(t);
        let shard = shard_by.shard_of(&enc, n);
        bufs[shard].push(enc);
        if bufs[shard].len() >= batch {
            let full = std::mem::replace(&mut bufs[shard], Vec::with_capacity(batch));
            if !emit(shard, full) {
                return Ok(dict);
            }
        }
    }
    for (shard, buf) in bufs.into_iter().enumerate() {
        if !buf.is_empty() && !emit(shard, buf) {
            break;
        }
    }
    Ok(dict)
}

/// [`route`] into one whole bucket per shard: what a segment save
/// writes.
pub(crate) fn route_buckets<S: TripleSource>(
    source: S,
    shards: usize,
    shard_by: ShardBy,
) -> Result<(Dictionary, Vec<Vec<IdTriple>>), S::Error> {
    let mut buckets = vec![Vec::new(); shards.max(1)];
    let dict = route(source, shards, shard_by, usize::MAX, |shard, bucket| {
        buckets[shard] = bucket;
        true
    })?;
    Ok((dict, buckets))
}

/// Streams an N-Triples source into a [`ShardedStore`] of `shards`
/// shards: this thread parses and [`route`]s, and each shard's batches
/// go through a bounded channel to its own builder thread. Mem-backed
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
    std::thread::scope(|scope| {
        let (txs, builders): (Vec<_>, Vec<_>) = (0..shards.max(1))
            .map(|_| {
                let (tx, rx) = sync_channel::<Vec<IdTriple>>(ROUTE_CHANNEL_DEPTH);
                (
                    tx,
                    scope.spawn(move || build_shard(backend, rx.into_iter())),
                )
            })
            .unzip();
        // A failed send means the builder panicked; its join reports it.
        let routed = route(
            Parser::new(reader),
            shards,
            shard_by,
            ROUTE_BATCH,
            |shard, batch| txs[shard].send(batch).is_ok(),
        );
        drop(txs); // closes the channels: builders finish and exit
        let built = builders
            .into_iter()
            .map(|h| h.join().expect("shard builder thread panicked"))
            .collect();
        Ok(ShardedStore::assemble(routed?, shard_by, built))
    })
}

/// Streams an N-Triples source into a segment directory (see
/// [`crate::segment`] for the on-disk format): the [`route`] collects
/// each shard's bucket, and each bucket's sorted runs are written as
/// fixed-size checksummed blocks under a per-run first-key index. The
/// saved directory reopens via [`crate::disk::open_store`] without
/// reparsing, and serves scans through a byte-budgeted block cache.
pub fn save_segments_from_reader<R: BufRead>(
    reader: R,
    dir: &Path,
    shards: usize,
    shard_by: ShardBy,
) -> Result<SegmentStats, SaveError> {
    let (dict, buckets) = route_buckets(Parser::new(reader), shards, shard_by)?;
    Ok(write_segments(dir, &dict, shard_by, buckets)?)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::native::IndexSelection;
    use crate::traits::TripleStore;
    use sp2b_rdf::Graph;

    pub(crate) const NATIVE: ShardBackend = ShardBackend::Native(IndexSelection::all());

    /// A test graph through the route, as `shards` shards of `backend`.
    pub(crate) fn load(
        g: &Graph,
        shards: usize,
        by: ShardBy,
        backend: ShardBackend,
    ) -> ShardedStore {
        sharded_store_from_reader(&g.to_ntriples()[..], shards, by, backend)
            .expect("valid N-Triples")
    }

    const DOC: &str = "\
<http://x/s1> <http://x/p> <http://x/o1> .
<http://x/s2> <http://x/p> \"v\"^^<http://www.w3.org/2001/XMLSchema#string> .
_:b1 <http://x/p> <http://x/o1> .
";

    #[test]
    fn parse_errors_propagate() {
        let bad = "<unterminated\n";
        for backend in [NATIVE, ShardBackend::Mem] {
            for shards in [1, 2] {
                let err =
                    sharded_store_from_reader(bad.as_bytes(), shards, ShardBy::Subject, backend);
                assert!(err.err().unwrap().to_string().contains("line 1"));
            }
        }
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
        let flat = sharded_store_from_reader(doc.as_bytes(), 1, ShardBy::Subject, NATIVE).unwrap();
        assert_eq!(flat.shard_count(), 1);
        for shards in [2, 5] {
            let sharded =
                sharded_store_from_reader(doc.as_bytes(), shards, ShardBy::Subject, NATIVE)
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

    #[test]
    fn buckets_hold_each_shard_in_document_order() {
        let g: Graph = sp2b_rdf::ntriples::parse_document(DOC)
            .unwrap()
            .into_iter()
            .collect();
        let (dict, buckets) = route_buckets(g.iter(), 2, ShardBy::Subject).unwrap();
        assert_eq!(dict.len(), 6);
        assert_eq!(buckets.iter().map(Vec::len).sum::<usize>(), 3);
        for bucket in &buckets {
            assert!(bucket.windows(2).all(|w| w[0][0] <= w[1][0]), "{bucket:?}");
        }
    }
}
