//! Test stores, each loaded from a graph's N-Triples along the store's
//! one load route.

#![allow(dead_code)]

use sp2b_rdf::Graph;
use sp2b_store::{sharded_store_from_reader, IndexSelection, ShardBackend, ShardBy, ShardedStore};

pub const NATIVE: ShardBackend = ShardBackend::Native(IndexSelection::all());

/// `g` as one unsharded store of `backend`.
pub fn load(g: &Graph, backend: ShardBackend) -> ShardedStore {
    sharded_store_from_reader(&g.to_ntriples()[..], 1, ShardBy::Subject, backend)
        .expect("valid N-Triples")
}
