//! Stores and engines for the integration tests, each loaded from a
//! graph's N-Triples along the store's one load route.

#![allow(dead_code)]

use sp2bench::core::{Engine, EngineKind, StoreLayout};
use sp2bench::rdf::Graph;
use sp2bench::store::{
    sharded_store_from_reader, IndexSelection, ShardBackend, ShardBy, ShardedStore,
};

pub const NATIVE: ShardBackend = ShardBackend::Native(IndexSelection::all());

/// `g` as one unsharded store of `backend`.
pub fn load(g: &Graph, backend: ShardBackend) -> ShardedStore {
    sharded(g, 1, ShardBy::Subject, backend)
}

/// `g` as `shards` shards of `backend`, partitioned by `by`.
pub fn sharded(g: &Graph, shards: usize, by: ShardBy, backend: ShardBackend) -> ShardedStore {
    sharded_store_from_reader(&g.to_ntriples()[..], shards, by, backend).expect("valid N-Triples")
}

/// `g` loaded into an engine of `kind` as one store.
pub fn loaded(kind: EngineKind, g: &Graph) -> Engine {
    loaded_with(kind, g, &StoreLayout::default())
}

/// `g` loaded into an engine of `kind` laid out as `layout`.
pub fn loaded_with(kind: EngineKind, g: &Graph, layout: &StoreLayout) -> Engine {
    Engine::load(kind, &g.to_ntriples()[..], layout).expect("valid N-Triples")
}
