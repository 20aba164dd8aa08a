//! # sp2b-sparql — SPARQL query engine substrate
//!
//! A from-scratch SPARQL engine covering the operator inventory of the
//! SP²Bench queries (Table II): `SELECT`/`ASK`, basic graph patterns,
//! `AND` (joins), `OPTIONAL` (left joins with conditions — the
//! closed-world-negation encoding of Q6/Q7), `UNION`, `FILTER`
//! (comparisons, boolean connectives, `bound`), the solution modifiers
//! `DISTINCT`, `ORDER BY`, `LIMIT`, `OFFSET`, and the `GROUP BY`/`COUNT`
//! aggregation extension as a first-class plan operator.
//!
//! Pipeline: [`parser::parse`] → [`algebra::translate_query`] →
//! [`optimizer::optimize`] → [`plan::bind`] → [`eval::EvalContext`].
//!
//! The [`api`] module wraps it into the [`QueryEngine`] facade: prepare a
//! query once, then stream it ([`QueryEngine::solutions`] yields lazy
//! [`Solution`] rows that decode terms on demand), materialize it
//! ([`QueryEngine::execute`]) or count it ([`QueryEngine::count`], which
//! never decodes a term — the result-size-harness path).
//!
//! Execution is morsel-driven by default ([`QueryOptions::parallelism`],
//! default = available cores): the [`plan::Plan::Exchange`] operator
//! splits a driving scan into chunks, evaluates them on the consumer's
//! thread while the query is short, and hands the rest to **detached**
//! worker threads once it has proved long (see [`par`]); they stream
//! their results through a bounded channel — identical results (and
//! order) to sequential evaluation, flat memory at the merge. The engine
//! *owns* its store
//! (`Arc<dyn TripleStore>`), so engines are cheap to clone and share
//! across client threads — the long-lived-server shape.
//!
//! ```
//! use sp2b_rdf::Term;
//! use sp2b_store::{sharded_store_from_reader, ShardBackend, ShardBy, TripleStore};
//! use sp2b_sparql::QueryEngine;
//!
//! let doc = "<http://x/s> <http://x/p> <http://x/o> .\n";
//! let store = sharded_store_from_reader(doc.as_bytes(), 1, ShardBy::Subject, ShardBackend::Mem);
//! let store = store.unwrap();
//!
//! let engine = QueryEngine::new(store.into_shared());
//! let prepared = engine.prepare("SELECT ?s WHERE { ?s <http://x/p> ?o }").unwrap();
//!
//! // Counting decodes nothing…
//! assert_eq!(engine.count(&prepared).unwrap(), 1);
//! // …streaming decodes only the columns you read…
//! let first = engine.solutions(&prepared).next().unwrap().unwrap();
//! assert_eq!(first.get(0), Some(Term::iri("http://x/s")));
//! // …and execute materializes everything.
//! assert_eq!(engine.execute(&prepared).unwrap().row_count(), 1);
//! ```

pub mod algebra;
pub mod api;
pub mod ast;
pub mod eval;
pub mod expr;
pub mod lexer;
pub mod optimizer;
pub mod par;
pub mod parser;
pub mod plan;
pub mod results;

pub use api::{
    query_trace, Error, Prepared, QueryEngine, QueryOptions, QueryResult, Solution, Solutions,
};
pub use ast::Query;
pub use eval::{Bindings, Cancellation, EvalContext, ScanCounters, StepState};
pub use optimizer::OptimizerConfig;
pub use parser::{parse, ParseError};

/// Test stores, loaded from a graph's N-Triples along the store's one
/// load route.
#[cfg(test)]
pub(crate) mod testing {
    use sp2b_rdf::Graph;
    use sp2b_store::{
        sharded_store_from_reader, IndexSelection, ShardBackend, ShardBy, ShardedStore,
    };

    pub const NATIVE: ShardBackend = ShardBackend::Native(IndexSelection::all());

    /// `g` as one unsharded store of `backend`.
    pub fn load(g: &Graph, backend: ShardBackend) -> ShardedStore {
        sharded(g, 1, ShardBy::Subject, backend)
    }

    /// `g` as `shards` shards of `backend`, partitioned by `by`.
    pub fn sharded(g: &Graph, shards: usize, by: ShardBy, backend: ShardBackend) -> ShardedStore {
        sharded_store_from_reader(&g.to_ntriples()[..], shards, by, backend)
            .expect("valid N-Triples")
    }
}
