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
//! use sp2b_rdf::{Graph, Iri, Subject, Term};
//! use sp2b_store::{MemStore, TripleStore};
//! use sp2b_sparql::QueryEngine;
//!
//! let mut g = Graph::new();
//! g.add(Subject::iri("http://x/s"), Iri::new("http://x/p"), Term::iri("http://x/o"));
//! let store = MemStore::from_graph(&g);
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
