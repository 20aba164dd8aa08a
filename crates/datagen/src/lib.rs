//! # sp2b-datagen — the SP²Bench data generator
//!
//! A from-scratch Rust implementation of the paper's DBLP-like RDF data
//! generator (Sections III and IV): deterministic, platform independent,
//! streaming (constant memory in output size), and faithful to the
//! published distribution fits — Gaussian repeated-attribute counts,
//! logistic growth of venues and publications, power-law author
//! productivity and citation in-degrees, the Table IX attribute
//! probability matrix, blank-node persons, `rdf:Bag` reference lists and
//! the scripted Paul Erdős entry point.
//!
//! ## Quick start
//!
//! ```
//! use sp2b_datagen::{generate_graph, Config};
//!
//! let (graph, stats) = generate_graph(Config::triples(10_000));
//! assert_eq!(graph.len(), 10_000);
//! assert!(stats.total_authors > 0);
//! ```

pub mod authors;
pub mod dist;
pub mod generator;
pub mod names;
pub mod params;
pub mod rng;
pub mod sink;
pub mod stats;

pub use generator::{
    generate_graph, generate_to_path, generate_to_writer, Config, Generator, Limit,
};
pub use params::{Attribute, DocClass};
pub use rng::{Rng, SplitMix64};
pub use sink::{GraphSink, NtriplesSink, NullSink, TripleSink};
pub use stats::{GeneratorStats, YearRecord};
