//! # sp2b-bench — harness utilities behind the `sp2b` CLI.

pub mod args;
pub mod experiments;

pub use args::Args;
