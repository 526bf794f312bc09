//! # bench-harness — regenerate every table and figure of the paper
//!
//! One function per experiment in the paper's evaluation (§IV), plus the
//! §V-derived extensions, each returning structured results with its claims
//! as methods. [`EXPERIMENTS`] is the one table mapping every artifact name
//! to the function that runs its sweep and describes the artifact as a
//! [`Doc`]; the `reproduce` binary loops over it (`reproduce --help` prints
//! it), and [`Doc`] owns the CSV/JSON rendering and the claim check.

#![warn(missing_docs)]

mod adapt;
pub mod doc;
mod experiments;
mod registry;

pub use adapt::*;
pub use doc::Doc;
pub use experiments::*;
pub use registry::*;
