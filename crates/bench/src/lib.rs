//! Shared helpers for the experiment harness.
//!
//! The binary `experiments` (in `src/bin/`) regenerates the measured
//! counterpart of every Table-1 row and every lower-bound figure.

#![warn(missing_docs)]

pub mod table;

pub use table::Table;
