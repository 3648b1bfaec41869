//! Shared experiment harness for the paper-reproduction binaries.
//!
//! Every figure/table of the paper's evaluation has a binary in `src/bin/`
//! built on this library: it generates the synthetic dataset, extracts the
//! mislabelling pattern, injects a fault configuration, trains the 9-model
//! zoo, selects the most resilient ensemble, fits the baselines, and
//! evaluates every voting technique.
//!
//! Scale is controlled by the `REMIX_SCALE` environment variable:
//! `quick` (default — minutes on one CPU core) or `paper` (larger datasets,
//! more epochs, more seeds; closer to the paper's statistical power).

#![warn(missing_docs)]

pub mod check;
pub mod report;
pub mod runner;
pub mod scale;
pub mod soak;
pub mod viz;

pub use report::{print_rows, print_table, round, write_csv, write_record, Row};
pub use runner::{run_technique_sweep, FaultSetting, Technique, TrainedStack};
pub use scale::Scale;
