//! Benchmark harness utilities: everything the `table*`/`ablation*` binaries
//! share — running the three methods on a problem from a common initial
//! solution, computing improvement percentages, and printing paper-style
//! tables.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod harness;
pub mod scale;

pub use harness::{
    default_methods, initial_solution, print_table, run_circuit,
    run_circuit_with_fallback, run_rows, CircuitRow, Method, MethodResult, TableOptions,
};
