//! # dynfo-core
//!
//! The paper's primary contribution: dynamic complexity machinery
//! (requests, Dyn-FO programs, the executing machine) and the library of
//! first-order update programs from Section 4.

pub mod machine;
mod rules;
pub mod native;
pub mod programs;
pub mod program;
pub mod request;

pub use machine::{
    check_memoryless, run_with_oracle, BatchError, DynFoMachine, InstallStats,
    MachineError, MachineStats,
};
pub use program::{DynFoProgram, Init, ProgramBuilder, RecomputeFn, UpdateRule};
pub use request::{apply_to_input, eval_requests, Op, Request, RequestError, RequestKind};
