//! # dynfo — Dyn-FO: A Parallel, Dynamic Complexity Class
//!
//! A Rust reproduction of Patnaik & Immerman's PODS 1994 paper. The
//! paper defines *dynamic complexity classes*: a problem is in `Dyn-FO`
//! when a database of auxiliary relations can be maintained such that
//! every insert/delete/set request — and the membership query — is
//! answered by a **first-order formula** (equivalently: by one
//! relational-calculus query; equivalently: in O(1) parallel time on a
//! CRAM). Strikingly, many problems that are *not* static-FO are
//! dynamic-FO: undirected reachability, minimum spanning forests,
//! bipartiteness, k-edge connectivity, maximal matching, all regular
//! languages, multiplication, Dyck languages.
//!
//! This crate re-exports the whole workspace:
//!
//! * [`logic`] — finite structures, FO formulas (+parser), and an
//!   evaluator that compiles FO to relational algebra and to
//!   word-kernel plans; the CRAM depth measure.
//! * [`core`] — the Dyn-FO machinery (requests, programs, machines) and
//!   every Section 4 update program as executable FO formulas, plus
//!   native fast-path mirrors.
//! * [`graph`] — static graph algorithms (oracles and baselines).
//! * [`automata`] — DFAs/regex and the Theorem 4.6 composition tree;
//!   dynamic Dyck languages (Proposition 4.8).
//! * [`arith`] — bit vectors, FO carry-lookahead addition, dynamic
//!   multiplication (Proposition 4.7).
//! * [`reductions`] — first-order interpretations, bounded-expansion
//!   measurement, the Proposition 5.3 transfer theorem, configuration
//!   graphs, COLOR-REACH, and PAD(REACH_a) (Section 5).
//! * [`serve`] — the durable serving layer: request journal (WAL),
//!   state snapshots, crash recovery, and a concurrent session store.
//! * [`net`] — the networked serving tier on top of [`serve`]: a
//!   length-prefixed binary wire protocol reusing the journal codec, a
//!   multi-threaded TCP server with admission control/backpressure, and
//!   log-shipping read replicas that replay the primary's journal.
//! * [`obs`] — the observability substrate: a lock-free metrics
//!   registry (counters, gauges, log₂ histograms) fed by every layer
//!   above, structured span tracing, and Prometheus/table exporters.
//!   `dynfo::obs::global().render_table()` shows what a machine has
//!   been doing; building with `--no-default-features` compiles every
//!   recording call away.
//!
//! ## Quick start
//!
//! ```
//! use dynfo::core::{DynFoMachine, Request};
//! use dynfo::core::programs::reach_u;
//!
//! // A Dyn-FO machine for undirected reachability on 8 vertices.
//! let mut m = DynFoMachine::new(reach_u::program(), 8);
//! m.apply(&Request::ins("E", [0, 1])).unwrap();
//! m.apply(&Request::ins("E", [1, 2])).unwrap();
//! assert!(m.query_named("connected", &[0, 2]).unwrap());
//! m.apply(&Request::del("E", [1, 2])).unwrap();
//! assert!(!m.query_named("connected", &[0, 2]).unwrap());
//! ```

pub use dynfo_arith as arith;
pub use dynfo_automata as automata;
pub use dynfo_graph as graph;
pub use dynfo_logic as logic;
pub use dynfo_net as net;
pub use dynfo_obs as obs;
pub use dynfo_reductions as reductions;
pub use dynfo_serve as serve;

/// The Dyn-FO machinery and the Section 4 program library.
pub mod core {
    pub use dynfo_core::*;
}

#[cfg(test)]
mod smoke {
    #[test]
    fn facade_reexports_compile() {
        let v = crate::logic::Vocabulary::new().with_relation("E", 2);
        assert_eq!(v.num_relations(), 1);
        let p = crate::core::programs::parity::program();
        assert_eq!(p.name(), "parity");
    }
}
