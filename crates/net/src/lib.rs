//! `dynfo-net` — the networked serving tier over `dynfo-serve`.
//!
//! This crate puts the durable session store on the wire:
//!
//! * [`proto`] — a length-prefixed binary protocol sharing the
//!   journal's frame discipline (`len`/`crc32`/payload, versioned
//!   handshake), decoded with the same paranoid bounds checks;
//! * [`Server`] — a multi-threaded listener; each connection binds a
//!   session from a shared [`SessionStore`](dynfo_serve::SessionStore)
//!   and speaks strict request/response;
//! * [`Admission`] — backpressure: writes are shed with a typed
//!   `Overloaded` frame when the in-flight cap or the journal's
//!   fsync-latency p99 says the box is past its knee. Reads are never
//!   shed;
//! * [`Replica`] — log-shipping read replicas: followers pull the
//!   primary's group-committed journal suffix, replay it through their
//!   own durable session (so a follower restart uses the standard
//!   recovery ladder), and serve reads behind a read-only server;
//! * [`loadgen`] — a closed-loop load generator, also available as the
//!   `loadgen` binary.
//!
//! Everything is std-only: sockets are `std::net`, threads are
//! `std::thread`, and the codec is the hand-rolled one from
//! `dynfo-serve` — no async runtime, no serialization framework.

#![warn(missing_docs)]

pub mod backpressure;
pub mod client;
pub mod error;
pub mod loadgen;
pub mod proto;
pub mod registry;
pub mod replica;
pub mod server;

mod obs;

pub use backpressure::{Admission, AdmissionConfig};
pub use client::Client;
pub use error::NetError;
pub use proto::{ErrorCode, Message, MAX_BATCH, MAX_WIRE_FRAME, WIRE_VERSION};
pub use registry::ProgramRegistry;
pub use replica::{Replica, ReplicaConfig};
pub use server::{
    install_signal_handlers, request_shutdown, shutdown_requested, Server, ServerConfig,
};
