//! `nvtraverse-server`: a dependency-free KV service over the durable
//! sets.
//!
//! The crate puts a network protocol in front of a
//! [`ShardedSet`](nvtraverse_structures::sharded::ShardedSet) so the
//! paper's persistence machinery can be measured and crash-tested as a
//! *service*, not just a library:
//!
//! * **Transport** (`net`, internal): Unix-domain or TCP sockets,
//!   blocking I/O, no async runtime (the workspace is offline and
//!   dependency-free by constraint). Thread-per-core accept loops, one
//!   handler thread per connection.
//! * **Protocol** ([`proto`]): length-prefixed binary frames —
//!   GET/INSERT/REMOVE, detectable variants, OP_OUTCOME, STATS,
//!   SHUTDOWN, and BATCH.
//! * **Fence amortization** ([`batch`]): a BATCH frame's operations run
//!   their link CASes and header flushes individually but share a single
//!   closing `sfence` at the batch durability point; all replies are
//!   released together after that fence (group commit — no ack escapes
//!   before its fence). With per-op fence cost F, a B-op batch costs
//!   B·(F−1)+1 fences; under SOFT (F = 1) that is exactly 1.
//! * **Store façade** ([`store`]): [`KvStore`], one trait object over
//!   the NVTraverse or SOFT sharded set. The operations are implemented
//!   once, for any shard type; only create/open pick the type, from the
//!   policy stamped on disk, so a restart always reopens what was written.
//!   Reopen *is* recovery: heap walk, GC, structure rebuild, and op-table
//!   classification.
//! * **Client** ([`client`]): a small synchronous client with a
//!   send/recv split for pipelining and helpers for every operation.
//!
//! ```no_run
//! use nvtraverse_server::{Client, KvStore, PolicyKind, Server, ServerConfig};
//!
//! let store = KvStore::create("/tmp/kv", PolicyKind::NvTraverse, 4, 1 << 24)?;
//! let server = Server::start_uds("/tmp/kv.sock", store, ServerConfig::default())?;
//! let mut client = Client::connect_uds("/tmp/kv.sock")?;
//! client.insert(1, 10)?;
//! assert_eq!(client.get(1)?, Some(10));
//! server.shutdown()?;
//! # Ok::<(), std::io::Error>(())
//! ```

#![warn(missing_docs)]

pub mod batch;
pub mod client;
mod net;
pub mod proto;
pub mod server;
pub mod store;

pub use batch::{exec_data_op, run_batch, BatchStats};
pub use client::{Client, DetectableAck, OutcomeAnswer};
pub use proto::{Reply, Request};
pub use server::{Server, ServerConfig};
pub use store::{ConnTokens, KvStore, PolicyKind};
