//! # NVTraverse: durably linearizable traversal data structures
//!
//! This crate implements the primary contribution of *"NVTraverse: In NVRAM
//! Data Structures, the Destination is More Important than the Journey"*
//! (Friedman, Ben-David, Wei, Blelloch, Petrank — PLDI 2020): an **automatic
//! transformation** that takes a lock-free *traversal data structure* and
//! injects flush and fence instructions so that the result is provably
//! **durably linearizable** on non-volatile main memory.
//!
//! A traversal data structure (paper §3) is a node-based core-tree structure
//! whose every operation decomposes into three methods, called in order:
//!
//! 1. `findEntry` — pick an entry point into the core tree,
//! 2. `traverse`  — walk down making only local decisions, reading but never
//!    writing shared memory, and return a suffix of the path,
//! 3. `critical`  — perform the modifications (or compute the return value),
//!    possibly asking to restart.
//!
//! The transformation (paper §4, Algorithm 2) persists **nothing during the
//! traversal**. Between `traverse` and `critical` it runs two injected steps:
//! `ensureReachable` (flush the pointer that connects the returned window to
//! the rest of the tree) and `makePersistent` (flush the fields the traversal
//! read in the returned nodes; the paper's fence after it is merged into the
//! next Protocol 2 fence). Inside `critical`, Protocol 2 applies: flush
//! after every shared read and every write/CAS, fence before every
//! write/CAS and before returning. [`NvTraverse`] tracks which cache lines
//! hold a write still waiting for its writer's fence and skips every
//! read-side flush of any other line, which would persist nothing — so a
//! lookup of quiescent state costs no flush and no fence.
//!
//! ## How this crate encodes the transformation
//!
//! The paper's flush placement is captured once, in the
//! [`Durability`] policy trait, and the data structures (in
//! `nvtraverse-structures`) are written against that instrumented memory
//! interface. Instantiating the same structure with a different policy yields
//! the different systems compared in the paper's evaluation:
//!
//! | Policy | Paper series | Behaviour |
//! |--------|--------------|-----------|
//! | [`Volatile`] | "orig" | no persistence at all |
//! | [`NvTraverse<B>`] | "Traverse" | the paper's transformation |
//! | [`Izraelevitz<B>`] | "Izraelevitz" | flush+fence after *every* shared access |
//! | [`LinkPersist<B>`] | "Log Free" | David et al.'s link-and-persist (dirty-bit tagged links) |
//! | [`Soft<B>`] | SOFT (related work) | Zuriel et al.'s minimal flushing: volatile links, one validity flush per update |
//!
//! where `B` is a flush/fence [`Backend`](nvtraverse_pmem::Backend):
//! [`MmapBackend`](nvtraverse_pmem::MmapBackend) for the real instructions
//! (counted into `nvtraverse-obs`, on volatile memory or a persistent pool
//! file), the crash simulator, or the no-op backend.
//!
//! ## Living in pool files — plural
//!
//! With the `nvtraverse-pool` crate, a structure's nodes live in a
//! memory-mapped pool file and survive process death — and pools are
//! **first-class**: open as many as you like in one process. Build a pool
//! with `Pool::builder()`, then use the typed-root API ([`TypedRoots`]):
//! `pool.create_root::<S>("name")` to create a named structure inside it,
//! `pool.root::<S>("name")` to attach + recover it after a restart — each
//! returns a [`PooledHandle`]. Every structure carries its own allocation
//! context ([`alloc::PoolCtx`]), so [`alloc::alloc_node`]/[`alloc::free`]
//! route each structure's node memory to *its* pool with no process-global
//! state (where the paper's `libvmmalloc` takes over the whole process's
//! heap, §5.1). See `examples/pool_restart.rs`,
//! `tests/crash_process.rs`, and `nvtraverse_structures::sharded` for the
//! N-pools-at-once form.
//!
//! ## Example
//!
//! ```
//! use nvtraverse::policy::{Durability, NvTraverse, Volatile};
//! use nvtraverse_obs as obs;
//! use nvtraverse_pmem::{MmapBackend, Noop, PCell};
//!
//! type D = NvTraverse<MmapBackend>;
//!
//! // A shared cell read in a critical section: NVTraverse flushes it while
//! // a write to it is waiting for its fence...
//! let cell: PCell<u64, MmapBackend> = PCell::new(5);
//! D::c_store(&cell, 6);
//! let (c, _) = obs::counted(|| D::c_load(&cell));
//! assert!(c.flushes == 1 || !obs::enabled());
//!
//! // ...and not once that write is fenced: the flush would persist nothing.
//! D::before_return();
//! let (c, _) = obs::counted(|| D::c_load(&cell));
//! assert_eq!(c.flushes, 0);
//!
//! // The original algorithm never flushes.
//! let cell: PCell<u64, Noop> = PCell::new(5);
//! let _ = Volatile::c_load(&cell);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod alloc;
pub mod detect;
pub mod marked;
pub mod model;
pub mod ops;
pub mod policy;
pub mod set;

pub use alloc::PoolCtx;
pub use detect::{ArmHandle, DetectablePool, OpError, OpToken};
pub use marked::MarkedPtr;
pub use pool::{OpId, OpOutcome};
pub use ops::{run_operation, Critical, PersistSet, TraversalOps};
pub use policy::{Durability, Izraelevitz, LinkPersist, NvTraverse, Soft, Volatile};
pub use set::{
    drain_collector, register_pool_tracer, restore_pool_tracer, DurableSet, PoolAttach,
    PoolTrace, PooledHandle, TypedRoots,
};

/// Convenience re-export of the persistence substrate.
pub use nvtraverse_pmem as pmem;

/// Convenience re-export of the persistent pool (file-backed heap).
pub use nvtraverse_pool as pool;

/// Convenience re-export of the epoch-based reclamation crate.
pub use nvtraverse_ebr as ebr;
