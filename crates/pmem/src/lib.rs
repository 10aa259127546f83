//! Persistent-memory substrate for the NVTraverse reproduction.
//!
//! The NVTraverse paper (PLDI 2020) targets machines with byte-addressable
//! non-volatile memory (Intel Optane DC): caches are volatile, main memory is
//! persistent, and a program persists a value explicitly by executing a
//! *flush* (`clwb`/`clflushopt`/`clflush`) followed by a *fence* (`sfence`).
//! A crash loses everything that has not reached persistent memory.
//!
//! This crate provides that model three times over, unified behind the
//! [`Backend`] trait so data structures are written once and instantiated
//! with any backend:
//!
//! | Backend | flush / fence | Use |
//! |---------|---------------|-----|
//! | [`MmapBackend`] | `clwb` (or `clflushopt`/`clflush`, by CPUID) / `sfence`, counted into `nvtraverse-obs` | real instructions: benchmarks, flushes/op counts, `nvtraverse-pool` heaps |
//! | [`Sim`] | routed through the crash simulator | crash-point tests |
//! | [`Noop`] | nothing | the "orig" (volatile) series |
//!
//! * **The hardware backend** ([`MmapBackend`]) issues the real x86-64
//!   instructions, choosing the flush the CPU offers, so it covers both of
//!   the paper's machines (§5.1). It gives benchmarks the true cost profile
//!   of flushes and fences even when the physical memory behind them is
//!   DRAM, and records each one into the thread's attributed
//!   `nvtraverse-obs` metric set, which is how every flushes/op figure is
//!   counted. On a DAX NVRAM mapping of a pool `clwb`/`sfence` is exactly
//!   the persistence protocol; on targets without a flush instruction each
//!   fence `msync`s the registered pool mappings instead.
//! * **A simulated backend** ([`Sim`]) models the paper's §2 persistency
//!   semantics exactly: every shared 64-bit cell ([`PCell`]) keeps a separate
//!   *persisted* copy, flushes are buffered per thread, a fence publishes the
//!   buffered flushes, and a *crash* rolls every cell back to its persisted
//!   copy — poisoning cells that were never persisted. This is the engine of
//!   the crash tests that validate durable linearizability.
//!
//! The [`heap`] module is the allocation seam between all of this and the
//! `nvtraverse-pool` crate: a registry of foreign heaps (address ranges plus
//! dealloc entry points) and a per-thread scoped allocation target, so node
//! allocation and EBR reclamation transparently target a persistent pool —
//! the `libvmmalloc` model of the paper's evaluation.
//!
//! # Example
//!
//! ```
//! use nvtraverse_pmem::{Backend, MmapBackend, PCell};
//!
//! let cell: PCell<u64, MmapBackend> = PCell::new(7);
//! cell.store(8);
//! MmapBackend::flush(cell.addr());
//! MmapBackend::fence(); // 8 is now guaranteed persistent on real NVRAM
//! assert_eq!(cell.load(), 8);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod batch;
mod backend;
mod cell;
pub mod heap;
pub mod mix;
pub mod sim;
mod word;

pub use backend::{
    cas_after_fence_pending, flushes_pending, Backend, MmapBackend, Noop, Sim, CACHE_LINE,
};
pub use cell::PCell;
pub use sim::{CrashSignal, SimHandle, SimObserver, WriteKind, POISON};
pub use word::Word;
