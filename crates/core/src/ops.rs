//! The generic operation driver: the paper's Algorithm 2, executable.
//!
//! A data structure exposes its three methods through [`TraversalOps`] and
//! [`run_operation`] composes them, *automatically* inserting the
//! `ensureReachable` and `makePersistent` steps of Protocol 1 between the
//! traversal and the critical method:
//!
//! ```text
//! T operation(Node root, T' input) {
//!   while (true) {
//!     Node entry = findEntry(root, input);
//!     List<Node> nodes = traverse(entry, input);
//!     ensureReachable(nodes.first());            // injected
//!     makePersistent(nodes);                     // injected
//!     bool restart, T val = critical(nodes, input);
//!     if (!restart) return val; } }
//! ```
//!
//! The driver is generic over the structure's [`Durability`] policy, so the
//! very same `TraversalOps` implementation yields the original algorithm, the
//! NVTraverse version, or a baseline, depending on one type parameter.

use crate::policy::Durability;
use nvtraverse_ebr::Guard;

/// Maximum number of field addresses one traversal may ask to persist.
///
/// Protocol 1 flushes only fields of the traversal's returned *window*, which
/// every structure in this repository bounds by a small constant (the paper's
/// key point: O(1) flushes after an O(n) journey).
pub const MAX_PERSIST_FIELDS: usize = 16;

/// The set of addresses Protocol 1 must persist before the critical method.
///
/// Collected by [`TraversalOps::collect_persist_set`]; the driver hands the
/// parent address to [`Durability::ensure_reachable`] and the field addresses
/// to [`Durability::make_persistent`].
#[derive(Debug)]
pub struct PersistSet {
    parent: Option<*const u8>,
    fields: [*const u8; MAX_PERSIST_FIELDS],
    len: usize,
}

impl Default for PersistSet {
    fn default() -> Self {
        Self::new()
    }
}

impl PersistSet {
    /// An empty persist set.
    pub fn new() -> Self {
        PersistSet {
            parent: None,
            fields: [std::ptr::null(); MAX_PERSIST_FIELDS],
            len: 0,
        }
    }

    /// Records the address of the pointer that keeps the window reachable
    /// (the original/current parent link — Lemma 4.1).
    pub fn set_parent(&mut self, addr: *const u8) {
        self.parent = Some(addr);
    }

    /// Adds one field address the traversal read in a returned node.
    /// Duplicates are dropped — a window's left/right nodes often share
    /// fields, and each address needs only one flush per Protocol 1 round.
    ///
    /// # Panics
    ///
    /// Panics if more than [`MAX_PERSIST_FIELDS`] distinct fields are
    /// added — a traversal data structure must return an O(1)-size window.
    pub fn push(&mut self, addr: *const u8) {
        if self.fields[..self.len].contains(&addr) {
            return;
        }
        assert!(
            self.len < MAX_PERSIST_FIELDS,
            "persist window exceeded MAX_PERSIST_FIELDS; \
             is this really a traversal data structure?"
        );
        self.fields[self.len] = addr;
        self.len += 1;
    }

    /// The recorded parent address, if any.
    pub fn parent(&self) -> Option<*const u8> {
        self.parent
    }

    /// The recorded field addresses.
    pub fn fields(&self) -> &[*const u8] {
        &self.fields[..self.len]
    }
}

/// Outcome of a critical method: either the operation's value or a restart
/// request (Algorithm 1's `restart` flag).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Critical<T> {
    /// The operation attempt completed with this value.
    Done(T),
    /// The attempt lost a race; re-run `findEntry → traverse → critical`
    /// with the *same input* (paper §3: "restart with the same input values
    /// as before").
    Restart,
}

/// The three methods of a traversal data structure (paper §3, Algorithm 1).
///
/// Property 3 (Operation Data) is enforced structurally: each method receives
/// only the operation input, the entry/window produced by the previous stage,
/// and an epoch guard — no other channel exists between attempts.
pub trait TraversalOps {
    /// The durability policy the structure was instantiated with.
    type D: Durability;
    /// The operation input (key, value, operation kind).
    type Input: Copy;
    /// The operation result.
    type Output;
    /// An entry point into the core tree.
    type Entry: Copy;
    /// The window of nodes returned by the traversal (a path suffix).
    type Window;

    /// Picks the entry point for this input (may simply return the root).
    fn find_entry(&self, guard: &Guard, input: Self::Input) -> Self::Entry;

    /// Walks from `entry` making only local decisions; reads shared memory
    /// but never writes it (Property 4).
    fn traverse(&self, guard: &Guard, entry: Self::Entry, input: Self::Input) -> Self::Window;

    /// Reports which addresses Protocol 1 must persist for this window: the
    /// parent link that keeps the window reachable and the mutable fields the
    /// traversal read in the returned nodes.
    fn collect_persist_set(&self, window: &Self::Window, out: &mut PersistSet);

    /// Performs the modifications (Protocol 2 is applied by calling the
    /// `c_*` methods of [`Durability`]) or computes the return value.
    fn critical(
        &self,
        guard: &Guard,
        window: Self::Window,
        input: Self::Input,
    ) -> Critical<Self::Output>;
}

/// Runs one operation on a traversal data structure (Algorithm 2).
///
/// Retries on [`Critical::Restart`] and issues the Protocol 1 and
/// return-fence persistence steps automatically. This function *is* the
/// automatic part of the transformation: a structure author writes the three
/// methods and never reasons about flushes between them.
pub fn run_operation<S: TraversalOps>(structure: &S, guard: &Guard, input: S::Input) -> S::Output {
    loop {
        let entry = structure.find_entry(guard, input);
        let window = structure.traverse(guard, entry, input);
        let mut persist = PersistSet::new();
        structure.collect_persist_set(&window, &mut persist);
        if let Some(parent) = persist.parent() {
            // `make_persistent` flushes every field anyway, so a parent
            // that is also a field would be flushed twice; the next
            // Protocol 2 fence drains both in either order.
            if !persist.fields().contains(&parent) {
                <S::D as Durability>::ensure_reachable(parent);
            }
        }
        <S::D as Durability>::make_persistent(persist.fields());
        match structure.critical(guard, window, input) {
            Critical::Done(value) => {
                <S::D as Durability>::before_return();
                return value;
            }
            Critical::Restart => continue,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{NvTraverse, Volatile};
    use nvtraverse_ebr::Collector;
    use nvtraverse_pmem::{Backend, MmapBackend, PCell};
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// A fake one-cell "structure" that restarts a configurable number of
    /// times, to pin down the driver's control flow.
    struct Bouncer<D: Durability> {
        cell: PCell<u64, D::B>,
        restarts_left: AtomicUsize,
        traversals: AtomicUsize,
    }

    impl<D: Durability> TraversalOps for Bouncer<D> {
        type D = D;
        type Input = u64;
        type Output = u64;
        type Entry = ();
        type Window = u64;

        fn find_entry(&self, _g: &Guard, _i: u64) {}
        fn traverse(&self, _g: &Guard, _e: (), _i: u64) -> u64 {
            self.traversals.fetch_add(1, Ordering::Relaxed);
            self.cell.load()
        }
        fn collect_persist_set(&self, _w: &u64, out: &mut PersistSet) {
            out.set_parent(self.cell.addr());
            out.push(self.cell.addr());
        }
        fn critical(&self, _g: &Guard, w: u64, input: u64) -> Critical<u64> {
            if self.restarts_left.load(Ordering::Relaxed) > 0 {
                self.restarts_left.fetch_sub(1, Ordering::Relaxed);
                return Critical::Restart;
            }
            Critical::Done(w + input)
        }
    }

    #[test]
    fn driver_returns_critical_value() {
        let b = Bouncer::<Volatile> {
            cell: PCell::new(40),
            restarts_left: AtomicUsize::new(0),
            traversals: AtomicUsize::new(0),
        };
        let c = Collector::new();
        let g = c.pin();
        assert_eq!(run_operation(&b, &g, 2), 42);
        assert_eq!(b.traversals.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn driver_reruns_full_attempt_on_restart() {
        let b = Bouncer::<Volatile> {
            cell: PCell::new(0),
            restarts_left: AtomicUsize::new(3),
            traversals: AtomicUsize::new(0),
        };
        let c = Collector::new();
        let g = c.pin();
        let _ = run_operation(&b, &g, 1);
        // 3 restarts + 1 success = 4 complete attempts, each re-traversing.
        assert_eq!(b.traversals.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn driver_issues_protocol_one_per_attempt() {
        let b = Bouncer::<NvTraverse<MmapBackend>> {
            cell: PCell::new(0),
            restarts_left: AtomicUsize::new(1),
            traversals: AtomicUsize::new(0),
        };
        let c = Collector::new();
        let g = c.pin();
        // A write to the cell is waiting for its fence, so Protocol 1 must
        // flush it.
        MmapBackend::hold(b.cell.addr());
        let (d, _) = nvtraverse_obs::counted(|| run_operation(&b, &g, 1));
        // Two attempts: the parent is also the (sole) persist-set field, so
        // `ensure_reachable` is skipped and each attempt is one flush.
        // makePersistent does not fence and the critical section writes
        // nothing, so both attempts' flushes drain at the one closing
        // before_return fence.
        assert_eq!(d.flushes, 2);
        assert_eq!(d.fences, 1);
        // That fence released the line: the same operation is now free.
        b.restarts_left.store(1, Ordering::Relaxed);
        let (d, _) = nvtraverse_obs::counted(|| run_operation(&b, &g, 1));
        assert_eq!((d.flushes, d.fences), (0, 0));
    }

    #[test]
    fn driver_flushes_distinct_parent_separately() {
        /// Like `Bouncer` but with a parent link distinct from the window
        /// field, so Protocol 1 must flush both.
        struct TwoCell {
            parent: PCell<u64, MmapBackend>,
            field: PCell<u64, MmapBackend>,
        }
        impl TraversalOps for TwoCell {
            type D = NvTraverse<MmapBackend>;
            type Input = ();
            type Output = ();
            type Entry = ();
            type Window = ();

            fn find_entry(&self, _g: &Guard, _i: ()) {}
            fn traverse(&self, _g: &Guard, _e: (), _i: ()) {}
            fn collect_persist_set(&self, _w: &(), out: &mut PersistSet) {
                out.set_parent(self.parent.addr());
                out.push(self.field.addr());
                out.push(self.field.addr()); // duplicate: must be dropped
            }
            fn critical(&self, _g: &Guard, _w: (), _i: ()) -> Critical<()> {
                Critical::Done(())
            }
        }
        let s = TwoCell {
            parent: PCell::new(0),
            field: PCell::new(0),
        };
        let c = Collector::new();
        let g = c.pin();
        // Writes to both cells are waiting for their fence.
        MmapBackend::hold(s.parent.addr());
        MmapBackend::hold(s.field.addr());
        let (d, ()) = nvtraverse_obs::counted(|| run_operation(&s, &g, ()));
        // ensure_reachable(parent) + make_persistent([field]), drained by
        // the closing fence; the duplicated field is flushed once.
        assert_eq!(d.flushes, 2);
        assert_eq!(d.fences, 1);
    }

    #[test]
    fn persist_set_capacity_is_enforced() {
        let mut ps = PersistSet::new();
        for i in 0..MAX_PERSIST_FIELDS {
            ps.push((8 * (i + 1)) as *const u8);
        }
        assert!(std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            ps.push((8 * (MAX_PERSIST_FIELDS + 1)) as *const u8)
        }))
        .is_err());
    }

    #[test]
    fn persist_set_drops_duplicate_fields() {
        let mut ps = PersistSet::new();
        ps.push(8 as *const u8);
        ps.push(16 as *const u8);
        ps.push(8 as *const u8);
        assert_eq!(ps.fields(), &[8 as *const u8, 16 as *const u8]);
    }

    #[test]
    fn persist_set_records_parent_and_fields() {
        let mut ps = PersistSet::new();
        assert!(ps.parent().is_none());
        ps.set_parent(8 as *const u8);
        ps.push(16 as *const u8);
        ps.push(24 as *const u8);
        assert_eq!(ps.parent(), Some(8 as *const u8));
        assert_eq!(ps.fields(), &[16 as *const u8, 24 as *const u8]);
    }
}
