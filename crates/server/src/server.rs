//! The server: thread-per-core accept loops, blocking per-connection
//! handlers, group-commit batching, graceful shutdown.
//!
//! Threading model (no async runtime — ROADMAP's offline-deps
//! constraint): [`ServerConfig::workers`] acceptor threads share one
//! non-blocking listener and poll a shutdown flag; each accepted
//! connection gets its own handler thread running a strict
//! read-frame → execute → write-frame loop. Durable-set operations are
//! lock-free, so handler threads scale without a dispatcher; per-batch
//! fence amortization happens inside the handler via
//! [`run_batch`], and the reply frame is written
//! only after that call returns — i.e. after the batch's single closing
//! fence (group commit: no ack escapes before its fence).
//!
//! Shutdown (either [`Server::shutdown`] or a wire `SHUTDOWN` request):
//! stop accepting, let every in-flight request finish and flush its
//! reply, cut idle connections, join all threads, then close the store
//! (which `msync`s every shard). A crash instead of a shutdown is the
//! tested path, not a failure mode: reopening the store runs every
//! shard's recovery pipeline and the op-table classification that makes
//! acked detectable operations answerable (`tests/crash_server.rs`).

use crate::batch::run_batch;
use crate::net::{Listener, Stream};
use crate::proto::{self, Reply, Request};
use crate::store::{ConnTokens, KvStore};
use nvtraverse_obs as obs;
use nvtraverse_pool::{OpId, OpOutcome};
use std::io::Write;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning knobs for [`Server::start_uds`] / [`Server::start_tcp`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Acceptor threads sharing the listener (thread-per-core shape).
    pub workers: usize,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            workers: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(2).min(16),
        }
    }
}

/// Monotone service counters, exported in `STATS`.
#[derive(Debug, Default)]
struct Counters {
    connections: AtomicU64,
    ops: AtomicU64,
    batches: AtomicU64,
    batched_ops: AtomicU64,
    deferred_fences: AtomicU64,
    closing_batch_fences: AtomicU64,
    malformed: AtomicU64,
}

struct Shared {
    store: KvStore,
    shutdown: AtomicBool,
    /// Server-wide obs target of every handler thread. It holds the
    /// flushes/fences issued outside any shard's pool scope, such as each
    /// batch's closing fence; pool writes are re-attributed to the owning
    /// shard's set by `PoolCtx::enter`. The service total is this set plus
    /// the shard pools' sets.
    metrics: &'static obs::MetricSet,
    counters: Counters,
    conns: Mutex<Vec<Stream>>,
    handlers: Mutex<Vec<JoinHandle<()>>>,
    in_flight: AtomicUsize,
}

/// A running KV service. Dropping the handle does **not** stop it; call
/// [`Server::shutdown`].
pub struct Server {
    shared: Arc<Shared>,
    acceptors: Vec<JoinHandle<()>>,
    uds_path: Option<PathBuf>,
    tcp_addr: Option<SocketAddr>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("uds_path", &self.uds_path)
            .field("tcp_addr", &self.tcp_addr)
            .field("workers", &self.acceptors.len())
            .finish()
    }
}

impl Server {
    /// Serves `store` on a Unix-domain socket at `path` (a stale socket
    /// file from a previous crash is removed first — the pool files, not
    /// the socket, carry the durable state).
    ///
    /// # Errors
    ///
    /// Bind/clone failures.
    pub fn start_uds(
        path: impl AsRef<Path>,
        store: KvStore,
        cfg: ServerConfig,
    ) -> std::io::Result<Server> {
        let path = path.as_ref();
        let _ = std::fs::remove_file(path);
        let listener = Listener::Unix(std::os::unix::net::UnixListener::bind(path)?);
        Server::start(listener, store, cfg, Some(path.to_path_buf()))
    }

    /// Serves `store` on a TCP socket bound to `addr` (e.g.
    /// `"127.0.0.1:0"` for an ephemeral port; see [`Server::tcp_addr`]).
    ///
    /// # Errors
    ///
    /// Bind/clone failures.
    pub fn start_tcp(
        addr: impl std::net::ToSocketAddrs,
        store: KvStore,
        cfg: ServerConfig,
    ) -> std::io::Result<Server> {
        let listener = Listener::Tcp(std::net::TcpListener::bind(addr)?);
        Server::start(listener, store, cfg, None)
    }

    fn start(
        listener: Listener,
        store: KvStore,
        cfg: ServerConfig,
        uds_path: Option<PathBuf>,
    ) -> std::io::Result<Server> {
        listener.set_nonblocking(true)?;
        let tcp_addr = listener.tcp_addr();
        let shared = Arc::new(Shared {
            store,
            shutdown: AtomicBool::new(false),
            metrics: Box::leak(Box::new(obs::MetricSet::new(16))),
            counters: Counters::default(),
            conns: Mutex::new(Vec::new()),
            handlers: Mutex::new(Vec::new()),
            in_flight: AtomicUsize::new(0),
        });
        let workers = cfg.workers.max(1);
        let acceptors = (0..workers)
            .map(|i| {
                let listener = listener.try_clone()?;
                let shared = Arc::clone(&shared);
                Ok(std::thread::Builder::new()
                    .name(format!("kv-accept-{i}"))
                    .spawn(move || accept_loop(&shared, &listener))
                    .expect("spawn acceptor"))
            })
            .collect::<std::io::Result<Vec<_>>>()?;
        Ok(Server { shared, acceptors, uds_path, tcp_addr })
    }

    /// The bound TCP address (None for a UDS server).
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        self.tcp_addr
    }

    /// The UDS socket path (None for a TCP server).
    pub fn uds_path(&self) -> Option<&Path> {
        self.uds_path.as_deref()
    }

    /// Whether a `SHUTDOWN` request (or [`Server::shutdown`]) has been
    /// seen.
    pub fn shutdown_requested(&self) -> bool {
        self.shared.shutdown.load(Ordering::Acquire)
    }

    /// Blocks until a wire `SHUTDOWN` request arrives (the runnable
    /// server binary's main loop).
    pub fn wait_for_shutdown_request(&self) {
        while !self.shutdown_requested() {
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    /// The server-wide obs metric set: connection handlers' flushes/fences
    /// outside any shard pool scope (the shard pools' sets hold the rest).
    pub fn metrics(&self) -> &'static obs::MetricSet {
        self.shared.metrics
    }

    /// Data operations executed (batched + single).
    pub fn ops_executed(&self) -> u64 {
        self.shared.counters.ops.load(Ordering::Relaxed)
    }

    /// Batches executed, operations inside them, closing fences deferred
    /// by those operations, and real shared fences issued at batch
    /// durability points — the per-batch attribution quadruple.
    pub fn batch_counters(&self) -> (u64, u64, u64, u64) {
        let c = &self.shared.counters;
        (
            c.batches.load(Ordering::Relaxed),
            c.batched_ops.load(Ordering::Relaxed),
            c.deferred_fences.load(Ordering::Relaxed),
            c.closing_batch_fences.load(Ordering::Relaxed),
        )
    }

    /// Stops accepting, drains in-flight requests (for at most 5 s; see
    /// [`Server::shutdown_with`] to choose the bound), cuts idle
    /// connections, joins every thread, and closes the store.
    ///
    /// # Errors
    ///
    /// The store close error, if any (the service is down regardless).
    pub fn shutdown(self) -> std::io::Result<()> {
        self.shutdown_with(Duration::from_secs(5))
    }

    /// [`Server::shutdown`] with an explicit drain bound.
    ///
    /// # Errors
    ///
    /// The store close error, if any.
    pub fn shutdown_with(self, drain_timeout: Duration) -> std::io::Result<()> {
        let Server { shared, acceptors, uds_path, .. } = self;
        shared.shutdown.store(true, Ordering::Release);
        for a in acceptors {
            let _ = a.join();
        }
        // Let requests that already started finish and flush their
        // replies; handlers notice the flag after each frame.
        let deadline = Instant::now() + drain_timeout;
        while shared.in_flight.load(Ordering::Acquire) > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        // Unblock handlers parked in `read` on idle connections.
        for conn in shared.conns.lock().unwrap_or_else(|e| e.into_inner()).drain(..) {
            let _ = conn.shutdown_both();
        }
        let handlers: Vec<_> =
            std::mem::take(&mut *shared.handlers.lock().unwrap_or_else(|e| e.into_inner()));
        for h in handlers {
            let _ = h.join();
        }
        if let Some(path) = &uds_path {
            let _ = std::fs::remove_file(path);
        }
        match Arc::try_unwrap(shared) {
            Ok(shared) => shared.store.close(),
            Err(_) => {
                // A handler leaked its Arc (should not happen once joined);
                // still force the shards' mappings to their files.
                nvtraverse_pmem::MmapBackend::sync_all_regions();
                Ok(())
            }
        }
    }
}

fn accept_loop(shared: &Arc<Shared>, listener: &Listener) {
    while !shared.shutdown.load(Ordering::Acquire) {
        match listener.accept() {
            Ok(stream) => {
                shared.counters.connections.fetch_add(1, Ordering::Relaxed);
                if let Ok(clone) = stream.try_clone() {
                    shared.conns.lock().unwrap_or_else(|e| e.into_inner()).push(clone);
                }
                let shared2 = Arc::clone(shared);
                let handle = std::thread::Builder::new()
                    .name("kv-conn".into())
                    .spawn(move || handle_conn(&shared2, stream))
                    .expect("spawn handler");
                shared.handlers.lock().unwrap_or_else(|e| e.into_inner()).push(handle);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    }
}

/// Decrements `in_flight` even if request processing unwinds.
struct InFlightGuard<'a>(&'a AtomicUsize);

impl Drop for InFlightGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}

fn handle_conn(shared: &Arc<Shared>, mut stream: Stream) {
    // Flushes and fences outside a shard's pool scope (batch closing
    // fences) land in the server-wide set; `PoolCtx::enter` re-attributes
    // pool writes to the owning shard's set.
    let _obs = obs::attribute_to(Some(shared.metrics));
    let mut tokens = ConnTokens::new();
    // Ok(None) is clean EOF; Err covers a cut socket or a dead peer.
    while let Ok(Some(body)) = proto::read_frame(&mut stream) {
        shared.in_flight.fetch_add(1, Ordering::AcqRel);
        let guard = InFlightGuard(&shared.in_flight);
        let (reply, close_after) = process_request(shared, &mut tokens, &body);
        let mut out = Vec::with_capacity(64);
        proto::encode_reply(&reply, &mut out);
        let io_ok = proto::write_frame(&mut stream, &out).and_then(|()| stream.flush()).is_ok();
        drop(guard);
        if !io_ok || close_after || shared.shutdown.load(Ordering::Acquire) {
            break;
        }
    }
    // A clone of this stream lives in `shared.conns` (for forced close at
    // shutdown), so dropping our handle would NOT deliver EOF to the peer.
    // shutdown(2) acts on the socket itself, clones included.
    let _ = stream.shutdown_both();
}

/// Executes one framed request. Returns the reply and whether the
/// connection must close after sending it.
fn process_request(shared: &Arc<Shared>, tokens: &mut ConnTokens, body: &[u8]) -> (Reply, bool) {
    let req = match proto::decode_request(body) {
        Ok(req) => req,
        Err(e) => {
            shared.counters.malformed.fetch_add(1, Ordering::Relaxed);
            // The stream position can't be trusted after a framing error.
            return (Reply::BadRequest(e.to_string()), true);
        }
    };
    let c = &shared.counters;
    match req {
        Request::Stats => (Reply::Json(stats_json(shared)), false),
        Request::Shutdown => {
            shared.shutdown.store(true, Ordering::Release);
            (Reply::Applied, true)
        }
        Request::OpOutcome { shard, op_id } => {
            let reply = match shared.store.op_outcome(shard as usize, OpId::from_bits(op_id)) {
                Some(OpOutcome::Committed) => Reply::Outcome(0),
                Some(OpOutcome::NotApplied) => Reply::Outcome(1),
                Some(OpOutcome::Superseded) => Reply::Outcome(2),
                None => Reply::Unknown,
            };
            (reply, false)
        }
        Request::Batch(subs) => {
            let (replies, stats) = run_batch(&shared.store, tokens, &subs);
            c.ops.fetch_add(stats.ops, Ordering::Relaxed);
            c.batches.fetch_add(1, Ordering::Relaxed);
            c.batched_ops.fetch_add(stats.ops, Ordering::Relaxed);
            c.deferred_fences.fetch_add(stats.deferred_fences, Ordering::Relaxed);
            c.closing_batch_fences.fetch_add(stats.closing_fences, Ordering::Relaxed);
            (Reply::Batch(replies), false)
        }
        ref data_op => {
            c.ops.fetch_add(1, Ordering::Relaxed);
            (crate::batch::exec_data_op(&shared.store, tokens, data_op), false)
        }
    }
}

fn stats_json(shared: &Arc<Shared>) -> String {
    let c = &shared.counters;
    format!(
        "{{\"policy\":\"{}\",\"shards\":{},\"len\":{},\
         \"server\":{{\"connections\":{},\"ops\":{},\"batches\":{},\"batched_ops\":{},\
         \"deferred_fences\":{},\"closing_batch_fences\":{},\"malformed\":{}}},\
         \"obs\":{},\"pools\":{}}}",
        shared.store.policy().name(),
        shared.store.shard_count(),
        shared.store.len(),
        c.connections.load(Ordering::Relaxed),
        c.ops.load(Ordering::Relaxed),
        c.batches.load(Ordering::Relaxed),
        c.batched_ops.load(Ordering::Relaxed),
        c.deferred_fences.load(Ordering::Relaxed),
        c.closing_batch_fences.load(Ordering::Relaxed),
        c.malformed.load(Ordering::Relaxed),
        shared.metrics.snapshot().to_json(),
        shared.store.metrics_snapshot().to_json(),
    )
}
