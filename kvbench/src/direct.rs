//! In-process replays of the wire stream on a second store: the server's
//! executors (`exec_data_op`, `run_batch`) and the store façade
//! (`KvStore::{get,try_insert,try_remove}`) called directly and timed.

use crate::gen::{op_key, ops_of, OpStream, Workload};
use crate::model::Model;
use crate::sets::{bench_set, Sets};
use crate::wire::{tally, ConnOut, WindowOut};
use nvtraverse_obs::{self as obs, Snapshot};
use nvtraverse_pmem::batch::FenceBatch;
use nvtraverse_pmem::MmapBackend;
use nvtraverse_server::{exec_data_op, run_batch, ConnTokens, KvStore, Reply, Request};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Frames (with replies) each connection keeps for the codec probe.
const CODEC_SAMPLE: usize = 1024;

/// One connection's direct replay of the measured frames.
#[derive(Debug, Default)]
pub struct ExecOut {
    pub check: WindowOut,
    /// Executor time per frame, ns.
    pub exec_ns: Vec<u64>,
    /// `run_batch` spans, ns (batch workloads only).
    pub batch_ns: Vec<u64>,
    /// Ops routed to each shard.
    pub shard_ops: Vec<u64>,
    /// The first `CODEC_SAMPLE` measured frames with their replies.
    pub sample: Vec<(Request, Reply)>,
    pub error: Option<String>,
}

/// Replays `skip` frames unmeasured, meets the coordinator at the barrier
/// (ready, go), replays `frames` measured frames, and meets it once more.
pub fn replay(
    store: &KvStore,
    stream: &mut OpStream,
    model: &mut Model,
    skip: u64,
    frames: u64,
    barrier: &Barrier,
) -> ExecOut {
    let mut tokens = ConnTokens::new();
    let mut out = ExecOut {
        shard_ops: vec![0; store.shard_count()],
        ..ExecOut::default()
    };
    let mut unmeasured = WindowOut::default();
    for _ in 0..skip {
        let frame = stream.next_frame();
        let reply = exec(store, &mut tokens, &frame);
        if let Some(m) = tally(model, &frame, &reply, &mut unmeasured) {
            out.error.get_or_insert(format!("direct mismatch: {m}"));
        }
    }
    barrier.wait();
    barrier.wait();
    for _ in 0..frames {
        let frame = stream.next_frame();
        let t0 = Instant::now();
        let reply = exec(store, &mut tokens, &frame);
        let dt = t0.elapsed().as_nanos() as u64;
        out.exec_ns.push(dt);
        if matches!(frame, Request::Batch(_)) {
            out.batch_ns.push(dt);
        }
        for op in ops_of(&frame) {
            out.shard_ops[store.shard_index_of(op_key(op))] += 1;
        }
        if let Some(m) = tally(model, &frame, &reply, &mut out.check) {
            out.error.get_or_insert(format!("direct mismatch: {m}"));
        }
        if out.sample.len() < CODEC_SAMPLE {
            out.sample.push((frame, reply));
        }
    }
    barrier.wait();
    out
}

fn exec(store: &KvStore, tokens: &mut ConnTokens, frame: &Request) -> Reply {
    match frame {
        Request::Batch(ops) => Reply::Batch(run_batch(store, tokens, ops).0),
        op => exec_data_op(store, tokens, op),
    }
}

/// Store-façade spans per op kind, ns.
#[derive(Debug, Default)]
pub struct StoreOut {
    pub get_ns: Vec<u64>,
    pub insert_ns: Vec<u64>,
    pub remove_ns: Vec<u64>,
    pub error: Option<String>,
}

/// Continues the stream for `secs`, timing each façade call. A batch
/// frame's ops share one deferred closing fence, as under `run_batch`.
pub fn store_pass(
    store: &KvStore,
    stream: &mut OpStream,
    model: &mut Model,
    secs: f64,
) -> StoreOut {
    let mut out = StoreOut::default();
    let mut check = WindowOut::default();
    let end = Instant::now() + Duration::from_secs_f64(secs);
    while Instant::now() < end {
        let frame = stream.next_frame();
        let ops = ops_of(&frame);
        let scope = (ops.len() > 1).then(FenceBatch::<MmapBackend>::begin);
        let mut replies = Vec::with_capacity(ops.len());
        for op in ops {
            let t0 = Instant::now();
            let (reply, spans) = match *op {
                Request::Get(k) => (
                    store.get(k).map_or(Reply::Miss, Reply::Value),
                    &mut out.get_ns,
                ),
                Request::Insert(k, v) => (applied(store.try_insert(k, v)), &mut out.insert_ns),
                Request::Remove(k) => (applied(store.try_remove(k)), &mut out.remove_ns),
                ref other => panic!("not a data op: {other:?}"),
            };
            spans.push(t0.elapsed().as_nanos() as u64);
            replies.push(reply);
        }
        if let Some(scope) = scope {
            scope.close();
        }
        let reply = if matches!(frame, Request::Batch(_)) {
            Reply::Batch(replies)
        } else {
            replies.pop().expect("one reply per single-op frame")
        };
        if let Some(m) = tally(model, &frame, &reply, &mut check) {
            out.error.get_or_insert(format!("store-pass mismatch: {m}"));
        }
    }
    out
}

fn applied<E: std::fmt::Debug>(r: Result<bool, E>) -> Reply {
    match r {
        Ok(true) => Reply::Applied,
        Ok(false) => Reply::Miss,
        Err(e) => Reply::BadRequest(format!("{e:?}")),
    }
}

/// Both direct passes, over both connections' streams.
#[derive(Debug)]
pub struct DirectRun {
    pub execs: Vec<ExecOut>,
    pub stores: Vec<StoreOut>,
    /// Every flush and fence of the measured replay.
    pub persist: Snapshot,
    /// The models after both passes: what `store` must now hold.
    pub models: Vec<Model>,
}

/// Replays on `store` (prefilled like the wire run's store, as `models`
/// describes) the frames each wire connection in `conns` sent: its warm-up
/// and first window unmeasured, its second window measured. Then runs
/// the store pass for `store_secs`.
pub fn run(
    store: &KvStore,
    sets: &Sets,
    wl: &Workload,
    seed: u64,
    models: &[Model],
    conns: &[ConnOut],
    store_secs: f64,
) -> DirectRun {
    let barrier = Barrier::new(conns.len() + 1);
    std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter()
            .zip(models)
            .enumerate()
            .map(|(c, (co, model))| {
                let (skip, frames) = (co.warm_frames + co.windows[0].frames, co.windows[1].frames);
                let (mut stream, mut model, barrier) =
                    (wl.stream(seed, c as u64), model.clone(), &barrier);
                s.spawn(move || {
                    let _attr = obs::attribute_to(Some(bench_set()));
                    let exec = replay(store, &mut stream, &mut model, skip, frames, barrier);
                    let pass = store_pass(store, &mut stream, &mut model, store_secs);
                    (exec, pass, model)
                })
            })
            .collect();
        barrier.wait();
        let before = sets.snapshot();
        barrier.wait();
        barrier.wait();
        let persist = sets.snapshot().since(&before).total();
        let mut run = DirectRun {
            execs: Vec::new(),
            stores: Vec::new(),
            persist,
            models: Vec::new(),
        };
        for h in handles {
            let (exec, pass, model) = h.join().expect("direct thread panicked");
            run.execs.push(exec);
            run.stores.push(pass);
            run.models.push(model);
        }
        run
    })
}
