//! The closed-loop clients: one thread and one connection each, driving
//! the server through its public [`Client`] and checking every reply.

use crate::gen::{ops_of, OpStream};
use crate::model::{Model, Verdict};
use crate::sets::{Parts, Sets};
use nvtraverse_server::{Client, Reply, Request, Server};
use std::path::Path;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// One measured window; every client and the coordinator meet at a
/// barrier before it (twice: ready, go) and after it.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    pub secs: f64,
    /// Split each round trip into its `send` and `recv` spans.
    pub traced: bool,
}

/// What one connection did in one window.
#[derive(Debug, Default)]
pub struct WindowOut {
    pub frames: u64,
    pub ops: u64,
    pub failed: u64,
    pub mismatches: u64,
    pub updates: u64,
    pub mutated: u64,
    /// Round trip of every frame, ns.
    pub rtt_ns: Vec<u64>,
    // Traced windows only.
    pub send_ns: Vec<u64>,
    pub recv_ns: Vec<u64>,
    /// Round trips of frames holding only gets / at least one update.
    pub get_rtt_ns: Vec<u64>,
    pub update_rtt_ns: Vec<u64>,
}

#[derive(Debug)]
pub struct ConnOut {
    pub model: Model,
    pub warm_frames: u64,
    pub windows: Vec<WindowOut>,
    pub error: Option<String>,
}

/// Counts each op's verdict into `out`; returns the first mismatch.
pub fn tally(
    model: &mut Model,
    frame: &Request,
    reply: &Reply,
    out: &mut WindowOut,
) -> Option<String> {
    let ops = ops_of(frame);
    let replies = match reply {
        Reply::Batch(r) if r.len() == ops.len() => r.as_slice(),
        r if !matches!(frame, Request::Batch(_)) => std::slice::from_ref(r),
        other => {
            out.ops += ops.len() as u64;
            out.mismatches += ops.len() as u64;
            return Some(format!("reply {other:?} does not answer {} ops", ops.len()));
        }
    };
    let mut first = None;
    for (op, got) in ops.iter().zip(replies) {
        out.ops += 1;
        let update = !matches!(op, Request::Get(_));
        out.updates += u64::from(update);
        match model.check(op, got) {
            Verdict::Ok { mutated } => out.mutated += u64::from(mutated),
            Verdict::Failed => out.failed += 1,
            Verdict::Mismatch => {
                out.mismatches += 1;
                first.get_or_insert_with(|| format!("{op:?} got {got:?}"));
            }
        }
    }
    first
}

/// Runs one connection: warm-up, then each window between barriers.
pub fn run_conn(
    sock: &Path,
    mut stream: OpStream,
    mut model: Model,
    warmup: Duration,
    windows: &[Window],
    barrier: &Barrier,
) -> ConnOut {
    let mut error = None;
    let mut client = match Client::connect_uds(sock) {
        Ok(c) => Some(c),
        Err(e) => {
            error = Some(format!("connect: {e}"));
            None
        }
    };
    let mut warm_frames = 0;
    let mut warm = WindowOut::default();
    let warm_end = Instant::now() + warmup;
    while let Some(c) = client.as_mut() {
        if Instant::now() >= warm_end {
            break;
        }
        let frame = stream.next_frame();
        warm_frames += 1;
        match c.request(&frame) {
            Ok(reply) => {
                if let Some(m) = tally(&mut model, &frame, &reply, &mut warm) {
                    error.get_or_insert(format!("warm-up mismatch: {m}"));
                }
            }
            Err(e) => {
                error.get_or_insert(format!("warm-up transport: {e}"));
                client = None;
            }
        }
    }
    let mut outs = Vec::with_capacity(windows.len());
    for w in windows {
        let mut out = WindowOut::default();
        barrier.wait();
        barrier.wait();
        let end = Instant::now() + Duration::from_secs_f64(w.secs);
        while let Some(c) = client.as_mut() {
            if Instant::now() >= end {
                break;
            }
            let frame = stream.next_frame();
            out.frames += 1;
            let t0 = Instant::now();
            let res = if w.traced {
                c.send(&frame).and_then(|()| {
                    let t1 = Instant::now();
                    let r = c.recv(&frame);
                    out.send_ns.push((t1 - t0).as_nanos() as u64);
                    out.recv_ns.push(t1.elapsed().as_nanos() as u64);
                    r
                })
            } else {
                c.request(&frame)
            };
            let rtt = t0.elapsed().as_nanos() as u64;
            match res {
                Ok(reply) => {
                    out.rtt_ns.push(rtt);
                    if w.traced {
                        if ops_of(&frame)
                            .iter()
                            .all(|op| matches!(op, Request::Get(_)))
                        {
                            out.get_rtt_ns.push(rtt);
                        } else {
                            out.update_rtt_ns.push(rtt);
                        }
                    }
                    if let Some(m) = tally(&mut model, &frame, &reply, &mut out) {
                        error.get_or_insert(format!("mismatch: {m}"));
                    }
                }
                Err(e) => {
                    let n = ops_of(&frame).len() as u64;
                    out.ops += n;
                    out.failed += n;
                    error.get_or_insert(format!("transport: {e}"));
                    client = None;
                }
            }
        }
        barrier.wait();
        outs.push(out);
    }
    if warm.failed > 0 {
        error.get_or_insert(format!("{} ops failed during warm-up", warm.failed));
    }
    ConnOut {
        model,
        warm_frames,
        windows: outs,
        error,
    }
}

/// One window's flush/fence and batch-counter deltas, and its length.
pub struct Delta {
    pub parts: Parts,
    pub batch: (u64, u64, u64, u64),
    pub elapsed: Duration,
}

/// Runs `windows` with the two clients; returns their outputs and one
/// [`Delta`] per window.
pub fn drive(
    conns: Vec<(OpStream, Model)>,
    sock: &Path,
    server: &Server,
    sets: &Sets,
    warmup: Duration,
    windows: &[Window],
) -> (Vec<ConnOut>, Vec<Delta>) {
    let barrier = Barrier::new(conns.len() + 1);
    std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .into_iter()
            .map(|(stream, model)| {
                let barrier = &barrier;
                s.spawn(move || run_conn(sock, stream, model, warmup, windows, barrier))
            })
            .collect();
        let deltas = windows
            .iter()
            .map(|_| {
                barrier.wait();
                let p0 = sets.snapshot();
                let b0 = server.batch_counters();
                barrier.wait();
                let t0 = Instant::now();
                barrier.wait();
                let elapsed = t0.elapsed();
                let parts = sets.snapshot().since(&p0);
                let b1 = server.batch_counters();
                Delta {
                    parts,
                    batch: (b1.0 - b0.0, b1.1 - b0.1, b1.2 - b0.2, b1.3 - b0.3),
                    elapsed,
                }
            })
            .collect();
        let outs = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        (outs, deltas)
    })
}

/// Sums the connections' outputs for window `w`.
pub fn merged(outs: &[ConnOut], w: usize) -> WindowOut {
    let mut m = WindowOut::default();
    for o in outs {
        let x = &o.windows[w];
        m.frames += x.frames;
        m.ops += x.ops;
        m.failed += x.failed;
        m.mismatches += x.mismatches;
        m.updates += x.updates;
        m.mutated += x.mutated;
        m.rtt_ns.extend(&x.rtt_ns);
        m.send_ns.extend(&x.send_ns);
        m.recv_ns.extend(&x.recv_ns);
        m.get_rtt_ns.extend(&x.get_rtt_ns);
        m.update_rtt_ns.extend(&x.update_rtt_ns);
    }
    m
}
