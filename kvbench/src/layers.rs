//! Layer microbenchmarks: the wire codec on the workload's own frames, and
//! the persistence instructions on lines of a pool-mapped file.

use crate::stats::median;
use nvtraverse_pmem::{Backend, MmapBackend};
use nvtraverse_pool::Pool;
use nvtraverse_server::proto;
use nvtraverse_server::{Reply, Request};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

const REPS: usize = 15;

/// `(encode_ns, decode_ns)` per frame: request plus reply, each way,
/// medians over repetitions of the whole sample.
pub fn proto_ns(sample: &[(Request, Reply)]) -> (f64, f64) {
    if sample.is_empty() {
        return (0.0, 0.0);
    }
    let mut bodies = Vec::with_capacity(sample.len());
    for (req, reply) in sample {
        let (mut q, mut r) = (Vec::new(), Vec::new());
        proto::encode_request(req, &mut q);
        proto::encode_reply(reply, &mut r);
        bodies.push((q, r));
    }
    let n = sample.len() as f64;
    let (mut enc, mut dec) = (Vec::new(), Vec::new());
    let mut buf = Vec::with_capacity(4096);
    for _ in 0..REPS {
        let t0 = Instant::now();
        for (req, reply) in sample {
            buf.clear();
            proto::encode_request(black_box(req), &mut buf);
            buf.clear();
            proto::encode_reply(black_box(reply), &mut buf);
            black_box(&buf);
        }
        enc.push(t0.elapsed().as_nanos() as f64 / n);
        let t0 = Instant::now();
        for ((req, _), (q, r)) in sample.iter().zip(&bodies) {
            black_box(proto::decode_request(black_box(q)).expect("own encoding decodes"));
            black_box(proto::decode_reply(req, black_box(r)).expect("own encoding decodes"));
        }
        dec.push(t0.elapsed().as_nanos() as f64 / n);
    }
    (median(&enc), median(&dec))
}

const LINES: usize = 4096;
const LINE: usize = 64;

/// `(flush_ns, fence_ns)` of `MmapBackend` on dirty lines of a pool file
/// at `path`: each is the difference between loops with and without the
/// instruction, per line, median over repetitions.
pub fn pmem_ns(path: &Path) -> std::io::Result<(f64, f64)> {
    let pool = Pool::builder().path(path).capacity(4 << 20).create()?;
    let block = pool
        .alloc(LINES * LINE + LINE, 16)
        .ok_or_else(|| std::io::Error::other("pmem probe: pool allocation failed"))?;
    let base = (block as usize).next_multiple_of(LINE);
    let line = |i: usize| (base + i * LINE) as *mut u64;
    let dirty = |i: usize| {
        // SAFETY: `block` holds LINES * LINE + LINE bytes, so all LINES
        // line-aligned words from `base` lie inside it; the block stays
        // allocated, and the pool mapped, until `pool` drops below.
        unsafe { line(i).write_volatile(i as u64) }
    };
    let (mut flush, mut fence) = (Vec::new(), Vec::new());
    for _ in 0..REPS {
        let t0 = Instant::now();
        (0..LINES).for_each(dirty);
        let t_dirty = t0.elapsed().as_nanos() as f64;
        let t0 = Instant::now();
        for i in 0..LINES {
            dirty(i);
            MmapBackend::flush(line(i) as *const u8);
        }
        let t_flush = t0.elapsed().as_nanos() as f64;
        let t0 = Instant::now();
        for i in 0..LINES {
            dirty(i);
            MmapBackend::flush(line(i) as *const u8);
            MmapBackend::fence();
        }
        let t_fence = t0.elapsed().as_nanos() as f64;
        flush.push((t_flush - t_dirty) / LINES as f64);
        fence.push((t_fence - t_flush) / LINES as f64);
    }
    drop(pool);
    Ok((median(&flush), median(&fence)))
}
