//! `kvbench`: the KV service benchmark.
//!
//! Drives an in-process `nvtraverse-server` over a Unix socket with two
//! closed-loop client connections (one thread each) and reports the
//! end-to-end metrics of one workload; with `--trace 1` it reruns the
//! workload with spans and direct calls and reports the per-layer metrics
//! instead. Every reply is checked against a per-connection model, and
//! after a restart the store must hold exactly the models' union.
//!
//! ```text
//! cargo run --release --manifest-path kvbench/Cargo.toml -- \
//!     --workload point-single --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`; a readable table goes
//! to standard error. `--workload all` runs every workload in turn.

mod direct;
mod gen;
mod layers;
mod model;
mod restart;
mod sets;
mod stats;
mod wire;

use gen::{key_of, Workload, CONNS, WORKLOADS};
use model::{verify, Model};
use nvtraverse_obs::{self as obs, Counter, Phase};
use nvtraverse_server::{KvStore, Server, ServerConfig};
use restart::Restart;
use sets::{bench_set, Sets};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use wire::{drive, merged, ConnOut, Delta, Window};

/// Set-up and reopen are each repeated at least `REPS_MIN` times and
/// until they have taken `REPS_BUDGET`; their median is reported.
const REPS_MIN: usize = 7;
const REPS_MAX: usize = 301;
const REPS_BUDGET: Duration = Duration::from_millis(500);

fn enough_reps(n: usize, spent: Duration) -> bool {
    n >= REPS_MAX || (n >= REPS_MIN && spent >= REPS_BUDGET)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {val}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = val,
            "--seed" => args.seed = val.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = val.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !args.seconds.is_finite() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    if args.workload != "all" && gen::workload(&args.workload).is_none() {
        let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!(
            "--workload {:?}: expected all or one of {names:?}",
            args.workload
        ));
    }
    Ok(args)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some(restart::FLAG) {
        std::process::exit(restart::child(&argv[1..], enough_reps));
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("kvbench: {e}");
            eprintln!(
                "usage: kvbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let chosen: Vec<&Workload> = if args.workload == "all" {
        WORKLOADS.iter().collect()
    } else {
        vec![gen::workload(&args.workload).expect("validated")]
    };
    let mut results = Vec::new();
    for wl in chosen {
        let res = run(wl, &args).unwrap_or_else(Outcome::broken);
        report(wl, &res);
        results.push((wl.name, res));
    }
    let correct = results.iter().all(|(_, r)| r.problems.is_empty());
    println!("{}", json(&results));
    if !correct {
        std::process::exit(1);
    }
}

struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

#[derive(Default)]
struct Outcome {
    attempted: u64,
    failed: u64,
    /// The metrics of the JSON result.
    metrics: Vec<Metric>,
    /// Figures printed in the table only: too unsteady on a shared machine
    /// to be bounded.
    info: Vec<Metric>,
    /// Human-readable context lines (sample counts, reconciliation).
    notes: Vec<String>,
    /// Anything that makes the run incorrect.
    problems: Vec<String>,
}

impl Outcome {
    fn broken(e: String) -> Outcome {
        Outcome {
            problems: vec![e],
            ..Outcome::default()
        }
    }

    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    fn show(&mut self, name: &str, value: f64, unit: &'static str) {
        self.info.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }
}

fn report(wl: &Workload, res: &Outcome) {
    eprintln!(
        "== {}: {} ops attempted, {} failed",
        wl.name, res.attempted, res.failed
    );
    for m in &res.metrics {
        eprintln!("  {:<36} {:>14.4} {}", m.name, m.value, m.unit);
    }
    for m in &res.info {
        eprintln!("  {:<36} {:>14.4} {} (unbounded)", m.name, m.value, m.unit);
    }
    for n in &res.notes {
        eprintln!("  # {n}");
    }
    for p in &res.problems {
        eprintln!("  !! {p}");
    }
}

fn json(results: &[(&str, Outcome)]) -> String {
    let one = results.len() == 1;
    let mut metrics = Vec::new();
    for (name, r) in results {
        for m in &r.metrics {
            let key = if one {
                m.name.clone()
            } else {
                format!("{name}/{}", m.name)
            };
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            metrics.push(format!(
                "\"{key}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.unit
            ));
        }
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        results.iter().all(|(_, r)| r.problems.is_empty()),
        results.iter().map(|(_, r)| r.attempted).sum::<u64>().max(1),
        results.iter().map(|(_, r)| r.failed).sum::<u64>(),
        metrics.join(", ")
    )
}

fn ns_ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Prefill of every partition, in descending key order.
fn prefill(wl: &Workload, seed: u64) -> (Vec<Model>, Vec<(u64, u64)>) {
    let mut entries = Vec::new();
    let models = (0..CONNS)
        .map(|c| {
            let vals = wl.prefill(seed, c);
            entries.extend(
                vals.iter()
                    .enumerate()
                    .filter_map(|(r, v)| v.map(|v| (key_of(r as u64, c), v))),
            );
            Model::new(c, vals)
        })
        .collect();
    entries.sort_unstable_by(|a, b| b.cmp(a));
    (models, entries)
}

fn build_store(wl: &Workload, dir: &Path, entries: &[(u64, u64)]) -> Result<KvStore, String> {
    let store = KvStore::create(dir, wl.policy, wl.shards, wl.shard_capacity)
        .map_err(|e| format!("create {}: {e}", dir.display()))?;
    for &(k, v) in entries {
        match store.try_insert(k, v) {
            Ok(true) => {}
            other => return Err(format!("prefill insert {k}: {other:?}")),
        }
    }
    Ok(store)
}

fn per_op(n: u64, ops: u64) -> f64 {
    n as f64 / ops.max(1) as f64
}

fn run(wl: &Workload, args: &Args) -> Result<Outcome, String> {
    let root = PathBuf::from(".kvbench_run").join(format!("{}-{}", wl.name, std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).map_err(|e| format!("{}: {e}", root.display()))?;
    let res = run_in(wl, args, &root);
    let _ = std::fs::remove_dir_all(&root);
    if std::fs::read_dir(".kvbench_run").is_ok_and(|mut d| d.next().is_none()) {
        let _ = std::fs::remove_dir(".kvbench_run");
    }
    res
}

/// What the wire run leaves for the metrics.
struct WireRun {
    setups: Vec<f64>,
    conns: Vec<ConnOut>,
    deltas: Vec<Delta>,
    restart: Restart,
}

fn run_in(wl: &Workload, args: &Args, root: &Path) -> Result<Outcome, String> {
    let _attr = obs::attribute_to(Some(bench_set()));
    let mut out = Outcome::default();
    let (models, entries) = prefill(wl, args.seed);

    // Set-up: create + prefill + start, repeated; keep the last. One store
    // at a time, so no two stores' pools compete for mapping bases.
    let mut setups = Vec::new();
    let mut live = None;
    while !enough_reps(setups.len(), Duration::from_secs_f64(setups.iter().sum())) {
        if let Some((old_dir, _, old)) = live.take() {
            Server::shutdown(old).map_err(|e| format!("shutdown: {e}"))?;
            let _ = std::fs::remove_dir_all(old_dir);
        }
        let dir = root.join(format!("store-{}", setups.len()));
        let sock = root.join(format!("kv-{}.sock", setups.len()));
        let t0 = Instant::now();
        let store = build_store(wl, &dir, &entries)?;
        let server = Server::start_uds(&sock, store, ServerConfig::default())
            .map_err(|e| format!("start: {e}"))?;
        setups.push(t0.elapsed().as_secs_f64());
        live = Some((dir, sock, server));
    }
    let (dir, sock, server) = live.expect("at least one set-up");
    let sets = Sets::of(&dir, Some(&server))?;

    // The traced run measures an untraced and a traced half.
    let warmup = Duration::from_secs_f64((args.seconds / 10.0).min(1.0));
    let windows: Vec<Window> = if args.trace {
        [false, true]
            .map(|traced| Window {
                secs: args.seconds / 2.0,
                traced,
            })
            .to_vec()
    } else {
        vec![Window {
            secs: args.seconds,
            traced: false,
        }]
    };
    let starts = (0..CONNS)
        .map(|c| (wl.stream(args.seed, c), models[c as usize].clone()))
        .collect();
    let (conns, deltas) = drive(starts, &sock, &server, &sets, warmup, &windows);
    server.shutdown().map_err(|e| format!("shutdown: {e}"))?;
    for c in &conns {
        if let Some(e) = &c.error {
            out.problems.push(format!("connection: {e}"));
        }
    }
    for (w, _) in windows.iter().enumerate() {
        let m = merged(&conns, w);
        out.attempted += m.ops;
        out.failed += m.failed;
        if m.mismatches > 0 {
            out.problems
                .push(format!("{} replies contradicted the model", m.mismatches));
        }
    }

    // Restart: reopen the final store in a fresh process and check it.
    let final_models: Vec<Model> = conns.iter().map(|c| c.model.clone()).collect();
    let restart = match restart::run(&dir, root, &final_models) {
        Ok(r) => r,
        Err(e) => {
            out.problems.push(format!("restart: {e}"));
            return Ok(out);
        }
    };
    let run = WireRun {
        setups,
        conns,
        deltas,
        restart,
    };
    if args.trace {
        layer_metrics(&mut out, wl, args, root, &entries, &models, &run)?;
    } else {
        e2e_metrics(&mut out, &run);
    }
    Ok(out)
}

fn e2e_metrics(out: &mut Outcome, run: &WireRun) {
    let main = merged(&run.conns, 0);
    let d = &run.deltas[0];
    let all = d.parts.total();
    let acked = main.ops - main.failed;
    let mut rtt = main.rtt_ns;
    rtt.sort_unstable();
    if rtt.is_empty() {
        out.problems.push("no frame completed in the window".into());
        return;
    }
    let q_us = |q: f64| stats::quantile(&rtt, q) as f64 / 1e3;
    out.put(
        "flushes_per_op",
        per_op(all.total_flushes(), acked),
        "count",
    );
    out.put("fences_per_op", per_op(all.total_fences(), acked), "count");
    out.put("setup_s", stats::median(&run.setups), "s");
    let heap_bytes: u64 = run.restart.shards.iter().map(|r| r.heap_bytes).sum();
    out.put(
        "bytes_per_key",
        heap_bytes as f64 / run.restart.live_keys.max(1) as f64,
        "bytes",
    );
    out.show(
        "throughput_ops_s",
        acked as f64 / d.elapsed.as_secs_f64(),
        "ops/s",
    );
    out.show("latency_p50_us", q_us(0.5), "us");
    out.show("latency_p99_us", q_us(0.99), "us");
    out.show("recovery_ms", run.restart.reopen_ms, "ms");
    out.show("failed_frac", per_op(main.failed, main.ops), "ratio");

    let top = match stats::top_quantile(rtt.len()) {
        Some(q) if q > 0.99 => format!(", p{} {:.2} us", q * 100.0, q_us(q)),
        _ => String::new(),
    };
    out.notes.push(format!(
        "{} frame samples; p50 {:.2} us, p99 {:.2} us{top}",
        rtt.len(),
        q_us(0.5),
        q_us(0.99)
    ));
    let p = &d.parts;
    out.notes.push(format!(
        "flushes: server {} + shard pools {} + benchmark {} = {}; fences: {} + {} + {} = {}",
        p.server.total_flushes(),
        p.pools.total_flushes(),
        p.bench.total_flushes(),
        all.total_flushes(),
        p.server.total_fences(),
        p.pools.total_fences(),
        p.bench.total_fences(),
        all.total_fences()
    ));
}

fn layer_metrics(
    out: &mut Outcome,
    wl: &Workload,
    args: &Args,
    root: &Path,
    entries: &[(u64, u64)],
    models: &[Model],
    run: &WireRun,
) -> Result<(), String> {
    let untraced = merged(&run.conns, 0);
    let traced = merged(&run.conns, 1);
    let (d0, td) = (&run.deltas[0], &run.deltas[1]);
    let throughput = (untraced.ops - untraced.failed) as f64 / d0.elapsed.as_secs_f64();
    let t_acked = traced.ops - traced.failed;
    let t_throughput = t_acked as f64 / td.elapsed.as_secs_f64();
    let t_all = td.parts.total();
    let rtt_mean_us = stats::mean(&traced.rtt_ns) / 1e3;

    // The same frames, replayed in-process on a second store.
    let dir_b = root.join("direct");
    let store_b = build_store(wl, &dir_b, entries)?;
    let sets_b = Sets::of(&dir_b, None)?;
    let direct = direct::run(
        &store_b,
        &sets_b,
        wl,
        args.seed,
        models,
        &run.conns,
        args.seconds / 10.0,
    );
    if let Err(e) = verify(&store_b, &direct.models) {
        out.problems.push(format!("direct store: {e}"));
    }
    store_b.close().map_err(|e| format!("close: {e}"))?;
    let errors = direct.execs.iter().filter_map(|e| e.error.as_ref());
    out.problems.extend(
        errors
            .chain(direct.stores.iter().filter_map(|s| s.error.as_ref()))
            .cloned(),
    );
    let d_ops: u64 = direct.execs.iter().map(|e| e.check.ops).sum();
    let exec_ns: Vec<u64> = direct
        .execs
        .iter()
        .flat_map(|e| e.exec_ns.iter().copied())
        .collect();
    let batch_ns: Vec<u64> = direct
        .execs
        .iter()
        .flat_map(|e| e.batch_ns.iter().copied())
        .collect();
    let exec_mean_us = stats::mean(&exec_ns) / 1e3;
    let ns_per_op = exec_ns.iter().sum::<u64>() as f64 / d_ops.max(1) as f64;
    let mut shard_ops = vec![0u64; wl.shards];
    for e in &direct.execs {
        for (t, n) in shard_ops.iter_mut().zip(&e.shard_ops) {
            *t += n;
        }
    }
    let skew = *shard_ops.iter().max().unwrap_or(&0) as f64
        / (shard_ops.iter().sum::<u64>() as f64 / wl.shards as f64).max(1.0);
    let store_p50_ns = |f: fn(&direct::StoreOut) -> &Vec<u64>| {
        let all: Vec<u64> = direct
            .stores
            .iter()
            .flat_map(|s| f(s).iter().copied())
            .collect();
        stats::p50_us(&all) * 1e3
    };
    let sample: Vec<_> = direct
        .execs
        .iter()
        .flat_map(|e| e.sample.iter().cloned())
        .collect();
    let (encode_ns, decode_ns) = layers::proto_ns(&sample);
    let (flush_ns, fence_ns) =
        layers::pmem_ns(&root.join("probe.pool")).map_err(|e| format!("pmem probe: {e}"))?;

    let w_flushes = per_op(t_all.total_flushes(), t_acked);
    let w_fences = per_op(t_all.total_fences(), t_acked);
    let (send_us, recv_us) = (
        stats::p50_us(&traced.send_ns),
        stats::p50_us(&traced.recv_ns),
    );
    let send_mean_us = stats::mean(&traced.send_ns) / 1e3;
    let recv_mean_us = stats::mean(&traced.recv_ns) / 1e3;
    let mut rtt = untraced.rtt_ns.clone();
    rtt.sort_unstable();
    if !rtt.is_empty() {
        out.put("wire.throughput_ops_s", throughput, "ops/s");
        out.put(
            "wire.latency_p50_us",
            stats::quantile(&rtt, 0.5) as f64 / 1e3,
            "us",
        );
        out.put(
            "wire.latency_p99_us",
            stats::quantile(&rtt, 0.99) as f64 / 1e3,
            "us",
        );
    }
    out.put("wire.send_us", send_us, "us");
    out.put("wire.recv_wait_us", recv_us, "us");
    out.put("wire.send_mean_us", send_mean_us, "us");
    out.put("wire.recv_wait_mean_us", recv_mean_us, "us");
    out.put("wire.rtt_mean_us", rtt_mean_us, "us");
    out.put("wire.get_p50_us", stats::p50_us(&traced.get_rtt_ns), "us");
    out.put(
        "wire.update_p50_us",
        stats::p50_us(&traced.update_rtt_ns),
        "us",
    );
    out.put("wire.flushes_per_op", w_flushes, "count");
    out.put("wire.fences_per_op", w_fences, "count");
    out.put("proto.encode_ns", encode_ns, "ns");
    out.put("proto.decode_ns", decode_ns, "ns");
    out.put("server.exec_mean_us", exec_mean_us, "us");
    out.put("server.overhead_us", rtt_mean_us - exec_mean_us, "us");
    let (batches, _, deferred, closing) = td.batch;
    out.put("batch.exec_us", stats::p50_us(&batch_ns), "us");
    out.put(
        "batch.closing_fences_per_frame",
        per_op(closing, batches),
        "count",
    );
    out.put(
        "batch.deferred_fences_per_op",
        per_op(deferred, t_acked),
        "count",
    );
    out.put("store.get_ns", store_p50_ns(|s| &s.get_ns), "ns");
    out.put("store.insert_ns", store_p50_ns(|s| &s.insert_ns), "ns");
    out.put("store.remove_ns", store_p50_ns(|s| &s.remove_ns), "ns");
    out.put("store.shard_skew", skew, "ratio");
    out.put(
        "structure.applied_frac",
        per_op(traced.mutated, traced.updates),
        "ratio",
    );
    out.put("structure.live_keys", run.restart.live_keys as f64, "count");
    let phases = [
        Phase::Unattributed,
        Phase::Traversal,
        Phase::Critical,
        Phase::Alloc,
        Phase::Gc,
    ];
    for p in phases {
        let n = t_all.flushes[p as usize];
        out.put(
            format!("policy.flushes_per_op.{}", p.name()),
            per_op(n, t_acked),
            "count",
        );
    }
    for p in phases {
        let n = t_all.fences[p as usize];
        out.put(
            format!("policy.fences_per_op.{}", p.name()),
            per_op(n, t_acked),
            "count",
        );
    }
    let d_flushes = per_op(direct.persist.total_flushes(), d_ops);
    let d_fences = per_op(direct.persist.total_fences(), d_ops);
    out.put("direct.flushes_per_op", d_flushes, "count");
    out.put("direct.fences_per_op", d_fences, "count");
    out.put("pmem.flush_ns", flush_ns, "ns");
    out.put("pmem.fence_ns", fence_ns, "ns");
    let persist_ns = w_flushes * flush_ns + w_fences * fence_ns;
    out.put("pmem.persist_share", persist_ns / ns_per_op, "ratio");
    let pc = |c: Counter| td.parts.pools.counter(c);
    let hits = pc(Counter::MagHit);
    out.put(
        "alloc.mag_hit_ratio",
        per_op(hits, hits + pc(Counter::MagMiss)),
        "ratio",
    );
    out.put(
        "alloc.cas_retry_per_op",
        per_op(pc(Counter::CasRetry), t_acked),
        "count",
    );
    out.put(
        "alloc.slab_carve_per_op",
        per_op(pc(Counter::SlabCarve), t_acked),
        "count",
    );
    out.put(
        "alloc.remote_free_per_op",
        per_op(pc(Counter::RemoteFree), t_acked),
        "count",
    );
    let shards = &run.restart.shards;
    for (i, name) in ["heap_walk", "mark", "sweep", "rebuild"]
        .into_iter()
        .enumerate()
    {
        let per_shard = shards.iter().map(|r| r.phases_ns[i]);
        out.put(
            format!("recovery.{name}_ms.sum"),
            ns_ms(per_shard.clone().sum()),
            "ms",
        );
        out.put(
            format!("recovery.{name}_ms.max"),
            ns_ms(per_shard.max().unwrap_or(0)),
            "ms",
        );
    }
    let slowest = shards
        .iter()
        .map(|r| r.phases_ns.iter().sum::<u64>())
        .max()
        .unwrap_or(0);
    out.put("recovery.reopen_ms", run.restart.reopen_ms, "ms");
    out.put(
        "recovery.attach_ms",
        run.restart.reopen_ms - ns_ms(slowest),
        "ms",
    );
    let live_blocks: u64 = shards.iter().map(|r| r.live_blocks).sum();
    let reclaimed: u64 = shards.iter().map(|r| r.reclaimed_blocks).sum();
    out.put("recovery.live_blocks", live_blocks as f64, "count");
    out.put("recovery.reclaimed_blocks", reclaimed as f64, "count");
    out.put(
        "trace.overhead_frac",
        1.0 - t_throughput / throughput,
        "ratio",
    );

    out.notes.push(format!(
        "wire vs direct on the same {} frames: flushes/op {w_flushes:.4} vs {d_flushes:.4}, \
         fences/op {w_fences:.4} vs {d_fences:.4}",
        traced.frames
    ));
    out.notes.push(format!(
        "send + recv: p50s {:.2} us, means {:.2} us, against a mean round trip of {rtt_mean_us:.2} us",
        send_us + recv_us,
        send_mean_us + recv_mean_us
    ));
    out.notes.push(format!(
        "untraced {throughput:.0} ops/s, traced {t_throughput:.0} ops/s"
    ));
    Ok(())
}
