//! The restart: the final store is reopened in a fresh process, as a real
//! restart would reopen it, and checked against the models there.
//!
//! Reopening in the process that created the store is not safe. A shard
//! whose preferred base was taken at create time is mapped wherever the
//! kernel chose. By the reopen, this process may have mapped something
//! else there, and the pool then comes back rebased, which `KvStore::open`
//! refuses.

use crate::model::{verify, Model};
use nvtraverse_server::KvStore;
use std::fmt::Write as _;
use std::path::Path;
use std::process::Command;
use std::time::{Duration, Instant};

/// The first argument that makes `kvbench` the restart child.
pub const FLAG: &str = "--restart";

/// One shard's recovery at the median reopen.
#[derive(Debug, Clone, Copy)]
pub struct ShardRecovery {
    pub heap_bytes: u64,
    pub live_blocks: u64,
    pub reclaimed_blocks: u64,
    /// Heap walk, mark, sweep and rebuild, ns.
    pub phases_ns: [u64; 4],
}

#[derive(Debug)]
pub struct Restart {
    /// Median `KvStore::open` time over the reopens.
    pub reopen_ms: f64,
    pub live_keys: usize,
    pub shards: Vec<ShardRecovery>,
}

/// Runs the restart child on the cleanly closed store at `dir`; `models`
/// is what every acknowledged write says the store holds.
pub fn run(dir: &Path, root: &Path, models: &[Model]) -> Result<Restart, String> {
    let expected = root.join("expected.txt");
    let mut text = String::new();
    for m in models {
        let _ = write!(text, "{}", m.conn());
        for (_, v) in m.entries() {
            match v {
                Some(v) => {
                    let _ = write!(text, " {v}");
                }
                None => text.push_str(" -"),
            }
        }
        text.push('\n');
    }
    std::fs::write(&expected, text).map_err(|e| format!("{}: {e}", expected.display()))?;
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let out = Command::new(exe)
        .arg(FLAG)
        .arg(dir)
        .arg(&expected)
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    if !out.status.success() {
        return Err(String::from_utf8_lossy(&out.stderr).trim().to_string());
    }
    parse(&String::from_utf8_lossy(&out.stdout))
}

fn parse(report: &str) -> Result<Restart, String> {
    let bad = || format!("unreadable restart report {report:?}");
    let mut lines = report.lines();
    let head: Vec<&str> = lines.next().ok_or_else(bad)?.split(' ').collect();
    let [reopen_ms, live_keys] = head[..] else {
        return Err(bad());
    };
    let mut shards = Vec::new();
    for line in lines {
        let n: Vec<u64> = line
            .split(' ')
            .map(str::parse)
            .collect::<Result<_, _>>()
            .map_err(|_| bad())?;
        let [heap_bytes, live_blocks, reclaimed_blocks, w, m, s, r] = n[..] else {
            return Err(bad());
        };
        shards.push(ShardRecovery {
            heap_bytes,
            live_blocks,
            reclaimed_blocks,
            phases_ns: [w, m, s, r],
        });
    }
    Ok(Restart {
        reopen_ms: reopen_ms.parse().map_err(|_| bad())?,
        live_keys: live_keys.parse().map_err(|_| bad())?,
        shards,
    })
}

/// The child: `kvbench --restart <store dir> <expected>`. Reopens the store
/// until `enough` says so, checks it, and prints the report `parse` reads.
pub fn child(args: &[String], enough: fn(usize, Duration) -> bool) -> i32 {
    match reopen_and_check(args, enough) {
        Ok(report) => {
            print!("{report}");
            0
        }
        Err(e) => {
            eprintln!("{e}");
            1
        }
    }
}

fn reopen_and_check(
    args: &[String],
    enough: fn(usize, Duration) -> bool,
) -> Result<String, String> {
    let [dir, expected] = args else {
        return Err(format!("usage: kvbench {FLAG} <store dir> <expected>"));
    };
    let text = std::fs::read_to_string(expected).map_err(|e| format!("{expected}: {e}"))?;
    let models = text
        .lines()
        .map(|line| {
            let mut f = line.split(' ');
            let conn = f
                .next()
                .and_then(|c| c.parse().ok())
                .ok_or("bad expected line")?;
            let vals = f.map(|v| {
                if v == "-" {
                    Ok(None)
                } else {
                    v.parse().map(Some)
                }
            });
            Ok(Model::new(
                conn,
                vals.collect::<Result<_, _>>()
                    .map_err(|_| "bad expected value")?,
            ))
        })
        .collect::<Result<Vec<_>, &str>>()?;

    let mut cycles = Vec::new();
    let mut spent = Duration::ZERO;
    let store = loop {
        let t0 = Instant::now();
        let store = KvStore::open(dir).map_err(|e| format!("reopen: {e}"))?;
        let t = t0.elapsed();
        spent += t;
        cycles.push((t.as_secs_f64() * 1e3, store.recovery_reports()));
        if enough(cycles.len(), spent) {
            break store;
        }
        store.close().map_err(|e| format!("close: {e}"))?;
    };
    let checked = verify(&store, &models);
    store.close().map_err(|e| format!("close: {e}"))?;
    let live = checked.map_err(|e| format!("after restart: {e}"))?;

    cycles.sort_by(|a, b| a.0.total_cmp(&b.0));
    let (ms, reports) = &cycles[cycles.len() / 2];
    let mut out = format!("{ms} {live}\n");
    for r in reports {
        let p = r.phases;
        let _ = writeln!(
            out,
            "{} {} {} {} {} {} {}",
            r.heap_bytes,
            r.live_blocks,
            r.reclaimed_blocks,
            p.heap_walk_nanos,
            p.mark_nanos,
            p.sweep_nanos,
            p.rebuild_nanos
        );
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_round_trips_and_garbage_is_refused() {
        let r = parse("1.25 42\n100 7 1 10 20 30 40\n200 8 0 11 21 31 41\n").unwrap();
        assert_eq!(r.reopen_ms, 1.25);
        assert_eq!(r.live_keys, 42);
        assert_eq!(r.shards.len(), 2);
        assert_eq!(r.shards[1].heap_bytes, 200);
        assert_eq!(r.shards[0].phases_ns, [10, 20, 30, 40]);
        assert!(parse("").is_err());
        assert!(parse("1.0\n").is_err());
        assert!(parse("1.0 3\n1 2 3\n").is_err());
    }
}
