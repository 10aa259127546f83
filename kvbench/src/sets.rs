//! Flush/fence attribution: the metric sets that together see every
//! flush and fence a store's traffic causes.

use nvtraverse_obs::{self as obs, MetricSet, Snapshot};
use nvtraverse_server::Server;
use std::path::Path;
use std::sync::OnceLock;

/// The benchmark's own flush/fence set: every thread that calls into the
/// store directly attributes here, so none of its flushes or fences go
/// uncounted.
pub fn bench_set() -> &'static MetricSet {
    static SET: OnceLock<&'static MetricSet> = OnceLock::new();
    SET.get_or_init(|| Box::leak(Box::new(MetricSet::new(4))))
}

/// Every metric set that can see a store's traffic.
pub struct Sets {
    server: Option<&'static MetricSet>,
    /// The shard pools' sets (pool traffic re-attributes here).
    pools: Vec<&'static MetricSet>,
}

impl Sets {
    pub fn of(dir: &Path, server: Option<&Server>) -> Result<Sets, String> {
        let dir = std::fs::canonicalize(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let pools: Vec<_> = obs::registered_pools()
            .into_iter()
            .filter(|(p, _)| p.starts_with(&dir))
            .map(|(_, s)| s)
            .collect();
        if pools.is_empty() {
            return Err(format!("no pool metric sets under {}", dir.display()));
        }
        Ok(Sets {
            server: server.map(Server::metrics),
            pools,
        })
    }

    pub fn snapshot(&self) -> Parts {
        let mut pools = Snapshot::default();
        for s in &self.pools {
            pools.merge(&s.snapshot());
        }
        Parts {
            server: self.server.map(MetricSet::snapshot).unwrap_or_default(),
            pools,
            bench: bench_set().snapshot(),
        }
    }
}

/// A window's flushes, fences and counters, by the set that recorded them.
pub struct Parts {
    pub server: Snapshot,
    pub pools: Snapshot,
    pub bench: Snapshot,
}

impl Parts {
    pub fn since(&self, earlier: &Parts) -> Parts {
        Parts {
            server: self.server.since(&earlier.server),
            pools: self.pools.since(&earlier.pools),
            bench: self.bench.since(&earlier.bench),
        }
    }

    /// The reconciled total: every set that can see the store's traffic.
    pub fn total(&self) -> Snapshot {
        let mut t = self.server.clone();
        t.merge(&self.pools);
        t.merge(&self.bench);
        t
    }
}
