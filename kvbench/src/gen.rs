//! Seeded workload generation: key distributions, prefill sets and the
//! per-connection request streams.
//!
//! Everything the server sees is derived from the `--seed` argument here,
//! so the same seed replays the same frames. Each connection owns a
//! disjoint partition of the key space (`key = rank * CONNS + conn`),
//! which is what lets a per-connection model predict every reply.

use nvtraverse_server::{PolicyKind, Request};

/// Closed-loop client connections (one thread each).
pub const CONNS: u64 = 2;

/// Splitmix64 step: decorrelates seeds.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded xorshift64* generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        let mut s = seed;
        Rng(splitmix64(&mut s) | 1)
    }

    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }
}

/// How a connection picks ranks within its partition.
#[derive(Debug, Clone)]
pub enum KeyDist {
    Uniform {
        n: u64,
    },
    /// YCSB zipfian over `0..n` (rank 0 hottest), Gray et al.'s formula.
    Zipf {
        n: u64,
        theta: f64,
        alpha: f64,
        zetan: f64,
        eta: f64,
    },
}

impl KeyDist {
    pub fn zipf(n: u64, theta: f64) -> KeyDist {
        let zeta = |m: u64| (1..=m).map(|i| 1.0 / (i as f64).powf(theta)).sum::<f64>();
        let zetan = zeta(n);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta(2) / zetan);
        KeyDist::Zipf {
            n,
            theta,
            alpha: 1.0 / (1.0 - theta),
            zetan,
            eta,
        }
    }

    pub fn sample(&self, rng: &mut Rng) -> u64 {
        match *self {
            KeyDist::Uniform { n } => rng.below(n),
            KeyDist::Zipf {
                n,
                theta,
                alpha,
                zetan,
                eta,
            } => {
                let u = rng.next_f64();
                let uz = u * zetan;
                if uz < 1.0 {
                    0
                } else if uz < 1.0 + 0.5f64.powf(theta) {
                    1
                } else {
                    ((n as f64 * (eta * u - eta + 1.0).powf(alpha)) as u64).min(n - 1)
                }
            }
        }
    }
}

/// One workload: store shape, key space and request mix.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub policy: PolicyKind,
    pub shards: usize,
    pub shard_capacity: u64,
    /// Keys over all partitions; half of each partition is prefilled.
    pub keys: u64,
    /// Zipfian skew, or `None` for uniform ranks.
    pub theta: Option<f64>,
    pub get_frac: f64,
    /// Operations per frame: 1 sends plain requests, more sends `BATCH`.
    pub batch: usize,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "point-single",
        policy: PolicyKind::NvTraverse,
        shards: 4,
        shard_capacity: 16 << 20,
        keys: 16 << 10,
        theta: Some(0.99),
        get_frac: 0.5,
        batch: 1,
    },
    Workload {
        name: "point-batch",
        policy: PolicyKind::NvTraverse,
        shards: 4,
        shard_capacity: 16 << 20,
        keys: 16 << 10,
        theta: Some(0.99),
        get_frac: 0.5,
        batch: 32,
    },
    Workload {
        name: "soft-batch",
        policy: PolicyKind::Soft,
        shards: 4,
        shard_capacity: 16 << 20,
        keys: 16 << 10,
        theta: Some(0.99),
        get_frac: 0.5,
        batch: 32,
    },
    Workload {
        name: "large-read",
        policy: PolicyKind::NvTraverse,
        shards: 4,
        shard_capacity: 32 << 20,
        keys: 256 << 10,
        theta: None,
        get_frac: 0.95,
        batch: 32,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// Ranks in one connection's partition.
    pub fn ranks(&self) -> u64 {
        self.keys / CONNS
    }

    fn dist(&self) -> KeyDist {
        match self.theta {
            Some(theta) => KeyDist::zipf(self.ranks(), theta),
            None => KeyDist::Uniform { n: self.ranks() },
        }
    }

    /// The prefill of connection `conn`'s partition: a seeded half of its
    /// ranks, with their values, indexed by rank.
    pub fn prefill(&self, seed: u64, conn: u64) -> Vec<Option<u64>> {
        let n = self.ranks();
        let mut rng = Rng::new(stream_seed(seed, 0x9000 + conn));
        let mut ranks: Vec<u64> = (0..n).collect();
        for i in (1..ranks.len()).rev() {
            let j = rng.below(i as u64 + 1) as usize;
            ranks.swap(i, j);
        }
        let mut vals = vec![None; n as usize];
        for &r in &ranks[..(n / 2) as usize] {
            vals[r as usize] = Some(value(&mut rng));
        }
        vals
    }

    /// Connection `conn`'s request stream.
    pub fn stream(&self, seed: u64, conn: u64) -> OpStream {
        OpStream {
            rng: Rng::new(stream_seed(seed, conn)),
            dist: self.dist(),
            conn,
            get_frac: self.get_frac,
            batch: self.batch,
        }
    }
}

fn stream_seed(seed: u64, salt: u64) -> u64 {
    let mut s = seed ^ salt.wrapping_mul(0xD6E8_FEB8_6659_FD93);
    splitmix64(&mut s)
}

/// Values stay below 2^62 so no reserved bit pattern is ever stored.
fn value(rng: &mut Rng) -> u64 {
    rng.next_u64() >> 2
}

pub fn key_of(rank: u64, conn: u64) -> u64 {
    rank * CONNS + conn
}

/// An endless, seeded stream of one connection's frames.
#[derive(Debug, Clone)]
pub struct OpStream {
    rng: Rng,
    dist: KeyDist,
    conn: u64,
    get_frac: f64,
    batch: usize,
}

impl OpStream {
    fn next_op(&mut self) -> Request {
        let key = key_of(self.dist.sample(&mut self.rng), self.conn);
        if self.rng.next_f64() < self.get_frac {
            Request::Get(key)
        } else if self.rng.next_u64() & 1 == 0 {
            Request::Insert(key, value(&mut self.rng))
        } else {
            Request::Remove(key)
        }
    }

    /// The next frame: one request, or a `BATCH` of `batch` requests.
    pub fn next_frame(&mut self) -> Request {
        if self.batch == 1 {
            self.next_op()
        } else {
            Request::Batch((0..self.batch).map(|_| self.next_op()).collect())
        }
    }
}

/// The key a data operation names.
pub fn op_key(op: &Request) -> u64 {
    match *op {
        Request::Get(k) | Request::Insert(k, _) | Request::Remove(k) => k,
        ref other => panic!("not a data op: {other:?}"),
    }
}

/// The data operations a frame carries.
pub fn ops_of(frame: &Request) -> &[Request] {
    match frame {
        Request::Batch(ops) => ops,
        single => std::slice::from_ref(single),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frames(w: &Workload, seed: u64, conn: u64, n: usize) -> Vec<Request> {
        let mut s = w.stream(seed, conn);
        (0..n).map(|_| s.next_frame()).collect()
    }

    #[test]
    fn same_seed_same_frames_other_seed_other_frames() {
        for w in &WORKLOADS {
            for conn in 0..CONNS {
                assert_eq!(
                    frames(w, 7, conn, 200),
                    frames(w, 7, conn, 200),
                    "{}",
                    w.name
                );
                assert_ne!(
                    frames(w, 7, conn, 200),
                    frames(w, 8, conn, 200),
                    "{}",
                    w.name
                );
                assert_eq!(w.prefill(7, conn), w.prefill(7, conn));
                assert_ne!(w.prefill(7, conn), w.prefill(8, conn));
            }
            assert_ne!(
                frames(w, 7, 0, 200),
                frames(w, 7, 1, 200),
                "connections differ"
            );
        }
    }

    #[test]
    fn partitions_are_disjoint_and_half_full() {
        let w = workload("point-single").unwrap();
        for conn in 0..CONNS {
            let pre = w.prefill(3, conn);
            assert_eq!(
                pre.iter().filter(|v| v.is_some()).count() as u64,
                w.ranks() / 2
            );
            for f in frames(w, 3, conn, 1000) {
                for op in ops_of(&f) {
                    let k = op_key(op);
                    assert_eq!(k % CONNS, conn);
                    assert!(k / CONNS < w.ranks());
                }
            }
        }
    }

    #[test]
    fn mix_splits_updates_evenly() {
        let w = workload("point-batch").unwrap();
        let (mut gets, mut ins, mut rem) = (0, 0, 0);
        for f in frames(w, 11, 0, 500) {
            assert_eq!(ops_of(&f).len(), 32);
            for op in ops_of(&f) {
                match op {
                    Request::Get(_) => gets += 1,
                    Request::Insert(..) => ins += 1,
                    Request::Remove(_) => rem += 1,
                    _ => unreachable!(),
                }
            }
        }
        let total = (gets + ins + rem) as f64;
        assert!((gets as f64 / total - 0.5).abs() < 0.02);
        assert!((ins as f64 / (ins + rem) as f64 - 0.5).abs() < 0.02);
    }
}
