//! The per-connection model that predicts every reply.
//!
//! A connection's keys are disjoint from every other connection's, so its
//! replies depend only on its own earlier operations and the prefill.

use crate::gen::{key_of, op_key, CONNS};
use nvtraverse_server::{KvStore, Reply, Request};

/// What checking one reply found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The reply matched; `mutated` tells whether an update changed the set.
    Ok { mutated: bool },
    /// The server refused the operation (`PoolFull`, `BadRequest`, …).
    Failed,
    /// The reply contradicts the model.
    Mismatch,
}

#[derive(Debug, Clone)]
pub struct Model {
    conn: u64,
    vals: Vec<Option<u64>>,
}

impl Model {
    pub fn new(conn: u64, prefill: Vec<Option<u64>>) -> Model {
        Model {
            conn,
            vals: prefill,
        }
    }

    fn slot(&mut self, key: u64) -> &mut Option<u64> {
        assert_eq!(
            key % CONNS,
            self.conn,
            "key {key} outside connection {}'s partition",
            self.conn
        );
        &mut self.vals[(key / CONNS) as usize]
    }

    /// Checks `got` against the model's prediction for `op`, and applies
    /// `op` to the model when the reply matches.
    pub fn check(&mut self, op: &Request, got: &Reply) -> Verdict {
        if matches!(
            got,
            Reply::PoolFull | Reply::BadRequest(_) | Reply::Unsupported
        ) {
            return Verdict::Failed;
        }
        let slot = self.slot(op_key(op));
        let (want, next) = match (op, *slot) {
            (Request::Get(_), cur) => (cur.map_or(Reply::Miss, Reply::Value), cur),
            (Request::Insert(..), Some(old)) => (Reply::Miss, Some(old)),
            (&Request::Insert(_, v), None) => (Reply::Applied, Some(v)),
            (Request::Remove(_), Some(_)) => (Reply::Applied, None),
            (Request::Remove(_), None) => (Reply::Miss, None),
            _ => unreachable!("op_key accepts data ops only"),
        };
        if *got != want {
            return Verdict::Mismatch;
        }
        *slot = next;
        Verdict::Ok {
            mutated: want == Reply::Applied,
        }
    }

    pub fn conn(&self) -> u64 {
        self.conn
    }

    /// Every `(key, value)` the model holds.
    pub fn entries(&self) -> impl Iterator<Item = (u64, Option<u64>)> + '_ {
        self.vals
            .iter()
            .enumerate()
            .map(|(r, v)| (key_of(r as u64, self.conn), *v))
    }
}

/// Checks that `store` holds exactly the models' union, one thread per
/// model; returns the live key count.
pub fn verify(store: &KvStore, models: &[Model]) -> Result<usize, String> {
    let live = std::thread::scope(|s| {
        let handles: Vec<_> = models
            .iter()
            .map(|m| {
                s.spawn(move || {
                    let mut live = 0;
                    for (k, want) in m.entries() {
                        let got = store.get(k);
                        if got != want {
                            return Err(format!(
                                "key {k} holds {got:?}, acknowledged state is {want:?}"
                            ));
                        }
                        live += usize::from(want.is_some());
                    }
                    Ok(live)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("verify thread panicked"))
            .sum::<Result<usize, String>>()
    })?;
    if store.len() != live {
        return Err(format!(
            "the store holds {} keys, acknowledged state {live}",
            store.len()
        ));
    }
    Ok(live)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_predicts_and_rejects_one_flipped_reply() {
        let mut m = Model::new(1, vec![Some(5), None, None]);
        assert_eq!(
            m.check(&Request::Get(1), &Reply::Value(5)),
            Verdict::Ok { mutated: false }
        );
        assert_eq!(
            m.check(&Request::Insert(3, 9), &Reply::Applied),
            Verdict::Ok { mutated: true }
        );
        assert_eq!(
            m.check(&Request::Insert(3, 10), &Reply::Miss),
            Verdict::Ok { mutated: false }
        );
        assert_eq!(
            m.check(&Request::Get(3), &Reply::Value(9)),
            Verdict::Ok { mutated: false }
        );
        assert_eq!(
            m.check(&Request::Remove(1), &Reply::Applied),
            Verdict::Ok { mutated: true }
        );
        // Each flipped reply is caught and leaves the model unchanged.
        assert_eq!(
            m.check(&Request::Get(1), &Reply::Value(5)),
            Verdict::Mismatch
        );
        assert_eq!(
            m.check(&Request::Remove(1), &Reply::Applied),
            Verdict::Mismatch
        );
        assert_eq!(
            m.check(&Request::Insert(3, 1), &Reply::Applied),
            Verdict::Mismatch
        );
        assert_eq!(
            m.check(&Request::Get(3), &Reply::Value(8)),
            Verdict::Mismatch
        );
        assert_eq!(
            m.check(&Request::Get(5), &Reply::Miss),
            Verdict::Ok { mutated: false }
        );
        assert_eq!(
            m.check(&Request::Insert(5, 2), &Reply::PoolFull),
            Verdict::Failed
        );
        assert_eq!(
            m.entries().collect::<Vec<_>>(),
            vec![(1, None), (3, Some(9)), (5, None)]
        );
    }
}
