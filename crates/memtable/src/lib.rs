//! The Acheron memtable: an arena-backed skiplist write buffer that
//! additionally maintains the tombstone statistics (count, oldest
//! tombstone tick, secondary delete-key fences) that FADE and KiWi
//! consume once the buffer is flushed into an SSTable.

#![forbid(unsafe_code)]

pub mod memtable;
pub mod skiplist;

pub use memtable::{LookupResult, Memtable, MemtableStats};
pub use skiplist::{SkipIter, SkipList};

#[cfg(test)]
mod proptests {
    //! Property test: the memtable's visibility semantics are equivalent
    //! to a reference model (a map from key to version history).
    use std::collections::BTreeMap;

    use acheron_types::Entry;
    use bytes::Bytes;
    use proptest::prelude::*;

    use crate::memtable::{LookupResult, Memtable};

    #[derive(Debug, Clone)]
    enum Op {
        Put(u8, u8),
        Del(u8),
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            (any::<u8>(), any::<u8>()).prop_map(|(k, v)| Op::Put(k % 16, v)),
            any::<u8>().prop_map(|k| Op::Del(k % 16)),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn memtable_matches_model(ops in prop::collection::vec(op_strategy(), 1..200)) {
            let mem = Memtable::new();
            // model: key -> version history of (seqno, Option<value>)
            type History = Vec<(u64, Option<Vec<u8>>)>;
            let mut model: BTreeMap<Vec<u8>, History> = BTreeMap::new();
            for (i, op) in ops.iter().enumerate() {
                let seq = i as u64 + 1;
                match op {
                    Op::Put(k, v) => {
                        let key = vec![*k];
                        mem.insert(Entry::put(key.clone(), vec![*v], seq, 0));
                        model.entry(key).or_default().push((seq, Some(vec![*v])));
                    }
                    Op::Del(k) => {
                        let key = vec![*k];
                        mem.insert(Entry::tombstone(key.clone(), seq, seq));
                        model.entry(key).or_default().push((seq, None));
                    }
                }
            }
            let max_seq = ops.len() as u64;
            // Check every key at several snapshots.
            for k in 0u8..16 {
                let key = vec![k];
                for snap in [0, max_seq / 2, max_seq, max_seq + 5] {
                    let expected = model
                        .get(&key)
                        .and_then(|hist| {
                            hist.iter().rev().find(|(s, _)| *s <= snap).map(|(_, v)| v.clone())
                        });
                    let got = mem.get(&key, snap);
                    match expected {
                        None => prop_assert_eq!(got, LookupResult::NotFound),
                        Some(None) => prop_assert_eq!(got, LookupResult::Deleted),
                        Some(Some(v)) => {
                            prop_assert_eq!(got, LookupResult::Found(Bytes::from(v)))
                        }
                    }
                }
            }
            // Stats invariant: tombstone count matches the model.
            let model_tombstones = ops.iter().filter(|o| matches!(o, Op::Del(_))).count();
            prop_assert_eq!(mem.stats().tombstones, model_tombstones);
        }
    }
}
