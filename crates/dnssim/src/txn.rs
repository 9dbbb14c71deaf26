//! The one transaction table: the forwarder's relays, the resolver's
//! recursions and the TCP relay's queries, each under a `u16` DNS id.

use netsim::time::SimTime;
use std::collections::BTreeMap;

/// Pending transactions keyed by a `u16` DNS id, one deadline each.
#[derive(Debug)]
pub struct TxnTable<V> {
    entries: BTreeMap<u16, (SimTime, V)>,
    /// Where the next [`TxnTable::alloc`] starts probing.
    next_txn: u16,
}

impl<V> Default for TxnTable<V> {
    fn default() -> Self {
        TxnTable {
            entries: BTreeMap::new(),
            next_txn: 1,
        }
    }
}

impl<V> TxnTable<V> {
    /// A fresh id: the first one at or after the cursor that is not
    /// pending. Ids run 1, 2, …, 65535 and wrap to 1; 0 is never handed
    /// out. The id is not reserved until it is [`inserted`](Self::insert).
    ///
    /// # Panics
    ///
    /// When all 65 535 ids are pending.
    pub fn alloc(&mut self) -> u16 {
        for _ in 0..u16::MAX {
            let id = self.next_txn;
            self.next_txn = self.next_txn.wrapping_add(1).max(1);
            if !self.entries.contains_key(&id) {
                return id;
            }
        }
        #[expect(
            clippy::panic,
            reason = "exhausting all 65k transaction ids means transactions leaked; continuing \
                      would match an answer to the wrong requester"
        )]
        {
            panic!("transaction ids exhausted");
        }
    }

    /// Records a pending transaction under `id`, due at `deadline`.
    pub fn insert(&mut self, id: u16, deadline: SimTime, value: V) {
        self.entries.insert(id, (deadline, value));
    }

    /// Removes a pending transaction, returning its deadline and value.
    pub fn take(&mut self, id: u16) -> Option<(SimTime, V)> {
        self.entries.remove(&id)
    }

    /// Whether `id` is pending.
    pub fn contains(&self, id: u16) -> bool {
        self.entries.contains_key(&id)
    }

    /// The ids whose deadline has passed (`deadline < now`), ascending. They
    /// stay pending until [`taken`](Self::take), so ids allocated meanwhile
    /// skip them.
    pub fn expired(&self, now: SimTime) -> Vec<u16> {
        self.entries
            .iter()
            .filter(|(_, (deadline, _))| *deadline < now)
            .map(|(&id, _)| id)
            .collect()
    }

    /// The earliest deadline of any pending transaction (a scan: tables
    /// hold a handful of entries).
    pub fn next_deadline(&self) -> Option<SimTime> {
        self.entries.values().map(|(deadline, _)| *deadline).min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    #[test]
    fn ids_start_at_one_and_wrap_past_zero() {
        let mut table: TxnTable<()> = TxnTable::default();
        assert_eq!(table.alloc(), 1);
        for _ in 2..u16::MAX {
            table.alloc();
        }
        assert_eq!(table.alloc(), 65_535);
        assert_eq!(table.alloc(), 1);
    }

    #[test]
    fn alloc_skips_pending_ids() {
        let mut table = TxnTable::default();
        table.insert(1, t(0), 'a');
        table.insert(2, t(0), 'b');
        assert_eq!(table.alloc(), 3);
        assert_eq!(table.take(1), Some((t(0), 'a')));
        assert_eq!(table.take(1), None);
    }

    #[test]
    #[should_panic(expected = "transaction ids exhausted")]
    fn alloc_panics_when_every_id_is_pending() {
        let mut table = TxnTable::default();
        for id in 1..=u16::MAX {
            table.insert(id, t(0), ());
        }
        table.alloc();
    }

    /// The reference: a plain map plus a cursor, allocating by a search
    /// written independently of the table's probe loop.
    #[derive(Default)]
    struct Model {
        entries: BTreeMap<u16, (SimTime, u32)>,
        cursor: u16,
    }

    impl Model {
        fn alloc(&mut self) -> u16 {
            let cursor = self.cursor.max(1);
            let id = (cursor..=u16::MAX)
                .chain(1..cursor)
                .find(|id| !self.entries.contains_key(id))
                .expect("model ids exhausted");
            self.cursor = id.checked_add(1).unwrap_or(1);
            id
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random alloc/insert/take/expired/next_deadline sequences, from a
        /// cursor that sits just below the wrap in half the cases, agree
        /// with the map-plus-cursor reference.
        #[test]
        fn table_matches_the_map_reference(
            start in prop_oneof![Just(1u16), 65_500u16..=u16::MAX],
            ops in proptest::collection::vec((0u8..8, any::<u32>()), 1..300),
        ) {
            let mut table = TxnTable {
                next_txn: start,
                ..TxnTable::default()
            };
            let mut model = Model { cursor: start, ..Model::default() };
            let mut now = 0u64;
            for &(op, raw) in &ops {
                match op {
                    // Alloc, usually followed by an insert of that id.
                    0..=2 => {
                        let id = table.alloc();
                        prop_assert_eq!(id, model.alloc());
                        if raw % 4 != 0 {
                            let deadline = t(now + u64::from(raw % 5_000));
                            table.insert(id, deadline, raw);
                            model.entries.insert(id, (deadline, raw));
                        }
                    }
                    // Take a pending id (or a random one).
                    3 | 4 => {
                        let pending: Vec<u16> = model.entries.keys().copied().collect();
                        let id = if pending.is_empty() || raw % 5 == 0 {
                            raw as u16
                        } else {
                            pending[raw as usize % pending.len()]
                        };
                        prop_assert_eq!(table.take(id), model.entries.remove(&id));
                    }
                    // Time passes; expired ids are taken one at a time, in
                    // ascending order.
                    5 | 6 => {
                        now += u64::from(raw % 3_000);
                        let expired = table.expired(t(now));
                        let want: Vec<u16> = model
                            .entries
                            .iter()
                            .filter(|(_, (d, _))| *d < t(now))
                            .map(|(&id, _)| id)
                            .collect();
                        prop_assert_eq!(&expired, &want);
                        prop_assert!(expired.windows(2).all(|w| w[0] < w[1]));
                        for (i, &id) in expired.iter().enumerate() {
                            prop_assert_eq!(table.take(id), model.entries.remove(&id));
                            // A retry goes out under a fresh id, which must
                            // skip the expired ids not taken yet.
                            if (raw >> (i % 32)) & 1 == 1 {
                                let fresh = table.alloc();
                                prop_assert_eq!(fresh, model.alloc());
                                prop_assert!(!expired[i + 1..].contains(&fresh));
                                let deadline = t(now + 5_000);
                                table.insert(fresh, deadline, raw);
                                model.entries.insert(fresh, (deadline, raw));
                            }
                        }
                    }
                    _ => {}
                }
                prop_assert_eq!(
                    table.next_deadline(),
                    model.entries.values().map(|(d, _)| *d).min()
                );
                let everything = table.expired(t(u64::MAX));
                prop_assert!(everything.iter().eq(model.entries.keys()));
            }
        }
    }
}
