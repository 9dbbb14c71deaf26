// D1 fixture: a `FastMap` field, initialised through `Default`, escapes its
// iteration order exactly once.
use netsim::hash::FastMap;

#[derive(Default)]
pub struct Table {
    flows: FastMap<u64, u32>,
}

impl Table {
    pub fn first_flow(&self) -> Option<u64> {
        self.flows.keys().next().copied()
    }
}
