// D1 fixture: the same `FastMap` field, used for membership only.
use netsim::hash::FastMap;

#[derive(Default)]
pub struct Table {
    flows: FastMap<u64, u32>,
}

impl Table {
    pub fn open(&mut self, flow: u64, port: u32) -> bool {
        self.flows.insert(flow, port).is_none()
    }

    pub fn port_of(&self, flow: u64) -> Option<u32> {
        self.flows.get(&flow).copied()
    }

    pub fn close(&mut self, flow: u64) -> bool {
        self.flows.remove(&flow).is_some() && !self.flows.contains_key(&flow)
    }
}
