//! Traffic and custom-metric accounting.
//!
//! The paper's bandwidth figures (8–10) report *bytes of key-update
//! traffic*; the reproduction regenerates them from these counters.
//! Every send is tagged with a `kind` string (e.g. `"key-update"`,
//! `"data"`, `"alive"`), and both "bytes sent" (multicast counted once —
//! the paper's metric) and "bytes delivered" (multiplied by receiver
//! count) are tracked.

use std::collections::BTreeMap;

/// Per-kind traffic counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KindCounters {
    /// Messages sent (a multicast counts once).
    pub messages_sent: u64,
    /// Payload bytes sent (a multicast counts once).
    pub bytes_sent: u64,
    /// Message deliveries (a multicast counts once per receiver).
    pub messages_delivered: u64,
    /// Payload bytes delivered (multiplied by receiver count).
    pub bytes_delivered: u64,
}

/// Aggregated traffic statistics for a simulation run.
#[derive(Debug, Clone, Default)]
pub struct Stats {
    by_kind: BTreeMap<&'static str, KindCounters>,
    custom: BTreeMap<&'static str, u64>,
}

impl Stats {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    pub(crate) fn record_send(&mut self, kind: &'static str, bytes: usize, receivers: usize) {
        let c = self.by_kind.entry(kind).or_default();
        c.messages_sent += 1;
        c.bytes_sent += bytes as u64;
        c.messages_delivered += receivers as u64;
        c.bytes_delivered += (bytes * receivers) as u64;
    }

    /// Adds `value` to the custom counter `key` (used by protocol code
    /// to report experiment-specific metrics, e.g. rekey operations).
    pub fn bump(&mut self, key: &'static str, value: u64) {
        *self.custom.entry(key).or_insert(0) += value;
    }

    /// Counters for a message kind (zeros if the kind never appeared).
    pub fn kind(&self, kind: &str) -> KindCounters {
        self.by_kind.get(kind).copied().unwrap_or_default()
    }

    /// A custom counter's value (zero if never bumped).
    pub fn counter(&self, key: &str) -> u64 {
        self.custom.get(key).copied().unwrap_or(0)
    }

    /// Iterates over all message kinds in deterministic order.
    pub fn kinds(&self) -> impl Iterator<Item = (&'static str, KindCounters)> + '_ {
        self.by_kind.iter().map(|(k, v)| (*k, *v))
    }

    /// Iterates over all custom counters in deterministic order.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.custom.iter().map(|(k, v)| (*k, *v))
    }

    /// Total bytes sent across all kinds (multicast counted once).
    pub fn total_bytes_sent(&self) -> u64 {
        self.by_kind.values().map(|c| c.bytes_sent).sum()
    }

    /// Total messages sent across all kinds.
    pub fn total_messages_sent(&self) -> u64 {
        self.by_kind.values().map(|c| c.messages_sent).sum()
    }

    /// Resets every counter (used between measurement phases so a bench
    /// can isolate one event's traffic).
    pub fn reset(&mut self) {
        self.by_kind.clear();
        self.custom.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_sends_and_deliveries() {
        let mut s = Stats::new();
        s.record_send("key-update", 100, 3);
        s.record_send("key-update", 50, 1);
        s.record_send("data", 1000, 10);
        let ku = s.kind("key-update");
        assert_eq!(ku.messages_sent, 2);
        assert_eq!(ku.bytes_sent, 150);
        assert_eq!(ku.messages_delivered, 4);
        assert_eq!(ku.bytes_delivered, 350);
        assert_eq!(s.total_bytes_sent(), 1150);
        assert_eq!(s.total_messages_sent(), 3);
    }

    #[test]
    fn unknown_kind_is_zero() {
        let s = Stats::new();
        assert_eq!(s.kind("nothing"), KindCounters::default());
        assert_eq!(s.counter("nothing"), 0);
    }

    #[test]
    fn custom_counters_accumulate() {
        let mut s = Stats::new();
        s.bump("rekeys", 1);
        s.bump("rekeys", 2);
        assert_eq!(s.counter("rekeys"), 3);
    }

    #[test]
    fn reset_clears_everything() {
        let mut s = Stats::new();
        s.record_send("x", 10, 1);
        s.bump("y", 5);
        s.reset();
        assert_eq!(s.total_bytes_sent(), 0);
        assert_eq!(s.counter("y"), 0);
    }

    #[test]
    fn iteration_is_deterministic() {
        let mut s = Stats::new();
        s.record_send("b", 1, 1);
        s.record_send("a", 1, 1);
        s.record_send("c", 1, 1);
        let kinds: Vec<&str> = s.kinds().map(|(k, _)| k).collect();
        assert_eq!(kinds, vec!["a", "b", "c"]);
    }
}
