//! The subscription subsystem: typed push channels over the provider
//! boundary.
//!
//! A [`SubscriptionHub`] sits next to a backend (in-process it lives
//! inside `SimProvider`; behind a socket the daemon's session owns it) and
//! turns the chain's raw event log ([`ChainEvent`]s with chain-monotonic
//! sequence numbers) into per-subscription [`Notification`]s:
//!
//! - **`NewHeads`** — every mined block.
//! - **`Logs{filter}`** — mined logs matching an `eth_getLogs`-style
//!   filter, in execution order within each block.
//! - **`PendingTxs`** — the decoded mempool firehose: each submitted
//!   transaction as a [`PendingTxEvent`] (`sender`, `to`, `selector`,
//!   `tip`, `nonce`), decoded once at publish, not per subscriber.
//!
//! Delivery order is deterministic and backend-independent: events route
//! in publish (sequence) order, and within one event fan-out runs in
//! subscription-id order. Consumers key streams by `(slot, shard, seq)` —
//! the slot and shard come from whoever drains (the engine knows both),
//! the `seq` rides every notification — so in-process, pipe, and TCP
//! backends emit bit-identical streams.

use ofl_eth::block::Block;
use ofl_eth::chain::{ChainEvent, FilteredLog, LogFilter, PendingTxEvent};

/// What a subscriber asked to watch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubscriptionKind {
    /// Every mined block header (the whole block, hashes included).
    NewHeads,
    /// Mined logs matching the filter's address/topic; the filter's block
    /// range is ignored for push delivery (every new block is "new").
    Logs {
        /// Address/topic restriction applied to each mined log.
        filter: LogFilter,
    },
    /// The decoded pending-transaction firehose.
    PendingTxs,
}

/// One pushed event, as it crosses the wire inside `Frame::Notify`.
#[derive(Debug, Clone, PartialEq)]
pub enum SubEvent {
    /// A mined block (for `NewHeads`).
    NewHead(Box<Block>),
    /// A matching mined log (for `Logs`).
    Log(FilteredLog),
    /// A decoded pending transaction (for `PendingTxs`).
    PendingTx(PendingTxEvent),
}

/// One delivery: which subscription, which chain sequence number, what.
#[derive(Debug, Clone, PartialEq)]
pub struct Notification {
    /// The subscription this event matched.
    pub sub_id: u64,
    /// The chain's publish-order sequence number for the event.
    pub seq: u64,
    /// The event itself.
    pub event: SubEvent,
}

/// [`SubscriptionHub`] high-water mark: a subscription that has been
/// routed more notifications than this in one run earns a one-shot
/// warning.
pub const SUB_HIGH_WATER: u64 = 10_000;

/// The per-backend subscription table and router.
#[derive(Debug)]
pub struct SubscriptionHub {
    /// Next id handed out (ids start at 1 and never recycle, so a stale
    /// unsubscribe can never cancel a newer subscription).
    next_id: u64,
    /// Live subscriptions in id order (ids are monotonic, so insertion
    /// order is id order), each with its routed-notification depth.
    subs: Vec<SubEntry>,
}

#[derive(Debug)]
struct SubEntry {
    id: u64,
    kind: SubscriptionKind,
    /// Notifications routed to this subscription so far. Nothing
    /// downstream drops or acknowledges pushes yet, so this is the upper
    /// bound on the subscriber's queued backlog (inbox, push buffer, or
    /// wire) — the observable half of backpressure.
    depth: u64,
}

impl Default for SubscriptionHub {
    fn default() -> SubscriptionHub {
        SubscriptionHub::new()
    }
}

impl SubscriptionHub {
    /// An empty hub.
    pub fn new() -> SubscriptionHub {
        SubscriptionHub {
            next_id: 1,
            subs: Vec::new(),
        }
    }

    /// Registers a subscription and returns its id (monotonic from 1).
    pub fn subscribe(&mut self, kind: SubscriptionKind) -> u64 {
        if self.next_id == 0 {
            self.next_id = 1;
        }
        let id = self.next_id;
        self.next_id += 1;
        self.subs.push(SubEntry { id, kind, depth: 0 });
        id
    }

    /// Cancels a subscription; false when the id was unknown.
    pub fn unsubscribe(&mut self, sub_id: u64) -> bool {
        let before = self.subs.len();
        self.subs.retain(|entry| entry.id != sub_id);
        self.subs.len() < before
    }

    /// How many subscriptions are live.
    pub fn len(&self) -> usize {
        self.subs.len()
    }

    /// True when nothing is subscribed.
    pub fn is_empty(&self) -> bool {
        self.subs.is_empty()
    }

    /// Notifications routed to `sub_id` so far (None for unknown ids).
    pub fn depth(&self, sub_id: u64) -> Option<u64> {
        self.subs
            .iter()
            .find(|entry| entry.id == sub_id)
            .map(|entry| entry.depth)
    }

    /// Routes drained chain events to the live subscriptions: events in
    /// publish order, fan-out within an event in subscription-id order.
    ///
    /// Routing bumps each matched subscription's [`SubscriptionHub::depth`]
    /// and logs a one-shot warning the moment a depth passes
    /// [`SUB_HIGH_WATER`] — the observe-only half of backpressure (no
    /// event is ever dropped).
    pub fn route(&mut self, events: &[(u64, ChainEvent)]) -> Vec<Notification> {
        let mut out = Vec::new();
        for (seq, event) in events {
            for entry in &mut self.subs {
                if let Some(sub_event) = match_event(&entry.kind, event) {
                    entry.depth += 1;
                    // Depth grows by one, so this fires exactly once.
                    if entry.depth == SUB_HIGH_WATER + 1 {
                        eprintln!(
                            "warning: subscription {} ({}) passed the high-water mark: \
                             more than {SUB_HIGH_WATER} notifications routed; \
                             no backpressure is applied yet",
                            entry.id,
                            kind_label(&entry.kind),
                        );
                    }
                    out.push(Notification {
                        sub_id: entry.id,
                        seq: *seq,
                        event: sub_event,
                    });
                }
            }
        }
        out
    }
}

/// Short label for warnings: the kind without its filter payload.
fn kind_label(kind: &SubscriptionKind) -> &'static str {
    match kind {
        SubscriptionKind::NewHeads => "newHeads",
        SubscriptionKind::Logs { .. } => "logs",
        SubscriptionKind::PendingTxs => "pendingTxs",
    }
}

/// Whether `event` matches a subscription of `kind`, and as what.
fn match_event(kind: &SubscriptionKind, event: &ChainEvent) -> Option<SubEvent> {
    match (kind, event) {
        (SubscriptionKind::NewHeads, ChainEvent::Head(block)) => {
            Some(SubEvent::NewHead(block.clone()))
        }
        (SubscriptionKind::Logs { filter }, ChainEvent::Log(fl)) => {
            log_matches(filter, fl).then(|| SubEvent::Log(fl.clone()))
        }
        (SubscriptionKind::PendingTxs, ChainEvent::Pending(p)) => {
            Some(SubEvent::PendingTx(p.clone()))
        }
        _ => None,
    }
}

/// Push-delivery filter match: address and first topic, like
/// `Chain::get_logs`; the block range is not consulted (push subscribers
/// only ever see new blocks).
fn log_matches(filter: &LogFilter, fl: &FilteredLog) -> bool {
    if let Some(addr) = &filter.address {
        if fl.log.address != *addr {
            return false;
        }
    }
    if let Some(topic) = &filter.topic {
        if fl.log.topics.first() != Some(topic) {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use ofl_eth::block::{Bloom, Header};
    use ofl_eth::evm::LogEntry;
    use ofl_primitives::u256::U256;
    use ofl_primitives::{H160, H256};

    fn head_event() -> ChainEvent {
        ChainEvent::Head(Box::new(Block {
            header: Header {
                parent_hash: H256::ZERO,
                number: 1,
                timestamp: 12,
                coinbase: H160::ZERO,
                gas_used: 0,
                gas_limit: 30_000_000,
                base_fee: U256::from(7u64),
                tx_root: H256::ZERO,
                bloom: Bloom::default(),
            },
            tx_hashes: Vec::new(),
        }))
    }

    fn log_event(address: H160, topic: H256) -> ChainEvent {
        ChainEvent::Log(FilteredLog {
            block_number: 1,
            tx_hash: H256::from_slice(&[9u8; 32]),
            log_index: 0,
            log: LogEntry {
                address,
                topics: vec![topic],
                data: vec![1, 2, 3],
            },
        })
    }

    fn pending_event(nonce: u64) -> ChainEvent {
        ChainEvent::Pending(PendingTxEvent {
            hash: H256::from_slice(&[nonce as u8; 32]),
            sender: H160::from_slice(&[2u8; 20]),
            to: Some(H160::from_slice(&[3u8; 20])),
            selector: Some([0xde, 0xad, 0xbe, 0xef]),
            tip: U256::from(5u64),
            nonce,
        })
    }

    #[test]
    fn ids_are_monotonic_and_unsubscribe_is_exact() {
        let mut hub = SubscriptionHub::new();
        let a = hub.subscribe(SubscriptionKind::NewHeads);
        let b = hub.subscribe(SubscriptionKind::PendingTxs);
        assert_eq!((a, b), (1, 2));
        assert_eq!(hub.len(), 2);
        assert!(hub.unsubscribe(a));
        assert!(!hub.unsubscribe(a), "second cancel is a no-op");
        assert!(!hub.unsubscribe(99));
        // Ids never recycle.
        assert_eq!(hub.subscribe(SubscriptionKind::NewHeads), 3);
    }

    #[test]
    fn routing_preserves_publish_order_and_fans_out_in_id_order() {
        let mut hub = SubscriptionHub::new();
        let heads = hub.subscribe(SubscriptionKind::NewHeads);
        let all_logs = hub.subscribe(SubscriptionKind::Logs {
            filter: LogFilter::all(),
        });
        let pending = hub.subscribe(SubscriptionKind::PendingTxs);
        let addr = H160::from_slice(&[7u8; 20]);
        let topic = H256::from_slice(&[8u8; 32]);
        let events = vec![
            (0, pending_event(0)),
            (1, head_event()),
            (2, log_event(addr, topic)),
        ];
        let notes = hub.route(&events);
        let keys: Vec<(u64, u64)> = notes.iter().map(|n| (n.seq, n.sub_id)).collect();
        assert_eq!(keys, vec![(0, pending), (1, heads), (2, all_logs)]);
        assert!(matches!(notes[0].event, SubEvent::PendingTx(_)));
        assert!(matches!(notes[1].event, SubEvent::NewHead(_)));
        assert!(matches!(notes[2].event, SubEvent::Log(_)));
    }

    #[test]
    fn log_filters_select_by_address_and_topic() {
        let mut hub = SubscriptionHub::new();
        let addr = H160::from_slice(&[7u8; 20]);
        let topic = H256::from_slice(&[8u8; 32]);
        let by_addr = hub.subscribe(SubscriptionKind::Logs {
            filter: LogFilter::all().at_address(addr),
        });
        let by_topic = hub.subscribe(SubscriptionKind::Logs {
            filter: LogFilter::all().with_topic(H256::from_slice(&[1u8; 32])),
        });
        let notes = hub.route(&[(0, log_event(addr, topic))]);
        // The address filter matches, the wrong-topic filter does not.
        assert_eq!(notes.len(), 1);
        assert_eq!(notes[0].sub_id, by_addr);
        assert_ne!(notes[0].sub_id, by_topic);
    }

    #[test]
    fn depth_tracks_routed_notifications_per_subscription() {
        let mut hub = SubscriptionHub::new();
        let heads = hub.subscribe(SubscriptionKind::NewHeads);
        let pending = hub.subscribe(SubscriptionKind::PendingTxs);
        hub.route(&[
            (0, head_event()),
            (1, pending_event(0)),
            (2, pending_event(1)),
        ]);
        assert_eq!(hub.depth(heads), Some(1));
        assert_eq!(hub.depth(pending), Some(2));
        hub.route(&[(3, head_event())]);
        assert_eq!(hub.depth(heads), Some(2));
        assert_eq!(hub.depth(99), None);
        assert!(hub.unsubscribe(heads));
        assert_eq!(hub.depth(heads), None);
    }

    #[test]
    fn high_water_warning_latches_and_routing_continues() {
        let mut hub = SubscriptionHub::new();
        let pending = hub.subscribe(SubscriptionKind::PendingTxs);
        let events: Vec<(u64, ChainEvent)> = (0..=SUB_HIGH_WATER)
            .map(|i| (i, pending_event(i)))
            .collect();
        // Observe-only: crossing the mark never drops events, and routing
        // past it again does not re-warn.
        assert_eq!(hub.route(&events).len(), events.len());
        assert_eq!(hub.depth(pending), Some(SUB_HIGH_WATER + 1));
        hub.route(&events[..5]);
        assert_eq!(hub.depth(pending), Some(SUB_HIGH_WATER + 6));
    }

    #[test]
    fn two_subscribers_to_one_channel_both_hear_every_event() {
        let mut hub = SubscriptionHub::new();
        let a = hub.subscribe(SubscriptionKind::PendingTxs);
        let b = hub.subscribe(SubscriptionKind::PendingTxs);
        let notes = hub.route(&[(0, pending_event(0)), (1, pending_event(1))]);
        let keys: Vec<(u64, u64)> = notes.iter().map(|n| (n.seq, n.sub_id)).collect();
        // Event order outranks subscriber order: both hear seq 0, then both
        // hear seq 1, each fan-out in id order.
        assert_eq!(keys, vec![(0, a), (0, b), (1, a), (1, b)]);
    }
}
