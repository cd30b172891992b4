//! The DApp facade: button-level actions mirroring the React interfaces of
//! the paper's Fig 3, so that "anyone, regardless of their knowledge of
//! blockchain or Web 3.0", can drive the system.
//!
//! [`OwnerApp`] exposes the model-owner screen (Fig 3a) and [`BuyerApp`] the
//! model-buyer screen (Fig 3b). Every click produces a human-readable event
//! in the app's log, and MetaMask-style confirmation summaries are surfaced
//! before anything is signed.
//!
//! Like any real DApp, the screens talk to infrastructure only through the
//! provider traits: wallet connection reads the balance via
//! `eth_getBalance`, and the buyer's status line polls `eth_blockNumber` —
//! both priced, metered, and fault-injectable like all other traffic.

use crate::market::{MarketError, Marketplace, SessionReport};
use crate::world::{World, WorldError};
use ofl_eth::chain::LogFilter;
use ofl_netsim::clock::SimDuration;
use ofl_primitives::format_eth;
use ofl_rpc::{EndpointId, ModelMarketContract, SubEvent, SubscriptionKind};

/// A UI event (what the user sees after a click).
#[derive(Debug, Clone)]
pub struct UiEvent {
    /// Which screen produced it.
    pub screen: &'static str,
    /// Display text.
    pub message: String,
}

/// The model-owner screen (paper Fig 3a).
pub struct OwnerApp {
    /// Which owner this screen belongs to.
    pub owner_index: usize,
    events: Vec<UiEvent>,
}

impl OwnerApp {
    /// Opens the screen for owner `i`.
    pub fn new(owner_index: usize) -> OwnerApp {
        OwnerApp {
            owner_index,
            events: Vec::new(),
        }
    }

    fn log(&mut self, message: String) {
        self.events.push(UiEvent {
            screen: "owner",
            message,
        });
    }

    /// The event log.
    pub fn events(&self) -> &[UiEvent] {
        &self.events
    }

    /// "Connect Wallet" button: resolves the account and reads its balance
    /// through the provider (`eth_getBalance`), like MetaMask's header.
    pub fn connect_wallet(&mut self, market: &mut Marketplace) -> String {
        let addr = market.owners[self.owner_index].address;
        let ep = market.session.placement;
        let (balance, cost) = market
            .world
            .endpoint(ep)
            .eth_retry(|eth| eth.get_balance(&addr));
        market.world.clock.advance(cost);
        // A provider failure must not masquerade as an empty wallet.
        let msg = match balance {
            Ok(balance) => format!(
                "Connected wallet {} (balance {} ETH)",
                addr.to_checksum(),
                format_eth(&balance, 4)
            ),
            Err(e) => format!(
                "Connected wallet {} (balance unavailable: {e})",
                addr.to_checksum()
            ),
        };
        self.log(msg.clone());
        msg
    }

    /// "Train Model" button: runs local training on the private silo.
    pub fn train_model(&mut self, market: &mut Marketplace) -> String {
        market.owner_train(self.owner_index);
        let trained = market.owners[self.owner_index]
            .trained
            .as_ref()
            .expect("just trained");
        let msg = format!(
            "Training complete: {} examples, final loss {:.4}",
            trained.n_examples, trained.final_loss
        );
        self.log(msg.clone());
        msg
    }

    /// "Upload Model" button: pushes the model to IPFS (Steps 2–3).
    pub fn upload_model(&mut self, market: &mut Marketplace) -> Result<String, MarketError> {
        match market.owner_upload_model(self.owner_index) {
            Ok(cid) => {
                let msg = format!("Model uploaded to IPFS. CID: {cid}");
                self.log(msg.clone());
                Ok(msg)
            }
            Err(e) => {
                self.log(format!("Upload failed: {e}"));
                Err(e)
            }
        }
    }

    /// "Send CID" button: submits the CID to the contract via the wallet
    /// (Step 4), returning the MetaMask-style fee line.
    pub fn send_cid(&mut self, market: &mut Marketplace) -> Result<String, MarketError> {
        match market.owner_send_cid(self.owner_index) {
            Ok(receipt) => {
                let msg = format!(
                    "CID sent on-chain in block {} — gas {}, fee {} ETH",
                    receipt.block_number,
                    receipt.gas_used,
                    format_eth(&receipt.fee, 8)
                );
                self.log(msg.clone());
                Ok(msg)
            }
            Err(e) => {
                self.log(format!("Send CID failed: {e}"));
                Err(e)
            }
        }
    }
}

/// A resumable cursor over the contract's `CidUploaded` event stream —
/// what a production DApp's subscription loop keeps between polls.
///
/// Two delivery modes share one cursor:
///
/// * **Streaming** ([`CidWatcher::subscribed`]): a `Logs` push subscription
///   filtered to the contract address and `CidUploaded` topic. The first
///   [`poll`](CidWatcher::poll) does one catch-up range read for blocks
///   mined before the subscription existed; after that, polls just drain
///   parked push notifications — no head read, no `eth_getLogs`, zero RPC
///   round trips. An undecodable push degrades the watcher back to cursor
///   polling without skipping or re-yielding a block.
/// * **Cursor polling** ([`CidWatcher::new`]): each poll reads the chain
///   head (`eth_blockNumber`) and queries only `(last_seen, head]` via the
///   typed binding's `LogFilter::in_blocks` range.
///
/// In both modes repeated polls never rescan — and never re-yield — blocks
/// already seen: a fresh cursor's first poll reads from genesis, later
/// polls read only what was mined since.
pub struct CidWatcher {
    contract: ModelMarketContract,
    endpoint: EndpointId,
    /// Live `Logs` subscription id, or `None` in cursor-polling mode.
    sub: Option<u64>,
    /// Whether the one-time catch-up range read (blocks mined before the
    /// subscription existed) has run. Always true in cursor mode, where
    /// every poll is a range read.
    synced: bool,
    /// The highest block this watcher has already consumed.
    pub last_seen_block: u64,
}

impl CidWatcher {
    /// A cursor-polling watcher starting from genesis (nothing consumed
    /// yet).
    pub fn new(contract: ModelMarketContract, endpoint: EndpointId) -> CidWatcher {
        CidWatcher {
            contract,
            endpoint,
            sub: None,
            synced: true,
            last_seen_block: 0,
        }
    }

    /// A streaming watcher: opens a `Logs` subscription filtered to the
    /// contract's `CidUploaded` events. Blocks mined before this call are
    /// picked up by the first poll's catch-up range read.
    pub fn subscribed(
        contract: ModelMarketContract,
        endpoint: EndpointId,
        world: &mut World,
    ) -> CidWatcher {
        let filter = LogFilter::all()
            .at_address(contract.address)
            .with_topic(ModelMarketContract::uploaded_topic());
        let sub = world.subscribe(endpoint, SubscriptionKind::Logs { filter });
        CidWatcher {
            contract,
            endpoint,
            sub: Some(sub),
            synced: false,
            last_seen_block: 0,
        }
    }

    /// Whether the watcher is currently fed by a push subscription.
    pub fn is_streaming(&self) -> bool {
        self.sub.is_some()
    }

    /// Drops the push subscription and returns to cursor polling. The
    /// cursor sits on the last consumed block, so subsequent range polls
    /// resume exactly where the stream stopped — parked-but-untaken pushes
    /// are re-read from the chain, never duplicated.
    pub fn degrade(&mut self, world: &mut World) {
        if let Some(sub) = self.sub.take() {
            world.unsubscribe(self.endpoint, sub);
        }
        self.synced = true;
    }

    /// One iteration of the subscription loop: yields only CIDs uploaded in
    /// blocks this watcher has not consumed yet, plus the RPC time charged
    /// (head read and range query in cursor mode or during catch-up; zero
    /// once the stream is live). The caller charges the duration.
    pub fn poll(&mut self, world: &mut World) -> Result<(Vec<String>, SimDuration), MarketError> {
        let (mut cids, mut duration) = if self.synced {
            (Vec::new(), SimDuration::ZERO)
        } else {
            // One-time catch-up for blocks mined before the subscription
            // existed. It advances the cursor to the current head, so any
            // pushes already parked for those same blocks dedupe below.
            let caught = self.poll_range(world)?;
            self.synced = true;
            caught
        };
        let Some(sub) = self.sub else {
            // Cursor mode (`synced` is always true here, so nothing was
            // caught up above): every poll is a fresh range read.
            debug_assert!(cids.is_empty());
            return self.poll_range(world);
        };
        world.pump_notifications();
        let floor = self.last_seen_block;
        let batch_start = cids.len();
        for note in world.take_notifications(self.endpoint, sub) {
            let SubEvent::Log(pushed) = note.event else {
                continue;
            };
            // Blocks at or below the floor were already consumed (by the
            // catch-up read or an earlier drain); their parked copies are
            // duplicates. Deliveries arrive in whole-block batches, so a
            // block-granular floor never splits a block.
            if pushed.block_number <= floor {
                continue;
            }
            match ModelMarketContract::decode_uploaded(&pushed.log) {
                Ok(cid) => {
                    self.last_seen_block = self.last_seen_block.max(pushed.block_number);
                    cids.push(cid);
                }
                Err(_) => {
                    // Graceful fallback: rewind past this whole push batch
                    // and re-read it through the range-query path, so the
                    // undecodable block is neither skipped nor its
                    // neighbours double-counted.
                    cids.truncate(batch_start);
                    self.last_seen_block = floor;
                    self.degrade(world);
                    let (rest, d_range) = self.poll_range(world)?;
                    cids.extend(rest);
                    duration = duration.saturating_add(d_range);
                    return Ok((cids, duration));
                }
            }
        }
        Ok((cids, duration))
    }

    /// The cursor-polling read: head via `eth_blockNumber`, then one
    /// `eth_getLogs` over `(last_seen, head]` when anything is new.
    fn poll_range(&mut self, world: &mut World) -> Result<(Vec<String>, SimDuration), MarketError> {
        let ep = self.endpoint;
        let (head, mut duration) = world.endpoint(ep).eth_retry(|eth| eth.block_number());
        let head = head.map_err(WorldError::Rpc)?;
        if head <= self.last_seen_block {
            return Ok((Vec::new(), duration));
        }
        let from = self.last_seen_block + 1;
        let contract = self.contract;
        let (cids, d_logs) = world
            .endpoint(ep)
            .eth_retry(|eth| contract.uploaded_cids_in(eth, from, head));
        duration = duration.saturating_add(d_logs);
        let cids = cids?;
        // Advance the cursor only once the range was actually read — a
        // failed query must leave those blocks unconsumed for the next
        // poll, or their CIDs would be skipped forever.
        self.last_seen_block = head;
        Ok((cids, duration))
    }
}

/// The model-buyer screen (paper Fig 3b).
pub struct BuyerApp {
    events: Vec<UiEvent>,
    cids: Vec<String>,
    watcher: Option<CidWatcher>,
    /// How many CIDs the watcher has yielded since genesis.
    watched: usize,
}

impl BuyerApp {
    /// Opens the buyer screen.
    pub fn new() -> BuyerApp {
        BuyerApp {
            events: Vec::new(),
            cids: Vec::new(),
            watcher: None,
            watched: 0,
        }
    }

    fn log(&mut self, message: String) {
        self.events.push(UiEvent {
            screen: "buyer",
            message,
        });
    }

    /// The event log.
    pub fn events(&self) -> &[UiEvent] {
        &self.events
    }

    /// The status line at the top of the buyer screen: chain head via
    /// `eth_blockNumber`, straight through the provider stack.
    pub fn node_status(&mut self, market: &mut Marketplace) -> Result<String, MarketError> {
        let ep = market.session.placement;
        let (head, cost) = market
            .world
            .endpoint(ep)
            .eth_retry(|eth| eth.block_number());
        market.world.clock.advance(cost);
        match head {
            Ok(head) => {
                let msg = format!("Connected to node — chain head at block {head}");
                self.log(msg.clone());
                Ok(msg)
            }
            Err(e) => {
                self.log(format!("Node unreachable: {e}"));
                Err(MarketError::World(WorldError::Rpc(e)))
            }
        }
    }

    /// "Deploy Contract" button (Step 1).
    pub fn deploy_contract(&mut self, market: &mut Marketplace) -> Result<String, MarketError> {
        match market.deploy_contract() {
            Ok(receipt) => {
                let msg = format!(
                    "CidStorage deployed at {} — gas {}, fee {} ETH",
                    receipt
                        .contract_address
                        .expect("deployment yields an address")
                        .to_checksum(),
                    receipt.gas_used,
                    format_eth(&receipt.fee, 8)
                );
                self.log(msg.clone());
                Ok(msg)
            }
            Err(e) => {
                self.log(format!("Deploy failed: {e}"));
                Err(e)
            }
        }
    }

    /// "Download CIDs" button (Step 5) — free of gas fees.
    pub fn download_cids(&mut self, market: &mut Marketplace) -> Result<String, MarketError> {
        match market.buyer_download_cids() {
            Ok(cids) => {
                self.cids = cids;
                let msg = format!("Downloaded {} CIDs (no gas fee)", self.cids.len());
                self.log(msg.clone());
                Ok(msg)
            }
            Err(e) => {
                self.log(format!("Download CIDs failed: {e}"));
                Err(e)
            }
        }
    }

    /// "Watch CIDs" — the incremental alternative to "Download CIDs": a
    /// push `Logs` subscription (with a one-time catch-up read for blocks
    /// mined before it existed) that appends only CIDs uploaded since the
    /// last poll, never re-yielding one. If the stream degrades, the
    /// watcher falls back to cursor polling from the same block, so the
    /// sequence the buyer sees is identical either way. Production DApps
    /// run this in a loop instead of rereading every CID on each click.
    ///
    /// The contract's list is append-only and its events arrive in list
    /// order, so the buyer's list is always a prefix of it: a watched CID
    /// that "Download CIDs" already fetched is not appended again.
    pub fn watch_cids(&mut self, market: &mut Marketplace) -> Result<String, MarketError> {
        if self.watcher.is_none() {
            let contract = market
                .session
                .contract
                .ok_or(MarketError::StepOrder("deploy before watching events"))?;
            self.watcher = Some(CidWatcher::subscribed(
                contract,
                market.session.placement,
                &mut market.world,
            ));
        }
        let watcher = self.watcher.as_mut().expect("created above");
        match watcher.poll(&mut market.world) {
            Ok((fresh, duration)) => {
                market.world.clock.advance(duration);
                let held = self.cids.len().saturating_sub(self.watched);
                self.watched += fresh.len();
                let before = self.cids.len();
                self.cids.extend(fresh.into_iter().skip(held));
                let msg = format!(
                    "Watched {} new CIDs through block {} ({} total, no gas fee)",
                    self.cids.len() - before,
                    watcher.last_seen_block,
                    self.cids.len()
                );
                self.log(msg.clone());
                Ok(msg)
            }
            Err(e) => {
                self.log(format!("Watch CIDs failed: {e}"));
                Err(e)
            }
        }
    }

    /// "Retrieve Models" button (Step 6).
    pub fn retrieve_models(&mut self, market: &mut Marketplace) -> Result<String, MarketError> {
        match market.buyer_retrieve_models(&self.cids) {
            Ok(n) => {
                let msg = format!("Retrieved and verified {n} models from IPFS");
                self.log(msg.clone());
                Ok(msg)
            }
            Err(e) => {
                self.log(format!("Retrieve Models failed: {e}"));
                Err(e)
            }
        }
    }

    /// "Aggregate & Pay" button (Step 7): backend aggregation, LOO
    /// contribution assessment, and the payment transactions.
    pub fn aggregate_and_pay(
        &mut self,
        market: &mut Marketplace,
    ) -> Result<SessionReport, MarketError> {
        match market.buyer_aggregate_and_pay() {
            Ok(report) => {
                self.log(format!(
                    "Aggregated model accuracy {:.2} % over {} global neurons; paid {} ETH to {} owners",
                    report.aggregated_accuracy * 100.0,
                    report.global_neurons,
                    format_eth(&report.total_paid(), 8),
                    report.payments.len()
                ));
                Ok(report)
            }
            Err(e) => {
                self.log(format!("Aggregate & Pay failed: {e}"));
                Err(e)
            }
        }
    }
}

impl Default for BuyerApp {
    fn default() -> Self {
        BuyerApp::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MarketConfig;

    #[test]
    fn screens_talk_to_the_node_through_the_provider() {
        let mut market = Marketplace::new(MarketConfig::small_test());
        let mut owner_app = OwnerApp::new(0);
        let mut buyer_app = BuyerApp::new();
        // Wallet connection surfaces the genesis balance (0.1 ETH).
        let msg = owner_app.connect_wallet(&mut market);
        assert!(msg.contains("balance 0.1000 ETH"), "{msg}");
        // The status line reads the chain head via eth_blockNumber.
        let status = buyer_app.node_status(&mut market).unwrap();
        assert!(status.contains("block 0"), "{status}");
        buyer_app.deploy_contract(&mut market).unwrap();
        let status = buyer_app.node_status(&mut market).unwrap();
        assert!(status.contains("block 1"), "{status}");
        // Both queries were metered as provider traffic.
        let metrics = market.world.rpc_metrics(EndpointId(0));
        assert!(metrics.method("eth_getBalance").calls >= 1);
        assert!(metrics.method("eth_blockNumber").calls >= 2);
    }

    #[test]
    fn button_driven_session_matches_programmatic() {
        let mut market = Marketplace::new(MarketConfig::small_test());
        let mut buyer_app = BuyerApp::new();
        buyer_app.deploy_contract(&mut market).unwrap();
        for i in 0..market.owners.len() {
            let mut app = OwnerApp::new(i);
            app.connect_wallet(&mut market);
            app.train_model(&mut market);
            let upload_msg = app.upload_model(&mut market).unwrap();
            assert!(upload_msg.contains("CID: Qm"));
            let send_msg = app.send_cid(&mut market).unwrap();
            assert!(send_msg.contains("fee"));
            assert_eq!(app.events().len(), 4);
        }
        buyer_app.download_cids(&mut market).unwrap();
        buyer_app.retrieve_models(&mut market).unwrap();
        let report = buyer_app.aggregate_and_pay(&mut market).unwrap();
        assert_eq!(report.payments.len(), market.owners.len());
        assert!(buyer_app
            .events()
            .iter()
            .any(|e| e.message.contains("no gas fee")));
    }

    #[test]
    fn buttons_enforce_workflow_order() {
        let mut market = Marketplace::new(MarketConfig::small_test());
        let mut app = OwnerApp::new(0);
        // Sending a CID before anything else must fail cleanly — and the
        // screen shows the failure instead of swallowing it.
        assert!(app.send_cid(&mut market).is_err());
        assert!(app
            .events()
            .iter()
            .any(|e| e.message.contains("Send CID failed")));
        let mut buyer = BuyerApp::new();
        assert!(buyer.download_cids(&mut market).is_err());
        assert!(buyer
            .events()
            .iter()
            .any(|e| e.message.contains("Download CIDs failed")));
        assert!(buyer.aggregate_and_pay(&mut market).is_err());
        assert!(buyer
            .events()
            .iter()
            .any(|e| e.message.contains("Aggregate & Pay failed")));
    }

    #[test]
    fn cid_watcher_cursor_never_reyields() {
        let mut market = Marketplace::new(MarketConfig::small_test());
        let mut buyer_app = BuyerApp::new();
        buyer_app.deploy_contract(&mut market).unwrap();

        // First two owners publish, then the buyer polls.
        for i in 0..2 {
            let mut app = OwnerApp::new(i);
            app.train_model(&mut market);
            app.upload_model(&mut market).unwrap();
            app.send_cid(&mut market).unwrap();
        }
        buyer_app.watch_cids(&mut market).unwrap();
        let after_first: Vec<String> = buyer_app.cids.clone();
        assert_eq!(after_first.len(), 2);

        // An idle poll (no new blocks) yields nothing.
        buyer_app.watch_cids(&mut market).unwrap();
        assert_eq!(buyer_app.cids, after_first);

        // Two more owners publish; the next poll yields only the fresh
        // CIDs — the cursor resumed past the already-consumed blocks.
        for i in 2..market.owners.len() {
            let mut app = OwnerApp::new(i);
            app.train_model(&mut market);
            app.upload_model(&mut market).unwrap();
            app.send_cid(&mut market).unwrap();
        }
        buyer_app.watch_cids(&mut market).unwrap();
        assert_eq!(buyer_app.cids.len(), market.owners.len());
        let unique: std::collections::HashSet<_> = buyer_app.cids.iter().collect();
        assert_eq!(
            unique.len(),
            buyer_app.cids.len(),
            "a cursor poll must never re-yield a CID"
        );
        // The incremental stream saw exactly what the polling read sees.
        assert_eq!(buyer_app.cids, market.buyer_download_cids().unwrap());
        // And the rest of the workflow continues off the watched set.
        buyer_app.retrieve_models(&mut market).unwrap();
        let report = buyer_app.aggregate_and_pay(&mut market).unwrap();
        assert_eq!(report.payments.len(), market.owners.len());
    }

    #[test]
    fn download_and_watch_in_any_order_pay_each_owner_once() {
        let mut market = Marketplace::new(MarketConfig::small_test());
        let n = market.owners.len();
        let mut buyer_app = BuyerApp::new();
        buyer_app.deploy_contract(&mut market).unwrap();
        let publish = |market: &mut Marketplace, owners: std::ops::Range<usize>| {
            for i in owners {
                let mut app = OwnerApp::new(i);
                app.train_model(market);
                app.upload_model(market).unwrap();
                app.send_cid(market).unwrap();
            }
        };

        // Download, then Watch: the watch's catch-up from genesis re-reads
        // what the download already holds.
        publish(&mut market, 0..2);
        buyer_app.download_cids(&mut market).unwrap();
        buyer_app.watch_cids(&mut market).unwrap();
        assert_eq!(buyer_app.cids, market.buyer_download_cids().unwrap());
        // A watch after more uploads appends only the fresh CID.
        publish(&mut market, 2..3);
        buyer_app.watch_cids(&mut market).unwrap();
        assert_eq!(buyer_app.cids, market.buyer_download_cids().unwrap());
        // Watch, more uploads, Download, then Watch.
        publish(&mut market, 3..n);
        buyer_app.download_cids(&mut market).unwrap();
        buyer_app.watch_cids(&mut market).unwrap();
        assert_eq!(buyer_app.cids, market.buyer_download_cids().unwrap());
        assert_eq!(buyer_app.cids.len(), n);

        buyer_app.retrieve_models(&mut market).unwrap();
        let report = buyer_app.aggregate_and_pay(&mut market).unwrap();
        assert_eq!(report.payments.len(), n, "one payment per owner");
    }

    #[test]
    fn streaming_watcher_matches_cursor_polling_and_never_reyields() {
        let mut market = Marketplace::new(MarketConfig::small_test());
        let n = market.owners.len();
        let mut buyer_app = BuyerApp::new();
        buyer_app.deploy_contract(&mut market).unwrap();
        let contract = market.session.contract.expect("deployed above");
        // An independent cursor-polling watcher consumes the same stream
        // for comparison at every phase.
        let mut cursor = CidWatcher::new(contract, market.session.placement);
        let mut polled: Vec<String> = Vec::new();
        let publish = |market: &mut Marketplace, i: usize| {
            let mut app = OwnerApp::new(i);
            app.train_model(market);
            app.upload_model(market).unwrap();
            app.send_cid(market).unwrap();
        };

        // Phase 1 — catch-up: two owners publish before the subscription
        // exists; the streaming watcher's first poll range-reads them.
        publish(&mut market, 0);
        publish(&mut market, 1);
        buyer_app.watch_cids(&mut market).unwrap();
        assert!(buyer_app.watcher.as_ref().unwrap().is_streaming());
        let (fresh, _) = cursor.poll(&mut market.world).unwrap();
        polled.extend(fresh);
        assert_eq!(buyer_app.cids, polled);
        assert_eq!(buyer_app.cids.len(), 2);

        // Phase 2 — live stream: an idle poll yields nothing, then a fresh
        // publish arrives by push. From here the streaming watcher must not
        // issue any further range queries — only the cursor watcher does.
        let logs_before = market
            .world
            .rpc_metrics(EndpointId(0))
            .method("eth_getLogs")
            .calls;
        buyer_app.watch_cids(&mut market).unwrap();
        assert_eq!(buyer_app.cids, polled);
        publish(&mut market, 2);
        buyer_app.watch_cids(&mut market).unwrap();
        let (fresh, _) = cursor.poll(&mut market.world).unwrap();
        polled.extend(fresh);
        assert_eq!(buyer_app.cids, polled);
        assert_eq!(buyer_app.cids.len(), 3);
        let logs_after = market
            .world
            .rpc_metrics(EndpointId(0))
            .method("eth_getLogs")
            .calls;
        assert_eq!(
            logs_after,
            logs_before + 1,
            "only the cursor comparison watcher may range-query while the stream is live"
        );

        // Phase 3 — graceful fallback: degrade to cursor polling; the next
        // publish is picked up from the same block, no skips, no re-yields.
        buyer_app
            .watcher
            .as_mut()
            .unwrap()
            .degrade(&mut market.world);
        assert!(!buyer_app.watcher.as_ref().unwrap().is_streaming());
        publish(&mut market, 3);
        buyer_app.watch_cids(&mut market).unwrap();
        let (fresh, _) = cursor.poll(&mut market.world).unwrap();
        polled.extend(fresh);
        assert_eq!(buyer_app.cids, polled);
        assert_eq!(buyer_app.cids.len(), n);

        // The streamed sequence is exactly the chain's upload order, with
        // nothing yielded twice in any phase.
        let unique: std::collections::HashSet<_> = buyer_app.cids.iter().collect();
        assert_eq!(unique.len(), buyer_app.cids.len());
        assert_eq!(buyer_app.cids, market.buyer_download_cids().unwrap());
    }

    #[test]
    fn dropped_owner_flow_is_reflected_in_event_logs() {
        // The failure scenario from the paper's availability discussion: one
        // owner trains and uploads but never presses "Send CID". The other
        // screens' logs must tell that story — fewer CIDs downloaded, fewer
        // models retrieved, fewer owners paid — and the dropout's own log
        // must stop at the upload event.
        let mut market = Marketplace::new(MarketConfig::small_test());
        let n = market.owners.len();
        let dropout = 1usize;
        let mut buyer_app = BuyerApp::new();
        buyer_app.deploy_contract(&mut market).unwrap();

        let mut owner_apps: Vec<OwnerApp> = (0..n).map(OwnerApp::new).collect();
        for (i, app) in owner_apps.iter_mut().enumerate() {
            app.connect_wallet(&mut market);
            app.train_model(&mut market);
            app.upload_model(&mut market).unwrap();
            if i != dropout {
                app.send_cid(&mut market).unwrap();
            }
        }

        // The dropout's screen has no on-chain confirmation event…
        assert!(owner_apps[dropout]
            .events()
            .iter()
            .all(|e| !e.message.contains("CID sent on-chain")));
        assert_eq!(owner_apps[dropout].events().len(), 3);
        // …while honest owners' screens do.
        for (i, app) in owner_apps.iter().enumerate() {
            if i != dropout {
                assert!(app
                    .events()
                    .iter()
                    .any(|e| e.message.contains("CID sent on-chain")));
            }
        }

        buyer_app.download_cids(&mut market).unwrap();
        buyer_app.retrieve_models(&mut market).unwrap();
        let report = buyer_app.aggregate_and_pay(&mut market).unwrap();
        assert_eq!(report.payments.len(), n - 1);
        // The buyer's log reflects the reduced participation.
        let expect_download = format!("Downloaded {} CIDs", n - 1);
        let expect_retrieve = format!("Retrieved and verified {} models", n - 1);
        let expect_paid = format!("{} owners", n - 1);
        let log = buyer_app.events();
        assert!(log.iter().any(|e| e.message.contains(&expect_download)));
        assert!(log.iter().any(|e| e.message.contains(&expect_retrieve)));
        assert!(log.iter().any(|e| e.message.contains(&expect_paid)));
    }
}
