//! Property tests for the RPC envelope wire codec and the daemon frame
//! protocol built over it: every request/response/frame the provider
//! boundary can carry must round-trip bit-exactly, and mutations of the
//! framing must decode to *typed* errors, never into a different value.

use ofl_eth::block::{Block, Bloom, Header, Receipt, TxStatus};
use ofl_eth::chain::{CallResult, FilteredLog, LogFilter, PendingTxEvent};
use ofl_eth::evm::LogEntry;
use ofl_netsim::clock::SimDuration;
use ofl_primitives::u256::U256;
use ofl_rpc::frame::{Frame, FrameError, MAX_FRAME_BYTES};
use ofl_rpc::{
    CodecError, FrameTransport, RpcError, RpcMethod, RpcRequest, RpcResponse, RpcResult,
    SessionMux, SessionTransport, StreamTransport, SubEvent, SubscriptionKind,
};
use ofl_w3_test_support::{h160_of, h256_of};
use proptest::prelude::*;
use std::io::{Read, Write};
use std::sync::{Arc, Mutex};

/// Tiny local helpers (no extra crate): deterministic hashes from bytes.
mod ofl_w3_test_support {
    use ofl_primitives::{H160, H256};

    pub fn h160_of(seed: u8) -> H160 {
        H160::from_slice(&[seed; 20])
    }

    pub fn h256_of(seed: u8) -> H256 {
        H256::from_bytes([seed; 32])
    }
}

fn arb_method() -> impl Strategy<Value = RpcMethod> {
    prop_oneof![
        proptest::collection::vec(any::<u8>(), 0..512)
            .prop_map(|raw| RpcMethod::SendRawTransaction { raw }),
        any::<u8>().prop_map(|s| RpcMethod::GetTransactionReceipt { hash: h256_of(s) }),
        (
            any::<u8>(),
            any::<u8>(),
            proptest::collection::vec(any::<u8>(), 0..256)
        )
            .prop_map(|(f, t, data)| RpcMethod::Call {
                from: h160_of(f),
                to: h160_of(t),
                data,
            }),
        (
            any::<u64>(),
            any::<u64>(),
            proptest::option::of(any::<u8>()),
            proptest::option::of(any::<u8>())
        )
            .prop_map(|(from_block, to_block, addr, topic)| RpcMethod::GetLogs {
                filter: LogFilter {
                    from_block,
                    to_block,
                    address: addr.map(h160_of),
                    topic: topic.map(h256_of),
                },
            }),
        Just(RpcMethod::BlockNumber),
        any::<u8>().prop_map(|s| RpcMethod::GetBalance {
            address: h160_of(s)
        }),
        any::<u8>().prop_map(|s| RpcMethod::GetTransactionCount {
            address: h160_of(s)
        }),
        (
            any::<u8>(),
            proptest::option::of(any::<u8>()),
            proptest::collection::vec(any::<u8>(), 0..128)
        )
            .prop_map(|(f, t, data)| RpcMethod::EstimateGas {
                from: h160_of(f),
                to: t.map(h160_of),
                data,
            }),
        Just(RpcMethod::GasPrice),
        Just(RpcMethod::ChainId),
    ]
}

fn arb_log_entry() -> impl Strategy<Value = LogEntry> {
    (
        any::<u8>(),
        proptest::collection::vec(any::<u8>(), 0..4),
        proptest::collection::vec(any::<u8>(), 0..128),
    )
        .prop_map(|(addr, topics, data)| LogEntry {
            address: h160_of(addr),
            topics: topics.into_iter().map(h256_of).collect(),
            data,
        })
}

fn arb_receipt() -> impl Strategy<Value = Receipt> {
    (
        any::<u8>(),
        0u8..3,
        any::<u64>(),
        any::<u64>(),
        proptest::option::of(any::<u8>()),
        proptest::collection::vec(arb_log_entry(), 0..3),
        any::<u64>(),
        proptest::collection::vec(any::<u8>(), 0..64),
    )
        .prop_map(
            |(hash, status, gas_used, price, contract, logs, block_number, output)| Receipt {
                tx_hash: h256_of(hash),
                status: match status {
                    0 => TxStatus::Success,
                    1 => TxStatus::Reverted,
                    _ => TxStatus::Failed,
                },
                gas_used,
                effective_gas_price: ofl_primitives::u256::U256::from(price),
                fee: ofl_primitives::u256::U256::from(price)
                    .wrapping_mul(&ofl_primitives::u256::U256::from(gas_used)),
                contract_address: contract.map(h160_of),
                logs,
                block_number,
                output,
            },
        )
}

fn arb_result() -> impl Strategy<Value = RpcResult> {
    prop_oneof![
        any::<u8>().prop_map(|s| RpcResult::TxHash(h256_of(s))),
        proptest::option::of(arb_receipt()).prop_map(RpcResult::Receipt),
        (
            any::<bool>(),
            proptest::collection::vec(any::<u8>(), 0..128),
            any::<u64>()
        )
            .prop_map(|(success, output, gas_used)| RpcResult::Call(CallResult {
                success,
                output,
                gas_used,
            })),
        proptest::collection::vec(
            ((any::<u64>(), any::<u8>(), 0usize..8), arb_log_entry()),
            0..3
        )
        .prop_map(|logs| RpcResult::Logs(
            logs.into_iter()
                .map(|((block_number, tx, log_index), log)| FilteredLog {
                    block_number,
                    tx_hash: h256_of(tx),
                    log_index,
                    log,
                })
                .collect()
        )),
        any::<u64>().prop_map(RpcResult::BlockNumber),
        any::<u64>().prop_map(|b| RpcResult::Balance(ofl_primitives::u256::U256::from(b))),
        any::<u64>().prop_map(RpcResult::TransactionCount),
        any::<u64>().prop_map(RpcResult::GasEstimate),
        any::<u64>().prop_map(|p| RpcResult::GasPrice(ofl_primitives::u256::U256::from(p))),
        any::<u64>().prop_map(RpcResult::ChainId),
    ]
}

fn arb_sub_kind() -> impl Strategy<Value = SubscriptionKind> {
    prop_oneof![
        Just(SubscriptionKind::NewHeads),
        (
            any::<u64>(),
            any::<u64>(),
            proptest::option::of(any::<u8>()),
            proptest::option::of(any::<u8>()),
        )
            .prop_map(
                |(from_block, to_block, addr, topic)| SubscriptionKind::Logs {
                    filter: LogFilter {
                        from_block,
                        to_block,
                        address: addr.map(h160_of),
                        topic: topic.map(h256_of),
                    },
                }
            ),
        Just(SubscriptionKind::PendingTxs),
    ]
}

fn arb_pending_tx_event() -> impl Strategy<Value = PendingTxEvent> {
    (
        any::<u8>(),
        any::<u8>(),
        proptest::option::of(any::<u8>()),
        proptest::option::of(any::<u32>()),
        any::<u64>(),
        any::<u64>(),
    )
        .prop_map(|(hash, sender, to, selector, tip, nonce)| PendingTxEvent {
            hash: h256_of(hash),
            sender: h160_of(sender),
            to: to.map(h160_of),
            selector: selector.map(u32::to_le_bytes),
            tip: U256::from(tip),
            nonce,
        })
}

fn arb_sub_event() -> impl Strategy<Value = SubEvent> {
    prop_oneof![
        (any::<u8>(), any::<u64>(), any::<u64>(), any::<u8>()).prop_map(
            |(parent, number, timestamp, tx)| SubEvent::NewHead(Box::new(Block {
                header: Header {
                    parent_hash: h256_of(parent),
                    number,
                    timestamp,
                    coinbase: h160_of(7),
                    gas_used: 21_000,
                    gas_limit: 30_000_000,
                    base_fee: U256::from(number),
                    tx_root: h256_of(tx),
                    bloom: Bloom::default(),
                },
                tx_hashes: vec![h256_of(tx)],
            }))
        ),
        ((any::<u64>(), any::<u8>(), 0usize..8), arb_log_entry()).prop_map(
            |((block_number, tx, log_index), log)| SubEvent::Log(FilteredLog {
                block_number,
                tx_hash: h256_of(tx),
                log_index,
                log,
            })
        ),
        arb_pending_tx_event().prop_map(SubEvent::PendingTx),
    ]
}

fn arb_rpc_error() -> impl Strategy<Value = RpcError> {
    prop_oneof![
        Just(RpcError::Timeout),
        "[a-z ]{0,40}".prop_map(RpcError::Rejected),
        Just(RpcError::RateLimited),
        Just(RpcError::UnexpectedResponse),
        "[a-z ]{0,40}".prop_map(RpcError::Transport),
    ]
}

/// An in-memory daemon double for the request-id session protocol: it
/// accepts [`Frame::Request`] envelopes on `write`, and on `read` answers
/// *everything currently pending* as [`Frame::Reply`]s echoing each
/// request's inner frame — but in a permuted order (rotated, optionally
/// reversed). A correct client must match replies to callers by id, not
/// by arrival order.
struct PermutedEcho {
    inbox: Vec<u8>,
    /// `(id, session, inner frame)` per request not yet answered.
    pending: Vec<(u64, u64, Frame)>,
    outbox: Vec<u8>,
    rotate: usize,
    reverse: bool,
    /// How many [`Frame::Notify`] pushes to write *ahead of* each reply —
    /// the daemon's ordering contract (a reply's pushes are already on the
    /// wire when the reply lands). Each push names the session of the
    /// request that caused it. Zero keeps the reply-only behaviour.
    pushes_per_reply: usize,
    /// What the double saw and wrote, shared with the test (the mux owns
    /// the transport, so the test cannot reach the stream itself).
    log: Arc<Mutex<EchoLog>>,
}

/// The [`PermutedEcho`] record a test compares against.
#[derive(Default)]
struct EchoLog {
    /// Every request id received, in wire order.
    seen_ids: Vec<u64>,
    /// Every push written, in wire order.
    pushes_written: Vec<Frame>,
}

impl PermutedEcho {
    fn new(rotate: usize, reverse: bool) -> PermutedEcho {
        PermutedEcho {
            inbox: Vec::new(),
            pending: Vec::new(),
            outbox: Vec::new(),
            rotate,
            reverse,
            pushes_per_reply: 0,
            log: Arc::default(),
        }
    }

    fn with_pushes(rotate: usize, reverse: bool, pushes_per_reply: usize) -> PermutedEcho {
        PermutedEcho {
            pushes_per_reply,
            ..PermutedEcho::new(rotate, reverse)
        }
    }

    /// Mounts the double under a [`SessionMux`], returning the mux and a
    /// handle onto the double's log.
    fn mux(self) -> (SessionMux, Arc<Mutex<EchoLog>>) {
        let log = Arc::clone(&self.log);
        let mux = SessionMux::new(Box::new(StreamTransport::new(self, "echo")));
        (mux, log)
    }
}

/// One `Execute` frame per method, each request numbered by position.
fn execute_frames(methods: Vec<RpcMethod>) -> Vec<Frame> {
    methods
        .into_iter()
        .enumerate()
        .map(|(i, method)| Frame::Execute(RpcRequest::new(i as u64, method)))
        .collect()
}

/// Sends frame `i` on session `i % sessions`, all before any reply is read,
/// then receives every reply in send order. Returns the sessions (for
/// draining pushes) and the replies.
fn send_all_then_recv(
    mux: &SessionMux,
    sessions: usize,
    frames: &[Frame],
) -> (Vec<SessionTransport>, Vec<Frame>) {
    let mut handles: Vec<SessionTransport> = (0..sessions as u64).map(|k| mux.session(k)).collect();
    for (i, frame) in frames.iter().enumerate() {
        handles[i % sessions]
            .send(frame)
            .expect("mux send succeeds");
    }
    let replies = (0..frames.len())
        .map(|i| handles[i % sessions].recv().expect("mux recv succeeds"))
        .collect();
    (handles, replies)
}

impl Write for PermutedEcho {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.inbox.extend_from_slice(buf);
        loop {
            match Frame::decode(&self.inbox) {
                Ok((Frame::Request { id, session, frame }, consumed)) => {
                    self.inbox.drain(..consumed);
                    self.log.lock().unwrap().seen_ids.push(id);
                    self.pending.push((id, session, *frame));
                }
                Ok((other, _)) => {
                    panic!("mux client must wrap everything in Request, got {other:?}")
                }
                Err(_) => break, // incomplete frame: wait for more bytes
            }
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl Read for PermutedEcho {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.outbox.is_empty() {
            if self.pending.is_empty() {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::WouldBlock,
                    "client read with nothing outstanding",
                ));
            }
            let mut batch = std::mem::take(&mut self.pending);
            let n = batch.len();
            batch.rotate_left(self.rotate % n);
            if self.reverse {
                batch.reverse();
            }
            for (id, session, frame) in batch {
                for p in 0..self.pushes_per_reply {
                    let push = Frame::Notify {
                        session,
                        sub_id: 1 + p as u64,
                        seq: self.log.lock().unwrap().pushes_written.len() as u64,
                        event: SubEvent::PendingTx(PendingTxEvent {
                            hash: h256_of(id as u8),
                            sender: h160_of(p as u8),
                            to: None,
                            selector: None,
                            tip: U256::from(id),
                            nonce: id,
                        }),
                    };
                    self.outbox.extend_from_slice(&push.encode());
                    self.log.lock().unwrap().pushes_written.push(push);
                }
                self.outbox.extend_from_slice(
                    &Frame::Reply {
                        id,
                        frame: Box::new(frame),
                    }
                    .encode(),
                );
            }
        }
        let n = buf.len().min(self.outbox.len());
        buf[..n].copy_from_slice(&self.outbox[..n]);
        self.outbox.drain(..n);
        Ok(n)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn request_wire_roundtrip(id in any::<u64>(), method in arb_method()) {
        let request = RpcRequest { id, method };
        let decoded = RpcRequest::decode(&request.encode());
        prop_assert_eq!(decoded, Ok(request));
    }

    #[test]
    fn response_wire_roundtrip(
        id in any::<u64>(),
        cost_us in any::<u64>(),
        result in prop_oneof![
            arb_result().prop_map(Ok),
            arb_rpc_error().prop_map(Err),
        ],
    ) {
        let response = RpcResponse {
            id,
            result,
            cost: SimDuration::from_micros(cost_us),
        };
        let decoded = RpcResponse::decode(&response.encode());
        prop_assert_eq!(decoded, Ok(response));
    }

    #[test]
    fn request_decode_rejects_truncation_and_trailing(
        id in any::<u64>(),
        method in arb_method(),
        extra in 1usize..16,
    ) {
        let raw = RpcRequest { id, method }.encode();
        // Truncated framing never decodes — and the failure is typed.
        prop_assert!(matches!(
            RpcRequest::decode(&raw[..raw.len() - 1]),
            Err(CodecError::Truncated { .. } | CodecError::LengthOverflow { .. })
        ));
        // Trailing garbage never decodes (the envelope is exact).
        let mut padded = raw.clone();
        padded.extend(std::iter::repeat_n(0u8, extra));
        prop_assert!(matches!(
            RpcRequest::decode(&padded),
            Err(CodecError::TrailingBytes { .. })
        ));
    }

    #[test]
    fn response_decode_rejects_truncation(
        id in any::<u64>(),
        result in arb_result(),
    ) {
        let raw = RpcResponse { id, result: Ok(result), cost: SimDuration::ZERO }.encode();
        prop_assert!(RpcResponse::decode(&raw[..raw.len() - 1]).is_err());
    }

    #[test]
    fn payload_sizes_are_stable(method in arb_method()) {
        // The latency decorator prices from payload_bytes; it must be a
        // pure function of the envelope.
        let a = method.payload_bytes();
        let b = method.clone().payload_bytes();
        prop_assert_eq!(a, b);
    }

    // ------------------------------------------------------------------
    // Frame protocol: the transport framing the rpcd daemon speaks.
    // ------------------------------------------------------------------

    #[test]
    fn single_request_frames_roundtrip(id in any::<u64>(), method in arb_method()) {
        let frame = Frame::Execute(RpcRequest { id, method });
        let wire = frame.encode();
        let (decoded, consumed) = Frame::decode(&wire).expect("frame decodes");
        prop_assert_eq!(consumed, wire.len());
        prop_assert_eq!(decoded, frame);
    }

    #[test]
    fn batch_frames_roundtrip(
        methods in proptest::collection::vec(arb_method(), 0..12),
    ) {
        // A whole batch is ONE frame; it must scatter back intact and in
        // order, however many envelopes ride inside.
        let requests: Vec<RpcRequest> = methods
            .into_iter()
            .enumerate()
            .map(|(i, method)| RpcRequest::new(i as u64, method))
            .collect();
        let frame = Frame::Batch(requests);
        let (decoded, _) = Frame::decode(&frame.encode()).expect("batch decodes");
        prop_assert_eq!(decoded, frame);
    }

    #[test]
    fn batch_response_frames_roundtrip(
        results in proptest::collection::vec(
            prop_oneof![arb_result().prop_map(Ok), arb_rpc_error().prop_map(Err)],
            0..8,
        ),
    ) {
        let responses: Vec<RpcResponse> = results
            .into_iter()
            .enumerate()
            .map(|(i, result)| RpcResponse {
                id: i as u64,
                result,
                cost: SimDuration::from_micros(i as u64 * 17),
            })
            .collect();
        let frame = Frame::BatchResponse(responses);
        let (decoded, _) = Frame::decode(&frame.encode()).expect("batch response decodes");
        prop_assert_eq!(decoded, frame);
    }

    #[test]
    fn truncated_frames_never_decode(id in any::<u64>(), method in arb_method(), cut in 1usize..9) {
        let wire = Frame::Execute(RpcRequest { id, method }).encode();
        let cut = cut.min(wire.len() - 1);
        // Any strict prefix fails: either the header is incomplete or the
        // length prefix promises more payload than remains.
        prop_assert!(Frame::decode(&wire[..wire.len() - cut]).is_err());
    }

    #[test]
    fn oversized_and_garbage_frames_are_typed_rejections(
        declared in (MAX_FRAME_BYTES + 1)..u32::MAX,
        garbage in proptest::collection::vec(any::<u8>(), 1..64),
    ) {
        // An over-cap length prefix is refused before any allocation.
        let mut wire = Frame::Shutdown.encode();
        wire[4..8].copy_from_slice(&declared.to_le_bytes());
        prop_assert_eq!(Frame::decode(&wire), Err(FrameError::TooLarge { declared }));

        // A correctly-framed garbage payload decodes to a typed codec
        // error (the daemon answers these in-band), never a panic.
        let mut framed = Vec::new();
        framed.extend_from_slice(&ofl_rpc::frame::FRAME_MAGIC.to_le_bytes());
        framed.extend_from_slice(&ofl_rpc::PROTOCOL_VERSION.to_le_bytes());
        framed.extend_from_slice(&(garbage.len() as u32).to_le_bytes());
        framed.extend_from_slice(&garbage);
        if let Err(e) = Frame::decode(&framed) {
            prop_assert!(matches!(e, FrameError::Codec(_)));
        }
        // (An Ok is possible only when the bytes happen to spell a valid
        // frame — which is exactly what the roundtrip tests cover.)
    }

    // ------------------------------------------------------------------
    // Request-id envelopes: the multi-session protocol.
    // ------------------------------------------------------------------

    #[test]
    fn request_and_reply_envelopes_roundtrip(
        id in any::<u64>(),
        session in any::<u64>(),
        method in arb_method(),
        result in arb_result(),
        cost_us in any::<u64>(),
    ) {
        let request = Frame::Request {
            id,
            session,
            frame: Box::new(Frame::Execute(RpcRequest { id, method })),
        };
        let wire = request.encode();
        let (decoded, consumed) = Frame::decode(&wire).expect("request envelope decodes");
        prop_assert_eq!(consumed, wire.len());
        prop_assert_eq!(decoded, request);

        let reply = Frame::Reply {
            id,
            frame: Box::new(Frame::Response(RpcResponse {
                id,
                result: Ok(result),
                cost: SimDuration::from_micros(cost_us),
            })),
        };
        let wire = reply.encode();
        let (decoded, consumed) = Frame::decode(&wire).expect("reply envelope decodes");
        prop_assert_eq!(consumed, wire.len());
        prop_assert_eq!(decoded, reply);
    }

    #[test]
    fn interleaved_request_id_frames_roundtrip(
        tagged in proptest::collection::vec(
            (any::<u64>(), any::<u64>(), arb_method()),
            1..16,
        ),
    ) {
        // Many sessions' envelopes interleaved back-to-back on one byte
        // stream — exactly what a `SessionMux` connection carries — must
        // decode one by one with ids and session tags intact.
        let frames: Vec<Frame> = tagged
            .into_iter()
            .enumerate()
            .map(|(i, (id, session, method))| Frame::Request {
                id,
                session,
                frame: Box::new(Frame::Execute(RpcRequest::new(i as u64, method))),
            })
            .collect();
        let mut wire = Vec::new();
        for frame in &frames {
            wire.extend_from_slice(&frame.encode());
        }
        let mut offset = 0;
        for expected in &frames {
            let (decoded, consumed) =
                Frame::decode(&wire[offset..]).expect("next interleaved frame decodes");
            prop_assert_eq!(&decoded, expected);
            offset += consumed;
        }
        prop_assert_eq!(offset, wire.len());
    }

    #[test]
    fn mux_sessions_get_their_own_replies_out_of_order(
        methods in proptest::collection::vec(arb_method(), 1..24),
        sessions in 1usize..8,
        rotate in 0usize..24,
        reverse in any::<bool>(),
    ) {
        // Several sessions share one connection; however the daemon orders
        // its replies, the mux must hand each session *its own* answers.
        let frames = execute_frames(methods);
        let (mux, log) = PermutedEcho::new(rotate, reverse).mux();
        let (_, replies) = send_all_then_recv(&mux, sessions, &frames);
        // Every reply slots back to the frame that asked for it, regardless
        // of wire arrival order.
        prop_assert_eq!(replies, frames.clone());
        // And the server really saw one distinct id per request.
        let seen = log.lock().unwrap().seen_ids.clone();
        prop_assert_eq!(seen.len(), frames.len());
        let mut unique = seen;
        unique.sort_unstable();
        unique.dedup();
        prop_assert_eq!(unique.len(), frames.len());
    }

    // ------------------------------------------------------------------
    // Subscription frames: the push half of protocol v3.
    // ------------------------------------------------------------------

    #[test]
    fn subscription_frames_roundtrip(
        kind in arb_sub_kind(),
        event in arb_sub_event(),
        sub_id in any::<u64>(),
        session in any::<u64>(),
        seq in any::<u64>(),
    ) {
        // Every subscription-protocol frame — Subscribe, Subscribed,
        // Unsubscribe, Unsubscribed, Notify, Ping — survives the wire with
        // any channel kind and any event payload.
        let frames = vec![
            Frame::Subscribe { kind },
            Frame::Subscribed { sub_id },
            Frame::Unsubscribe { sub_id },
            Frame::Unsubscribed { sub_id },
            Frame::Notify { session, sub_id, seq, event },
            Frame::Ping,
        ];
        for frame in frames {
            let wire = frame.encode();
            let (decoded, consumed) = Frame::decode(&wire).expect("subscription frame decodes");
            prop_assert_eq!(consumed, wire.len());
            prop_assert_eq!(decoded, frame);
        }
    }

    // ------------------------------------------------------------------
    // Admin introspection frames: the Stats/StatsReply pair (v5 layout).
    // ------------------------------------------------------------------

    #[test]
    fn stats_frames_roundtrip(
        sessions in any::<u64>(),
        workers_reaped in any::<u64>(),
        accept_errors in any::<u64>(),
        frames_served in any::<u64>(),
    ) {
        // The probe itself is payload-free.
        let wire = Frame::Stats.encode();
        let (decoded, consumed) = Frame::decode(&wire).expect("stats probe decodes");
        prop_assert_eq!(consumed, wire.len());
        prop_assert_eq!(decoded, Frame::Stats);
        // The reply carries exactly the four daemon counters.
        let frame = Frame::StatsReply {
            sessions,
            workers_reaped,
            accept_errors,
            frames_served,
        };
        let wire = frame.encode();
        let (decoded, consumed) = Frame::decode(&wire).expect("stats reply decodes");
        prop_assert_eq!(consumed, wire.len());
        prop_assert_eq!(decoded, frame);
    }

    #[test]
    fn notify_pushes_interleave_with_out_of_order_replies(
        methods in proptest::collection::vec(arb_method(), 1..16),
        sessions in 1usize..6,
        rotate in 0usize..16,
        reverse in any::<bool>(),
        pushes_per_reply in 1usize..4,
    ) {
        // The daemon writes Notify pushes ahead of the replies that caused
        // them, permuted replies and all. The mux must still hand each
        // session its own answers AND park every push, in wire order,
        // under the session named on its Notify.
        let frames = execute_frames(methods);
        let (mux, log) = PermutedEcho::with_pushes(rotate, reverse, pushes_per_reply).mux();
        let (mut handles, replies) = send_all_then_recv(&mux, sessions, &frames);
        prop_assert_eq!(replies, frames.clone());
        // Every push written before a consumed reply is already parked —
        // none were dropped, reordered, mistaken for replies, or handed to
        // a sibling session.
        let written = log.lock().unwrap().pushes_written.clone();
        prop_assert_eq!(written.len(), frames.len() * pushes_per_reply);
        for (k, handle) in handles.iter_mut().enumerate() {
            let expected: Vec<Frame> = written
                .iter()
                .filter(|push| matches!(push, Frame::Notify { session, .. } if *session == k as u64))
                .cloned()
                .collect();
            prop_assert_eq!(handle.drain_pushes(), expected);
            // A second drain is empty: pushes are taken, not copied.
            prop_assert!(handle.drain_pushes().is_empty());
        }
    }
}
