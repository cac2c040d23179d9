//! Tier-1 delivery guarantees for the `buscode-serve` network stack:
//! 64 concurrent sessions across every code × tier deliver every word
//! exactly once and byte-identical to the offered trace, the graceful
//! drain loses zero in-flight words, seeded closed-loop replays render
//! byte-identical metric snapshots, and a seeded corpus of malformed
//! frames always produces typed protocol errors and clean session
//! closes — never a panic.

use buscode::core::{Access, CodeKind, Tier};
use buscode::engine::Report;
use buscode::serve::{
    connect_with_retry, memory_listener, run_load, session_workload, ClientConfig, ClientSession,
    LoadConfig, MemoryConnector, Message, Server, ServerConfig, TcpListenerAdapter, Transport,
    WireError,
};
use std::time::{Duration, Instant};

/// Spawns a server over an in-memory listener; returns the connector,
/// the drain handle, and the join handle yielding the final metrics.
fn spawn_server(
    config: ServerConfig,
) -> (
    MemoryConnector,
    buscode::serve::ServerHandle,
    std::thread::JoinHandle<buscode::serve::ServeMetrics>,
) {
    let (listener, connector) = memory_listener();
    let server = Server::new(config);
    let handle = server.handle();
    let join = std::thread::spawn(move || {
        server
            .run(Box::new(listener))
            .expect("server run must not fail")
    });
    (connector, handle, join)
}

fn boxed(t: buscode::serve::MemoryTransport) -> Box<dyn Transport> {
    Box::new(t)
}

#[test]
fn sixty_four_sessions_every_code_and_tier_deliver_exactly_once() {
    let (connector, handle, join) = spawn_server(ServerConfig::default());
    let config = LoadConfig {
        sessions: 64,
        words_per_session: 192,
        batch_words: 24,
        seed: 1998,
        codes: CodeKind::all(),
        tiers: Tier::all().to_vec(),
        ..LoadConfig::default()
    };
    let report = run_load(&config, |_| connector.connect().map(boxed)).expect("load runs");
    handle.shutdown();
    let metrics = join.join().expect("server thread");

    // Exactly once: every offered word came back, none twice, none
    // mutated — matched word-for-word against the offered trace.
    assert_eq!(report.sessions, 64);
    assert_eq!(report.rejected_sessions, 0);
    assert_eq!(report.failed_sessions, 0);
    assert_eq!(report.words_offered, 64 * 192);
    assert_eq!(report.delivered_words, report.words_offered);
    assert_eq!(report.mismatched_words, 0);
    assert_eq!(report.abandoned_frames, 0);

    // The server's own accounting agrees with the client's view.
    assert_eq!(metrics.sessions_opened, 64);
    assert_eq!(metrics.sessions_closed, 64);
    assert_eq!(metrics.delivered_words, report.delivered_words);
    assert_eq!(
        metrics.requests,
        metrics.delivered_frames + metrics.shed_frames + metrics.expired_frames
    );
}

#[test]
fn graceful_drain_flushes_every_in_flight_word() {
    let (connector, handle, join) = spawn_server(ServerConfig {
        queue_depth: 16,
        workers: 1, // one worker maximises queued (in-flight) frames at drain
        ..ServerConfig::default()
    });

    // Eight sessions each push four batches and then go silent —
    // no CLOSE frame — so at shutdown the frames sit in per-session
    // queues and memory pipes.
    let frames_per_session = 4usize;
    let batch = 16usize;
    let mut sessions: Vec<(ClientSession, Vec<Access>)> = (0..8)
        .map(|i| {
            let params = ClientConfig {
                code: CodeKind::all()[i % 12],
                tier: Tier::all()[i % 3],
                ..ClientConfig::default()
            };
            let mut session =
                ClientSession::open(boxed(connector.connect().expect("connect")), &params)
                    .expect("open");
            let workload = session_workload(frames_per_session * batch, 7_000 + i as u64);
            for chunk in workload.chunks(batch) {
                session.send_data(chunk).expect("send");
            }
            (session, workload)
        })
        .collect();

    handle.shutdown();
    let metrics = join.join().expect("server thread");

    // Zero loss: every buffered batch was flushed with its words
    // decoded byte-identical, then the final CLOSED accounting arrived.
    for (session, workload) in &mut sessions {
        let mut delivered = Vec::new();
        loop {
            match session.recv_reply() {
                Ok(Message::Decoded { addresses, .. }) => delivered.extend(addresses),
                Ok(Message::Closed { words, shed }) => {
                    assert_eq!(words, (frames_per_session * batch) as u64);
                    assert_eq!(shed, 0);
                    break;
                }
                other => panic!("unexpected drain reply: {other:?}"),
            }
        }
        let expected: Vec<u64> = workload.iter().map(|a| a.address).collect();
        assert_eq!(delivered, expected, "drained words must be byte-identical");
    }

    assert_eq!(
        metrics.delivered_words,
        (8 * frames_per_session * batch) as u64
    );
    assert_eq!(metrics.shed_frames, 0);
    assert_eq!(metrics.expired_frames, 0);
    assert_eq!(metrics.sessions_closed, 8);
}

#[test]
fn seeded_closed_loop_replay_renders_byte_identical_snapshots() {
    let run_once = || {
        let (connector, handle, join) = spawn_server(ServerConfig::default());
        let config = LoadConfig {
            sessions: 8,
            words_per_session: 128,
            batch_words: 16,
            seed: 424242,
            codes: CodeKind::all(),
            tiers: Tier::all().to_vec(),
            ..LoadConfig::default()
        };
        let report = run_load(&config, |_| connector.connect().map(boxed)).expect("load runs");
        handle.shutdown();
        join.join().expect("server thread");
        report.metrics().render_json()
    };
    let first = run_once();
    let second = run_once();
    assert_eq!(first, second, "same seed must render identical snapshots");
    assert!(first.contains("\"load.delivered_words\""));
}

#[test]
fn zero_depth_queue_sheds_everything_and_accounting_balances() {
    let (connector, handle, join) = spawn_server(ServerConfig {
        queue_depth: 0,
        ..ServerConfig::default()
    });
    let config = LoadConfig {
        sessions: 4,
        words_per_session: 64,
        batch_words: 16,
        max_retries: 2,
        seed: 11,
        ..LoadConfig::default()
    };
    let report = run_load(&config, |_| connector.connect().map(boxed)).expect("load runs");
    handle.shutdown();
    let metrics = join.join().expect("server thread");

    assert_eq!(report.delivered_words, 0);
    assert_eq!(metrics.delivered_frames, 0);
    assert_eq!(metrics.shed_frames, metrics.requests);
    assert_eq!(
        metrics.requests,
        metrics.delivered_frames + metrics.shed_frames + metrics.expired_frames
    );
    // Every shed was answered with the typed RETRY-AFTER — the client
    // saw a reply for every request it made.
    assert_eq!(
        report.requests,
        report.delivered_frames + report.shed_frames
    );
    assert_eq!(
        report.abandoned_frames,
        (64 / 16) * 4,
        "each batch abandoned once after the retry budget"
    );
}

#[test]
fn admin_shutdown_frame_acknowledges_and_stops_the_server() {
    let (connector, _handle, join) = spawn_server(ServerConfig::default());
    buscode::serve::shutdown_server(boxed(connector.connect().expect("connect")))
        .expect("shutdown handshake");
    let metrics = join.join().expect("server thread");
    assert_eq!(metrics.shutdowns, 1);
    assert!(
        connector.connect().is_err(),
        "listener must refuse connections after drain"
    );
}

/// Over real TCP the listener blocks in `accept`; an admin SHUTDOWN
/// must still wake it (the closer dials the listener's own address), so
/// the server drains and returns at once instead of hanging in the
/// kernel.
#[test]
fn tcp_admin_shutdown_wakes_the_blocked_accept_promptly() {
    let listener = TcpListenerAdapter::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("bound address").to_string();
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let join = std::thread::spawn(move || {
        let metrics = Server::new(ServerConfig::default())
            .run(Box::new(listener))
            .expect("server run must not fail");
        let _ = done_tx.send(());
        metrics
    });
    let transport = connect_with_retry(&addr, 10).expect("connect");
    let asked = Instant::now();
    buscode::serve::shutdown_server(Box::new(transport)).expect("shutdown handshake");
    done_rx
        .recv_timeout(Duration::from_secs(5))
        .expect("server must return after an admin SHUTDOWN");
    let waited = asked.elapsed();
    let metrics = join.join().expect("server thread");
    assert_eq!(metrics.shutdowns, 1);
    assert!(
        waited < Duration::from_secs(1),
        "shutdown took {waited:?} to return"
    );
}

// --------------------------------------------------------------------
// Wire-robustness corpus (seeded): malformed frames must always yield
// typed errors and clean closes, never a panic.
// --------------------------------------------------------------------

/// Deterministic xorshift64* generator for the corpus — the same
/// stand-alone RNG style the malformed-trace corpus in
/// `tests/tooling.rs` uses.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0 = self.0.wrapping_mul(0x2545_f491_4f6c_dd1d);
        self.0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

fn sample_frames() -> Vec<Vec<u8>> {
    vec![
        Message::Hello {
            code: CodeKind::T0Bi,
            width: 32,
            stride: 4,
            tier: Tier::Parity,
            refresh: 16,
        }
        .encode(),
        Message::Data {
            seq: 3,
            accesses: (0..24u64)
                .map(|i| Access::instruction(0x400 + 4 * i))
                .collect(),
        }
        .encode(),
        Message::Close.encode(),
        Message::Decoded {
            seq: 3,
            addresses: (0..24u64).collect(),
        }
        .encode(),
        Message::Closed { words: 96, shed: 1 }.encode(),
    ]
}

fn mutate(rng: &mut Rng, frame: &[u8]) -> Vec<u8> {
    let mut out = frame.to_vec();
    match rng.below(6) {
        // Truncate at a random byte boundary.
        0 => out.truncate(rng.below(out.len())),
        // Flip a random bit anywhere in the frame.
        1 => {
            let bit = rng.below(out.len() * 8);
            out[bit / 8] ^= 1 << (bit % 8);
        }
        // Declare an absurd payload length.
        2 => out[4..8].copy_from_slice(&(u32::MAX ^ rng.next() as u32).to_le_bytes()),
        // Wrong protocol version.
        3 => out[2] = 2 + (rng.next() as u8 % 250),
        // Corrupt the magic.
        4 => out[rng.below(2)] ^= 0xFF,
        // Unknown message type (CRC deliberately left stale).
        _ => out[3] = 0x40 + (rng.next() as u8 % 0x40),
    }
    out
}

#[test]
fn malformed_frame_corpus_decodes_to_typed_errors_never_panics() {
    let frames = sample_frames();
    let mut rng = Rng(0xD1CE_BEEF_0BAD_F00D);
    let mut rejected = 0usize;
    for round in 0..300 {
        let frame = &frames[round % frames.len()];
        let hit = mutate(&mut rng, frame);
        match Message::decode(&hit) {
            // A mutation can cancel itself out (the truncate arm with
            // a full-length draw keeps the frame intact); decoding
            // success is only acceptable when the bytes round-trip.
            Ok(message) => assert_eq!(message.encode(), hit, "round {round}"),
            Err(err) => {
                // Every error is typed and has a stable wire code.
                assert!(err.code() >= 1, "round {round}");
                rejected += 1;
            }
        }
    }
    assert!(
        rejected > 250,
        "corpus must overwhelmingly reject: {rejected}"
    );
}

#[test]
fn malformed_first_frames_close_sessions_cleanly_and_server_survives() {
    let (connector, handle, join) = spawn_server(ServerConfig::default());
    let mut rng = Rng(0xFEED_FACE_CAFE_0001);
    let frames = sample_frames();

    for round in 0..40 {
        let hit = mutate(&mut rng, &frames[round % frames.len()]);
        if Message::decode(&hit).is_ok() {
            continue; // identity mutation; not a robustness case
        }
        let (mut recv, mut send) = boxed(connector.connect().expect("connect")).split();
        send.send(&hit).expect("push mutated frame");
        // The server answers with a typed ERROR (or a REJECT for a
        // structurally valid but unnegotiable HELLO) and closes.
        match recv.recv() {
            Ok(Some(reply)) => match Message::decode(&reply).expect("reply must parse") {
                Message::Error { code, .. } => assert!(code >= 1, "round {round}"),
                Message::Reject { .. } => {}
                other => panic!("round {round}: unexpected reply {other:?}"),
            },
            other => panic!("round {round}: expected a reply, got {other:?}"),
        }
        assert!(
            matches!(recv.recv(), Ok(None) | Err(WireError::Closed)),
            "round {round}: session must close cleanly"
        );
    }

    // After the whole corpus, the server still negotiates sessions.
    let session = ClientSession::open(
        boxed(connector.connect().expect("connect")),
        &ClientConfig::default(),
    )
    .expect("server must survive the corpus");
    drop(session);

    handle.shutdown();
    let metrics = join.join().expect("server thread");
    assert!(metrics.protocol_errors > 0);
    assert_eq!(metrics.internal_errors, 0);
}
