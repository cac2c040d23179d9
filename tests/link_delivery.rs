//! Reliable-link delivery properties: every code, at narrow and byte
//! widths, at every redundancy rung, through seeded bursty weather —
//! the ARQ layer must deliver the whole stream exactly once, in order,
//! with zero silent corruption, or say precisely what it lost.

use buscode::core::rng::Rng64;
use buscode::core::Tier;
use buscode::core::{Access, BusWidth, CodeKind, CodeParams, Stride};
use buscode::fault::campaign::stream_for;
use buscode::fault::GilbertElliott;
use buscode::link::{LinkConfig, LinkSession};
use buscode::trace::StreamKind;

/// A width-respecting mixed instruction/data stream: mostly sequential
/// strides with occasional jumps, the shape the DATE'98 codes exist for.
fn mixed_stream(width: BusWidth, stride: Stride, len: usize, seed: u64) -> Vec<Access> {
    let mut rng = Rng64::seed_from_u64(seed);
    let mask = width.mask();
    let mut addr = 0x3u64 & mask;
    (0..len)
        .map(|_| {
            addr = match rng.gen_range(0..10u8) {
                0..=6 => width.wrapping_add(addr, stride.get()),
                7..=8 => width.wrapping_add(addr, stride.get() * rng.gen_range(0..4u64)),
                _ => rng.gen::<u64>() & mask,
            };
            if rng.gen_bool(0.25) {
                Access::data(addr)
            } else {
                Access::instruction(addr)
            }
        })
        .collect()
}

fn pinned_config(kind: CodeKind, params: CodeParams, tier: Tier) -> LinkConfig {
    let mut config = LinkConfig::new(kind);
    config.params = params;
    // Pin the ladder at the tier under test so each rung is exercised
    // directly, not just reached by escalation.
    config.redundancy.enabled = false;
    config.redundancy.start = tier;
    config.max_cycles_per_word = 512;
    config
}

/// The tentpole property: exactly-once, in-order delivery with zero
/// silent corruption for all 12 codes × widths {4, 8} × the full
/// redundancy ladder, under bursty weather.
#[test]
fn every_code_width_and_tier_delivers_exactly_once_in_order() {
    let profile = GilbertElliott::named("bursty").expect("profile exists");
    for (ci, kind) in CodeKind::all().into_iter().enumerate() {
        for bits in [4u32, 8] {
            let width = BusWidth::new(bits).expect("valid width");
            let stride = Stride::new(2, width).expect("valid stride");
            let params = CodeParams { width, stride };
            let stream = mixed_stream(width, stride, 96, 0x5EED ^ u64::from(bits));
            for (ti, tier) in [Tier::Bare, Tier::Parity, Tier::Ecc]
                .into_iter()
                .enumerate()
            {
                let seed = (ci as u64) << 16 | u64::from(bits) << 8 | ti as u64;
                let session = LinkSession::new(pinned_config(kind, params, tier), profile, seed)
                    .unwrap_or_else(|e| panic!("{kind} w{bits} {tier:?}: build failed: {e}"));
                let outcome = session
                    .run(&stream)
                    .unwrap_or_else(|e| panic!("{kind} w{bits} {tier:?}: run failed: {e}"));

                assert_eq!(
                    outcome.stats.delivered_words, 96,
                    "{kind} w{bits} {tier:?}: words went missing: {:?}",
                    outcome.stats
                );
                assert_eq!(
                    outcome.stats.lost_words, 0,
                    "{kind} w{bits} {tier:?}: reported loss"
                );
                assert_eq!(
                    outcome.stats.corrupted_delivered, 0,
                    "{kind} w{bits} {tier:?}: silent corruption slipped through"
                );
                // Exactly-once, in-order: the delivered sequence IS the
                // offered sequence.
                assert_eq!(outcome.delivered.len(), stream.len());
                for (i, (got, want)) in outcome.delivered.iter().zip(&stream).enumerate() {
                    assert_eq!(
                        *got, want.address,
                        "{kind} w{bits} {tier:?}: word {i} delivered wrong"
                    );
                }
            }
        }
    }
}

/// The weather must actually test the protocol: across the sweep above,
/// bursty profiles have to force retransmissions somewhere, otherwise
/// the delivery assertions are vacuous.
#[test]
fn bursty_weather_is_not_vacuous() {
    let profile = GilbertElliott::named("harsh").expect("profile exists");
    let width = BusWidth::new(8).expect("valid width");
    let stride = Stride::new(2, width).expect("valid stride");
    let params = CodeParams { width, stride };
    let stream = mixed_stream(width, stride, 192, 0xBADC0DE);
    let mut total_retransmissions = 0u64;
    let mut total_crc_rejections = 0u64;
    for (ci, kind) in CodeKind::all().into_iter().enumerate() {
        let session = LinkSession::new(
            pinned_config(kind, params, Tier::Bare),
            profile,
            0xD00D + ci as u64,
        )
        .expect("build");
        let outcome = session.run(&stream).expect("run");
        total_retransmissions += outcome.stats.retransmissions;
        total_crc_rejections += outcome.stats.crc_rejections;
        assert_eq!(outcome.stats.corrupted_delivered, 0, "{kind}: corruption");
    }
    assert!(
        total_retransmissions > 0,
        "harsh weather never forced a resend"
    );
    assert!(total_crc_rejections > 0, "the CRC gate never fired");
}

/// The adaptive ladder closes the loop end to end: a persistent storm
/// escalates the sender's tier mid-session and the receiver follows the
/// beacon, still delivering in order.
#[test]
fn adaptive_ladder_escalates_under_a_storm_and_still_delivers_in_order() {
    let storm = GilbertElliott {
        p_good_to_bad: 0.6,
        p_bad_to_good: 0.02,
        flip_good: 0.01,
        flip_bad: 0.06,
        erase_good: 0.0,
        erase_bad: 0.01,
        drop_good: 0.0,
        drop_bad: 0.01,
    };
    let mut escalated = 0u32;
    for (ci, kind) in CodeKind::all().into_iter().enumerate() {
        let mut config = LinkConfig::new(kind);
        config.escalate_attempts = 2;
        config.max_cycles_per_word = 1024;
        let stream: Vec<Access> = (0..128u64).map(|i| Access::instruction(i * 4)).collect();
        let outcome = LinkSession::new(config, storm, 0xCAB + ci as u64)
            .expect("build")
            .run(&stream)
            .expect("run");
        if outcome.stats.tier_escalations > 0 {
            escalated += 1;
        }
        assert_eq!(outcome.stats.corrupted_delivered, 0, "{kind}: corruption");
        // Whatever arrived is an exact in-order prefix.
        for (i, got) in outcome.delivered.iter().enumerate() {
            assert_eq!(*got, stream[i].address, "{kind}: word {i} out of order");
        }
    }
    assert!(
        escalated >= 6,
        "the storm should push most codes up the ladder, got {escalated}/12"
    );
}

/// An ACK-driven tier change while frames are in flight must not put the
/// encoder a word ahead of the receiver. These four cells replay the
/// `perfbench` fault campaign's link part (muxed stream, bursty weather,
/// adaptive default config) at seeds where a go-back follows such a
/// change: a sender that cleared its frame cache below the new-tier
/// beacon would re-encode the older words after the beacon and deliver
/// wrong addresses without an error until the next beacon.
#[test]
fn mid_window_tier_change_keeps_the_encoder_in_step() {
    const STREAM_WORDS: usize = 32768;
    const LINK_WORDS: usize = 4096;
    let bursty = GilbertElliott::named("bursty").expect("profile");
    let cells = [
        (44u64, CodeKind::T0Xor),
        (120, CodeKind::WorkingZone),
        (244, CodeKind::WorkingZone),
        (360, CodeKind::WorkingZone),
    ];
    for (seed, kind) in cells {
        let stream = stream_for(StreamKind::Muxed, STREAM_WORDS, seed);
        let ci = CodeKind::all()
            .iter()
            .position(|&k| k == kind)
            .expect("listed code") as u64;
        let cell_seed = seed ^ (ci + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let offered = &stream[..LINK_WORDS];
        let outcome = LinkSession::new(LinkConfig::new(kind), bursty, cell_seed)
            .expect("build")
            .run(offered)
            .expect("run");
        assert_eq!(
            outcome.stats.corrupted_delivered, 0,
            "{kind} seed {seed}: silent corruption"
        );
        assert_eq!(
            outcome.stats.lost_words, 0,
            "{kind} seed {seed}: lost words"
        );
        let addresses: Vec<u64> = offered.iter().map(|a| a.address).collect();
        assert_eq!(outcome.delivered, addresses, "{kind} seed {seed}");
    }
}
