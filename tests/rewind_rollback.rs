//! Tier-1 proofs: rollback by `Decoder::rewind`.
//!
//! The supervised pipeline and the link receiver no longer snapshot the
//! decoder before every word; after a rejected decode they call
//! `rewind` and decode the retransmission. The `check_rewind` family
//! proves that this is sound: for every reachable decoder state and
//! every observable word the decoder rejects, the next decode after
//! `rewind` matches the next decode from the original state, for all 12
//! codes bare, under parity and under ECC. Seeded defects show the
//! checker refutes a wrapper or a box that does not rewind.

use buscode::core::check::{check_rewind_all, check_rewind_pair, CheckConfig};
use buscode::core::codes::{EccHardened, Hardened, T0Decoder, T0Encoder};
use buscode::core::{BusState, BusWidth, CodeKind, CodeParams, CodecError, Decoder, Encoder};

#[test]
fn rewind_is_proven_for_every_code_and_tier_at_width_4() {
    let params = CodeParams::new(4, 4).unwrap();
    for (kind, tier, verdict) in check_rewind_all(params, 2, &CheckConfig::default()).unwrap() {
        assert!(verdict.is_proven(), "{kind} {tier}: {verdict}");
    }
}

#[test]
fn rewind_holds_for_every_code_and_tier_at_width_8() {
    // Each decoder state is probed with every observable word (up to
    // 2^15 patterns under ECC), so width 8 runs under a budget: every
    // explored state is checked exhaustively, large state spaces stop at
    // the budget instead of running away.
    let params = CodeParams::new(8, 4).unwrap();
    let config = CheckConfig {
        max_states: 1 << 12,
        max_transitions: 2_000_000,
    };
    for (kind, tier, verdict) in check_rewind_all(params, 3, &config).unwrap() {
        assert!(verdict.holds(), "{kind} {tier}: {verdict}");
    }
}

/// Forwards every `Decoder` method except `rewind`, which falls back to
/// the trait's no-op: the shape of a wrapper whose `rewind` forgets to
/// step its refresh schedule back, and of a `Box` that forgets to
/// forward the call.
#[derive(Clone, PartialEq, Eq, Hash)]
struct Unforwarded<D>(D);

impl<D: Decoder> Decoder for Unforwarded<D> {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn width(&self) -> BusWidth {
        self.0.width()
    }

    fn decode(
        &mut self,
        word: BusState,
        kind: buscode::core::AccessKind,
    ) -> Result<u64, CodecError> {
        self.0.decode(word, kind)
    }

    fn reset(&mut self) {
        self.0.reset()
    }

    fn corrected_count(&self) -> u64 {
        self.0.corrected_count()
    }
}

fn t0_pair(params: CodeParams) -> (T0Encoder, T0Decoder) {
    (
        T0Encoder::new(params.width, params.stride).unwrap(),
        T0Decoder::new(params.width, params.stride).unwrap(),
    )
}

#[test]
fn a_parity_wrapper_without_rewind_is_refuted() {
    let params = CodeParams::new(3, 1).unwrap();
    let (enc, dec) = t0_pair(params);
    let aux = enc.aux_line_count();
    let verdict = check_rewind_pair(
        CodeKind::T0,
        params,
        Hardened::encoder(enc, 2).unwrap(),
        Unforwarded(Hardened::with_aux_lines(dec, 2, aux).unwrap()),
        &CheckConfig::default(),
    );
    let ce = verdict.counterexample().expect("a no-op rewind must fail");
    assert_eq!(ce.invariant, "rewind", "{ce}");
    assert!(ce.detail.contains("rewinding"), "{ce}");
}

#[test]
fn a_box_that_does_not_forward_rewind_is_refuted() {
    let params = CodeParams::new(3, 1).unwrap();
    let (enc, dec) = t0_pair(params);
    let aux = enc.aux_line_count();
    let ecc = EccHardened::with_aux_lines(dec, 2, aux).unwrap();
    let verdict = check_rewind_pair(
        CodeKind::T0,
        params,
        EccHardened::encoder(enc, 2).unwrap(),
        Unforwarded(Box::new(ecc)),
        &CheckConfig::default(),
    );
    let ce = verdict
        .counterexample()
        .expect("a dropped rewind must fail");
    assert_eq!(ce.invariant, "rewind", "{ce}");
    // The same wrapper behind the real `Box` forwarding is proven.
    let (enc, dec) = t0_pair(params);
    let verdict = check_rewind_pair(
        CodeKind::T0,
        params,
        EccHardened::encoder(enc, 2).unwrap(),
        Box::new(EccHardened::with_aux_lines(dec, 2, aux).unwrap()),
        &CheckConfig::default(),
    );
    assert!(verdict.is_proven(), "{verdict}");
}
