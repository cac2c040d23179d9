//! Exhaustive protocol model checker for encoder/decoder pairs.
//!
//! The dynamic tests in this crate sample traces; this module *proves*
//! codec correctness for small buses by exhaustive product-automaton
//! exploration. Both halves of a codec are deterministic Mealy machines,
//! so the pair `(Encoder, Decoder)` — together with the previous bus word,
//! which the paper's invariants refer to — forms a finite product
//! automaton whose input alphabet is every address on the bus crossed with
//! both `SEL` values (instruction and data). A breadth-first search from
//! the reset state visits every reachable product state and checks, on
//! every transition:
//!
//! - **Round-trip**: `decode(encode(a)) == a` — the code is a lossless
//!   protocol (paper Sections 2–3 require every code to be invertible on
//!   the receiver side);
//! - **T0 freeze** (T0, T0_BI, dual T0, dual T0_BI): an asserted
//!   `INC`/`INCV` line on an instruction cycle means the payload lines are
//!   frozen at their previous value (paper Eq. 4/7/10/11);
//! - **Bus-invert bound** (bus-invert, and the data branch of dual
//!   T0_BI): the Hamming distance between consecutive bus words, counting
//!   the redundant line, never exceeds `⌊W/2⌋ + 1` (Stan & Burleson's
//!   defining property, paper Section 2.1).
//!
//! Sibling explorers check the protection wrappers' contracts
//! ([`check_hardened`], [`check_ecc`]) and the rollback contract of
//! [`Decoder::rewind`] ([`check_rewind`]) the same way.
//!
//! The search is budgeted ([`CheckConfig`]); codes whose reachable state
//! space exceeds the budget (the working-zone table on wide buses) get a
//! [`Verdict::Bounded`] — every explored transition was checked, nothing
//! failed, but exhaustiveness was not reached. When a check fails the
//! verdict carries a minimal [`Counterexample`] input trace replayed from
//! reset.
//!
//! # Examples
//!
//! ```
//! use buscode_core::check::{check_code, CheckConfig, Verdict};
//! use buscode_core::{CodeKind, CodeParams};
//!
//! let params = CodeParams::new(4, 4).unwrap();
//! let verdict = check_code(CodeKind::T0, params, &CheckConfig::default()).unwrap();
//! assert!(matches!(verdict, Verdict::Proven { .. }));
//! ```

use core::fmt;
use std::collections::VecDeque;
use std::collections::{HashMap, HashSet};
use std::hash::Hash;

use crate::bus::{Access, AccessKind, BusState, BusWidth};
use crate::codes::{
    BeachCode, BinaryDecoder, BinaryEncoder, BusInvertDecoder, BusInvertEncoder, DualT0BiDecoder,
    DualT0BiEncoder, DualT0Decoder, DualT0Encoder, EccHardened, GrayDecoder, GrayEncoder, Hardened,
    OffsetDecoder, OffsetEncoder, SelfOrganizingDecoder, SelfOrganizingEncoder, T0BiDecoder,
    T0BiEncoder, T0Decoder, T0Encoder, T0XorDecoder, T0XorEncoder, WorkingZoneDecoder,
    WorkingZoneEncoder,
};
use crate::error::CodecError;
use crate::tier::Tier;
use crate::traits::{CodeKind, CodeParams, Decoder, Encoder};

/// Exploration budgets for [`check_code`].
///
/// The product automaton of a `W`-bit code has at most
/// `|enc states| × |dec states| × 2^(W+aux)` states and `2^(W+1)` outgoing
/// transitions per state; budgets keep pathological state spaces (the
/// working-zone table) from running away while leaving every paper code
/// fully provable at small widths.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CheckConfig {
    /// Stop exploring after this many distinct product states.
    pub max_states: usize,
    /// Stop exploring after this many checked transitions.
    pub max_transitions: u64,
}

impl Default for CheckConfig {
    fn default() -> Self {
        CheckConfig {
            max_states: 1 << 21,
            max_transitions: 16_000_000,
        }
    }
}

/// One input/output step of a counterexample trace.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceStep {
    /// The address/`SEL` pair fed to the encoder.
    pub access: Access,
    /// The word the encoder drove onto the bus.
    pub word: BusState,
    /// What the decoder recovered from that word.
    pub decoded: Result<u64, CodecError>,
}

impl fmt::Display for TraceStep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kind = match self.access.kind {
            AccessKind::Instruction => "instr",
            AccessKind::Data => "data ",
        };
        write!(
            f,
            "{kind} {:#06x} -> payload={:#06x} aux={:#04b} -> ",
            self.access.address, self.word.payload, self.word.aux
        )?;
        match &self.decoded {
            Ok(addr) => write!(f, "{addr:#06x}"),
            Err(e) => write!(f, "error: {e}"),
        }
    }
}

/// A minimal failing input trace, replayable from reset.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Counterexample {
    /// The code that failed.
    pub kind: CodeKind,
    /// Which check failed (`"round-trip"`, `"t0-freeze"`, ...).
    pub invariant: &'static str,
    /// Human-readable description of the violation on the final step.
    pub detail: String,
    /// The input trace from reset; the last step is the violating one.
    pub trace: Vec<TraceStep>,
}

impl fmt::Display for Counterexample {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} violates {} after {} step(s): {}",
            self.kind,
            self.invariant,
            self.trace.len(),
            self.detail
        )?;
        for (i, step) in self.trace.iter().enumerate() {
            writeln!(f, "  step {i}: {step}")?;
        }
        Ok(())
    }
}

/// Outcome of a model-checking run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Every reachable product state was explored and every transition
    /// passed: the properties hold for *all* input sequences at this width.
    Proven {
        /// Number of distinct reachable product states.
        states: usize,
        /// Number of transitions checked.
        transitions: u64,
    },
    /// The budget ran out first. Every explored transition passed, but
    /// unexplored states may remain.
    Bounded {
        /// Number of distinct product states explored before stopping.
        states: usize,
        /// Number of transitions checked before stopping.
        transitions: u64,
    },
    /// A check failed; the counterexample replays the failure from reset.
    Failed(Box<Counterexample>),
}

impl Verdict {
    /// True when no violation was found (proven or budget-bounded).
    pub fn holds(&self) -> bool {
        !matches!(self, Verdict::Failed(_))
    }

    /// True only for full exhaustive proofs.
    pub fn is_proven(&self) -> bool {
        matches!(self, Verdict::Proven { .. })
    }

    /// The counterexample, if one was found.
    pub fn counterexample(&self) -> Option<&Counterexample> {
        match self {
            Verdict::Failed(ce) => Some(ce),
            _ => None,
        }
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Verdict::Proven {
                states,
                transitions,
            } => write!(f, "proven ({states} states, {transitions} transitions)"),
            Verdict::Bounded {
                states,
                transitions,
            } => write!(
                f,
                "no violation within budget ({states} states, {transitions} transitions)"
            ),
            Verdict::Failed(ce) => write!(f, "FAILED: {ce}"),
        }
    }
}

/// The per-transition invariant check: given the previous bus word, the
/// word just driven, and the access that produced it, return a violation
/// description or `None`.
type Invariant = fn(BusState, BusState, Access, BusWidth) -> Option<(&'static str, String)>;

fn no_invariant(
    _: BusState,
    _: BusState,
    _: Access,
    _: BusWidth,
) -> Option<(&'static str, String)> {
    None
}

/// T0 / T0_BI: `INC` asserted means the payload lines are frozen.
fn t0_freeze(
    prev: BusState,
    word: BusState,
    _: Access,
    _: BusWidth,
) -> Option<(&'static str, String)> {
    if word.aux & 1 == 1 && word.payload != prev.payload {
        return Some((
            "t0-freeze",
            format!(
                "INC asserted but payload changed {:#x} -> {:#x}",
                prev.payload, word.payload
            ),
        ));
    }
    None
}

/// Dual T0: the freeze only applies on instruction (`SEL = 1`) cycles —
/// and the encoder never asserts `INC` on data cycles at all.
fn dual_t0_freeze(
    prev: BusState,
    word: BusState,
    access: Access,
    _: BusWidth,
) -> Option<(&'static str, String)> {
    if word.aux & 1 == 1 {
        if access.kind == AccessKind::Data {
            return Some((
                "dual-t0-sel-gating",
                "INC asserted on a data (SEL=0) cycle".to_string(),
            ));
        }
        if word.payload != prev.payload {
            return Some((
                "t0-freeze",
                format!(
                    "INC asserted but payload changed {:#x} -> {:#x}",
                    prev.payload, word.payload
                ),
            ));
        }
    }
    None
}

/// Bus-invert: consecutive bus words (payload plus the `INV` line) differ
/// in at most `⌊W/2⌋ + 1` positions.
fn bus_invert_bound(
    prev: BusState,
    word: BusState,
    _: Access,
    width: BusWidth,
) -> Option<(&'static str, String)> {
    let bound = width.bits() / 2 + 1;
    let got = word.transitions_from(prev);
    if got > bound {
        return Some((
            "bus-invert-bound",
            format!("{got} line transitions exceed the bound {bound}"),
        ));
    }
    None
}

/// Dual T0_BI: the single shared `INCV` line is a T0 freeze when `SEL = 1`
/// and a bus-invert flag when `SEL = 0`; the data branch also inherits the
/// bus-invert transition bound.
fn dual_t0_bi_invariant(
    prev: BusState,
    word: BusState,
    access: Access,
    width: BusWidth,
) -> Option<(&'static str, String)> {
    match access.kind {
        AccessKind::Instruction => {
            if word.aux & 1 == 1 && word.payload != prev.payload {
                return Some((
                    "t0-freeze",
                    format!(
                        "INCV asserted with SEL=1 but payload changed {:#x} -> {:#x}",
                        prev.payload, word.payload
                    ),
                ));
            }
        }
        AccessKind::Data => {
            if word.aux & 1 == 1 && word.payload != width.invert(access.address & width.mask()) {
                return Some((
                    "incv-inversion",
                    format!(
                        "INCV asserted with SEL=0 but payload {:#x} is not the inverted address",
                        word.payload
                    ),
                ));
            }
            return bus_invert_bound(prev, word, access, width);
        }
    }
    None
}

/// T0_BI: `INC` freeze plus a (looser) transition bound on non-frozen
/// cycles — the encoder minimizes over plain/inverted against two
/// redundant lines, so the bound is `⌊W/2⌋ + 2`.
fn t0_bi_invariant(
    prev: BusState,
    word: BusState,
    access: Access,
    width: BusWidth,
) -> Option<(&'static str, String)> {
    if let Some(v) = t0_freeze(prev, word, access, width) {
        return Some(v);
    }
    if word.aux & 1 == 0 {
        let bound = width.bits() / 2 + 2;
        let got = word.transitions_from(prev);
        if got > bound {
            return Some((
                "t0-bi-bound",
                format!("{got} line transitions exceed the bound {bound}"),
            ));
        }
    }
    None
}

/// Product-automaton state: both codec halves plus the last bus word (the
/// invariants are relations between consecutive words).
type State<E, D> = (E, D, BusState);

struct Exploration<E, D> {
    states: Vec<State<E, D>>,
    /// `(parent state index, input)` for every state except the root.
    parents: Vec<(usize, Access)>,
    transitions: u64,
}

/// Breadth-first exhaustive exploration of one codec pair.
fn explore<E, D>(
    kind: CodeKind,
    params: CodeParams,
    encoder: E,
    decoder: D,
    invariant: Invariant,
    config: &CheckConfig,
) -> Verdict
where
    E: Encoder + Clone + Eq + Hash,
    D: Decoder + Clone + Eq + Hash,
{
    let width = params.width;
    let mask = width.mask();
    let alphabet: Vec<Access> = (0..=mask)
        .flat_map(|a| [Access::instruction(a), Access::data(a)])
        .collect();

    let root: State<E, D> = (encoder.clone(), decoder.clone(), BusState::reset());
    let mut exploration = Exploration {
        states: vec![root.clone()],
        parents: vec![(usize::MAX, Access::instruction(0))],
        transitions: 0,
    };
    let mut seen: HashMap<State<E, D>, usize> = HashMap::new();
    seen.insert(root, 0);
    let mut frontier: VecDeque<usize> = VecDeque::from([0]);

    while let Some(index) = frontier.pop_front() {
        for &access in &alphabet {
            if exploration.transitions >= config.max_transitions
                || exploration.states.len() >= config.max_states
            {
                return Verdict::Bounded {
                    states: exploration.states.len(),
                    transitions: exploration.transitions,
                };
            }
            exploration.transitions += 1;
            let (mut enc, mut dec, prev_word) = exploration.states[index].clone();
            let word = enc.encode(access);
            let decoded = dec.decode(word, access.kind);
            let round_trip_ok = decoded.as_ref().is_ok_and(|&a| a == access.address & mask);
            if !round_trip_ok {
                let detail = match &decoded {
                    Ok(addr) => format!("decoded {addr:#x}, expected {:#x}", access.address & mask),
                    Err(e) => format!("decoder rejected a conforming word: {e}"),
                };
                return fail(
                    kind,
                    "round-trip",
                    detail,
                    &exploration,
                    index,
                    access,
                    &encoder,
                    &decoder,
                );
            }
            if let Some((name, detail)) = invariant(prev_word, word, access, width) {
                return fail(
                    kind,
                    name,
                    detail,
                    &exploration,
                    index,
                    access,
                    &encoder,
                    &decoder,
                );
            }
            let next: State<E, D> = (enc, dec, word);
            if !seen.contains_key(&next) {
                let id = exploration.states.len();
                seen.insert(next.clone(), id);
                exploration.states.push(next);
                exploration.parents.push((index, access));
                frontier.push_back(id);
            }
        }
    }
    Verdict::Proven {
        states: exploration.states.len(),
        transitions: exploration.transitions,
    }
}

/// Builds the counterexample for a violation on `access` out of state
/// `index` by walking the BFS parent chain back to reset, then replaying
/// the inputs through fresh codec halves.
#[allow(clippy::too_many_arguments)]
fn fail<E, D>(
    kind: CodeKind,
    invariant: &'static str,
    detail: String,
    exploration: &Exploration<E, D>,
    index: usize,
    access: Access,
    encoder: &E,
    decoder: &D,
) -> Verdict
where
    E: Encoder + Clone,
    D: Decoder + Clone,
{
    Verdict::Failed(Box::new(Counterexample {
        kind,
        invariant,
        detail,
        trace: replay(exploration, index, Some(access), encoder, decoder),
    }))
}

/// Replays the inputs that lead from reset to state `index` (followed by
/// `last`, when given) through fresh codec halves.
fn replay<E, D>(
    exploration: &Exploration<E, D>,
    index: usize,
    last: Option<Access>,
    encoder: &E,
    decoder: &D,
) -> Vec<TraceStep>
where
    E: Encoder + Clone,
    D: Decoder + Clone,
{
    let mut inputs: Vec<Access> = last.into_iter().collect();
    let mut at = index;
    while at != 0 {
        let (parent, input) = exploration.parents[at];
        inputs.push(input);
        at = parent;
    }
    inputs.reverse();
    let mut enc = encoder.clone();
    let mut dec = decoder.clone();
    inputs
        .into_iter()
        .map(|access| {
            let word = enc.encode(access);
            let decoded = dec.decode(word, access.kind);
            TraceStep {
                access,
                word,
                decoded,
            }
        })
        .collect()
}

/// Breadth-first exhaustive exploration of a [`Hardened`] codec pair,
/// checking the wrapper's fault-tolerance contract on every transition.
///
/// On top of the plain round-trip property this verifies, for every
/// reachable product state and every input:
///
/// - **schedule-sync**: both wrapper halves agree on whether the cycle is
///   a refresh cycle (the schedules are call-count driven, so this is the
///   lockstep the resync argument relies on);
/// - **single-flip-detection**: flipping any *one* of the
///   `W + aux` transmitted lines of the encoded word makes the decoder
///   (in its exact pre-transition state) report an error instead of a
///   silently wrong address;
/// - **refresh-resync**: on every refresh cycle the word is
///   self-contained — a decoder restarted from its reset state decodes it
///   to the correct address *and* lands in exactly the product decoder's
///   post-cycle state. Together with **reset-to-root** (resetting any
///   reachable codec state restores the initial state), this proves the
///   post-refresh product state is independent of the pre-refresh state:
///   whatever a transient fault did to the decoder is fully discarded at
///   the next refresh boundary, so resync takes at most `R` cycles.
///
/// The code-specific transition-count invariants (T0 freeze, bus-invert
/// bound) are deliberately *not* rechecked here: the parity line and the
/// refresh both add transitions by design — that cost is what
/// `buscode-power`'s hardening accounting measures.
fn explore_hardened<E, D>(
    kind: CodeKind,
    params: CodeParams,
    encoder: Hardened<E>,
    decoder: Hardened<D>,
    config: &CheckConfig,
) -> Verdict
where
    E: Encoder + Clone + Eq + Hash,
    D: Decoder + Clone + Eq + Hash,
{
    let width = params.width;
    let mask = width.mask();
    let total_lines = width.bits() + encoder.aux_line_count();
    let alphabet: Vec<Access> = (0..=mask)
        .flat_map(|a| [Access::instruction(a), Access::data(a)])
        .collect();

    // Reset is the fixed point the refresh argument collapses to; reset
    // copies of both halves serve as the reference for reset-to-root.
    let (root_enc, root_dec) = {
        let (mut e, mut d) = (encoder.clone(), decoder.clone());
        e.reset();
        d.reset();
        (e, d)
    };

    let root: State<Hardened<E>, Hardened<D>> =
        (encoder.clone(), decoder.clone(), BusState::reset());
    let mut exploration = Exploration {
        states: vec![root.clone()],
        parents: vec![(usize::MAX, Access::instruction(0))],
        transitions: 0,
    };
    let mut seen: HashMap<State<Hardened<E>, Hardened<D>>, usize> = HashMap::new();
    seen.insert(root, 0);
    let mut frontier: VecDeque<usize> = VecDeque::from([0]);

    while let Some(index) = frontier.pop_front() {
        for &access in &alphabet {
            if exploration.transitions >= config.max_transitions
                || exploration.states.len() >= config.max_states
            {
                return Verdict::Bounded {
                    states: exploration.states.len(),
                    transitions: exploration.transitions,
                };
            }
            exploration.transitions += 1;
            let (mut enc, mut dec, _prev_word) = exploration.states[index].clone();
            if enc.at_refresh_boundary() != dec.at_refresh_boundary() {
                return fail(
                    kind,
                    "schedule-sync",
                    "encoder and decoder disagree on the refresh boundary".to_string(),
                    &exploration,
                    index,
                    access,
                    &encoder,
                    &decoder,
                );
            }
            let refresh_cycle = enc.at_refresh_boundary();
            let pre_dec = dec.clone();
            let word = enc.encode(access);
            let decoded = dec.decode(word, access.kind);
            if !decoded.as_ref().is_ok_and(|&a| a == access.address & mask) {
                let detail = match &decoded {
                    Ok(addr) => format!("decoded {addr:#x}, expected {:#x}", access.address & mask),
                    Err(e) => format!("decoder rejected a conforming word: {e}"),
                };
                return fail(
                    kind,
                    "round-trip",
                    detail,
                    &exploration,
                    index,
                    access,
                    &encoder,
                    &decoder,
                );
            }
            for line in 0..total_lines {
                let mut corrupted = word;
                if line < width.bits() {
                    corrupted.payload ^= 1 << line;
                } else {
                    corrupted.aux ^= 1 << (line - width.bits());
                }
                let mut probe = pre_dec.clone();
                if probe.decode(corrupted, access.kind).is_ok() {
                    return fail(
                        kind,
                        "single-flip-detection",
                        format!("flip of line {line} decoded without an error"),
                        &exploration,
                        index,
                        access,
                        &encoder,
                        &decoder,
                    );
                }
            }
            if refresh_cycle {
                let mut fresh = root_dec.clone();
                let fresh_decoded = fresh.decode(word, access.kind);
                let resynced = fresh_decoded
                    .as_ref()
                    .is_ok_and(|&a| a == access.address & mask)
                    && fresh == dec;
                if !resynced {
                    return fail(
                        kind,
                        "refresh-resync",
                        "refresh-cycle word does not resynchronize a reset decoder".to_string(),
                        &exploration,
                        index,
                        access,
                        &encoder,
                        &decoder,
                    );
                }
            }
            let next: State<Hardened<E>, Hardened<D>> = (enc, dec, word);
            if !seen.contains_key(&next) {
                let (mut e, mut d, _) = next.clone();
                e.reset();
                d.reset();
                if e != root_enc || d != root_dec {
                    return fail(
                        kind,
                        "reset-to-root",
                        "reset from a reachable state does not restore the initial state"
                            .to_string(),
                        &exploration,
                        index,
                        access,
                        &encoder,
                        &decoder,
                    );
                }
                let id = exploration.states.len();
                seen.insert(next.clone(), id);
                exploration.states.push(next);
                exploration.parents.push((index, access));
                frontier.push_back(id);
            }
        }
    }
    Verdict::Proven {
        states: exploration.states.len(),
        transitions: exploration.transitions,
    }
}

/// Flips line `line` (payload lines first, then aux lines) of `word`.
fn flip_line(mut word: BusState, line: u32, payload_bits: u32) -> BusState {
    if line < payload_bits {
        word.payload ^= 1 << line;
    } else {
        word.aux ^= 1 << (line - payload_bits);
    }
    word
}

/// Breadth-first exhaustive exploration of an [`EccHardened`] codec pair,
/// checking the SEC-DED contract on every transition.
///
/// On top of the plain round-trip property this verifies, for every
/// reachable product state and every input:
///
/// - **schedule-sync**: both wrapper halves agree on whether the cycle is
///   a refresh cycle (as in `explore_hardened`);
/// - **single-flip-correction**: flipping any *one* of the `W + aux`
///   transmitted lines still decodes — with no error — to the exact
///   address, and leaves the decoder in *exactly* the clean decode's
///   post-cycle state. This is strictly stronger than the parity
///   wrapper's detection property: the fault costs nothing, not even a
///   resync window;
/// - **double-flip-detection**: flipping any *two* distinct lines makes
///   the decoder (in its exact pre-transition state) report an error
///   instead of a silently wrong address — the fault falls back to the
///   bounded refresh-resync below, never to silent corruption;
/// - **refresh-resync** and **reset-to-root**: exactly as in
///   `explore_hardened` — together they prove the post-refresh product
///   state is independent of the pre-refresh state, so recovery from a
///   detected double flip takes at most `R` cycles.
fn explore_ecc<E, D>(
    kind: CodeKind,
    params: CodeParams,
    encoder: EccHardened<E>,
    decoder: EccHardened<D>,
    config: &CheckConfig,
) -> Verdict
where
    E: Encoder + Clone + Eq + Hash,
    D: Decoder + Clone + Eq + Hash,
{
    let width = params.width;
    let mask = width.mask();
    let total_lines = width.bits() + encoder.aux_line_count();
    let alphabet: Vec<Access> = (0..=mask)
        .flat_map(|a| [Access::instruction(a), Access::data(a)])
        .collect();

    let (root_enc, root_dec) = {
        let (mut e, mut d) = (encoder.clone(), decoder.clone());
        e.reset();
        d.reset();
        (e, d)
    };

    let root: State<EccHardened<E>, EccHardened<D>> =
        (encoder.clone(), decoder.clone(), BusState::reset());
    let mut exploration = Exploration {
        states: vec![root.clone()],
        parents: vec![(usize::MAX, Access::instruction(0))],
        transitions: 0,
    };
    let mut seen: HashMap<State<EccHardened<E>, EccHardened<D>>, usize> = HashMap::new();
    seen.insert(root, 0);
    let mut frontier: VecDeque<usize> = VecDeque::from([0]);

    while let Some(index) = frontier.pop_front() {
        for &access in &alphabet {
            if exploration.transitions >= config.max_transitions
                || exploration.states.len() >= config.max_states
            {
                return Verdict::Bounded {
                    states: exploration.states.len(),
                    transitions: exploration.transitions,
                };
            }
            exploration.transitions += 1;
            let (mut enc, mut dec, _prev_word) = exploration.states[index].clone();
            if enc.at_refresh_boundary() != dec.at_refresh_boundary() {
                return fail(
                    kind,
                    "schedule-sync",
                    "encoder and decoder disagree on the refresh boundary".to_string(),
                    &exploration,
                    index,
                    access,
                    &encoder,
                    &decoder,
                );
            }
            let refresh_cycle = enc.at_refresh_boundary();
            let pre_dec = dec.clone();
            let word = enc.encode(access);
            let decoded = dec.decode(word, access.kind);
            if !decoded.as_ref().is_ok_and(|&a| a == access.address & mask) {
                let detail = match &decoded {
                    Ok(addr) => format!("decoded {addr:#x}, expected {:#x}", access.address & mask),
                    Err(e) => format!("decoder rejected a conforming word: {e}"),
                };
                return fail(
                    kind,
                    "round-trip",
                    detail,
                    &exploration,
                    index,
                    access,
                    &encoder,
                    &decoder,
                );
            }
            for line in 0..total_lines {
                let corrupted = flip_line(word, line, width.bits());
                let mut probe = pre_dec.clone();
                let corrected = probe.decode(corrupted, access.kind);
                let exact = corrected
                    .as_ref()
                    .is_ok_and(|&a| a == access.address & mask)
                    && probe == dec;
                if !exact {
                    let detail = match &corrected {
                        Ok(addr) if probe != dec => {
                            format!("flip of line {line} decoded {addr:#x} but the state drifted")
                        }
                        Ok(addr) => format!("flip of line {line} decoded {addr:#x}"),
                        Err(e) => format!("flip of line {line} was not corrected: {e}"),
                    };
                    return fail(
                        kind,
                        "single-flip-correction",
                        detail,
                        &exploration,
                        index,
                        access,
                        &encoder,
                        &decoder,
                    );
                }
            }
            for a in 0..total_lines {
                for b in (a + 1)..total_lines {
                    let corrupted = flip_line(flip_line(word, a, width.bits()), b, width.bits());
                    let mut probe = pre_dec.clone();
                    if probe.decode(corrupted, access.kind).is_ok() {
                        return fail(
                            kind,
                            "double-flip-detection",
                            format!("flips of lines {a} and {b} decoded without an error"),
                            &exploration,
                            index,
                            access,
                            &encoder,
                            &decoder,
                        );
                    }
                }
            }
            if refresh_cycle {
                let mut fresh = root_dec.clone();
                let fresh_decoded = fresh.decode(word, access.kind);
                let resynced = fresh_decoded
                    .as_ref()
                    .is_ok_and(|&a| a == access.address & mask)
                    && fresh == dec;
                if !resynced {
                    return fail(
                        kind,
                        "refresh-resync",
                        "refresh-cycle word does not resynchronize a reset decoder".to_string(),
                        &exploration,
                        index,
                        access,
                        &encoder,
                        &decoder,
                    );
                }
            }
            let next: State<EccHardened<E>, EccHardened<D>> = (enc, dec, word);
            if !seen.contains_key(&next) {
                let (mut e, mut d, _) = next.clone();
                e.reset();
                d.reset();
                if e != root_enc || d != root_dec {
                    return fail(
                        kind,
                        "reset-to-root",
                        "reset from a reachable state does not restore the initial state"
                            .to_string(),
                        &exploration,
                        index,
                        access,
                        &encoder,
                        &decoder,
                    );
                }
                let id = exploration.states.len();
                seen.insert(next.clone(), id);
                exploration.states.push(next);
                exploration.parents.push((index, access));
                frontier.push_back(id);
            }
        }
    }
    Verdict::Proven {
        states: exploration.states.len(),
        transitions: exploration.transitions,
    }
}

/// Model-checks [`Decoder::rewind`] on an arbitrary encoder/decoder pair
/// — the engine behind [`check_rewind`], public so custom decoders (and
/// seeded defects) can be checked against the same contract.
///
/// Explores the product automaton breadth-first from the pair's current
/// state under conforming traffic, checking round-trip on every
/// transition. Every distinct decoder state reached is then probed with
/// every word it can observe: each payload, each pattern of the
/// encoder's redundant lines, both `SEL` values. For each probe on which
/// `decode` errs, `rewind` must restore behaviour:
///
/// - **rewind**: if the rewound state equals the original, the contract
///   holds trivially. Otherwise — a wrapper whose refresh reset fired
///   before the error keeps the reset inner state — the next `decode` of
///   every observable word from the rewound state must return the same
///   result *and* land in the same state as from the original. That is
///   exactly the guarantee a supervisor relies on when it rewinds and
///   retransmits: the retry behaves as if the rejected cycle never
///   happened.
///
/// Every probe decode counts as a transition against `config`'s budget.
/// A failure's trace replays the path from reset to the offending state;
/// the detail names the rejected word and the word that then decodes
/// differently.
pub fn check_rewind_pair<E, D>(
    kind: CodeKind,
    params: CodeParams,
    encoder: E,
    decoder: D,
    config: &CheckConfig,
) -> Verdict
where
    E: Encoder + Clone + Eq + Hash,
    D: Decoder + Clone + Eq + Hash,
{
    let width = params.width;
    let mask = width.mask();
    let alphabet: Vec<Access> = (0..=mask)
        .flat_map(|a| [Access::instruction(a), Access::data(a)])
        .collect();
    let aux_patterns = 1u64 << encoder.aux_line_count();
    let observable: Vec<(BusState, AccessKind)> = (0..=mask)
        .flat_map(|payload| (0..aux_patterns).map(move |aux| BusState::new(payload, aux)))
        .flat_map(|word| [(word, AccessKind::Instruction), (word, AccessKind::Data)])
        .collect();

    let root: State<E, D> = (encoder.clone(), decoder.clone(), BusState::reset());
    let mut exploration = Exploration {
        states: vec![root.clone()],
        parents: vec![(usize::MAX, Access::instruction(0))],
        transitions: 0,
    };
    let mut seen: HashMap<State<E, D>, usize> = HashMap::new();
    seen.insert(root, 0);
    let mut probed: HashSet<D> = HashSet::new();
    let mut frontier: VecDeque<usize> = VecDeque::from([0]);

    while let Some(index) = frontier.pop_front() {
        let dec = exploration.states[index].1.clone();
        if probed.insert(dec.clone()) {
            if let Some(detail) = rewind_violation(&dec, &observable, &mut exploration.transitions)
            {
                let trace = replay(&exploration, index, None, &encoder, &decoder);
                return Verdict::Failed(Box::new(Counterexample {
                    kind,
                    invariant: "rewind",
                    detail,
                    trace,
                }));
            }
        }
        for &access in &alphabet {
            if exploration.transitions >= config.max_transitions
                || exploration.states.len() >= config.max_states
            {
                return Verdict::Bounded {
                    states: exploration.states.len(),
                    transitions: exploration.transitions,
                };
            }
            exploration.transitions += 1;
            let (mut enc, mut dec, _prev_word) = exploration.states[index].clone();
            let word = enc.encode(access);
            let decoded = dec.decode(word, access.kind);
            if !decoded.as_ref().is_ok_and(|&a| a == access.address & mask) {
                let detail = match &decoded {
                    Ok(addr) => format!("decoded {addr:#x}, expected {:#x}", access.address & mask),
                    Err(e) => format!("decoder rejected a conforming word: {e}"),
                };
                return fail(
                    kind,
                    "round-trip",
                    detail,
                    &exploration,
                    index,
                    access,
                    &encoder,
                    &decoder,
                );
            }
            // The previous bus word plays no part in the rewind contract;
            // leaving it out of the state keeps the search small.
            let next: State<E, D> = (enc, dec, BusState::reset());
            if !seen.contains_key(&next) {
                let id = exploration.states.len();
                seen.insert(next.clone(), id);
                exploration.states.push(next);
                exploration.parents.push((index, access));
                frontier.push_back(id);
            }
        }
    }
    Verdict::Proven {
        states: exploration.states.len(),
        transitions: exploration.transitions,
    }
}

/// Probes one decoder state with every observable word; returns a
/// description of the first rejected word whose rewind does not restore
/// the state's behaviour.
fn rewind_violation<D: Decoder + Clone + Eq>(
    original: &D,
    observable: &[(BusState, AccessKind)],
    transitions: &mut u64,
) -> Option<String> {
    // Rewound states already shown to behave like `original`.
    let mut equivalent: Vec<D> = Vec::new();
    for &(rejected, rejected_kind) in observable {
        *transitions += 1;
        let mut rewound = original.clone();
        if rewound.decode(rejected, rejected_kind).is_ok() {
            continue;
        }
        rewound.rewind();
        if rewound == *original || equivalent.contains(&rewound) {
            continue;
        }
        for &(next, next_kind) in observable {
            *transitions += 1;
            let (mut want, mut got) = (original.clone(), rewound.clone());
            let (want_out, got_out) = (want.decode(next, next_kind), got.decode(next, next_kind));
            if want_out != got_out || want != got {
                let drift = if want_out == got_out {
                    " but a different state".to_string()
                } else {
                    String::new()
                };
                return Some(format!(
                    "after rejecting payload={:#x} aux={:#b} and rewinding, payload={:#x} aux={:#b} \
                     decodes to {got_out:?}{drift} instead of {want_out:?}",
                    rejected.payload, rejected.aux, next.payload, next.aux
                ));
            }
        }
        equivalent.push(rewound);
    }
    None
}

/// Receives one code's concrete encoder/decoder pair from [`with_pair`].
///
/// The explorers hash and compare whole codec states, so they need the
/// concrete `Clone + Eq + Hash` types rather than the boxed trait objects
/// [`CodeKind::encoder`] builds; Rust has no generic closures, hence the
/// one-method trait.
trait PairVisitor {
    type Output;

    fn visit<E, D>(self, encoder: E, decoder: D) -> Result<Self::Output, CodecError>
    where
        E: Encoder + Clone + Eq + Hash,
        D: Decoder + Clone + Eq + Hash;
}

/// Builds the same encoder/decoder pair as [`CodeKind::encoder`] /
/// [`CodeKind::decoder`] as concrete types and hands it to `visitor`.
///
/// # Errors
///
/// Returns [`CodecError::InvalidParameter`] for widths above 16 bits (the
/// state space is exponential in the width) and propagates constructor
/// errors.
fn with_pair<V: PairVisitor>(
    kind: CodeKind,
    params: CodeParams,
    visitor: V,
) -> Result<V::Output, CodecError> {
    if params.width.bits() > 16 {
        return Err(CodecError::InvalidParameter {
            name: "width",
            reason: format!(
                "exhaustive checking requires width <= 16 bits, got {}",
                params.width.bits()
            ),
        });
    }
    let w = params.width;
    let s = params.stride;
    match kind {
        CodeKind::Binary => visitor.visit(BinaryEncoder::new(w), BinaryDecoder::new(w)),
        CodeKind::Gray => visitor.visit(GrayEncoder::new(w, s)?, GrayDecoder::new(w, s)?),
        CodeKind::BusInvert => visitor.visit(BusInvertEncoder::new(w), BusInvertDecoder::new(w)),
        CodeKind::T0 => visitor.visit(T0Encoder::new(w, s)?, T0Decoder::new(w, s)?),
        CodeKind::T0Bi => visitor.visit(T0BiEncoder::new(w, s)?, T0BiDecoder::new(w, s)?),
        CodeKind::DualT0 => visitor.visit(DualT0Encoder::new(w, s)?, DualT0Decoder::new(w, s)?),
        CodeKind::DualT0Bi => {
            visitor.visit(DualT0BiEncoder::new(w, s)?, DualT0BiDecoder::new(w, s)?)
        }
        CodeKind::T0Xor => visitor.visit(T0XorEncoder::new(w, s)?, T0XorDecoder::new(w, s)?),
        CodeKind::Offset => visitor.visit(OffsetEncoder::new(w), OffsetDecoder::new(w)),
        CodeKind::WorkingZone => visitor.visit(
            WorkingZoneEncoder::new(w, s, 4)?,
            WorkingZoneDecoder::new(w, s, 4)?,
        ),
        CodeKind::Beach => visitor.visit(
            BeachCode::identity(w).into_encoder(),
            BeachCode::identity(w).into_decoder(),
        ),
        CodeKind::SelfOrganizing => {
            // Mirror the CodeKind factory's geometry scaling.
            let low_bits = 8.min(w.bits() - 1);
            let entries = 16.min(w.bits() - low_bits);
            visitor.visit(
                SelfOrganizingEncoder::new(w, low_bits, entries)?,
                SelfOrganizingDecoder::new(w, low_bits, entries)?,
            )
        }
    }
}

/// The code's own per-transition invariant (see the module docs).
fn invariant_for(kind: CodeKind) -> Invariant {
    match kind {
        CodeKind::BusInvert => bus_invert_bound,
        CodeKind::T0 => t0_freeze,
        CodeKind::T0Bi => t0_bi_invariant,
        CodeKind::DualT0 => dual_t0_freeze,
        CodeKind::DualT0Bi => dual_t0_bi_invariant,
        _ => no_invariant,
    }
}

/// Model-checks one code at the given parameters.
///
/// Builds the same encoder/decoder pair as [`CodeKind::encoder`] /
/// [`CodeKind::decoder`] and explores the full product automaton (within
/// `config`'s budgets), checking the round-trip property on every
/// transition plus the code's own invariants (see the module docs).
///
/// # Errors
///
/// Returns [`CodecError::InvalidParameter`] for widths above 16 bits (the
/// state space is exponential in the width; the round-trip property and
/// the paper invariants are checked exhaustively at width ≤ 16 — for
/// wider buses use the symbolic `busverify` engine) and propagates
/// constructor errors.
pub fn check_code(
    kind: CodeKind,
    params: CodeParams,
    config: &CheckConfig,
) -> Result<Verdict, CodecError> {
    struct Plain<'a> {
        kind: CodeKind,
        params: CodeParams,
        config: &'a CheckConfig,
    }
    impl PairVisitor for Plain<'_> {
        type Output = Verdict;
        fn visit<E, D>(self, enc: E, dec: D) -> Result<Verdict, CodecError>
        where
            E: Encoder + Clone + Eq + Hash,
            D: Decoder + Clone + Eq + Hash,
        {
            let invariant = invariant_for(self.kind);
            Ok(explore(
                self.kind,
                self.params,
                enc,
                dec,
                invariant,
                self.config,
            ))
        }
    }
    with_pair(
        kind,
        params,
        Plain {
            kind,
            params,
            config,
        },
    )
}

/// Model-checks every [`CodeKind`] at the given parameters.
///
/// # Errors
///
/// Propagates the first [`check_code`] error (invalid parameters).
pub fn check_all(
    params: CodeParams,
    config: &CheckConfig,
) -> Result<Vec<(CodeKind, Verdict)>, CodecError> {
    CodeKind::all()
        .into_iter()
        .map(|kind| Ok((kind, check_code(kind, params, config)?)))
        .collect()
}

/// The arguments every wrapper check visits a pair with.
struct Wrapped<'a> {
    kind: CodeKind,
    params: CodeParams,
    refresh: u64,
    config: &'a CheckConfig,
}

/// Model-checks one code wrapped in [`Hardened`] with the given refresh
/// interval.
///
/// Beyond the round-trip property this verifies the wrapper's
/// fault-tolerance contract exhaustively (within budget): every single
/// line flip is detected, and every refresh cycle collapses the decoder
/// to a state reachable from reset — the bounded-resync guarantee (see
/// `explore_hardened`'s soundness argument in the source). Failures
/// carry a replayable [`Counterexample`] like [`check_code`].
///
/// # Errors
///
/// Same width limit as [`check_code`] (≤ 16 bits, with the offending
/// width reported), plus the [`Hardened`] constructor errors
/// (`refresh == 0`).
pub fn check_hardened(
    kind: CodeKind,
    params: CodeParams,
    refresh: u64,
    config: &CheckConfig,
) -> Result<Verdict, CodecError> {
    struct Parity<'a>(Wrapped<'a>);
    impl PairVisitor for Parity<'_> {
        type Output = Verdict;
        fn visit<E, D>(self, enc: E, dec: D) -> Result<Verdict, CodecError>
        where
            E: Encoder + Clone + Eq + Hash,
            D: Decoder + Clone + Eq + Hash,
        {
            let Wrapped {
                kind,
                params,
                refresh,
                config,
            } = self.0;
            // Read the redundant line count off the encoder so the
            // decoder half matches.
            let inner_aux = enc.aux_line_count();
            Ok(explore_hardened(
                kind,
                params,
                Hardened::encoder(enc, refresh)?,
                Hardened::with_aux_lines(dec, refresh, inner_aux)?,
                config,
            ))
        }
    }
    with_pair(
        kind,
        params,
        Parity(Wrapped {
            kind,
            params,
            refresh,
            config,
        }),
    )
}

/// Model-checks every [`CodeKind`] under [`Hardened`] at the given
/// refresh interval.
///
/// # Errors
///
/// Propagates the first [`check_hardened`] error.
pub fn check_hardened_all(
    params: CodeParams,
    refresh: u64,
    config: &CheckConfig,
) -> Result<Vec<(CodeKind, Verdict)>, CodecError> {
    CodeKind::all()
        .into_iter()
        .map(|kind| Ok((kind, check_hardened(kind, params, refresh, config)?)))
        .collect()
}

/// Model-checks one code wrapped in
/// [`EccHardened`] with the given refresh
/// interval.
///
/// Beyond the round-trip property this verifies the SEC-DED contract
/// exhaustively (within budget): every single line flip is *corrected*
/// in-flight — exact address, exact post-cycle decoder state, no resync —
/// and every double line flip is *detected*, falling back to the bounded
/// refresh-resync (see `explore_ecc`'s soundness argument in the source).
/// Failures carry a replayable [`Counterexample`] like [`check_code`].
///
/// Note the per-transition cost is quadratic in the line count (every
/// pair of flips is probed); prefer tighter budgets than
/// [`check_code`]'s at width 8 and above.
///
/// # Errors
///
/// Same width limit as [`check_code`] (≤ 16 bits, with the offending
/// width reported), plus the [`EccHardened`] constructor errors
/// (`refresh == 0`).
pub fn check_ecc(
    kind: CodeKind,
    params: CodeParams,
    refresh: u64,
    config: &CheckConfig,
) -> Result<Verdict, CodecError> {
    struct Ecc<'a>(Wrapped<'a>);
    impl PairVisitor for Ecc<'_> {
        type Output = Verdict;
        fn visit<E, D>(self, enc: E, dec: D) -> Result<Verdict, CodecError>
        where
            E: Encoder + Clone + Eq + Hash,
            D: Decoder + Clone + Eq + Hash,
        {
            let Wrapped {
                kind,
                params,
                refresh,
                config,
            } = self.0;
            let inner_aux = enc.aux_line_count();
            Ok(explore_ecc(
                kind,
                params,
                EccHardened::encoder(enc, refresh)?,
                EccHardened::with_aux_lines(dec, refresh, inner_aux)?,
                config,
            ))
        }
    }
    with_pair(
        kind,
        params,
        Ecc(Wrapped {
            kind,
            params,
            refresh,
            config,
        }),
    )
}

/// Model-checks every [`CodeKind`] under
/// [`EccHardened`] at the given refresh
/// interval.
///
/// # Errors
///
/// Propagates the first [`check_ecc`] error.
pub fn check_ecc_all(
    params: CodeParams,
    refresh: u64,
    config: &CheckConfig,
) -> Result<Vec<(CodeKind, Verdict)>, CodecError> {
    CodeKind::all()
        .into_iter()
        .map(|kind| Ok((kind, check_ecc(kind, params, refresh, config)?)))
        .collect()
}

/// Model-checks [`Decoder::rewind`] for one code at one protection tier.
///
/// Explores the product automaton under conforming traffic (checking
/// round-trip on every transition) and, for every reachable decoder
/// state and every word the decoder can observe — each payload, each
/// pattern of the redundant lines, both `SEL` values — on which `decode`
/// errs, checks the rollback contract: after `decode` and `rewind`, the
/// next `decode` of every word returns what it returns from the original
/// state and lands in the same state. See [`check_rewind_pair`].
///
/// The decoder is checked behind a `Box`, as the pipeline and the link
/// hold it, so a `Box` that failed to forward `rewind` is refuted too.
/// `refresh` is ignored for [`Tier::Bare`]. Budgets count every probe
/// decode as a transition; the per-state cost grows with `2^(W + aux)`,
/// so prefer tighter budgets at width 8 and above.
///
/// # Errors
///
/// Same width limit as [`check_code`] (≤ 16 bits), plus the wrapper
/// constructor errors (`refresh == 0` for the parity and ECC tiers).
pub fn check_rewind(
    kind: CodeKind,
    params: CodeParams,
    tier: Tier,
    refresh: u64,
    config: &CheckConfig,
) -> Result<Verdict, CodecError> {
    struct Rewind<'a>(Wrapped<'a>, Tier);
    impl PairVisitor for Rewind<'_> {
        type Output = Verdict;
        fn visit<E, D>(self, enc: E, dec: D) -> Result<Verdict, CodecError>
        where
            E: Encoder + Clone + Eq + Hash,
            D: Decoder + Clone + Eq + Hash,
        {
            let Wrapped {
                kind,
                params,
                refresh,
                config,
            } = self.0;
            let inner_aux = enc.aux_line_count();
            Ok(match self.1 {
                Tier::Bare => check_rewind_pair(kind, params, enc, Box::new(dec), config),
                Tier::Parity => check_rewind_pair(
                    kind,
                    params,
                    Hardened::encoder(enc, refresh)?,
                    Box::new(Hardened::with_aux_lines(dec, refresh, inner_aux)?),
                    config,
                ),
                Tier::Ecc => check_rewind_pair(
                    kind,
                    params,
                    EccHardened::encoder(enc, refresh)?,
                    Box::new(EccHardened::with_aux_lines(dec, refresh, inner_aux)?),
                    config,
                ),
            })
        }
    }
    with_pair(
        kind,
        params,
        Rewind(
            Wrapped {
                kind,
                params,
                refresh,
                config,
            },
            tier,
        ),
    )
}

/// Model-checks [`Decoder::rewind`] for every [`CodeKind`] at every
/// [`Tier`].
///
/// # Errors
///
/// Propagates the first [`check_rewind`] error.
pub fn check_rewind_all(
    params: CodeParams,
    refresh: u64,
    config: &CheckConfig,
) -> Result<Vec<(CodeKind, Tier, Verdict)>, CodecError> {
    let mut verdicts = Vec::new();
    for kind in CodeKind::all() {
        for &tier in Tier::all() {
            let verdict = check_rewind(kind, params, tier, refresh, config)?;
            verdicts.push((kind, tier, verdict));
        }
    }
    Ok(verdicts)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(bits: u32) -> CodeParams {
        CodeParams::new(bits, 4.min(1 << (bits - 1))).unwrap()
    }

    #[test]
    fn every_code_proven_at_width_3() {
        let p = CodeParams::new(3, 2).unwrap();
        for (kind, verdict) in check_all(p, &CheckConfig::default()).unwrap() {
            assert!(verdict.holds(), "{kind}: {verdict}");
            assert!(verdict.is_proven(), "{kind}: {verdict}");
        }
    }

    #[test]
    fn t0_proven_at_width_4() {
        let verdict = check_code(CodeKind::T0, params(4), &CheckConfig::default()).unwrap();
        match verdict {
            Verdict::Proven {
                states,
                transitions,
            } => {
                assert!(states > 1);
                assert!(transitions >= states as u64);
            }
            other => panic!("expected proven, got {other}"),
        }
    }

    #[test]
    fn budget_yields_bounded_not_failure() {
        let tight = CheckConfig {
            max_states: 4,
            max_transitions: 100,
        };
        let verdict = check_code(CodeKind::T0, params(8), &tight).unwrap();
        assert!(matches!(verdict, Verdict::Bounded { .. }), "{verdict}");
        assert!(verdict.holds());
    }

    #[test]
    fn wide_buses_are_rejected() {
        let err = check_code(
            CodeKind::Binary,
            CodeParams::new(32, 4).unwrap(),
            &CheckConfig::default(),
        )
        .unwrap_err();
        assert!(matches!(err, CodecError::InvalidParameter { .. }));
    }

    /// A deliberately broken encoder must produce a counterexample whose
    /// replayed trace reproduces the violation — exercised through the
    /// generic explorer directly.
    #[derive(Clone, PartialEq, Eq, Hash)]
    struct LyingEncoder {
        width: BusWidth,
        count: u8,
    }

    impl Encoder for LyingEncoder {
        fn name(&self) -> &'static str {
            "lying"
        }
        fn width(&self) -> BusWidth {
            self.width
        }
        fn aux_line_count(&self) -> u32 {
            0
        }
        fn encode(&mut self, access: Access) -> BusState {
            self.count = self.count.wrapping_add(1);
            // Corrupt the third word.
            let payload = if self.count == 3 {
                (access.address ^ 1) & self.width.mask()
            } else {
                access.address & self.width.mask()
            };
            BusState::new(payload, 0)
        }
        fn reset(&mut self) {
            self.count = 0;
        }
    }

    #[test]
    fn counterexample_replays_from_reset() {
        let p = CodeParams::new(3, 1).unwrap();
        let verdict = explore(
            CodeKind::Binary,
            p,
            LyingEncoder {
                width: p.width,
                count: 0,
            },
            BinaryDecoder::new(p.width),
            no_invariant,
            &CheckConfig::default(),
        );
        let ce = verdict.counterexample().expect("must fail");
        assert_eq!(ce.invariant, "round-trip");
        assert_eq!(ce.trace.len(), 3);
        let last = ce.trace.last().unwrap();
        assert_ne!(
            last.decoded.as_ref().copied().unwrap(),
            last.access.address & p.width.mask()
        );
        // The display form mentions the failing code and step count.
        let text = ce.to_string();
        assert!(text.contains("round-trip"));
        assert!(text.contains("step 2"));
    }

    #[test]
    fn every_hardened_code_proven_at_width_3() {
        let p = CodeParams::new(3, 2).unwrap();
        for (kind, verdict) in check_hardened_all(p, 2, &CheckConfig::default()).unwrap() {
            assert!(verdict.holds(), "{kind}: {verdict}");
            assert!(verdict.is_proven(), "{kind}: {verdict}");
        }
    }

    #[test]
    fn hardened_refresh_zero_is_rejected() {
        let err = check_hardened(CodeKind::T0, params(4), 0, &CheckConfig::default()).unwrap_err();
        assert!(matches!(
            err,
            CodecError::InvalidParameter {
                name: "refresh",
                ..
            }
        ));
    }

    #[test]
    fn hardened_detects_a_parityless_wrapper() {
        // A wrapper whose encoder half drops the parity line must be
        // caught by single-flip-detection: an undetected flip is exactly
        // the silent corruption the wrapper exists to prevent. We emulate
        // it by pairing mismatched refresh intervals instead — encoder
        // refreshing at 2 and decoder at 3 desynchronizes the schedules,
        // which the explorer pins as a failure with a replayable trace.
        let p = CodeParams::new(3, 1).unwrap();
        let w = p.width;
        let verdict = explore_hardened(
            CodeKind::T0,
            p,
            Hardened::encoder(T0Encoder::new(w, p.stride).unwrap(), 2).unwrap(),
            Hardened::with_aux_lines(T0Decoder::new(w, p.stride).unwrap(), 3, 1).unwrap(),
            &CheckConfig::default(),
        );
        let ce = verdict
            .counterexample()
            .expect("mismatched refresh must fail");
        assert!(
            ce.invariant == "schedule-sync" || ce.invariant == "round-trip",
            "unexpected invariant {}",
            ce.invariant
        );
        assert!(!ce.trace.is_empty());
    }

    #[test]
    fn every_ecc_code_proven_at_width_3() {
        let p = CodeParams::new(3, 2).unwrap();
        for (kind, verdict) in check_ecc_all(p, 2, &CheckConfig::default()).unwrap() {
            assert!(verdict.holds(), "{kind}: {verdict}");
            assert!(verdict.is_proven(), "{kind}: {verdict}");
        }
    }

    #[test]
    fn ecc_refresh_zero_and_wide_buses_are_rejected() {
        let err = check_ecc(CodeKind::T0, params(4), 0, &CheckConfig::default()).unwrap_err();
        assert!(matches!(
            err,
            CodecError::InvalidParameter {
                name: "refresh",
                ..
            }
        ));
        let err = check_ecc(
            CodeKind::Binary,
            CodeParams::new(32, 4).unwrap(),
            2,
            &CheckConfig::default(),
        )
        .unwrap_err();
        assert!(matches!(
            err,
            CodecError::InvalidParameter { name: "width", .. }
        ));
    }

    #[test]
    fn ecc_catches_a_decoder_with_the_wrong_geometry() {
        // A decoder built with the wrong inner-aux count reads the check
        // lines at the wrong offsets; the explorer must refute it rather
        // than prove it.
        let p = CodeParams::new(3, 1).unwrap();
        let w = p.width;
        let verdict = explore_ecc(
            CodeKind::T0,
            p,
            EccHardened::encoder(T0Encoder::new(w, p.stride).unwrap(), 2).unwrap(),
            EccHardened::with_aux_lines(T0Decoder::new(w, p.stride).unwrap(), 2, 0).unwrap(),
            &CheckConfig::default(),
        );
        let ce = verdict
            .counterexample()
            .expect("mismatched geometry must fail");
        assert!(!ce.trace.is_empty());
    }

    #[test]
    fn bus_invert_bound_is_tight_at_width_8() {
        // The checker must accept the real encoder (bound floor(W/2)+1)…
        let verdict = check_code(CodeKind::BusInvert, params(8), &CheckConfig::default()).unwrap();
        assert!(verdict.is_proven(), "{verdict}");
        // …and the invariant itself must reject a distance above the bound.
        let w = BusWidth::new(8).unwrap();
        let prev = BusState::new(0x00, 0);
        let far = BusState::new(0xff, 1);
        assert!(bus_invert_bound(prev, far, Access::data(0xff), w).is_some());
    }
}
