//! The `Hardened` wrapper codec: bounded-resync fault containment for
//! stateful codes.
//!
//! The stateful codes (T0, T0_BI, dual T0, dual T0_BI, and most of the
//! extensions) buy their power savings with shared encoder/decoder state:
//! the decoder reconstructs addresses from references it accumulated in
//! earlier cycles. A single in-transit bit flip (SEU, crosstalk) therefore
//! desynchronizes the decoder for an *unbounded* number of cycles — the
//! corrupted reference silently poisons every later relative decode.
//!
//! [`Hardened`] wraps any [`Encoder`]/[`Decoder`] pair and restores two
//! production-grade guarantees without touching the inner code:
//!
//! 1. **Aux-line parity (detection).** One extra redundant line carries
//!    the parity of every transmitted line (payload plus the inner code's
//!    redundant lines). Any *single* line flip — payload, redundant, or
//!    the parity line itself — is detected at the cycle it happens:
//!    [`Decoder::decode`] reports a [`CodecError::ProtocolViolation`]
//!    instead of a silently wrong address.
//! 2. **Periodic plain-word refresh (bounded resync).** Every `R` cycles
//!    (the *refresh interval*) both wrapper halves reset their inner codec
//!    before processing the cycle. A freshly reset encoder emits a
//!    self-contained plain word, and a freshly reset decoder decodes it
//!    without any accumulated state — so whatever damage a fault did to
//!    the decoder's references is discarded at the next refresh boundary.
//!    Any transient fault is fully recovered within `R` cycles.
//!
//! The resync bound rests on two facts the model checker
//! ([`crate::check::check_hardened`]) verifies exhaustively at small
//! widths: `reset()` restores the inner codec's construction state from
//! *every* reachable state (so the post-refresh product state does not
//! depend on the pre-refresh state), and the refresh schedule is driven by
//! a cycle counter — advanced once per encode/decode call, never by bus
//! data — so faults cannot desynchronize the schedule itself. Dropped or
//! duplicated *bus cycles* shift the two counters relative to each other
//! and are outside the single-transient-fault guarantee (the campaign
//! runner in `buscode-fault` measures what happens then).
//!
//! The price is power: the parity line toggles and the refresh forces a
//! full plain word onto lines the inner code had frozen.
//! `buscode-power::hardened_bus_power` and the `buscode-bench` hardening
//! table quantify the overhead against the paper's savings.
//!
//! # Examples
//!
//! A flipped line is detected, and the decoder is exact again at the next
//! refresh boundary:
//!
//! ```
//! use buscode_core::codes::{Hardened, T0Decoder, T0Encoder};
//! use buscode_core::{Access, AccessKind, BusWidth, Decoder, Encoder, Stride};
//!
//! # fn main() -> Result<(), buscode_core::CodecError> {
//! let (w, s) = (BusWidth::MIPS, Stride::WORD);
//! let mut enc = Hardened::encoder(T0Encoder::new(w, s)?, 4)?;
//! let mut dec = Hardened::with_aux_lines(T0Decoder::new(w, s)?, 4, 1)?;
//!
//! let mut words: Vec<_> = (0..8u64)
//!     .map(|i| enc.encode(Access::instruction(0x100 + 4 * i)))
//!     .collect();
//! words[1].payload ^= 1 << 7; // in-transit flip
//!
//! for (i, word) in words.iter().enumerate() {
//!     let decoded = dec.decode(*word, AccessKind::Instruction);
//!     match i {
//!         1 => assert!(decoded.is_err(), "parity detects the flip"),
//!         4.. => assert_eq!(decoded?, 0x100 + 4 * i as u64, "exact after refresh"),
//!         _ => {} // within the bound the decoder may drift
//!     }
//! }
//! # Ok(())
//! # }
//! ```

use crate::bus::{Access, AccessKind, BusState, BusWidth};
use crate::error::CodecError;
use crate::traits::{CodeKind, CodeParams, Decoder, Encoder};

/// Wraps an inner encoder or decoder with aux-line parity and a periodic
/// plain-word refresh; see the [module docs](self) for the guarantees.
///
/// The same generic struct wraps both halves: `Hardened<E>` implements
/// [`Encoder`] when `E` does, and `Hardened<D>` implements [`Decoder`]
/// when `D` does. Both halves must be built with the same refresh
/// interval (and the decoder with the encoder's redundant line count) or
/// they will not track each other.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Hardened<C> {
    inner: C,
    /// Refresh interval `R` in cycles: the inner codec is reset before
    /// cycles `0, R, 2R, ...`.
    refresh: u64,
    /// How many redundant lines the *inner* code uses; the parity line
    /// sits immediately above them.
    inner_aux: u32,
    /// Cycle counter modulo `refresh`, advanced once per call. Keeping it
    /// reduced makes the wrapper a finite Mealy machine, which the model
    /// checker relies on.
    cycle: u64,
}

impl<C> Hardened<C> {
    /// Wraps `inner` with an explicit inner redundant-line count.
    ///
    /// Use this for decoders, whose trait does not expose the line count;
    /// pass the paired encoder's [`Encoder::aux_line_count`].
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::InvalidParameter`] if `refresh` is zero, or
    /// if the parity line would not fit in the 64 `aux` bits.
    pub fn with_aux_lines(inner: C, refresh: u64, inner_aux: u32) -> Result<Self, CodecError> {
        if refresh == 0 {
            return Err(CodecError::InvalidParameter {
                name: "refresh",
                reason: "refresh interval must be at least 1 cycle".to_string(),
            });
        }
        if inner_aux >= 64 {
            return Err(CodecError::InvalidParameter {
                name: "inner_aux",
                reason: format!("parity line must fit within 64 redundant lines, got {inner_aux}"),
            });
        }
        Ok(Hardened {
            inner,
            refresh,
            inner_aux,
            cycle: 0,
        })
    }

    /// The configured refresh interval `R`.
    pub fn refresh_interval(&self) -> u64 {
        self.refresh
    }

    /// True when the *next* encode/decode call starts a refresh period
    /// (the inner codec will be reset before processing it).
    pub fn at_refresh_boundary(&self) -> bool {
        self.cycle == 0
    }

    /// The wrapped codec.
    pub fn inner(&self) -> &C {
        &self.inner
    }

    /// Mask selecting the inner code's redundant lines within `aux`.
    fn inner_aux_mask(&self) -> u64 {
        (1u64 << self.inner_aux) - 1
    }

    /// Advances the refresh schedule, returning whether this cycle is a
    /// refresh cycle.
    fn tick(&mut self) -> bool {
        let refresh_now = self.cycle == 0;
        self.cycle = (self.cycle + 1) % self.refresh;
        refresh_now
    }
}

impl<E: Encoder> Hardened<E> {
    /// Wraps an encoder, reading the redundant-line count off `inner`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Hardened::with_aux_lines`].
    pub fn encoder(inner: E, refresh: u64) -> Result<Self, CodecError> {
        let inner_aux = inner.aux_line_count();
        Hardened::with_aux_lines(inner, refresh, inner_aux)
    }
}

/// Parity of every transmitted line: payload bits plus the inner code's
/// redundant lines.
fn line_parity(payload: u64, inner_aux_bits: u64) -> u64 {
    u64::from((payload.count_ones() + inner_aux_bits.count_ones()) & 1)
}

impl<E: Encoder> Encoder for Hardened<E> {
    fn name(&self) -> &'static str {
        "hardened"
    }

    fn width(&self) -> BusWidth {
        self.inner.width()
    }

    fn aux_line_count(&self) -> u32 {
        self.inner_aux + 1
    }

    fn encode(&mut self, access: Access) -> BusState {
        if self.tick() {
            // Refresh: a reset inner encoder has no reference to freeze
            // against, so this cycle's word is plain and self-contained.
            self.inner.reset();
        }
        let word = self.inner.encode(access);
        let aux = word.aux & self.inner_aux_mask();
        let parity = line_parity(word.payload, aux);
        BusState::new(word.payload, aux | (parity << self.inner_aux))
    }

    fn reset(&mut self) {
        self.inner.reset();
        self.cycle = 0;
    }
}

impl<D: Decoder> Decoder for Hardened<D> {
    fn name(&self) -> &'static str {
        "hardened"
    }

    fn width(&self) -> BusWidth {
        self.inner.width()
    }

    fn decode(&mut self, word: BusState, kind: AccessKind) -> Result<u64, CodecError> {
        // The schedule advances on every call — it is driven by the cycle
        // count alone, so a corrupted word cannot shift it.
        if self.tick() {
            self.inner.reset();
        }
        let payload = word.payload & self.inner.width().mask();
        let inner_aux_bits = word.aux & self.inner_aux_mask();
        let parity_bit = (word.aux >> self.inner_aux) & 1;
        if parity_bit != line_parity(payload, inner_aux_bits) {
            // Detected corruption: report it and leave the inner state
            // untouched (the word is untrustworthy either way; the next
            // refresh discards whatever drift the gap causes).
            return Err(CodecError::ProtocolViolation {
                code: "hardened",
                reason: "aux parity mismatch",
            });
        }
        self.inner
            .decode(BusState::new(word.payload, inner_aux_bits), kind)
    }

    fn reset(&mut self) {
        self.inner.reset();
        self.cycle = 0;
    }

    /// Steps the refresh schedule back over the rejected cycle. A refresh
    /// reset that fired before the error is not undone: the retried
    /// cycle is the same refresh cycle, so it resets the inner decoder
    /// again.
    fn rewind(&mut self) {
        self.cycle = (self.cycle + self.refresh - 1) % self.refresh;
        self.inner.rewind();
    }

    fn corrected_count(&self) -> u64 {
        self.inner.corrected_count()
    }
}

impl CodeKind {
    /// The number of redundant lines this code's encoder adds.
    ///
    /// # Errors
    ///
    /// Propagates parameter validation errors from the code's constructor.
    pub fn aux_line_count(self, params: CodeParams) -> Result<u32, CodecError> {
        Ok(self.encoder(params)?.aux_line_count())
    }

    /// Builds this code's encoder wrapped in [`Hardened`] with the given
    /// refresh interval.
    ///
    /// # Errors
    ///
    /// Propagates constructor and wrapper validation errors.
    pub fn hardened_encoder(
        self,
        params: CodeParams,
        refresh: u64,
    ) -> Result<Hardened<Box<dyn Encoder>>, CodecError> {
        Hardened::encoder(self.encoder(params)?, refresh)
    }

    /// Builds the decoder paired with [`CodeKind::hardened_encoder`].
    ///
    /// # Errors
    ///
    /// Propagates constructor and wrapper validation errors.
    pub fn hardened_decoder(
        self,
        params: CodeParams,
        refresh: u64,
    ) -> Result<Hardened<Box<dyn Decoder>>, CodecError> {
        let aux = self.aux_line_count(params)?;
        Hardened::with_aux_lines(self.decoder(params)?, refresh, aux)
    }
}

// --- Snapshot support ------------------------------------------------------

use crate::snapshot::{Snapshot, StateImage};

impl<C: Snapshot> Snapshot for Hardened<C> {
    /// The image is the inner codec's image with the refresh-cycle
    /// counter appended, under a `hardened:`-prefixed code name.
    fn snapshot(&self) -> StateImage {
        let inner = self.inner.snapshot();
        let mut words = inner.words().to_vec();
        words.push(self.cycle);
        StateImage::new(format!("hardened:{}", inner.code()), words)
    }

    fn restore(&mut self, image: &StateImage) -> Result<(), CodecError> {
        let Some(inner_code) = image.code().strip_prefix("hardened:") else {
            return Err(CodecError::SnapshotMismatch {
                code: "hardened",
                reason: "image is not a hardened snapshot",
            });
        };
        let Some((&cycle, inner_words)) = image.words().split_last() else {
            return Err(CodecError::SnapshotMismatch {
                code: "hardened",
                reason: "missing refresh-cycle counter",
            });
        };
        if cycle >= self.refresh {
            return Err(CodecError::SnapshotMismatch {
                code: "hardened",
                reason: "cycle counter outside the refresh interval",
            });
        }
        // Restore the inner codec first: it validates before mutating, so
        // a bad inner image leaves the whole wrapper unchanged.
        self.inner
            .restore(&StateImage::new(inner_code, inner_words.to_vec()))?;
        self.cycle = cycle;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codes::{T0BiEncoder, T0Decoder, T0Encoder};
    use crate::{BusWidth, Stride};

    fn t0_pair(refresh: u64) -> (Hardened<T0Encoder>, Hardened<T0Decoder>) {
        let (w, s) = (BusWidth::MIPS, Stride::WORD);
        (
            Hardened::encoder(T0Encoder::new(w, s).unwrap(), refresh).unwrap(),
            Hardened::with_aux_lines(T0Decoder::new(w, s).unwrap(), refresh, 1).unwrap(),
        )
    }

    #[test]
    fn refresh_zero_is_rejected() {
        let enc = T0Encoder::new(BusWidth::MIPS, Stride::WORD).unwrap();
        assert!(matches!(
            Hardened::encoder(enc, 0),
            Err(CodecError::InvalidParameter {
                name: "refresh",
                ..
            })
        ));
    }

    #[test]
    fn round_trips_like_the_inner_code() {
        let (mut enc, mut dec) = t0_pair(8);
        for i in 0..100u64 {
            let addr = if i % 7 == 0 {
                0x9000 + 64 * i
            } else {
                0x100 + 4 * i
            };
            let word = enc.encode(Access::instruction(addr));
            assert_eq!(dec.decode(word, AccessKind::Instruction).unwrap(), addr);
        }
    }

    #[test]
    fn adds_exactly_one_aux_line() {
        let (enc, _) = t0_pair(8);
        assert_eq!(enc.aux_line_count(), 2); // INC + parity
        let params = CodeParams::default();
        assert_eq!(CodeKind::T0Bi.aux_line_count(params).unwrap(), 2);
        let henc = CodeKind::T0Bi.hardened_encoder(params, 16).unwrap();
        assert_eq!(henc.aux_line_count(), 3);
    }

    #[test]
    fn parity_line_covers_payload_and_inner_aux() {
        let (w, s) = (BusWidth::MIPS, Stride::WORD);
        let mut enc = Hardened::encoder(T0BiEncoder::new(w, s).unwrap(), 1024).unwrap();
        let mut rng = crate::rng::Rng64::seed_from_u64(5);
        for _ in 0..500 {
            let word = enc.encode(Access::instruction(rng.gen::<u64>() & w.mask()));
            let parity = (word.aux >> 2) & 1;
            let inner_aux = word.aux & 0b11;
            assert_eq!(parity, line_parity(word.payload, inner_aux));
        }
    }

    #[test]
    fn every_single_flip_is_detected() {
        let (mut enc, dec) = t0_pair(16);
        let mut reference =
            Hardened::with_aux_lines(T0Decoder::new(BusWidth::MIPS, Stride::WORD).unwrap(), 16, 1)
                .unwrap();
        let _ = dec;
        for i in 0..64u64 {
            let word = enc.encode(Access::instruction(0x400 + 4 * i));
            // Try every flip against a decoder snapshot in the right state.
            for line in 0..34 {
                let mut corrupted = word;
                if line < 32 {
                    corrupted.payload ^= 1 << line;
                } else {
                    corrupted.aux ^= 1 << (line - 32);
                }
                let mut probe = reference.clone();
                assert!(
                    probe.decode(corrupted, AccessKind::Instruction).is_err(),
                    "cycle {i} line {line} slipped through parity"
                );
            }
            reference.decode(word, AccessKind::Instruction).unwrap();
        }
    }

    #[test]
    fn transient_fault_recovers_within_the_refresh_interval() {
        let refresh = 8u64;
        let (mut enc, mut dec) = t0_pair(refresh);
        let mut words: Vec<BusState> = (0..64u64)
            .map(|i| enc.encode(Access::instruction(0x100 + 4 * i)))
            .collect();
        let fault_cycle = 10usize;
        words[fault_cycle].aux ^= 1; // flip the INC line
        for (i, word) in words.iter().enumerate() {
            let decoded = dec.decode(*word, AccessKind::Instruction);
            let expected = 0x100 + 4 * i as u64;
            let next_refresh = (fault_cycle as u64 / refresh + 1) * refresh;
            if (i as u64) >= next_refresh || i < fault_cycle {
                assert_eq!(decoded.unwrap(), expected, "cycle {i}");
            }
        }
    }

    #[test]
    fn reset_restores_the_boundary_schedule() {
        let (mut enc, _) = t0_pair(4);
        enc.encode(Access::instruction(0x100));
        enc.encode(Access::instruction(0x104));
        assert!(!enc.at_refresh_boundary());
        enc.reset();
        assert!(enc.at_refresh_boundary());
    }

    #[test]
    fn refresh_one_degenerates_to_plain_words() {
        // R = 1 resets every cycle: the inner code never freezes, every
        // word is self-contained binary plus parity.
        let (mut enc, mut dec) = t0_pair(1);
        for i in 0..32u64 {
            let word = enc.encode(Access::instruction(0x100 + 4 * i));
            assert_eq!(word.aux & 1, 0, "INC never asserted at R=1");
            assert_eq!(
                dec.decode(word, AccessKind::Instruction).unwrap(),
                0x100 + 4 * i
            );
        }
    }

    #[test]
    fn boxed_factories_build_every_code() {
        let params = CodeParams::default();
        for kind in CodeKind::all() {
            let mut enc = kind.hardened_encoder(params, 32).unwrap();
            let mut dec = kind.hardened_decoder(params, 32).unwrap();
            for i in 0..96u64 {
                let access = if i % 3 == 0 {
                    Access::data(0x8000 + 16 * i)
                } else {
                    Access::instruction(0x400 + 4 * i)
                };
                let word = enc.encode(access);
                assert_eq!(
                    dec.decode(word, access.kind).unwrap(),
                    access.address,
                    "{kind} cycle {i}"
                );
            }
        }
    }
}
