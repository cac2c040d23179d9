//! The `EccHardened` wrapper codec: SEC-DED forward error correction for
//! stateful codes.
//!
//! [`Hardened`][super::Hardened] buys fault *containment* with one parity
//! line: a single in-transit flip is detected at the faulted cycle, but
//! the word is lost and the stream pays a resync window of up to `R`
//! cycles. [`EccHardened`] upgrades the same refresh machinery to fault
//! *correction*: a Hamming SEC-DED code over every transmitted line
//! (payload plus the inner code's redundant lines) corrects any single
//! line flip *in-flight*, at the faulted cycle, with no resync at all —
//! the decoder recovers the exact address and lands in the exact state a
//! clean transmission would have produced. Double flips are beyond the
//! code's correction radius; they are *detected* (never silently decoded)
//! and fall back to the bounded refresh-resync the parity wrapper already
//! provides.
//!
//! # Line layout
//!
//! For a `w`-bit payload and an inner code with `k` redundant lines, the
//! protected data vector has `n = w + k` bits. The wrapper adds `r`
//! Hamming check lines, with `r` the minimal solution of
//! `2^r >= n + r + 1`, plus one overall-parity line for double-error
//! detection — `k + r + 1` redundant lines in total:
//!
//! ```text
//! aux bit:   0 .. k-1        k .. k+r-1      k+r
//!            inner code's    Hamming check   overall parity of the
//!            own lines       bits            n + r codeword bits
//! ```
//!
//! The check bits are the classic Hamming construction: codeword
//! positions are numbered `1..=n+r`, power-of-two positions carry the
//! check bits, and the XOR of the positions of all set bits is zero. On
//! receive, that XOR (the *syndrome*) is the position of a single flipped
//! line; combined with the overall parity it separates the cases:
//!
//! | syndrome | overall parity | meaning            | action            |
//! |---|---|---|---|
//! | 0        | even           | clean              | decode            |
//! | 0        | odd            | parity line flip   | correct (data intact) |
//! | `p`      | odd            | single flip at `p` | correct, decode   |
//! | nonzero  | even           | double flip        | detect, resync    |
//!
//! The correction guarantee is model-checked exhaustively at small widths
//! by [`check_ecc`][crate::check::check_ecc]: for every reachable state
//! and every single line flip, the decoder recovers the exact address
//! *and* the exact post-cycle state of a clean decode; every double flip
//! is reported as an error. The resync bound after a double flip is the
//! refresh argument inherited from `Hardened`, verified by the same
//! family.
//!
//! The price is lines and transitions: `r + 1` extra lines toggle where
//! the parity wrapper pays one. `buscode-power::ecc_cost` prices the
//! three tiers (bare, parity, ECC) so the adaptive redundancy manager in
//! `buscode-pipeline` can weigh milliwatts against fault pressure.
//!
//! # Examples
//!
//! A flipped line is corrected at the faulted cycle — no error, no resync
//! window:
//!
//! ```
//! use buscode_core::codes::{EccHardened, T0Decoder, T0Encoder};
//! use buscode_core::{Access, AccessKind, BusWidth, Decoder, Encoder, Stride};
//!
//! # fn main() -> Result<(), buscode_core::CodecError> {
//! let (w, s) = (BusWidth::MIPS, Stride::WORD);
//! let mut enc = EccHardened::encoder(T0Encoder::new(w, s)?, 16)?;
//! let mut dec = EccHardened::with_aux_lines(T0Decoder::new(w, s)?, 16, 1)?;
//!
//! let mut words: Vec<_> = (0..8u64)
//!     .map(|i| enc.encode(Access::instruction(0x100 + 4 * i)))
//!     .collect();
//! words[3].payload ^= 1 << 9; // in-transit flip
//!
//! for (i, word) in words.iter().enumerate() {
//!     // Every cycle decodes exactly, including the faulted one.
//!     assert_eq!(dec.decode(*word, AccessKind::Instruction)?, 0x100 + 4 * i as u64);
//! }
//! assert_eq!(dec.corrected_count(), 1);
//! # Ok(())
//! # }
//! ```

use core::hash::{Hash, Hasher};

use crate::bus::{Access, AccessKind, BusState, BusWidth};
use crate::error::CodecError;
use crate::traits::{CodeKind, CodeParams, Decoder, Encoder};

/// The minimal number of Hamming check bits `r` protecting `data_bits`
/// data bits: the smallest `r` with `2^r >= data_bits + r + 1`.
///
/// # Examples
///
/// ```
/// use buscode_core::codes::ecc_check_bits;
///
/// assert_eq!(ecc_check_bits(4), 3); // 2^3 = 8 >= 4 + 3 + 1
/// assert_eq!(ecc_check_bits(11), 4); // 2^4 = 16 >= 11 + 4 + 1
/// assert_eq!(ecc_check_bits(57), 6); // 2^6 = 64 >= 57 + 6 + 1
/// ```
pub fn ecc_check_bits(data_bits: u32) -> u32 {
    let mut r = 0u32;
    while (1u128 << r) < u128::from(data_bits) + u128::from(r) + 1 {
        r += 1;
    }
    r
}

/// XOR of the 1-indexed codeword positions of all set data bits.
///
/// Data bits occupy the non-power-of-two positions of `1..=n+r` in
/// order. Bit `j` of the result is the parity of the data bits whose
/// position has bit `j` set — exactly check bit `c_j`, by Hamming's
/// defining property that each check bit zeroes the XOR over its
/// position group.
fn data_position_xor(data: u128, n: u32) -> u64 {
    let mut acc: u64 = 0;
    let mut pos: u64 = 1;
    for i in 0..n {
        while pos.is_power_of_two() {
            pos += 1;
        }
        if (data >> i) & 1 == 1 {
            acc ^= pos;
        }
        pos += 1;
    }
    acc
}

/// The 0-based data-bit index stored at codeword position `pos`, or
/// `None` when `pos` is a power of two (a check-bit position).
fn data_index_of_position(pos: u64, n: u32) -> Option<u32> {
    if pos.is_power_of_two() {
        return None;
    }
    // The data index is the position count minus the check positions
    // (powers of two) below it, minus the 1-indexing offset.
    let checks_below = pos.ilog2() + 1;
    let index = (pos - 1 - u64::from(checks_below)) as u32;
    (index < n).then_some(index)
}

fn parity128(v: u128) -> u64 {
    u64::from(v.count_ones() & 1)
}

/// Wraps an inner encoder or decoder with SEC-DED Hamming protection and
/// a periodic plain-word refresh; see the [module docs](self) for the
/// line layout and guarantees.
///
/// The same generic struct wraps both halves: `EccHardened<E>` implements
/// [`Encoder`] when `E` does, and `EccHardened<D>` implements [`Decoder`]
/// when `D` does. Both halves must be built with the same refresh
/// interval (and the decoder with the encoder's redundant line count) or
/// they will not track each other.
///
/// Equality and hashing — which the model checker uses to identify
/// product states — cover the codec state only; the [`corrected_count`]
/// telemetry counter is deliberately excluded (a correction restores the
/// clean state by construction, so two decoders differing only in how
/// many faults they have absorbed are behaviourally identical).
///
/// [`corrected_count`]: EccHardened::corrected_count
#[derive(Clone, Debug)]
pub struct EccHardened<C> {
    inner: C,
    /// Refresh interval `R` in cycles: the inner codec is reset before
    /// cycles `0, R, 2R, ...`.
    refresh: u64,
    /// How many redundant lines the *inner* code uses; the check lines
    /// sit immediately above them.
    inner_aux: u32,
    /// The payload width, cached so the Hamming geometry is fixed at
    /// construction.
    width: BusWidth,
    /// Number of Hamming check lines `r`.
    check_lines: u32,
    /// Cycle counter modulo `refresh`, advanced once per call.
    cycle: u64,
    /// How many single-line flips this half has corrected in-flight.
    /// Telemetry only: excluded from equality, hashing, and snapshots.
    corrected: u64,
}

impl<C: PartialEq> PartialEq for EccHardened<C> {
    fn eq(&self, other: &Self) -> bool {
        self.inner == other.inner
            && self.refresh == other.refresh
            && self.inner_aux == other.inner_aux
            && self.width == other.width
            && self.check_lines == other.check_lines
            && self.cycle == other.cycle
    }
}

impl<C: Eq> Eq for EccHardened<C> {}

impl<C: Hash> Hash for EccHardened<C> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.inner.hash(state);
        self.refresh.hash(state);
        self.inner_aux.hash(state);
        self.width.hash(state);
        self.check_lines.hash(state);
        self.cycle.hash(state);
    }
}

impl<C> EccHardened<C> {
    fn build(inner: C, width: BusWidth, refresh: u64, inner_aux: u32) -> Result<Self, CodecError> {
        if refresh == 0 {
            return Err(CodecError::InvalidParameter {
                name: "refresh",
                reason: "refresh interval must be at least 1 cycle".to_string(),
            });
        }
        let data_bits = width.bits() + inner_aux;
        let check_lines = ecc_check_bits(data_bits);
        let total_aux = u64::from(inner_aux) + u64::from(check_lines) + 1;
        if total_aux > 64 {
            return Err(CodecError::InvalidParameter {
                name: "inner_aux",
                reason: format!(
                    "SEC-DED lines must fit within 64 redundant lines, \
                     got {inner_aux} inner + {check_lines} check + 1 parity"
                ),
            });
        }
        Ok(EccHardened {
            inner,
            refresh,
            inner_aux,
            width,
            check_lines,
            cycle: 0,
            corrected: 0,
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

    /// Number of Hamming check lines `r` (excluding the overall-parity
    /// line and the inner code's own lines).
    pub fn check_line_count(&self) -> u32 {
        self.check_lines
    }

    /// How many single-line flips this half has corrected in-flight
    /// since construction. The counter survives [`Encoder::reset`] /
    /// [`Decoder::reset`] — it is telemetry about the channel, not codec
    /// state — and is excluded from equality, hashing, and snapshots.
    pub fn corrected_count(&self) -> u64 {
        self.corrected
    }

    /// The wrapped codec.
    pub fn inner(&self) -> &C {
        &self.inner
    }

    /// Mask selecting the inner code's redundant lines within `aux`.
    fn inner_aux_mask(&self) -> u64 {
        (1u64 << self.inner_aux) - 1
    }

    /// The number of protected data bits `n = w + k`.
    fn data_bits(&self) -> u32 {
        self.width.bits() + self.inner_aux
    }

    /// Advances the refresh schedule, returning whether this cycle is a
    /// refresh cycle.
    fn tick(&mut self) -> bool {
        let refresh_now = self.cycle == 0;
        self.cycle = (self.cycle + 1) % self.refresh;
        refresh_now
    }

    /// Packs payload and inner-aux lines into the protected data vector.
    fn data_word(&self, payload: u64, inner_aux_bits: u64) -> u128 {
        u128::from(payload) | (u128::from(inner_aux_bits) << self.width.bits())
    }
}

impl<E: Encoder> EccHardened<E> {
    /// Wraps an encoder, reading the redundant-line count off `inner`.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::InvalidParameter`] if `refresh` is zero or
    /// the SEC-DED lines would not fit in the 64 `aux` bits.
    pub fn encoder(inner: E, refresh: u64) -> Result<Self, CodecError> {
        let (width, inner_aux) = (inner.width(), inner.aux_line_count());
        EccHardened::build(inner, width, refresh, inner_aux)
    }
}

impl<D: Decoder> EccHardened<D> {
    /// Wraps a decoder with an explicit inner redundant-line count (the
    /// decoder trait does not expose it; pass the paired encoder's
    /// [`Encoder::aux_line_count`]).
    ///
    /// # Errors
    ///
    /// Same conditions as [`EccHardened::encoder`].
    pub fn with_aux_lines(inner: D, refresh: u64, inner_aux: u32) -> Result<Self, CodecError> {
        let width = inner.width();
        EccHardened::build(inner, width, refresh, inner_aux)
    }
}

impl<E: Encoder> Encoder for EccHardened<E> {
    fn name(&self) -> &'static str {
        "ecc-hardened"
    }

    fn width(&self) -> BusWidth {
        self.inner.width()
    }

    fn aux_line_count(&self) -> u32 {
        self.inner_aux + self.check_lines + 1
    }

    fn encode(&mut self, access: Access) -> BusState {
        if self.tick() {
            // Refresh: a reset inner encoder has no reference to freeze
            // against, so this cycle's word is plain and self-contained.
            self.inner.reset();
        }
        let word = self.inner.encode(access);
        let inner_aux_bits = word.aux & self.inner_aux_mask();
        let data = self.data_word(word.payload, inner_aux_bits);
        let checks = data_position_xor(data, self.data_bits());
        let overall = parity128(data) ^ parity128(u128::from(checks));
        let aux = inner_aux_bits
            | (checks << self.inner_aux)
            | (overall << (self.inner_aux + self.check_lines));
        BusState::new(word.payload, aux)
    }

    fn reset(&mut self) {
        self.inner.reset();
        self.cycle = 0;
    }
}

impl<D: Decoder> Decoder for EccHardened<D> {
    fn name(&self) -> &'static str {
        "ecc-hardened"
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
        let n = self.data_bits();
        let r = self.check_lines;
        let payload = word.payload & self.width.mask();
        let inner_aux_bits = word.aux & self.inner_aux_mask();
        let checks = (word.aux >> self.inner_aux) & ((1u64 << r) - 1);
        let parity_rx = (word.aux >> (self.inner_aux + r)) & 1;
        let mut data = self.data_word(payload, inner_aux_bits);
        // Syndrome: XOR of the positions of all flipped codeword lines.
        let syndrome = data_position_xor(data, n) ^ checks;
        let overall_odd = parity128(data) ^ parity128(u128::from(checks)) ^ parity_rx;
        match (syndrome, overall_odd) {
            (0, 0) => {} // clean word
            (0, 1) => {
                // The overall-parity line itself flipped; data is intact.
                self.corrected += 1;
            }
            (pos, 1) => {
                // A single flip at codeword position `pos`. A syndrome
                // beyond the codeword means at least three flips — out of
                // the correction radius, report it like a double.
                if pos > u64::from(n + r) {
                    return Err(CodecError::ProtocolViolation {
                        code: "ecc",
                        reason: "uncorrectable multi-line error detected",
                    });
                }
                if let Some(i) = data_index_of_position(pos, n) {
                    data ^= 1u128 << i;
                }
                // Flips at check positions leave the data intact.
                self.corrected += 1;
            }
            (_, 0) => {
                // Even flip count with a nonzero syndrome: a double
                // error. Detected, not correctable — leave the inner
                // state untouched and let the refresh bound the resync.
                return Err(CodecError::ProtocolViolation {
                    code: "ecc",
                    reason: "double-line error detected",
                });
            }
            // `overall_odd` is a single bit; the compiler cannot see that.
            _ => unreachable!("overall parity is 0 or 1"),
        }
        let corrected_payload = (data & u128::from(self.width.mask())) as u64;
        let corrected_aux =
            ((data >> self.width.bits()) & u128::from(self.inner_aux_mask())) as u64;
        self.inner
            .decode(BusState::new(corrected_payload, corrected_aux), kind)
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
        self.corrected
    }
}

impl CodeKind {
    /// The number of redundant lines [`EccHardened`] adds on top of this
    /// code's own: `r + 1` for the minimal `r` with `2^r >= w + k + r + 1`.
    ///
    /// # Errors
    ///
    /// Propagates parameter validation errors from the code's constructor.
    pub fn ecc_overhead_lines(self, params: CodeParams) -> Result<u32, CodecError> {
        let inner_aux = self.aux_line_count(params)?;
        Ok(ecc_check_bits(params.width.bits() + inner_aux) + 1)
    }

    /// Builds this code's encoder wrapped in [`EccHardened`] with the
    /// given refresh interval.
    ///
    /// # Errors
    ///
    /// Propagates constructor and wrapper validation errors.
    pub fn ecc_encoder(
        self,
        params: CodeParams,
        refresh: u64,
    ) -> Result<EccHardened<Box<dyn Encoder>>, CodecError> {
        EccHardened::encoder(self.encoder(params)?, refresh)
    }

    /// Builds the decoder paired with [`CodeKind::ecc_encoder`].
    ///
    /// # Errors
    ///
    /// Propagates constructor and wrapper validation errors.
    pub fn ecc_decoder(
        self,
        params: CodeParams,
        refresh: u64,
    ) -> Result<EccHardened<Box<dyn Decoder>>, CodecError> {
        let aux = self.aux_line_count(params)?;
        EccHardened::with_aux_lines(self.decoder(params)?, refresh, aux)
    }
}

// --- Snapshot support ------------------------------------------------------

use crate::snapshot::{Snapshot, StateImage};

impl<C: Snapshot> Snapshot for EccHardened<C> {
    /// The image is the inner codec's image with the refresh-cycle
    /// counter appended, under an `ecc-hardened:`-prefixed code name.
    /// The correction telemetry counter is not codec state and is not
    /// captured.
    fn snapshot(&self) -> StateImage {
        let inner = self.inner.snapshot();
        let mut words = inner.words().to_vec();
        words.push(self.cycle);
        StateImage::new(format!("ecc-hardened:{}", inner.code()), words)
    }

    fn restore(&mut self, image: &StateImage) -> Result<(), CodecError> {
        let Some(inner_code) = image.code().strip_prefix("ecc-hardened:") else {
            return Err(CodecError::SnapshotMismatch {
                code: "ecc-hardened",
                reason: "image is not an ecc-hardened snapshot",
            });
        };
        let Some((&cycle, inner_words)) = image.words().split_last() else {
            return Err(CodecError::SnapshotMismatch {
                code: "ecc-hardened",
                reason: "missing refresh-cycle counter",
            });
        };
        if cycle >= self.refresh {
            return Err(CodecError::SnapshotMismatch {
                code: "ecc-hardened",
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
    use crate::codes::{T0Decoder, T0Encoder};
    use crate::{BusWidth, Stride};

    fn t0_pair(refresh: u64) -> (EccHardened<T0Encoder>, EccHardened<T0Decoder>) {
        let (w, s) = (BusWidth::MIPS, Stride::WORD);
        (
            EccHardened::encoder(T0Encoder::new(w, s).unwrap(), refresh).unwrap(),
            EccHardened::with_aux_lines(T0Decoder::new(w, s).unwrap(), refresh, 1).unwrap(),
        )
    }

    #[test]
    fn refresh_zero_is_rejected() {
        let enc = T0Encoder::new(BusWidth::MIPS, Stride::WORD).unwrap();
        assert!(matches!(
            EccHardened::encoder(enc, 0),
            Err(CodecError::InvalidParameter {
                name: "refresh",
                ..
            })
        ));
    }

    #[test]
    fn check_bit_arithmetic_matches_the_textbook_points() {
        // (data bits, minimal r): the classic Hamming table.
        for (n, r) in [(1, 2), (4, 3), (11, 4), (26, 5), (57, 6)] {
            assert_eq!(ecc_check_bits(n), r, "n = {n}");
            // Minimality: r - 1 must not satisfy the inequality.
            assert!((1u64 << (r - 1)) < u64::from(n) + u64::from(r - 1) + 1);
        }
    }

    #[test]
    fn aux_layout_is_inner_then_checks_then_parity() {
        // 32-bit T0: n = 33 data bits, r = 6 (2^6 = 64 >= 33 + 6 + 1).
        let (enc, _) = t0_pair(8);
        assert_eq!(enc.check_line_count(), 6);
        assert_eq!(enc.aux_line_count(), 1 + 6 + 1);
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
        assert_eq!(dec.corrected_count(), 0);
    }

    #[test]
    fn every_single_flip_is_corrected_in_flight() {
        let (mut enc, mut dec) = t0_pair(16);
        let lines = 32 + enc.aux_line_count();
        for i in 0..64u64 {
            let addr = 0x400 + 4 * i;
            let word = enc.encode(Access::instruction(addr));
            let clean = dec.clone();
            for line in 0..lines {
                let mut corrupted = word;
                if line < 32 {
                    corrupted.payload ^= 1 << line;
                } else {
                    corrupted.aux ^= 1 << (line - 32);
                }
                let mut probe = clean.clone();
                assert_eq!(
                    probe.decode(corrupted, AccessKind::Instruction).unwrap(),
                    addr,
                    "cycle {i} line {line} not corrected"
                );
                assert_eq!(probe.corrected_count(), clean.corrected_count() + 1);
                // The probe lands in the exact clean post state.
                let mut reference = clean.clone();
                reference.decode(word, AccessKind::Instruction).unwrap();
                assert_eq!(probe, reference, "cycle {i} line {line} state drifted");
            }
            dec.decode(word, AccessKind::Instruction).unwrap();
        }
    }

    #[test]
    fn double_flips_are_detected_not_decoded() {
        let (mut enc, mut dec) = t0_pair(16);
        let lines = 32 + enc.aux_line_count();
        for i in 0..16u64 {
            let word = enc.encode(Access::instruction(0x400 + 4 * i));
            for a in 0..lines {
                for b in (a + 1)..lines {
                    let mut corrupted = word;
                    for line in [a, b] {
                        if line < 32 {
                            corrupted.payload ^= 1 << line;
                        } else {
                            corrupted.aux ^= 1 << (line - 32);
                        }
                    }
                    let mut probe = dec.clone();
                    assert!(
                        probe.decode(corrupted, AccessKind::Instruction).is_err(),
                        "cycle {i} lines {a},{b} slipped through SEC-DED"
                    );
                }
            }
            dec.decode(word, AccessKind::Instruction).unwrap();
        }
    }

    #[test]
    fn double_flip_errors_leave_inner_state_untouched_and_resync_bounded() {
        let refresh = 8u64;
        let (mut enc, mut dec) = t0_pair(refresh);
        let mut words: Vec<BusState> = (0..64u64)
            .map(|i| enc.encode(Access::instruction(0x100 + 4 * i)))
            .collect();
        let fault_cycle = 10usize;
        words[fault_cycle].payload ^= 0b101; // two payload lines
        for (i, word) in words.iter().enumerate() {
            let decoded = dec.decode(*word, AccessKind::Instruction);
            let expected = 0x100 + 4 * i as u64;
            if i == fault_cycle {
                assert!(decoded.is_err(), "double flip must be detected");
                continue;
            }
            let next_refresh = (fault_cycle as u64 / refresh + 1) * refresh;
            if (i as u64) >= next_refresh || i < fault_cycle {
                assert_eq!(decoded.unwrap(), expected, "cycle {i}");
            }
        }
    }

    #[test]
    fn ecc_error_class_is_transient() {
        let err = CodecError::ProtocolViolation {
            code: "ecc",
            reason: "double-line error detected",
        };
        assert_eq!(err.recovery_class(), crate::RecoveryClass::Transient);
    }

    #[test]
    fn equality_ignores_the_correction_counter() {
        let (mut enc, mut dec) = t0_pair(4);
        let word = enc.encode(Access::instruction(0x100));
        let mut faulted = dec.clone();
        let mut corrupted = word;
        corrupted.payload ^= 1;
        faulted.decode(corrupted, AccessKind::Instruction).unwrap();
        dec.decode(word, AccessKind::Instruction).unwrap();
        assert_eq!(faulted.corrected_count(), 1);
        assert_eq!(dec.corrected_count(), 0);
        assert_eq!(faulted, dec);
    }

    #[test]
    fn boxed_factories_build_every_code() {
        let params = CodeParams::default();
        for kind in CodeKind::all() {
            let mut enc = kind.ecc_encoder(params, 32).unwrap();
            let mut dec = kind.ecc_decoder(params, 32).unwrap();
            assert_eq!(
                enc.aux_line_count(),
                kind.aux_line_count(params).unwrap() + kind.ecc_overhead_lines(params).unwrap()
            );
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

    #[test]
    fn snapshot_round_trips() {
        use crate::snapshot::Snapshot;
        let params = CodeParams::default();
        let mut enc = CodeKind::T0.ecc_snapshot_encoder(params, 16).unwrap();
        for i in 0..5u64 {
            enc.encode(Access::instruction(0x100 + 4 * i));
        }
        let image = enc.snapshot();
        assert!(image.code().starts_with("ecc-hardened:"));
        let mut resumed = CodeKind::T0.ecc_snapshot_encoder(params, 16).unwrap();
        resumed.restore(&image).unwrap();
        assert_eq!(
            resumed.encode(Access::instruction(0x114)),
            enc.encode(Access::instruction(0x114)),
        );
        // Wrong prefix and out-of-domain cycle counters are rejected.
        let mut fresh = CodeKind::T0.ecc_snapshot_encoder(params, 16).unwrap();
        assert!(fresh
            .restore(&StateImage::new("hardened:t0", vec![0, 0]))
            .is_err());
        assert!(fresh
            .restore(&StateImage::new("ecc-hardened:t0", vec![1, 0x100, 99]))
            .is_err());
    }
}
