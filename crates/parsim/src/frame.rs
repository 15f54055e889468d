//! The exchange frame and its recovery protocol, shared by both
//! distributed engines ([`caps`](mod@crate::caps) and [`exec`](crate::exec)).
//!
//! ## Frame format
//!
//! A payload of `L` words is viewed as a near-square grid and followed on
//! the wire by one XOR parity word per grid row and per grid column
//! (`encode_frame`). XOR over the `f64` *bit patterns* is exact — no
//! floating-point tolerance — so a receiver detects any single corrupted
//! word, locates it as the intersection of the one failing row and the one
//! failing column, and restores its original bits (`decode_frame`). The
//! overhead is `O(√L)` words. A corrected frame is bit-for-bit the
//! sender's, which is why recovered gathers stay bitwise identical to
//! `multiply_scheme`.
//!
//! ## Protocol
//!
//! Under [`Recovery::None`] a frame is the bare payload. Otherwise
//! [`send`] appends the parities and [`recv`] checks them: under
//! [`Recovery::Detect`] any mismatch aborts the run; under
//! [`Recovery::Abft`] a single corrupted word is corrected in place and
//! counted in [`RankStats::frames_corrected`](crate::RankStats).
//!
//! What [`recv`] does with an uncorrectable `Abft` frame depends on
//! whether the caller gave it a control tag. With one (the generic
//! engine's leader exchange), the receiver answers every frame with a
//! two-word control frame on that tag — ACK, or RETRY to re-request it —
//! and the sender, which kept the clean payload [`send`] handed back,
//! waits in [`await_ack`] and resends on RETRY (counted in
//! [`RankStats::frames_retried`](crate::RankStats)), up to
//! `MAX_FRAME_RETRIES` times, backing off `attempt − 1` units of virtual
//! time before each retry. Without one (CAPS, whose BFS shuffle is a
//! symmetric all-to-all where each side would block on the other's
//! acknowledgement), an uncorrectable frame aborts the run. Every abort
//! is an injected failure with `corruption-detected` provenance.

use crate::machine::Rank;

/// How the distributed engines defend message payloads against
/// corruption (see [`FaultPlan`](crate::FaultPlan)).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Recovery {
    /// No checksums: corrupted payloads flow through silently. The
    /// baseline the overhead of the other modes is measured against.
    #[default]
    None,
    /// XOR-parity checksums appended to every exchange frame, verify-only:
    /// *any* detected corruption aborts the run loudly (an injected
    /// failure with `corruption-detected` provenance) instead of
    /// producing a silently wrong product. No control traffic.
    Detect,
    /// Full ABFT recovery: a single corrupted word per frame is located
    /// and corrected bit-exactly at the receiver; uncorrectable frames
    /// are re-requested from the sender (at most three times, with
    /// deterministic virtual-time backoff) in the generic engine. The
    /// recovered gather stays bitwise identical to `multiply_scheme`.
    Abft,
}

/// Re-requests per frame under [`Recovery::Abft`] before the receiver
/// aborts the run.
const MAX_FRAME_RETRIES: u32 = 3;

/// ACK control word. Control frames carry their word twice, so a single
/// bit flip can never forge ACK ↔ RETRY: anything else aborts as detected
/// corruption rather than desynchronizing the protocol.
const CTL_ACK: f64 = 1.0;
/// RETRY control word (sent twice, like [`CTL_ACK`]).
const CTL_RETRY: f64 = 2.0;

/// Send `data` to `to` as one frame: checksummed unless `recovery` is
/// [`Recovery::None`]. Under [`Recovery::Abft`] the clean payload comes
/// back, for [`await_ack`] to resend from.
pub(crate) fn send(
    rank: &mut Rank,
    recovery: Recovery,
    to: usize,
    tag: u64,
    data: Vec<f64>,
) -> Option<Vec<f64>> {
    match recovery {
        Recovery::None => {
            rank.send(to, tag, data);
            None
        }
        Recovery::Detect => {
            rank.send(to, tag, encode_frame(&data));
            None
        }
        Recovery::Abft => {
            rank.send(to, tag, encode_frame(&data));
            Some(data)
        }
    }
}

/// Receive a `payload_len`-word frame from `from`, verified and corrected
/// per `recovery` (see the module docs). Under [`Recovery::Abft`] with a
/// `ctl_tag`, every frame is answered on it: ACK once the payload is
/// trusted, RETRY for an uncorrectable one.
pub(crate) fn recv(
    rank: &mut Rank,
    recovery: Recovery,
    from: usize,
    tag: u64,
    ctl_tag: Option<u64>,
    payload_len: usize,
) -> Vec<f64> {
    if recovery == Recovery::None {
        return rank.recv(from, tag);
    }
    let mut attempt = 1u32;
    loop {
        let mut frame = rank.recv(from, tag);
        let outcome = decode_frame(&mut frame, payload_len);
        if recovery == Recovery::Detect && outcome != FrameOutcome::Clean {
            rank.abort_corruption(format!(
                "corrupted frame tag {tag} from rank {from} ({outcome:?}) in verify-only mode"
            ));
        }
        if outcome.recovered() {
            if outcome != FrameOutcome::Clean {
                rank.note_frame_corrected();
            }
            if let (Recovery::Abft, Some(ctl)) = (recovery, ctl_tag) {
                rank.send(from, ctl, vec![CTL_ACK; 2]);
            }
            return frame;
        }
        let Some(ctl) = ctl_tag else {
            rank.abort_corruption(format!(
                "uncorrectable frame tag {tag} from rank {from} ({outcome:?}); \
                 the CAPS shuffle has no re-request path"
            ));
        };
        attempt += 1;
        if attempt > MAX_FRAME_RETRIES + 1 {
            rank.abort_corruption(format!(
                "frame tag {tag} from rank {from} still corrupt after {MAX_FRAME_RETRIES} retries"
            ));
        }
        rank.send(from, ctl, vec![CTL_RETRY; 2]);
        rank.sleep((attempt - 1) as f64);
    }
}

/// Sending side of a [`Recovery::Abft`] frame that was received with a
/// control tag: block for `to`'s answer on `ctl_tag`, resending `payload`
/// (the clean copy [`send`] handed back) as a fresh frame on `tag` for
/// every RETRY.
pub(crate) fn await_ack(rank: &mut Rank, to: usize, tag: u64, ctl_tag: u64, payload: &[f64]) {
    let mut attempt = 1u32;
    loop {
        let ctl = rank.recv(to, ctl_tag);
        let word = match ctl.as_slice() {
            [w, copy] if w.to_bits() == copy.to_bits() => Some(w.to_bits()),
            _ => None,
        };
        if word == Some(CTL_ACK.to_bits()) {
            return;
        }
        if word != Some(CTL_RETRY.to_bits()) {
            rank.abort_corruption(format!(
                "control frame corrupted beyond recognition ({} words)",
                ctl.len()
            ));
        }
        attempt += 1;
        if attempt > MAX_FRAME_RETRIES + 1 {
            rank.abort_corruption(format!(
                "frame tag {tag} to rank {to} still corrupt after {MAX_FRAME_RETRIES} retries"
            ));
        }
        rank.note_frame_retried();
        rank.sleep((attempt - 1) as f64);
        rank.send(to, tag, encode_frame(payload));
    }
}

/// Grid geometry `(rows, cols)` a payload of `len` words is checksummed
/// under: `cols = ⌈√len⌉`, `rows = ⌈len/cols⌉`. Empty payloads have no
/// grid (and no checksums).
fn frame_grid(len: usize) -> (usize, usize) {
    if len == 0 {
        return (0, 0);
    }
    let cols = (len as f64).sqrt().ceil() as usize;
    let cols = cols.max(1);
    (len.div_ceil(cols), cols)
}

/// Row and column XOR parities of `data` under [`frame_grid`], over the
/// `f64` bit patterns (exact — NaNs and signed zeros included).
fn frame_parities(data: &[f64]) -> (Vec<u64>, Vec<u64>) {
    let (rows, cols) = frame_grid(data.len());
    let mut row_xor = vec![0u64; rows];
    let mut col_xor = vec![0u64; cols];
    for (i, &w) in data.iter().enumerate() {
        let bits = w.to_bits();
        row_xor[i / cols] ^= bits;
        col_xor[i % cols] ^= bits;
    }
    (row_xor, col_xor)
}

/// `data` followed by its row/column XOR parities: the protected frame.
/// An empty payload is returned unchanged.
fn encode_frame(data: &[f64]) -> Vec<f64> {
    let (row_xor, col_xor) = frame_parities(data);
    let mut frame = Vec::with_capacity(data.len() + row_xor.len() + col_xor.len());
    frame.extend_from_slice(data);
    frame.extend(row_xor.iter().map(|&b| f64::from_bits(b)));
    frame.extend(col_xor.iter().map(|&b| f64::from_bits(b)));
    frame
}

/// What [`decode_frame`] found (and did) about a received frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum FrameOutcome {
    /// Every parity matched: the payload is bit-identical to what was sent.
    Clean,
    /// Exactly one payload word was corrupted; it was located at `index`
    /// and its original bits restored from the row parity.
    CorrectedWord {
        /// Flat index of the restored payload word.
        index: usize,
    },
    /// The payload is intact; a checksum word itself took the hit (one
    /// side of the parities disagrees, the other confirms the payload).
    CorrectedChecksum,
    /// More than one word is corrupt — not correctable from single
    /// parities. The payload must be re-requested or the run failed.
    Uncorrectable {
        /// Number of grid rows whose parity failed.
        bad_rows: usize,
        /// Number of grid columns whose parity failed.
        bad_cols: usize,
    },
}

impl FrameOutcome {
    /// Whether the payload is now trustworthy (everything but
    /// [`FrameOutcome::Uncorrectable`]).
    fn recovered(&self) -> bool {
        !matches!(self, FrameOutcome::Uncorrectable { .. })
    }
}

/// Verify (and where possible repair) a protected frame in place.
///
/// `frame` must be `payload_len` words plus the parities as produced by
/// [`encode_frame`] (asserted — the fault model flips bits, it never
/// changes lengths). On any outcome but [`FrameOutcome::Uncorrectable`]
/// the frame is truncated back to the bare `payload_len`-word payload,
/// whose bits are then exactly the sender's.
fn decode_frame(frame: &mut Vec<f64>, payload_len: usize) -> FrameOutcome {
    let (rows, cols) = frame_grid(payload_len);
    assert_eq!(
        frame.len(),
        payload_len + rows + cols,
        "protected frame has the wrong length"
    );
    if payload_len == 0 {
        return FrameOutcome::Clean;
    }
    let (got_rows, got_cols) = frame_parities(&frame[..payload_len]);
    let sent_rows: Vec<u64> = frame[payload_len..payload_len + rows]
        .iter()
        .map(|w| w.to_bits())
        .collect();
    let sent_cols: Vec<u64> = frame[payload_len + rows..]
        .iter()
        .map(|w| w.to_bits())
        .collect();
    let bad_rows: Vec<usize> = (0..rows).filter(|&i| got_rows[i] != sent_rows[i]).collect();
    let bad_cols: Vec<usize> = (0..cols).filter(|&j| got_cols[j] != sent_cols[j]).collect();
    let outcome = match (bad_rows.as_slice(), bad_cols.as_slice()) {
        ([], []) => FrameOutcome::Clean,
        (&[i], &[j]) => {
            // Single payload word: row and column parities must disagree
            // by the same delta, and their intersection must be a real
            // payload index (a row-checksum + column-checksum double hit
            // can fake a (1, 1) pattern with inconsistent deltas).
            let index = i * cols + j;
            let row_delta = got_rows[i] ^ sent_rows[i];
            let col_delta = got_cols[j] ^ sent_cols[j];
            if index < payload_len && row_delta == col_delta {
                let fixed = frame[index].to_bits() ^ row_delta;
                frame[index] = f64::from_bits(fixed);
                FrameOutcome::CorrectedWord { index }
            } else {
                FrameOutcome::Uncorrectable {
                    bad_rows: 1,
                    bad_cols: 1,
                }
            }
        }
        // One parity side disagrees while the other side fully confirms
        // the payload: the checksum word itself was hit.
        (&[_], []) | ([], &[_]) => FrameOutcome::CorrectedChecksum,
        (r, c) => FrameOutcome::Uncorrectable {
            bad_rows: r.len(),
            bad_cols: c.len(),
        },
    };
    if outcome.recovered() {
        frame.truncate(payload_len);
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_grid_covers_all_lengths() {
        for len in 0..200usize {
            let (rows, cols) = frame_grid(len);
            if len == 0 {
                assert_eq!((rows, cols), (0, 0));
            } else {
                assert!(rows * cols >= len, "len {len}: grid {rows}x{cols}");
                assert!((rows - 1) * cols < len, "len {len}: no empty last row");
            }
        }
    }

    #[test]
    fn clean_frame_round_trips_bitwise() {
        let data: Vec<f64> = (0..37)
            .map(|i| f64::from_bits(0x9E3779B97F4A7C15u64.wrapping_mul(i as u64 + 1)))
            .collect();
        let mut frame = encode_frame(&data);
        let (rows, cols) = frame_grid(data.len());
        assert_eq!(frame.len(), data.len() + rows + cols);
        assert_eq!(decode_frame(&mut frame, data.len()), FrameOutcome::Clean);
        assert_eq!(frame.len(), data.len());
        for (a, b) in frame.iter().zip(&data) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn every_single_word_flip_is_located_and_restored_exactly() {
        // Flip one bit of every payload position in turn (several bit
        // positions including sign, exponent, and mantissa); decode must
        // name the exact index and restore the exact bits.
        let data: Vec<f64> = (0..29).map(|i| (i as f64) * 0.37 - 5.0).collect();
        let clean = encode_frame(&data);
        for word in 0..data.len() {
            for bit in [0u32, 23, 51, 52, 62, 63] {
                let mut frame = clean.clone();
                frame[word] = f64::from_bits(frame[word].to_bits() ^ (1u64 << bit));
                let out = decode_frame(&mut frame, data.len());
                assert_eq!(
                    out,
                    FrameOutcome::CorrectedWord { index: word },
                    "word {word} bit {bit}"
                );
                for (a, b) in frame.iter().zip(&data) {
                    assert_eq!(a.to_bits(), b.to_bits(), "word {word} bit {bit}");
                }
            }
        }
    }

    #[test]
    fn checksum_word_flip_leaves_payload_trusted() {
        let data: Vec<f64> = (0..16).map(|i| i as f64).collect();
        let clean = encode_frame(&data);
        for word in data.len()..clean.len() {
            let mut frame = clean.clone();
            frame[word] = f64::from_bits(frame[word].to_bits() ^ (1u64 << 40));
            let out = decode_frame(&mut frame, data.len());
            assert_eq!(out, FrameOutcome::CorrectedChecksum, "checksum word {word}");
            for (a, b) in frame.iter().zip(&data) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn double_corruption_is_refused_not_mispatched() {
        let data: Vec<f64> = (0..25).map(|i| i as f64 * 1.5).collect();
        let (_, cols) = frame_grid(data.len());
        // two words in the same grid row
        let mut frame = encode_frame(&data);
        frame[0] = f64::from_bits(frame[0].to_bits() ^ 1);
        frame[1] = f64::from_bits(frame[1].to_bits() ^ 1);
        assert!(!decode_frame(&mut frame, data.len()).recovered());
        // two words in different rows and columns
        let mut frame = encode_frame(&data);
        frame[0] = f64::from_bits(frame[0].to_bits() ^ 1);
        frame[cols + 1] = f64::from_bits(frame[cols + 1].to_bits() ^ 1);
        assert!(!decode_frame(&mut frame, data.len()).recovered());
    }

    #[test]
    fn zero_word_frame_is_a_no_op() {
        let mut frame = encode_frame(&[]);
        assert!(frame.is_empty());
        assert_eq!(decode_frame(&mut frame, 0), FrameOutcome::Clean);
    }
}
