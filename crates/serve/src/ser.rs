//! The length-prefixed binary wire format for batched multiply requests
//! and responses.
//!
//! ## Frame layout (all integers little-endian)
//!
//! ```text
//! magic    4 bytes   b"FMMS"
//! version  u16       WIRE_VERSION
//! kind     u16       1 = request, 2 = response
//! length   u32       payload byte count (must equal the remaining bytes)
//! payload  length bytes
//! ```
//!
//! Request payload: `u32` job count, then per job a scheme name
//! (`u16` length + UTF-8 bytes), dimensions `M, K, N` as `u32`, and the
//! two operands as row-major `f64` bit patterns (`M·K` then `K·N`
//! values). Response payload: `u32` result count, then per result `M, N`
//! as `u32` and `M·N` row-major `f64` bit patterns. Floats cross the wire
//! as IEEE-754 bits (`to_bits`/`from_bits`), so the service's bitwise
//! determinism contract survives serialization exactly.
//!
//! ## One pass each way
//!
//! An encoder first sums the frame's exact byte length, then writes the
//! header and every field in place into one buffer of that capacity: one
//! heap allocation per frame, and each matrix's bits written in one bulk
//! pass. `tests/encode_alloc.rs` pins the single allocation, and the unit
//! tests pin every byte against a value-by-value reference encoder. A
//! decoder copies each payload byte once, from the frame into the matrix
//! it belongs to.
//!
//! ## Checked deserialization
//!
//! Decoding is total: every malformed frame — truncation at any byte,
//! bad magic, unsupported version, wrong kind, length mismatch, trailing
//! bytes, non-UTF-8 scheme names, unknown schemes — returns a typed
//! [`WireError`], never panics. Payload sizes are validated against the
//! actual byte count **before** any allocation, so a hostile header
//! cannot cause an oversized allocation. Zero-dimension operands are
//! rejected here, at the boundary ([`WireError::ZeroDimension`]), so a
//! degenerate job can never reach a worker shard.

use fastmm_matrix::dense::Matrix;
use fastmm_matrix::scheme::BilinearScheme;

use crate::engine::Job;

/// Frame magic: `b"FMMS"`.
pub const MAGIC: [u8; 4] = *b"FMMS";

/// Current wire version; bumped on any layout change.
pub const WIRE_VERSION: u16 = 1;

/// Fixed header size: magic + version + kind + payload length.
pub const HEADER_LEN: usize = 12;

/// Frame discriminator carried in the header.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameKind {
    /// A batch of multiply jobs.
    Request,
    /// A batch of products.
    Response,
}

impl FrameKind {
    fn code(self) -> u16 {
        match self {
            FrameKind::Request => 1,
            FrameKind::Response => 2,
        }
    }
}

/// Typed decode failure; every malformed frame maps to one of these.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The frame ends before a required field: `needed` more bytes than
    /// `have` remained.
    Truncated {
        /// Bytes the next field required.
        needed: usize,
        /// Bytes actually remaining.
        have: usize,
    },
    /// The first four bytes are not [`MAGIC`].
    BadMagic([u8; 4]),
    /// A version this decoder does not speak.
    UnsupportedVersion(u16),
    /// An unknown frame kind code, or a kind other than the one the
    /// decoder was asked for.
    BadKind(u16),
    /// The header's payload length disagrees with the bytes present.
    LengthMismatch {
        /// Payload bytes the header declared.
        declared: usize,
        /// Payload bytes actually present.
        have: usize,
    },
    /// Well-formed payload followed by extra bytes.
    TrailingBytes {
        /// Count of bytes past the payload's end.
        extra: usize,
    },
    /// A scheme name that is not valid UTF-8.
    BadUtf8,
    /// A scheme name absent from the engine's scheme table.
    UnknownScheme(String),
    /// A job with a zero dimension — rejected at the boundary so it can
    /// never reach a worker (the in-process contract defines these, but
    /// the service does not accept them).
    ZeroDimension {
        /// Job index within the request.
        job: usize,
        /// Declared dimensions.
        m: usize,
        /// Inner dimension.
        k: usize,
        /// Output columns.
        n: usize,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated { needed, have } => {
                write!(f, "truncated frame: needed {needed} bytes, have {have}")
            }
            WireError::BadMagic(m) => write!(f, "bad magic {m:?}"),
            WireError::UnsupportedVersion(v) => write!(f, "unsupported wire version {v}"),
            WireError::BadKind(k) => write!(f, "bad frame kind {k}"),
            WireError::LengthMismatch { declared, have } => {
                write!(
                    f,
                    "length mismatch: header declares {declared}, have {have}"
                )
            }
            WireError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after payload")
            }
            WireError::BadUtf8 => write!(f, "scheme name is not UTF-8"),
            WireError::UnknownScheme(name) => write!(f, "unknown scheme {name:?}"),
            WireError::ZeroDimension { job, m, k, n } => {
                write!(f, "job {job}: zero-dimension operands {m}x{k}x{n} rejected")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// Bounds-checked cursor over a frame's bytes.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn bytes(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated {
                needed: n,
                have: self.remaining(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.bytes(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.bytes(4)?.try_into().unwrap()))
    }

    /// `count` f64 values as IEEE bits. The size check happens here,
    /// against the actual remaining bytes, before the allocation.
    fn f64s(&mut self, count: usize) -> Result<Vec<f64>, WireError> {
        let need = count.checked_mul(8).ok_or(WireError::Truncated {
            needed: usize::MAX,
            have: self.remaining(),
        })?;
        let raw = self.bytes(need)?;
        Ok(raw
            .chunks_exact(8)
            .map(|c| f64::from_bits(u64::from_le_bytes(c.try_into().unwrap())))
            .collect())
    }
}

fn push_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append `vals` as little-endian IEEE bits in one bulk pass over a
/// slot of the buffer's reserved capacity.
fn push_f64s(out: &mut Vec<u8>, vals: &[f64]) {
    let start = out.len();
    out.resize(start + 8 * vals.len(), 0);
    for (dst, v) in out[start..].chunks_exact_mut(8).zip(vals) {
        dst.copy_from_slice(&v.to_bits().to_le_bytes());
    }
}

/// A buffer of exactly `HEADER_LEN + payload_len` bytes' capacity,
/// holding the versioned header that declares `payload_len`.
fn header(kind: FrameKind, payload_len: usize) -> Vec<u8> {
    let declared = u32::try_from(payload_len).expect("payload over 4 GiB");
    let mut out = Vec::with_capacity(HEADER_LEN + payload_len);
    out.extend_from_slice(&MAGIC);
    push_u16(&mut out, WIRE_VERSION);
    push_u16(&mut out, kind.code());
    push_u32(&mut out, declared);
    out
}

/// Validate the header and return a cursor over the payload.
fn open_frame(bytes: &[u8], want: FrameKind) -> Result<Cursor<'_>, WireError> {
    let mut cur = Cursor::new(bytes);
    let magic = cur.bytes(4)?;
    if magic != MAGIC {
        return Err(WireError::BadMagic(magic.try_into().unwrap()));
    }
    let version = cur.u16()?;
    if version != WIRE_VERSION {
        return Err(WireError::UnsupportedVersion(version));
    }
    let kind = cur.u16()?;
    if kind != FrameKind::Request.code() && kind != FrameKind::Response.code() {
        return Err(WireError::BadKind(kind));
    }
    if kind != want.code() {
        return Err(WireError::BadKind(kind));
    }
    let declared = cur.u32()? as usize;
    if declared != cur.remaining() {
        return Err(WireError::LengthMismatch {
            declared,
            have: cur.remaining(),
        });
    }
    Ok(cur)
}

/// Encode a batch request. Each job's scheme index is rendered through
/// `schemes` (the engine table the receiver will resolve against).
pub fn encode_request(jobs: &[Job], schemes: &[BilinearScheme]) -> Vec<u8> {
    let name = |job: &Job| schemes[job.scheme].name.as_bytes();
    // Job count, then per job: name length and bytes, M K N, operands.
    let job_len = |job: &Job| {
        let values = job.a.as_slice().len() + job.b.as_slice().len();
        2 + name(job).len() + 12 + 8 * values
    };
    let payload_len = 4 + jobs.iter().map(job_len).sum::<usize>();
    let mut out = header(FrameKind::Request, payload_len);
    push_u32(
        &mut out,
        u32::try_from(jobs.len()).expect("batch too large"),
    );
    for job in jobs {
        let name = name(job);
        push_u16(&mut out, u16::try_from(name.len()).expect("name too long"));
        out.extend_from_slice(name);
        push_u32(&mut out, job.a.rows() as u32);
        push_u32(&mut out, job.a.cols() as u32);
        push_u32(&mut out, job.b.cols() as u32);
        push_f64s(&mut out, job.a.as_slice());
        push_f64s(&mut out, job.b.as_slice());
    }
    debug_assert_eq!(out.len(), HEADER_LEN + payload_len);
    out
}

/// Decode a batch request against an engine scheme table, resolving
/// scheme names to table indices. Total: malformed input returns a typed
/// [`WireError`], never panics, and performs no oversized allocation.
pub fn decode_request(bytes: &[u8], schemes: &[BilinearScheme]) -> Result<Vec<Job>, WireError> {
    let mut cur = open_frame(bytes, FrameKind::Request)?;
    let count = cur.u32()? as usize;
    let mut jobs = Vec::new();
    for job_idx in 0..count {
        let name_len = cur.u16()? as usize;
        let name = std::str::from_utf8(cur.bytes(name_len)?).map_err(|_| WireError::BadUtf8)?;
        let scheme = schemes
            .iter()
            .position(|s| s.name == name)
            .ok_or_else(|| WireError::UnknownScheme(name.to_string()))?;
        let m = cur.u32()? as usize;
        let k = cur.u32()? as usize;
        let n = cur.u32()? as usize;
        if m == 0 || k == 0 || n == 0 {
            return Err(WireError::ZeroDimension {
                job: job_idx,
                m,
                k,
                n,
            });
        }
        let a = cur.f64s(m * k)?;
        let b = cur.f64s(k * n)?;
        jobs.push(Job::new(
            scheme,
            Matrix::from_vec(m, k, a),
            Matrix::from_vec(k, n, b),
        ));
    }
    if cur.remaining() != 0 {
        return Err(WireError::TrailingBytes {
            extra: cur.remaining(),
        });
    }
    Ok(jobs)
}

/// Encode a batch response (products in submission order).
pub fn encode_response(results: &[Matrix<f64>]) -> Vec<u8> {
    // Result count, then per result: M N, values.
    let payload_len = 4 + results
        .iter()
        .map(|c| 8 + 8 * c.as_slice().len())
        .sum::<usize>();
    let mut out = header(FrameKind::Response, payload_len);
    push_u32(
        &mut out,
        u32::try_from(results.len()).expect("batch too large"),
    );
    for c in results {
        push_u32(&mut out, c.rows() as u32);
        push_u32(&mut out, c.cols() as u32);
        push_f64s(&mut out, c.as_slice());
    }
    debug_assert_eq!(out.len(), HEADER_LEN + payload_len);
    out
}

/// Decode a batch response. Total, like [`decode_request`]. Empty
/// (`M × 0` / `0 × N`) results are legal here — a response mirrors
/// whatever the engine produced — but `M·N` is still validated against
/// the bytes present before allocation.
pub fn decode_response(bytes: &[u8]) -> Result<Vec<Matrix<f64>>, WireError> {
    let mut cur = open_frame(bytes, FrameKind::Response)?;
    let count = cur.u32()? as usize;
    let mut out = Vec::new();
    for _ in 0..count {
        let m = cur.u32()? as usize;
        let n = cur.u32()? as usize;
        let data = cur.f64s(m.saturating_mul(n))?;
        out.push(Matrix::from_vec(m, n, data));
    }
    if cur.remaining() != 0 {
        return Err(WireError::TrailingBytes {
            extra: cur.remaining(),
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastmm_matrix::scheme::all_schemes;

    /// Reference framing: the header, then a copy of a payload built
    /// separately. With the per-value pushes below it is the oracle the
    /// one-pass encoders must match byte for byte.
    fn frame(kind: FrameKind, payload: Vec<u8>) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
        out.extend_from_slice(&MAGIC);
        push_u16(&mut out, WIRE_VERSION);
        push_u16(&mut out, kind.code());
        push_u32(
            &mut out,
            u32::try_from(payload.len()).expect("payload over 4 GiB"),
        );
        out.extend_from_slice(&payload);
        out
    }

    fn push_each_f64(out: &mut Vec<u8>, vals: &[f64]) {
        for v in vals {
            out.extend_from_slice(&v.to_bits().to_le_bytes());
        }
    }

    fn reference_request(jobs: &[Job], schemes: &[BilinearScheme]) -> Vec<u8> {
        let mut payload = Vec::new();
        push_u32(&mut payload, jobs.len() as u32);
        for job in jobs {
            let name = schemes[job.scheme].name.as_bytes();
            push_u16(&mut payload, name.len() as u16);
            payload.extend_from_slice(name);
            push_u32(&mut payload, job.a.rows() as u32);
            push_u32(&mut payload, job.a.cols() as u32);
            push_u32(&mut payload, job.b.cols() as u32);
            push_each_f64(&mut payload, job.a.as_slice());
            push_each_f64(&mut payload, job.b.as_slice());
        }
        frame(FrameKind::Request, payload)
    }

    fn reference_response(results: &[Matrix<f64>]) -> Vec<u8> {
        let mut payload = Vec::new();
        push_u32(&mut payload, results.len() as u32);
        for c in results {
            push_u32(&mut payload, c.rows() as u32);
            push_u32(&mut payload, c.cols() as u32);
            push_each_f64(&mut payload, c.as_slice());
        }
        frame(FrameKind::Response, payload)
    }

    /// Quiet and signalling NaN payloads, signed zeros and infinities, a
    /// subnormal, and ordinary values.
    const SPECIAL_BITS: [u64; 9] = [
        0x7ff8_0000_dead_beef,
        0xfff0_0000_0000_0001,
        0x0000_0000_0000_0000,
        0x8000_0000_0000_0000,
        0x7ff0_0000_0000_0000,
        0xfff0_0000_0000_0000,
        0x0000_0000_0000_0001,
        0x3ff8_0000_0000_0000,
        0xc009_21fb_5444_2d18,
    ];

    fn special(m: usize, n: usize, offset: usize) -> Matrix<f64> {
        Matrix::from_fn(m, n, |i, j| {
            f64::from_bits(SPECIAL_BITS[(offset + i * n + j) % SPECIAL_BITS.len()])
        })
    }

    #[test]
    fn one_pass_encoders_emit_the_reference_bytes() {
        let schemes = all_schemes();
        let jobs: Vec<Job> = (0..schemes.len())
            .map(|s| {
                Job::new(
                    s,
                    special(1 + s % 3, 2 + s % 4, s),
                    special(2 + s % 4, 3, 2 * s),
                )
            })
            .collect();
        assert_eq!(
            encode_request(&jobs, &schemes),
            reference_request(&jobs, &schemes)
        );
        assert_eq!(
            encode_request(&[], &schemes),
            reference_request(&[], &schemes)
        );

        let products = [
            special(3, 3, 0),
            special(4, 0, 0),
            special(0, 5, 0),
            special(1, 9, 4),
        ];
        assert_eq!(encode_response(&products), reference_response(&products));
        assert_eq!(encode_response(&[]), reference_response(&[]));
    }

    fn sample_jobs(schemes: &[BilinearScheme]) -> Vec<Job> {
        let strassen = schemes.iter().position(|s| s.name == "strassen").unwrap();
        vec![
            Job::new(
                strassen,
                Matrix::from_fn(3, 4, |i, j| (i * 4 + j) as f64 + 0.5),
                Matrix::from_fn(4, 2, |i, j| (i as f64) - (j as f64) * 0.25),
            ),
            Job::new(
                0,
                Matrix::from_fn(2, 2, |i, j| (i + j) as f64),
                Matrix::from_fn(2, 2, |i, j| (i * j) as f64 - 1.0),
            ),
        ]
    }

    #[test]
    fn request_round_trip_preserves_bits() {
        let schemes = all_schemes();
        let jobs = sample_jobs(&schemes);
        let wire = encode_request(&jobs, &schemes);
        let back = decode_request(&wire, &schemes).expect("round trip");
        assert_eq!(back.len(), jobs.len());
        for (orig, got) in jobs.iter().zip(&back) {
            assert_eq!(orig.scheme, got.scheme);
            assert!(orig.a.bits_eq(&got.a) && orig.b.bits_eq(&got.b));
        }
    }

    #[test]
    fn response_round_trip_preserves_bits() {
        let results = vec![
            Matrix::from_fn(3, 2, |i, j| (i * 2 + j) as f64 * 0.125 - 1.0),
            Matrix::from_fn(1, 1, |_, _| f64::MIN_POSITIVE),
        ];
        let wire = encode_response(&results);
        let back = decode_response(&wire).expect("round trip");
        assert_eq!(back.len(), 2);
        for (orig, got) in results.iter().zip(&back) {
            assert!(orig.bits_eq(got));
        }
    }

    #[test]
    fn zero_dimension_jobs_are_rejected_at_the_boundary() {
        let schemes = all_schemes();
        // Hand-build a frame declaring a 0x4 * 4x2 job.
        let mut payload = Vec::new();
        push_u32(&mut payload, 1);
        let name = schemes[0].name.as_bytes();
        push_u16(&mut payload, name.len() as u16);
        payload.extend_from_slice(name);
        push_u32(&mut payload, 0); // m = 0
        push_u32(&mut payload, 4);
        push_u32(&mut payload, 2);
        push_f64s(&mut payload, &[1.0; 8]); // k*n = 8 operand words
        let wire = frame(FrameKind::Request, payload);
        match decode_request(&wire, &schemes) {
            Err(WireError::ZeroDimension {
                job: 0,
                m: 0,
                k: 4,
                n: 2,
            }) => {}
            other => panic!("expected ZeroDimension, got {other:?}"),
        }
    }

    #[test]
    fn header_errors_are_typed() {
        let schemes = all_schemes();
        let wire = encode_request(&sample_jobs(&schemes), &schemes);

        let mut bad = wire.clone();
        bad[0] = b'X';
        assert!(matches!(
            decode_request(&bad, &schemes),
            Err(WireError::BadMagic(_))
        ));

        let mut bad = wire.clone();
        bad[4] = 99; // version
        assert!(matches!(
            decode_request(&bad, &schemes),
            Err(WireError::UnsupportedVersion(99))
        ));

        let mut bad = wire.clone();
        bad[6] = 7; // kind
        assert!(matches!(
            decode_request(&bad, &schemes),
            Err(WireError::BadKind(7))
        ));

        // a response frame fed to the request decoder
        let resp = encode_response(&[Matrix::zeros(1, 1)]);
        assert!(matches!(
            decode_request(&resp, &schemes),
            Err(WireError::BadKind(2))
        ));

        let mut bad = wire.clone();
        bad.push(0);
        assert!(matches!(
            decode_request(&bad, &schemes),
            Err(WireError::LengthMismatch { .. })
        ));

        // oversized declared length must not allocate: claim a huge job
        // count in an otherwise tiny frame
        let mut payload = Vec::new();
        push_u32(&mut payload, u32::MAX);
        let tiny = frame(FrameKind::Request, payload);
        assert!(matches!(
            decode_request(&tiny, &schemes),
            Err(WireError::Truncated { .. })
        ));
    }

    #[test]
    fn unknown_scheme_is_named() {
        let schemes = all_schemes();
        let mut payload = Vec::new();
        push_u32(&mut payload, 1);
        push_u16(&mut payload, 7);
        payload.extend_from_slice(b"noscheme"[..7].as_ref());
        let wire = frame(FrameKind::Request, payload);
        match decode_request(&wire, &schemes) {
            Err(WireError::UnknownScheme(name)) => assert_eq!(name, "noschem"),
            other => panic!("expected UnknownScheme, got {other:?}"),
        }
    }
}
