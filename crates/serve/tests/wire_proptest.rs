//! Wire-format totality: round-trips preserve bits for arbitrary
//! shapes/values, re-encoding a decoded request reproduces its bytes, and
//! **no** malformed frame — truncated at any byte, or corrupted at any
//! byte — can make the decoder panic. Run with `PROPTEST_CASES=512` for
//! the deep CI sweep.

use fastmm_matrix::dense::Matrix;
use fastmm_matrix::scheme::all_schemes;
use fastmm_serve::{decode_request, decode_response, encode_request, Job};
use proptest::prelude::*;

/// A canonical valid request frame for mutation tests.
fn valid_frame() -> Vec<u8> {
    let schemes = all_schemes();
    let jobs = vec![
        Job::new(
            0,
            Matrix::from_fn(3, 2, |i, j| (i * 2 + j) as f64 * 0.5),
            Matrix::from_fn(2, 4, |i, j| (i as f64) - (j as f64)),
        ),
        Job::new(
            1,
            Matrix::from_fn(2, 2, |i, j| (i + j) as f64),
            Matrix::from_fn(2, 1, |i, _| i as f64 + 0.25),
        ),
    ];
    encode_request(&jobs, &schemes)
}

/// Quiet and signalling NaN payloads, signed zeros and infinities, and a
/// subnormal: values the wire must carry bit for bit.
const SPECIAL_BITS: [u64; 7] = [
    0x7ff8_0000_dead_beef,
    0xfff0_0000_0000_0001,
    0x0000_0000_0000_0000,
    0x8000_0000_0000_0000,
    0x7ff0_0000_0000_0000,
    0xfff0_0000_0000_0000,
    0x0000_0000_0000_0001,
];

/// SplitMix64's output mix.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// An `m × n` matrix drawn from `seed`: about one entry in three is a
/// special value, the rest are arbitrary bit patterns.
fn drawn(m: usize, n: usize, seed: u64) -> Matrix<f64> {
    Matrix::from_fn(m, n, |i, j| {
        let h = mix(seed.wrapping_add(((i * n + j) as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)));
        let bits = if h.is_multiple_of(3) {
            SPECIAL_BITS[(h >> 32) as usize % SPECIAL_BITS.len()]
        } else {
            h
        };
        f64::from_bits(bits)
    })
}

#[test]
fn every_prefix_truncation_is_a_typed_error() {
    let schemes = all_schemes();
    let frame = valid_frame();
    for len in 0..frame.len() {
        let res = decode_request(&frame[..len], &schemes);
        assert!(res.is_err(), "prefix of {len} bytes decoded successfully");
    }
    assert!(decode_request(&frame, &schemes).is_ok());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn request_round_trip_preserves_bits(
        m in 1usize..6,
        k in 1usize..6,
        n in 1usize..6,
        scheme in 0usize..8,
        seed in proptest::collection::vec(proptest::prelude::any::<u64>(), 2),
    ) {
        let schemes = all_schemes();
        let scheme = scheme % schemes.len();
        // Arbitrary bit patterns — NaNs and infinities included — must
        // survive the wire bit-for-bit.
        let a = Matrix::from_fn(m, k, |i, j| {
            f64::from_bits(seed[0].wrapping_add(((i * k + j) as u64).wrapping_mul(0x9E3779B97F4A7C15)))
        });
        let b = Matrix::from_fn(k, n, |i, j| {
            f64::from_bits(seed[1].wrapping_add(((i * n + j) as u64).wrapping_mul(0xD1B54A32D192ED03)))
        });
        let jobs = vec![Job::new(scheme, a, b)];
        let wire = encode_request(&jobs, &schemes);
        let back = decode_request(&wire, &schemes).expect("valid frame");
        prop_assert_eq!(back.len(), 1);
        prop_assert_eq!(back[0].scheme, scheme);
        prop_assert!(back[0].a.bits_eq(&jobs[0].a));
        prop_assert!(back[0].b.bits_eq(&jobs[0].b));
    }

    #[test]
    fn reencoding_a_decoded_request_reproduces_its_bytes(
        shapes in proptest::collection::vec((0usize..8, 1usize..6, 1usize..6, 1usize..6), 0..6),
        seed in proptest::prelude::any::<u64>(),
    ) {
        let schemes = all_schemes();
        let jobs: Vec<Job> = shapes
            .iter()
            .enumerate()
            .map(|(t, &(scheme, m, k, n))| {
                let t = 2 * t as u64;
                Job::new(
                    scheme % schemes.len(),
                    drawn(m, k, mix(seed ^ t)),
                    drawn(k, n, mix(seed ^ (t + 1))),
                )
            })
            .collect();
        let wire = encode_request(&jobs, &schemes);
        let back = decode_request(&wire, &schemes).expect("valid frame");
        prop_assert_eq!(encode_request(&back, &schemes), wire);
    }

    #[test]
    fn corrupted_frames_never_panic(
        pos_seed in proptest::prelude::any::<u64>(),
        xor in 1u8..=255,
        trunc_seed in proptest::prelude::any::<u64>(),
    ) {
        let schemes = all_schemes();
        let mut frame = valid_frame();
        let pos = (pos_seed as usize) % frame.len();
        frame[pos] ^= xor;
        // decoding the corrupted frame must return, Ok or Err — any panic
        // fails the test by unwinding
        let _ = decode_request(&frame, &schemes);
        let _ = decode_response(&frame);
        // ... and the same for a random truncation of the corrupted frame
        let cut = (trunc_seed as usize) % (frame.len() + 1);
        let _ = decode_request(&frame[..cut], &schemes);
        let _ = decode_response(&frame[..cut]);
    }

    #[test]
    fn random_bytes_never_panic(
        bytes in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..200),
    ) {
        let schemes = all_schemes();
        let _ = decode_request(&bytes, &schemes);
        let _ = decode_response(&bytes);
    }
}
