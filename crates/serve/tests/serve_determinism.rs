//! The service's determinism contract: batched results are **bitwise
//! identical** to the sequential `multiply_scheme` at the engine's
//! resolved cutoff — across worker counts {1, 2, 4, 8}, across shuffled
//! submission orders, and across the wire format. The backpressure
//! contract (a full queue rejects instead of growing) is pinned in
//! `engine.rs`'s unit tests, where no shard drains the queue before the
//! test lets it.

use fastmm_matrix::dense::Matrix;
use fastmm_matrix::recursive::multiply_scheme;
use fastmm_matrix::scheme::all_schemes;
use fastmm_serve::{decode_response, encode_request, EngineConfig, EngineHandle, Job};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A mixed-shape batch touching every registry scheme: exactly the
/// workload the size-bucketed arena exists for.
fn mixed_batch(rng: &mut StdRng) -> Vec<Job> {
    let schemes = all_schemes();
    let mut jobs = Vec::new();
    for (idx, scheme) in schemes.iter().enumerate() {
        let (bm, bk, bn) = scheme.dims();
        for (m, k, n) in [
            (8usize, 8usize, 8usize),
            (13, 7, 9),
            (4 * bm, 4 * bk, 4 * bn),
        ] {
            jobs.push(Job::new(
                idx,
                Matrix::<f64>::random(m, k, rng),
                Matrix::<f64>::random(k, n, rng),
            ));
        }
    }
    jobs
}

fn shuffled<T>(mut items: Vec<T>, rng: &mut StdRng) -> Vec<T> {
    for i in (1..items.len()).rev() {
        let j = rng.gen_range(0usize..=i);
        items.swap(i, j);
    }
    items
}

#[test]
fn batched_results_match_multiply_scheme_across_worker_counts() {
    let schemes = all_schemes();
    let mut rng = StdRng::seed_from_u64(0x5E21E);
    let jobs = mixed_batch(&mut rng);
    let mut golden_bits: Option<Vec<Vec<u64>>> = None;
    for workers in [1usize, 2, 4, 8] {
        let engine = EngineHandle::start(EngineConfig::new(workers).with_cutoff(8));
        let shuffled_jobs = shuffled(jobs.clone(), &mut rng);
        let expected: Vec<Matrix<f64>> = shuffled_jobs
            .iter()
            .map(|j| multiply_scheme(&schemes[j.scheme], &j.a, &j.b, engine.cutoff()))
            .collect();
        let results = engine.submit(shuffled_jobs).unwrap_ticket().wait_products();
        assert_eq!(results.len(), expected.len());
        for (i, (got, want)) in results.iter().zip(&expected).enumerate() {
            assert!(
                got.bits_eq(want),
                "workers={workers}, job {i}: batched result diverged from multiply_scheme"
            );
        }
        // The bit multiset is identical across worker counts too (order
        // differs because each pass shuffles independently).
        let mut bits: Vec<Vec<u64>> = results
            .iter()
            .map(|m| m.as_slice().iter().map(|x| x.to_bits()).collect())
            .collect();
        bits.sort();
        match &golden_bits {
            None => golden_bits = Some(bits),
            Some(g) => assert_eq!(g, &bits, "workers={workers}: cross-count divergence"),
        }
        engine.shutdown();
    }
}

#[test]
fn wire_round_trip_through_the_engine_is_bitwise() {
    // decode(encode(jobs)) -> submit -> encode_response -> decode:
    // the full service path preserves the sequential engine's bits.
    let schemes = all_schemes();
    let mut rng = StdRng::seed_from_u64(0x5E22E);
    let jobs: Vec<Job> = mixed_batch(&mut rng).into_iter().take(6).collect();
    let engine = EngineHandle::start(EngineConfig::new(2).with_cutoff(8));
    let wire = encode_request(&jobs, &schemes);
    let decoded = fastmm_serve::decode_request(&wire, engine.schemes()).expect("valid frame");
    let results = engine.submit(decoded).unwrap_ticket().wait_products();
    let response = fastmm_serve::encode_response(&results);
    let delivered = decode_response(&response).expect("valid response");
    for (i, job) in jobs.iter().enumerate() {
        let want = multiply_scheme(&schemes[job.scheme], &job.a, &job.b, engine.cutoff());
        assert!(
            delivered[i].bits_eq(&want),
            "job {i} diverged across the wire"
        );
    }
}

#[test]
fn empty_batch_completes_immediately() {
    let engine = EngineHandle::start(EngineConfig::new(2).with_cutoff(8));
    let results = engine.submit(Vec::new()).unwrap_ticket().wait_products();
    assert!(results.is_empty());
    assert_eq!(engine.queue_depth(), 0);
}
