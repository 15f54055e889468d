//! The supervision contract: a job that panics can never wedge a
//! ticket. Whoever runs the job (its shard, or the waiting caller for a
//! base-case job) retries it in place on a fresh arena, up to the
//! configured bound, and exhaustion surfaces as a typed
//! [`JobError::WorkerPanicked`] on that job's slot — every other job in
//! the batch still completes, bitwise identical to `multiply_scheme`.

use fastmm_matrix::dense::Matrix;
use fastmm_matrix::recursive::multiply_scheme;
use fastmm_matrix::scheme::all_schemes;
use fastmm_serve::{EngineConfig, EngineHandle, Job, JobError};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn job(rng: &mut StdRng, m: usize, k: usize, n: usize) -> Job {
    Job::new(
        0,
        Matrix::<f64>::random(m, k, rng),
        Matrix::<f64>::random(k, n, rng),
    )
}

/// The core wedge regression: with a single worker shard, an
/// unconditionally-panicking job used to kill the only worker thread and
/// leave every later job (and the ticket) hung forever. Under
/// supervision, the poisoned job resolves to `WorkerPanicked` and the
/// jobs queued behind it complete, on the same shard or on the waiting
/// caller.
#[test]
fn worker_panic_cannot_wedge_a_ticket() {
    let schemes = all_schemes();
    let mut rng = StdRng::seed_from_u64(0x5E24E);
    let engine = EngineHandle::start(EngineConfig::new(1).with_cutoff(8).with_max_job_retries(1));
    let poison = job(&mut rng, 16, 16, 16).with_injected_panics(u32::MAX);
    let healthy: Vec<Job> = (0..4).map(|_| job(&mut rng, 13, 7, 9)).collect();
    let expected: Vec<Matrix<f64>> = healthy
        .iter()
        .map(|j| multiply_scheme(&schemes[j.scheme], &j.a, &j.b, engine.cutoff()))
        .collect();
    let mut batch = vec![poison];
    batch.extend(healthy);
    let results = engine.submit(batch).unwrap_ticket().wait();
    assert_eq!(results.len(), 5);
    match &results[0] {
        Err(JobError::WorkerPanicked { attempts, payload }) => {
            assert_eq!(*attempts, 2, "initial attempt + 1 retry");
            assert!(
                payload.contains("injected worker panic"),
                "payload should carry the panic message, got: {payload}"
            );
        }
        other => panic!("poisoned job must surface WorkerPanicked, got {other:?}"),
    }
    for (i, (got, want)) in results[1..].iter().zip(&expected).enumerate() {
        let got = got.as_ref().expect("healthy job must complete");
        assert!(
            got.bits_eq(want),
            "job {i} diverged after shard respawn: supervision must not perturb bits"
        );
    }
    assert_eq!(engine.queue_depth(), 0, "all slots accounted for");
    engine.shutdown();
}

/// A job that panics fewer times than the retry budget succeeds on a
/// fresh arena, and its product is still bitwise identical to the
/// sequential engine — a fresh arena changes nothing about the bits.
#[test]
fn transient_panic_retries_to_success() {
    let schemes = all_schemes();
    let mut rng = StdRng::seed_from_u64(0x5E25E);
    let engine = EngineHandle::start(EngineConfig::new(2).with_cutoff(8).with_max_job_retries(2));
    let flaky = job(&mut rng, 24, 24, 24).with_injected_panics(2);
    let want = multiply_scheme(&schemes[flaky.scheme], &flaky.a, &flaky.b, engine.cutoff());
    let results = engine.submit(vec![flaky]).unwrap_ticket().wait();
    let got = results[0].as_ref().expect("2 panics within 2 retries");
    assert!(got.bits_eq(&want), "retried product must be bitwise exact");
    engine.shutdown();
}

/// One more panic than the retry budget exhausts it: the error reports
/// the true attempt count (initial + retries).
#[test]
fn retry_exhaustion_reports_attempt_count() {
    let mut rng = StdRng::seed_from_u64(0x5E26E);
    let engine = EngineHandle::start(EngineConfig::new(1).with_cutoff(8).with_max_job_retries(2));
    let doomed = job(&mut rng, 8, 8, 8).with_injected_panics(3);
    let results = engine.submit(vec![doomed]).unwrap_ticket().wait();
    match &results[0] {
        Err(JobError::WorkerPanicked { attempts, .. }) => assert_eq!(*attempts, 3),
        other => panic!("expected exhaustion, got {other:?}"),
    }
    engine.shutdown();
}

/// `recv_next` streams per-job resolutions: with a mixed batch, the
/// caller sees exactly one resolution per slot — failures included — and
/// then `None`.
#[test]
fn recv_next_resolves_every_slot_exactly_once() {
    let mut rng = StdRng::seed_from_u64(0x5E28E);
    let engine = EngineHandle::start(EngineConfig::new(2).with_cutoff(8).with_max_job_retries(0));
    let batch = vec![
        job(&mut rng, 8, 8, 8),
        job(&mut rng, 8, 8, 8).with_injected_panics(u32::MAX),
        job(&mut rng, 13, 7, 9),
    ];
    let mut ticket = engine.submit(batch).unwrap_ticket();
    let mut seen = [false; 3];
    while let Some((slot, _res)) = ticket.recv_next() {
        assert!(!seen[slot], "slot {slot} resolved twice");
        seen[slot] = true;
    }
    assert!(seen.iter().all(|&s| s), "every slot must resolve");
    engine.shutdown();
}

/// Graceful shutdown: dropping the handle after submitting still lets the
/// queued work drain — dropping closes the queue, and a shard only exits
/// once the closed queue is empty.
#[test]
fn shutdown_drains_queued_work() {
    let schemes = all_schemes();
    let mut rng = StdRng::seed_from_u64(0x5E29E);
    let engine = EngineHandle::start(EngineConfig::new(1).with_cutoff(8));
    let jobs: Vec<Job> = (0..6).map(|_| job(&mut rng, 16, 16, 16)).collect();
    let expected: Vec<Matrix<f64>> = jobs
        .iter()
        .map(|j| multiply_scheme(&schemes[j.scheme], &j.a, &j.b, engine.cutoff()))
        .collect();
    let ticket = engine.submit(jobs).unwrap_ticket();
    engine.shutdown(); // before the shard has necessarily started any job
    let results = ticket.wait_products();
    for (i, (got, want)) in results.iter().zip(&expected).enumerate() {
        assert!(got.bits_eq(want), "job {i} lost or corrupted by shutdown");
    }
}
