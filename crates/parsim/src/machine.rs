//! The distributed-memory machine of the paper's Section 1.1, simulated.
//!
//! `p` ranks run an SPMD closure. A message of `n` words costs `α + βn` on
//! both endpoints (blocking). Each rank advances a private virtual clock; a
//! receive completes at `max(receiver clock, sender clock at send start) +
//! α + βn`, so the maximum final clock is the critical-path time in the
//! α-β model. Words and messages are also counted per rank, giving the
//! *bandwidth cost* and *latency cost* along the critical path that
//! Corollaries 1.2/1.4 bound.
//!
//! Sends are buffered (they never block), which keeps shift/exchange
//! patterns deadlock-free while preserving the α-β accounting.
//!
//! One runtime executes the ranks (the crate's `event` module): a
//! cooperative scheduler in which ranks yield only when a receive blocks,
//! the ready rank with the least ready time runs next, and
//! per-destination inboxes are materialized lazily, so state is
//! `O(p + in-flight messages)`. Thousands of simulated ranks (p = 2401 and
//! beyond) execute in seconds, deterministically, and a cycle of ranks all
//! blocked on each other is *detected* and reported as a [`RankFailed`]
//! deadlock instead of hanging the process.
//!
//! The virtual clocks are computed algebraically from the send/receive
//! pairing, so the *real* execution order never affects them: any order
//! of granting ready ranks produces identical outputs, counters and
//! clocks, and the same failure report unless two ranks fail on their own
//! (then the order decides whether the second still reaches its own
//! failure or first dies observing the other). The crate's
//! schedule-independence suite checks this under seeded grant orders.
//!
//! One cost rule prices every operation, the same on every rank and
//! link: `α + β·len` at both ends of a message and `γ·flops` per compute.
//! Assumption (2) of the paper's model — no communication/computation
//! overlap — is `overlap = 0`, the default (the paper notes dropping it
//! changes runtimes by at most 2×); [`MachineConfig::with_overlap`] banks
//! that fraction of each compute interval as credit that hides later
//! communication cost on the same rank. [`MachineConfig::with_fault_plan`]
//! attaches a deterministic [`FaultPlan`] of injected rank crashes and
//! frame corruptions, enforced inside the [`Rank`] facade from per-rank
//! counters alone.

use std::sync::Arc;

use crate::event::EventEndpoint;
use crate::fault::{FaultPlan, InjectedCrash, InjectedFault, InjectedKind, RankFaults};

/// Cost model and size of the machine.
///
/// Cheap to clone: the fault plan is behind an [`Arc`].
#[derive(Clone, Debug)]
pub struct MachineConfig {
    /// Number of processors.
    pub p: usize,
    /// Per-message latency (seconds per message).
    pub alpha: f64,
    /// Inverse bandwidth (seconds per word).
    pub beta: f64,
    /// Per-flop compute cost (set 0 to measure pure communication).
    pub gamma: f64,
    /// Communication/computation overlap factor in `[0, 1]`: this fraction
    /// of every compute interval is banked as credit that hides later
    /// communication time on the same rank. `0` (default) is the paper's
    /// non-overlapping model; `1` hides communication behind all prior
    /// compute.
    pub overlap: f64,
    /// Deterministic fault schedule; `None` injects nothing.
    pub faults: Option<Arc<FaultPlan>>,
}

impl MachineConfig {
    /// A machine with `p` processors and a conventional cost ratio.
    pub fn new(p: usize) -> Self {
        MachineConfig {
            p,
            alpha: 1.0,
            beta: 0.01,
            gamma: 0.0,
            overlap: 0.0,
            faults: None,
        }
    }

    /// Replace the per-message latency `α`.
    pub fn with_alpha(mut self, alpha: f64) -> Self {
        self.alpha = alpha;
        self
    }

    /// Replace the inverse bandwidth `β`.
    pub fn with_beta(mut self, beta: f64) -> Self {
        self.beta = beta;
        self
    }

    /// Replace the per-flop cost `γ`.
    pub fn with_gamma(mut self, gamma: f64) -> Self {
        self.gamma = gamma;
        self
    }

    /// Set the communication/computation overlap factor (must be in
    /// `[0, 1]`).
    pub fn with_overlap(mut self, overlap: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&overlap),
            "overlap factor {overlap} outside [0, 1]"
        );
        self.overlap = overlap;
        self
    }

    /// Attach a deterministic [`FaultPlan`]. An empty plan is equivalent
    /// to `None`.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.faults = if plan.is_empty() {
            None
        } else {
            Some(Arc::new(plan))
        };
        self
    }
}

/// Per-rank counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct RankStats {
    /// Words sent.
    pub words_sent: u64,
    /// Words received.
    pub words_received: u64,
    /// Messages sent.
    pub msgs_sent: u64,
    /// Messages received.
    pub msgs_received: u64,
    /// Flops executed.
    pub flops: u64,
    /// Final virtual clock (α-β(-γ) time).
    pub clock: f64,
    /// Peak tracked memory (words).
    pub mem_high_water: usize,
    /// Corrupted frames this rank detected and corrected locally via
    /// checksum recovery (ABFT).
    pub frames_corrected: u64,
    /// Frames this rank had re-sent after an uncorrectable corruption
    /// (bounded-retry recovery).
    pub frames_retried: u64,
}

pub(crate) struct Msg {
    pub(crate) tag: u64,
    pub(crate) data: Vec<f64>,
    /// Sender's clock when the send started.
    pub(crate) sent_at: f64,
}

/// A rank's SPMD closure panicked: the error [`try_run_spmd`] returns,
/// naming the **originating** rank. When one rank dies, every peer blocked
/// on it observes the death — those ranks are victims of the failure, not
/// causes, and are filtered out so the root cause is never buried under
/// the cascade. A cycle of live ranks all blocked on each other is also
/// reported here (as a deadlock) instead of hanging.
#[derive(Debug, Clone)]
pub struct RankFailed {
    /// The rank whose closure panicked first (lowest id among genuine
    /// panics when several race).
    pub rank: usize,
    /// The panic payload rendered to a string (`&str`/`String` payloads
    /// verbatim; otherwise a placeholder).
    pub payload: String,
    /// When the failure was caused by a scheduled
    /// [`FaultPlan`] fault, its provenance (kind, rank,
    /// per-rank operation step); `None` for organic failures.
    pub injected: Option<InjectedFault>,
}

impl std::fmt::Display for RankFailed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "rank {} failed: {}", self.rank, self.payload)?;
        if let Some(inj) = &self.injected {
            write!(f, " [{inj}]")?;
        }
        Ok(())
    }
}

impl std::error::Error for RankFailed {}

/// Internal panic payload raised by a rank that observes a dead peer: the
/// peer panicked first, so this rank is a cascade victim — [`try_run_spmd`]
/// reports the peer's panic, not this one.
pub(crate) struct PeerHungUp;

/// Render a caught panic payload for [`RankFailed::payload`].
pub(crate) fn payload_string(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Aggregate result of an SPMD run.
#[derive(Debug)]
pub struct SpmdResult<R> {
    /// Per-rank return values, indexed by rank.
    pub outputs: Vec<R>,
    /// Per-rank statistics, indexed by rank.
    pub stats: Vec<RankStats>,
}

impl<R> SpmdResult<R> {
    /// Critical-path time: the maximum final clock.
    pub fn critical_path_time(&self) -> f64 {
        self.stats.iter().map(|s| s.clock).fold(0.0, f64::max)
    }

    /// Maximum per-rank communicated words (sent + received) — the
    /// "bandwidth cost" `IO` of the parallel model.
    pub fn max_words(&self) -> u64 {
        self.stats
            .iter()
            .map(|s| s.words_sent + s.words_received)
            .max()
            .unwrap_or(0)
    }

    /// Maximum per-rank message count (latency cost).
    pub fn max_msgs(&self) -> u64 {
        self.stats
            .iter()
            .map(|s| s.msgs_sent + s.msgs_received)
            .max()
            .unwrap_or(0)
    }

    /// Maximum per-rank memory high-water mark.
    pub fn max_memory(&self) -> usize {
        self.stats
            .iter()
            .map(|s| s.mem_high_water)
            .max()
            .unwrap_or(0)
    }

    /// Total flops across ranks.
    pub fn total_flops(&self) -> u64 {
        self.stats.iter().map(|s| s.flops).sum()
    }
}

/// One simulated processor, handed to the SPMD closure.
pub struct Rank {
    /// This rank's id in `0..p`.
    pub id: usize,
    /// Number of ranks.
    pub p: usize,
    cfg: MachineConfig,
    /// Unspent overlap credit (seconds of communication hidable behind
    /// already-performed compute).
    credit: f64,
    endpoint: EventEndpoint,
    stats: RankStats,
    mem_now: usize,
    /// Compiled per-rank view of the fault plan (empty when none).
    faults: RankFaults,
    /// Monotone per-rank operation counter (sends, recvs, computes,
    /// sleeps): the deterministic "step" reported as fault provenance.
    ops: u64,
    /// Lifetime send counter (1-based ordinal of the *next* send is
    /// `sends_total + 1`).
    sends_total: u64,
}

impl Rank {
    pub(crate) fn with_endpoint(id: usize, cfg: MachineConfig, endpoint: EventEndpoint) -> Self {
        let faults = match &cfg.faults {
            Some(plan) => plan.compile(id),
            None => RankFaults::default(),
        };
        Rank {
            id,
            p: cfg.p,
            cfg,
            credit: 0.0,
            endpoint,
            stats: RankStats::default(),
            mem_now: 0,
            faults,
            ops: 0,
            sends_total: 0,
        }
    }

    pub(crate) fn stats_snapshot(&self) -> RankStats {
        self.stats
    }

    /// Unwind with an [`InjectedCrash`] carrying provenance. The failure
    /// is expected, so it unwinds past the panic hook (`resume_unwind`)
    /// and [`try_run_spmd`] reports it once; a genuine panic still prints.
    fn injected_panic(&self, kind: InjectedKind, detail: String) -> ! {
        std::panic::resume_unwind(Box::new(InjectedCrash {
            fault: InjectedFault {
                kind,
                rank: self.id,
                step: self.ops,
            },
            detail,
        }))
    }

    /// Record a locally corrected frame (checksum recovery).
    pub(crate) fn note_frame_corrected(&mut self) {
        self.stats.frames_corrected += 1;
    }

    /// Record a frame retry (re-requested after uncorrectable corruption).
    pub(crate) fn note_frame_retried(&mut self) {
        self.stats.frames_retried += 1;
    }

    /// Abort the run because corrupted data was detected and could not be
    /// corrected. Reported as an injected failure with
    /// [`InjectedKind::CorruptionDetected`] provenance.
    pub fn abort_corruption(&mut self, detail: String) -> ! {
        self.injected_panic(InjectedKind::CorruptionDetected, detail)
    }

    /// Advance this rank's virtual clock by `seconds` without any
    /// communication or compute: deterministic backoff for retry
    /// protocols.
    pub fn sleep(&mut self, seconds: f64) {
        assert!(
            seconds.is_finite() && seconds >= 0.0,
            "sleep duration must be finite and >= 0; got {seconds}"
        );
        self.ops += 1;
        self.stats.clock += seconds;
    }

    /// Price one end of a message of `len` words: the raw cost
    /// `t = α + β·len`, less any overlap credit, which is consumed first;
    /// returns the clock time actually charged. With `overlap = 0` the
    /// credit is always zero and `t` is returned bit-exactly, reproducing
    /// the non-overlapping model.
    fn charge_message(&mut self, len: usize) -> f64 {
        let t = self.cfg.alpha + self.cfg.beta * len as f64;
        if self.credit > 0.0 {
            let hide = self.credit.min(t);
            self.credit -= hide;
            t - hide
        } else {
            t
        }
    }

    /// Send `data` to `to` with a `tag`. Buffered: never blocks. Costs the
    /// sender `α + β·len` (minus overlap credit).
    pub fn send(&mut self, to: usize, tag: u64, mut data: Vec<f64>) {
        assert!(to < self.p && to != self.id, "invalid destination {to}");
        self.ops += 1;
        // Crash-at-send fires *before* any cost accounting: the send never
        // happens, matching a process dying on entry to the call.
        self.sends_total += 1;
        if self.faults.crash_send == Some(self.sends_total) {
            let nth = self.sends_total;
            self.injected_panic(
                InjectedKind::CrashAtSend,
                format!("scheduled crash at send #{nth}"),
            );
        }
        // Corruption flips a bit of the *delivered* copy only: any
        // application-level resend from the sender's own buffers starts
        // from clean data. Decided purely by per-rank frame counters, so
        // every grant order corrupts the identical frame.
        for rule in &mut self.faults.corrupt {
            if let Some((word, bit)) = rule.observe(to, tag) {
                if let Some(w) = data.get_mut(word) {
                    *w = f64::from_bits(w.to_bits() ^ (1u64 << bit));
                }
            }
        }
        let len = data.len();
        let charged = self.charge_message(len);
        self.stats.clock += charged;
        self.stats.words_sent += len as u64;
        self.stats.msgs_sent += 1;
        let msg = Msg {
            tag,
            data,
            sent_at: self.stats.clock,
        };
        if !self.endpoint.send(to, msg) {
            // The destination rank died; unwind as a cascade victim so
            // `try_run_spmd` reports the peer's panic, not this one.
            std::panic::resume_unwind(Box::new(PeerHungUp));
        }
    }

    /// Blocking receive of the next message from `from` with tag `tag`.
    /// Completes at `max(own clock, sender completion) + α + β·len` (minus
    /// overlap credit).
    pub fn recv(&mut self, from: usize, tag: u64) -> Vec<f64> {
        assert!(from < self.p && from != self.id, "invalid source {from}");
        self.ops += 1;
        let msg = self.endpoint.recv(from, tag, self.stats.clock);
        let len = msg.data.len();
        let charged = self.charge_message(len);
        self.stats.clock = self.stats.clock.max(msg.sent_at) + charged;
        self.stats.words_received += len as u64;
        self.stats.msgs_received += 1;
        msg.data
    }

    /// Exchange with two (possibly equal) partners: buffered send then recv.
    pub fn sendrecv(&mut self, to: usize, tag: u64, data: Vec<f64>, from: usize) -> Vec<f64> {
        self.send(to, tag, data);
        self.recv(from, tag)
    }

    /// Account `flops` of local computation: `γ·flops`, with `overlap ×`
    /// that interval banked as credit against later communication.
    pub fn compute(&mut self, flops: u64) {
        self.ops += 1;
        self.stats.flops += flops;
        let dt = self.cfg.gamma * flops as f64;
        self.stats.clock += dt;
        if self.cfg.overlap > 0.0 {
            self.credit += self.cfg.overlap * dt;
        }
    }

    /// Track a memory allocation of `words`.
    pub fn track_alloc(&mut self, words: usize) {
        self.mem_now += words;
        self.stats.mem_high_water = self.stats.mem_high_water.max(self.mem_now);
    }

    /// Track a memory release.
    pub fn track_free(&mut self, words: usize) {
        assert!(words <= self.mem_now, "freeing more than allocated");
        self.mem_now -= words;
    }

    /// Deterministic step barrier over `group` (must contain this rank):
    /// a dissemination barrier of `⌈log₂ g⌉` rounds of **zero-word**
    /// messages. No rank leaves before every rank has entered, and the
    /// max-propagating receive rule of the virtual clocks means all
    /// clocks in the group align to the slowest member (plus the α rounds)
    /// — so phases separated by a barrier are deterministic *steps* of the
    /// simulation: counters attributed to a phase can never leak into the
    /// next one. Zero-word messages cost `α` each and increment the
    /// message counters but move no words, so bandwidth accounting is
    /// unaffected.
    pub fn barrier(&mut self, group: &[usize], tag: u64) {
        let me = group
            .iter()
            .position(|&r| r == self.id)
            .expect("rank not in group");
        let g = group.len();
        let mut step = 1usize;
        let mut round = 0u64;
        while step < g {
            let to = group[(me + step) % g];
            let from = group[(me + g - step) % g];
            self.send(to, tag + round, Vec::new());
            let got = self.recv(from, tag + round);
            debug_assert!(got.is_empty());
            step *= 2;
            round += 1;
        }
    }

    /// Binomial-tree broadcast within the ranks `group` (must contain this
    /// rank; `group[0]` is the root). Root passes `Some(data)`.
    pub fn bcast(&mut self, group: &[usize], tag: u64, data: Option<Vec<f64>>) -> Vec<f64> {
        let me = group
            .iter()
            .position(|&r| r == self.id)
            .expect("rank not in group");
        let g = group.len();
        let mut buf = data;
        // binomial: round k: ranks < 2^k with data send to rank + 2^k
        let mut step = 1usize;
        while step < g {
            if me < step {
                let dst = me + step;
                if dst < g {
                    let payload = buf.as_ref().expect("must hold data to forward").clone();
                    self.send(group[dst], tag, payload);
                }
            } else if me < 2 * step && buf.is_none() {
                let src = me - step;
                buf = Some(self.recv(group[src], tag));
            }
            step *= 2;
        }
        buf.expect("broadcast incomplete")
    }

    /// Binomial-tree sum-reduction onto `group[0]`; returns `Some(total)` at
    /// the root, `None` elsewhere.
    pub fn reduce_sum(&mut self, group: &[usize], tag: u64, data: Vec<f64>) -> Option<Vec<f64>> {
        let me = group
            .iter()
            .position(|&r| r == self.id)
            .expect("rank not in group");
        let g = group.len();
        let mut acc = data;
        let mut step = 1usize;
        while step < g {
            if me % (2 * step) == 0 {
                let src = me + step;
                if src < g {
                    let other = self.recv(group[src], tag);
                    assert_eq!(other.len(), acc.len());
                    for (a, b) in acc.iter_mut().zip(&other) {
                        *a += b;
                    }
                    self.compute(acc.len() as u64);
                }
            } else if me % (2 * step) == step {
                let dst = me - step;
                self.send(group[dst], tag, acc);
                return None;
            }
            step *= 2;
        }
        Some(acc)
    }
}

/// Run an SPMD program on `cfg.p` simulated ranks.
///
/// Panics if any rank's closure panics, with a message naming the
/// **originating** rank (see [`RankFailed`]); use [`try_run_spmd`] to
/// handle the failure as a value instead.
pub fn run_spmd<R, F>(cfg: MachineConfig, f: F) -> SpmdResult<R>
where
    R: Send,
    F: Fn(&mut Rank) -> R + Sync,
{
    try_run_spmd(cfg, f).unwrap_or_else(|e| panic!("{e}"))
}

/// [`run_spmd`] with rank failure as a value: runs the SPMD program and
/// returns [`RankFailed`] naming the originating rank if any closure
/// panics. Each rank runs under `catch_unwind`; ranks that die observing a
/// dead peer (their peer panicked first) are classified as cascade victims
/// and never reported as the cause. A deadlock (all live ranks blocked on
/// each other) is detected and reported too.
///
/// Panics before any rank starts if the fault plan names a rank outside
/// `0..p`, or a frame a rank would send to itself: such a rule never fires.
pub fn try_run_spmd<R, F>(cfg: MachineConfig, f: F) -> Result<SpmdResult<R>, RankFailed>
where
    R: Send,
    F: Fn(&mut Rank) -> R + Sync,
{
    if let Some(plan) = &cfg.faults {
        plan.assert_fits(cfg.p);
    }
    crate::event::try_run(cfg, f)
}

/// Failure class of a dead rank, for picking the reported root cause.
/// Lower wins: a genuine panic beats a detected deadlock beats a cascade
/// victim.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum FailureClass {
    Genuine,
    Deadlock,
    Victim,
}

/// One rank's `catch_unwind` outcome: its return value and stats, or the
/// panic payload it unwound with.
pub(crate) type RankOutcome<R> = Result<(R, RankStats), Box<dyn std::any::Any + Send>>;

/// Fold per-rank `catch_unwind` results into an [`SpmdResult`] or the
/// single [`RankFailed`] naming the root cause: the lowest-id rank of the
/// most-causal [`FailureClass`] present.
pub(crate) fn collect_results<R>(
    p: usize,
    results: Vec<(usize, RankOutcome<R>)>,
) -> Result<SpmdResult<R>, RankFailed> {
    let mut outputs: Vec<Option<(R, RankStats)>> = (0..p).map(|_| None).collect();
    // (rank, class, payload, injected provenance) per failed rank.
    let mut failures: Vec<(usize, FailureClass, String, Option<InjectedFault>)> = Vec::new();
    for (id, res) in results {
        match res {
            Ok(pair) => outputs[id] = Some(pair),
            Err(payload) => {
                let (class, rendered, injected) = if payload.is::<PeerHungUp>() {
                    (
                        FailureClass::Victim,
                        "hung-up channel (victim of a failed peer)".to_string(),
                        None,
                    )
                } else if let Some(d) = payload.downcast_ref::<crate::event::DeadlockPoison>() {
                    (FailureClass::Deadlock, d.describe(), None)
                } else if let Some(c) = payload.downcast_ref::<InjectedCrash>() {
                    // A scheduled fault fired: a genuine death of that rank
                    // (it outranks deadlocks and victims like any panic),
                    // but carrying its provenance for the failure report.
                    (FailureClass::Genuine, c.to_string(), Some(c.fault))
                } else {
                    (
                        FailureClass::Genuine,
                        payload_string(payload.as_ref()),
                        None,
                    )
                };
                failures.push((id, class, rendered, injected));
            }
        }
    }
    if !failures.is_empty() {
        // The originating rank: lowest id within the most-causal class
        // (genuine panic > detected deadlock > hung-up victim). A pure
        // cascade with no genuine panic (a rank exiting early without
        // matching sends) falls back to the lowest victim.
        failures.sort_by_key(|&(id, class, _, _)| (class, id));
        let (rank, _, payload, injected) = failures[0].clone();
        return Err(RankFailed {
            rank,
            payload,
            injected,
        });
    }
    let mut outs = Vec::with_capacity(p);
    let mut stats = Vec::with_capacity(p);
    for o in outputs {
        let (r, s) = o.expect("rank output missing");
        outs.push(r);
        stats.push(s);
    }
    Ok(SpmdResult {
        outputs: outs,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{with_grant_seed, GRANT_ORDERS};

    /// `try_run_spmd` under every grant order of [`GRANT_ORDERS`].
    fn try_each_order<R: Send>(
        cfg: MachineConfig,
        f: impl Fn(&mut Rank) -> R + Sync,
    ) -> Vec<Result<SpmdResult<R>, RankFailed>> {
        GRANT_ORDERS
            .iter()
            .map(|&seed| with_grant_seed(seed, || try_run_spmd(cfg.clone(), &f)))
            .collect()
    }

    /// `run_spmd` under every grant order of [`GRANT_ORDERS`].
    fn run_each_order<R: Send>(
        cfg: MachineConfig,
        f: impl Fn(&mut Rank) -> R + Sync,
    ) -> Vec<SpmdResult<R>> {
        try_each_order(cfg, f)
            .into_iter()
            .map(|res| res.unwrap_or_else(|e| panic!("{e}")))
            .collect()
    }

    #[test]
    fn ping_pong_counts_and_clocks() {
        let cfg = MachineConfig::new(2).with_beta(0.5);
        for res in run_each_order(cfg, |rank| {
            if rank.id == 0 {
                rank.send(1, 7, vec![1.0, 2.0, 3.0, 4.0]);
                rank.recv(1, 8)
            } else {
                let v = rank.recv(0, 7);
                rank.send(0, 8, v.clone());
                v
            }
        }) {
            assert_eq!(res.outputs[0], vec![1.0, 2.0, 3.0, 4.0]);
            assert_eq!(res.stats[0].words_sent, 4);
            assert_eq!(res.stats[0].words_received, 4);
            assert_eq!(res.stats[1].msgs_received, 1);
            // clocks: r0 send ends 3.0; r1 recv ends max(0,3)+3=6; r1 send
            // ends 9; r0 recv ends max(3,9)+3 = 12
            assert!(
                (res.stats[0].clock - 12.0).abs() < 1e-9,
                "{}",
                res.stats[0].clock
            );
            assert!((res.critical_path_time() - 12.0).abs() < 1e-9);
        }
    }

    #[test]
    fn tag_matching_out_of_order() {
        for res in run_each_order(MachineConfig::new(2), |rank| {
            if rank.id == 0 {
                rank.send(1, 1, vec![1.0]);
                rank.send(1, 2, vec![2.0]);
                vec![]
            } else {
                // receive in reverse tag order
                let b = rank.recv(0, 2);
                let a = rank.recv(0, 1);
                vec![a[0], b[0]]
            }
        }) {
            assert_eq!(res.outputs[1], vec![1.0, 2.0]);
        }
    }

    #[test]
    fn exchange_does_not_deadlock() {
        for res in run_each_order(MachineConfig::new(4), |rank| {
            let to = (rank.id + 1) % rank.p;
            let from = (rank.id + rank.p - 1) % rank.p;
            let got = rank.sendrecv(to, 0, vec![rank.id as f64], from);
            got[0]
        }) {
            for r in 0..4 {
                assert_eq!(res.outputs[r], ((r + 3) % 4) as f64);
            }
        }
    }

    #[test]
    fn bcast_delivers_to_all() {
        for res in run_each_order(MachineConfig::new(7), |rank| {
            let group: Vec<usize> = (0..rank.p).collect();
            let data = if rank.id == 0 {
                Some(vec![3.25, 1.5])
            } else {
                None
            };
            rank.bcast(&group, 99, data)
        }) {
            for r in 0..7 {
                assert_eq!(res.outputs[r], vec![3.25, 1.5], "rank {r}");
            }
        }
    }

    #[test]
    fn bcast_subgroup_and_nonzero_root() {
        for res in run_each_order(MachineConfig::new(6), |rank| {
            if rank.id % 2 == 0 {
                let group = vec![4usize, 0, 2]; // root = 4
                let data = if rank.id == 4 {
                    Some(vec![rank.id as f64])
                } else {
                    None
                };
                rank.bcast(&group, 5, data)
            } else {
                vec![-1.0]
            }
        }) {
            assert_eq!(res.outputs[0], vec![4.0]);
            assert_eq!(res.outputs[2], vec![4.0]);
            assert_eq!(res.outputs[1], vec![-1.0]);
        }
    }

    #[test]
    fn reduce_sums_at_root() {
        for res in run_each_order(MachineConfig::new(8), |rank| {
            let group: Vec<usize> = (0..rank.p).collect();
            rank.reduce_sum(&group, 3, vec![rank.id as f64, 1.0])
        }) {
            assert_eq!(res.outputs[0], Some(vec![28.0, 8.0]));
            for r in 1..8 {
                assert!(res.outputs[r].is_none(), "rank {r}");
            }
        }
    }

    #[test]
    fn reduce_non_power_of_two() {
        for res in run_each_order(MachineConfig::new(5), |rank| {
            let group: Vec<usize> = (0..rank.p).collect();
            rank.reduce_sum(&group, 3, vec![1.0])
        }) {
            assert_eq!(res.outputs[0], Some(vec![5.0]));
        }
    }

    #[test]
    fn barrier_aligns_clocks_and_moves_no_words() {
        // Rank 2 arrives late (large compute); after the barrier every
        // rank's clock is at least rank 2's arrival time, and no words
        // moved.
        for res in run_each_order(MachineConfig::new(5).with_gamma(1.0), |rank| {
            if rank.id == 2 {
                rank.compute(1000); // clock 1000
            }
            let group: Vec<usize> = (0..rank.p).collect();
            rank.barrier(&group, 77);
            0
        }) {
            for s in &res.stats {
                assert!(s.clock >= 1000.0, "clock {} below the straggler", s.clock);
                assert_eq!(s.words_sent + s.words_received, 0);
                assert_eq!(s.msgs_sent, 3, "dissemination rounds for g=5");
            }
        }
    }

    #[test]
    fn barrier_on_subgroup_and_singleton() {
        for res in run_each_order(MachineConfig::new(4), |rank| {
            if rank.id < 2 {
                rank.barrier(&[0, 1], 5);
            }
            rank.barrier(&[rank.id], 9); // singleton: no-op
            rank.id
        }) {
            assert_eq!(res.stats[0].msgs_sent, 1);
            assert_eq!(res.stats[3].msgs_sent, 0);
        }
    }

    #[test]
    fn panicking_rank_is_named_not_buried() {
        // Rank 2 panics; ranks blocked receiving from it die observing the
        // death. The error must name rank 2 with its payload, not a
        // cascade victim and not a generic "rank panicked".
        for res in try_each_order(MachineConfig::new(4), |rank| {
            if rank.id == 2 {
                panic!("boom at rank {}", rank.id);
            }
            // every other rank waits on the dead rank: pure cascade
            rank.recv(2, 0)
        }) {
            let err = res.expect_err("run must fail");
            assert_eq!(err.rank, 2, "originating rank identified: {err}");
            assert!(
                err.payload.contains("boom at rank 2"),
                "payload preserved: {err}"
            );
            let msg = err.to_string();
            assert!(msg.contains("rank 2"), "display names the rank: {msg}");
        }
    }

    #[test]
    fn run_spmd_panic_names_originating_rank() {
        for seed in GRANT_ORDERS {
            let caught = std::panic::catch_unwind(|| {
                with_grant_seed(seed, || {
                    run_spmd(MachineConfig::new(3), |rank| {
                        if rank.id == 1 {
                            panic!("injected");
                        }
                        rank.recv(1, 9)
                    })
                })
            })
            .expect_err("must propagate");
            let msg = caught.downcast_ref::<String>().cloned().unwrap_or_default();
            assert!(
                msg.contains("rank 1") && msg.contains("injected"),
                "panic message names rank and payload: {msg}"
            );
        }
    }

    #[test]
    fn successful_run_round_trips_through_try() {
        for res in try_each_order(MachineConfig::new(2), |rank| {
            if rank.id == 0 {
                rank.send(1, 1, vec![2.5]);
                0.0
            } else {
                rank.recv(0, 1)[0]
            }
        }) {
            assert_eq!(res.expect("clean run").outputs, vec![0.0, 2.5]);
        }
    }

    #[test]
    fn memory_tracking_high_water() {
        let cfg = MachineConfig::new(1);
        let res = run_spmd(cfg, |rank| {
            rank.track_alloc(100);
            rank.track_alloc(50);
            rank.track_free(100);
            rank.track_alloc(20);
            rank.track_free(70);
            0
        });
        assert_eq!(res.stats[0].mem_high_water, 150);
    }

    #[test]
    fn compute_advances_clock_with_gamma() {
        let cfg = MachineConfig::new(1)
            .with_alpha(0.0)
            .with_beta(0.0)
            .with_gamma(2.0);
        let res = run_spmd(cfg, |rank| {
            rank.compute(10);
            0
        });
        assert!((res.stats[0].clock - 20.0).abs() < 1e-12);
        assert_eq!(res.total_flops(), 10);
    }

    #[test]
    fn deadlock_is_detected_not_hung() {
        // Both ranks receive from each other with no matching sends: the
        // runtime must detect the cycle and name the lowest blocked rank
        // instead of hanging.
        for res in try_each_order(MachineConfig::new(2), |rank| {
            let peer = 1 - rank.id;
            rank.recv(peer, 42)
        }) {
            let err = res.expect_err("deadlock must be reported");
            assert_eq!(err.rank, 0, "lowest blocked rank named: {err}");
            assert!(err.payload.contains("deadlock"), "describes itself: {err}");
            assert!(
                err.payload.contains("rank 1") && err.payload.contains("tag 42"),
                "names the awaited peer and tag: {err}"
            );
        }
    }

    #[test]
    fn genuine_panic_outranks_deadlock_report() {
        // Rank 2 panics while ranks 0 and 1 are deadlocked between
        // themselves: the report must name the real panic, not the
        // (lower-id) deadlock poison victim.
        for res in try_each_order(MachineConfig::new(3), |rank| match rank.id {
            0 => rank.recv(1, 0),
            1 => rank.recv(0, 0),
            _ => panic!("real failure"),
        }) {
            let err = res.expect_err("must fail");
            assert_eq!(err.rank, 2, "genuine panic wins: {err}");
            assert!(err.payload.contains("real failure"), "{err}");
        }
    }

    /// `try_run_spmd` under `plan` on two ranks that each send the other
    /// one frame.
    fn exchange_under(plan: FaultPlan) {
        let cfg = MachineConfig::new(2).with_fault_plan(plan);
        let _ = try_run_spmd(cfg, |rank| {
            rank.sendrecv(1 - rank.id, 0, vec![1.0], 1 - rank.id)
        });
    }

    #[test]
    #[should_panic(expected = "CrashAtSend { rank: 2, nth: 1 } can never fire on 2 ranks")]
    fn crash_on_a_rank_outside_the_machine_is_rejected() {
        exchange_under(FaultPlan::new().with_crash_at_send(2, 1));
    }

    #[test]
    #[should_panic(expected = "can never fire on 2 ranks")]
    fn corrupt_frame_to_a_rank_outside_the_machine_is_rejected() {
        exchange_under(FaultPlan::new().with_corrupt_frame(0, 2, None, 1, 0, 0));
    }

    #[test]
    #[should_panic(expected = "can never fire on 2 ranks")]
    fn corrupt_frame_a_rank_sends_itself_is_rejected() {
        exchange_under(FaultPlan::new().with_corrupt_frame(1, 1, None, 1, 0, 0));
    }

    #[test]
    fn overlap_credit_hides_communication() {
        let cfg = MachineConfig::new(2)
            .with_beta(0.5)
            .with_gamma(1.0)
            .with_overlap(0.5);
        for res in run_each_order(cfg, |rank| {
            if rank.id == 0 {
                // clock 10, credit 5 after computing.
                rank.compute(10);
                // each send costs 1 + 0.5·4 = 3 raw: the first is fully
                // hidden (credit 5 → 2), the second is charged 1.
                rank.send(1, 0, vec![0.0; 4]);
                rank.send(1, 1, vec![0.0; 4]);
            } else {
                // no compute → no credit: receives are charged in full.
                rank.recv(0, 0);
                rank.recv(0, 1);
            }
            0
        }) {
            // r0: 10 + 0 + 1 = 11. r1: max(0, 10) + 3 = 13; max(13, 11) + 3 = 16.
            assert!((res.stats[0].clock - 11.0).abs() < 1e-12);
            assert!((res.stats[1].clock - 16.0).abs() < 1e-12);
        }
    }

    #[test]
    fn event_runtime_is_deterministic_bitwise() {
        // Two runs of a compute+shift program in the production order
        // agree bit-for-bit on every counter and clock, and so does every
        // seeded grant order.
        let program = |rank: &mut Rank| {
            rank.compute((rank.id as u64 + 1) * 37);
            let to = (rank.id + 1) % rank.p;
            let from = (rank.id + rank.p - 1) % rank.p;
            let got = rank.sendrecv(to, 5, vec![rank.id as f64; 3], from);
            got[0]
        };
        let cfg = MachineConfig::new(6).with_gamma(0.75);
        let a = run_spmd(cfg.clone(), program);
        for b in run_each_order(cfg, program) {
            for r in 0..6 {
                assert_eq!(a.outputs[r].to_bits(), b.outputs[r].to_bits());
                assert_eq!(a.stats[r].clock.to_bits(), b.stats[r].clock.to_bits());
                assert_eq!(a.stats[r].words_sent, b.stats[r].words_sent);
                assert_eq!(a.stats[r].msgs_received, b.stats[r].msgs_received);
            }
        }
    }
}
