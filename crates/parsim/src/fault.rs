//! Deterministic fault injection for the simulated distributed machine.
//!
//! A [`FaultPlan`] is a config-injectable, fully deterministic schedule of
//! faults of two kinds: rank crashes (at the k-th send) and message payload
//! corruption (flip a chosen bit of a chosen word of a chosen
//! `(src, dst, tag)` frame). Plans are attached to
//! [`MachineConfig`](crate::MachineConfig) and enforced inside the
//! [`Rank`](crate::Rank) facade: fault decisions depend only on per-rank
//! send and frame counters, never on host scheduling or on the order in
//! which the runtime grants ready ranks. So a plan that kills at most one
//! rank reports the same failure, or the same recovered gather and
//! counters, under every grant order the crate's schedule-independence
//! suite tries. A plan that kills two ranks can race: whether the second
//! reaches its own fault or first dies observing the first depends on the
//! grant order, which the production runtime fixes by virtual time.
//!
//! Injected failures carry provenance: the three-level failure classifier
//! reports [`InjectedFault`] (kind, rank, step) through
//! [`RankFailed::injected`](crate::RankFailed), so a chaos harness can tell a
//! planned crash from a genuine bug.

use std::fmt;
use std::sync::Arc;

/// One scheduled fault.
#[derive(Clone, Debug, PartialEq)]
pub enum Fault {
    /// Rank `rank` panics immediately before completing its `nth` send
    /// (1-based over that rank's lifetime sends, counting every `send`,
    /// including those inside collectives).
    CrashAtSend {
        /// The rank that crashes.
        rank: usize,
        /// 1-based send ordinal at which the crash fires.
        nth: u64,
    },
    /// Flip bit `bit` of word `word` of the `nth` frame sent from `src` to
    /// `dst` (1-based over matching frames). When `tag` is `Some`, only
    /// frames with that exact tag are counted; when `None`, every
    /// `src → dst` frame counts. Corruption happens on the delivered copy
    /// only — the sender's retained data is untouched — and out-of-range
    /// `word` indices make the rule a no-op for that frame.
    CorruptFrame {
        /// Sending rank.
        src: usize,
        /// Receiving rank.
        dst: usize,
        /// Exact tag to match, or `None` for any tag.
        tag: Option<u64>,
        /// 1-based ordinal among matching frames.
        nth: u64,
        /// Word index within the frame payload.
        word: usize,
        /// Bit index within the word, `< 64`.
        bit: u32,
    },
}

/// What kind of fault was injected (provenance for failure reports).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum InjectedKind {
    /// A [`Fault::CrashAtSend`] fired.
    CrashAtSend,
    /// A corrupted frame was detected but could not be corrected, and the
    /// detecting rank aborted the run.
    CorruptionDetected,
}

impl fmt::Display for InjectedKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InjectedKind::CrashAtSend => write!(f, "crash-at-send"),
            InjectedKind::CorruptionDetected => write!(f, "corruption-detected"),
        }
    }
}

/// Provenance of an injected failure: which kind, on which rank, at which
/// per-rank operation step (the rank's operation counter at the moment the
/// fault fired — deterministic across grant orders).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct InjectedFault {
    /// The fault kind.
    pub kind: InjectedKind,
    /// The rank the fault fired on.
    pub rank: usize,
    /// The rank's operation counter when the fault fired.
    pub step: u64,
}

impl fmt::Display for InjectedFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "injected {} on rank {} at step {}",
            self.kind, self.rank, self.step
        )
    }
}

/// Panic payload used when an injected fault fires. The shared result
/// collector downcasts this to recover provenance.
#[derive(Clone, Debug)]
pub(crate) struct InjectedCrash {
    pub(crate) fault: InjectedFault,
    pub(crate) detail: String,
}

impl fmt::Display for InjectedCrash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.fault, self.detail)
    }
}

/// A deterministic schedule of faults for one SPMD run.
///
/// Build with the `with_*` methods; attach via
/// [`MachineConfig::with_fault_plan`](crate::MachineConfig::with_fault_plan)
/// or [`DistConfig::with_fault_plan`](crate::exec::DistConfig::with_fault_plan).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    faults: Vec<Fault>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> Self {
        Self::default()
    }

    /// The scheduled faults, in insertion order.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// True when the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Schedule a crash of `rank` at its `nth` send (1-based).
    ///
    /// # Panics
    /// If `nth == 0`.
    pub fn with_crash_at_send(mut self, rank: usize, nth: u64) -> Self {
        assert!(nth >= 1, "crash-at-send ordinal is 1-based; got 0");
        self.faults.push(Fault::CrashAtSend { rank, nth });
        self
    }

    /// Schedule a single-bit flip in the `nth` frame sent `src → dst`
    /// (matching `tag` when `Some`): word `word`, bit `bit`.
    ///
    /// # Panics
    /// If `nth == 0` or `bit >= 64`.
    pub fn with_corrupt_frame(
        mut self,
        src: usize,
        dst: usize,
        tag: Option<u64>,
        nth: u64,
        word: usize,
        bit: u32,
    ) -> Self {
        assert!(nth >= 1, "corrupt-frame ordinal is 1-based; got 0");
        assert!(bit < 64, "bit index must be < 64; got {bit}");
        self.faults.push(Fault::CorruptFrame {
            src,
            dst,
            tag,
            nth,
            word,
            bit,
        });
        self
    }

    /// Panic unless every rule can fire on a `p`-rank machine: a crash on
    /// rank `p` or above, or a corruption whose `src` or `dst` is `p` or
    /// above or whose `src == dst` (no rank sends to itself), would match
    /// no frame and let the run report clean.
    pub(crate) fn assert_fits(&self, p: usize) {
        for f in &self.faults {
            let fits = match *f {
                Fault::CrashAtSend { rank, .. } => rank < p,
                Fault::CorruptFrame { src, dst, .. } => src < p && dst < p && src != dst,
            };
            assert!(fits, "fault rule {f:?} can never fire on {p} ranks");
        }
    }

    /// Compile the per-rank view of this plan for `rank`.
    pub(crate) fn compile(self: &Arc<Self>, rank: usize) -> RankFaults {
        let mut crash_send: Option<u64> = None;
        let mut corrupt = Vec::new();
        for f in &self.faults {
            match f {
                Fault::CrashAtSend { rank: r, nth } if *r == rank => {
                    crash_send = Some(crash_send.map_or(*nth, |c| c.min(*nth)));
                }
                Fault::CorruptFrame {
                    src,
                    dst,
                    tag,
                    nth,
                    word,
                    bit,
                } if *src == rank => {
                    corrupt.push(CorruptRule {
                        dst: *dst,
                        tag: *tag,
                        nth: *nth,
                        word: *word,
                        bit: *bit,
                        seen: 0,
                        fired: false,
                    });
                }
                _ => {}
            }
        }
        RankFaults {
            crash_send,
            corrupt,
        }
    }
}

/// One compiled corruption rule, tracked on the *sending* rank so every
/// grant order corrupts the identical frame.
#[derive(Clone, Debug)]
pub(crate) struct CorruptRule {
    pub(crate) dst: usize,
    pub(crate) tag: Option<u64>,
    pub(crate) nth: u64,
    pub(crate) word: usize,
    pub(crate) bit: u32,
    /// Matching frames seen so far.
    pub(crate) seen: u64,
    pub(crate) fired: bool,
}

impl CorruptRule {
    /// Called for every outgoing frame; returns `Some((word, bit))` when
    /// this frame is the one to corrupt.
    pub(crate) fn observe(&mut self, dst: usize, tag: u64) -> Option<(usize, u32)> {
        if self.fired || dst != self.dst {
            return None;
        }
        if let Some(t) = self.tag {
            if t != tag {
                return None;
            }
        }
        self.seen += 1;
        if self.seen == self.nth {
            self.fired = true;
            Some((self.word, self.bit))
        } else {
            None
        }
    }
}

/// Per-rank compiled fault state, owned by the [`Rank`](crate::Rank) facade.
#[derive(Clone, Debug, Default)]
pub(crate) struct RankFaults {
    /// Crash immediately before completing this 1-based send ordinal.
    pub(crate) crash_send: Option<u64>,
    pub(crate) corrupt: Vec<CorruptRule>,
}

impl RankFaults {
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.crash_send.is_none() && self.corrupt.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_compiles_empty() {
        let plan = Arc::new(FaultPlan::new());
        assert!(plan.is_empty());
        for r in 0..4 {
            assert!(plan.compile(r).is_empty());
        }
    }

    #[test]
    fn compile_keeps_earliest_crash() {
        let plan = Arc::new(
            FaultPlan::new()
                .with_crash_at_send(1, 7)
                .with_crash_at_send(1, 3),
        );
        assert_eq!(plan.compile(1).crash_send, Some(3));
        assert!(plan.compile(0).is_empty());
    }

    #[test]
    fn corrupt_rules_compile_on_sender() {
        let plan = Arc::new(
            FaultPlan::new()
                .with_corrupt_frame(0, 3, Some(42), 2, 5, 17)
                .with_corrupt_frame(1, 0, None, 1, 0, 63),
        );
        assert_eq!(plan.compile(0).corrupt.len(), 1);
        assert_eq!(plan.compile(1).corrupt.len(), 1);
        assert!(plan.compile(3).corrupt.is_empty());
    }

    #[test]
    fn corrupt_rule_fires_on_nth_matching_frame_only() {
        let plan = Arc::new(FaultPlan::new().with_corrupt_frame(0, 2, Some(7), 3, 4, 1));
        let mut rf = plan.compile(0);
        let rule = &mut rf.corrupt[0];
        assert_eq!(rule.observe(2, 9), None); // wrong tag
        assert_eq!(rule.observe(1, 7), None); // wrong dst
        assert_eq!(rule.observe(2, 7), None); // 1st match
        assert_eq!(rule.observe(2, 7), None); // 2nd match
        assert_eq!(rule.observe(2, 7), Some((4, 1))); // 3rd match: fire
        assert_eq!(rule.observe(2, 7), None); // never again
    }

    #[test]
    fn untagged_rule_counts_every_frame_to_dst() {
        let plan = Arc::new(FaultPlan::new().with_corrupt_frame(5, 1, None, 2, 0, 0));
        let mut rf = plan.compile(5);
        let rule = &mut rf.corrupt[0];
        assert_eq!(rule.observe(1, 100), None);
        assert_eq!(rule.observe(1, 200), Some((0, 0)));
    }

    #[test]
    #[should_panic(expected = "1-based")]
    fn zero_send_ordinal_rejected() {
        let _ = FaultPlan::new().with_crash_at_send(0, 0);
    }

    #[test]
    #[should_panic(expected = "bit index")]
    fn bit_out_of_range_rejected() {
        let _ = FaultPlan::new().with_corrupt_frame(0, 1, None, 1, 0, 64);
    }
}
