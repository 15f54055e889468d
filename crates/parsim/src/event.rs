//! The runtime of the simulated machine: a cooperative scheduler over
//! per-rank ready times that executes thousands of simulated ranks in
//! seconds.
//!
//! * **Lazily materialized inboxes** — one `HashMap<(src, tag), queue>`
//!   per destination rank, so idle rank pairs cost nothing: state is
//!   `O(p + in-flight messages)`, not a `p×p` channel mesh.
//! * **Cooperative scheduling** — exactly one rank runs at a time. Ranks
//!   own OS threads (they are stack carriers for the deep CAPS
//!   recursion), but each parks on its own gate until granted. A rank
//!   runs until its receive blocks on a missing message, then yields to
//!   the scheduler, which grants the ready rank with the least **ready
//!   time** (the virtual clock at which the rank's pending receive can
//!   complete), ties broken by ascending rank id.
//!
//! The clocks of [`crate::machine`] follow from the send/receive pairing
//! alone, so the grant order decides how fast a simulation runs, not what
//! it computes (short of two ranks failing on their own, see the machine
//! docs). The crate's schedule-independence suite checks that under
//! seeded pseudo-random grant orders, a perturbation compiled into test
//! builds only. The production order still bounds the real heap:
//! `tests/caps_heap.rs` holds CAPS's live buffers within 1.1× of the
//! memory model under it, and most seeded orders exceed that.
//!
//! ## Deadlock detection
//!
//! When no rank is runnable and some are still alive, the live ranks are
//! all blocked on each other: a genuine deadlock in the simulated
//! program. The runtime poisons the lowest-id blocked rank, which unwinds
//! with a [`DeadlockPoison`] payload describing the wait, and the run
//! fails with a [`RankFailed`] naming it (unless a genuine panic
//! elsewhere outranks it — see `FailureClass` in [`crate::machine`]).
//!
//! [`RankFailed`]: crate::machine::RankFailed

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

use crate::machine::{
    collect_results, MachineConfig, Msg, PeerHungUp, Rank, RankFailed, SpmdResult,
};

/// Stack size for simulated-rank threads. The default (8 MiB) would cost
/// ~19 GiB of virtual address space at p = 2401; 1 MiB comfortably holds
/// the CAPS/dist recursion (a few dozen small frames) at any tested size.
const RANK_STACK_BYTES: usize = 1 << 20;

/// Lock a mutex, ignoring poisoning: ranks unwind through `resume_unwind`
/// (injected crashes, cascade victims, deadlock poison) by design, and
/// the state they protect stays consistent because guards are always
/// dropped before unwinding. Propagating poison would turn one simulated
/// failure into a process-wide cascade of lock panics.
fn lock_ignore_poison<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// A binary gate a thread parks on until another thread opens it.
struct Gate {
    open: Mutex<bool>,
    cv: Condvar,
}

impl Gate {
    fn new() -> Self {
        Gate {
            open: Mutex::new(false),
            cv: Condvar::new(),
        }
    }

    fn signal(&self) {
        let mut open = lock_ignore_poison(&self.open);
        *open = true;
        self.cv.notify_one();
    }

    fn wait(&self) {
        let mut open = lock_ignore_poison(&self.open);
        while !*open {
            open = self.cv.wait(open).unwrap_or_else(|e| e.into_inner());
        }
        *open = false;
    }
}

/// Panic payload of a rank poisoned by the deadlock detector: every live
/// rank was blocked, this rank had the lowest id, and it unwinds so the
/// run fails with a description instead of hanging forever.
pub(crate) struct DeadlockPoison {
    /// The rank this one was blocked receiving from.
    pub(crate) from: usize,
    /// The tag it was waiting for.
    pub(crate) tag: u64,
}

impl DeadlockPoison {
    /// Render for [`RankFailed::payload`](crate::machine::RankFailed).
    pub(crate) fn describe(&self) -> String {
        format!(
            "deadlock: every live rank is blocked; this rank was receiving \
             from rank {} (tag {}) with no matching send in flight",
            self.from, self.tag
        )
    }
}

/// Scheduling state of one rank.
#[derive(Clone, Copy, PartialEq, Debug)]
enum Status {
    /// Runnable; has exactly one entry in the ready heap.
    Ready,
    /// Currently granted the machine (at most one rank at a time).
    Running,
    /// Parked inside `recv(from, tag)` waiting for a matching message.
    Blocked { from: usize, tag: u64 },
    /// Closure returned or panicked; its inbox survives (late receivers
    /// may still drain buffered messages), but sends to it fail.
    Done,
}

/// Heap key: the virtual time at which a rank becomes runnable. The
/// scheduler pops the minimum, tie-broken by rank id.
#[derive(PartialEq)]
struct ReadyAt {
    time: f64,
    rank: usize,
}

impl Eq for ReadyAt {}

impl Ord for ReadyAt {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.time
            .total_cmp(&other.time)
            .then(self.rank.cmp(&other.rank))
    }
}

impl PartialOrd for ReadyAt {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Shared machine state, guarded by one mutex. Held only for O(1)-ish
/// bookkeeping — never across a rank's closure code.
struct State {
    status: Vec<Status>,
    /// Per-destination inbox: `(src, tag)` → queued messages. Lazily
    /// materialized — an entry exists only while messages are in flight.
    inbox: Vec<HashMap<(usize, u64), VecDeque<Msg>>>,
    /// Min-heap of runnable ranks by ready time. Invariant: exactly the
    /// ranks with `Status::Ready`, one entry each.
    heap: BinaryHeap<Reverse<ReadyAt>>,
    /// A blocked rank's clock when it parked — the floor of its ready time.
    clock_hint: Vec<f64>,
    /// Per rank, how many ranks are parked receiving from it, so a rank's
    /// exit scans for them only when there are some.
    parked_on: Vec<usize>,
    /// Set by the deadlock detector; the rank unwinds on next inspection.
    poisoned: Vec<bool>,
    /// Ranks not yet `Done`.
    live: usize,
    /// Seeded grant order of a schedule-independence check (see
    /// [`with_grant_seed`]); `None` grants in the production order.
    #[cfg(test)]
    shuffle: Option<rand::rngs::StdRng>,
}

impl State {
    /// The next rank to grant: the least ready time, ties to the lowest id
    /// (under a test's grant seed, a seeded pick among the ready ranks).
    fn pop_ready(&mut self) -> Option<usize> {
        #[cfg(test)]
        if let Some(rng) = &mut self.shuffle {
            use rand::Rng;
            let mut ready = std::mem::take(&mut self.heap).into_vec();
            if ready.is_empty() {
                return None;
            }
            let Reverse(pick) = ready.swap_remove(rng.gen_range(0..ready.len()));
            self.heap = ready.into();
            return Some(pick.rank);
        }
        self.heap.pop().map(|Reverse(ready)| ready.rank)
    }
}

/// The event machine: state plus the gates carrying the serial control
/// handoff (scheduler → granted rank → scheduler).
pub(crate) struct EventCore {
    state: Mutex<State>,
    rank_gates: Vec<Gate>,
    sched_gate: Gate,
}

/// A rank's handle on the event machine.
pub(crate) struct EventEndpoint {
    id: usize,
    core: Arc<EventCore>,
}

impl EventEndpoint {
    /// Deliver `msg` to `to`; `false` if the destination rank is dead. If
    /// the destination is blocked on exactly this `(src, tag)`, it becomes
    /// runnable at `max(its clock when it parked, sent_at)` — the time its
    /// receive can complete.
    pub(crate) fn send(&mut self, to: usize, msg: Msg) -> bool {
        let mut st = lock_ignore_poison(&self.core.state);
        if st.status[to] == Status::Done {
            return false;
        }
        let wake = match st.status[to] {
            Status::Blocked { from, tag } if from == self.id && tag == msg.tag => {
                Some(st.clock_hint[to].max(msg.sent_at))
            }
            _ => None,
        };
        st.inbox[to]
            .entry((self.id, msg.tag))
            .or_default()
            .push_back(msg);
        if let Some(time) = wake {
            st.parked_on[self.id] -= 1;
            st.status[to] = Status::Ready;
            st.heap.push(Reverse(ReadyAt { time, rank: to }));
        }
        true
    }

    /// Next message from `from` with tag `tag`, yielding to the scheduler
    /// while none is buffered. `clock` is this rank's current virtual
    /// time (the ready-time floor). Unwinds as a cascade victim if the
    /// source died without sending, or with [`DeadlockPoison`] if the
    /// deadlock detector picked this rank.
    pub(crate) fn recv(&mut self, from: usize, tag: u64, clock: f64) -> Msg {
        loop {
            {
                let mut st = lock_ignore_poison(&self.core.state);
                if let Some(q) = st.inbox[self.id].get_mut(&(from, tag)) {
                    if let Some(m) = q.pop_front() {
                        if q.is_empty() {
                            st.inbox[self.id].remove(&(from, tag));
                        }
                        return m;
                    }
                }
                if st.status[from] == Status::Done {
                    // The source died without (or before) sending: cascade
                    // victim, same classification as a hung-up channel.
                    drop(st);
                    std::panic::resume_unwind(Box::new(PeerHungUp));
                }
                if st.poisoned[self.id] {
                    drop(st);
                    std::panic::resume_unwind(Box::new(DeadlockPoison { from, tag }));
                }
                st.status[self.id] = Status::Blocked { from, tag };
                st.parked_on[from] += 1;
                st.clock_hint[self.id] = clock;
            }
            self.core.sched_gate.signal();
            self.core.rank_gates[self.id].wait();
        }
    }
}

/// The scheduler loop: grant the runnable rank with the least ready time,
/// wait for it to yield (block or die), repeat until every rank is done.
/// If no rank is runnable but some are alive, they are deadlocked —
/// poison the lowest-id blocked one so the run fails descriptively.
fn scheduler(core: &EventCore) {
    loop {
        let grant;
        {
            let mut st = lock_ignore_poison(&core.state);
            if st.live == 0 {
                return;
            }
            match st.pop_ready() {
                Some(rank) => {
                    debug_assert_eq!(st.status[rank], Status::Ready, "stale heap entry");
                    if st.status[rank] != Status::Ready {
                        continue;
                    }
                    st.status[rank] = Status::Running;
                    grant = rank;
                }
                None => {
                    let victim = st
                        .status
                        .iter()
                        .position(|s| matches!(s, Status::Blocked { .. }))
                        .expect("live ranks but none ready or blocked");
                    if let Status::Blocked { from, .. } = st.status[victim] {
                        st.parked_on[from] -= 1;
                    }
                    st.poisoned[victim] = true;
                    st.status[victim] = Status::Running;
                    grant = victim;
                }
            }
        }
        core.rank_gates[grant].signal();
        core.sched_gate.wait();
    }
}

/// Run the SPMD program on `cfg.p` simulated ranks.
pub(crate) fn try_run<R, F>(cfg: MachineConfig, f: F) -> Result<SpmdResult<R>, RankFailed>
where
    R: Send,
    F: Fn(&mut Rank) -> R + Sync,
{
    let p = cfg.p;
    let core = Arc::new(EventCore {
        state: Mutex::new(State {
            status: vec![Status::Ready; p],
            inbox: (0..p).map(|_| HashMap::new()).collect(),
            heap: (0..p)
                .map(|rank| Reverse(ReadyAt { time: 0.0, rank }))
                .collect(),
            clock_hint: vec![0.0; p],
            parked_on: vec![0; p],
            poisoned: vec![false; p],
            live: p,
            #[cfg(test)]
            shuffle: GRANT_SEED
                .with(|seed| seed.get())
                .map(rand::SeedableRng::seed_from_u64),
        }),
        rank_gates: (0..p).map(|_| Gate::new()).collect(),
        sched_gate: Gate::new(),
    });

    let mut results = Vec::with_capacity(p);
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(p);
        for id in 0..p {
            let f = &f;
            let core = Arc::clone(&core);
            let cfg = cfg.clone();
            let handle = std::thread::Builder::new()
                .stack_size(RANK_STACK_BYTES)
                .spawn_scoped(scope, move || {
                    // Park until the scheduler's first grant: exactly one
                    // rank touches the machine at a time.
                    core.rank_gates[id].wait();
                    let endpoint = EventEndpoint {
                        id,
                        core: Arc::clone(&core),
                    };
                    let mut rank = Rank::with_endpoint(id, cfg, endpoint);
                    let res =
                        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&mut rank)));
                    let stats = rank.stats_snapshot();
                    // This rank is dead (returned or panicked): wake every
                    // rank blocked on it — they re-inspect, find no
                    // matching message, observe the death, and unwind as
                    // cascade victims — then hand control back.
                    {
                        let mut st = lock_ignore_poison(&core.state);
                        st.status[id] = Status::Done;
                        st.live -= 1;
                        if std::mem::take(&mut st.parked_on[id]) > 0 {
                            for r in 0..p {
                                if matches!(st.status[r], Status::Blocked { from, .. } if from == id)
                                {
                                    let time = st.clock_hint[r];
                                    st.status[r] = Status::Ready;
                                    st.heap.push(Reverse(ReadyAt { time, rank: r }));
                                }
                            }
                        }
                    }
                    core.sched_gate.signal();
                    (id, res.map(|out| (out, stats)))
                })
                .expect("spawning simulated rank thread");
            handles.push(handle);
        }
        scheduler(&core);
        for h in handles {
            results.push(h.join().expect("rank thread died outside catch_unwind"));
        }
    });
    collect_results(p, results)
}

#[cfg(test)]
thread_local! {
    /// The grant seed of machines started on this thread; `None` is the
    /// production order.
    static GRANT_SEED: std::cell::Cell<Option<u64>> = const { std::cell::Cell::new(None) };
}

/// The grant orders a schedule-independence check runs a program under:
/// the production order and two seeded ones.
#[cfg(test)]
pub(crate) const GRANT_ORDERS: [Option<u64>; 3] = [None, Some(1), Some(99)];

/// Run `f` with every machine it starts on this thread granting, instead
/// of the least ready time, a ready rank drawn from a pseudo-random
/// sequence seeded by `seed` (`None`: the production order).
#[cfg(test)]
pub(crate) fn with_grant_seed<T>(seed: Option<u64>, f: impl FnOnce() -> T) -> T {
    struct Restore(Option<u64>);
    impl Drop for Restore {
        fn drop(&mut self) {
            GRANT_SEED.with(|s| s.set(self.0));
        }
    }
    let _restore = Restore(GRANT_SEED.with(|s| s.replace(seed)));
    f()
}
