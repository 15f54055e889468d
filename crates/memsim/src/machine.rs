//! The two-level sequential machine of the paper's Section 1.1.
//!
//! Slow memory is unbounded; fast memory holds `M` words. Communication is
//! reading words from slow to fast memory and writing them back. A message
//! is a bundle of contiguous words, of length between 1 and `M`; transfer
//! time is `α + βn`. The machine tracks the **bandwidth cost** (total words
//! moved) and the **latency cost** (total messages), plus the fast-memory
//! high-water mark so algorithms can *prove* they never exceeded `M`.

/// Bandwidth/latency counters of a run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IoStats {
    /// Words read from slow to fast memory.
    pub words_read: u64,
    /// Words written from fast to slow memory.
    pub words_written: u64,
    /// Read messages.
    pub read_msgs: u64,
    /// Write messages.
    pub write_msgs: u64,
}

impl IoStats {
    /// Total words moved (the paper's bandwidth cost `IO`).
    pub fn total_words(&self) -> u64 {
        self.words_read + self.words_written
    }

    /// Total messages (the paper's latency cost; footnote 8 relates it to
    /// bandwidth via division by the maximal message length `M`).
    pub fn total_msgs(&self) -> u64 {
        self.read_msgs + self.write_msgs
    }

    /// Time in the `α + βn` model.
    pub fn time(&self, alpha: f64, beta: f64) -> f64 {
        alpha * self.total_msgs() as f64 + beta * self.total_words() as f64
    }
}

/// Explicitly managed two-level memory machine.
///
/// Algorithms call [`TwoLevelMachine::load`] / [`TwoLevelMachine::store`] /
/// [`TwoLevelMachine::alloc`] / [`TwoLevelMachine::free`] around their
/// actual computation; the machine enforces the capacity invariant and
/// accumulates [`IoStats`].
#[derive(Debug)]
pub struct TwoLevelMachine {
    m: usize,
    resident: usize,
    high_water: usize,
    stats: IoStats,
}

impl TwoLevelMachine {
    /// A machine with fast memory of `m` words.
    pub fn new(m: usize) -> Self {
        assert!(m >= 1);
        TwoLevelMachine {
            m,
            resident: 0,
            high_water: 0,
            stats: IoStats::default(),
        }
    }

    /// Fast memory capacity `M`.
    pub fn capacity(&self) -> usize {
        self.m
    }

    /// Words currently resident in fast memory.
    pub fn resident(&self) -> usize {
        self.resident
    }

    /// Largest residency observed.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Accumulated I/O statistics.
    pub fn stats(&self) -> IoStats {
        self.stats
    }

    fn claim(&mut self, words: usize) {
        self.resident += words;
        assert!(
            self.resident <= self.m,
            "fast memory overflow: {} > M = {}",
            self.resident,
            self.m
        );
        self.high_water = self.high_water.max(self.resident);
    }

    /// Read `words` contiguous-ish words from slow memory into fast memory.
    /// Counts `ceil(words / M)` messages (the model allows messages up to
    /// `M` words).
    pub fn load(&mut self, words: usize) {
        if words == 0 {
            return;
        }
        self.claim(words);
        self.stats.words_read += words as u64;
        self.stats.read_msgs += words.div_ceil(self.m) as u64;
    }

    /// Write `words` from fast memory back to slow memory, freeing them.
    pub fn store(&mut self, words: usize) {
        if words == 0 {
            return;
        }
        assert!(words <= self.resident, "storing more than resident");
        self.resident -= words;
        self.stats.words_written += words as u64;
        self.stats.write_msgs += words.div_ceil(self.m) as u64;
    }

    /// Claim scratch space in fast memory without any I/O (e.g. a zeroed
    /// accumulator created in cache).
    pub fn alloc(&mut self, words: usize) {
        self.claim(words);
    }

    /// Release fast-memory words without writing them back (dead scratch).
    pub fn free(&mut self, words: usize) {
        assert!(words <= self.resident, "freeing more than resident");
        self.resident -= words;
    }

    /// Stream `words_in` read and `words_out` written through fast memory
    /// without retaining residency (element-wise passes such as the block
    /// additions of the Strassen recursion use O(1) fast memory).
    pub fn stream(&mut self, words_in: usize, words_out: usize) {
        self.stats.words_read += words_in as u64;
        self.stats.read_msgs += words_in.div_ceil(self.m) as u64;
        self.stats.words_written += words_out as u64;
        self.stats.write_msgs += words_out.div_ceil(self.m) as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_store_roundtrip_counts() {
        let mut mc = TwoLevelMachine::new(100);
        mc.load(60);
        assert_eq!(mc.resident(), 60);
        mc.store(60);
        assert_eq!(mc.resident(), 0);
        let s = mc.stats();
        assert_eq!(s.words_read, 60);
        assert_eq!(s.words_written, 60);
        assert_eq!(s.read_msgs, 1);
        assert_eq!(s.write_msgs, 1);
        assert_eq!(s.total_words(), 120);
    }

    #[test]
    fn messages_split_at_capacity() {
        let mut mc = TwoLevelMachine::new(10);
        mc.stream(25, 5);
        let s = mc.stats();
        assert_eq!(s.read_msgs, 3); // ceil(25/10)
        assert_eq!(s.write_msgs, 1);
    }

    #[test]
    #[should_panic(expected = "fast memory overflow")]
    fn overflow_is_detected() {
        let mut mc = TwoLevelMachine::new(10);
        mc.load(8);
        mc.alloc(5);
    }

    #[test]
    fn high_water_tracks_peak() {
        let mut mc = TwoLevelMachine::new(100);
        mc.load(40);
        mc.alloc(30);
        mc.free(30);
        mc.store(40);
        assert_eq!(mc.high_water(), 70);
        assert_eq!(mc.resident(), 0);
    }

    #[test]
    fn time_model() {
        let mut mc = TwoLevelMachine::new(8);
        mc.stream(16, 0); // 2 msgs, 16 words
        let t = mc.stats().time(10.0, 0.5);
        assert!((t - (2.0 * 10.0 + 16.0 * 0.5)).abs() < 1e-12);
    }
}
