//! Open-loop request accounting.
//!
//! Request `i` is due at `start + i * interval` whatever the system is
//! doing. Its latency runs from that due time to its reply, so a stall is
//! charged to every request that fell due during it, including those the
//! generator could only send late. How late the generator sent is recorded
//! separately as the send lag.

use std::collections::VecDeque;

/// A fixed-rate schedule of due times (ns since the process epoch).
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    start_ns: u64,
    interval_ns: u64,
}

impl Schedule {
    /// `rate` requests per second from `start_ns` on.
    pub fn new(start_ns: u64, rate: f64) -> Self {
        Schedule { start_ns, interval_ns: (1e9 / rate).round().max(1.0) as u64 }
    }

    /// Due time of request `i`.
    pub fn due(&self, i: u64) -> u64 {
        self.start_ns + i * self.interval_ns
    }
}

/// Requests sent and not yet answered, in send order (replies arrive in
/// request order on one connection).
#[derive(Debug)]
pub struct OpenLoop {
    sched: Schedule,
    next: u64,
    outstanding: VecDeque<(u64, u64)>,
}

impl OpenLoop {
    /// An idle generator on `sched`.
    pub fn new(sched: Schedule) -> Self {
        OpenLoop { sched, next: 0, outstanding: VecDeque::new() }
    }

    /// Index of the next request to send.
    pub fn next_index(&self) -> u64 {
        self.next
    }

    /// Due time of the next request to send.
    pub fn next_due(&self) -> u64 {
        self.sched.due(self.next)
    }

    /// Requests sent and unanswered.
    pub fn outstanding(&self) -> usize {
        self.outstanding.len()
    }

    /// Records that the next request went out at `now`; returns its index
    /// and its send lag in ns.
    pub fn sent(&mut self, now: u64) -> (u64, u64) {
        let i = self.next;
        let due = self.sched.due(i);
        self.outstanding.push_back((i, due));
        self.next += 1;
        (i, now.saturating_sub(due))
    }

    /// Records that the oldest outstanding request was answered at `now`;
    /// returns its index and its latency from its due time in ns.
    pub fn answered(&mut self, now: u64) -> (u64, u64) {
        let (i, due) =
            self.outstanding.pop_front().expect("a reply for a request that was sent");
        (i, now.saturating_sub(due))
    }
}
