//! The L1 miss table both core models share: MSHRs, Nack retry, the
//! directory fetches that wait on the core's own in-flight fill, and the
//! miss counters.
//!
//! The figures compare consistency models on one memory system, so every
//! core model must overlap, retry and account its L1 misses the same way.
//! This table does all of that once. What differs between the models stays
//! with the caller: which request message goes to which directory, how a
//! fetched line is surrendered, and what a stale fill does to its waiting
//! loads.
//!
//! Deadlines (a nacked miss's retry, a deferred fetch's answer time) are
//! tested through the caller's [`Wake`], so they bound the core's next
//! wakeup; a full MSHR budget registers none, since only a message (a
//! fill or a Nack) can free an MSHR.

use std::collections::BTreeMap;
use std::fmt;

use bulksc_net::{Cycle, NodeId};
use bulksc_sig::LineAddr;
use bulksc_stats::Histogram;

use crate::config::CoreConfig;
use crate::wake::Wake;
use crate::window::SlotId;

/// Miss counters for one core.
#[derive(Clone, Debug, Default)]
pub struct MissStats {
    /// L1 misses (requests sent to a directory).
    pub l1_misses: u64,
    /// Nacks received.
    pub nacks: u64,
    /// L1 miss latency: request sent to fill (or upgrade ack) received.
    pub lat_miss: Histogram,
}

#[derive(Debug)]
struct MissEntry {
    /// True if exclusivity (ownership) is required.
    excl: bool,
    /// Request currently in flight.
    sent: bool,
    /// Cycle the request went out (for miss-latency accounting).
    sent_at: Cycle,
    /// Retry barrier after a Nack.
    retry_at: Cycle,
    /// Loads waiting for this line.
    waiting_loads: Vec<SlotId>,
    /// An invalidation raced past the in-flight fill: the response data is
    /// already stale by coherence order and must not be installed.
    invalidated: bool,
}

/// A fill whose line was invalidated while it was in flight. Its miss
/// entry is gone from the table; the caller decides whether to request
/// the line again.
#[derive(Debug)]
pub struct StaleFill {
    /// The miss required exclusivity.
    pub excl: bool,
    /// Loads that were waiting for the fill.
    pub waiting_loads: Vec<SlotId>,
    /// A directory fetch (requester, for exclusivity) that waited on the
    /// fill: no fill will land, so it must be answered now.
    pub fetch: Option<(NodeId, bool)>,
}

/// One core's outstanding L1 misses, keyed by line.
#[derive(Debug)]
pub struct MissTable {
    entries: BTreeMap<LineAddr, MissEntry>,
    /// Fetch requests that arrived while our own fill for the line was in
    /// flight: answered after the fill lands (plus a grace cycle so the
    /// head store can perform during its ownership tenure).
    pending_fetches: BTreeMap<LineAddr, (NodeId, bool)>,
    deferred_fetches: Vec<(Cycle, LineAddr, NodeId, bool)>,
    /// Entries whose request is in flight (`sent`), so a tick with
    /// nothing to send costs no walk over the table.
    in_flight: u32,
    mshrs: u32,
    nack_retry: Cycle,
    l1_latency: Cycle,
    stats: MissStats,
}

impl MissTable {
    /// An empty table with `cfg`'s MSHR budget, Nack retry delay and L1
    /// latency.
    pub fn new(cfg: &CoreConfig) -> Self {
        MissTable {
            entries: BTreeMap::new(),
            pending_fetches: BTreeMap::new(),
            deferred_fetches: Vec::new(),
            in_flight: 0,
            mshrs: cfg.mshrs,
            nack_retry: cfg.nack_retry,
            l1_latency: cfg.l1_latency,
            stats: MissStats::default(),
        }
    }

    /// Miss counters.
    pub fn stats(&self) -> &MissStats {
        &self.stats
    }

    /// True if no miss is outstanding.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Register interest in `line`: `excl` requires ownership; `waiters`
    /// are load slots to hand back when the line arrives (each listed
    /// once). A new miss may be sent from `now` on. Returns true if this
    /// opened a miss or upgraded one to exclusive.
    pub fn want(
        &mut self,
        now: Cycle,
        line: LineAddr,
        excl: bool,
        waiters: impl IntoIterator<Item = SlotId>,
    ) -> bool {
        let mut changed = false;
        let entry = self.entries.entry(line).or_insert_with(|| {
            changed = true;
            MissEntry {
                excl,
                sent: false,
                sent_at: 0,
                retry_at: now,
                waiting_loads: Vec::new(),
                invalidated: false,
            }
        });
        changed |= excl && !entry.excl;
        entry.excl |= excl;
        for w in waiters {
            if !entry.waiting_loads.contains(&w) {
                entry.waiting_loads.push(w);
            }
        }
        changed
    }

    /// Mark unsent misses whose retry time has come as sent, in line
    /// order, up to the free MSHRs. Returns each one's line and whether it
    /// needs exclusivity; the caller sends the request messages.
    pub fn send(&mut self, now: Cycle, wake: &mut Wake) -> Vec<(LineAddr, bool)> {
        debug_assert_eq!(
            self.in_flight as usize,
            self.entries.values().filter(|m| m.sent).count(),
            "in-flight count drifted"
        );
        let budget = self.mshrs.saturating_sub(self.in_flight) as usize;
        if budget == 0 || self.in_flight as usize == self.entries.len() {
            // Only a fill or a nack (a message) frees an MSHR, and with
            // nothing unsent there is no deadline to register.
            return Vec::new();
        }
        let sends: Vec<(LineAddr, bool)> = self
            .entries
            .iter_mut()
            .filter(|(_, m)| !m.sent && wake.due(m.retry_at))
            .take(budget)
            .map(|(&line, m)| {
                m.sent = true;
                m.sent_at = now;
                (line, m.excl)
            })
            .collect();
        if !sends.is_empty() {
            wake.progress();
        }
        self.in_flight += sends.len() as u32;
        self.stats.l1_misses += sends.len() as u64;
        sends
    }

    /// The directory refused `line`'s request: retry it `nack_retry`
    /// cycles from `now`. No fill is coming, so a fetch deferred behind it
    /// is returned to be answered now (we are a false owner — §4.3.1's
    /// graceful case).
    pub fn nack(&mut self, now: Cycle, line: LineAddr) -> Option<(NodeId, bool)> {
        self.stats.nacks += 1;
        if let Some(m) = self.entries.get_mut(&line) {
            self.in_flight -= m.sent as u32;
            m.sent = false;
            m.retry_at = now + self.nack_retry;
        }
        self.pending_fetches.remove(&line)
    }

    /// A directory fetch for `line` arrived from `src`. If our own fill
    /// for the line is still in flight (the directory made us owner before
    /// our data arrived), it waits for that fill and this returns true;
    /// otherwise the caller answers it now.
    pub fn defer_fetch(&mut self, line: LineAddr, src: NodeId, for_excl: bool) -> bool {
        let in_flight = self.entries.get(&line).is_some_and(|m| m.sent);
        if in_flight {
            self.pending_fetches.insert(line, (src, for_excl));
        }
        in_flight
    }

    /// `line` was invalidated: a fill already on its way is stale.
    pub fn mark_invalidated(&mut self, line: LineAddr) {
        if let Some(m) = self.entries.get_mut(&line) {
            m.invalidated = true;
        }
    }

    /// Mark every in-flight fill whose line satisfies `hit` as stale.
    pub fn invalidate_in_flight(&mut self, hit: impl Fn(LineAddr) -> bool) {
        for (&line, m) in self.entries.iter_mut() {
            if m.sent && hit(line) {
                m.invalidated = true;
            }
        }
    }

    /// The stale-fill test for a fill of `line`: if an invalidation raced
    /// past it, the miss is removed and returned. Otherwise the fill is
    /// good, the table is unchanged, and the caller installs the line and
    /// then calls [`MissTable::fill`].
    pub fn stale_fill(&mut self, line: LineAddr) -> Option<StaleFill> {
        if !self.entries.get(&line).is_some_and(|m| m.invalidated) {
            return None;
        }
        let m = self.entries.remove(&line).expect("checked above");
        self.in_flight -= m.sent as u32;
        Some(StaleFill {
            excl: m.excl,
            waiting_loads: m.waiting_loads,
            fetch: self.pending_fetches.remove(&line),
        })
    }

    /// `line` arrived at `now` (data or upgrade ack): close its miss,
    /// recording its latency if a request was sent, and return the loads
    /// that waited for it. A fetch deferred behind the fill is answered
    /// `l1_latency + 1` cycles later.
    pub fn fill(&mut self, now: Cycle, line: LineAddr) -> Vec<SlotId> {
        let mut waiting = Vec::new();
        if let Some(m) = self.entries.remove(&line) {
            if m.sent {
                self.in_flight -= 1;
                self.stats.lat_miss.record(now.saturating_sub(m.sent_at));
            }
            waiting = m.waiting_loads;
        }
        if let Some((src, for_excl)) = self.pending_fetches.remove(&line) {
            self.deferred_fetches
                .push((now + self.l1_latency + 1, line, src, for_excl));
        }
        waiting
    }

    /// Remove and return the deferred fetches whose answer time has come
    /// (`(line, requester, for exclusivity)`, in deferral order).
    pub fn due_fetches(&mut self, wake: &mut Wake) -> Vec<(LineAddr, NodeId, bool)> {
        let mut due = Vec::new();
        self.deferred_fetches.retain(|&(t, line, src, for_excl)| {
            let answer = wake.due(t);
            if answer {
                due.push((line, src, for_excl));
            }
            !answer
        });
        if !due.is_empty() {
            wake.progress();
        }
        due
    }

    /// Forget every waiting load (their slots were squashed); the misses
    /// stay so in-flight data still fills the cache.
    pub fn clear_waiters(&mut self) {
        for m in self.entries.values_mut() {
            m.waiting_loads.clear();
        }
    }
}

/// The outstanding misses and the fetches waiting on them, by line.
impl fmt::Display for MissTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let misses: Vec<String> = self
            .entries
            .iter()
            .map(|(l, m)| {
                format!(
                    "{l}:sent={},inv={},retry={}",
                    m.sent, m.invalidated, m.retry_at
                )
            })
            .collect();
        let fetches: Vec<String> = self.pending_fetches.keys().map(|l| l.to_string()).collect();
        write!(f, "misses={misses:?} pend_fetch={fetches:?}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DIR: NodeId = NodeId::Dir(0);

    fn table(mshrs: u32) -> MissTable {
        MissTable::new(&CoreConfig {
            mshrs,
            ..CoreConfig::default()
        })
    }

    fn send(t: &mut MissTable, now: Cycle) -> (Vec<(LineAddr, bool)>, Cycle) {
        let mut wake = Wake::new(now);
        let sent = t.send(now, &mut wake);
        (sent, wake.at())
    }

    #[test]
    fn sends_stop_at_the_mshr_budget_in_line_order() {
        let mut t = table(2);
        for l in [9, 3, 5] {
            assert!(t.want(0, LineAddr(l), l == 5, None));
        }
        let (sent, wake) = send(&mut t, 0);
        assert_eq!(sent, vec![(LineAddr(3), false), (LineAddr(5), true)]);
        assert_eq!(wake, 1);
        // A full budget registers no deadline: only a message frees it.
        assert_eq!(send(&mut t, 1), (vec![], Cycle::MAX));
        assert_eq!(t.stats().l1_misses, 2);
    }

    #[test]
    fn nack_clears_sent_sets_retry_and_returns_the_pending_fetch() {
        let mut t = table(8);
        t.want(0, LineAddr(1), false, None);
        send(&mut t, 0);
        assert!(t.defer_fetch(LineAddr(1), DIR, true));
        assert_eq!(t.nack(10, LineAddr(1)), Some((DIR, true)));
        assert_eq!(t.stats().nacks, 1);
        let retry = 10 + CoreConfig::default().nack_retry;
        assert_eq!(send(&mut t, 11), (vec![], retry));
        assert_eq!(send(&mut t, retry).0, vec![(LineAddr(1), false)]);
        // Not in flight any more after a fill: a fetch is answered at once.
        t.fill(retry + 5, LineAddr(1));
        assert!(!t.defer_fetch(LineAddr(1), DIR, false));
    }

    #[test]
    fn fetch_behind_own_fill_is_answered_after_the_grace_cycle() {
        let mut t = table(8);
        t.want(0, LineAddr(4), true, None);
        assert!(!t.defer_fetch(LineAddr(4), DIR, false), "not sent yet");
        send(&mut t, 0);
        assert!(t.defer_fetch(LineAddr(4), DIR, false));
        t.fill(50, LineAddr(4));
        let at = 50 + CoreConfig::default().l1_latency + 1;
        let mut early = Wake::new(at - 1);
        assert!(t.due_fetches(&mut early).is_empty());
        assert_eq!(early.at(), at, "the answer time bounds the wakeup");
        let mut due = Wake::new(at);
        assert_eq!(t.due_fetches(&mut due), vec![(LineAddr(4), DIR, false)]);
        assert_eq!(due.at(), at + 1);
    }

    #[test]
    fn an_invalidated_fill_is_stale() {
        let mut t = table(8);
        t.want(0, LineAddr(2), true, Some(7));
        t.want(0, LineAddr(3), false, None);
        send(&mut t, 0);
        assert!(t.stale_fill(LineAddr(2)).is_none());
        assert!(t.defer_fetch(LineAddr(2), DIR, true));
        t.invalidate_in_flight(|l| l == LineAddr(2));
        let stale = t.stale_fill(LineAddr(2)).expect("stale");
        assert!(stale.excl);
        assert_eq!(stale.waiting_loads, vec![7]);
        assert_eq!(stale.fetch, Some((DIR, true)));
        // Only the in-flight line was marked; a plain mark hits unsent
        // misses too.
        assert!(t.stale_fill(LineAddr(3)).is_none());
        t.want(0, LineAddr(6), false, None);
        t.mark_invalidated(LineAddr(6));
        assert!(t.stale_fill(LineAddr(6)).is_some());
    }

    #[test]
    fn miss_latency_counts_only_sent_requests() {
        let mut t = table(1);
        t.want(0, LineAddr(1), false, Some(1));
        t.want(0, LineAddr(2), false, Some(2));
        send(&mut t, 5);
        assert_eq!(t.fill(45, LineAddr(1)), vec![1]);
        assert_eq!(t.fill(50, LineAddr(2)), vec![2], "never sent");
        assert_eq!(t.stats().lat_miss.count(), 1);
        assert_eq!(t.stats().lat_miss.sum(), 40);
        assert!(t.is_empty());
    }

    #[test]
    fn shared_to_exclusive_upgrade_reports_a_change() {
        let mut t = table(8);
        assert!(t.want(0, LineAddr(1), false, Some(3)));
        assert!(!t.want(0, LineAddr(1), false, Some(3)));
        assert!(t.want(0, LineAddr(1), true, None));
        assert!(!t.want(0, LineAddr(1), true, None));
        assert_eq!(send(&mut t, 0).0, vec![(LineAddr(1), true)]);
        assert_eq!(t.fill(9, LineAddr(1)), vec![3], "waiters listed once");
    }
}
