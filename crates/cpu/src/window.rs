//! The instruction window (ROB) shared by all core models.
//!
//! A [`InstrWindow`] holds fetched-but-not-retired instructions in program
//! order. Capacity is counted in *dynamic* instructions, so a
//! `Compute(50)` batch occupies 50 entries — that keeps the window
//! pressure realistic while letting programs emit computation in batches.
//!
//! Slot ids only increase, so a slot is found by id from its distance to
//! the head's id. Every slot also records the window's cumulative *issue
//! depth* through itself, so a core can ask how deep a slot sits behind
//! the head in O(1) and resume an issue scan where it last stopped instead
//! of rescanning from the head.

use std::collections::VecDeque;

use bulksc_workloads::Instr;

/// Identifies a slot for the lifetime of the window (monotonic, never
/// reused).
pub type SlotId = u64;

/// Execution state of a window slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SlotState {
    /// Not yet issued to the memory system (or compute not started).
    Waiting,
    /// Access in flight.
    Issued,
    /// Complete; for reads, `value` holds the loaded value.
    Done,
}

/// One in-flight instruction.
///
/// The id, the remaining count and the tag are read-only outside the
/// window: lookups binary-search on the ids and every younger slot's issue
/// depth depends on the remaining counts.
#[derive(Clone, Debug)]
pub struct Slot {
    id: SlotId,
    /// The instruction.
    pub instr: Instr,
    /// Execution state.
    pub state: SlotState,
    /// Result value (reads), captured at completion.
    pub value: Option<u64>,
    remaining: u32,
    tag: u64,
    /// Cumulative issue depth through this slot, counted from the first
    /// push ever; [`InstrWindow::issue_depth`] rebases it on the head.
    depth_end: u64,
}

impl Slot {
    /// Stable identity; ids rise in program order.
    pub fn id(&self) -> SlotId {
        self.id
    }

    /// Dynamic instructions left to retire (compute batches drain over
    /// multiple cycles, through [`InstrWindow::drain_oldest_compute`]).
    pub fn remaining(&self) -> u32 {
        self.remaining
    }

    /// Owner-defined tag given at push time (the BulkSC core stores the
    /// sequence number of the chunk the slot was fetched into); untagged
    /// pushes carry 0.
    pub fn tag(&self) -> u64 {
        self.tag
    }
}

/// What one slot adds to the issue depth: a compute batch counts what it
/// has left to retire, every other slot counts one.
fn issue_weight(remaining: u32) -> u64 {
    remaining.max(1) as u64
}

/// Program-ordered window of in-flight instructions.
///
/// # Example
///
/// ```
/// use bulksc_cpu::window::{InstrWindow, SlotState};
/// use bulksc_workloads::Instr;
///
/// let mut w = InstrWindow::new(8);
/// let id = w.push(Instr::Compute(3)).unwrap();
/// assert_eq!(w.occupancy(), 3);
/// assert_eq!(w.oldest().unwrap().id(), id);
/// ```
#[derive(Clone, Debug)]
pub struct InstrWindow {
    slots: VecDeque<Slot>,
    next_id: SlotId,
    capacity: u32,
    occupancy: u64,
    /// `depth_end` of the newest slot (`depth_base` when empty).
    depth_pushed: u64,
    /// Issue depth retired or drained from the head: a slot's depth from
    /// the head is its `depth_end` minus this.
    depth_base: u64,
}

impl InstrWindow {
    /// An empty window holding up to `capacity` dynamic instructions.
    pub fn new(capacity: u32) -> Self {
        InstrWindow {
            slots: VecDeque::new(),
            next_id: 0,
            capacity,
            occupancy: 0,
            depth_pushed: 0,
            depth_base: 0,
        }
    }

    /// Dynamic instructions currently in flight.
    pub fn occupancy(&self) -> u64 {
        self.occupancy
    }

    /// True if `instr` fits right now. A single instruction larger than
    /// the whole capacity is admitted into an empty window (a compute
    /// batch must not deadlock fetch).
    pub fn has_room(&self, instr: &Instr) -> bool {
        self.occupancy + instr.dynamic_count() <= self.capacity as u64 || self.slots.is_empty()
    }

    /// Append an instruction in program order; `None` if there is no room.
    pub fn push(&mut self, instr: Instr) -> Option<SlotId> {
        self.push_tagged(instr, 0)
    }

    /// Append an instruction carrying `tag` (see [`Slot::tag`]); `None` if
    /// there is no room.
    pub fn push_tagged(&mut self, instr: Instr, tag: u64) -> Option<SlotId> {
        if !self.has_room(&instr) {
            return None;
        }
        let id = self.next_id;
        self.next_id += 1;
        self.occupancy += instr.dynamic_count();
        let remaining = match instr {
            Instr::Compute(n) => n,
            _ => 1,
        };
        self.depth_pushed += issue_weight(remaining);
        self.slots.push_back(Slot {
            id,
            instr,
            state: SlotState::Waiting,
            value: None,
            remaining,
            tag,
            depth_end: self.depth_pushed,
        });
        Some(id)
    }

    /// The oldest in-flight instruction.
    pub fn oldest(&self) -> Option<&Slot> {
        self.slots.front()
    }

    /// Mutable access to the oldest in-flight instruction.
    pub fn oldest_mut(&mut self) -> Option<&mut Slot> {
        self.slots.front_mut()
    }

    /// Retire the oldest instruction entirely, returning it.
    ///
    /// # Panics
    ///
    /// Panics if the window is empty.
    pub fn pop_oldest(&mut self) -> Slot {
        let slot = self.slots.pop_front().expect("pop from empty window");
        self.occupancy -= slot.remaining as u64; // remaining dynamic instrs
        self.depth_base = slot.depth_end;
        slot
    }

    /// Account the partial retirement of `n` dynamic instructions from the
    /// oldest (compute) slot.
    ///
    /// # Panics
    ///
    /// Panics if the oldest slot has fewer than `n` remaining.
    pub fn drain_oldest_compute(&mut self, n: u32) {
        let slot = self.slots.front_mut().expect("no oldest slot");
        assert!(slot.remaining >= n, "draining more than remains");
        self.depth_base += issue_weight(slot.remaining) - issue_weight(slot.remaining - n);
        slot.remaining -= n;
        self.occupancy -= n as u64;
    }

    /// Index of the oldest slot whose id is at least `id` (`len()` if
    /// there is none).
    ///
    /// Ids rise by at least one per slot, so that index is at most
    /// `id - head.id`, and exactly that unless a suffix squash left a gap
    /// in the ids: the common case costs one comparison, and a gap falls
    /// back to a binary search.
    fn position(&self, id: SlotId) -> usize {
        let Some(head) = self.slots.front() else {
            return 0;
        };
        let bound = id.saturating_sub(head.id).min(self.slots.len() as u64) as usize;
        if bound == 0 || self.slots[bound - 1].id < id {
            return bound;
        }
        self.slots.partition_point(|s| s.id < id)
    }

    /// Look up a slot by id.
    pub fn get_mut(&mut self, id: SlotId) -> Option<&mut Slot> {
        let i = self.position(id);
        self.slots.get_mut(i).filter(|s| s.id == id)
    }

    /// The issue depth of `slot`: dynamic instructions from the head
    /// through `slot` inclusive, with a compute batch counted by what it
    /// has left and every other slot as one.
    pub fn issue_depth(&self, slot: &Slot) -> u64 {
        slot.depth_end - self.depth_base
    }

    /// Iterate slots oldest-first.
    pub fn iter(&self) -> impl Iterator<Item = &Slot> {
        self.slots.iter()
    }

    /// Iterate the slots whose id is at least `id`, oldest-first.
    pub fn iter_from(&self, id: SlotId) -> impl Iterator<Item = &Slot> {
        self.slots.range(self.position(id)..)
    }

    /// Iterate the slots older than `id`, youngest-first (the order a
    /// store-forwarding search wants: the first match is the answer).
    pub fn older_than(&self, id: SlotId) -> impl Iterator<Item = &Slot> {
        self.slots.range(..self.position(id)).rev()
    }

    /// Iterate slots mutably, oldest-first.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut Slot> {
        self.slots.iter_mut()
    }

    /// Drop every in-flight instruction (window squash), returning how
    /// many dynamic instructions were discarded.
    pub fn squash_all(&mut self) -> u64 {
        let dropped = self.occupancy;
        self.slots.clear();
        self.occupancy = 0;
        self.depth_pushed = self.depth_base;
        dropped
    }

    /// Drop the newest slots while `drop(slot)` holds (a program-order
    /// suffix squash, as when one chunk of several is discarded).
    /// Returns the dynamic instructions discarded.
    pub fn squash_newest_while(&mut self, drop: impl Fn(&Slot) -> bool) -> u64 {
        let mut dropped = 0u64;
        while let Some(back) = self.slots.back() {
            if !drop(back) {
                break;
            }
            let slot = self.slots.pop_back().expect("checked");
            dropped += slot.remaining as u64;
        }
        self.occupancy -= dropped;
        self.depth_pushed = self.slots.back().map_or(self.depth_base, |s| s.depth_end);
        dropped
    }

    /// Number of slots (not dynamic instructions).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True if nothing is in flight.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bulksc_sig::Addr;

    fn load(a: u64) -> Instr {
        Instr::Load {
            addr: Addr(a),
            consume: false,
        }
    }

    #[test]
    fn capacity_counts_dynamic_instructions() {
        let mut w = InstrWindow::new(10);
        assert!(w.push(Instr::Compute(8)).is_some());
        assert!(w.push(load(0)).is_some());
        assert!(w.push(load(1)).is_some());
        assert_eq!(w.occupancy(), 10);
        assert!(w.push(load(2)).is_none(), "window full");
        assert_eq!(w.len(), 3);
    }

    #[test]
    fn oversized_batch_admitted_when_empty() {
        let mut w = InstrWindow::new(10);
        assert!(w.push(Instr::Compute(50)).is_some());
        assert_eq!(w.occupancy(), 50);
        assert!(w.push(load(0)).is_none());
    }

    #[test]
    fn pop_restores_capacity() {
        let mut w = InstrWindow::new(4);
        w.push(load(0)).unwrap();
        w.push(load(1)).unwrap();
        let s = w.pop_oldest();
        assert_eq!(s.instr, load(0));
        assert_eq!(w.occupancy(), 1);
        assert_eq!(w.oldest().unwrap().instr, load(1));
    }

    #[test]
    fn compute_drains_incrementally() {
        let mut w = InstrWindow::new(10);
        w.push(Instr::Compute(7)).unwrap();
        w.drain_oldest_compute(5);
        assert_eq!(w.occupancy(), 2);
        assert_eq!(w.oldest().unwrap().remaining, 2);
        w.drain_oldest_compute(2);
        assert_eq!(w.occupancy(), 0);
        let s = w.pop_oldest();
        assert_eq!(s.remaining, 0);
    }

    #[test]
    #[should_panic(expected = "draining more than remains")]
    fn overdrain_panics() {
        let mut w = InstrWindow::new(10);
        w.push(Instr::Compute(2)).unwrap();
        w.drain_oldest_compute(3);
    }

    #[test]
    fn ids_are_stable_and_lookup_works() {
        let mut w = InstrWindow::new(10);
        let a = w.push(load(0)).unwrap();
        let b = w.push(load(1)).unwrap();
        assert_ne!(a, b);
        w.get_mut(b).unwrap().state = SlotState::Issued;
        assert_eq!(w.get_mut(b).unwrap().state, SlotState::Issued);
        assert_eq!(w.get_mut(a).unwrap().state, SlotState::Waiting);
        w.pop_oldest();
        assert!(w.get_mut(a).is_none(), "retired slots are gone");
    }

    #[test]
    fn squash_suffix_drops_only_newest() {
        let mut w = InstrWindow::new(20);
        let a = w.push(load(0)).unwrap();
        let b = w.push(Instr::Compute(5)).unwrap();
        let c = w.push(load(1)).unwrap();
        let dropped = w.squash_newest_while(|s| s.id >= b);
        assert_eq!(dropped, 6);
        assert_eq!(w.occupancy(), 1);
        assert_eq!(w.oldest().unwrap().id, a);
        assert!(w.get_mut(c).is_none());
    }

    #[test]
    fn lookup_skips_the_gap_a_suffix_squash_leaves() {
        let mut w = InstrWindow::new(20);
        let a = w.push(load(0)).unwrap();
        let b = w.push(load(1)).unwrap();
        let c = w.push(load(2)).unwrap();
        w.squash_newest_while(|s| s.id >= b);
        // Ids are never reused: the next push jumps the gap.
        let d = w.push(load(3)).unwrap();
        assert!(d > c);
        assert_eq!(w.get_mut(a).unwrap().instr, load(0));
        assert!(w.get_mut(b).is_none() && w.get_mut(c).is_none());
        assert_eq!(w.get_mut(d).unwrap().instr, load(3));
        // A scan from a squashed id resumes at the first surviving
        // younger slot.
        let from_b: Vec<SlotId> = w.iter_from(b).map(|s| s.id).collect();
        assert_eq!(from_b, vec![d]);
        w.pop_oldest();
        assert!(w.get_mut(a).is_none());
        assert_eq!(w.get_mut(d).unwrap().id, d);
    }

    #[test]
    fn tags_ride_along_with_their_slots() {
        let mut w = InstrWindow::new(20);
        let a = w.push_tagged(load(0), 3).unwrap();
        let b = w.push(load(1)).unwrap();
        assert_eq!(w.get_mut(a).unwrap().tag, 3);
        assert_eq!(w.get_mut(b).unwrap().tag, 0);
    }

    /// The issue depth of every slot, recomputed the slow way: a scan from
    /// the head summing each slot's weight.
    fn scanned_depths(w: &InstrWindow) -> Vec<u64> {
        let mut depth = 0;
        w.iter()
            .map(|s| {
                depth += issue_weight(s.remaining);
                depth
            })
            .collect()
    }

    fn cached_depths(w: &InstrWindow) -> Vec<u64> {
        w.iter().map(|s| w.issue_depth(s)).collect()
    }

    #[test]
    fn issue_depth_tracks_partial_compute_drain() {
        let mut w = InstrWindow::new(40);
        w.push(Instr::Compute(10)).unwrap();
        w.push(load(0)).unwrap();
        w.push(Instr::Compute(4)).unwrap();
        assert_eq!(cached_depths(&w), vec![10, 11, 15]);
        w.drain_oldest_compute(7);
        assert_eq!(cached_depths(&w), vec![3, 4, 8]);
        assert_eq!(cached_depths(&w), scanned_depths(&w));
        // Drained to zero the head still counts one until it pops.
        w.drain_oldest_compute(3);
        assert_eq!(cached_depths(&w), vec![1, 2, 6]);
        assert_eq!(cached_depths(&w), scanned_depths(&w));
        w.pop_oldest();
        assert_eq!(cached_depths(&w), vec![1, 5]);
        assert_eq!(cached_depths(&w), scanned_depths(&w));
    }

    #[test]
    fn issue_depth_survives_suffix_squash_and_new_pushes() {
        let mut w = InstrWindow::new(40);
        w.push(Instr::Compute(5)).unwrap();
        let b = w.push(load(0)).unwrap();
        w.push(Instr::Compute(6)).unwrap();
        w.drain_oldest_compute(2);
        w.squash_newest_while(|s| s.id >= b);
        assert_eq!(cached_depths(&w), vec![3]);
        w.push(Instr::Compute(2)).unwrap();
        w.push(load(1)).unwrap();
        assert_eq!(cached_depths(&w), vec![3, 5, 6]);
        assert_eq!(cached_depths(&w), scanned_depths(&w));
        // Squashing everything and refilling restarts from the head.
        w.squash_newest_while(|_| true);
        w.push(load(2)).unwrap();
        assert_eq!(cached_depths(&w), vec![1]);
        w.squash_all();
        w.push(Instr::Compute(3)).unwrap();
        assert_eq!(cached_depths(&w), vec![3]);
    }

    #[test]
    fn older_than_scans_youngest_first() {
        let mut w = InstrWindow::new(20);
        let a = w.push(load(0)).unwrap();
        let b = w.push(load(1)).unwrap();
        let c = w.push(load(2)).unwrap();
        let d = w.push(load(3)).unwrap();
        let older: Vec<SlotId> = w.older_than(d).map(|s| s.id).collect();
        assert_eq!(older, vec![c, b, a]);
        assert_eq!(w.older_than(a).count(), 0);
        // An id past the newest slot sees the whole window.
        assert_eq!(w.older_than(d + 10).count(), 4);
        w.pop_oldest();
        let older: Vec<SlotId> = w.older_than(c).map(|s| s.id).collect();
        assert_eq!(older, vec![b]);
    }

    #[test]
    fn squash_drops_everything() {
        let mut w = InstrWindow::new(20);
        w.push(Instr::Compute(5)).unwrap();
        w.push(load(0)).unwrap();
        assert_eq!(w.squash_all(), 6);
        assert!(w.is_empty());
        assert_eq!(w.occupancy(), 0);
    }
}
