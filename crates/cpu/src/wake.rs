//! A core's next wakeup, derived from its own tick.
//!
//! Each pipeline stage reports what it found while it ran: a state change
//! ([`Wake::progress`]), or a deadline it tested against the current cycle
//! ([`Wake::due`]). The tick's result is then the cycle the core must run
//! again if no message arrives — there is no second, hand-written copy of
//! the stages' predicates to drift out of step with them.

use bulksc_net::Cycle;

/// The next cycle a core must tick, accumulated over one tick: the next
/// cycle if any stage changed state; otherwise the earliest deadline a
/// stage found still in the future; otherwise [`Cycle::MAX`] (only a
/// message can wake the core).
///
/// # Example
///
/// ```
/// use bulksc_cpu::Wake;
///
/// let mut w = Wake::new(10);
/// assert!(w.due(7)); // passed deadlines are due, not registered
/// assert!(!w.due(15));
/// assert!(!w.due(12));
/// assert_eq!(w.at(), 12);
/// w.progress();
/// assert_eq!(w.at(), 11);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct Wake {
    now: Cycle,
    at: Cycle,
}

impl Wake {
    /// Start a tick at `now` with no work and no deadline seen.
    pub fn new(now: Cycle) -> Self {
        Wake {
            now,
            at: Cycle::MAX,
        }
    }

    /// A stage changed state: the core runs again next cycle.
    pub fn progress(&mut self) {
        self.at = self.now + 1;
    }

    /// Has `deadline` been reached? If not, it bounds the wakeup.
    pub fn due(&mut self, deadline: Cycle) -> bool {
        if deadline <= self.now {
            return true;
        }
        self.at = self.at.min(deadline);
        false
    }

    /// The cycle the core must tick next absent messages.
    pub fn at(self) -> Cycle {
        self.at
    }
}
