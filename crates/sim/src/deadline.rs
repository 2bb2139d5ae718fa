//! The armed-deadline rule for self-rescheduling wakeups.
//!
//! A component that wakes itself through the event queue (a flow's
//! transport timer, an application clock, a queue's next departure)
//! keeps one [`Deadline`]: the instant of its earliest scheduled
//! wakeup. The queue cannot cancel events, so re-arming *earlier*
//! leaves the later wakeup behind in the queue. The rule that keeps one
//! wakeup chain from turning into several:
//!
//! * schedule a wakeup only when [`Deadline::arm`] says the instant is
//!   earlier than the armed one;
//! * when a wakeup pops, act only if [`Deadline::fire`] says it is the
//!   armed one. A superseded wakeup is dropped: it neither acts nor
//!   re-arms.
//!
//! `fire` compares instants exactly, so arm only instants at or after
//! the queue's clock (the queue moves a past instant up to *now*, which
//! would then never match).

use crate::time::Instant;

/// The instant of a component's earliest scheduled wakeup, or
/// [`Deadline::DISARMED`] when none is pending.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Deadline(Instant);

impl Deadline {
    /// No wakeup pending.
    pub const DISARMED: Deadline = Deadline(Instant::MAX);

    /// Arm at `at` if it is earlier than the armed instant. Returns
    /// `true` when it is: the caller must schedule a wakeup at `at`.
    /// Arming at or after the armed instant changes nothing (the
    /// pending wakeup comes first), and [`Instant::MAX`] never arms.
    #[inline]
    pub fn arm(&mut self, at: Instant) -> bool {
        let earlier = at < self.0;
        if earlier {
            self.0 = at;
        }
        earlier
    }

    /// A wakeup scheduled for `now` popped. Returns `true`, and
    /// disarms, only when `now` is the armed instant; a superseded
    /// wakeup returns `false` and the caller drops it.
    #[inline]
    pub fn fire(&mut self, now: Instant) -> bool {
        let due = now == self.0;
        if due {
            self.0 = Instant::MAX;
        }
        due
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> Instant {
        Instant::from_millis(ms)
    }

    #[test]
    fn arming_later_is_a_no_op() {
        let mut d = Deadline::DISARMED;
        assert!(d.arm(t(10)));
        assert!(!d.arm(t(20)), "a later instant must not schedule");
        assert!(!d.arm(t(10)), "the armed instant itself must not schedule");
        assert!(!d.fire(t(20)));
        assert!(d.fire(t(10)));
    }

    #[test]
    fn arming_earlier_re_arms_and_supersedes() {
        let mut d = Deadline::DISARMED;
        assert!(d.arm(t(10)));
        assert!(d.arm(t(5)), "an earlier instant must schedule");
        assert!(d.fire(t(5)));
        // The wakeup left behind at 10 ms is superseded: it neither
        // fires nor disturbs the (now empty) deadline.
        assert!(!d.fire(t(10)));
        assert_eq!(d, Deadline::DISARMED);
    }

    #[test]
    fn superseded_fire_keeps_the_armed_instant() {
        let mut d = Deadline::DISARMED;
        assert!(d.arm(t(10)));
        assert!(d.arm(t(5)));
        assert!(d.fire(t(5)));
        // The handler re-armed past the stale 10 ms wakeup.
        assert!(d.arm(t(15)));
        assert!(!d.fire(t(10)), "stale wakeup at 10 ms");
        assert!(d.fire(t(15)), "the armed wakeup still fires");
    }

    #[test]
    fn same_instant_re_arm_fires_once_per_arm() {
        let mut d = Deadline::DISARMED;
        assert!(d.arm(t(10)));
        // Two wakeups queued at 10 ms (one left behind by an earlier
        // re-arm): the first fires, and a handler that re-arms at the
        // same instant schedules a third.
        assert!(d.fire(t(10)));
        assert!(d.arm(t(10)), "disarmed, so the same instant re-arms");
        assert!(d.fire(t(10)), "the second queued wakeup takes the re-arm");
        assert!(!d.fire(t(10)), "the third is superseded");
    }

    #[test]
    fn max_never_arms() {
        let mut d = Deadline::DISARMED;
        assert!(!d.arm(Instant::MAX));
        assert_eq!(d, Deadline::DISARMED);
    }
}
