//! Which units the machine has to visit this cycle.
//!
//! The paper's machine is event-driven: a unit works when an event, a line
//! or a slot reaches it. The model follows suit — a unit whose next tick
//! cannot differ from its last one is *parked*, and stays parked until the
//! one thing that can change its mind happens. A [`WakeSet`] holds the
//! units of one kind that are not parked; a phase of
//! [`Machine::tick`](crate::machine) visits exactly its members, in index
//! order, because request ids, channel-queue order and with them DRAM
//! timing depend on who asks first.

use gp_sim::Cycle;

/// A set of unit indices, visited in ascending order.
#[derive(Debug, Clone)]
pub(crate) struct WakeSet {
    words: Vec<u64>,
}

impl WakeSet {
    /// An empty set over units `0..n`.
    pub(crate) fn new(n: usize) -> Self {
        WakeSet {
            words: vec![0; n.div_ceil(64)],
        }
    }

    pub(crate) fn insert(&mut self, i: usize) {
        self.words[i / 64] |= 1 << (i % 64);
    }

    pub(crate) fn remove(&mut self, i: usize) {
        self.words[i / 64] &= !(1 << (i % 64));
    }

    /// Inserts or removes `i`.
    pub(crate) fn set(&mut self, i: usize, member: bool) {
        if member {
            self.insert(i);
        } else {
            self.remove(i);
        }
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// The smallest member `>= from`. A visit loop calls this again after
    /// each visit, so a unit woken by an earlier unit of the same phase is
    /// still visited in that phase if — and only if — its index is higher.
    pub(crate) fn next_from(&self, from: usize) -> Option<usize> {
        let mut w = from / 64;
        let mut word = *self.words.get(w)? & (!0 << (from % 64));
        loop {
            if word != 0 {
                return Some(w * 64 + word.trailing_zeros() as usize);
            }
            w += 1;
            word = *self.words.get(w)?;
        }
    }

    /// Moves every member of `other` into `self`, emptying `other`.
    pub(crate) fn absorb(&mut self, other: &mut WakeSet) {
        for (dst, src) in self.words.iter_mut().zip(&mut other.words) {
            *dst |= std::mem::take(src);
        }
    }
}

/// A parked unit's unsettled span: every cycle from `since` on would have
/// recorded `state` in the unit's timeline and nothing else.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Parked {
    pub since: Cycle,
    pub state: usize,
}

impl Parked {
    /// Cycles slept up to (not including) `now`.
    pub(crate) fn slept(&self, now: Cycle) -> u64 {
        now - self.since
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn members_come_back_in_ascending_order() {
        let mut s = WakeSet::new(200);
        assert!(s.is_empty());
        for i in [130, 3, 64, 199, 63] {
            s.insert(i);
        }
        let mut seen = Vec::new();
        let mut from = 0;
        while let Some(i) = s.next_from(from) {
            seen.push(i);
            from = i + 1;
        }
        assert_eq!(seen, vec![3, 63, 64, 130, 199]);
        s.remove(64);
        assert_eq!(s.next_from(64), Some(130));
        assert_eq!(s.next_from(200), None);
    }

    #[test]
    fn a_member_added_mid_walk_is_seen_only_ahead_of_the_cursor() {
        let mut s = WakeSet::new(16);
        s.insert(5);
        let first = s.next_from(0).unwrap();
        s.insert(2); // behind the cursor: next cycle's business
        s.insert(9); // ahead of it: this cycle's
        assert_eq!(s.next_from(first + 1), Some(9));
        assert_eq!(s.next_from(10), None);
        assert_eq!(s.next_from(0), Some(2));
    }

    #[test]
    fn absorb_moves_and_empties() {
        let (mut a, mut b) = (WakeSet::new(70), WakeSet::new(70));
        a.insert(1);
        b.insert(69);
        b.insert(1);
        a.absorb(&mut b);
        assert!(b.is_empty());
        assert_eq!(a.next_from(2), Some(69));
        a.set(69, false);
        a.set(1, false);
        assert!(a.is_empty());
    }
}
