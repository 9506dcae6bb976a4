//! The event-collection crossbar (§IV-E).
//!
//! Generation streams share crossbar ports in groups; each port forwards at
//! most one event per cycle, and each destination bin accepts at most one
//! event per cycle. The network is unidirectional and events are fixed
//! size, the two properties the paper leans on to keep it simple.

use std::collections::VecDeque;

use crate::wake::WakeSet;
use crate::Event;

/// Where a routed event is headed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Route {
    /// A bin of the resident slice (slot address precomputed by the sender).
    Bin {
        /// Destination bin index.
        bin: usize,
        /// Row within the bin.
        row: usize,
        /// Column within the row.
        col: usize,
    },
    /// An inactive slice's off-chip spill buffer (§IV-F).
    Spill {
        /// Destination slice index.
        slice: usize,
    },
}

/// A routed event waiting in a port FIFO.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Flit<D> {
    pub route: Route,
    pub event: Event<D>,
}

/// The P-port collection crossbar.
#[derive(Debug)]
pub(crate) struct Crossbar<D> {
    ports: Vec<VecDeque<Flit<D>>>,
    port_cap: usize,
    /// The ports with a flit buffered.
    waiting: WakeSet,
    /// `taken[b]` is the cycle bin `b` last took a flit (one per cycle).
    taken: Vec<Option<u64>>,
    pub(crate) flits_sent: u64,
}

impl<D: Copy> Crossbar<D> {
    pub(crate) fn new(ports: usize, port_cap: usize, bins: usize) -> Self {
        assert!(
            ports > 0 && port_cap > 0,
            "crossbar needs ports and buffers"
        );
        Crossbar {
            ports: vec![VecDeque::new(); ports],
            port_cap,
            waiting: WakeSet::new(ports),
            taken: vec![None; bins],
            flits_sent: 0,
        }
    }

    /// Whether `port` can take another flit this cycle.
    pub(crate) fn can_send(&self, port: usize) -> bool {
        self.ports[port].len() < self.port_cap
    }

    /// Enqueues a flit at `port`.
    ///
    /// # Panics
    ///
    /// Panics if the port buffer is full; gate with [`Crossbar::can_send`].
    pub(crate) fn send(&mut self, port: usize, flit: Flit<D>) {
        assert!(self.can_send(port), "crossbar port overflow");
        self.ports[port].push_back(flit);
        self.waiting.insert(port);
        self.flits_sent += 1;
    }

    /// Delivery in the machine's `cycle`-th cycle: every port may forward
    /// its head flit if the destination takes it (one event per bin per
    /// cycle; spills always do). `offer` is handed each candidate and says
    /// whether the destination had room and consumed it; a bin is offered
    /// at most one flit it accepts per cycle.
    ///
    /// Port priority rotates by one every cycle, empty or not, which keeps
    /// arbitration fair — so it is read off the cycle count, and a cycle
    /// with nothing buffered needs no call at all.
    pub(crate) fn tick(&mut self, cycle: u64, mut offer: impl FnMut(Flit<D>) -> bool) {
        if self.waiting.is_empty() {
            return;
        }
        // Ports `first..` then `..first`, the empty ones skipped.
        let first = (cycle % self.ports.len() as u64) as usize;
        let mut from = first;
        while let Some(p) = self.waiting.next_from(from) {
            self.forward_head(p, cycle, &mut offer);
            from = p + 1;
        }
        from = 0;
        while let Some(p) = self.waiting.next_from(from).filter(|&p| p < first) {
            self.forward_head(p, cycle, &mut offer);
            from = p + 1;
        }
    }

    /// Port `p`'s turn: forwards its head flit if the destination takes it.
    fn forward_head(&mut self, p: usize, cycle: u64, offer: &mut impl FnMut(Flit<D>) -> bool) {
        let head = *self.ports[p].front().expect("a waiting port has a head");
        let forwarded = match head.route {
            Route::Bin { bin, .. } => {
                let forwarded = self.taken[bin] != Some(cycle) && offer(head);
                if forwarded {
                    self.taken[bin] = Some(cycle);
                }
                forwarded
            }
            Route::Spill { .. } => {
                let taken = offer(head);
                debug_assert!(taken, "spills always accept");
                true
            }
        };
        if forwarded {
            self.ports[p].pop_front();
            if self.ports[p].is_empty() {
                self.waiting.remove(p);
            }
        }
    }

    /// Whether every port buffer is empty.
    pub(crate) fn is_empty(&self) -> bool {
        self.waiting.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gp_graph::VertexId;

    fn flit(bin: usize, v: u32) -> Flit<f64> {
        Flit {
            route: Route::Bin {
                bin,
                row: 0,
                col: 0,
            },
            event: Event::new(VertexId::new(v), 1.0, 0),
        }
    }

    /// An `offer` for bins with the given room: records what it takes.
    fn taking<'a>(
        accepts: &'a [bool],
        delivered: &'a mut Vec<VertexId>,
    ) -> impl FnMut(Flit<f64>) -> bool + 'a {
        move |f| {
            let room = match f.route {
                Route::Bin { bin, .. } => accepts[bin],
                Route::Spill { .. } => true,
            };
            if room {
                delivered.push(f.event.target);
            }
            room
        }
    }

    #[test]
    fn one_event_per_bin_per_cycle() {
        let mut xb: Crossbar<f64> = Crossbar::new(2, 4, 1);
        xb.send(0, flit(0, 1));
        xb.send(1, flit(0, 2)); // same destination bin
        let mut delivered = Vec::new();
        xb.tick(0, taking(&[true], &mut delivered));
        assert_eq!(delivered.len(), 1);
        xb.tick(1, taking(&[true], &mut delivered));
        assert_eq!(delivered.len(), 2);
        assert!(xb.is_empty());
    }

    #[test]
    fn different_bins_deliver_in_parallel() {
        let mut xb: Crossbar<f64> = Crossbar::new(2, 4, 2);
        xb.send(0, flit(0, 1));
        xb.send(1, flit(1, 2));
        let mut delivered = Vec::new();
        xb.tick(0, taking(&[true, true], &mut delivered));
        assert_eq!(delivered.len(), 2);
    }

    #[test]
    fn backpressured_bin_blocks_head_of_line() {
        let mut xb: Crossbar<f64> = Crossbar::new(1, 4, 2);
        xb.send(0, flit(0, 1));
        xb.send(0, flit(1, 2));
        let mut delivered = Vec::new();
        // Bin 0 rejects; head-of-line blocks the flit for bin 1 too.
        xb.tick(0, taking(&[false, true], &mut delivered));
        assert!(delivered.is_empty());
        xb.tick(1, taking(&[true, true], &mut delivered));
        assert_eq!(delivered, vec![VertexId::new(1)]);
    }

    #[test]
    fn spills_always_deliver() {
        let mut xb: Crossbar<f64> = Crossbar::new(1, 4, 1);
        xb.send(
            0,
            Flit {
                route: Route::Spill { slice: 2 },
                event: Event::new(VertexId::new(9), 1.0, 0),
            },
        );
        let mut got = None;
        xb.tick(0, |f| {
            got = Some(f.route);
            true
        });
        assert_eq!(got, Some(Route::Spill { slice: 2 }));
    }

    #[test]
    fn port_priority_follows_the_cycle_count_across_idle_cycles() {
        // Two ports contend for bin 0. Priority starts at port
        // `cycle % ports`, whether or not the cycles before were ticked:
        // an every-cycle caller and one that skips empty cycles agree.
        for skip_idle in [false, true] {
            let mut xb: Crossbar<f64> = Crossbar::new(2, 4, 1);
            if !skip_idle {
                for cycle in 0..5 {
                    xb.tick(cycle, |_| unreachable!("nothing buffered"));
                }
            }
            xb.send(0, flit(0, 10));
            xb.send(1, flit(0, 11));
            let mut delivered = Vec::new();
            xb.tick(5, taking(&[true], &mut delivered)); // 5 % 2: port 1 first
            xb.tick(6, taking(&[true], &mut delivered));
            assert_eq!(delivered, vec![VertexId::new(11), VertexId::new(10)]);
        }
    }

    #[test]
    fn port_capacity_enforced() {
        let mut xb: Crossbar<f64> = Crossbar::new(1, 1, 1);
        assert!(xb.can_send(0));
        xb.send(0, flit(0, 1));
        assert!(!xb.can_send(0));
        assert_eq!(xb.flits_sent, 1);
    }
}
