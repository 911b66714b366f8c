//! The engine's event queue: a calendar queue (Brown, CACM 1988) with
//! exactly the pop order of a binary heap over `(tick, class, seq)`.
//!
//! # Layout
//!
//! * **Ring.** [`SLOTS`] tick slots × [`CLASSES`] event classes. Each
//!   `(slot, class)` pair holds a FIFO list threaded through one shared
//!   node arena, with a free list. A ring entry stores only its `seq` and
//!   event; its tick and class are implied by the list it sits on. The
//!   ring covers the window `[base, base + SLOTS)`, so each slot holds
//!   one tick; `base` follows the last popped tick.
//! * **Far heap.** Events outside the window when pushed go to a small
//!   binary heap and stay there until popped; they never migrate.
//!
//! # Order
//!
//! Pop takes the smaller `(tick, class, seq)` of the ring head and the
//! far-heap head. The engine hands out `seq` in increasing order, so
//! appending keeps every list sorted by `seq`, and the pop order is
//! exactly the heap's.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;

use crate::event::{Event, QueuedEvent, Tick};

/// Tick slots in the ring (a multiple of 64, one occupancy bit each).
const SLOTS: usize = 256;
/// Intra-tick event classes (see [`Event`]'s ordering contract).
const CLASSES: usize = 4;
/// End-of-list marker for arena links.
const NIL: u32 = u32::MAX;

/// One ring entry, with the link to the next entry of its list (or of
/// the free list).
#[derive(Debug, Clone, Copy)]
struct Node {
    seq: u64,
    event: Event,
    next: u32,
}

/// A FIFO list of arena nodes.
#[derive(Debug, Clone, Copy)]
struct List {
    head: u32,
    tail: u32,
}

impl List {
    const EMPTY: List = List {
        head: NIL,
        tail: NIL,
    };
}

/// The engine's event queue: a ring of near-term tick slots plus a
/// far heap, popping in `(tick, class, seq)` order.
///
/// Every pushed `seq` must be larger than every `seq` pushed before it;
/// ticks are unrestricted, though the ring only holds ticks in the
/// window ahead of the last popped one.
pub struct CalendarQueue {
    /// Start of the ring's window: no ring entry is earlier, none is at
    /// or past `base + SLOTS`.
    base: Tick,
    /// Ring lists, indexed `slot * CLASSES + class`.
    lists: Box<[List]>,
    /// Bit `s` is set iff some list of slot `s` is non-empty.
    occupied: [u64; SLOTS / 64],
    /// Node arena shared by every ring list.
    nodes: Vec<Node>,
    /// Head of the free list threaded through `nodes`.
    free: u32,
    /// Entries on ring lists.
    ring_len: usize,
    /// Events that were outside the window when pushed.
    far: BinaryHeap<Reverse<QueuedEvent>>,
}

impl CalendarQueue {
    /// An empty queue whose window starts at `base` — the clock of the
    /// engine that owns it.
    pub fn new(base: Tick) -> Self {
        CalendarQueue {
            base,
            lists: vec![List::EMPTY; SLOTS * CLASSES].into_boxed_slice(),
            occupied: [0; SLOTS / 64],
            nodes: Vec::new(),
            free: NIL,
            ring_len: 0,
            far: BinaryHeap::new(),
        }
    }

    /// A queue at `base` holding `events`, which must be sorted (as
    /// [`Self::iter`] output is once sorted).
    pub fn from_sorted(base: Tick, events: Vec<QueuedEvent>) -> Self {
        debug_assert!(events.is_sorted(), "from_sorted needs sorted events");
        let mut queue = CalendarQueue::new(base);
        queue.nodes.reserve_exact(events.len());
        for qe in events {
            queue.push(qe.tick, qe.seq, qe.event);
        }
        queue
    }

    /// Queued events.
    pub fn len(&self) -> usize {
        self.ring_len + self.far.len()
    }

    /// Whether nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Queues `event` to fire at `tick` with tie-break `seq`.
    pub fn push(&mut self, tick: Tick, seq: u64, event: Event) {
        if tick.wrapping_sub(self.base) >= SLOTS as Tick {
            self.far.push(Reverse(QueuedEvent::new(tick, seq, event)));
            return;
        }
        let slot = (tick % SLOTS as Tick) as usize;
        let node = Node {
            seq,
            event,
            next: NIL,
        };
        let idx = if self.free == NIL {
            let idx = u32::try_from(self.nodes.len())
                .ok()
                .filter(|&i| i != NIL)
                .expect("event queue ring is limited to u32::MAX - 1 entries");
            self.nodes.push(node);
            idx
        } else {
            let idx = self.free;
            self.free = self.nodes[idx as usize].next;
            self.nodes[idx as usize] = node;
            idx
        };
        let list = &mut self.lists[slot * CLASSES + usize::from(event.class())];
        if list.tail == NIL {
            list.head = idx;
        } else {
            self.nodes[list.tail as usize].next = idx;
        }
        list.tail = idx;
        self.occupied[slot / 64] |= 1 << (slot % 64);
        self.ring_len += 1;
    }

    /// Removes and returns the first event in `(tick, class, seq)` order
    /// if it fires at or before `end`. When nothing does, the window
    /// moves up to `end`: the caller's clock is at `end` from then on, so
    /// no later push is earlier.
    pub fn pop_through(&mut self, end: Tick) -> Option<QueuedEvent> {
        let ring = self.ring_head();
        let far = self.far.peek().map(|Reverse(qe)| qe.key());
        let Some(next) = ring
            .map(|(key, _)| key)
            .into_iter()
            .chain(far)
            .min()
            .filter(|&(tick, _, _)| tick <= end)
        else {
            self.base = self.base.max(end);
            return None;
        };
        let qe = match ring {
            Some((key, l)) if key == next => self.pop_list(key.0, l),
            _ => self.far.pop().expect("the far heap holds the head").0,
        };
        self.base = self.base.max(qe.tick);
        Some(qe)
    }

    /// Every queued event, in no particular order.
    pub fn iter(&self) -> impl Iterator<Item = QueuedEvent> + '_ {
        let ring = (0..SLOTS * CLASSES).flat_map(move |l| {
            let tick = self.slot_tick(l / CLASSES);
            let mut idx = self.lists[l].head;
            std::iter::from_fn(move || {
                if idx == NIL {
                    return None;
                }
                let node = &self.nodes[idx as usize];
                idx = node.next;
                Some(QueuedEvent::new(tick, node.seq, node.event))
            })
        });
        ring.chain(self.far.iter().map(|Reverse(qe)| qe.clone()))
    }

    /// The tick a ring slot holds under the current window.
    fn slot_tick(&self, slot: usize) -> Tick {
        let from = (self.base % SLOTS as Tick) as usize;
        self.base
            .wrapping_add(((slot + SLOTS - from) % SLOTS) as Tick)
    }

    /// The earliest ring entry's `(tick, class, seq)` and list index.
    fn ring_head(&self) -> Option<((Tick, u8, u64), usize)> {
        if self.ring_len == 0 {
            return None;
        }
        let slot = self.next_occupied((self.base % SLOTS as Tick) as usize);
        let class = (0..CLASSES)
            .find(|&c| self.lists[slot * CLASSES + c].head != NIL)
            .expect("occupied slot has a non-empty list");
        let l = slot * CLASSES + class;
        let seq = self.nodes[self.lists[l].head as usize].seq;
        Some(((self.slot_tick(slot), class as u8, seq), l))
    }

    /// The first occupied slot at or after `from`, wrapping around; the
    /// ring must be non-empty.
    fn next_occupied(&self, from: usize) -> usize {
        let words = SLOTS / 64;
        let (word, bit) = (from / 64, from % 64);
        for step in 0..=words {
            let w = (word + step) % words;
            let mut bits = self.occupied[w];
            if step == 0 {
                bits &= !0u64 << bit;
            } else if step == words {
                bits &= !(!0u64 << bit);
            }
            if bits != 0 {
                return w * 64 + bits.trailing_zeros() as usize;
            }
        }
        unreachable!("next_occupied on an empty ring")
    }

    /// Unlinks the head of ring list `l` (which holds `tick`).
    fn pop_list(&mut self, tick: Tick, l: usize) -> QueuedEvent {
        let idx = self.lists[l].head;
        let node = self.nodes[idx as usize];
        self.lists[l].head = node.next;
        if node.next == NIL {
            self.lists[l].tail = NIL;
            let slot = l / CLASSES;
            let lists = &self.lists[slot * CLASSES..(slot + 1) * CLASSES];
            if lists.iter().all(|list| list.head == NIL) {
                self.occupied[slot / 64] &= !(1 << (slot % 64));
            }
        }
        self.nodes[idx as usize].next = self.free;
        self.free = idx;
        self.ring_len -= 1;
        QueuedEvent {
            tick,
            class: (l % CLASSES) as u8,
            seq: node.seq,
            event: node.event,
        }
    }
}

impl fmt::Debug for CalendarQueue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CalendarQueue")
            .field("base", &self.base)
            .field("ring", &self.ring_len)
            .field("far", &self.far.len())
            .finish_non_exhaustive()
    }
}
