//! Differential test of the engine's calendar event queue against the
//! binary heap over `(tick, class, seq)` it replaced: the same random
//! schedule of pushes and `pop_through` calls must pop the same events
//! in the same order, and sorted snapshots of both must agree — also
//! after a mid-run snapshot is rebuilt with `CalendarQueue::from_sorted`,
//! which is how `Engine::restore` rebuilds the queue.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};

use decay_core::NodeId;
use decay_engine::{CalendarQueue, EngineRng, Event, QueuedEvent, Tick};
use proptest::prelude::*;
use rand::Rng;

/// The span of ticks the calendar's ring covers ahead of its window
/// start. Schedules spread ticks over three times this, so events land
/// in the far heap, the ring wraps around, and far events fire before
/// ring events.
const WINDOW: Tick = 256;

/// How often a schedule took the queue's rarely-taken paths.
#[derive(Debug, Default)]
struct Coverage {
    /// Pushes at the tick being drained.
    same_tick_pushes: u64,
    /// Pops of events that were pushed outside the ring's window.
    far_pops: u64,
    /// Far pops while the ring still held events: the far head beat the
    /// ring head.
    far_before_ring: u64,
    /// Ring pops at ticks past the first lap of the ring.
    wrapped_pops: u64,
    /// `pop_through(end)` calls that stopped at `end` with events left.
    stopped_at_end: u64,
}

/// The calendar queue and the reference heap, fed the same operations.
struct Pair {
    calendar: CalendarQueue,
    heap: BinaryHeap<Reverse<QueuedEvent>>,
    seq: u64,
    now: Tick,
    /// The calendar's window start, tracked here only to classify
    /// events as near or far for [`Coverage`]; nothing is asserted
    /// about it.
    base: Tick,
    far: HashSet<u64>,
    coverage: Coverage,
}

impl Pair {
    fn new() -> Self {
        Pair {
            calendar: CalendarQueue::new(0),
            heap: BinaryHeap::new(),
            seq: 0,
            now: 0,
            base: 0,
            far: HashSet::new(),
            coverage: Coverage::default(),
        }
    }

    fn push(&mut self, tick: Tick, event: Event) {
        if tick == self.now {
            self.coverage.same_tick_pushes += 1;
        }
        if tick - self.base >= WINDOW {
            self.far.insert(self.seq);
        }
        self.calendar.push(tick, self.seq, event);
        self.heap
            .push(Reverse(QueuedEvent::new(tick, self.seq, event)));
        self.seq += 1;
    }

    fn pop_through(&mut self, end: Tick) -> Result<Option<QueuedEvent>, TestCaseError> {
        let expected = match self.heap.peek() {
            Some(Reverse(head)) if head.tick <= end => self.heap.pop().map(|Reverse(qe)| qe),
            _ => None,
        };
        let got = self.calendar.pop_through(end);
        prop_assert_eq!(&got, &expected);
        prop_assert_eq!(self.calendar.len(), self.heap.len());
        match &got {
            Some(qe) => {
                self.now = qe.tick;
                self.base = self.base.max(qe.tick);
                if self.far.remove(&qe.seq) {
                    self.coverage.far_pops += 1;
                    if self.heap.len() > self.far.len() {
                        self.coverage.far_before_ring += 1;
                    }
                } else if qe.tick >= WINDOW {
                    self.coverage.wrapped_pops += 1;
                }
            }
            None => {
                if !self.heap.is_empty() {
                    self.coverage.stopped_at_end += 1;
                }
                self.now = self.now.max(end);
                self.base = self.base.max(end);
            }
        }
        Ok(got)
    }

    /// Compares sorted snapshots, then rebuilds the calendar from its
    /// own snapshot at the current clock.
    fn snapshot_and_restore(&mut self) -> Result<(), TestCaseError> {
        let mut snapshot: Vec<QueuedEvent> = self.calendar.iter().collect();
        snapshot.sort();
        let mut reference: Vec<QueuedEvent> = self.heap.iter().map(|r| r.0.clone()).collect();
        reference.sort();
        prop_assert_eq!(&snapshot, &reference);
        self.base = self.now;
        self.far = snapshot
            .iter()
            .filter(|qe| qe.tick - self.base >= WINDOW)
            .map(|qe| qe.seq)
            .collect();
        self.calendar = CalendarQueue::from_sorted(self.now, snapshot);
        prop_assert_eq!(self.calendar.len(), self.heap.len());
        Ok(())
    }
}

fn random_event(rng: &mut EngineRng, now: Tick) -> Event {
    let node = NodeId::new(rng.gen_range(0..64));
    match rng.gen_range(0..4) {
        0 => Event::ChurnStep,
        1 => Event::Wake {
            node,
            incarnation: rng.gen_range(0..3),
        },
        2 => Event::Resolve,
        _ => Event::Deliver {
            to: node,
            from: NodeId::new(rng.gen_range(0..64)),
            message: rng.gen(),
            power: rng.gen_range(0.1..2.0),
            incarnation: rng.gen_range(0..3),
            sent: now,
        },
    }
}

/// Ticks from now: the same tick, a few ticks, or up to three windows.
fn random_delay(rng: &mut EngineRng) -> Tick {
    match rng.gen_range(0..10) {
        0..=3 => 0,
        4..=7 => rng.gen_range(1..8),
        _ => rng.gen_range(0..3 * WINDOW),
    }
}

/// Runs `steps` rounds of "push a few events, then drain through an end
/// a little (sometimes a lot) ahead, pushing more while draining",
/// snapshotting and rebuilding the calendar before round `snapshot_at`.
fn run_schedule(seed: u64, steps: usize, snapshot_at: usize) -> Result<Coverage, TestCaseError> {
    let mut rng = EngineRng::for_stream(seed, 0);
    let mut pair = Pair::new();
    for step in 0..steps {
        if step == snapshot_at {
            pair.snapshot_and_restore()?;
        }
        for _ in 0..rng.gen_range(0..4) {
            let tick = pair.now + random_delay(&mut rng);
            let event = random_event(&mut rng, pair.now);
            pair.push(tick, event);
        }
        let end = pair.now
            + if rng.gen_bool(0.1) {
                rng.gen_range(0..3 * WINDOW)
            } else {
                rng.gen_range(0..4)
            };
        while let Some(qe) = pair.pop_through(end)? {
            if rng.gen_range(0..4) == 0 {
                let tick = qe.tick + random_delay(&mut rng);
                let event = random_event(&mut rng, qe.tick);
                pair.push(tick, event);
            }
        }
    }
    pair.snapshot_and_restore()?;
    while pair.pop_through(Tick::MAX)?.is_some() {}
    prop_assert!(pair.calendar.is_empty());
    Ok(pair.coverage)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 32 } else { 512 }))]

    /// The calendar queue pops exactly what the binary heap pops, in the
    /// same order, through a mid-run snapshot and rebuild.
    #[test]
    fn calendar_queue_matches_binary_heap(
        seed in 0u64..u64::MAX,
        steps in 20usize..400,
        snapshot_frac in 0.0f64..1.0,
    ) {
        let snapshot_at = (steps as f64 * snapshot_frac) as usize;
        run_schedule(seed, steps, snapshot_at)?;
    }
}

/// The schedule really reaches the paths the differential test is for.
#[test]
fn schedules_cover_far_heap_and_wraparound() {
    let coverage = run_schedule(7, 400, 200).expect("calendar matches the heap");
    assert!(coverage.same_tick_pushes > 0, "{coverage:?}");
    assert!(coverage.far_pops > 0, "{coverage:?}");
    assert!(coverage.far_before_ring > 0, "{coverage:?}");
    assert!(coverage.wrapped_pops > 0, "{coverage:?}");
    assert!(coverage.stopped_at_end > 0, "{coverage:?}");
}
