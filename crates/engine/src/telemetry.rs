//! The engine half of the flight recorder: with
//! [`crate::Engine::enable_event_log`] on, the engine keeps a ring of
//! its most recently dispatched events as fixed-size [`EventRecord`]s.
//! The scenario session renders them, next to the tail of its sample
//! series, as the line-oriented `flight-recorder v1` dump when a run
//! goes wrong — cheap enough to leave armed on every scenario run.

use std::fmt;

use crate::event::{Event, Tick};

/// The event classes a flight-recorder entry can record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A churn step fired.
    Churn,
    /// A node wake-up fired.
    Wake,
    /// A SINR resolution round fired.
    Resolve,
    /// A message delivery fired.
    Deliver,
}

/// One dispatched event, compressed to a fixed-size record for the
/// flight-recorder ring. The payload fields depend on the kind:
/// `Wake` records (node, incarnation), `Deliver` records (from, to),
/// the rest record zeros.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventRecord {
    /// The tick the event fired at.
    pub tick: Tick,
    /// The event class.
    pub kind: EventKind,
    /// First payload field (kind-dependent, see struct docs).
    pub a: u64,
    /// Second payload field (kind-dependent, see struct docs).
    pub b: u64,
}

impl EventRecord {
    /// Compresses a dispatched event into a record.
    pub fn of(tick: Tick, event: &Event) -> Self {
        let (kind, a, b) = match *event {
            Event::ChurnStep => (EventKind::Churn, 0, 0),
            Event::Wake { node, incarnation } => {
                (EventKind::Wake, node.index() as u64, u64::from(incarnation))
            }
            Event::Resolve => (EventKind::Resolve, 0, 0),
            Event::Deliver { to, from, .. } => {
                (EventKind::Deliver, from.index() as u64, to.index() as u64)
            }
        };
        EventRecord { tick, kind, a, b }
    }
}

impl fmt::Display for EventRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            EventKind::Churn => write!(f, "event tick={} churn", self.tick),
            EventKind::Wake => write!(
                f,
                "event tick={} wake node={} incarnation={}",
                self.tick, self.a, self.b
            ),
            EventKind::Resolve => write!(f, "event tick={} resolve", self.tick),
            EventKind::Deliver => write!(
                f,
                "event tick={} deliver from={} to={}",
                self.tick, self.a, self.b
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use decay_core::NodeId;

    #[test]
    fn event_records_compress_each_kind() {
        let wake = EventRecord::of(
            4,
            &Event::Wake {
                node: NodeId::new(3),
                incarnation: 2,
            },
        );
        assert_eq!(wake.kind, EventKind::Wake);
        assert_eq!((wake.a, wake.b), (3, 2));
        assert_eq!(wake.to_string(), "event tick=4 wake node=3 incarnation=2");

        let deliver = EventRecord::of(
            9,
            &Event::Deliver {
                to: NodeId::new(7),
                from: NodeId::new(1),
                message: 5,
                power: 1.0,
                incarnation: 0,
                sent: 8,
            },
        );
        assert_eq!(deliver.kind, EventKind::Deliver);
        assert_eq!((deliver.a, deliver.b), (1, 7));
        assert_eq!(EventRecord::of(1, &Event::Resolve).kind, EventKind::Resolve);
        assert_eq!(EventRecord::of(1, &Event::ChurnStep).kind, EventKind::Churn);
    }
}
