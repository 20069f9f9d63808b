//! A bounded lock-free ring buffer for trace events.
//!
//! Writers from any thread claim a position with one `fetch_add` and publish
//! into the slot at `position % capacity`; when the buffer wraps, the oldest
//! events are overwritten, so the ring always retains the most recent
//! `capacity` events plus an exact count of how many were dropped. Each slot
//! carries a sequence atomic (the classic Vyukov per-slot handshake, adapted
//! to overwrite-on-wrap semantics) that records the newest position to reach
//! the slot and what became of its event:
//!
//! * `EMPTY` — never written, or drained;
//! * `position + 1` — that position's event is published in the slot;
//! * `CLAIMED | position` — a writer is publishing that position's event
//!   (or the drain is taking it);
//! * `LOST | position` — that position's event was lost: it arrived while an
//!   older writer was still mid-publish there (which needs `capacity`
//!   intervening pushes within one publish, i.e. a pathological stall);
//!   `CLAIMED | LOST | position` while the older writer still holds the slot.
//!
//! A writer only ever takes a slot whose newest position is older than its
//! own. One preempted between its `fetch_add` and its publish finds a newer
//! position there and drops its own event, which the arithmetic overwrite
//! count already covers. A lost event is counted while its slot records it,
//! and only then: once a newer position reaches the slot, the overwrite
//! count covers it instead. So every position is counted exactly once.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::trace::TraceEvent;

/// Slot sequence value meaning "never written, or drained".
const EMPTY: u64 = 0;
/// Slot sequence bit meaning "held by a writer or the drain".
const CLAIMED: u64 = 1 << 63;
/// Slot sequence bit meaning "the recorded position's event was lost".
const LOST: u64 = 1 << 62;
/// The position bits of a flagged sequence value.
const POSITION: u64 = LOST - 1;

struct Slot {
    /// The newest position to reach the slot, and its fate (module docs).
    seq: AtomicU64,
    payload: UnsafeCell<Option<TraceEvent>>,
}

impl Slot {
    /// Ends a hold of `position` (a writer's publish or the drain's take),
    /// leaving `done` — unless a newer position's event was lost meanwhile,
    /// which the slot then keeps recording.
    fn release(&self, position: u64, done: u64) {
        if self
            .seq
            .compare_exchange(
                CLAIMED | position,
                done,
                Ordering::Release,
                Ordering::Relaxed,
            )
            .is_err()
        {
            // While held, the sequence can only move to `CLAIMED | LOST | n`.
            self.seq.fetch_and(!CLAIMED, Ordering::Release);
        }
    }
}

/// Bounded multi-producer ring buffer that keeps the most recent events.
pub struct RingBuffer {
    slots: Box<[Slot]>,
    /// Total number of positions ever claimed by writers.
    head: AtomicU64,
}

// SAFETY: the per-slot `seq` protocol grants exclusive access to `payload`:
// a writer owns it between its successful CAS to `CLAIMED | pos` and its
// `release`; `drain` owns it between a successful CAS to `CLAIMED | pos` and
// its `release`. While `CLAIMED` is set, other threads only ever replace the
// position bits (recording a lost event), never take the slot, so no two
// owners can hold the same slot at once.
unsafe impl Sync for RingBuffer {}

impl RingBuffer {
    /// Creates a ring holding at most `capacity` events (minimum 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        let slots = (0..capacity)
            .map(|_| Slot {
                seq: AtomicU64::new(EMPTY),
                payload: UnsafeCell::new(None),
            })
            .collect();
        RingBuffer {
            slots,
            head: AtomicU64::new(0),
        }
    }

    /// Number of events the ring can hold.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total number of pushes ever attempted.
    pub fn pushed(&self) -> u64 {
        self.head.load(Ordering::Acquire)
    }

    /// Number of events no longer retrievable: overwritten on wrap, or lost
    /// to a (pathological) stalled writer. Exact once the writers are
    /// quiescent; one pass over the slots.
    pub fn dropped(&self) -> u64 {
        let overwritten = self.pushed().saturating_sub(self.slots.len() as u64);
        let lost = self
            .slots
            .iter()
            .map(|slot| slot.seq.load(Ordering::Acquire))
            .filter(|seq| seq & LOST != 0 && seq & POSITION >= overwritten)
            .count();
        overwritten + lost as u64
    }

    /// Appends an event; on wrap the oldest retained event is overwritten.
    pub fn push(&self, event: TraceEvent) {
        let pos = self.head.fetch_add(1, Ordering::AcqRel);
        #[cfg(test)]
        tests::pause(tests::Stage::Claimed, pos);
        let slot = &self.slots[(pos % self.slots.len() as u64) as usize];
        let mut seq = slot.seq.load(Ordering::Acquire);
        loop {
            let newest_after = if seq & (CLAIMED | LOST) == 0 {
                seq
            } else {
                (seq & POSITION) + 1
            };
            if newest_after > pos {
                // A newer position reached the slot while we were preempted:
                // our event is already counted as overwritten, and must not
                // bury the newer one.
                return;
            }
            // A held slot cannot take our event: record it as lost there.
            let next = if seq & CLAIMED == 0 {
                CLAIMED | pos
            } else {
                CLAIMED | LOST | pos
            };
            match slot
                .seq
                .compare_exchange_weak(seq, next, Ordering::Acquire, Ordering::Acquire)
            {
                Ok(_) if next & LOST != 0 => return,
                Ok(_) => break,
                Err(current) => seq = current,
            }
        }
        #[cfg(test)]
        tests::pause(tests::Stage::Holding, pos);
        // SAFETY: the successful claim above granted exclusive slot access.
        unsafe {
            *slot.payload.get() = Some(event);
        }
        slot.release(pos, pos + 1);
    }

    /// Takes the retained events in push order (oldest first) and empties
    /// the ring. Intended for a single consumer at a quiescent point (end of
    /// a job or a suite run); concurrent pushes are memory-safe but may be
    /// missed by the drain that races them.
    pub fn drain(&self) -> Vec<TraceEvent> {
        let head = self.pushed();
        let cap = self.slots.len() as u64;
        let start = head.saturating_sub(cap);
        let mut out = Vec::with_capacity((head - start) as usize);
        for pos in start..head {
            let slot = &self.slots[(pos % cap) as usize];
            if slot
                .seq
                .compare_exchange(pos + 1, CLAIMED | pos, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
            {
                // SAFETY: the successful CAS granted exclusive slot access.
                let payload = unsafe { (*slot.payload.get()).take() };
                slot.release(pos, EMPTY);
                if let Some(event) = payload {
                    out.push(event);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{EventKind, TraceEvent};
    use std::cell::RefCell;
    use std::sync::mpsc::{channel, Receiver, Sender};

    /// Where in a push a planted stall waits.
    #[derive(Clone, Copy, PartialEq, Eq)]
    pub(super) enum Stage {
        /// Position taken, slot not yet claimed.
        Claimed,
        /// Slot claimed, event not yet published.
        Holding,
    }

    /// A stall planted on one thread: its push of position `.1` at stage
    /// `.0` signals `.2` and waits on `.3`.
    type Pause = (Stage, u64, Sender<()>, Receiver<()>);

    thread_local! {
        static PAUSE: RefCell<Option<Pause>> = const { RefCell::new(None) };
    }

    /// The pause hook inside a push.
    pub(super) fn pause(stage: Stage, pos: u64) {
        PAUSE.with(|pause| {
            if let Some((at_stage, at, reached, resume)) = &*pause.borrow() {
                if (*at_stage, *at) == (stage, pos) {
                    reached.send(()).unwrap();
                    resume.recv().unwrap();
                }
            }
        });
    }

    /// Pushes position 0 on another thread, stalled at `stage`, while
    /// `meanwhile` runs on this one.
    fn with_stalled_first_push(ring: &RingBuffer, stage: Stage, meanwhile: impl FnOnce()) {
        let (reached_tx, reached_rx) = channel();
        let (resume_tx, resume_rx) = channel();
        std::thread::scope(|scope| {
            scope.spawn(move || {
                PAUSE.with(|pause| *pause.borrow_mut() = Some((stage, 0, reached_tx, resume_rx)));
                ring.push(event(0));
            });
            reached_rx.recv().unwrap();
            meanwhile();
            resume_tx.send(()).unwrap();
        });
    }

    fn event(ts: u64) -> TraceEvent {
        TraceEvent {
            name: "e",
            kind: EventKind::Instant,
            ts_us: ts,
            tid: 1,
            args: Vec::new(),
        }
    }

    #[test]
    fn retains_everything_under_capacity() {
        let ring = RingBuffer::new(8);
        for i in 0..5 {
            ring.push(event(i));
        }
        let drained = ring.drain();
        assert_eq!(drained.len(), 5);
        assert_eq!(ring.dropped(), 0);
        assert_eq!(
            drained.iter().map(|e| e.ts_us).collect::<Vec<_>>(),
            vec![0, 1, 2, 3, 4]
        );
    }

    #[test]
    fn wraparound_keeps_the_most_recent_n_and_counts_drops() {
        let n = 16;
        let ring = RingBuffer::new(n);
        for i in 0..(2 * n as u64) {
            ring.push(event(i));
        }
        assert_eq!(ring.dropped(), n as u64);
        let drained = ring.drain();
        assert_eq!(drained.len(), n);
        // The survivors are exactly the second half, in push order.
        assert_eq!(
            drained.iter().map(|e| e.ts_us).collect::<Vec<_>>(),
            (n as u64..2 * n as u64).collect::<Vec<_>>()
        );
    }

    #[test]
    fn drain_empties_the_ring() {
        let ring = RingBuffer::new(4);
        ring.push(event(0));
        assert_eq!(ring.drain().len(), 1);
        assert!(ring.drain().is_empty());
        // New pushes after a drain are retained again.
        ring.push(event(9));
        let drained = ring.drain();
        assert_eq!(drained.len(), 1);
        assert_eq!(drained[0].ts_us, 9);
    }

    #[test]
    fn concurrent_pushes_are_all_accounted_for() {
        let ring = std::sync::Arc::new(RingBuffer::new(1024));
        let threads = 8;
        let per_thread = 1000u64;
        std::thread::scope(|scope| {
            for t in 0..threads {
                let ring = std::sync::Arc::clone(&ring);
                scope.spawn(move || {
                    for i in 0..per_thread {
                        ring.push(event(t * per_thread + i));
                    }
                });
            }
        });
        assert_eq!(ring.pushed(), threads * per_thread);
        let retained = ring.drain().len() as u64;
        assert_eq!(retained + ring.dropped(), threads * per_thread);
        assert!(retained <= 1024);
    }

    #[test]
    fn a_writer_stalled_for_a_lap_never_buries_the_newer_event() {
        // Position 0 is taken, then stalls while positions 1 and 2 land;
        // 2 shares its slot. The stalled push must drop its own event: the
        // ring keeps the newest two and counts exactly one drop.
        let ring = RingBuffer::new(2);
        with_stalled_first_push(&ring, Stage::Claimed, || {
            ring.push(event(1));
            ring.push(event(2));
        });
        assert_eq!(ring.pushed(), 3);
        assert_eq!(ring.dropped(), 1);
        let drained = ring.drain();
        assert_eq!(
            drained.iter().map(|e| e.ts_us).collect::<Vec<_>>(),
            vec![1, 2]
        );
    }

    #[test]
    fn a_lap_over_a_stalled_publish_counts_each_loss_once() {
        // Position 0 stalls mid-publish; position 2 reaches its slot and
        // loses its event. That loss counts while it is the slot's newest
        // position, and stops counting once position 4 overwrites it.
        let ring = RingBuffer::new(2);
        with_stalled_first_push(&ring, Stage::Holding, || {
            for ts in 1..=3 {
                ring.push(event(ts));
            }
        });
        assert_eq!(ring.pushed(), 4);
        assert_eq!(ring.dropped(), 3, "0 and 1 overwritten, 2 lost");
        ring.push(event(4));
        assert_eq!(ring.dropped(), 3, "0, 1 and 2 overwritten");
        let drained = ring.drain();
        assert_eq!(
            drained.iter().map(|e| e.ts_us).collect::<Vec<_>>(),
            vec![3, 4]
        );
    }
}
