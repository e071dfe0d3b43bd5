//! A bounded, lock-free single-producer/single-consumer ring.
//!
//! The serve layer routes requests from connection threads to shard threads
//! over these rings: each connection owns one [`Producer`] per shard, each
//! shard polls the matching [`Consumer`]s. The SPSC restriction is enforced
//! statically — [`channel`] returns exactly one producer and one consumer
//! handle, neither of which is [`Clone`] — so both endpoints run a single
//! atomic load plus a single atomic store per operation, with no CAS loops
//! and no locks on the hot path.
//!
//! The ring is a classic Lamport queue: `head` (consumer cursor) and `tail`
//! (producer cursor) only ever advance, slot occupancy is `tail - head`, and
//! the Release store of the advancing cursor publishes the slot contents to
//! the other side. Dropping the producer closes the channel; the consumer
//! drains what remains and then observes [`Consumer::is_closed`].
//!
//! ```
//! let (tx, mut rx) = smc_util::spsc::channel::<u64>(8);
//! tx.push(1).unwrap();
//! tx.push(2).unwrap();
//! assert_eq!(rx.pop(), Some(1));
//! drop(tx);
//! assert_eq!(rx.pop(), Some(2));
//! assert_eq!(rx.pop(), None);
//! assert!(rx.is_closed());
//! ```

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use crate::mutation::{self, Mutation};
use crate::sync::{yield_point, AtomicBool, AtomicUsize};

/// Shared ring storage behind one producer/consumer pair.
struct Ring<T> {
    /// Power-of-two slot array; index = cursor & (capacity - 1).
    slots: Box<[UnsafeCell<MaybeUninit<T>>]>,
    /// Consumer cursor: next slot to pop. Only the consumer stores it.
    head: AtomicUsize,
    /// Producer cursor: next slot to fill. Only the producer stores it.
    tail: AtomicUsize,
    /// Set when the producer handle drops.
    closed: AtomicBool,
}

// SAFETY: slots are only touched by the single producer (writes at `tail`)
// and the single consumer (reads at `head`), synchronized by the
// Release/Acquire cursor handoff; the handles are Send but not Clone, so no
// role is ever shared.
unsafe impl<T: Send> Send for Ring<T> {}
unsafe impl<T: Send> Sync for Ring<T> {}

impl<T> Ring<T> {
    #[inline]
    fn mask(&self) -> usize {
        self.slots.len() - 1
    }
}

impl<T> Drop for Ring<T> {
    fn drop(&mut self) {
        // Both handles are gone (the Arc refcount reached zero), so plain
        // loads are race-free: drop whatever was pushed but never popped.
        let head = self.head.load(Ordering::Relaxed);
        let tail = self.tail.load(Ordering::Relaxed);
        let mask = self.mask();
        for i in head..tail {
            // SAFETY: slots in [head, tail) hold initialized values.
            unsafe { (*self.slots[i & mask].get()).assume_init_drop() };
        }
    }
}

/// Sending half of an SPSC ring — exactly one exists per channel.
pub struct Producer<T> {
    ring: Arc<Ring<T>>,
}

impl<T> std::fmt::Debug for Producer<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Producer")
            .field("len", &self.len())
            .field("capacity", &self.capacity())
            .finish()
    }
}

/// Receiving half of an SPSC ring — exactly one exists per channel.
pub struct Consumer<T> {
    ring: Arc<Ring<T>>,
}

impl<T> std::fmt::Debug for Consumer<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Consumer")
            .field("len", &self.len())
            .field("closed", &self.is_closed())
            .finish()
    }
}

/// Creates a bounded SPSC channel holding at least `capacity` items
/// (rounded up to a power of two, minimum 2).
pub fn channel<T>(capacity: usize) -> (Producer<T>, Consumer<T>) {
    let cap = capacity.max(2).next_power_of_two();
    let slots = (0..cap)
        .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
        .collect::<Vec<_>>()
        .into_boxed_slice();
    let ring = Arc::new(Ring {
        slots,
        head: AtomicUsize::new(0),
        tail: AtomicUsize::new(0),
        closed: AtomicBool::new(false),
    });
    (Producer { ring: ring.clone() }, Consumer { ring })
}

impl<T> Producer<T> {
    /// Enqueues `value`, or returns it when the ring is full (the caller
    /// decides whether to retry, back off, or shed load).
    pub fn push(&self, value: T) -> Result<(), T> {
        let ring = &*self.ring;
        let tail = ring.tail.load(Ordering::Relaxed);
        let head = ring.head.load(Ordering::Acquire);
        if tail - head == ring.slots.len() {
            return Err(value);
        }
        // The slot is shared memory too: let the checker switch here.
        yield_point();
        // SAFETY: the slot at `tail` is unoccupied (checked above) and only
        // this producer writes slots; Release on `tail` publishes the write.
        unsafe { (*ring.slots[tail & ring.mask()].get()).write(value) };
        ring.tail.store(tail + 1, Ordering::Release);
        Ok(())
    }

    /// Items currently enqueued (racy — advisory only).
    pub fn len(&self) -> usize {
        let ring = &*self.ring;
        ring.tail.load(Ordering::Relaxed) - ring.head.load(Ordering::Acquire)
    }

    /// True when nothing is enqueued (racy — advisory only).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Slot capacity of the ring.
    pub fn capacity(&self) -> usize {
        self.ring.slots.len()
    }
}

impl<T> Drop for Producer<T> {
    fn drop(&mut self) {
        self.ring.closed.store(true, Ordering::Release);
    }
}

impl<T> Consumer<T> {
    /// Dequeues the oldest item, or `None` when the ring is empty.
    pub fn pop(&mut self) -> Option<T> {
        let ring = &*self.ring;
        let head = ring.head.load(Ordering::Relaxed);
        let tail = ring.tail.load(Ordering::Acquire);
        if head == tail {
            return None;
        }
        if mutation::enabled(Mutation::PopReleasesSlotBeforeRead) {
            ring.head.store(head + 1, Ordering::Release);
        }
        yield_point();
        // SAFETY: the slot at `head` was published by the producer's Release
        // store of `tail` (Acquire-loaded above); only this consumer reads
        // slots out, and it releases the slot to the producer only after
        // the read.
        let value = unsafe { (*ring.slots[head & ring.mask()].get()).assume_init_read() };
        if !mutation::enabled(Mutation::PopReleasesSlotBeforeRead) {
            ring.head.store(head + 1, Ordering::Release);
        }
        Some(value)
    }

    /// True once the producer dropped. Items pushed before the drop are
    /// still poppable; `is_closed() && pop().is_none()` means fully drained.
    pub fn is_closed(&self) -> bool {
        self.ring.closed.load(Ordering::Acquire)
    }

    /// Items currently enqueued (racy — advisory only).
    pub fn len(&self) -> usize {
        let ring = &*self.ring;
        ring.tail.load(Ordering::Acquire) - ring.head.load(Ordering::Relaxed)
    }

    /// True when nothing is enqueued (racy — advisory only).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_and_capacity() {
        let (tx, mut rx) = channel::<u32>(3); // rounds up to 4
        assert_eq!(tx.capacity(), 4);
        for i in 0..4 {
            tx.push(i).unwrap();
        }
        assert_eq!(tx.push(99), Err(99), "full ring rejects");
        for i in 0..4 {
            assert_eq!(rx.pop(), Some(i));
        }
        assert_eq!(rx.pop(), None);
    }

    #[test]
    fn close_drains_then_signals() {
        let (tx, mut rx) = channel::<String>(4);
        tx.push("a".into()).unwrap();
        drop(tx);
        assert!(rx.is_closed());
        assert_eq!(rx.pop().as_deref(), Some("a"));
        assert_eq!(rx.pop(), None);
    }

    #[test]
    fn unread_items_are_dropped_with_the_ring() {
        let (tx, rx) = channel::<Arc<u64>>(4);
        let probe = Arc::new(7u64);
        tx.push(probe.clone()).unwrap();
        tx.push(probe.clone()).unwrap();
        drop(tx);
        drop(rx);
        assert_eq!(Arc::strong_count(&probe), 1, "ring drop released items");
    }

    #[test]
    fn cross_thread_handoff_loses_nothing() {
        let (tx, mut rx) = channel::<u64>(64);
        const N: u64 = 100_000;
        let producer = std::thread::spawn(move || {
            for i in 0..N {
                let mut v = i;
                loop {
                    match tx.push(v) {
                        Ok(()) => break,
                        Err(back) => {
                            v = back;
                            std::thread::yield_now();
                        }
                    }
                }
            }
        });
        let mut expect = 0u64;
        loop {
            match rx.pop() {
                Some(v) => {
                    assert_eq!(v, expect, "FIFO order violated");
                    expect += 1;
                    if expect == N {
                        break;
                    }
                }
                None => std::thread::yield_now(),
            }
        }
        producer.join().unwrap();
        assert_eq!(rx.pop(), None);
    }
}
