//! Bounded FIFOs: the synchronization fabric between µ-engines.
//!
//! The paper: "The address FIFOs perform the synchronization between access
//! µ-engine and execute µ-engine. [...] If any of the address FIFOs are full,
//! the corresponding strided µindex generator stops generating new addresses.
//! In the case that any of the address FIFOs are empty, no data is
//! read/written."

use std::collections::VecDeque;
use std::fmt;

use ganax_isa::ExecUop;

/// Error returned when pushing into a full FIFO.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FifoError {
    /// Capacity of the FIFO that rejected the push.
    pub capacity: usize,
}

impl fmt::Display for FifoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fifo full (capacity {})", self.capacity)
    }
}

impl std::error::Error for FifoError {}

/// A bounded FIFO with push/pop counters.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Bounded<T> {
    items: VecDeque<T>,
    capacity: usize,
    pushes: u64,
    pops: u64,
}

impl<T> Bounded<T> {
    fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "fifo capacity must be positive");
        Bounded {
            items: VecDeque::with_capacity(capacity),
            capacity,
            pushes: 0,
            pops: 0,
        }
    }

    fn push(&mut self, item: T) -> Result<(), FifoError> {
        if self.items.len() >= self.capacity {
            return Err(FifoError {
                capacity: self.capacity,
            });
        }
        self.items.push_back(item);
        self.pushes += 1;
        Ok(())
    }

    /// Pushes a batch of items with one capacity check (counted like
    /// individual pushes). Rejects the whole batch if it does not fit.
    fn push_all(&mut self, items: &[T]) -> Result<(), FifoError>
    where
        T: Copy,
    {
        if self.items.len() + items.len() > self.capacity {
            return Err(FifoError {
                capacity: self.capacity,
            });
        }
        self.items.extend(items.iter().copied());
        self.pushes += items.len() as u64;
        Ok(())
    }

    fn pop(&mut self) -> Option<T> {
        let item = self.items.pop_front();
        if item.is_some() {
            self.pops += 1;
        }
        item
    }

    /// Pops the oldest `n` items as one drain (counted like `n` pops).
    ///
    /// # Panics
    /// Panics if fewer than `n` items are queued.
    fn drain_front(&mut self, n: usize) -> std::collections::vec_deque::Drain<'_, T> {
        assert!(n <= self.items.len(), "drain of {n} exceeds queue length");
        self.pops += n as u64;
        self.items.drain(..n)
    }

    fn peek(&self) -> Option<&T> {
        self.items.front()
    }

    fn len(&self) -> usize {
        self.items.len()
    }

    fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    fn is_full(&self) -> bool {
        self.items.len() >= self.capacity
    }

    /// Drops all queued items and zeroes the push/pop counters, keeping the
    /// backing allocation (a PE being reset in place between dispatches).
    fn clear(&mut self) {
        self.items.clear();
        self.pushes = 0;
        self.pops = 0;
    }
}

/// A bounded FIFO of operand addresses between an index generator and the
/// execute µ-engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AddrFifo {
    inner: Bounded<u16>,
}

impl AddrFifo {
    /// Creates an address FIFO with the given capacity (8 entries in the paper
    /// configuration, see Table III "I/O FIFOs").
    pub fn new(capacity: usize) -> Self {
        AddrFifo {
            inner: Bounded::new(capacity),
        }
    }

    /// Pushes an address.
    ///
    /// # Errors
    /// Returns [`FifoError`] when the FIFO is full (the generator must stall).
    pub fn push(&mut self, addr: u16) -> Result<(), FifoError> {
        self.inner.push(addr)
    }

    /// Pops the oldest address, if any.
    pub fn pop(&mut self) -> Option<u16> {
        self.inner.pop()
    }

    /// Peeks at the oldest address without consuming it.
    pub fn peek(&self) -> Option<u16> {
        self.inner.peek().copied()
    }

    /// Number of queued addresses.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// Capacity in entries.
    pub fn capacity(&self) -> usize {
        self.inner.capacity
    }

    /// Whether the FIFO holds no addresses.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// Whether the FIFO is at capacity.
    pub fn is_full(&self) -> bool {
        self.inner.is_full()
    }

    /// Total pushes served (for energy accounting).
    pub fn pushes(&self) -> u64 {
        self.inner.pushes
    }

    /// Total pops served (for energy accounting).
    pub fn pops(&self) -> u64 {
        self.inner.pops
    }

    /// Empties the FIFO and zeroes its counters in place (allocation kept).
    pub fn clear(&mut self) {
        self.inner.clear();
    }

    /// Records `n` addresses that logically transited the FIFO without being
    /// materialized (a burst-stepped PE hands generator output straight to the
    /// execute µ-engine). Keeps the push/pop energy counters identical to the
    /// single-step path.
    pub(crate) fn note_passthrough(&mut self, n: u64) {
        self.inner.pushes += n;
        self.inner.pops += n;
    }
}

/// A bounded FIFO of execute µops feeding the execute µ-engine.
///
/// Uniform `repeat`+`mac` dispatches are the overwhelmingly dominant traffic
/// (the machine planner issues one such pair per output word), so the FIFO
/// keeps them *virtual*: [`UopFifo::try_push_mac_pairs`] records a pair count
/// instead of materializing `2n` entries, and the queue synthesizes the
/// alternating `Repeat, Mac, Repeat, Mac, …` sequence on demand. Virtual and
/// materialized queues are observationally identical — `pop`/`peek`/`iter`,
/// lengths, capacity checks, and push/pop counters all agree — and compare
/// equal through [`PartialEq`].
///
/// Invariant: when `virtual_uops > 0` the materialized deque is empty (a
/// generic push first materializes), so the virtual region is always the
/// entire queue: an alternating sequence ending in `Mac`. The front µop is
/// therefore `Repeat` when `virtual_uops` is even and `Mac` (mid-pair) when
/// it is odd.
#[derive(Debug, Clone)]
pub struct UopFifo {
    inner: Bounded<ExecUop>,
    /// Count of µops held virtually as `repeat`+`mac` pairs (possibly minus a
    /// consumed front `Repeat`), never materialized in `inner.items`.
    virtual_uops: usize,
}

/// Statics so the synthesized iterator can hand out `&ExecUop` like the
/// materialized deque does.
static REPEAT_UOP: ExecUop = ExecUop::Repeat;
static MAC_UOP: ExecUop = ExecUop::Mac;

impl UopFifo {
    /// Creates a µop FIFO with the given capacity.
    pub fn new(capacity: usize) -> Self {
        UopFifo {
            inner: Bounded::new(capacity),
            virtual_uops: 0,
        }
    }

    /// The µop at queue position `i` of the virtual region, given `total`
    /// virtual µops remain: parity of the remaining count at that position
    /// decides `Repeat` (even) vs `Mac` (odd).
    fn virtual_at(total: usize, i: usize) -> ExecUop {
        if (total - i).is_multiple_of(2) {
            ExecUop::Repeat
        } else {
            ExecUop::Mac
        }
    }

    /// Converts the virtual pair count into materialized entries (push
    /// counters were already charged when the pairs were accepted).
    fn materialize(&mut self) {
        debug_assert!(self.virtual_uops == 0 || self.inner.items.is_empty());
        while self.virtual_uops > 0 {
            self.inner
                .items
                .push_back(Self::virtual_at(self.virtual_uops, 0));
            self.virtual_uops -= 1;
        }
    }

    /// Pushes a µop.
    ///
    /// # Errors
    /// Returns [`FifoError`] when the FIFO is full.
    pub fn push(&mut self, uop: ExecUop) -> Result<(), FifoError> {
        if self.is_full() {
            return Err(FifoError {
                capacity: self.inner.capacity,
            });
        }
        self.materialize();
        self.inner.push(uop)
    }

    /// Pushes a batch of µops with one capacity check (a dispatcher issuing a
    /// whole program at once). Rejects the whole batch if it does not fit.
    ///
    /// # Errors
    /// Returns [`FifoError`] when the batch exceeds the free entries.
    pub fn push_all(&mut self, uops: &[ExecUop]) -> Result<(), FifoError> {
        if self.len() + uops.len() > self.inner.capacity {
            return Err(FifoError {
                capacity: self.inner.capacity,
            });
        }
        self.materialize();
        self.inner.push_all(uops)
    }

    /// Enqueues `pairs` uniform `repeat`+`mac` programs virtually: one
    /// capacity check and a counter bump instead of `2 × pairs` deque writes.
    /// Counted exactly like [`UopFifo::push_all`] of the same sequence. Falls
    /// back to materialized entries when non-uniform µops are already queued.
    ///
    /// # Errors
    /// Returns [`FifoError`] when the batch exceeds the free entries.
    pub fn try_push_mac_pairs(&mut self, pairs: usize) -> Result<(), FifoError> {
        let uops = pairs * 2;
        if self.len() + uops > self.inner.capacity {
            return Err(FifoError {
                capacity: self.inner.capacity,
            });
        }
        if self.inner.items.is_empty() {
            self.virtual_uops += uops;
        } else {
            for _ in 0..pairs {
                self.inner.items.push_back(ExecUop::Repeat);
                self.inner.items.push_back(ExecUop::Mac);
            }
        }
        self.inner.pushes += uops as u64;
        Ok(())
    }

    /// The whole queue as untouched virtual `repeat`+`mac` pairs, if that is
    /// what it holds — the only queue `ProcessingEngine::retire_block`
    /// retires as one dispatch; any other queue single-steps.
    pub(crate) fn uniform_pairs(&self) -> Option<usize> {
        (self.inner.items.is_empty()
            && self.virtual_uops > 0
            && self.virtual_uops.is_multiple_of(2))
        .then_some(self.virtual_uops / 2)
    }

    /// Pops the oldest µop, if any.
    pub fn pop(&mut self) -> Option<ExecUop> {
        if let Some(uop) = self.inner.pop() {
            return Some(uop);
        }
        if self.virtual_uops == 0 {
            return None;
        }
        let uop = Self::virtual_at(self.virtual_uops, 0);
        self.virtual_uops -= 1;
        self.inner.pops += 1;
        Some(uop)
    }

    /// Peeks at the oldest µop without consuming it.
    pub fn peek(&self) -> Option<ExecUop> {
        self.inner
            .peek()
            .copied()
            .or_else(|| (self.virtual_uops > 0).then(|| Self::virtual_at(self.virtual_uops, 0)))
    }

    /// Number of queued µops.
    pub fn len(&self) -> usize {
        self.inner.len() + self.virtual_uops
    }

    /// Whether the FIFO holds no µops.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the FIFO is at capacity.
    pub fn is_full(&self) -> bool {
        self.len() >= self.inner.capacity
    }

    /// Empties the FIFO and zeroes its counters in place (allocation kept).
    pub fn clear(&mut self) {
        self.inner.clear();
        self.virtual_uops = 0;
    }

    /// Iterates the queued µops oldest-first without consuming them (how
    /// virtual and materialized queues compare equal).
    pub(crate) fn iter(&self) -> impl Iterator<Item = &ExecUop> {
        let total = self.virtual_uops;
        self.inner.items.iter().chain((0..total).map(move |i| {
            if (total - i).is_multiple_of(2) {
                &REPEAT_UOP
            } else {
                &MAC_UOP
            }
        }))
    }

    /// Removes the oldest `n` µops without yielding them (counted like `n`
    /// pops) — the per-dispatch retire path already knows their shape.
    ///
    /// # Panics
    /// Panics if fewer than `n` µops are queued.
    pub(crate) fn consume_front(&mut self, n: usize) {
        assert!(n <= self.len(), "consume of {n} exceeds queue length");
        let from_inner = n.min(self.inner.items.len());
        if from_inner > 0 {
            drop(self.inner.drain_front(from_inner));
        }
        let from_virtual = n - from_inner;
        self.virtual_uops -= from_virtual;
        self.inner.pops += from_virtual as u64;
    }

    /// Records `n` µops pushed and popped without being queued — the
    /// dispatches of a block after its first, which retire on the queued
    /// one's proof. Keeps the push/pop counters identical to issuing each.
    pub(crate) fn note_passthrough(&mut self, n: u64) {
        self.inner.pushes += n;
        self.inner.pops += n;
    }
}

/// Virtual and materialized queues with the same logical µop sequence and
/// counter history are the same FIFO.
impl PartialEq for UopFifo {
    fn eq(&self, other: &Self) -> bool {
        self.inner.capacity == other.inner.capacity
            && self.inner.pushes == other.inner.pushes
            && self.inner.pops == other.inner.pops
            && self.len() == other.len()
            && self.iter().eq(other.iter())
    }
}

impl Eq for UopFifo {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addr_fifo_order_and_backpressure() {
        let mut fifo = AddrFifo::new(2);
        assert!(fifo.is_empty());
        fifo.push(10).unwrap();
        fifo.push(20).unwrap();
        assert!(fifo.is_full());
        assert_eq!(fifo.push(30), Err(FifoError { capacity: 2 }));
        assert_eq!(fifo.peek(), Some(10));
        assert_eq!(fifo.pop(), Some(10));
        assert_eq!(fifo.pop(), Some(20));
        assert_eq!(fifo.pop(), None);
        assert_eq!(fifo.pushes(), 2);
        assert_eq!(fifo.pops(), 2);
    }

    #[test]
    fn uop_fifo_holds_uops_in_order() {
        let mut fifo = UopFifo::new(4);
        fifo.push(ExecUop::Repeat).unwrap();
        fifo.push(ExecUop::Mac).unwrap();
        assert_eq!(fifo.len(), 2);
        assert_eq!(fifo.peek(), Some(ExecUop::Repeat));
        assert_eq!(fifo.pop(), Some(ExecUop::Repeat));
        assert_eq!(fifo.pop(), Some(ExecUop::Mac));
        assert!(fifo.is_empty());
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_is_rejected() {
        let _ = AddrFifo::new(0);
    }

    #[test]
    fn fifo_error_displays_capacity() {
        assert!(FifoError { capacity: 8 }.to_string().contains('8'));
    }

    /// A materialized twin of `fifo` built by pushing the same logical
    /// sequence µop by µop.
    fn materialized_twin(fifo: &UopFifo, capacity: usize) -> UopFifo {
        let mut twin = UopFifo::new(capacity);
        for &uop in fifo.iter() {
            twin.push(uop).unwrap();
        }
        twin
    }

    #[test]
    fn virtual_pairs_match_materialized_pushes() {
        let mut virt = UopFifo::new(16);
        virt.try_push_mac_pairs(3).unwrap();
        let mut mat = UopFifo::new(16);
        mat.push_all(&[ExecUop::Repeat, ExecUop::Mac].repeat(3))
            .unwrap();
        assert_eq!(virt, mat);
        assert_eq!(virt.len(), 6);
        assert_eq!(virt.uniform_pairs(), Some(3));
        assert_eq!(mat.uniform_pairs(), None);

        // Popping synthesizes the alternating sequence and keeps parity.
        assert_eq!(virt.pop(), Some(ExecUop::Repeat));
        assert_eq!(virt.peek(), Some(ExecUop::Mac));
        assert_eq!(virt.uniform_pairs(), None);
        assert_eq!(virt.pop(), Some(ExecUop::Mac));
        mat.pop();
        mat.pop();
        assert_eq!(virt, mat);
        assert!(virt.iter().eq(mat.iter()));
    }

    #[test]
    fn virtual_pairs_respect_capacity() {
        let mut fifo = UopFifo::new(4);
        assert!(fifo.try_push_mac_pairs(3).is_err());
        fifo.try_push_mac_pairs(2).unwrap();
        assert!(fifo.is_full());
        assert!(fifo.push(ExecUop::Mac).is_err());
        assert!(fifo.try_push_mac_pairs(1).is_err());
        fifo.clear();
        assert!(fifo.is_empty());
        assert_eq!(fifo.uniform_pairs(), None);
    }

    #[test]
    fn generic_push_materializes_virtual_pairs() {
        let mut fifo = UopFifo::new(8);
        fifo.try_push_mac_pairs(2).unwrap();
        fifo.push(ExecUop::Repeat).unwrap();
        assert_eq!(fifo.len(), 5);
        assert_eq!(fifo.uniform_pairs(), None);
        let twin = materialized_twin(&fifo, 8);
        assert!(fifo.iter().eq(twin.iter()));
        // Pairs pushed behind materialized entries stay materialized.
        fifo.try_push_mac_pairs(1).unwrap();
        assert_eq!(fifo.len(), 7);
        assert_eq!(
            fifo.iter().copied().collect::<Vec<_>>()[5..],
            [ExecUop::Repeat, ExecUop::Mac]
        );
    }

    #[test]
    fn consume_front_spans_materialized_and_virtual() {
        let mut fifo = UopFifo::new(16);
        fifo.push(ExecUop::Repeat).unwrap();
        fifo.push(ExecUop::Mac).unwrap();
        fifo.try_push_mac_pairs(3).unwrap();
        fifo.consume_front(5);
        assert_eq!(fifo.len(), 3);
        // 2 + 6 pushed, 5 consumed: the queue resumes mid-pair.
        assert_eq!(fifo.peek(), Some(ExecUop::Mac));
        let mut drained = UopFifo::new(16);
        drained
            .push_all(&[ExecUop::Mac, ExecUop::Repeat, ExecUop::Mac])
            .unwrap();
        assert!(fifo.iter().eq(drained.iter()));

        // A purely virtual queue consumes pairs without materializing.
        let mut virt = UopFifo::new(16);
        virt.try_push_mac_pairs(3).unwrap();
        virt.consume_front(4);
        assert_eq!(virt.len(), 2);
        assert_eq!(virt.peek(), Some(ExecUop::Repeat));
        assert_eq!(virt.uniform_pairs(), Some(1));
    }
}
