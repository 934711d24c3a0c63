//! The limb-buffer recycler.
//!
//! Ops used to allocate every limb afresh and free it when done. glibc
//! hands freed heap tops above its trim threshold back to the kernel, so
//! the next op faulted the same memory in, zeroed, again: about a third
//! of a KLSS HMult at N = 2^14 was page faults and system time. A
//! [`Recycler`] keeps the buffers it gets back on one shelf per length and
//! hands them out again. Two rules hold for every shelf:
//!
//! * **Bounded by use.** A shelf holds at most the most buffers it has
//!   ever had handed out at once, minus those handed out now, so held
//!   plus handed out never exceeds a past peak. A buffer counts as handed
//!   out from the take that made it until the give that returns it.
//! * **No stale data.** A buffer leaves zeroed ([`Recycler::zeroed`]) or
//!   overwritten ([`Recycler::copied`], [`Recycler::mapped`], and
//!   crate-internal producers that write every element), so no residue of an earlier user reaches a
//!   caller.
//!
//! One lock guards every shelf: rayon workers run limbs on other threads,
//! so buffers cross threads and the caller and the workers share it.

use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// The recycler behind every [`crate::RnsPoly`] limb and the limb-length
/// scratch of the host kernels.
pub static LIMBS: Recycler<u64> = Recycler::new();

#[derive(Default)]
struct Shelf<T> {
    free: Vec<Vec<T>>,
    /// Buffers handed out and not given back yet.
    out: usize,
    /// The most buffers ever handed out at once.
    peak: usize,
}

/// Shelves of equal-length buffers behind one lock. Deliberately not
/// `Debug`: the shelves hold what earlier users left in their buffers.
#[derive(Default)]
pub struct Recycler<T> {
    /// One shelf per buffer length.
    shelves: Mutex<BTreeMap<usize, Shelf<T>>>,
}

impl<T: Copy + Default> Recycler<T> {
    /// An empty recycler.
    pub const fn new() -> Self {
        Self {
            shelves: Mutex::new(BTreeMap::new()),
        }
    }

    fn lock(&self) -> MutexGuard<'_, BTreeMap<usize, Shelf<T>>> {
        // No update below can panic half-way, so the shelves are valid
        // even when a panic elsewhere poisoned the lock.
        self.shelves.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// A buffer of `len` elements holding whatever its last user left in
    /// it. Every caller overwrites each element before the buffer leaves
    /// this crate.
    pub(crate) fn take(&self, len: usize) -> Vec<T> {
        let reused = {
            let mut shelves = self.lock();
            let shelf = shelves.entry(len).or_default();
            shelf.out += 1;
            shelf.peak = shelf.peak.max(shelf.out);
            shelf.free.pop()
        };
        reused.unwrap_or_else(|| vec![T::default(); len])
    }

    /// A buffer of `len` default (zero) elements.
    pub fn zeroed(&self, len: usize) -> Vec<T> {
        let mut buf = self.take(len);
        buf.fill(T::default());
        buf
    }

    /// A buffer holding a copy of `src`.
    pub fn copied(&self, src: &[T]) -> Vec<T> {
        let mut buf = self.take(src.len());
        buf.copy_from_slice(src);
        buf
    }

    /// A buffer holding `f(x)` for each element `x` of `src`.
    pub fn mapped(&self, src: &[T], f: impl Fn(T) -> T) -> Vec<T> {
        let mut buf = self.take(src.len());
        for (b, &x) in buf.iter_mut().zip(src) {
            *b = f(x);
        }
        buf
    }

    /// Gives `buf` back: it is kept for the next taker of its length when
    /// the shelf's bound allows, and freed otherwise.
    pub fn give(&self, buf: Vec<T>) {
        self.give_all([buf]);
    }

    /// Gives back every buffer of `bufs` under one acquisition of the lock.
    pub fn give_all(&self, bufs: impl IntoIterator<Item = Vec<T>>) {
        let mut shelves = self.lock();
        for buf in bufs {
            let shelf = shelves.entry(buf.len()).or_default();
            // A buffer that never came from this recycler lowers the count
            // no further than zero.
            shelf.out = shelf.out.saturating_sub(1);
            if shelf.free.len() + shelf.out < shelf.peak {
                shelf.free.push(buf);
            }
        }
    }

    /// `(held, handed out, peak)` of the shelf for `len`.
    #[cfg(test)]
    pub(crate) fn counts(&self, len: usize) -> (usize, usize, usize) {
        let mut shelves = self.lock();
        let shelf = shelves.entry(len).or_default();
        (shelf.free.len(), shelf.out, shelf.peak)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    #[test]
    fn a_given_buffer_is_taken_again_and_comes_back_zeroed() {
        let r = Recycler::<u64>::new();
        let mut secret = r.zeroed(64);
        secret.fill(0xdead_beef);
        let addr = secret.as_ptr();
        r.give(secret);
        let again = r.zeroed(64);
        assert_eq!(again.as_ptr(), addr, "not the recycled buffer");
        assert!(again.iter().all(|&x| x == 0), "stale data handed out");
        r.give(again);
        assert!(r.copied(&[7; 64]).iter().all(|&x| x == 7));
    }

    #[test]
    fn shelves_hold_at_most_the_peak_minus_what_is_out() {
        let r = Recycler::new();
        let bufs: Vec<Vec<u64>> = (0..5).map(|_| r.zeroed(8)).collect();
        assert_eq!(r.counts(8), (0, 5, 5));
        r.give_all(bufs);
        assert_eq!(r.counts(8), (5, 0, 5));
        // Buffers from elsewhere cannot push the shelf past the peak.
        r.give_all((0..3).map(|_| vec![0u64; 8]));
        assert_eq!(r.counts(8), (5, 0, 5));
        let two = [r.zeroed(8), r.zeroed(8)];
        assert_eq!(r.counts(8), (3, 2, 5));
        r.give(vec![1u64; 8]);
        assert_eq!(r.counts(8), (4, 1, 5));
        r.give_all(two);
        assert_eq!(r.counts(8), (5, 0, 5));
        // Lengths keep separate shelves.
        assert_eq!(r.counts(9), (0, 0, 0));
    }

    #[test]
    fn the_bound_holds_under_concurrent_takes_and_gives() {
        const THREADS: usize = 4;
        let r = Recycler::new();
        let start = Barrier::new(THREADS);
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let (r, start) = (&r, &start);
                s.spawn(move || {
                    start.wait();
                    for round in 0..200 {
                        let bufs: Vec<Vec<u64>> =
                            (0..1 + (t + round) % 5).map(|_| r.zeroed(16)).collect();
                        assert!(bufs.iter().flatten().all(|&x| x == 0));
                        let (held, out, peak) = r.counts(16);
                        assert!(held + out <= peak, "{held} + {out} > {peak}");
                        r.give_all(bufs);
                    }
                });
            }
        });
        let (held, out, peak) = r.counts(16);
        assert_eq!(out, 0);
        assert!(held <= peak && peak <= THREADS * 5, "{held} / {peak}");
    }
}
