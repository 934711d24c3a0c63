//! The hot ops take their limbs from the recycler: once keys, plans,
//! tables and the recycler's shelves are warm, an HMult→Rescale, an
//! HRotate, a PMult and a BSGS linear transform on `test_small` request no
//! allocation of one limb or larger.
//!
//! A binary of its own with a single test, because the counting
//! allocator sees every thread of the process: the ops' rayon workers
//! must count, and no other test may.

use neo::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Wraps [`System`], counting requests of at least `THRESHOLD` bytes.
struct Counting;

/// Smallest request counted, in bytes; `usize::MAX` while not counting.
static THRESHOLD: AtomicUsize = AtomicUsize::new(usize::MAX);
static LARGE: AtomicUsize = AtomicUsize::new(0);

fn note(size: usize) {
    if size >= THRESHOLD.load(Ordering::SeqCst) {
        LARGE.fetch_add(1, Ordering::SeqCst);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counter never
// touches the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System` for `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f`, returning its result and how many requests of at least
/// `bytes` it made on any thread.
fn large_allocs<R>(bytes: usize, f: impl FnOnce() -> R) -> (R, usize) {
    LARGE.store(0, Ordering::SeqCst);
    THRESHOLD.store(bytes, Ordering::SeqCst);
    let out = f();
    THRESHOLD.store(usize::MAX, Ordering::SeqCst);
    (out, LARGE.load(Ordering::SeqCst))
}

#[test]
fn hot_ops_request_no_limb_sized_allocation_once_warm() {
    let e = FheEngine::new(CkksParams::test_small(), 11).unwrap();
    let (level, slots) = (e.max_level(), e.slots());
    let xs: Vec<f64> = (0..slots).map(|i| i as f64 / slots as f64 - 0.5).collect();
    let a = e.encrypt_f64(&xs, level).unwrap();
    let b = e.encrypt_f64(&xs, level).unwrap();
    let pt = e.encode_f64(&xs, level).unwrap();
    let diagonals: BTreeMap<usize, Vec<Complex64>> = (0..4)
        .map(|d| (d, vec![Complex64::new(0.25, 0.0); slots]))
        .collect();
    let lt = LinearTransform::try_from_diagonals(slots, diagonals).unwrap();
    let run = || {
        let prod = e.rescale(&e.hmult(&a, &b).unwrap()).unwrap();
        let rot = e.hrotate(&a, 3).unwrap();
        let scaled = e.pmult(&a, &pt).unwrap();
        let mixed = lt
            .try_apply_bsgs(e.chest(), e.encoder(), &a, 2, e.method())
            .unwrap();
        [prod, rot, scaled, mixed]
    };
    // Warm-up: keys, NTT plans, BConv tables and the recycler's shelves.
    drop(run());
    let limb = e.context().degree() * std::mem::size_of::<u64>();
    let (outs, large) = large_allocs(limb, run);
    assert_eq!(
        large, 0,
        "{large} requests of {limb} bytes or more once warm"
    );
    let got = e.decrypt_f64(&outs[0]).unwrap();
    assert!(
        (got[1] - xs[1] * xs[1]).abs() < 1e-3,
        "HMult decrypts wrong"
    );
}
