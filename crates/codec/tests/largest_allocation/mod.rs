//! An allocator that records, per thread, the largest single
//! allocation, so a decode's largest buffer can be bounded while other
//! tests run beside it. A test binary that declares `mod
//! largest_allocation;` runs under it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    // `try_with`: an allocation during thread teardown is not measured.
    let _ = LARGEST.try_with(|l| l.set(l.get().max(size)));
}

struct LargestAllocation;

unsafe impl GlobalAlloc for LargestAllocation {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static A: LargestAllocation = LargestAllocation;

/// `f`'s result and the largest single allocation it made on this
/// thread.
pub fn largest_allocation<R>(f: impl FnOnce() -> R) -> (R, usize) {
    LARGEST.with(|l| l.set(0));
    let r = f();
    (r, LARGEST.with(Cell::get))
}
