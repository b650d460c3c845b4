//! An allocator that records, per thread, how many blocks are allocated
//! and the largest one, so a decode's or an encode's allocations can be
//! bounded while other tests run beside it. A test binary that declares
//! `mod largest_allocation;` runs under it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Blocks allocated on this thread, and the largest one's size.
    static BLOCKS: Cell<(usize, usize)> = const { Cell::new((0, 0)) };
}

fn note(size: usize) {
    // `try_with`: an allocation during thread teardown is not counted.
    let _ = BLOCKS.try_with(|b| {
        let (n, largest) = b.get();
        b.set((n + 1, largest.max(size)));
    });
}

struct CountBlocks;

unsafe impl GlobalAlloc for CountBlocks {
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
static A: CountBlocks = CountBlocks;

/// `f`'s result, the blocks it allocated on this thread (a `realloc`
/// counts as one) and the largest of them.
#[allow(dead_code, reason = "not every test binary counts blocks")]
pub fn allocations<R>(f: impl FnOnce() -> R) -> (R, usize, usize) {
    BLOCKS.with(|b| b.set((0, 0)));
    let r = f();
    let (blocks, largest) = BLOCKS.with(Cell::get);
    (r, blocks, largest)
}

/// `f`'s result and the largest single allocation it made on this
/// thread.
#[allow(dead_code, reason = "not every test binary bounds one allocation")]
pub fn largest_allocation<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let (r, _, largest) = allocations(f);
    (r, largest)
}
