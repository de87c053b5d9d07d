//! `parse_projected` allocates for the pairs it returns and for
//! nothing else: however many fields a record has besides the
//! requested ones, and whatever they hold, the allocation count is
//! that of the requested fields alone.
//!
//! Counted with a wrapping global allocator, per thread so the test
//! harness's own threads do not disturb the count. One test per file:
//! the allocator is process-wide.

use ciao_json::{parse, parse_projected};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAllocator;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter is a const-initialised
// thread-local `Cell`, so touching it neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's obligations for `alloc` are passed on.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's obligations for `realloc` are passed on.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn allocations_of(f: impl FnOnce()) -> usize {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

#[test]
fn skipped_fields_allocate_nothing() {
    // Everything the skip path can meet: long and escaped strings, an
    // escaped key, every number shape, literals, nested containers.
    let skipped = r#""name":"a string long enough to not be small","esc":"tab\there \"quoted\" é 😀","key":1,"nums":[0,-1,2.5,1e3,-4.25E-2,123456789012345678901234567890],"flags":[true,false,null],"address":{"street":"1 Main St","geo":{"lat":41.8,"lon":-87.6},"tags":["a","b",{"deep":[[[]]]}]},"empty":{},"none":[]"#;
    let narrow = r#"{"id":7,"score":2.5}"#;
    let wide = format!(r#"{{{skipped},"id":7,{skipped},"score":2.5,{skipped}}}"#);
    assert!(parse(&wide).is_ok());

    // Nothing requested: nothing allocated, on a record of any width.
    assert_eq!(
        allocations_of(|| drop(parse_projected(&wide, &[]).unwrap())),
        0
    );

    // Two scalar fields requested: the pairs vector and the two key
    // strings, whether or not the record has 60 other values.
    let on_narrow = allocations_of(|| drop(parse_projected(narrow, &["id", "score"]).unwrap()));
    let on_wide = allocations_of(|| drop(parse_projected(&wide, &["id", "score"]).unwrap()));
    assert_eq!(on_narrow, 3);
    assert_eq!(on_wide, on_narrow);

    // The oracle, for scale: it allocates per key, string and container.
    assert!(allocations_of(|| drop(parse(&wide).unwrap())) > 10 * on_wide);
}
