//! Hostile row counts in the stored-table codec: a fixed-width column
//! (`Int`, `Float`, `Bool`, dictionary codes) whose declared row count the
//! remaining bytes cannot hold fails with a `CodecError` where its values
//! start, and nothing is allocated in proportion to the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use maybms_engine::{DataType, Schema};
use maybms_store::codec::{get_urelation_any, put_schema, Reader, Writer};

thread_local! {
    /// The largest single allocation the current thread has asked for.
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, recording the largest request per thread (each
/// test decodes on its own thread, so it reads only its own requests).
struct Tracking;

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// contract is the one `GlobalAlloc` states; the record is a const-
// initialised thread-local `Cell`, so touching it neither allocates nor
// re-enters the allocator.
unsafe impl GlobalAlloc for Tracking {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = LARGEST.try_with(|m| m.set(m.get().max(layout.size())));
        // SAFETY: `layout` is the caller's, passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Tracking = Tracking;

#[test]
fn fixed_width_column_with_a_hostile_row_count_fails_before_allocating() {
    for (tag, dtype) in [
        (0u8, DataType::Int),
        (1, DataType::Float),
        (2, DataType::Bool),
        (4, DataType::Text),
    ] {
        let mut w = Writer::new();
        put_schema(&mut w, &Schema::from_pairs(&[("c", dtype)]));
        let mut bytes = w.finish();
        bytes.extend_from_slice(&u32::MAX.to_le_bytes()); // rows
        bytes.extend_from_slice(&1u32.to_le_bytes()); // columns
        bytes.push(tag);
        if tag == 4 {
            bytes.extend_from_slice(&0u32.to_le_bytes()); // empty dictionary
        }
        let values_at = bytes.len() as u64;
        bytes.extend_from_slice(&[0; 64]);

        LARGEST.with(|m| m.set(0));
        let e = get_urelation_any(&mut Reader::new(&bytes)).unwrap_err();
        let largest = LARGEST.with(Cell::get);
        assert_eq!(e.offset, values_at, "tag {tag}: {}", e.reason);
        assert!(e.reason.contains("remain"), "tag {tag}: {}", e.reason);
        assert!(largest < 4096, "tag {tag}: a {largest}-byte allocation");
    }
}
