//! What one [`Bytes`] costs: an 8-byte handle and one allocation of
//! exactly `8 + len` bytes, freed by the last of any number of handles
//! on any number of threads.
//!
//! This binary counts every allocation the process makes and holds one
//! test, so nothing else allocates beside it.

use bytes::{Buf, Bytes};
use std::alloc::{GlobalAlloc, Layout, System};
use std::panic;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};

/// The system allocator, counting calls, live bytes and the size of
/// the last and the largest request.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);
static LAST_SIZE: AtomicUsize = AtomicUsize::new(0);
static MAX_SIZE: AtomicUsize = AtomicUsize::new(0);

fn counted(size: usize) {
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    LAST_SIZE.store(size, Ordering::Relaxed);
    MAX_SIZE.fetch_max(size, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// whose contract is the one the caller was promised; the counters are
// statistics and publish nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        counted(layout.size());
        LIVE_BYTES.fetch_add(layout.size() as i64, Ordering::Relaxed);
        // SAFETY: the caller's `layout`, as given.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        counted(layout.size());
        LIVE_BYTES.fetch_add(layout.size() as i64, Ordering::Relaxed);
        // SAFETY: the caller's `layout`, as given.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` through one of the methods
        // above with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        counted(new_size);
        LIVE_BYTES.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        // SAFETY: as `dealloc`, and `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Handles move and are shared across threads: checked at compile time.
const _: () = {
    const fn send_sync<T: Send + Sync>() {}
    send_sync::<Bytes>();
};

/// Runs `make`, checks it allocated once, exactly `8 + want.len()`
/// bytes, and made a buffer holding `want`.
fn one_allocation(what: &str, want: &[u8], make: impl FnOnce() -> Bytes) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let bytes = make();
    let n = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(n, 1, "{what} allocated {n} times");
    let size = LAST_SIZE.load(Ordering::Relaxed);
    assert_eq!(size, 8 + want.len(), "{what} allocated {size} bytes");
    assert_eq!((bytes.len(), &bytes[..]), (want.len(), want), "{what}");
}

#[test]
fn one_word_per_handle_and_one_allocation_per_buffer() {
    assert_eq!(size_of::<Bytes>(), 8);
    assert_eq!(size_of::<Option<Bytes>>(), 8);

    let text = "sixty-four bytes of cached object data, as wire_scale caches....";
    let data = text.as_bytes();
    for want in [&b""[..], data] {
        one_allocation("copy_from_slice", want, || Bytes::copy_from_slice(want));
        one_allocation("build", want, || {
            Bytes::build(want.len(), |s| s.copy_from_slice(want))
        });
        let v = want.to_vec();
        one_allocation("From<Vec<u8>>", want, || Bytes::from(v));
        let mut cursor = want;
        one_allocation("Buf::copy_to_bytes", want, || {
            cursor.copy_to_bytes(want.len())
        });
    }
    one_allocation("new", b"", Bytes::new);
    one_allocation("default", b"", Bytes::default);
    one_allocation("from_static", data, || Bytes::from_static(data));
    let s = text.to_string();
    one_allocation("From<String>", data, || Bytes::from(s));
    let zeros = Bytes::build(3, |_| ());
    assert_eq!(&zeros[..], &[0, 0, 0], "build fills over zeros");
    let empty = Bytes::new();
    assert!(empty.is_empty() && empty == Bytes::from(Vec::new()));
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let copies = [empty.clone(), zeros.clone()];
    assert_eq!(
        ALLOCATIONS.load(Ordering::Relaxed),
        before,
        "a clone allocates"
    );
    drop((copies, zeros, empty));

    // Clones and drops from four threads at once free the buffer once,
    // after the last handle. `join` waits for a thread's exit, its
    // thread-locals' destructors included, and a first round makes
    // whatever the runtime keeps for spawning before the count starts.
    let join = |threads: Vec<std::thread::JoinHandle<()>>| {
        for t in threads {
            t.join().expect("no clone or drop panics");
        }
    };
    join((0..4).map(|_| std::thread::spawn(|| ())).collect());
    let live = LIVE_BYTES.load(Ordering::Relaxed);
    let shared = Bytes::copy_from_slice(data);
    let start = Arc::new(Barrier::new(4));
    let threads = (0..4).map(|_| {
        let (mine, start) = (shared.clone(), Arc::clone(&start));
        std::thread::spawn(move || {
            start.wait();
            for _ in 0..100_000 {
                drop(mine.clone());
            }
            assert_eq!(&mine[..], data);
        })
    });
    join(threads.collect());
    drop((shared, start));
    assert_eq!(LIVE_BYTES.load(Ordering::Relaxed), live, "bytes left live");

    // A length past the header's `u32` panics before allocating: no
    // request of that size ever reaches the allocator.
    panic::set_hook(Box::new(|_| ()));
    let too_long = u32::MAX as usize + 1;
    let made = panic::catch_unwind(|| Bytes::build(too_long, |_| ()));
    let _ = panic::take_hook();
    assert!(made.is_err(), "a {too_long}-byte build did not panic");
    let largest = MAX_SIZE.load(Ordering::Relaxed);
    assert!(largest < too_long, "{largest} bytes were requested");
}
