//! A global allocator that can log every allocation's time and size, so
//! that the benchmark can count the allocations of the event loop alone.
//!
//! The engine's `run_detailed` builds the world, runs the loop and
//! collects the report in one call, and reports each phase's wall time.
//! With every allocation's time logged, the loop's allocations are those
//! between the end of the build phase and the start of the report phase.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// The system allocator, logging allocations while a [`Log`] is armed.
pub struct Counting;

static LOG_ON: AtomicBool = AtomicBool::new(false);
static LOG_PTR: AtomicPtr<Entry> = AtomicPtr::new(std::ptr::null_mut());
static LOG_CAP: AtomicUsize = AtomicUsize::new(0);
static LOG_LEN: AtomicUsize = AtomicUsize::new(0);
static ANCHOR: OnceLock<Instant> = OnceLock::new();

/// One logged allocation: ns since the log's anchor, and its size.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Entry {
    /// Nanoseconds since [`anchor`].
    pub at_ns: u64,
    /// Bytes requested.
    pub bytes: u64,
}

/// The instant that logged times count from.
pub fn anchor() -> Instant {
    *ANCHOR.get_or_init(Instant::now)
}

impl Counting {
    #[inline]
    fn note(size: usize) {
        if LOG_ON.load(Ordering::Acquire) {
            let at_ns = ANCHOR.get().map_or(0, |a| a.elapsed().as_nanos() as u64);
            let i = LOG_LEN.fetch_add(1, Ordering::Relaxed);
            if i < LOG_CAP.load(Ordering::Relaxed) {
                let base = LOG_PTR.load(Ordering::Relaxed);
                // SAFETY: `base` points at the `LOG_CAP`-entry buffer owned
                // by the armed `Log`, which clears `LOG_ON`, `LOG_CAP` and
                // `LOG_PTR` before it frees or hands out the buffer; the
                // benchmark allocates from one thread while a log is
                // armed, `i < LOG_CAP`, and `fetch_add` hands every index
                // to exactly one writer.
                unsafe {
                    base.add(i).write(Entry {
                        at_ns,
                        bytes: size as u64,
                    })
                };
            }
        }
    }
}

// SAFETY: every method forwards to `System` with the caller's layout and
// pointer unchanged; the log only records sizes and never touches the
// memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Counting::note(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Counting::note(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Counting::note(new_size);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// A window during which every allocation's time and size is logged.
pub struct Log {
    buf: Vec<Entry>,
}

impl Log {
    /// Starts logging into a buffer of `capacity` entries.
    pub fn arm(capacity: usize) -> Log {
        anchor();
        let mut buf = vec![Entry::default(); capacity];
        LOG_LEN.store(0, Ordering::Relaxed);
        LOG_CAP.store(capacity, Ordering::Relaxed);
        LOG_PTR.store(buf.as_mut_ptr(), Ordering::Relaxed);
        LOG_ON.store(true, Ordering::Release);
        Log { buf }
    }

    /// Stops logging and returns the entries (`alloc`, `alloc_zeroed` and
    /// `realloc` each log one).
    ///
    /// # Errors
    ///
    /// Returns the number of allocations when they overflowed the buffer.
    pub fn finish(mut self) -> Result<Vec<Entry>, usize> {
        LOG_ON.store(false, Ordering::Release);
        LOG_CAP.store(0, Ordering::Relaxed);
        LOG_PTR.store(std::ptr::null_mut(), Ordering::Relaxed);
        let len = LOG_LEN.load(Ordering::Relaxed);
        if len > self.buf.len() {
            return Err(len);
        }
        self.buf.truncate(len);
        Ok(std::mem::take(&mut self.buf))
    }
}

impl Drop for Log {
    fn drop(&mut self) {
        LOG_ON.store(false, Ordering::Release);
        LOG_PTR.store(std::ptr::null_mut(), Ordering::Relaxed);
        LOG_CAP.store(0, Ordering::Relaxed);
    }
}
