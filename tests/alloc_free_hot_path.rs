//! Tier-1 allocation budget of the per-word hot paths.
//!
//! Rollback by `Decoder::rewind` means no decoder state image is built
//! per word, so after warm-up the supervised pipeline makes no heap
//! allocation on a clean channel, for every code at every protection
//! tier, and a link session allocates a fixed amount however long its
//! stream is. Counted with a std-only counting global allocator; the
//! counts are per thread, so tests running in parallel do not disturb
//! each other.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use buscode::core::{Access, CodeKind, CodeParams, Tier};
use buscode::fault::GilbertElliott;
use buscode::link::{LinkConfig, LinkSession};
use buscode::pipeline::{clean_channel, Pipeline, PipelineConfig};

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the allocator also runs while thread-locals are torn
    // down, when there is nothing left to count into.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` unchanged; counting touches
// only a const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations (including reallocations) `f` makes on this thread.
fn allocations<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

/// Sequential instruction runs interleaved with data accesses: every
/// code's relative, frozen and plain branches all fire.
fn stream(len: usize) -> Vec<Access> {
    (0..len as u64)
        .map(|i| {
            if i % 5 == 4 {
                Access::data(0x2_0000 + 16 * (i % 64))
            } else {
                Access::instruction(0x400 + 4 * i)
            }
        })
        .collect()
}

#[test]
fn pipeline_process_allocates_nothing_per_word_after_warm_up() {
    let params = CodeParams::default();
    let accesses = stream(2048);
    let (warm_up, measured) = accesses.split_at(512);
    let mut channel = clean_channel();
    for kind in CodeKind::all() {
        for &tier in Tier::all() {
            let mut pipe =
                Pipeline::new(PipelineConfig::fixed_tier(kind, params, tier, 16)).expect("build");
            for &access in warm_up {
                pipe.process(access, &mut channel).expect("warm-up");
            }
            let (allocs, ()) = allocations(|| {
                for &access in measured {
                    let decoded = pipe.process(access, &mut channel).expect("process");
                    assert_eq!(decoded, access.address);
                }
            });
            assert_eq!(
                allocs,
                0,
                "{kind} {tier}: {allocs} allocations over {} words",
                measured.len()
            );
        }
    }
}

#[test]
fn link_session_allocations_do_not_grow_with_stream_length() {
    // A channel that never turns bad: the tier stays pinned and every
    // frame is delivered first time, so any growth is per-word waste.
    let clean = GilbertElliott {
        p_good_to_bad: 0.0,
        flip_good: 0.0,
        erase_good: 0.0,
        drop_good: 0.0,
        ..GilbertElliott::named("quiet").expect("profile")
    };
    let (short, long) = (stream(1024), stream(4096));
    for kind in CodeKind::all() {
        for &tier in Tier::all() {
            let mut config = LinkConfig::new(kind);
            config.redundancy.enabled = false;
            config.redundancy.start = tier;
            let run = |words: &[Access]| {
                let session = LinkSession::new(config.clone(), clean, 7).expect("build");
                let (allocs, outcome) = allocations(|| session.run(words).expect("run"));
                assert_eq!(outcome.stats.delivered_words, words.len() as u64);
                assert_eq!(outcome.stats.corrupted_delivered, 0);
                allocs
            };
            let (few, many) = (run(&short), run(&long));
            assert!(
                many <= few,
                "{kind} {tier}: {few} allocations for {} words but {many} for {}",
                short.len(),
                long.len()
            );
        }
    }
}
