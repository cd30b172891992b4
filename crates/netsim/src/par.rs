//! Deterministic fork/join execution for per-shard work.
//!
//! Between slot barriers, each shard of a sharded world is independent:
//! mining, receipt polling, and batched RPC fan-out touch one endpoint's
//! chain and decorators only. [`fork_join_mut`] spreads the items over
//! scoped worker threads and hands every result back **in item order**, so
//! a caller that merges results by index observes exactly what the serial
//! loop produced — the merge order, not the completion order, defines the
//! output. That is the whole determinism contract: a parallel run is
//! bit-identical to a serial run because nothing about thread scheduling
//! can reach the results.
//!
//! Worker count is capped by [`std::thread::available_parallelism`]: the
//! items are split into one contiguous chunk per available core; the
//! caller runs the first chunk, one scoped thread per remaining chunk. A
//! single-core host (or a single-item list) runs inline with no spawns at
//! all — parallelism can never cost more than the serial loop by more than
//! `workers − 1` spawns per call.
//!
//! Parallelism is a process-wide toggle ([`set_parallel`]) so a bench or a
//! CI job can drive the *same* binary serial and parallel and assert the
//! digests match.
//!
//! ## Safe splitting — why this module needs no `unsafe`
//!
//! The workspace forbids `unsafe` (`#![forbid(unsafe_code)]` on every
//! crate root), and fork/join is the one place that temptation would
//! arise. It never does: items are handed to workers through
//! [`slice::chunks_mut`], which partitions the input into disjoint
//! `&mut` chunks the borrow checker can verify, and
//! [`std::thread::scope`] proves every worker borrow ends before the
//! call returns. Each chunk — the caller's and every spawned thread's —
//! fills its own result slots; the join then drains the slots in item
//! order. Disjointness, lifetime, and ordering are all compiler-checked —
//! no raw pointers, no `split_at_mut` juggling, no `unsafe` escape hatch
//! required.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Process-wide parallelism toggle; workers are used when `true` (the
/// default) and every fork/join degenerates to the serial loop when
/// `false`.
static PARALLEL: AtomicBool = AtomicBool::new(true);

/// Enables or disables worker threads process-wide. Results are
/// bit-identical either way; only wall-clock time changes.
pub fn set_parallel(enabled: bool) {
    PARALLEL.store(enabled, Ordering::SeqCst);
}

/// True when [`fork_join_mut`] may spawn worker threads.
pub fn parallel_enabled() -> bool {
    PARALLEL.load(Ordering::Relaxed)
}

/// Cached [`std::thread::available_parallelism`] (0 = not yet probed).
static WORKERS: AtomicUsize = AtomicUsize::new(0);

/// The worker cap: the host's available parallelism, probed once.
pub fn max_workers() -> usize {
    match WORKERS.load(Ordering::Relaxed) {
        0 => {
            let n = std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1);
            WORKERS.store(n, Ordering::Relaxed);
            n
        }
        n => n,
    }
}

/// Runs `f` once per item — on scoped worker threads when parallelism is
/// enabled, the host has more than one core, and there is more than one
/// item; serially inline otherwise — and returns the results **in item
/// order**.
///
/// `f` gets the item's index and exclusive access to the item, so
/// per-shard state (a provider stack, a chain) can be mutated freely;
/// nothing is shared between workers. Items are split into at most
/// [`max_workers`] contiguous chunks: the caller runs the first chunk, one
/// scoped thread per remaining chunk, so a call spawns fewer threads than
/// the host has cores no matter how long the work list is. Worker panics
/// propagate to the caller when the scope joins.
pub fn fork_join_mut<T, R, F>(items: &mut [T], f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut T) -> R + Sync,
{
    let workers = max_workers().min(items.len());
    if workers <= 1 || !parallel_enabled() {
        return items
            .iter_mut()
            .enumerate()
            .map(|(i, item)| f(i, item))
            .collect();
    }
    // One pre-sized slot per item: each chunk fills the slots of its own
    // items, and collection by slot index restores item order no matter
    // how the threads interleave.
    let mut slots: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    let chunk = items.len().div_ceil(workers);
    let run_chunk = |c: usize, item_chunk: &mut [T], slot_chunk: &mut [Option<R>]| {
        for (o, (item, slot)) in item_chunk.iter_mut().zip(slot_chunk).enumerate() {
            *slot = Some(f(c * chunk + o, item));
        }
    };
    std::thread::scope(|scope| {
        let mut chunks = items.chunks_mut(chunk).zip(slots.chunks_mut(chunk));
        let (first_items, first_slots) = chunks.next().expect("at least two items");
        for (c, (item_chunk, slot_chunk)) in chunks.enumerate() {
            let run_chunk = &run_chunk;
            scope.spawn(move || run_chunk(c + 1, item_chunk, slot_chunk));
        }
        // The caller is a worker too: it runs the first chunk while the
        // spawned threads run the rest.
        run_chunk(0, first_items, first_slots);
    });
    slots
        .into_iter()
        .map(|slot| slot.expect("every chunk fills its slots"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_item_order_not_completion_order() {
        // Later items finish first (they sleep less); the merge must still
        // be in item order.
        let mut items: Vec<u64> = (0..8).collect();
        let results = fork_join_mut(&mut items, |i, item| {
            std::thread::sleep(std::time::Duration::from_millis(8 - i as u64));
            *item *= 10;
            (i, *item)
        });
        assert_eq!(
            results,
            (0..8).map(|i| (i as usize, i * 10)).collect::<Vec<_>>()
        );
        assert_eq!(items, (0..8).map(|i| i * 10).collect::<Vec<_>>());
    }

    #[test]
    fn serial_and_parallel_agree() {
        let work = |i: usize, item: &mut u64| -> u64 {
            *item = item
                .wrapping_mul(6364136223846793005)
                .wrapping_add(i as u64);
            *item
        };
        let mut a: Vec<u64> = (0..16).collect();
        let mut b = a.clone();
        // NOTE: drives the executor through both code paths directly
        // instead of flipping the global toggle (other tests run
        // concurrently under the same process-wide switch).
        let serial: Vec<u64> = a.iter_mut().enumerate().map(|(i, x)| work(i, x)).collect();
        let parallel = fork_join_mut(&mut b, work);
        assert_eq!(serial, parallel);
        assert_eq!(a, b);
    }

    #[test]
    fn caller_runs_the_first_chunk() {
        // Every item records the thread that ran it. The first chunk runs on
        // the calling thread, and the results still merge in item order.
        let caller = std::thread::current().id();
        let mut items: Vec<usize> = (0..8).collect();
        let ran = fork_join_mut(&mut items, |i, item| {
            *item += 100;
            (i, std::thread::current().id())
        });
        assert_eq!(
            ran.iter().map(|&(i, _)| i).collect::<Vec<_>>(),
            (0..8).collect::<Vec<_>>()
        );
        assert_eq!(items, (100..108).collect::<Vec<_>>());
        assert_eq!(ran[0].1, caller);
        // With workers, the whole first chunk ran on the caller and every
        // later chunk on a spawned thread.
        let workers = max_workers().min(items.len());
        if workers > 1 && parallel_enabled() {
            let chunk = items.len().div_ceil(workers);
            assert!(ran[..chunk].iter().all(|&(_, t)| t == caller));
            assert!(ran[chunk..].iter().all(|&(_, t)| t != caller));
        }
    }

    #[test]
    fn empty_and_single_item_lists_run_inline() {
        let mut none: Vec<u8> = Vec::new();
        assert!(fork_join_mut(&mut none, |_, x| *x).is_empty());
        let mut one = vec![7u8];
        assert_eq!(fork_join_mut(&mut one, |i, x| (i, *x)), vec![(0, 7)]);
    }
}
