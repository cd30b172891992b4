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
//! A fork/join issued from inside a worker of a call that took every core
//! — a finalize batch whose markets each fork their leave-one-out
//! coalitions — runs inline on that worker: spawning again would start up
//! to workers² threads for no extra parallelism. When the outer call has
//! fewer items than the host has cores, its workers are not marked and a
//! nested fork/join spreads over the spare cores as usual.
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

use std::cell::Cell;
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

thread_local! {
    /// Set while this thread runs a chunk of a parallel fork/join that
    /// took every core.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// True on a thread that is running a chunk of a parallel
/// [`fork_join_mut`] that took every core — where a nested fork/join runs
/// inline.
fn in_worker() -> bool {
    IN_WORKER.with(Cell::get)
}

/// Marks the current thread as a worker until dropped, then restores the
/// previous mark.
struct WorkerMark(bool);

impl WorkerMark {
    fn set() -> WorkerMark {
        WorkerMark(IN_WORKER.with(|w| w.replace(true)))
    }
}

impl Drop for WorkerMark {
    fn drop(&mut self) {
        IN_WORKER.with(|w| w.set(self.0));
    }
}

/// Runs `f` once per item — on scoped worker threads when parallelism is
/// enabled, the host has more than one core, there is more than one item
/// and the caller is not a worker of a call that took every core; serially
/// inline otherwise — and returns the results **in item order**.
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
    if workers <= 1 || !parallel_enabled() || in_worker() {
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
    // Only a call that took every core marks its workers: one with spare
    // cores leaves them to the fork/joins its items issue.
    let saturated = workers == max_workers();
    let run_chunk = |c: usize, item_chunk: &mut [T], slot_chunk: &mut [Option<R>]| {
        let _worker = saturated.then(WorkerMark::set);
        for (o, (item, slot)) in item_chunk.iter_mut().zip(slot_chunk).enumerate() {
            *slot = Some(f(c * chunk + o, item));
        }
    };
    std::thread::scope(|scope| {
        let mut chunks = items.chunks_mut(chunk).zip(slots.chunks_mut(chunk));
        let (first_items, first_slots) = chunks.next().expect("at least two items");
        let spawned: Vec<_> = chunks
            .enumerate()
            .map(|(c, (item_chunk, slot_chunk))| {
                let run_chunk = &run_chunk;
                scope.spawn(move || run_chunk(c + 1, item_chunk, slot_chunk))
            })
            .collect();
        // The caller is a worker too: it runs the first chunk while the
        // spawned threads run the rest.
        run_chunk(0, first_items, first_slots);
        // Join each thread to its exit, not just to the end of its chunk:
        // an exited thread hands its allocator arena back, so the next
        // fork's threads reuse it instead of opening new ones.
        for worker in spawned {
            if let Err(panic) = worker.join() {
                std::panic::resume_unwind(panic);
            }
        }
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

    /// Forks over `outer` items, each of which forks over 4 inner items;
    /// per outer item, whether its worker was marked and whether every
    /// inner item ran on that worker's thread.
    fn nested_fork(outer: usize) -> Vec<(bool, bool)> {
        let mut items: Vec<Vec<u64>> = (0..outer as u64)
            .map(|i| (0..4).map(|j| i * 4 + j).collect())
            .collect();
        let ran = fork_join_mut(&mut items, |_, inner| {
            let me = std::thread::current().id();
            let inner_threads = fork_join_mut(inner, |_, x| {
                *x += 1;
                std::thread::current().id()
            });
            (in_worker(), inner_threads.iter().all(|&t| t == me))
        });
        assert_eq!(items.concat(), (1..=4 * outer as u64).collect::<Vec<_>>());
        // The mark never leaks out of the call.
        assert!(!in_worker());
        ran
    }

    #[test]
    fn nested_fork_joins_run_inline_when_the_outer_call_took_every_core() {
        // As many outer items as cores: every worker is marked and each
        // inner fork stays on the thread that runs its outer item, so a
        // call never spawns more than the outer fork's workers.
        let parallel = max_workers() > 1 && parallel_enabled();
        let ran = nested_fork(max_workers().max(2));
        assert!(ran
            .iter()
            .all(|&(marked, inline)| marked == parallel && inline));
    }

    #[test]
    fn nested_fork_joins_use_the_cores_an_outer_call_left_free() {
        // Two outer items on a host with more cores leave cores free: the
        // workers are not marked, and each inner fork spreads over workers
        // of its own.
        let saturated = parallel_enabled() && max_workers() == 2;
        let spare = parallel_enabled() && max_workers() > 2;
        let ran = nested_fork(2);
        assert!(ran
            .iter()
            .all(|&(marked, inline)| marked == saturated && inline != spare));
    }

    #[test]
    fn empty_and_single_item_lists_run_inline() {
        let mut none: Vec<u8> = Vec::new();
        assert!(fork_join_mut(&mut none, |_, x| *x).is_empty());
        let mut one = vec![7u8];
        assert_eq!(fork_join_mut(&mut one, |i, x| (i, *x)), vec![(0, 7)]);
    }
}
