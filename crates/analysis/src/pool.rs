//! The deterministic trial pool; see [`pool`].

use std::num::NonZeroUsize;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Runs `run_chunk(point, trials)` for every chunk of `points × trials`
/// on `min(threads, chunks)` scoped workers and returns one
/// `(point, result)` per chunk, in chunk order. `threads: None` uses one
/// worker per available core. This is the one trial pool of the
/// workspace: the figure sweeps ([`crate::sweep`]), the offered-load
/// sweep ([`crate::loadsweep`]) and the conformance runner of
/// `emr-conform` all run on it.
///
/// The chunks depend only on the arguments, never on the thread count:
/// each point's trials `0..trials` split into consecutive runs of
/// `chunk_trials`, points in ascending order. Workers claim chunks from
/// one atomic cursor, so which worker runs a chunk is up to the
/// scheduler, but every result carries its chunk index and the results
/// come back sorted by it. A caller that merges them in that order
/// performs the same floating-point reduction for every thread count,
/// including 1, provided each trial draws from RNG streams keyed by its
/// own indices rather than by the worker that runs it.
///
/// Each worker is its own thread, so the thread-local scratch of the
/// construction kernels is shared by every chunk that worker runs. One
/// worker runs the chunks in order on the calling thread, with no spawn:
/// a spawn and join is a visible share of a short sweep, and its
/// scheduling jitter swings the sweep's time. A panic in `run_chunk`
/// resumes on the caller with its original payload once every worker
/// has stopped.
pub fn pool<T, F>(
    points: usize,
    trials: u32,
    chunk_trials: u32,
    threads: Option<usize>,
    run_chunk: F,
) -> Vec<(usize, T)>
where
    T: Send,
    F: Fn(usize, Range<u32>) -> T + Sync,
{
    let chunk_trials = chunk_trials.max(1);
    let chunks: Vec<(usize, Range<u32>)> = (0..points)
        .flat_map(|point| {
            (0..trials.div_ceil(chunk_trials)).map(move |c| {
                let first = c * chunk_trials;
                (point, first..trials.min(first.saturating_add(chunk_trials)))
            })
        })
        .collect();
    let workers = threads
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, NonZeroUsize::get))
        .max(1)
        .min(chunks.len());
    if workers <= 1 {
        return chunks
            .into_iter()
            .map(|(point, trials)| (point, run_chunk(point, trials)))
            .collect();
    }

    // emr-lint: allow(A2, "work-stealing cursor: claim order is nondeterministic, but every result carries its chunk index and is sorted by it before returning")
    let next = AtomicUsize::new(0);
    let mut done: Vec<(usize, usize, T)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let (chunks, next, run_chunk) = (&chunks, &next, &run_chunk);
                scope.spawn(move || {
                    let mut mine = Vec::new();
                    loop {
                        // The cursor only hands out indices into `chunks`,
                        // which the spawn already published; results return
                        // through the join.
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        let Some((point, trials)) = chunks.get(index) else {
                            break;
                        };
                        mine.push((index, *point, run_chunk(*point, trials.clone())));
                    }
                    mine
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| match h.join() {
                Ok(mine) => mine,
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    });
    done.sort_by_key(|&(index, _, _)| index);
    done.into_iter()
        .map(|(_, point, result)| (point, result))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_cover_every_trial_once_in_chunk_order() {
        for threads in [1, 2, 5] {
            let out = pool(3, 70, 32, Some(threads), |point, trials| (point, trials));
            let expected: Vec<_> = (0..3)
                .flat_map(|p| [(p, (p, 0..32)), (p, (p, 32..64)), (p, (p, 64..70))])
                .collect();
            assert_eq!(out, expected, "threads {threads}");
        }
    }

    #[test]
    fn one_worker_runs_on_the_calling_thread() {
        let caller = std::thread::current().id();
        // Each chunk's result, and whether it ran on the calling thread.
        let run = |threads| -> (Vec<_>, Vec<bool>) {
            pool(3, 70, 32, Some(threads), |point, trials| {
                ((point, trials), std::thread::current().id() == caller)
            })
            .into_iter()
            .map(|(point, (result, on_caller))| ((point, result), on_caller))
            .unzip()
        };
        let (inline, threaded) = (run(1), run(2));
        assert_eq!(inline.0, threaded.0);
        assert!(inline.1.iter().all(|&on_caller| on_caller));
        assert!(threaded.1.iter().all(|&on_caller| !on_caller));
    }

    #[test]
    fn no_trials_runs_nothing() {
        assert!(pool(4, 0, 16, Some(3), |_, _| ()).is_empty());
        assert!(pool(0, 10, 16, None, |_, _| ()).is_empty());
    }
}
