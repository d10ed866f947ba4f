//! Ordered fan-out of independent work items across worker threads.

use std::sync::Mutex;

/// Applies `f` to every item, fanning work across at most `jobs` worker
/// threads, and returns the results **in item order** regardless of which
/// worker finished when.
///
/// `f` receives `(index, item)` and must be deterministic per item for
/// output to be independent of `jobs`. With `jobs <= 1` (or a single
/// item) everything runs inline on the caller's thread — the fully serial
/// path, with no thread machinery at all.
///
/// Workers pull items from a shared queue, so long and short runs load-
/// balance; there is no per-item thread spawn. Lives in `gocast-sim` so
/// both the per-seed experiment fan-out and any kernel-level parallelism
/// share one audited implementation.
///
/// # Panics
///
/// Panics if a worker panics (the panic is propagated).
pub fn parallel_map<I, T, F>(jobs: usize, items: Vec<I>, f: F) -> Vec<T>
where
    I: Send,
    T: Send,
    F: Fn(usize, I) -> T + Sync,
{
    let workers = jobs.max(1).min(items.len());
    if workers <= 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, item)| f(i, item))
            .collect();
    }
    let n_items = items.len();
    let queue: Mutex<std::collections::VecDeque<(usize, I)>> =
        Mutex::new(items.into_iter().enumerate().collect());
    let mut indexed: Vec<(usize, T)> = Vec::with_capacity(n_items);
    std::thread::scope(|scope| {
        let queue = &queue;
        let f = &f;
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(move || {
                    let mut out = Vec::new();
                    loop {
                        let next = queue.lock().expect("queue lock").pop_front();
                        match next {
                            Some((i, item)) => out.push((i, f(i, item))),
                            None => break,
                        }
                    }
                    out
                })
            })
            .collect();
        for h in handles {
            indexed.extend(h.join().expect("parallel_map worker panicked"));
        }
    });
    indexed.sort_by_key(|(i, _)| *i);
    indexed.into_iter().map(|(_, v)| v).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_item_order() {
        let items: Vec<u64> = (0..32).collect();
        for jobs in [1, 2, 4, 7] {
            let out = parallel_map(jobs, items.clone(), |i, v| {
                assert_eq!(i as u64, v);
                v * 10
            });
            assert_eq!(out, (0..32).map(|v| v * 10).collect::<Vec<_>>());
        }
    }
}
