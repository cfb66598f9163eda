//! Point execution machinery shared by the DSE driver and the
//! `disco-bench` sweep harness: the order-preserving worker fan-out,
//! the per-point serial-vs-parallel divergence check, and the
//! configuration warnings (shard over-subscription, expected-injection)
//! that used to live in two places.

/// Runs `f` over every item, fanning round-robin across `workers` OS
/// threads (≤ 1 = fully serial). Results come back **in item order**
/// regardless of the worker count: items share no state, so the fan-out
/// needs no synchronization beyond joining, and the round-robin
/// assignment (`skip(t).step_by(workers)`) plus a final index sort make
/// the output order a pure function of the input.
///
/// # Panics
///
/// Propagates a worker panic.
pub fn fan_out<T: Sync, R: Send>(
    items: &[T],
    workers: usize,
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    let workers = workers.max(1).min(items.len().max(1));
    if workers <= 1 {
        return items.iter().map(f).collect();
    }
    let f = &f;
    let mut indexed: Vec<(usize, R)> = Vec::with_capacity(items.len());
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|t| {
                s.spawn(move || {
                    items
                        .iter()
                        .enumerate()
                        .skip(t)
                        .step_by(workers)
                        .map(|(i, item)| (i, f(item)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for handle in handles {
            match handle.join() {
                Ok(part) => indexed.extend(part),
                Err(_) => panic!("fan-out worker panicked"),
            }
        }
    });
    indexed.sort_by_key(|&(i, _)| i);
    indexed.into_iter().map(|(_, r)| r).collect()
}

/// Runs one point twice — the serial reference, then the parallel
/// configuration under test — and reports whether they agree on `key`
/// (typically the full rendered stats): the `sweep.rs`
/// serial-vs-parallel divergence check, applied per point. Returns the
/// reference result and the verdict (the reference is kept either way,
/// so a divergence is *reported*, never silently shipped).
pub fn run_point_checked<T, K: PartialEq>(
    serial: impl FnOnce() -> T,
    parallel: impl FnOnce() -> T,
    key: impl Fn(&T) -> K,
) -> (T, bool) {
    let reference = serial();
    let agreed = key(&parallel()) == key(&reference);
    (reference, agreed)
}

/// The structured warning for worker/shard over-subscription: asking
/// for more concurrent OS threads than the host has cores measures
/// scheduler noise, not the simulator. Each worker's network runs at
/// most `min(shards, host_cores)` threads, so that is what a worker
/// counts for. Returns a single JSON line, or `None` when the
/// configuration is sound.
pub fn oversubscription_warning(
    label: &str,
    workers: usize,
    shards_per_worker: usize,
    host_cores: usize,
) -> Option<String> {
    if host_cores == 0 {
        return None;
    }
    let requested = workers.max(1) * shards_per_worker.clamp(1, host_cores);
    if requested <= host_cores {
        return None;
    }
    Some(format!(
        "{{\"warning\":\"thread_oversubscription\",\"harness\":\"{}\",\
         \"workers\":{},\"shards_per_worker\":{},\"requested_threads\":{requested},\
         \"host_cores\":{host_cores},\"hint\":\"throughput numbers will measure \
         scheduler contention; lower --workers or --shards\"}}",
        crate::json::json_escape(label),
        workers.max(1),
        shards_per_worker.max(1),
    ))
}

/// Expected fault injections of a run: rate × cycles × sites.
pub fn expected_injections(rate: f64, cycles: u64, sites: u64) -> f64 {
    rate * cycles as f64 * sites as f64
}

/// The structured warning for the silent "0 faults injected looks like
/// 100% recovery" trap: a positive fault rate whose expected injection
/// count rounds to ~0 over the run needs a long-run/resume simulation,
/// not a bench-length one. Returns a single JSON line, or `None` when
/// the configuration is sound.
pub fn injection_warning(label: &str, rate: f64, cycles: u64, sites: u64) -> Option<String> {
    if rate <= 0.0 {
        return None;
    }
    let expected = expected_injections(rate, cycles, sites);
    if expected >= 1.0 {
        return None;
    }
    Some(format!(
        "{{\"warning\":\"expected_injections_rounds_to_zero\",\"job\":\"{}\",\
         \"rate\":{rate:e},\"cycles\":{cycles},\"sites\":{sites},\
         \"expected\":{expected:.6},\"hint\":\"a rate this low injects ~0 faults \
         over this run; use disco-serve long-run/resume mode (or more cycles) \
         for a meaningful recovery measurement\"}}",
        crate::json::json_escape(label),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fan_out_preserves_order_at_any_worker_count() {
        let items: Vec<u64> = (0..23).collect();
        let expect: Vec<u64> = items.iter().map(|i| i * i).collect();
        for workers in [1, 2, 4, 16, 64] {
            assert_eq!(fan_out(&items, workers, |&i| i * i), expect);
        }
        assert_eq!(fan_out(&[] as &[u64], 4, |&i| i), Vec::<u64>::new());
    }

    #[test]
    fn divergence_check_reports_disagreement() {
        let (v, ok) = run_point_checked(|| 7, || 7, |&x: &i32| x);
        assert!(ok);
        assert_eq!(v, 7);
        let (v, ok) = run_point_checked(|| 7, || 8, |&x: &i32| x);
        assert!(!ok, "disagreement must be reported");
        assert_eq!(v, 7, "the serial reference is kept");
        // The key projection lets uncomparable payloads ride along.
        let (v, ok) = run_point_checked(|| (7, "meta"), || (7, "other"), |t| t.0);
        assert!(ok, "only the key is compared");
        assert_eq!(v, (7, "meta"));
    }

    #[test]
    fn oversubscription_warns_only_past_host_cores() {
        assert!(oversubscription_warning("sweep", 4, 1, 8).is_none());
        assert!(oversubscription_warning("sweep", 8, 1, 8).is_none());
        let w = oversubscription_warning("sweep", 8, 2, 8).expect("warns");
        assert!(w.contains("\"requested_threads\":16"));
        assert!(w.contains("thread_oversubscription"));
        // A network never runs more threads than the host has cores.
        assert!(oversubscription_warning("pareto", 1, 4, 2).is_none());
        let w = oversubscription_warning("pareto", 2, 4, 2).expect("warns");
        assert!(w.contains("\"requested_threads\":4"));
        // Unknown host parallelism: stay quiet rather than guess.
        assert!(oversubscription_warning("sweep", 64, 4, 0).is_none());
    }

    #[test]
    fn injection_warning_fires_below_one_expected() {
        assert!(injection_warning("j", 0.0, 1000, 80).is_none());
        assert!(injection_warning("j", 1e-3, 1000, 80).is_none());
        let w = injection_warning("j", 1e-9, 1000, 80).expect("warns");
        assert!(w.contains("expected_injections_rounds_to_zero"));
    }
}
