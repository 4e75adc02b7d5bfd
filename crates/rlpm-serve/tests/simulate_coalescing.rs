//! Identical concurrent `simulate` requests coalesce: the first computes
//! the cell, the second waits on the cache's memo layer for its bytes.
//!
//! A test binary of its own, because the result cache is process-wide.

use std::sync::{Arc, Barrier};
use std::thread;

use experiments::cache;
use rlpm_serve::proto::{Request, Response, SimulateSpec};
use rlpm_serve::Service;

#[test]
fn identical_concurrent_simulates_compute_the_cell_once() {
    let dir = std::env::temp_dir().join(format!("rlpm-serve-test-coalesce-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    cache::configure(Some(dir.clone()));
    cache::clear_memo();
    cache::reset_stats();

    // A baseline policy trains nothing, so the only cacheable unit is the
    // cell itself; five simulated minutes of video keep the first request
    // computing long after the second one arrives.
    let request = Request::Simulate(SimulateSpec {
        scenario: "video".into(),
        policy: "ondemand".into(),
        soc: "xu3".into(),
        secs: 300,
        seed: 5,
    });
    let service = Arc::new(Service::new());
    let start = Arc::new(Barrier::new(2));
    let workers: Vec<_> = (0..2)
        .map(|_| {
            let (service, start, request) = (service.clone(), start.clone(), request.clone());
            thread::spawn(move || {
                start.wait();
                service.handle(&request).response
            })
        })
        .collect();
    let responses: Vec<Response> = workers
        .into_iter()
        .map(|w| w.join().expect("simulate does not panic"))
        .collect();
    let stats = cache::stats();
    cache::configure(None);
    cache::clear_memo();
    let _ = std::fs::remove_dir_all(&dir);

    assert!(
        matches!(responses[0], Response::Result { .. }),
        "{:?}",
        responses[0]
    );
    assert_eq!(responses[0], responses[1], "both requests see one result");
    assert_eq!(stats.misses, 1, "the cell is computed once: {stats:?}");
    assert_eq!(stats.stores, 1, "and stored once: {stats:?}");
    assert_eq!(stats.hits, 1, "the second request waits for it: {stats:?}");
}
