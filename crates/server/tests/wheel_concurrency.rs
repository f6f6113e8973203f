//! The timer-wheel acceptance test: sleep-workload in-service
//! concurrency is **not** bounded by the worker count. Before the
//! wheel, every in-service rate-partition request parked one OS worker
//! thread in `thread::sleep`, so a 2-worker server executed at most two
//! stretched requests at once (and `PsdServer::start` silently raised
//! the thread count to the class count to compensate). With the
//! deadline chains on the wheel, zero threads block per request.

use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use psd_server::{PsdServer, SchedulerKind, ServerConfig, Workload};

/// 256 classes × one stretched request each on a `workers: 2` config:
/// every virtual task server runs concurrently on the wheel, so the
/// whole batch completes in roughly one (capped) stretched service
/// time, not 128 sequential ones.
#[test]
fn stretched_requests_complete_concurrently_on_two_workers() {
    const CLASSES: usize = 256;
    let work_unit = Duration::from_micros(200);
    let server = Arc::new(PsdServer::start(ServerConfig {
        deltas: vec![1.0; CLASSES],
        work_unit,
        scheduler: SchedulerKind::RatePartition,
        workload: Workload::Sleep,
        // Keep the allocator quiet for the whole test so the even
        // 1/256 split (stretch capped at 100) stays in force.
        control_window: Duration::from_secs(30),
        ..ServerConfig::default()
    }));

    // Each class's share is 1/256 → stretch caps at 100 → one request
    // of cost 1.0 occupies its virtual server for ≈ 20 ms.
    let per_request = work_unit.mul_f64(100.0);
    let (tx, rx) = mpsc::sync_channel(CLASSES);
    let t0 = Instant::now();
    for class in 0..CLASSES {
        let tx = tx.clone();
        assert!(server.submit_async(class, 1.0, move |done| {
            let _ = tx.send(done);
        }));
    }
    let mut completions = Vec::with_capacity(CLASSES);
    for _ in 0..CLASSES {
        completions.push(rx.recv_timeout(Duration::from_secs(10)).expect("all classes complete"));
    }
    let elapsed = t0.elapsed();

    // Serial execution on 2 workers would need ≥ 128 × 20 ms = 2.56 s;
    // concurrent wheel execution needs ~one service time plus
    // scheduling noise. 1 s of headroom is ~50× the ideal and still
    // 2.5× under the serial floor.
    assert!(
        elapsed < Duration::from_secs(1),
        "256 stretched requests took {elapsed:?} — concurrency is thread-bound again"
    );
    for (i, done) in completions.iter().enumerate() {
        assert!(
            done.service_s > 0.5 * per_request.as_secs_f64(),
            "completion {i}: service {} too short for the stretch",
            done.service_s
        );
        assert!(done.delay_s < 0.5, "completion {i}: head request should barely queue");
    }

    let stats = Arc::try_unwrap(server).ok().expect("sole owner").shutdown();
    let total: u64 = stats.classes.iter().map(|c| c.completed).sum();
    assert_eq!(total, CLASSES as u64);
    assert!(stats.classes.iter().all(|c| c.completed == 1), "one completion per class");
}

/// Back-to-back requests of one class still serialize (the virtual
/// task server is serial by definition): deadline chains preserve the
/// paper's M/G/1-per-class semantics.
#[test]
fn single_class_requests_chain_serially() {
    let work_unit = Duration::from_micros(500);
    let server = Arc::new(PsdServer::start(ServerConfig {
        deltas: vec![1.0],
        work_unit,
        scheduler: SchedulerKind::RatePartition,
        workload: Workload::Sleep,
        control_window: Duration::from_secs(30),
        ..ServerConfig::default()
    }));
    // Share 1.0 → stretch 1 → 0.5 ms per request; 8 requests chained.
    let (tx, rx) = mpsc::sync_channel(8);
    let t0 = Instant::now();
    for _ in 0..8 {
        let tx = tx.clone();
        assert!(server.submit_async(0, 1.0, move |done| {
            let _ = tx.send(done);
        }));
    }
    let mut delays = Vec::new();
    for _ in 0..8 {
        delays.push(rx.recv_timeout(Duration::from_secs(5)).expect("completes").delay_s);
    }
    let elapsed = t0.elapsed();
    assert!(
        elapsed >= Duration::from_millis(3),
        "8 × 0.5 ms serial services cannot finish in {elapsed:?}"
    );
    // Later requests queue behind earlier ones: delays grow.
    assert!(
        delays.last().unwrap() > &delays[0],
        "tail of the chain must wait longer than the head: {delays:?}"
    );
    Arc::try_unwrap(server).ok().expect("sole owner").shutdown();
}

/// A deadline filed ahead of the one the timer thread is parked on
/// rings its alarm: a short request of one class does not wait out a
/// long request of another.
#[test]
fn an_earlier_deadline_wakes_the_timer() {
    let server = PsdServer::start(ServerConfig {
        deltas: vec![1.0, 1.0],
        work_unit: Duration::from_millis(1),
        control_window: Duration::from_secs(30),
        ..ServerConfig::default()
    });
    let (tx, rx) = mpsc::sync_channel(2);
    let submit = |class: usize, cost: f64| {
        let tx = tx.clone();
        assert!(server.submit_async(class, cost, move |done| {
            let _ = tx.send((class, done));
        }));
    };
    submit(0, 150.0); // even split: stretch 2 → ≈ 300 ms
    std::thread::sleep(Duration::from_millis(20)); // the timer is parked on it
    submit(1, 1.0); // ≈ 2 ms
    let (first, done) = rx.recv_timeout(Duration::from_secs(10)).expect("a completion");
    assert_eq!(first, 1, "the short request finishes first");
    assert!(done.service_s < 0.15, "and on its own deadline: {}", done.service_s);
    assert_eq!(rx.recv_timeout(Duration::from_secs(10)).expect("the long one").0, 0);
    server.shutdown();
}

/// A departure is counted in `stats()` before its submitter hears of
/// it: the k-th reply of a class finds k completions of that class
/// counted. A client that holds a reply can therefore count on the
/// server's completion count to include it.
#[test]
fn a_completion_is_counted_before_it_is_delivered() {
    let server = Arc::new(PsdServer::start(ServerConfig {
        work_unit: Duration::from_micros(20),
        ..ServerConfig::default()
    }));
    let (tx, rx) = mpsc::sync_channel(20);
    for i in 0..20 {
        let (seen_by, tx, class) = (Arc::clone(&server), tx.clone(), i % 2);
        assert!(server.submit_async(class, 1.0, move |_| {
            let _ = tx.send((class, seen_by.stats().classes[class].completed));
        }));
    }
    let seen: Vec<(usize, u64)> = (0..20).map(|_| rx.recv().expect("delivered")).collect();
    for class in 0..2 {
        let counts: Vec<u64> = seen.iter().filter(|s| s.0 == class).map(|s| s.1).collect();
        assert_eq!(counts, (1..=10).collect::<Vec<_>>(), "class {class}");
    }
    // The callbacks drop their handles after they return.
    while Arc::strong_count(&server) > 1 {
        std::thread::yield_now();
    }
    Arc::try_unwrap(server).ok().expect("sole owner").shutdown();
}
