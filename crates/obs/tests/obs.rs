//! Behavioral tests for the observability crate. The collector, registry,
//! and enabled switch are process-global, so every test touching them
//! serializes on [`lock`] and resets state up front.

use confmask_obs::{capture, counter_add, observe, observe_all, report, span, Report};
use std::sync::Mutex;

static LOCK: Mutex<()> = Mutex::new(());

/// Serializes tests that touch the global collector; resets collected
/// state and leaves collection enabled until the guard drops.
fn lock() -> impl Drop {
    struct Guard(#[allow(dead_code)] std::sync::MutexGuard<'static, ()>);
    impl Drop for Guard {
        fn drop(&mut self) {
            confmask_obs::set_enabled(false);
            confmask_obs::reset();
        }
    }
    let g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    confmask_obs::reset();
    confmask_obs::set_enabled(true);
    Guard(g)
}

#[test]
fn spans_nest_and_finish_in_completion_order() {
    // Capture is thread-local and needs no global switch.
    let ((), spans) = capture(|| {
        let outer = span("outer");
        let inner = span("inner");
        let innermost = span("innermost");
        innermost.finish();
        inner.finish();
        outer.finish();
        let sibling = span("sibling");
        sibling.finish();
    });
    let names: Vec<&str> = spans.iter().map(|s| s.name).collect();
    assert_eq!(names, ["innermost", "inner", "outer", "sibling"]);
    let by_name = |n: &str| spans.iter().find(|s| s.name == n).unwrap();
    assert_eq!(by_name("outer").parent, None);
    assert_eq!(by_name("sibling").parent, None);
    assert_eq!(by_name("inner").parent, Some(by_name("outer").id));
    assert_eq!(by_name("innermost").parent, Some(by_name("inner").id));
    // All on the same thread; duration can be 0µs but start must not
    // precede the parent's.
    assert!(spans.iter().all(|s| s.thread == spans[0].thread));
    assert!(by_name("inner").start_us >= by_name("outer").start_us);
}

#[test]
fn early_return_drops_still_record_the_span() {
    fn faux_stage(fail: bool) -> Result<(), ()> {
        let _sp = span("stage");
        if fail {
            return Err(()); // _sp records via Drop
        }
        Ok(())
    }
    let (result, spans) = capture(|| faux_stage(true));
    assert!(result.is_err());
    assert_eq!(spans.len(), 1);
    assert_eq!(spans[0].name, "stage");
}

#[test]
fn parentage_is_per_thread_and_threads_are_tagged() {
    let handles: Vec<_> = (0..2)
        .map(|_| {
            std::thread::spawn(|| {
                capture(|| {
                    let root = span("thread.root");
                    span("thread.child").finish();
                    root.finish();
                })
                .1
            })
        })
        .collect();
    let per_thread: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    for spans in &per_thread {
        // Each thread sees exactly its own two spans: a root (no parent
        // inherited from the spawning thread) and its child.
        assert_eq!(spans.len(), 2);
        let root = spans.iter().find(|s| s.name == "thread.root").unwrap();
        let child = spans.iter().find(|s| s.name == "thread.child").unwrap();
        assert_eq!(root.parent, None);
        assert_eq!(child.parent, Some(root.id));
        assert_eq!(root.thread, child.thread);
    }
    assert_ne!(
        per_thread[0][0].thread, per_thread[1][0].thread,
        "spans from different threads get distinct thread indices"
    );
}

#[test]
fn nested_captures_are_scoped() {
    let ((), outer) = capture(|| {
        span("before").finish();
        let (_, inner) = capture(|| span("inside").finish());
        assert_eq!(inner.len(), 1);
        assert_eq!(inner[0].name, "inside");
        span("after").finish();
    });
    let names: Vec<&str> = outer.iter().map(|s| s.name).collect();
    assert_eq!(names, ["before", "after"], "inner capture's spans are not re-reported");
}

#[test]
fn histogram_bucket_boundaries_and_percentiles() {
    let _g = lock();
    // 90 values of 1 and 10 of 1000: the median sits in the value-1 bucket,
    // the p99 in the 1000 bucket (upper bound 1023, clamped to max 1000).
    for _ in 0..90 {
        observe("test.hist.skewed", 1);
    }
    for _ in 0..10 {
        observe("test.hist.skewed", 1000);
    }
    // Power-of-two boundaries: 2^k lands in the bucket topped by 2^(k+1)-1.
    for v in [0u64, 1, 2, 3, 4, 7, 8] {
        observe("test.hist.bounds", v);
    }
    let r = report();
    let h = r.histogram("test.hist.skewed").unwrap();
    assert_eq!((h.count, h.min, h.max), (100, 1, 1000));
    assert_eq!(h.sum, 90 + 10 * 1000);
    assert_eq!(h.p50, 1);
    assert_eq!(h.p90, 1, "rank 90 is the last value-1 observation");
    assert_eq!(h.p99, 1000);

    let b = r.histogram("test.hist.bounds").unwrap();
    assert_eq!((b.count, b.min, b.max), (7, 0, 8));
    // rank(p50) = 4 → cumulative counts 1 (0), 2 (1), 4 (2,3) → bucket
    // upper bound 3.
    assert_eq!(b.p50, 3);
    // rank(p99) = 7 → the 8 observation's bucket, upper bound 15, clamped
    // to the observed max.
    assert_eq!(b.p99, 8);
}

#[test]
fn single_valued_histogram_has_flat_percentiles() {
    let _g = lock();
    for _ in 0..1000 {
        observe("test.hist.flat", 42);
    }
    let r = report();
    let h = r.histogram("test.hist.flat").unwrap();
    // 42's bucket tops out at 63; clamping to the observed range makes
    // every percentile exact.
    assert_eq!((h.p50, h.p90, h.p99), (42, 42, 42));
    assert_eq!(h.mean(), 42.0);
}

#[test]
fn batched_observations_match_single_ones() {
    let _g = lock();
    let values = [0u64, 1, 2, 3, 4, 7, 8, 1000];
    for v in values {
        observe("test.hist.single", v);
    }
    observe_all("test.hist.batch", values);
    let r = report();
    let (a, b) = (
        r.histogram("test.hist.single").unwrap(),
        r.histogram("test.hist.batch").unwrap(),
    );
    assert_eq!(
        (a.count, a.sum, a.min, a.max, a.p50, a.p90, a.p99),
        (b.count, b.sum, b.min, b.max, b.p50, b.p90, b.p99)
    );
}

#[test]
fn counters_saturate_instead_of_wrapping() {
    let _g = lock();
    counter_add("test.ctr.sat", u64::MAX - 1);
    counter_add("test.ctr.sat", 5);
    counter_add("test.ctr.sat", u64::MAX);
    assert_eq!(report().counter("test.ctr.sat"), Some(u64::MAX));
}

#[test]
fn zero_add_registers_a_counter() {
    let _g = lock();
    counter_add("test.ctr.zero", 0);
    assert_eq!(report().counter("test.ctr.zero"), Some(0));
    assert_eq!(report().counter("test.ctr.never"), None);
}

#[test]
fn disabled_collection_records_nothing_but_still_times() {
    let _g = lock();
    confmask_obs::set_enabled(false);
    counter_add("test.ctr.off", 3);
    observe("test.hist.off", 3);
    let sp = span("test.span.off");
    std::thread::sleep(std::time::Duration::from_millis(2));
    let took = sp.finish();
    assert!(took >= std::time::Duration::from_millis(2), "timing works while off");
    let r = report();
    assert_eq!(r.counter("test.ctr.off"), None);
    assert!(r.histogram("test.hist.off").is_none());
    assert_eq!(r.spans_named("test.span.off"), 0);
}

#[test]
fn report_round_trips_through_json() {
    let _g = lock();
    let root = span("rt.root");
    span("rt.child").finish();
    root.finish();
    counter_add("rt.counter", 7);
    confmask_obs::gauge_set("rt.gauge", 2.5);
    observe("rt.hist", 16);
    confmask_obs::warn!("rt", "an event with \"quotes\" and\nnewlines");

    let original = report();
    let parsed = Report::from_json(&original.to_json()).unwrap();
    assert_eq!(parsed.counter("rt.counter"), Some(7));
    assert_eq!(parsed.gauges, original.gauges);
    assert_eq!(parsed.histogram("rt.hist"), original.histogram("rt.hist"));
    assert_eq!(parsed.spans_named("rt.root"), 1);
    assert_eq!(parsed.spans_named("rt.child"), 1);
    let tree = parsed.tree();
    let rt = tree
        .iter()
        .find(|n| n.span.name == "rt.root")
        .expect("root span in tree");
    assert_eq!(rt.children.len(), 1);
    assert_eq!(rt.children[0].span.name, "rt.child");
    assert_eq!(parsed.events.len(), 1);
    assert!(parsed.events[0].message.contains("\"quotes\""));
    // Rendering mentions everything by name.
    let rendered = parsed.render();
    for needle in ["rt.root", "rt.child", "rt.counter", "rt.gauge", "rt.hist"] {
        assert!(rendered.contains(needle), "{needle} missing:\n{rendered}");
    }
}
