//! Regression test for ring wraparound under a tiny capacity: the
//! ring must drop the *oldest* events, report every drop, and keep
//! folding cumulative metrics for events the ring no longer holds.

use strandfs_obs::{Event, ObsSink, RingRecorder};
use strandfs_units::Instant;

fn deadline(item: u64) -> Event {
    // Odd items are late: deadline 100, completion 150.
    let completed = if item % 2 == 1 { 150 } else { 50 };
    Event::Deadline {
        stream: 0,
        item,
        round: item / 2,
        deadline: Instant::from_nanos(100),
        completed: Instant::from_nanos(completed),
    }
}

#[test]
fn tiny_env_cap_wraps_dropping_oldest_while_metrics_keep_folding() {
    let recorder = std::rc::Rc::new(std::cell::RefCell::new(RingRecorder::new(3)));
    let sink = ObsSink::shared(&recorder);

    const TOTAL: u64 = 10;
    for item in 0..TOTAL {
        sink.emit(|| deadline(item));
    }

    let rec = recorder.borrow();
    // Bounded at the cap, oldest dropped first.
    assert_eq!(rec.len(), 3);
    assert_eq!(rec.dropped(), TOTAL - 3);
    let retained: Vec<u64> = rec
        .events()
        .map(|e| match e {
            Event::Deadline { item, .. } => *item,
            other => panic!("unexpected event {other:?}"),
        })
        .collect();
    assert_eq!(retained, vec![7, 8, 9], "ring must keep the newest events");

    // Cumulative metrics saw all ten events, including the seven the
    // ring evicted.
    let m = rec.metrics();
    assert_eq!(m.tally.deadline_blocks, TOTAL);
    assert_eq!(m.tally.deadline_late, TOTAL / 2);
    assert_eq!(m.deadline_margin.count(), TOTAL / 2);
    assert_eq!(m.deadline_lateness.count(), TOTAL / 2);

    // The JSON report states the occupancy truthfully.
    let json = rec.to_json();
    assert!(json.contains("\"cap\":3"));
    assert!(json.contains("\"len\":3"));
    assert!(json.contains(&format!("\"dropped\":{}", TOTAL - 3)));
}
