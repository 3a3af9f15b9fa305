//! Differential proof that the timing-wheel and binary-heap engine
//! backends execute identical `(time, seq)` orders.
//!
//! The wheel replaced the heap as the default queue in PR 5; the heap is
//! retained ([`Engine::with_queue`]) precisely so
//! this suite can keep proving the two are observationally equivalent —
//! over randomized workloads of one-shot schedules, nested schedules,
//! recurring events, cancels and re-arms, the full execution trace
//! (fire time + firing order + executed/pending counters) must match
//! exactly. A second set of directed tests stresses the cancel-while-firing
//! window and the cancelled-timer accounting rules.

use std::cell::RefCell;
use std::rc::Rc;

use proptest::prelude::*;
use sdr_sim::{Engine, QueueKind, SimTime, TimerHandle};

/// One step of a randomized queue workload, interpreted identically on
/// both backends.
#[derive(Clone, Copy, Debug)]
enum Op {
    /// Schedule a one-shot at `now + dt` that logs `tag`.
    Once { dt: u64, tag: u32 },
    /// Schedule a one-shot at `now + dt` that logs `tag` and, when it
    /// fires, schedules a nested one-shot `dt2` later logging `tag + 1`.
    Nested { dt: u64, dt2: u64, tag: u32 },
    /// Schedule a recurring event at `now + dt` with period `period`,
    /// firing `count` times, logging `tag` each fire.
    Recurring {
        dt: u64,
        period: u64,
        count: u32,
        tag: u32,
    },
    /// Cancel the `k`-th handle created so far (modulo live count).
    Cancel { k: usize },
    /// Re-arm the `k`-th handle to `now + dt`.
    Reschedule { k: usize, dt: u64 },
}

fn op_strategy() -> impl Strategy<Value = Op> + Clone {
    (0u32..6, 0u64..5_000_000, 0u64..600_000, 0usize..64, 1u32..5).prop_map(
        |(which, dt, dt2, k, count)| match which {
            0 | 1 => Op::Once {
                dt,
                tag: dt as u32 ^ 0x5151,
            },
            2 => Op::Nested {
                dt,
                dt2,
                tag: dt as u32 ^ 0xA3A3,
            },
            3 => Op::Recurring {
                dt,
                period: dt2 + 1,
                count,
                tag: dt as u32 ^ 0x77,
            },
            4 => Op::Cancel { k },
            _ => Op::Reschedule { k, dt },
        },
    )
}

/// Executes the op program on one backend and returns the trace:
/// `(log of (fire-time, tag), executed, pending, final now)`.
fn run_program(kind: QueueKind, ops: &[Op]) -> (Vec<(u64, u32)>, u64, usize, u64) {
    let mut eng = Engine::with_queue(kind);
    let log: Rc<RefCell<Vec<(u64, u32)>>> = Rc::new(RefCell::new(Vec::new()));
    let handles: Rc<RefCell<Vec<TimerHandle>>> = Rc::new(RefCell::new(Vec::new()));

    // Interleave scheduling with execution: every op happens inside its
    // own driver event so cancels/re-arms race real queue state. Driver
    // events ride one recurring timer at a fixed cadence, like a protocol
    // control loop would.
    let ops: Vec<Op> = ops.to_vec();
    let mut i = 0usize;
    let (l, h) = (log.clone(), handles.clone());
    eng.schedule_recurring_at(SimTime(0), move |eng| {
        let op = ops[i];
        i += 1;
        match op {
            Op::Once { dt, tag } => {
                let l = l.clone();
                let hd = eng.schedule_in_handle(SimTime(dt), move |e| {
                    l.borrow_mut().push((e.now().0, tag));
                });
                h.borrow_mut().push(hd);
            }
            Op::Nested { dt, dt2, tag } => {
                let l = l.clone();
                let hd = eng.schedule_in_handle(SimTime(dt), move |e| {
                    l.borrow_mut().push((e.now().0, tag));
                    let l2 = l.clone();
                    e.schedule_in(SimTime(dt2), move |e| {
                        l2.borrow_mut().push((e.now().0, tag.wrapping_add(1)));
                    });
                });
                h.borrow_mut().push(hd);
            }
            Op::Recurring {
                dt,
                period,
                count,
                tag,
            } => {
                let l = l.clone();
                let mut left = count;
                let hd = eng.schedule_recurring_in(SimTime(dt), move |e| {
                    l.borrow_mut().push((e.now().0, tag));
                    left -= 1;
                    (left > 0).then(|| e.now() + SimTime(period))
                });
                h.borrow_mut().push(hd);
            }
            Op::Cancel { k } => {
                let hs = h.borrow();
                if !hs.is_empty() {
                    let hd = hs[k % hs.len()];
                    drop(hs);
                    eng.cancel(hd);
                }
            }
            Op::Reschedule { k, dt } => {
                let hs = h.borrow();
                if !hs.is_empty() {
                    let hd = hs[k % hs.len()];
                    drop(hs);
                    eng.reschedule(hd, eng.now() + SimTime(dt));
                }
            }
        }
        (i < ops.len()).then(|| eng.now() + SimTime(100_000))
    });

    eng.run();
    let trace = log.borrow().clone();
    (
        trace,
        eng.executed_events(),
        eng.pending_events(),
        eng.now().0,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The backbone differential: arbitrary schedule/cancel/re-arm
    /// programs produce byte-identical execution traces on both backends.
    #[test]
    fn wheel_and_heap_execute_identical_orders(
        ops in proptest::collection::vec(op_strategy(), 1..120),
    ) {
        let wheel = run_program(QueueKind::Wheel, &ops);
        let heap = run_program(QueueKind::Heap, &ops);
        prop_assert_eq!(&wheel.0, &heap.0, "fire traces diverge");
        prop_assert_eq!(wheel.1, heap.1, "executed-event counts diverge");
        prop_assert_eq!(wheel.2, heap.2, "pending counts diverge");
        prop_assert_eq!(wheel.3, heap.3, "final times diverge");
    }

    /// Loaded-queue ordering: N events at random times (many collisions)
    /// pop in exact (time, schedule-order) on the wheel.
    #[test]
    fn loaded_wheel_pops_sorted_stable(
        times in proptest::collection::vec(0u64..2_000_000, 1..400),
    ) {
        let mut eng = Engine::with_queue(QueueKind::Wheel);
        let log: Rc<RefCell<Vec<(u64, usize)>>> = Rc::new(RefCell::new(Vec::new()));
        for (i, &t) in times.iter().enumerate() {
            let l = log.clone();
            eng.schedule_at(SimTime(t), move |e| l.borrow_mut().push((e.now().0, i)));
        }
        eng.run();
        let got = log.borrow().clone();
        let mut want: Vec<(u64, usize)> =
            times.iter().enumerate().map(|(i, &t)| (t, i)).collect();
        // Stable by time: equal times keep schedule order.
        want.sort_by_key(|&(t, _)| t);
        prop_assert_eq!(got, want);
    }
}

// ---------------------------------------------------------------------------
// Directed cancel / accounting stress
// ---------------------------------------------------------------------------

fn on_both(f: impl Fn(&mut Engine)) {
    for kind in [QueueKind::Wheel, QueueKind::Heap] {
        let mut eng = Engine::with_queue(kind);
        f(&mut eng);
    }
}

/// A same-instant chain where each firing event cancels the next: only
/// every other event runs, on both backends, and the cancelled ones are
/// neither executed nor charged.
#[test]
fn cancel_chain_at_one_instant() {
    on_both(|eng| {
        let t = SimTime::from_nanos(5);
        let handles: Rc<RefCell<Vec<TimerHandle>>> = Rc::new(RefCell::new(Vec::new()));
        let fired: Rc<RefCell<Vec<usize>>> = Rc::new(RefCell::new(Vec::new()));
        for i in 0..10 {
            let (h, f) = (handles.clone(), fired.clone());
            let hd = eng.schedule_at_handle(t, move |e| {
                f.borrow_mut().push(i);
                // Cancel the successor (if any): it must not fire.
                let hs = h.borrow();
                if let Some(&next) = hs.get(i + 1) {
                    drop(hs);
                    assert!(e.cancel(next), "successor was pending");
                }
            });
            handles.borrow_mut().push(hd);
        }
        eng.run();
        assert_eq!(*fired.borrow(), vec![0, 2, 4, 6, 8]);
        assert_eq!(eng.executed_events(), 5, "cancelled events are not charged");
        assert_eq!(eng.pending_events(), 0);
    });
}

/// Cancel-while-firing: a recurring event is cancelled *by another event*
/// in the gap where its body has been taken for execution at the same
/// instant. The re-arm must be suppressed.
#[test]
fn cancel_while_firing_suppresses_rearm() {
    on_both(|eng| {
        let slot: Rc<RefCell<Option<TimerHandle>>> = Rc::new(RefCell::new(None));
        let fires = Rc::new(RefCell::new(0u32));
        let f = fires.clone();
        let s = slot.clone();
        // The recurring event fires first (scheduled first at t), then the
        // killer — then the recurrence would fire again one period later
        // if the cancel failed to reach the firing node.
        let h = eng.schedule_recurring_at(SimTime::from_nanos(10), move |e| {
            *f.borrow_mut() += 1;
            // Schedule the killer at the same instant, *after* this body
            // began executing: it runs within the same tick.
            let s2 = s.clone();
            e.schedule_at(e.now(), move |e| {
                let h = s2.borrow().expect("stored");
                assert!(e.cancel(h), "firing node is cancellable");
                assert!(!e.cancel(h), "second cancel is stale");
            });
            Some(e.now() + SimTime::from_nanos(10))
        });
        *slot.borrow_mut() = Some(h);
        eng.run();
        assert_eq!(*fires.borrow(), 1, "cancel mid-fire kills the recurrence");
        assert_eq!(eng.pending_events(), 0);
    });
}

/// Dense churn around cancel/re-arm of *many* timers parked in one far
/// slot: exercises tombstone reaping in cascades.
#[test]
fn mass_cancel_in_far_slots_reaps_lazily() {
    on_both(|eng| {
        let fired = Rc::new(RefCell::new(0u32));
        let mut handles = Vec::new();
        // 1000 timers parked several wheel levels out.
        for i in 0..1000u64 {
            let f = fired.clone();
            handles.push(
                eng.schedule_at_handle(SimTime::from_micros(100) + SimTime(i), move |_| {
                    *f.borrow_mut() += 1
                }),
            );
        }
        assert_eq!(eng.pending_events(), 1000);
        // Cancel three quarters of them before time moves at all.
        for (i, h) in handles.iter().enumerate() {
            if i % 4 != 0 {
                assert!(eng.cancel(*h));
            }
        }
        assert_eq!(eng.pending_events(), 250);
        eng.set_event_limit(250);
        eng.run();
        assert_eq!(
            *fired.borrow(),
            250,
            "every survivor fires within the limit"
        );
        assert_eq!(eng.executed_events(), 250);
        assert_eq!(eng.pending_events(), 0);
    });
}

/// Re-arm storms: a timer rescheduled many times fires exactly once, at
/// the last deadline, in fresh FIFO rank.
#[test]
fn rearm_storm_fires_once_at_final_deadline() {
    on_both(|eng| {
        let log: Rc<RefCell<Vec<u32>>> = Rc::new(RefCell::new(Vec::new()));
        let l = log.clone();
        let h = eng.schedule_at_handle(SimTime::from_nanos(10), move |_| l.borrow_mut().push(1));
        // Bounce it across levels, ending at 777ns.
        for t in [5_000u64, 80, 2_000_000, 40, 777] {
            assert!(eng.reschedule(h, SimTime::from_nanos(t)));
        }
        let l = log.clone();
        eng.schedule_at(SimTime::from_nanos(777), move |_| l.borrow_mut().push(2));
        eng.run();
        // Handle re-ranked at its last reschedule: the plain event at the
        // same instant was scheduled after it, so fires after it.
        assert_eq!(*log.borrow(), vec![1, 2]);
        assert_eq!(eng.executed_events(), 2);
        assert!(
            !eng.reschedule(h, SimTime::from_nanos(9999)),
            "fired handle is stale"
        );
    });
}

/// The event limit interacts with cancellation: a runaway chain is capped
/// by executed events only — parked cancelled timers do not eat budget.
#[test]
fn event_limit_counts_only_real_executions() {
    on_both(|eng| {
        // 100 far-future timers, all cancelled.
        let doomed: Vec<TimerHandle> = (0..100)
            .map(|_| eng.schedule_at_handle(SimTime::from_secs(5), |_| panic!("cancelled")))
            .collect();
        for h in doomed {
            eng.cancel(h);
        }
        // A 10-deep chain under a limit of 10 completes fully.
        let depth = Rc::new(RefCell::new(0u32));
        fn chain(eng: &mut Engine, d: Rc<RefCell<u32>>, left: u32) {
            if left == 0 {
                return;
            }
            eng.schedule_in(SimTime::from_nanos(1), move |e| {
                *d.borrow_mut() += 1;
                let d2 = d.clone();
                chain(e, d2, left - 1);
            });
        }
        chain(eng, depth.clone(), 10);
        eng.set_event_limit(10);
        eng.run();
        assert_eq!(*depth.borrow(), 10, "the cancelled timers cost no budget");
    });
}
