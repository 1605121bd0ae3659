//! Seeded schedule-perturbation stress suite for the serving channel
//! primitives (`MpmcQueue`, `oneshot`).
//!
//! No model checker is available, so each round perturbs the thread
//! schedule instead: a few-line xorshift, seeded per round, scatters
//! yields and short sleeps between the operations. Every round runs
//! under a watchdog that turns a hang (a lost wake-up) into a test
//! failure naming the round's seed; rerun that seed to reproduce the
//! schedule's shape.

use fixar_pool::{oneshot, ChannelClosed, MpmcQueue};
use std::collections::HashSet;
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

/// A round that has not finished by then has lost a wake-up.
const ROUND_LIMIT: Duration = Duration::from_secs(1);

/// Xorshift64: the seeded source of every perturbation.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        // Never zero, and distinct seeds start far apart.
        Self(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// Nothing, a yield, or a sleep of up to 50 µs.
    fn jitter(&mut self) {
        match self.below(4) {
            0 => thread::yield_now(),
            1 => thread::sleep(Duration::from_micros(self.below(50))),
            _ => {}
        }
    }
}

/// Runs `round(seed)` on its own thread and fails, naming the seed, if
/// it panics or does not finish within [`ROUND_LIMIT`].
fn watchdog(name: &str, seed: u64, round: impl FnOnce(u64) + Send + 'static) {
    let (done, finished) = mpsc::channel();
    let worker = thread::spawn(move || {
        round(seed);
        let _ = done.send(());
    });
    match finished.recv_timeout(ROUND_LIMIT) {
        Ok(()) => worker.join().unwrap(),
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            if let Err(panic) = worker.join() {
                eprintln!("{name}: seed {seed} failed");
                std::panic::resume_unwind(panic);
            }
        }
        Err(mpsc::RecvTimeoutError::Timeout) => {
            panic!("{name}: seed {seed} hung for {ROUND_LIMIT:?} (a lost wake-up)")
        }
    }
}

/// P producers push numbered items while C consumers pop them with
/// `pop` and short-deadline `pop_deadline`; the queue closes once every
/// producer is done. Every item is popped exactly once, and each
/// consumer sees each producer's items in push order.
#[test]
fn every_item_is_popped_once_in_per_producer_order() {
    const PRODUCERS: usize = 3;
    const CONSUMERS: usize = 3;
    const ITEMS: usize = 200;
    for seed in 0..8 {
        watchdog("mpmc order", seed, |seed| {
            let q = Arc::new(MpmcQueue::new());
            let producers: Vec<_> = (0..PRODUCERS)
                .map(|p| {
                    let q = Arc::clone(&q);
                    thread::spawn(move || {
                        let mut rng = Rng::new(seed * 16 + p as u64);
                        for i in 0..ITEMS {
                            rng.jitter();
                            q.push((p, i)).unwrap();
                        }
                    })
                })
                .collect();
            let consumers: Vec<_> = (0..CONSUMERS)
                .map(|c| {
                    let q = Arc::clone(&q);
                    thread::spawn(move || {
                        let mut rng = Rng::new(seed * 16 + 8 + c as u64);
                        let mut seen = Vec::new();
                        loop {
                            rng.jitter();
                            let item = if rng.below(2) == 0 {
                                q.pop()
                            } else {
                                let wait = Duration::from_micros(rng.below(200));
                                match q.pop_deadline(Instant::now() + wait) {
                                    None if !(q.is_closed() && q.is_empty()) => continue,
                                    item => item,
                                }
                            };
                            match item {
                                Some(item) => seen.push(item),
                                None => return seen,
                            }
                        }
                    })
                })
                .collect();
            for p in producers {
                p.join().unwrap();
            }
            q.close();
            let mut all = HashSet::new();
            for c in consumers {
                let seen = c.join().unwrap();
                for p in 0..PRODUCERS {
                    let mine: Vec<usize> = seen.iter().filter(|x| x.0 == p).map(|x| x.1).collect();
                    assert!(
                        mine.windows(2).all(|w| w[0] < w[1]),
                        "producer {p}'s items out of push order"
                    );
                }
                for item in seen {
                    assert!(all.insert(item), "{item:?} popped twice");
                }
            }
            assert_eq!(all.len(), PRODUCERS * ITEMS, "items lost");
        });
    }
}

/// C consumers block on an empty queue — half in `pop`, half in a
/// `pop_deadline` far beyond the watchdog — then a few items arrive and
/// the queue closes. Every consumer wakes and returns, and the items
/// are drained exactly once. Fewer items than consumers, so the pushes'
/// own wake-ups cannot stand in for the close's.
#[test]
fn close_wakes_every_blocked_consumer_and_drains_the_queue() {
    const CONSUMERS: usize = 4;
    for seed in 0..6 {
        watchdog("mpmc close", seed, |seed| {
            let mut rng = Rng::new(seed);
            let q = Arc::new(MpmcQueue::new());
            let consumers: Vec<_> = (0..CONSUMERS)
                .map(|c| {
                    let q = Arc::clone(&q);
                    thread::spawn(move || {
                        let far = Instant::now() + Duration::from_secs(60);
                        let mut got = Vec::new();
                        while let Some(v) = if c % 2 == 0 {
                            q.pop()
                        } else {
                            q.pop_deadline(far)
                        } {
                            got.push(v);
                        }
                        got
                    })
                })
                .collect();
            // Let every consumer reach its wait.
            thread::sleep(Duration::from_millis(20 + rng.below(10)));
            let items = rng.below(CONSUMERS as u64 - 1);
            for i in 0..items {
                q.push(i).unwrap();
                rng.jitter();
            }
            q.close();
            let mut all: Vec<u64> = consumers
                .into_iter()
                .flat_map(|c| c.join().unwrap())
                .collect();
            all.sort_unstable();
            assert_eq!(all, (0..items).collect::<Vec<_>>());
            assert!(q.is_empty());
        });
    }
}

/// Each end of a one-shot slot is used (`send` / `recv`) or dropped,
/// on two threads with seeded delays — some long enough that the
/// receiver is already blocked. The receiver gets the value or
/// `ChannelClosed`, a send fails only if the receiver is gone, and
/// nothing hangs.
#[test]
fn oneshot_ends_race_to_a_value_or_closed() {
    for seed in 0..64 {
        watchdog("oneshot", seed, |seed| {
            let mut rng = Rng::new(seed);
            let (sends, receives) = (rng.below(2) == 0, rng.below(2) == 0);
            let sender_waits = rng.below(2) == 0;
            let (tx, rx) = oneshot::<u64>();
            let mut rx_rng = Rng::new(seed + 1000);
            let receiver = thread::spawn(move || {
                rx_rng.jitter();
                receives.then(|| rx.recv())
            });
            if sender_waits {
                thread::sleep(Duration::from_millis(1 + rng.below(3)));
            } else {
                rng.jitter();
            }
            let sent = sends.then(|| tx.send(seed));
            let received = receiver.join().unwrap();
            match (sent, received) {
                (Some(sent), Some(received)) => {
                    assert_eq!(sent, Ok(()));
                    assert_eq!(received, Ok(seed));
                }
                (None, Some(received)) => assert_eq!(received, Err(ChannelClosed)),
                (Some(sent), None) => assert!(sent == Ok(()) || sent == Err(seed)),
                (None, None) => {}
            }
        });
    }
}
