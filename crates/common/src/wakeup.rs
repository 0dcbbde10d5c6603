//! An epoch counter that idle threads block on instead of polling.
//!
//! One [`Wakeup`] is shared by everything taking part in one query
//! execution. Every event that can make new work runnable — a GCS write, a
//! slice landing in a flight-server inbox, a worker kill — calls
//! [`Wakeup::notify`], which bumps the epoch and wakes every waiter.
//!
//! A waiter reads [`Wakeup::epoch`] *before* scanning for work and passes
//! that value to [`Wakeup::wait_past`] when the scan finds nothing. An event
//! that lands anywhere between the read and the wait has already moved the
//! epoch, so the wait returns at once: no wakeup is lost. The timeout bounds
//! every wait, so a missed signal costs latency, never liveness.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// A monotonically increasing event counter with a blocking wait.
#[derive(Debug, Default)]
pub struct Wakeup {
    epoch: AtomicU64,
    /// Guards the check-then-wait in [`Wakeup::wait_past`] against a
    /// concurrent [`Wakeup::notify`]; holds no data of its own.
    lock: Mutex<()>,
    cond: Condvar,
}

impl Wakeup {
    pub fn new() -> Self {
        Self::default()
    }

    /// The current epoch. Read it before scanning for work.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// Record one event and wake every waiter.
    pub fn notify(&self) {
        self.epoch.fetch_add(1, Ordering::SeqCst);
        // Taking the lock orders this notify after any waiter that has
        // checked the epoch but not yet parked, so that waiter is woken.
        drop(self.lock.lock().unwrap_or_else(|e| e.into_inner()));
        self.cond.notify_all();
    }

    /// Block until the epoch moves past `seen` or `timeout` elapses,
    /// whichever comes first. Returns the epoch observed on return.
    pub fn wait_past(&self, seen: u64, timeout: Duration) -> u64 {
        let deadline = Instant::now() + timeout;
        let mut guard = self.lock.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            let epoch = self.epoch();
            let now = Instant::now();
            if epoch != seen || now >= deadline {
                return epoch;
            }
            guard = match self.cond.wait_timeout(guard, deadline - now) {
                Ok((guard, _)) => guard,
                Err(e) => e.into_inner().0,
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn notify_between_epoch_and_wait_is_not_lost() {
        let wakeup = Wakeup::new();
        let seen = wakeup.epoch();
        wakeup.notify();
        let start = Instant::now();
        let epoch = wakeup.wait_past(seen, Duration::from_secs(10));
        assert_eq!(epoch, seen + 1);
        assert!(start.elapsed() < Duration::from_secs(1), "wait did not return at once");
    }

    #[test]
    fn quiet_wait_returns_after_its_timeout() {
        let wakeup = Wakeup::new();
        let seen = wakeup.epoch();
        let start = Instant::now();
        assert_eq!(wakeup.wait_past(seen, Duration::from_millis(20)), seen);
        assert!(start.elapsed() >= Duration::from_millis(20));
    }

    #[test]
    fn one_notify_releases_every_waiter() {
        let wakeup = Arc::new(Wakeup::new());
        let seen = wakeup.epoch();
        let waiters: Vec<_> = (0..4)
            .map(|_| {
                let wakeup = Arc::clone(&wakeup);
                std::thread::spawn(move || {
                    let start = Instant::now();
                    let epoch = wakeup.wait_past(seen, Duration::from_secs(30));
                    (epoch, start.elapsed())
                })
            })
            .collect();
        // Give the waiters time to park; a late starter still returns at
        // once because the epoch has already moved.
        std::thread::sleep(Duration::from_millis(50));
        wakeup.notify();
        for waiter in waiters {
            let (epoch, waited) = waiter.join().unwrap();
            assert_eq!(epoch, seen + 1);
            assert!(waited < Duration::from_secs(10), "waiter slept out its timeout");
        }
    }
}
