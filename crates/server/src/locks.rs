//! `std::sync` locking that ignores poisoning. A thread that panics
//! while holding one of the server's locks must not take down every
//! other thread that shares it, so a poisoned lock is used as if it were
//! not. The policy lives here, once, and no call site unwraps.

use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Lock `m`, whether or not an earlier holder panicked.
pub(crate) fn lock<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Release `guard`'s lock, wait for a notification on `cv`, relock.
pub(crate) fn wait<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

/// [`wait`], giving up after `timeout`. Callers re-check their own
/// condition, so whether it timed out is not returned.
pub(crate) fn wait_timeout<'a, T>(
    cv: &Condvar,
    guard: MutexGuard<'a, T>,
    timeout: Duration,
) -> MutexGuard<'a, T> {
    cv.wait_timeout(guard, timeout).unwrap_or_else(PoisonError::into_inner).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    /// A thread panics while holding the lock: the lock still hands out
    /// the value, and a condition-variable wait on it still returns,
    /// timed or notified.
    #[test]
    fn a_panicked_holder_leaves_the_lock_usable() {
        let pair = Arc::new((Mutex::new(1), Condvar::new()));
        let held = Arc::clone(&pair);
        let panicked = thread::spawn(move || {
            let mut g = lock(&held.0);
            *g = 2;
            panic!("poison the lock");
        })
        .join();
        assert!(panicked.is_err() && pair.0.is_poisoned());
        let (m, cv) = &*pair;
        assert_eq!(*lock(m), 2);
        let g = wait_timeout(cv, lock(m), Duration::from_millis(1));
        assert_eq!(*g, 2, "a timed wait returns");
        let notifier = Arc::clone(&pair);
        let t = thread::spawn(move || {
            *lock(&notifier.0) = 3;
            notifier.1.notify_all();
        });
        let mut g = g;
        while *g != 3 {
            g = wait(cv, g);
        }
        drop(g);
        t.join().unwrap();
    }
}
