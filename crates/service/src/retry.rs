//! Typed retry-with-backoff for transient service-log I/O errors.
//!
//! The durable service distinguishes *transient* failures (interrupted
//! syscalls, would-block, timeouts — worth retrying) from *permanent*
//! ones (corruption, missing files — surfaced immediately). Backoff is
//! **modeled, never slept**: a wall-clock sleep inside the commit path
//! would perturb nothing semantically but would make chaos sweeps slow
//! and flaky-looking; instead each retry adds an exponentially
//! growing delay to the total [`RetryPolicy::run`] returns.

use std::io;

/// Whether an I/O error is worth retrying. Everything else — corrupt
/// data, permission problems, missing files — is permanent and must
/// surface to the caller unchanged.
fn is_transient(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::Interrupted | io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// A bounded exponential-backoff policy for transient errors.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts (first try included). Must be at least 1.
    pub max_attempts: u32,
    /// Modeled delay before the first retry; doubles per retry.
    pub base_backoff_secs: f64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 4,
            base_backoff_secs: 1e-3,
        }
    }
}

impl RetryPolicy {
    /// The modeled delay charged before retry number `retry` (0-based).
    fn backoff_secs(&self, retry: u32) -> f64 {
        self.base_backoff_secs * 2f64.powi(retry.min(62) as i32)
    }

    /// Runs `op`, retrying transient errors up to the attempt bound.
    /// Returns the value plus `(retries, modeled_backoff_secs)` spent;
    /// non-transient errors and exhaustion propagate the last error.
    pub fn run<T>(&self, mut op: impl FnMut() -> io::Result<T>) -> io::Result<(T, u32, f64)> {
        assert!(self.max_attempts >= 1, "retry policy needs >= 1 attempt");
        let mut retries = 0u32;
        let mut backoff = 0.0f64;
        loop {
            match op() {
                Ok(v) => return Ok((v, retries, backoff)),
                Err(e) if is_transient(&e) && retries + 1 < self.max_attempts => {
                    backoff += self.backoff_secs(retries);
                    retries += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flaky(failures: u32) -> impl FnMut() -> io::Result<u32> {
        let mut left = failures;
        move || {
            if left > 0 {
                left -= 1;
                Err(io::Error::new(io::ErrorKind::Interrupted, "transient"))
            } else {
                Ok(7)
            }
        }
    }

    #[test]
    fn transient_errors_are_retried_with_growing_backoff() {
        let p = RetryPolicy {
            max_attempts: 4,
            base_backoff_secs: 0.5,
        };
        let (v, retries, backoff) = p.run(flaky(2)).unwrap();
        assert_eq!(v, 7);
        assert_eq!(retries, 2);
        assert_eq!(backoff, 0.5 + 1.0); // 0.5 * 2^0 + 0.5 * 2^1
    }

    #[test]
    fn permanent_errors_surface_immediately() {
        let p = RetryPolicy::default();
        let mut calls = 0u32;
        let err = p
            .run(|| -> io::Result<()> {
                calls += 1;
                Err(io::Error::new(io::ErrorKind::InvalidData, "corrupt"))
            })
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(calls, 1);
    }

    #[test]
    fn exhaustion_returns_the_last_transient_error() {
        let p = RetryPolicy {
            max_attempts: 3,
            base_backoff_secs: 1e-3,
        };
        let err = p.run(flaky(10)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::Interrupted);
    }
}
