//! Stage-level span timers.

use crate::histogram::Histogram;
use std::time::Instant;

/// A lightweight stage timer: starts on construction, records elapsed
/// microseconds into a [`Histogram`] when finished — explicitly via
/// [`Span::finish`] (which also returns the measurement) or implicitly on
/// drop, so early returns and `?` still get recorded.
///
/// A span borrows its histogram, so the usual shape is a pre-registered
/// `Arc<Histogram>` handle held by the component being instrumented:
///
/// ```
/// use sac_obs::{Histogram, Span};
///
/// fn stage(h: &Histogram) -> u64 {
///     let span = Span::start(h);
///     let answer = 6 * 7; // ... the work being timed ...
///     span.finish();
///     answer
/// }
///
/// let h = Histogram::new();
/// assert_eq!(stage(&h), 42);
/// assert_eq!(h.snapshot().count(), 1);
/// ```
#[derive(Debug)]
pub struct Span<'a> {
    hist: Option<&'a Histogram>,
    start: Instant,
}

impl<'a> Span<'a> {
    /// Starts timing against `hist`.
    pub fn start(hist: &'a Histogram) -> Self {
        Span {
            hist: Some(hist),
            start: Instant::now(),
        }
    }

    /// A span that times but records nowhere — the disabled-instrumentation
    /// arm, so call sites don't need their own `if observe` branches.
    pub fn disabled() -> Self {
        Span {
            hist: None,
            start: Instant::now(),
        }
    }

    /// Elapsed microseconds so far, without stopping the span.
    pub fn elapsed_micros(&self) -> u64 {
        self.start.elapsed().as_micros() as u64
    }

    /// Stops the span, records the measurement, and returns it in
    /// microseconds.
    pub fn finish(mut self) -> u64 {
        let micros = self.elapsed_micros();
        if let Some(h) = self.hist.take() {
            h.record(micros);
        }
        micros
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let Some(h) = self.hist.take() {
            h.record(self.start.elapsed().as_micros() as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finish_records_once() {
        let h = Histogram::new();
        let micros = Span::start(&h).finish();
        let snap = h.snapshot();
        assert_eq!(snap.count(), 1);
        assert!(snap.sum() >= micros.saturating_sub(1));
    }

    #[test]
    fn drop_records_disabled_does_not() {
        let h = Histogram::new();
        {
            let _span = Span::start(&h);
        }
        assert_eq!(h.snapshot().count(), 1);
        let _ = Span::disabled().finish();
        assert_eq!(h.snapshot().count(), 1);
    }
}
