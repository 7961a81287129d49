//! Deterministic fault injection for the replication link.
//!
//! A [`FaultPlan`] is a seeded probability table parsed from a flag or the
//! `SAC_REPL_FAULTS` environment variable; a [`FaultInjector`] draws from it
//! per frame, on either side of the link.  Every failure mode the link must
//! survive is representable:
//!
//! * `drop` — the frame silently vanishes (the receiver must detect the gap
//!   via heartbeats / epoch continuity and reconnect);
//! * `delay` — the frame is held for a fixed number of milliseconds;
//! * `dup` — the frame is delivered twice (the receiver must dedup by
//!   position);
//! * `corrupt` — one payload byte is flipped (the receiver's CRC check must
//!   catch it and trigger a reconnect, never an apply);
//! * `truncate` — only a prefix of the frame is delivered and the
//!   connection is cut mid-frame.
//!
//! All randomness is a splitmix64 stream seeded from `(plan seed, stream
//! seed)`, so a pinned seed replays the identical fault schedule — the
//! convergence proptest drives every mode deterministically.

use crate::retry::splitmix64;

/// Flag/env-configurable fault probabilities for the replication link.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultPlan {
    /// Seed of the deterministic decision stream.
    pub seed: u64,
    /// Probability a frame is silently dropped.
    pub drop: f64,
    /// Probability a frame is delayed.
    pub delay: f64,
    /// How long a delayed frame is held, milliseconds.
    pub delay_ms: u64,
    /// Probability a frame is delivered twice.
    pub duplicate: f64,
    /// Probability one payload byte is flipped.
    pub corrupt: f64,
    /// Probability the frame is cut mid-way and the connection dropped.
    pub truncate: f64,
}

impl FaultPlan {
    /// Parses a spec like
    /// `seed=7,drop=0.1,dup=0.05,corrupt=0.05,truncate=0.02,delay=0.1:5`
    /// (`delay` takes `probability:milliseconds`).  Unknown keys and
    /// out-of-range probabilities are errors; omitted keys default to 0.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        for part in spec.split(',').filter(|p| !p.is_empty()) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("fault spec part '{part}' is not key=value"))?;
            let prob = |v: &str| -> Result<f64, String> {
                let p: f64 = v
                    .parse()
                    .map_err(|_| format!("fault probability '{v}' is not a number"))?;
                if !(0.0..=1.0).contains(&p) {
                    return Err(format!("fault probability {p} outside [0, 1]"));
                }
                Ok(p)
            };
            match key {
                "seed" => {
                    plan.seed = value
                        .parse()
                        .map_err(|_| format!("fault seed '{value}' is not an integer"))?;
                }
                "drop" => plan.drop = prob(value)?,
                "dup" => plan.duplicate = prob(value)?,
                "corrupt" => plan.corrupt = prob(value)?,
                "truncate" => plan.truncate = prob(value)?,
                "delay" => {
                    let (p, ms) = value.split_once(':').unwrap_or((value, "1"));
                    plan.delay = prob(p)?;
                    plan.delay_ms = ms
                        .parse()
                        .map_err(|_| format!("delay milliseconds '{ms}' is not an integer"))?;
                }
                other => return Err(format!("unknown fault key '{other}'")),
            }
        }
        Ok(plan)
    }

    /// The plan configured via `SAC_REPL_FAULTS`, if any (a malformed spec
    /// is reported and ignored rather than silently arming no faults).
    pub fn from_env() -> Option<FaultPlan> {
        let spec = std::env::var("SAC_REPL_FAULTS").ok()?;
        match FaultPlan::parse(&spec) {
            Ok(plan) => Some(plan),
            Err(e) => {
                eprintln!("ignoring SAC_REPL_FAULTS: {e}");
                None
            }
        }
    }
}

/// What the injector decided to do with one frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Deliver the frame untouched.
    Deliver,
    /// Silently swallow the frame.
    Drop,
    /// Hold the frame for this many milliseconds, then deliver it.
    Delay(u64),
    /// Deliver the frame twice.
    Duplicate,
    /// Flip the payload byte at this index (modulo the frame length).
    CorruptByte(usize),
    /// Deliver only this many bytes of the frame, then cut the connection.
    Truncate(usize),
}

/// Per-connection fault decision stream.
#[derive(Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    state: u64,
}

impl FaultInjector {
    /// An injector for one connection: `stream` distinguishes connections
    /// (and sides) so reconnects see fresh — but still deterministic —
    /// schedules.
    pub fn new(plan: FaultPlan, stream: u64) -> FaultInjector {
        FaultInjector {
            plan,
            state: splitmix64(plan.seed ^ stream.rotate_left(17) ^ 0x5AC0_FA17),
        }
    }

    fn next_unit(&mut self) -> f64 {
        self.state = splitmix64(self.state);
        (self.state >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Decides the fate of one frame of `len` bytes.  The probabilities are
    /// evaluated in a fixed order (drop, truncate, corrupt, dup, delay); at
    /// most one fault fires per frame.
    pub fn next_action(&mut self, len: usize) -> FaultAction {
        let roll = self.next_unit();
        // One roll, fixed sub-intervals: keeps the stream consumption per
        // frame constant so schedules stay aligned across code changes.
        let offset_roll = self.next_unit();
        let p = &self.plan;
        let mut floor = 0.0;
        for (prob, action) in [
            (p.drop, FaultAction::Drop),
            (
                p.truncate,
                FaultAction::Truncate((offset_roll * len.max(1) as f64) as usize),
            ),
            (
                p.corrupt,
                FaultAction::CorruptByte((offset_roll * len.max(1) as f64) as usize),
            ),
            (p.duplicate, FaultAction::Duplicate),
            (p.delay, FaultAction::Delay(p.delay_ms)),
        ] {
            if roll < floor + prob {
                return action;
            }
            floor += prob;
        }
        FaultAction::Deliver
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_full_spec() {
        let plan =
            FaultPlan::parse("seed=7,drop=0.1,dup=0.05,corrupt=0.2,truncate=0.02,delay=0.3:12")
                .unwrap();
        assert_eq!(plan.seed, 7);
        assert_eq!(plan.drop, 0.1);
        assert_eq!(plan.duplicate, 0.05);
        assert_eq!(plan.corrupt, 0.2);
        assert_eq!(plan.truncate, 0.02);
        assert_eq!(plan.delay, 0.3);
        assert_eq!(plan.delay_ms, 12);
        assert!(FaultPlan::parse("drop=1.5").is_err());
        assert!(FaultPlan::parse("nope=1").is_err());
        assert!(FaultPlan::parse("drop").is_err());
    }

    #[test]
    fn schedules_are_deterministic_and_exercise_every_mode() {
        let plan = FaultPlan::parse("seed=3,drop=0.2,dup=0.2,corrupt=0.2,truncate=0.2,delay=0.1:2")
            .unwrap();
        let mut a = FaultInjector::new(plan, 1);
        let mut b = FaultInjector::new(plan, 1);
        let mut seen_kinds = std::collections::HashSet::new();
        for _ in 0..400 {
            let action = a.next_action(64);
            assert_eq!(action, b.next_action(64));
            seen_kinds.insert(std::mem::discriminant(&action));
            if let FaultAction::Truncate(n) | FaultAction::CorruptByte(n) = action {
                assert!(n < 64);
            }
        }
        assert_eq!(seen_kinds.len(), 6, "all five faults plus Deliver");
        // Different streams diverge.
        let mut c = FaultInjector::new(plan, 2);
        let diverged = (0..50).any(|_| a.next_action(64) != c.next_action(64));
        assert!(diverged);
    }
}
