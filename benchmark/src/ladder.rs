//! The layer ladder: the same request stream sent down rung 3 (`Client`
//! → `Server`), rung 2 (`Session` directly) and rung 1 (bare
//! `DynFoMachine`). Each rung contains the next, so a layer's own time
//! per request is one rung's mean latency minus the next one's.

use crate::harness::ratio;

/// Mean per-request latency on each rung, µs.
#[derive(Clone, Copy, Default, Debug, PartialEq)]
pub struct Ladder {
    pub wire_us: f64,
    pub session_us: f64,
    pub machine_us: f64,
}

impl Ladder {
    /// What the wire adds: framing, CRC, two socket hops, the handler
    /// thread's wake-up.
    pub fn net_overhead_us(&self) -> f64 {
        self.wire_us - self.session_us
    }

    /// What the serving layer adds around `machine.apply`: the session
    /// lock, journal append, fsync, checkpoints.
    pub fn serve_self_us(&self) -> f64 {
        self.session_us - self.machine_us
    }
}

/// The share of the serving layer's self time that its instrumented
/// parts (`fsync`, `append`, snapshots amortised per update) do not
/// account for. The reconciliation check: a large share means time is
/// going somewhere nobody is looking.
///
/// `writers` closed-loop writers saturate the session lock, so each
/// update also waits out the other writers' holds — a hold being the
/// machine's time plus the instrumented parts. With one writer the
/// expectation is just the instrumented parts.
pub fn unexplained_share(ladder: &Ladder, instrumented_us: &[f64], writers: usize) -> f64 {
    let serve_self_us = ladder.serve_self_us();
    if serve_self_us <= 0.0 {
        return 0.0;
    }
    let hold_us = ladder.machine_us + instrumented_us.iter().sum::<f64>();
    1.0 - ratio(writers as f64 * hold_us - ladder.machine_us, serve_self_us)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_layer_is_one_rung_minus_the_next() {
        let l = Ladder {
            wire_us: 500.0,
            session_us: 420.0,
            machine_us: 120.0,
        };
        assert_eq!(l.net_overhead_us(), 80.0);
        assert_eq!(l.serve_self_us(), 300.0);
        // The three parts add back up to what the client saw.
        assert_eq!(
            l.net_overhead_us() + l.serve_self_us() + l.machine_us,
            l.wire_us
        );
    }

    #[test]
    fn unexplained_share_reconciles() {
        let one = Ladder {
            wire_us: 0.0,
            session_us: 400.0,
            machine_us: 100.0,
        };
        assert!((unexplained_share(&one, &[200.0, 10.0, 30.0], 1) - 0.2).abs() < 1e-12);
        assert_eq!(unexplained_share(&one, &[300.0], 1), 0.0);
        // More instrumented time than the rungs differ by reads as
        // negative, not as an error.
        assert!(unexplained_share(&one, &[320.0], 1) < 0.0);
        // Two writers: each update waits out the other's whole hold.
        let two = Ladder {
            wire_us: 0.0,
            session_us: 700.0,
            machine_us: 100.0,
        };
        assert_eq!(unexplained_share(&two, &[250.0], 2), 0.0);
        let flat = Ladder {
            wire_us: 0.0,
            session_us: 100.0,
            machine_us: 100.0,
        };
        assert_eq!(unexplained_share(&flat, &[5.0], 1), 0.0);
    }
}
