//! Seeded load generation: the PRNG, the open-loop Poisson schedule, the
//! statement mix, and the due-time accounting of an open-loop pass.
//!
//! Everything here is pure (no clock, no engine), so the same seed gives
//! the same inputs and the accounting is unit-tested on synthetic times.

/// Deterministic splitmix64.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, bound)`; `0` for an empty range.
    pub fn below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            0
        } else {
            self.next_u64() % bound
        }
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// Due times (seconds from the start of the pass) of a Poisson arrival
/// process at `rate_per_s` over `[0, window_s)`, conditioned on its
/// expected count: exactly `floor(rate * window)` arrivals, placed as a
/// Poisson process places them given that count (exponential gaps,
/// rescaled to the window).  Fixing the count makes the offered load the
/// same for every seed; only the arrival pattern varies.
pub fn poisson_schedule(seed: u64, rate_per_s: f64, window_s: f64) -> Vec<f64> {
    let n = (rate_per_s * window_s).floor() as usize;
    let mut rng = Rng::new(seed ^ 0x0A11_1CED);
    let mut at = 0.0f64;
    let mut due = Vec::with_capacity(n);
    for _ in 0..n {
        at += -(1.0 - rng.unit_f64()).ln();
        due.push(at);
    }
    // One more gap closes the window after the last arrival.
    let total = at - (1.0 - rng.unit_f64()).ln();
    for t in &mut due {
        *t *= window_s / total;
    }
    due
}

/// Statement index for each of `n` arrivals: whole rounds of `round`
/// (each statement index appears as often as it is listed), every round
/// shuffled independently by the seed.
pub fn statement_mix(seed: u64, n: usize, round: &[usize]) -> Vec<usize> {
    let mut rng = Rng::new(seed ^ 0x5EED_0F17);
    let mut out = Vec::with_capacity(n + round.len());
    while out.len() < n {
        let mut block = round.to_vec();
        rng.shuffle(&mut block);
        out.extend(block);
    }
    out.truncate(n);
    out
}

/// Clock readings (seconds from the start of the pass) for one open-loop
/// statement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpenLoopSample {
    /// Index into the statement corpus.
    pub stmt: usize,
    /// When the schedule wanted it sent.
    pub due: f64,
    /// When a connection became free and claimed it.
    pub claimed: f64,
    /// When it was actually sent.
    pub sent: f64,
    /// When its reply had been fully received.
    pub done: f64,
    /// Did the reply arrive and verify?
    pub ok: bool,
}

impl OpenLoopSample {
    /// Latency counted from the *due* time: a stall that delays later
    /// statements is charged to them, which a closed loop would hide.
    pub fn latency_ms(&self) -> f64 {
        (self.done - self.due) * 1e3
    }

    /// How late the generator itself ran: send time past the moment the
    /// statement was both due and had a free connection.  Waiting for a
    /// busy connection is queueing (it is inside `latency_ms`), not
    /// generator error.
    pub fn lateness_ms(&self) -> f64 {
        (self.sent - self.due.max(self.claimed)).max(0.0) * 1e3
    }
}

/// Statements that were due inside the window but had not been sent when
/// it closed — a growing backlog means the offered rate saturates the
/// system and the latency percentiles are not steady-state numbers.
pub fn backlog_at_end(samples: &[OpenLoopSample], window_s: f64) -> usize {
    samples
        .iter()
        .filter(|s| s.due < window_s && s.sent > window_s)
        .count()
}

/// Share of offered statements whose verified reply had arrived when the
/// window closed.  The one or two legitimately in flight at that moment
/// keep it a hair under 1 on a healthy run.
pub fn achieved_frac(samples: &[OpenLoopSample], window_s: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let done = samples
        .iter()
        .filter(|s| s.ok && s.done <= window_s)
        .count();
    done as f64 / samples.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_schedule_is_deterministic_by_seed() {
        let a = poisson_schedule(12, 200.0, 5.0);
        let b = poisson_schedule(12, 200.0, 5.0);
        let c = poisson_schedule(13, 200.0, 5.0);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.windows(2).all(|w| w[0] < w[1]), "due times ascend");
        assert!(a.iter().all(|t| (0.0..5.0).contains(t)));
        assert_eq!(
            a.len(),
            1_000,
            "the offered count does not vary with the seed"
        );
        assert_eq!(c.len(), 1_000);
        // Exponential gaps: about 1/e of them exceed the mean gap.
        let long = a.windows(2).filter(|w| w[1] - w[0] > 0.005).count();
        assert!((300..440).contains(&long), "{long} gaps above the mean");
    }

    #[test]
    fn statement_mix_keeps_the_round_proportions() {
        // 17-statement round: indices 0..15 once, index 15 (bulk) twice.
        let round: Vec<usize> = (0..16).chain([15]).collect();
        let mix = statement_mix(12, 17 * 40, &round);
        assert_eq!(mix, statement_mix(12, 17 * 40, &round));
        assert_ne!(mix, statement_mix(99, 17 * 40, &round));
        let bulk = mix.iter().filter(|&&s| s == 15).count();
        assert_eq!(bulk, 80);
        for block in mix.chunks(17) {
            let mut sorted = block.to_vec();
            sorted.sort_unstable();
            let mut want = round.clone();
            want.sort_unstable();
            assert_eq!(sorted, want);
        }
        assert_eq!(statement_mix(1, 5, &round).len(), 5);
    }

    fn sample(due: f64, claimed: f64, sent: f64, done: f64) -> OpenLoopSample {
        OpenLoopSample {
            stmt: 0,
            due,
            claimed,
            sent,
            done,
            ok: true,
        }
    }

    #[test]
    fn latency_counts_from_due_time_and_lateness_excludes_queueing() {
        // Sent on time.
        let on_time = sample(1.0, 0.5, 1.0002, 1.0102);
        assert!((on_time.latency_ms() - 10.2).abs() < 1e-9);
        assert!((on_time.lateness_ms() - 0.2).abs() < 1e-9);
        // Both connections were busy until 1.5: half a second of queueing
        // is latency, only the 1 ms after the claim is generator error.
        let queued = sample(1.0, 1.5, 1.501, 1.511);
        assert!((queued.latency_ms() - 511.0).abs() < 1e-9);
        assert!((queued.lateness_ms() - 1.0).abs() < 1e-9);
        // A clock that reads "sent before due" is not negative lateness.
        assert_eq!(sample(1.0, 0.0, 0.9999, 1.1).lateness_ms(), 0.0);
    }

    #[test]
    fn backlog_and_achieved_fraction() {
        let s = vec![
            sample(0.1, 0.0, 0.1, 0.2),
            sample(0.9, 0.2, 0.9, 0.99),
            sample(0.95, 0.2, 1.2, 1.3), // due inside, sent after: backlog
            OpenLoopSample {
                ok: false,
                ..sample(0.5, 0.0, 0.5, 0.6)
            },
        ];
        assert_eq!(backlog_at_end(&s, 1.0), 1);
        // Done in time: the first two.  Sent late and failed: not achieved.
        assert!((achieved_frac(&s, 1.0) - 0.5).abs() < 1e-12);
        assert_eq!(achieved_frac(&[], 1.0), 0.0);
    }
}
