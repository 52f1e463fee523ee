//! Open-loop arrival schedules and the arithmetic that times each query
//! from when it was due, not from when the generator got round to it.

/// Arrivals at a fixed mean rate, released in back-to-back bursts of
/// `burst` queries (`burst == 1` spaces them evenly). Every query of a
/// burst is due at the burst's start, so a query queued behind its
/// burst-mates is charged for the wait.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Schedule {
    rate_qps: u64,
    burst: u64,
}

impl Schedule {
    /// `rate_qps` queries per second in bursts of `burst`.
    pub fn new(rate_qps: u64, burst: u64) -> Schedule {
        assert!(
            rate_qps > 0 && burst > 0,
            "a schedule needs a rate and a burst size"
        );
        Schedule { rate_qps, burst }
    }

    /// Nanoseconds after the start at which query `i` is due.
    pub fn due_ns(&self, i: u64) -> u64 {
        let first_of_burst = i / self.burst * self.burst;
        (u128::from(first_of_burst) * 1_000_000_000 / u128::from(self.rate_qps)) as u64
    }

    /// How many queries fall due within the first `window_ns`.
    pub fn count_within(&self, window_ns: u64) -> u64 {
        let whole = u128::from(window_ns) * u128::from(self.rate_qps) / 1_000_000_000;
        (whole as u64).div_ceil(self.burst) * self.burst
    }
}

/// How late a send was: zero when it went out on time.
pub fn lateness_ns(due_ns: u64, sent_ns: u64) -> u64 {
    sent_ns.saturating_sub(due_ns)
}

/// Recovers a query's stream index from the 16-bit DNS ID it was sent
/// with (`index as u16`): the index congruent to `id` modulo 2^16 that
/// lies nearest `hint`, the newest index known to be in flight. Exact
/// while fewer than 2^15 queries are outstanding.
pub fn index_from_id(id: u16, hint: u64) -> u64 {
    let base = hint & !0xffff;
    let candidates = [
        base.checked_sub(0x1_0000),
        Some(base),
        base.checked_add(0x1_0000),
    ];
    candidates
        .into_iter()
        .flatten()
        .map(|b| b | u64::from(id))
        .min_by_key(|&c| c.abs_diff(hint))
        .expect("base itself is always a candidate")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn even_schedule_spaces_arrivals() {
        let s = Schedule::new(20_000, 1);
        assert_eq!(s.due_ns(0), 0);
        assert_eq!(s.due_ns(1), 50_000);
        assert_eq!(s.due_ns(20_000), 1_000_000_000);
        assert_eq!(s.count_within(1_000_000_000), 20_000);
    }

    #[test]
    fn bursts_share_their_due_time_and_keep_the_mean_rate() {
        let s = Schedule::new(20_000, 32);
        assert_eq!(s.due_ns(0), 0);
        assert_eq!(s.due_ns(31), 0);
        assert_eq!(s.due_ns(32), 32 * 50_000);
        assert_eq!(s.due_ns(63), 32 * 50_000);
        // Counts round up to whole bursts.
        assert_eq!(s.count_within(1_000_000_000), 20_000);
        assert_eq!(s.count_within(1_000_000), 32);
        assert_eq!(s.count_within(10_000_000_000) % 32, 0);
    }

    #[test]
    fn odd_rates_do_not_drift() {
        let s = Schedule::new(3, 1);
        assert_eq!(s.due_ns(1), 333_333_333);
        assert_eq!(s.due_ns(3), 1_000_000_000);
        assert_eq!(s.due_ns(3_000_000), 1_000_000 * 1_000_000_000);
    }

    #[test]
    fn lateness_never_negative() {
        assert_eq!(lateness_ns(1_000, 1_250), 250);
        assert_eq!(lateness_ns(1_000, 900), 0);
    }

    #[test]
    fn ids_map_back_to_indices_across_wraps() {
        for index in [0u64, 5, 65_535, 65_536, 65_540, 200_000, 1 << 40] {
            let id = index as u16;
            for hint in [
                index,
                index + 100,
                index.saturating_sub(100),
                index + 30_000,
            ] {
                assert_eq!(index_from_id(id, hint), index, "index {index} hint {hint}");
            }
        }
    }
}
