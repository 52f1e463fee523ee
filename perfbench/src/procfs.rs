//! Readers for the `/proc` counters the benchmark takes from outside the
//! program: per-thread scheduler statistics, peak RSS and per-socket
//! UDP drops.

use std::fs;

/// One thread's `/proc/.../schedstat`: nanoseconds on CPU, nanoseconds
/// waiting on a run queue, and timeslices run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedStat {
    pub run_ns: u64,
    pub wait_ns: u64,
    pub slices: u64,
}

/// A set of threads' scheduler and context-switch counters, summed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ThreadCounters {
    pub sched: SchedStat,
    /// Voluntary context switches: each is the thread blocking for
    /// input, so each is one wake-up when it resumes.
    pub voluntary: u64,
}

impl ThreadCounters {
    /// Counter growth from `earlier` to `self`.
    pub fn since(&self, earlier: &ThreadCounters) -> ThreadCounters {
        ThreadCounters {
            sched: SchedStat {
                run_ns: self.sched.run_ns.saturating_sub(earlier.sched.run_ns),
                wait_ns: self.sched.wait_ns.saturating_sub(earlier.sched.wait_ns),
                slices: self.sched.slices.saturating_sub(earlier.sched.slices),
            },
            voluntary: self.voluntary.saturating_sub(earlier.voluntary),
        }
    }

    /// The sum of two sets of counter growth.
    pub fn plus(&self, other: &ThreadCounters) -> ThreadCounters {
        ThreadCounters {
            sched: SchedStat {
                run_ns: self.sched.run_ns + other.sched.run_ns,
                wait_ns: self.sched.wait_ns + other.sched.wait_ns,
                slices: self.sched.slices + other.sched.slices,
            },
            voluntary: self.voluntary + other.voluntary,
        }
    }
}

/// Parses `run_ns wait_ns slices`.
pub fn parse_schedstat(text: &str) -> Option<SchedStat> {
    let mut fields = text.split_whitespace().map(str::parse::<u64>);
    Some(SchedStat {
        run_ns: fields.next()?.ok()?,
        wait_ns: fields.next()?.ok()?,
        slices: fields.next()?.ok()?,
    })
}

/// The numeric value of a `Key:  value [kB]` line in a status file.
pub fn parse_status_field(text: &str, key: &str) -> Option<u64> {
    text.lines().find_map(|line| {
        let (k, rest) = line.split_once(':')?;
        if k.trim() != key {
            return None;
        }
        rest.split_whitespace().next()?.parse().ok()
    })
}

/// Summed `drops` of every socket in a `/proc/net/udp` table bound to
/// local `port`.
pub fn parse_udp_drops(table: &str, port: u16) -> u64 {
    let want = format!("{port:04X}");
    table
        .lines()
        .skip(1)
        .filter_map(|line| {
            let fields: Vec<&str> = line.split_whitespace().collect();
            let local_port = fields.get(1)?.rsplit(':').next()?;
            if local_port != want {
                return None;
            }
            fields.last()?.parse::<u64>().ok()
        })
        .sum()
}

/// The ids of this process's threads whose name starts with `prefix`.
pub fn thread_ids(prefix: &str) -> Vec<String> {
    let mut ids: Vec<String> = fs::read_dir("/proc/self/task")
        .map(|dir| {
            dir.filter_map(Result::ok)
                .map(|e| e.file_name().to_string_lossy().into_owned())
                .filter(|tid| {
                    fs::read_to_string(format!("/proc/self/task/{tid}/comm"))
                        .is_ok_and(|comm| comm.trim_end().starts_with(prefix))
                })
                .collect()
        })
        .unwrap_or_default();
    ids.sort();
    ids
}

/// Summed counters of the given threads (a thread that has exited
/// contributes nothing).
pub fn thread_counters(tids: &[String]) -> ThreadCounters {
    let mut total = ThreadCounters::default();
    for tid in tids {
        let dir = format!("/proc/self/task/{tid}");
        let sched = fs::read_to_string(format!("{dir}/schedstat"))
            .ok()
            .and_then(|s| parse_schedstat(&s))
            .unwrap_or_default();
        let status = fs::read_to_string(format!("{dir}/status")).unwrap_or_default();
        total.sched.run_ns += sched.run_ns;
        total.sched.wait_ns += sched.wait_ns;
        total.sched.slices += sched.slices;
        total.voluntary += parse_status_field(&status, "voluntary_ctxt_switches").unwrap_or(0);
    }
    total
}

/// Peak resident set size of the process, in KiB.
pub fn peak_rss_kib() -> u64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_status_field(&s, "VmHWM"))
        .unwrap_or(0)
}

/// Kernel receive-queue drops on the UDP sockets bound to `port`.
pub fn udp_drops(port: u16) -> u64 {
    fs::read_to_string("/proc/self/net/udp").map_or(0, |t| parse_udp_drops(&t, port))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedstat_fixture() {
        assert_eq!(
            parse_schedstat("123456789 4567 89\n"),
            Some(SchedStat {
                run_ns: 123_456_789,
                wait_ns: 4_567,
                slices: 89
            })
        );
        assert_eq!(parse_schedstat("1 2\n"), None);
        assert_eq!(parse_schedstat("x 2 3"), None);
    }

    #[test]
    fn status_fixture() {
        let status = "Name:\tnetio-shard-0\nState:\tS (sleeping)\nVmHWM:\t  204800 kB\n\
                      voluntary_ctxt_switches:\t1500\nnonvoluntary_ctxt_switches:\t42\n";
        assert_eq!(
            parse_status_field(status, "voluntary_ctxt_switches"),
            Some(1500)
        );
        assert_eq!(
            parse_status_field(status, "nonvoluntary_ctxt_switches"),
            Some(42)
        );
        assert_eq!(parse_status_field(status, "VmHWM"), Some(204_800));
        assert_eq!(parse_status_field(status, "VmRSS"), None);
    }

    #[test]
    fn udp_table_fixture() {
        let table = "  sl  local_address rem_address   st tx_queue rx_queue tr tm->when retrnsmt   uid  timeout inode ref pointer drops\n\
            \x20 12: 0100007F:B26B 00000000:0000 07 00000000:00000000 00:00000000 00000000     0        0 91 2 0000000000000000 7\n\
            \x20 13: 0100007F:B26B 00000000:0000 07 00000000:00000000 00:00000000 00000000     0        0 92 2 0000000000000000 5\n\
            \x20 40: 0100007F:0035 00000000:0000 07 00000000:00000000 00:00000000 00000000     0        0 93 2 0000000000000000 9\n";
        assert_eq!(parse_udp_drops(table, 0xB26B), 12);
        assert_eq!(parse_udp_drops(table, 53), 9);
        assert_eq!(parse_udp_drops(table, 54), 0);
    }

    #[test]
    fn counters_subtract_fieldwise() {
        let a = ThreadCounters {
            sched: SchedStat {
                run_ns: 10,
                wait_ns: 5,
                slices: 2,
            },
            voluntary: 3,
        };
        let b = ThreadCounters {
            sched: SchedStat {
                run_ns: 25,
                wait_ns: 9,
                slices: 7,
            },
            voluntary: 13,
        };
        let d = b.since(&a);
        assert_eq!(
            d.sched,
            SchedStat {
                run_ns: 15,
                wait_ns: 4,
                slices: 5
            }
        );
        assert_eq!(d.voluntary, 10);
        assert_eq!(d.plus(&a), b);
    }

    #[test]
    fn live_readers_see_this_process() {
        assert!(peak_rss_kib() > 0);
    }
}
