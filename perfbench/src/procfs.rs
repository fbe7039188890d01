//! Readers for `/proc/<pid>/stat` (CPU time) and `/proc/<pid>/io`
//! (storage bytes), the only way the benchmark looks inside a daemon
//! besides its stats and trace replies.

use std::path::PathBuf;

/// CPU time and storage counters of one process at one instant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProcSample {
    /// User + system CPU time in clock ticks.
    pub cpu_ticks: u64,
    /// Bytes the process caused to be sent to the storage layer.
    pub write_bytes: u64,
}

impl ProcSample {
    /// Counter growth from `earlier` to `self` (saturating, so a
    /// restarted process reads as no growth rather than a wrap).
    pub fn since(&self, earlier: &ProcSample) -> ProcSample {
        ProcSample {
            cpu_ticks: self.cpu_ticks.saturating_sub(earlier.cpu_ticks),
            write_bytes: self.write_bytes.saturating_sub(earlier.write_bytes),
        }
    }

    /// CPU time in milliseconds, at the kernel's 100 Hz `USER_HZ`.
    pub fn cpu_ms(&self) -> f64 {
        self.cpu_ticks as f64 * 1000.0 / TICKS_PER_S
    }
}

/// `USER_HZ`: the unit of the CPU fields in `/proc/<pid>/stat` on Linux.
pub const TICKS_PER_S: f64 = 100.0;

/// `utime + stime` from the text of `/proc/<pid>/stat`.
///
/// The command name (field 2) is parenthesised and may itself hold
/// spaces and parentheses, so fields are counted from the *last* `)`.
pub fn parse_stat_cpu(text: &str) -> Option<u64> {
    let rest = &text[text.rfind(')')? + 1..];
    // After the name come field 3 (state) onwards; utime and stime are
    // fields 14 and 15, i.e. indices 11 and 12 of what follows.
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some(utime + stime)
}

/// `write_bytes` from the text of `/proc/<pid>/io`: bytes sent to the
/// storage layer, unlike `wchar`, which counts every `write` call.
pub fn parse_io_write_bytes(text: &str) -> Option<u64> {
    text.lines()
        .find_map(|l| l.strip_prefix("write_bytes:"))
        .and_then(|v| v.trim().parse().ok())
}

/// Sample a live process; `None` once it has exited.
pub fn sample(pid: u32) -> Option<ProcSample> {
    let dir = PathBuf::from(format!("/proc/{pid}"));
    let cpu_ticks = parse_stat_cpu(&std::fs::read_to_string(dir.join("stat")).ok()?)?;
    let write_bytes = parse_io_write_bytes(&std::fs::read_to_string(dir.join("io")).ok()?)?;
    Some(ProcSample {
        cpu_ticks,
        write_bytes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const STAT: &str = "4242 (sorrento-node) S 4200 4242 4200 0 -1 4194560 1207 0 0 0 \
                        731 158 0 0 20 0 3 0 99321 123456789 2048 18446744073709551615 \
                        1 1 0 0 0 0 0 4096 17647 0 0 0 17 1 0 0 0 0 0";

    #[test]
    fn stat_sums_utime_and_stime() {
        assert_eq!(parse_stat_cpu(STAT), Some(731 + 158));
    }

    #[test]
    fn stat_name_with_spaces_and_parens_is_skipped() {
        let odd = STAT.replace("(sorrento-node)", "(a) b (c))");
        assert_eq!(parse_stat_cpu(&odd), Some(889));
    }

    #[test]
    fn stat_truncated_is_none() {
        assert_eq!(parse_stat_cpu("1 (x) S 1 2 3"), None);
        assert_eq!(parse_stat_cpu("no parens at all"), None);
    }

    #[test]
    fn io_reads_the_storage_field_not_the_char_field() {
        let io = "rchar: 900000\nwchar: 800000\nsyscr: 12\nsyscw: 34\n\
                  read_bytes: 4096\nwrite_bytes: 1310720\ncancelled_write_bytes: 0\n";
        assert_eq!(parse_io_write_bytes(io), Some(1_310_720));
    }

    #[test]
    fn io_missing_field_is_none() {
        assert_eq!(
            parse_io_write_bytes("rchar: 1\nwchar: 2\nread_bytes: 3\n"),
            None
        );
    }

    #[test]
    fn samples_this_process() {
        let me = sample(std::process::id()).expect("own /proc entry");
        let later = sample(std::process::id()).unwrap();
        assert_eq!(
            later.since(&me).write_bytes,
            later.write_bytes - me.write_bytes
        );
    }
}
