//! Parsers for the few `/proc` files the benchmark reads.

use std::fs;

/// Clock ticks per second of the `utime`/`stime` fields: Linux reports them
/// in `USER_HZ`, which the kernel ABI fixes at 100.
const USER_HZ: f64 = 100.0;

/// From `/proc/<pid>/stat`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Stat {
    /// User plus system CPU seconds, summed over every thread.
    pub cpu_s: f64,
    /// Threads in the process.
    pub threads: u64,
}

/// Parses `/proc/<pid>/stat`. The command name is parenthesised and may
/// hold spaces or parentheses, so fields are counted after the last `)`.
pub fn parse_stat(text: &str) -> Option<Stat> {
    let rest = &text[text.rfind(')')? + 1..];
    let f: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state): utime is field 14, stime 15 and
    // num_threads 20.
    let field = |n: usize| f.get(n - 3)?.parse::<u64>().ok();
    Some(Stat {
        cpu_s: (field(14)? + field(15)?) as f64 / USER_HZ,
        threads: field(20)?,
    })
}

/// Loopback traffic of this network namespace, from `/proc/net/*`.
///
/// Socket I/O bypasses the per-process `/proc/<pid>/io` accounting, so the
/// fleet's wire traffic is read from the namespace's TCP and interface
/// counters; the benchmark's own processes are the only loopback users
/// while it measures.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Net {
    /// TCP segments sent, pure ACKs included (`Tcp: OutSegs`).
    pub segs_out: u64,
    /// TCP segments sent that carried new data (`TcpExt: TCPOrigDataSent`).
    pub data_segs: u64,
    /// Bytes the loopback interface transmitted, headers included.
    pub lo_bytes: u64,
}

/// The value under `key` in a `/proc/net/snmp`-style table, where a header
/// line and a value line share the `prefix` (`"Tcp:"`, `"TcpExt:"`).
pub fn table_value(text: &str, prefix: &str, key: &str) -> Option<u64> {
    let mut rows = text.lines().filter(|l| l.starts_with(prefix));
    let header = rows.next()?;
    let values = rows.next()?;
    let col = header.split_whitespace().position(|k| k == key)?;
    values.split_whitespace().nth(col)?.parse().ok()
}

/// Transmitted bytes of interface `name` in `/proc/net/dev`.
pub fn dev_tx_bytes(text: &str, name: &str) -> Option<u64> {
    let line = text
        .lines()
        .find_map(|l| l.trim_start().strip_prefix(name)?.strip_prefix(':'))?;
    // Eight receive columns precede the transmit bytes.
    line.split_whitespace().nth(8)?.parse().ok()
}

/// Reads the namespace's loopback counters.
pub fn net() -> Option<Net> {
    let snmp = fs::read_to_string("/proc/net/snmp").ok()?;
    let netstat = fs::read_to_string("/proc/net/netstat").ok()?;
    let dev = fs::read_to_string("/proc/net/dev").ok()?;
    Some(Net {
        segs_out: table_value(&snmp, "Tcp:", "OutSegs")?,
        data_segs: table_value(&netstat, "TcpExt:", "TCPOrigDataSent")?,
        lo_bytes: dev_tx_bytes(&dev, "lo")?,
    })
}

/// From `/proc/<pid>/status` (or one thread's `task/<tid>/status`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Status {
    /// Peak resident set, in KiB.
    pub vm_hwm_kb: u64,
    /// Voluntary plus involuntary context switches of this task.
    pub ctx_switches: u64,
}

/// Parses a `status` file.
pub fn parse_status(text: &str) -> Option<Status> {
    Some(Status {
        vm_hwm_kb: keyed(text, "VmHWM:")?,
        ctx_switches: keyed(text, "voluntary_ctxt_switches:")?
            + keyed(text, "nonvoluntary_ctxt_switches:")?,
    })
}

/// The first number on the line starting with `key`.
fn keyed(text: &str, key: &str) -> Option<u64> {
    text.lines()
        .find_map(|l| l.strip_prefix(key))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Reads and parses one file of `pid` (`"self"` for this process).
fn read<T>(pid: &str, file: &str, parse: fn(&str) -> Option<T>) -> Option<T> {
    parse(&fs::read_to_string(format!("/proc/{pid}/{file}")).ok()?)
}

/// `/proc/<pid>/stat`.
pub fn stat(pid: &str) -> Option<Stat> {
    read(pid, "stat", parse_stat)
}

/// `/proc/<pid>/status`.
pub fn status(pid: &str) -> Option<Status> {
    read(pid, "status", parse_status)
}

/// Context switches summed over every thread of `pid` (the process-level
/// `status` counts the main thread only).
pub fn ctx_switches(pid: &str) -> Option<u64> {
    let mut total = 0;
    for entry in fs::read_dir(format!("/proc/{pid}/task")).ok()? {
        let tid = entry.ok()?.file_name();
        let tid = tid.to_str()?;
        // A thread may exit between listing and reading; skip it.
        if let Some(s) = read(&format!("{pid}/task/{tid}"), "status", parse_status) {
            total += s.ctx_switches;
        }
    }
    Some(total)
}

/// Peak resident set of this process, in MB.
pub fn self_peak_rss_mb() -> f64 {
    status("self").map_or(0.0, |s| s.vm_hwm_kb as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_counts_fields_after_the_last_paren() {
        let text = "4242 (fuse (node) x) S 1 4242 4242 0 -1 4194560 120 0 0 0 \
                    250 50 0 0 20 0 9 0 123456 10000000 900 18446744073709551615";
        let s = parse_stat(text).expect("parses");
        assert_eq!(s.threads, 9);
        assert!((s.cpu_s - 3.0).abs() < 1e-12, "utime 250 + stime 50 ticks");
    }

    #[test]
    fn stat_rejects_truncated_input() {
        assert_eq!(parse_stat("1 (x) S 1 2"), None);
        assert_eq!(parse_stat("no paren"), None);
    }

    #[test]
    fn tables_pair_header_and_value_lines() {
        let snmp = "Ip: Forwarding DefaultTTL\nIp: 1 64\n\
                    Tcp: RtoAlgorithm OutSegs RetransSegs\nTcp: 1 5000 3\n";
        assert_eq!(table_value(snmp, "Tcp:", "OutSegs"), Some(5000));
        assert_eq!(table_value(snmp, "Tcp:", "InSegs"), None);
        assert_eq!(table_value(snmp, "Udp:", "OutSegs"), None);
    }

    #[test]
    fn dev_reads_transmit_bytes() {
        let dev = "Inter-|   Receive |  Transmit\n face |bytes packets|bytes packets\n\
                   \x20   lo: 111 2 0 0 0 0 0 0 333 4 0 0 0 0 0 0\n\
                   \x20 eth0: 9 9 0 0 0 0 0 0 9 9 0 0 0 0 0 0\n";
        assert_eq!(dev_tx_bytes(dev, "lo"), Some(333));
        assert_eq!(dev_tx_bytes(dev, "eth0"), Some(9));
        assert_eq!(dev_tx_bytes(dev, "wlan0"), None);
    }

    #[test]
    fn status_sums_both_switch_kinds() {
        let text = "Name:\tfuse-node\nVmPeak:\t  9000 kB\nVmHWM:\t    4096 kB\n\
                    Threads:\t9\nvoluntary_ctxt_switches:\t120\n\
                    nonvoluntary_ctxt_switches:\t7\n";
        assert_eq!(
            parse_status(text),
            Some(Status {
                vm_hwm_kb: 4096,
                ctx_switches: 127
            })
        );
    }

    #[test]
    fn this_process_is_readable() {
        assert!(stat("self").is_some_and(|s| s.threads >= 1));
        assert!(status("self").is_some_and(|s| s.vm_hwm_kb > 0));
        assert!(ctx_switches("self").is_some());
        assert!(self_peak_rss_mb() > 0.0);
        assert!(net().is_some());
    }
}
