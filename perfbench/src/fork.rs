//! Runs a closure in a forked copy of this process.
//!
//! The sim workloads spend most of a repetition setting the world up. A
//! forked child starts from an exact copy of the set-up world, so the
//! measured phase can be repeated several times per set-up: each child runs
//! the phase, sends its readings back over a pipe and exits. The parent
//! runs one child at a time and reaps each before going on.

use std::io::{Read, Write};

extern "C" {
    fn fork() -> i32;
    fn waitpid(pid: i32, status: *mut i32, options: i32) -> i32;
    fn _exit(status: i32) -> !;
}

/// Runs `f` in a forked child and returns the words it produced. The child
/// never returns: it writes the words and exits at once, so nothing of the
/// parent's state (buffers, destructors) runs twice. The calling process
/// must be single-threaded.
pub fn in_child(f: impl FnOnce() -> Vec<u64>) -> Result<Vec<u64>, String> {
    let (mut rx, mut tx) = std::io::pipe().map_err(|e| format!("pipe: {e}"))?;
    // Anything still buffered would otherwise be printed by both processes.
    std::io::stdout().flush().map_err(|e| e.to_string())?;
    // SAFETY: the benchmark is single-threaded while it forks, so the child
    // holds no lock another thread owned, and it leaves through `_exit`.
    let pid = unsafe { fork() };
    if pid < 0 {
        return Err("fork failed".into());
    }
    if pid == 0 {
        drop(rx);
        let code = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
            Ok(words) => {
                let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
                i32::from(tx.write_all(&bytes).is_err())
            }
            Err(_) => 101,
        };
        // SAFETY: ends the child without unwinding into the parent's code.
        unsafe { _exit(code) }
    }
    drop(tx);
    let mut bytes = Vec::new();
    let read = rx.read_to_end(&mut bytes);
    let mut status = 0;
    // SAFETY: `pid` is this process's own child, reaped exactly once here.
    if unsafe { waitpid(pid, &mut status, 0) } != pid {
        return Err(format!("cannot reap child {pid}"));
    }
    if status != 0 {
        return Err(format!("child {pid} ended with wait status {status}"));
    }
    read.map_err(|e| format!("reading child {pid}: {e}"))?;
    Ok(bytes
        .chunks_exact(8)
        .map(|b| u64::from_le_bytes(b.try_into().expect("eight bytes")))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn child_words_come_back_and_its_changes_stay_in_the_child() {
        let mut state = vec![1u64, 2, 3];
        let words = in_child(|| {
            state.push(4);
            state.clone()
        })
        .expect("child ran");
        assert_eq!(words, vec![1, 2, 3, 4]);
        assert_eq!(state, vec![1, 2, 3], "the parent's copy is untouched");
    }

    #[test]
    fn a_panicking_child_is_an_error() {
        let r = in_child(|| panic!("deliberate"));
        assert!(r.unwrap_err().contains("wait status"));
    }
}
