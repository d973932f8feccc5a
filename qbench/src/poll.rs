//! Busy-poll companions that keep every vCPU out of halt while the
//! benchmark runs.
//!
//! On a virtual machine, a vCPU that halts while the engine waits on a pipe
//! or a page gives its physical core back to the host and runs again only
//! when the host schedules it. When neighbours load the host those wake-ups
//! come late, and the guest counts the delay as steal time. On a 2-vCPU VM
//! this moved throughput and latency by up to 2x from one minute to the
//! next, with the engine's code unchanged. One lowest-priority (nice 19)
//! spinning process per core, the software equivalent of booting with
//! `idle=poll`, yields to any engine thread that wakes but never lets a vCPU
//! halt, so the engine's waits cost the same whatever the neighbours do.

use std::io::{self, Read};
use std::process::{Child, Command, Stdio};

/// First argument that makes the benchmark binary run as a poller.
pub const POLL_FLAG: &str = "--busy-poll";

/// Running pollers; dropping them kills each and waits for it to end.
pub struct Pollers(Vec<Child>);

impl Pollers {
    /// Start `count` pollers: this binary, re-run with [`POLL_FLAG`] under
    /// `nice -n 19`.
    pub fn start(count: usize) -> io::Result<Pollers> {
        let exe = std::env::current_exe()?;
        let mut pollers = Pollers(Vec::with_capacity(count));
        for _ in 0..count {
            let child = Command::new("nice")
                .args(["-n", "19"])
                .arg(&exe)
                .arg(POLL_FLAG)
                // The poller exits when this pipe closes, so it cannot
                // outlive the benchmark even if the benchmark is killed.
                .stdin(Stdio::piped())
                .stdout(Stdio::null())
                .stderr(Stdio::null())
                .spawn()?;
            pollers.0.push(child);
        }
        Ok(pollers)
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }
}

impl Drop for Pollers {
    fn drop(&mut self) {
        for child in &mut self.0 {
            // Errors mean the poller has already exited.
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Body of a poller process: spin until the parent closes stdin, then exit.
pub fn poll_until_parent_exits() -> ! {
    std::thread::spawn(|| {
        let _ = io::stdin().read_to_end(&mut Vec::new());
        std::process::exit(0);
    });
    loop {
        std::hint::spin_loop();
    }
}
