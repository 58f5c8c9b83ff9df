//! What the tests that spawn `ssync-serviced` share: the binary's path and
//! a guard that never lets a spawned daemon outlive its test.

use std::ops::{Deref, DerefMut};
use std::process::{Child, Command};

/// The daemon binary cargo built for these tests.
pub const DAEMON: &str = env!("CARGO_BIN_EXE_ssync-serviced");

/// A spawned daemon, killed and reaped when dropped: a test that fails
/// before its clean shutdown leaves no process behind. A clean shutdown
/// still waits on the child itself and asserts its exit status.
#[derive(Debug)]
pub struct Daemon(Child);

impl Daemon {
    /// Spawns `command`.
    pub fn spawn(command: &mut Command) -> Self {
        Daemon(command.spawn().expect("spawn ssync-serviced"))
    }
}

impl Deref for Daemon {
    type Target = Child;

    fn deref(&self) -> &Child {
        &self.0
    }
}

impl DerefMut for Daemon {
    fn deref_mut(&mut self) -> &mut Child {
        &mut self.0
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // After a clean exit the child is already reaped: the kill is then
        // a no-op, and the wait returns the recorded status.
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}
