//! What the tests that spawn `ssync-serviced` share: the binary's path, a
//! guard that never lets a spawned daemon outlive its test, and one that
//! never lets a scratch file or directory outlive it.

use std::ops::{Deref, DerefMut};
use std::path::{Path, PathBuf};
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

/// A scratch path in the temp directory, `<name>-<pid>`, removed with
/// everything under it when dropped: a test that fails before its end
/// leaves nothing behind. Declare it before the daemon that uses it, so
/// the daemon is stopped first.
#[derive(Debug)]
pub struct TempPath(PathBuf);

impl TempPath {
    /// The path, with whatever an earlier run left there removed; nothing
    /// is created.
    pub fn new(name: &str) -> Self {
        let path = TempPath(std::env::temp_dir().join(format!("{name}-{}", std::process::id())));
        path.remove();
        path
    }

    /// [`TempPath::new`], created as an empty directory.
    pub fn dir(name: &str) -> Self {
        let path = TempPath::new(name);
        std::fs::create_dir_all(&path.0).expect("create a scratch directory");
        path
    }

    fn remove(&self) {
        let _ = std::fs::remove_dir_all(&self.0);
        let _ = std::fs::remove_file(&self.0);
    }
}

impl Deref for TempPath {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.0
    }
}

impl AsRef<Path> for TempPath {
    fn as_ref(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempPath {
    fn drop(&mut self) {
        self.remove();
    }
}
