//! A simulated operating system: an in-memory file system with a file
//! descriptor table and open-handle accounting.
//!
//! The paper's motivating port example needs observable *external
//! resource* behaviour: open descriptors that are a finite resource
//! ("this can tie up system resources"), and output data that is lost if a
//! port is dropped without being flushed ("may result in data associated
//! with output ports remaining unwritten until the system exits"). `SimOs`
//! provides exactly those observables — a descriptor limit, counts of
//! opens/closes/leaks, and durable file contents — so the finalization
//! experiments can *measure* leaks instead of hand-waving about them.
//!
//! Descriptors are handed out lowest-free first, as POSIX `open` does.
//! Freed slots wait in a min-heap, so an open or close costs O(log n) in
//! the table size, and [`SimOs::open_count`] is the table size less the
//! free slots, O(1), however many descriptors are open.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::fmt;

/// A simulated file descriptor.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fd(pub u32);

/// Errors from the simulated OS.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OsError {
    /// The named file does not exist.
    NotFound(String),
    /// The descriptor is closed or was never issued.
    BadFd(Fd),
    /// The open-descriptor limit was reached — the observable consequence
    /// of leaking ports.
    TooManyOpen {
        /// The configured descriptor limit.
        limit: usize,
    },
    /// A read on a write descriptor or vice versa.
    WrongMode(Fd),
}

impl fmt::Display for OsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OsError::NotFound(p) => write!(f, "file not found: {p}"),
            OsError::BadFd(fd) => write!(f, "bad file descriptor: {}", fd.0),
            OsError::TooManyOpen { limit } => {
                write!(f, "too many open files (limit {limit})")
            }
            OsError::WrongMode(fd) => write!(f, "wrong mode for descriptor {}", fd.0),
        }
    }
}

impl std::error::Error for OsError {}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Read,
    Write,
}

#[derive(Debug)]
struct OpenFile {
    path: String,
    mode: Mode,
    pos: usize,
}

/// Cumulative OS statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OsStats {
    /// Successful opens.
    pub opens: u64,
    /// Closes.
    pub closes: u64,
    /// Opens rejected by the descriptor limit.
    pub rejected_opens: u64,
    /// Bytes written through descriptors.
    pub bytes_written: u64,
    /// Bytes read through descriptors.
    pub bytes_read: u64,
}

/// The simulated OS.
#[derive(Debug)]
pub struct SimOs {
    files: HashMap<String, Vec<u8>>,
    fds: Vec<Option<OpenFile>>,
    /// Indices of the `None` slots in `fds`, lowest on top.
    free: BinaryHeap<Reverse<u32>>,
    limit: usize,
    stats: OsStats,
}

/// Default open-descriptor limit (like a small `ulimit -n`).
pub const DEFAULT_FD_LIMIT: usize = 64;

impl SimOs {
    /// An OS with the default descriptor limit.
    pub fn new() -> SimOs {
        SimOs::with_fd_limit(DEFAULT_FD_LIMIT)
    }

    /// An OS with a custom descriptor limit.
    pub fn with_fd_limit(limit: usize) -> SimOs {
        SimOs {
            files: HashMap::new(),
            fds: Vec::new(),
            free: BinaryHeap::new(),
            limit,
            stats: OsStats::default(),
        }
    }

    /// Creates (or replaces) a file with the given contents.
    pub fn create_file(&mut self, path: &str, contents: &[u8]) {
        self.files.insert(path.to_string(), contents.to_vec());
    }

    /// The durable contents of a file.
    ///
    /// # Errors
    ///
    /// Returns [`OsError::NotFound`] if the file does not exist.
    pub fn file_contents(&self, path: &str) -> Result<&[u8], OsError> {
        self.files
            .get(path)
            .map(Vec::as_slice)
            .ok_or_else(|| OsError::NotFound(path.into()))
    }

    /// Removes a file (for temporary-file finalization scenarios).
    ///
    /// # Errors
    ///
    /// Returns [`OsError::NotFound`] if the file does not exist.
    pub fn delete_file(&mut self, path: &str) -> Result<(), OsError> {
        self.files
            .remove(path)
            .map(|_| ())
            .ok_or_else(|| OsError::NotFound(path.into()))
    }

    /// Whether a file exists.
    pub fn file_exists(&self, path: &str) -> bool {
        self.files.contains_key(path)
    }

    fn issue(&mut self, open: OpenFile) -> Result<Fd, OsError> {
        if self.open_count() >= self.limit {
            self.stats.rejected_opens += 1;
            return Err(OsError::TooManyOpen { limit: self.limit });
        }
        self.stats.opens += 1;
        if let Some(Reverse(i)) = self.free.pop() {
            self.fds[i as usize] = Some(open);
            return Ok(Fd(i));
        }
        self.fds.push(Some(open));
        Ok(Fd(self.fds.len() as u32 - 1))
    }

    /// Opens an existing file for reading.
    ///
    /// # Errors
    ///
    /// [`OsError::NotFound`] if missing; [`OsError::TooManyOpen`] at the
    /// descriptor limit.
    pub fn open_input(&mut self, path: &str) -> Result<Fd, OsError> {
        if !self.files.contains_key(path) {
            return Err(OsError::NotFound(path.into()));
        }
        self.issue(OpenFile {
            path: path.into(),
            mode: Mode::Read,
            pos: 0,
        })
    }

    /// Creates/truncates a file and opens it for writing.
    ///
    /// # Errors
    ///
    /// [`OsError::TooManyOpen`] at the descriptor limit.
    pub fn open_output(&mut self, path: &str) -> Result<Fd, OsError> {
        let fd = self.issue(OpenFile {
            path: path.into(),
            mode: Mode::Write,
            pos: 0,
        })?;
        match self.files.get_mut(path) {
            Some(data) => data.clear(),
            None => {
                self.files.insert(path.into(), Vec::new());
            }
        }
        Ok(fd)
    }

    /// The open file behind `fd`, checked against `mode`. Takes the
    /// table rather than `self` so callers can borrow `files` alongside.
    fn open_file_mut(
        fds: &mut [Option<OpenFile>],
        fd: Fd,
        mode: Mode,
    ) -> Result<&mut OpenFile, OsError> {
        let open = fds
            .get_mut(fd.0 as usize)
            .and_then(Option::as_mut)
            .ok_or(OsError::BadFd(fd))?;
        if open.mode != mode {
            return Err(OsError::WrongMode(fd));
        }
        Ok(open)
    }

    /// Reads up to `buf.len()` bytes; returns the count (0 at EOF).
    ///
    /// # Errors
    ///
    /// [`OsError::BadFd`] / [`OsError::WrongMode`].
    pub fn read(&mut self, fd: Fd, buf: &mut [u8]) -> Result<usize, OsError> {
        let open = SimOs::open_file_mut(&mut self.fds, fd, Mode::Read)?;
        // A position past the end (the file was truncated by a later
        // `open_output`) reads as EOF.
        let rest = self.files[&open.path].get(open.pos..).unwrap_or(&[]);
        let n = buf.len().min(rest.len());
        buf[..n].copy_from_slice(&rest[..n]);
        open.pos += n;
        self.stats.bytes_read += n as u64;
        Ok(n)
    }

    /// Appends bytes through a write descriptor.
    ///
    /// # Errors
    ///
    /// [`OsError::BadFd`] / [`OsError::WrongMode`].
    pub fn write(&mut self, fd: Fd, bytes: &[u8]) -> Result<(), OsError> {
        let open = SimOs::open_file_mut(&mut self.fds, fd, Mode::Write)?;
        self.files
            .get_mut(&open.path)
            .expect("open file exists")
            .extend_from_slice(bytes);
        self.stats.bytes_written += bytes.len() as u64;
        Ok(())
    }

    /// Closes a descriptor.
    ///
    /// # Errors
    ///
    /// [`OsError::BadFd`] if already closed.
    pub fn close(&mut self, fd: Fd) -> Result<(), OsError> {
        let slot = self.fds.get_mut(fd.0 as usize).ok_or(OsError::BadFd(fd))?;
        if slot.take().is_none() {
            return Err(OsError::BadFd(fd));
        }
        self.free.push(Reverse(fd.0));
        self.stats.closes += 1;
        Ok(())
    }

    /// Whether the descriptor is currently open.
    pub fn is_open(&self, fd: Fd) -> bool {
        self.fds.get(fd.0 as usize).is_some_and(Option::is_some)
    }

    /// Number of currently open descriptors — the leak metric.
    pub fn open_count(&self) -> usize {
        self.fds.len() - self.free.len()
    }

    /// The descriptor limit.
    pub fn fd_limit(&self) -> usize {
        self.limit
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> &OsStats {
        &self.stats
    }
}

impl Default for SimOs {
    fn default() -> Self {
        SimOs::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_then_read_round_trips() {
        let mut os = SimOs::new();
        let fd = os.open_output("/tmp/a").unwrap();
        os.write(fd, b"hello ").unwrap();
        os.write(fd, b"world").unwrap();
        os.close(fd).unwrap();
        assert_eq!(os.file_contents("/tmp/a").unwrap(), b"hello world");

        let fd = os.open_input("/tmp/a").unwrap();
        let mut buf = [0u8; 8];
        assert_eq!(os.read(fd, &mut buf).unwrap(), 8);
        assert_eq!(&buf, b"hello wo");
        assert_eq!(os.read(fd, &mut buf).unwrap(), 3);
        assert_eq!(&buf[..3], b"rld");
        assert_eq!(os.read(fd, &mut buf).unwrap(), 0, "EOF");
        os.close(fd).unwrap();
        assert_eq!(os.open_count(), 0);

        let reader = os.open_input("/tmp/a").unwrap();
        assert_eq!(os.read(reader, &mut buf).unwrap(), 8);
        let fd = os.open_output("/tmp/a").unwrap();
        assert_eq!(os.file_contents("/tmp/a").unwrap(), b"", "reopen truncates");
        os.write(fd, b"again").unwrap();
        assert_eq!(os.file_contents("/tmp/a").unwrap(), b"again");
        assert_eq!(os.read(reader, &mut buf).unwrap(), 0, "past the end is EOF");
    }

    #[test]
    fn descriptor_limit_is_enforced() {
        let mut os = SimOs::with_fd_limit(2);
        let a = os.open_output("/a").unwrap();
        let _b = os.open_output("/b").unwrap();
        assert_eq!(
            os.open_output("/c").unwrap_err(),
            OsError::TooManyOpen { limit: 2 }
        );
        assert_eq!(os.stats().rejected_opens, 1);
        os.close(a).unwrap();
        assert!(os.open_output("/c").is_ok(), "closing frees a slot");
    }

    #[test]
    fn descriptors_are_recycled() {
        let mut os = SimOs::new();
        let a = os.open_output("/a").unwrap();
        os.close(a).unwrap();
        let b = os.open_output("/b").unwrap();
        assert_eq!(a, b, "slot reuse");
        assert!(!os.is_open(Fd(99)));

        // Close three out of order: they come back lowest first, before
        // the table grows.
        let fds: Vec<Fd> = (0..5)
            .map(|i| os.open_output(&format!("/f{i}")).unwrap())
            .collect();
        assert_eq!(fds, [Fd(1), Fd(2), Fd(3), Fd(4), Fd(5)]);
        for i in [3, 1, 2] {
            os.close(fds[i]).unwrap();
        }
        assert_eq!(os.open_count(), 3);
        let again: Vec<Fd> = (0..4)
            .map(|i| os.open_output(&format!("/g{i}")).unwrap())
            .collect();
        assert_eq!(again, [Fd(2), Fd(3), Fd(4), Fd(6)]);
        assert_eq!(os.open_count(), 7);
    }

    #[test]
    fn mode_and_fd_errors() {
        let mut os = SimOs::new();
        assert!(matches!(
            os.open_input("/missing"),
            Err(OsError::NotFound(_))
        ));
        let fd = os.open_output("/x").unwrap();
        let mut buf = [0u8; 1];
        assert_eq!(os.read(fd, &mut buf).unwrap_err(), OsError::WrongMode(fd));
        os.close(fd).unwrap();
        assert_eq!(os.close(fd).unwrap_err(), OsError::BadFd(fd));
        assert_eq!(os.write(fd, b"x").unwrap_err(), OsError::BadFd(fd));
    }

    #[test]
    fn delete_supports_temp_file_scenarios() {
        let mut os = SimOs::new();
        os.create_file("/tmp/scratch", b"data");
        assert!(os.file_exists("/tmp/scratch"));
        os.delete_file("/tmp/scratch").unwrap();
        assert!(!os.file_exists("/tmp/scratch"));
        assert!(os.delete_file("/tmp/scratch").is_err());
    }
}
