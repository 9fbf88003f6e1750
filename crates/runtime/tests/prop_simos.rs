//! Differential property test: `SimOs`'s descriptor table against a
//! reference model that finds free slots and counts open descriptors by
//! scanning the whole table. Random sequences of opens, writes, reads and
//! (double) closes under small descriptor limits must yield the same `Fd`
//! numbers, the same errors, the same bytes, the same `open_count()` and
//! the same `OsStats` after every step.

use guardians_runtime::{Fd, OsError, OsStats, SimOs};
use proptest::prelude::*;
use std::collections::HashMap;

const PATHS: [&str; 4] = ["/p0", "/p1", "/p2", "/p3"];
/// Descriptor numbers the ops pick from: past the largest limit, so
/// never-issued descriptors are exercised too.
const FD_SPAN: u8 = 10;

#[derive(Clone, Debug)]
enum Op {
    OpenInput(usize),
    OpenOutput(usize),
    Close(u8),
    DoubleClose,
    Write(u8, u8),
    Read(u8, u8),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        2 => (0..PATHS.len()).prop_map(Op::OpenInput),
        3 => (0..PATHS.len()).prop_map(Op::OpenOutput),
        3 => (0..FD_SPAN).prop_map(Op::Close),
        1 => Just(Op::DoubleClose),
        2 => (0..FD_SPAN, 0u8..6).prop_map(|(fd, n)| Op::Write(fd, n)),
        2 => (0..FD_SPAN, 0u8..6).prop_map(|(fd, n)| Op::Read(fd, n)),
    ]
}

/// What one step returned on success.
#[derive(Debug, PartialEq, Eq)]
enum Outcome {
    Fd(Fd),
    Bytes(Vec<u8>),
    Done,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    Read,
    Write,
}

struct Slot {
    path: String,
    mode: Mode,
    pos: usize,
}

/// The descriptor table as a linear scan: the lowest `None` slot is
/// reused, and the open count walks every slot.
struct LinearOs {
    files: HashMap<String, Vec<u8>>,
    fds: Vec<Option<Slot>>,
    limit: usize,
    stats: OsStats,
}

impl LinearOs {
    fn new(limit: usize) -> LinearOs {
        LinearOs {
            files: HashMap::new(),
            fds: Vec::new(),
            limit,
            stats: OsStats::default(),
        }
    }

    fn open_count(&self) -> usize {
        self.fds.iter().filter(|s| s.is_some()).count()
    }

    fn issue(&mut self, slot: Slot) -> Result<Fd, OsError> {
        if self.open_count() >= self.limit {
            self.stats.rejected_opens += 1;
            return Err(OsError::TooManyOpen { limit: self.limit });
        }
        self.stats.opens += 1;
        match self.fds.iter().position(Option::is_none) {
            Some(i) => {
                self.fds[i] = Some(slot);
                Ok(Fd(i as u32))
            }
            None => {
                self.fds.push(Some(slot));
                Ok(Fd(self.fds.len() as u32 - 1))
            }
        }
    }

    fn open_input(&mut self, path: &str) -> Result<Fd, OsError> {
        if !self.files.contains_key(path) {
            return Err(OsError::NotFound(path.into()));
        }
        self.issue(Slot {
            path: path.into(),
            mode: Mode::Read,
            pos: 0,
        })
    }

    fn open_output(&mut self, path: &str) -> Result<Fd, OsError> {
        let fd = self.issue(Slot {
            path: path.into(),
            mode: Mode::Write,
            pos: 0,
        })?;
        self.files.insert(path.into(), Vec::new());
        Ok(fd)
    }

    fn slot(&mut self, fd: Fd, mode: Mode) -> Result<&mut Slot, OsError> {
        let slot = self
            .fds
            .get_mut(fd.0 as usize)
            .and_then(Option::as_mut)
            .ok_or(OsError::BadFd(fd))?;
        if slot.mode != mode {
            return Err(OsError::WrongMode(fd));
        }
        Ok(slot)
    }

    fn read(&mut self, fd: Fd, len: usize) -> Result<Vec<u8>, OsError> {
        let slot = self.slot(fd, Mode::Read)?;
        let (path, pos) = (slot.path.clone(), slot.pos);
        let rest = self.files[&path].get(pos..).unwrap_or(&[]);
        let n = len.min(rest.len());
        let out = rest[..n].to_vec();
        self.slot(fd, Mode::Read)?.pos = pos + n;
        self.stats.bytes_read += n as u64;
        Ok(out)
    }

    fn write(&mut self, fd: Fd, bytes: &[u8]) -> Result<(), OsError> {
        let path = self.slot(fd, Mode::Write)?.path.clone();
        self.files.get_mut(&path).unwrap().extend_from_slice(bytes);
        self.stats.bytes_written += bytes.len() as u64;
        Ok(())
    }

    fn close(&mut self, fd: Fd) -> Result<(), OsError> {
        match self.fds.get_mut(fd.0 as usize).and_then(Option::take) {
            Some(_) => {
                self.stats.closes += 1;
                Ok(())
            }
            None => Err(OsError::BadFd(fd)),
        }
    }
}

fn real_read(os: &mut SimOs, fd: Fd, len: usize) -> Result<Vec<u8>, OsError> {
    let mut buf = vec![0u8; len];
    let n = os.read(fd, &mut buf)?;
    buf.truncate(n);
    Ok(buf)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn fd_table_matches_the_linear_scan(
        limit in 1usize..9,
        ops in proptest::collection::vec(op_strategy(), 1..160),
    ) {
        let mut os = SimOs::with_fd_limit(limit);
        let mut model = LinearOs::new(limit);
        let mut last_closed = Fd(0);
        let mut counter = 0u8;

        for (step, op) in ops.into_iter().enumerate() {
            let (got, want) = match op {
                Op::OpenInput(p) => (
                    os.open_input(PATHS[p]).map(Outcome::Fd),
                    model.open_input(PATHS[p]).map(Outcome::Fd),
                ),
                Op::OpenOutput(p) => (
                    os.open_output(PATHS[p]).map(Outcome::Fd),
                    model.open_output(PATHS[p]).map(Outcome::Fd),
                ),
                Op::Close(fd) => {
                    last_closed = Fd(u32::from(fd));
                    (
                        os.close(last_closed).map(|()| Outcome::Done),
                        model.close(last_closed).map(|()| Outcome::Done),
                    )
                }
                Op::DoubleClose => (
                    os.close(last_closed).map(|()| Outcome::Done),
                    model.close(last_closed).map(|()| Outcome::Done),
                ),
                Op::Write(fd, n) => {
                    let bytes: Vec<u8> = (0..n).map(|i| counter.wrapping_add(i)).collect();
                    counter = counter.wrapping_add(n);
                    let fd = Fd(u32::from(fd));
                    (
                        os.write(fd, &bytes).map(|()| Outcome::Done),
                        model.write(fd, &bytes).map(|()| Outcome::Done),
                    )
                }
                Op::Read(fd, n) => {
                    let fd = Fd(u32::from(fd));
                    (
                        real_read(&mut os, fd, usize::from(n)).map(Outcome::Bytes),
                        model.read(fd, usize::from(n)).map(Outcome::Bytes),
                    )
                }
            };
            prop_assert_eq!(got, want, "step {} result", step);
            prop_assert_eq!(os.open_count(), model.open_count(), "step {} open_count", step);
            prop_assert_eq!(os.stats(), &model.stats, "step {} stats", step);
            for fd in 0..u32::from(FD_SPAN) {
                let open = model.fds.get(fd as usize).is_some_and(Option::is_some);
                prop_assert_eq!(os.is_open(Fd(fd)), open, "step {} is_open({})", step, fd);
            }
            for path in PATHS {
                prop_assert_eq!(
                    os.file_contents(path).ok(),
                    model.files.get(path).map(Vec::as_slice),
                    "step {} contents of {}", step, path
                );
            }
        }
    }
}
