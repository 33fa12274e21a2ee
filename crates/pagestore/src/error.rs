//! Error type shared by all storage layers.

use std::fmt;

/// Errors produced by the storage stack.
#[derive(Debug)]
pub enum Error {
    /// A page id referred to a block beyond the end of the device.
    PageOutOfBounds {
        /// The offending page id.
        page: u64,
        /// Number of pages currently allocated on the device.
        num_pages: u64,
    },
    /// Underlying operating-system I/O failure (file-backed disks only).
    Io(std::io::Error),
    /// A fault injected by [`crate::faulty::FaultyDisk`] for testing.
    InjectedFault {
        /// Which operation failed ("read", "write" or "sync").
        op: &'static str,
        /// The page the operation targeted (`u64::MAX` for a sync).
        page: u64,
    },
    /// The simulated process/machine died ([`crate::faulty::CrashPlan`]);
    /// every operation on the crashed device fails until it is "rebooted"
    /// by reopening the underlying storage.
    Crashed,
    /// On-disk bytes failed validation when being decoded.
    Corrupt(String),
    /// A caller-supplied invariant did not hold (e.g. mismatched page size).
    InvalidArgument(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::PageOutOfBounds { page, num_pages } => {
                write!(f, "page {page} out of bounds (device has {num_pages} pages)")
            }
            Error::Io(e) => write!(f, "I/O error: {e}"),
            Error::InjectedFault { op, page } => {
                write!(f, "injected {op} fault on page {page}")
            }
            Error::Crashed => {
                write!(f, "simulated crash: device is offline until reopened")
            }
            Error::Corrupt(msg) => write!(f, "corrupt page: {msg}"),
            Error::InvalidArgument(msg) => write!(f, "invalid argument: {msg}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::Io(e)
    }
}

/// Convenience alias used across the storage crates.
pub type Result<T> = std::result::Result<T, Error>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats_are_informative() {
        let e = Error::PageOutOfBounds { page: 9, num_pages: 3 };
        assert!(e.to_string().contains("page 9"));
        let e = Error::InjectedFault { op: "read", page: 7 };
        assert!(e.to_string().contains("read"));
    }

    #[test]
    fn io_error_converts_and_chains() {
        let io = std::io::Error::other("boom");
        let e: Error = io.into();
        assert!(std::error::Error::source(&e).is_some());
    }
}
