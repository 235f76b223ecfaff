//! `poll(2)` and `listen(2)`, declared locally: sz-serve's accept loop,
//! `loadgen` and sz-benchmark's client wait on sockets through `poll`.
//!
//! The module keeps its name because sz-benchmark imports
//! `event_loop::ffi`; the readiness event loop it was named for is
//! gone, and each connection is now served on a thread of its own
//! ([`crate::server`]).

/// Local declarations of `poll(2)` and `listen(2)`. std already links
/// libc; declaring them here avoids a crate dependency while staying on
/// the stable ABI.
pub mod ffi {
    /// `struct pollfd` from `<poll.h>` (identical layout on every
    /// platform this repo targets).
    #[repr(C)]
    #[derive(Debug, Clone, Copy)]
    pub struct PollFd {
        /// File descriptor to poll (negative entries are ignored).
        pub fd: i32,
        /// Requested events.
        pub events: i16,
        /// Returned events.
        pub revents: i16,
    }

    /// Data may be read without blocking.
    pub const POLLIN: i16 = 0x001;
    /// Data may be written without blocking.
    pub const POLLOUT: i16 = 0x004;

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: u64, timeout: i32) -> i32;
        fn listen(fd: i32, backlog: i32) -> i32;
    }

    /// Safe wrapper over `poll(2)`: waits up to `timeout_ms` for an
    /// event on any entry, returning the ready count (or -1, in which
    /// case `std::io::Error::last_os_error()` holds the cause).
    pub fn poll_fds(fds: &mut [PollFd], timeout_ms: i32) -> i32 {
        // SAFETY: `fds` is a valid, exclusively borrowed slice of
        // correctly laid-out pollfd structs, and nfds matches its
        // length.
        unsafe { poll(fds.as_mut_ptr(), fds.len() as u64, timeout_ms) }
    }

    /// Lets a listening socket queue as many unaccepted connections as
    /// the system allows. std's backlog of 128 overflows while a burst
    /// of connects waits for a thread each, and every overflow costs
    /// its client a one-second SYN retransmit.
    pub fn raise_backlog(fd: i32) -> std::io::Result<()> {
        // SAFETY: listen(2) reads no memory of ours; an invalid `fd` is
        // an error return, not undefined behaviour.
        if unsafe { listen(fd, i32::MAX) } != 0 {
            return Err(std::io::Error::last_os_error());
        }
        Ok(())
    }
}
