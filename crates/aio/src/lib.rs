//! `fair-aio` — a zero-dependency readiness-polling event loop core.
//!
//! The serving layer needs two primitives to run many connections on one
//! thread: an OS readiness poller and a cross-thread waker. This crate
//! provides exactly those, plus the listener that shards accepts, and
//! nothing else:
//!
//! * [`Poller`] — a thin epoll wrapper (level- or edge-triggered) speaking
//!   `std::os::fd` borrowed/owned descriptors.
//! * [`Waker`] — an `eventfd`-backed doorbell so worker threads can nudge a
//!   loop blocked in [`Poller::wait`].
//! * [`net::reuseport_listener`] — a `SO_REUSEPORT` TCP listener, so N
//!   event loops can each own a listener on the same address and the kernel
//!   shards accepted connections across them.
//!
//! The crate is FFI-free: the syscalls it needs (`epoll_create1`,
//! `epoll_ctl`, `epoll_pwait`, `eventfd2`, and the `socket`/`setsockopt`/
//! `bind`/`listen` quartet behind reuseport listeners) are invoked through
//! inline-asm shims in the private `sys` module — the only module in the
//! workspace allowed to contain `unsafe` (fairlint rule R2 carries the
//! exemption). Everything the shims return is immediately wrapped in owned
//! descriptors (`OwnedFd`, `File`, `TcpListener`), so resource cleanup is
//! ordinary RAII.
//!
//! Like the rest of the serve stack, the API is total: nothing here panics
//! on adversarial input — errors surface as `io::Result`.

#[allow(unsafe_code)]
mod sys;

pub mod net;
mod poll;
mod wake;

pub use poll::{Event, Interest, Poller, Token};
pub use wake::Waker;
