//! Discrete-event simulation kernel for the BASH coherence simulator.
//!
//! This crate is protocol-agnostic. It provides the four primitives every
//! component of the simulator builds on:
//!
//! * [`Time`] and [`Duration`] — picosecond-resolution simulated time
//!   (1 protocol *cycle* = 1 ns, matching the paper's ~1 GHz controllers);
//! * [`EventQueue`] — a deterministic priority queue of timestamped events;
//! * [`DetRng`] — a small, seedable, reproducible random-number generator;
//! * [`stats`] — running means and busy-time trackers used for every
//!   number the experiment harness reports.
//!
//! # Example
//!
//! ```
//! use bash_kernel::{EventQueue, Time, Duration};
//!
//! let mut q: EventQueue<&'static str> = EventQueue::new();
//! q.schedule(Time::ZERO + Duration::from_ns(5), "second");
//! q.schedule(Time::ZERO, "first");
//! let (t, e) = q.pop().unwrap();
//! assert_eq!((t, e), (Time::ZERO, "first"));
//! ```

pub mod calendar;
pub mod event_queue;
pub mod pool;
pub mod rng;
pub mod stats;
pub mod time;

pub use calendar::CalendarConfig;
pub use event_queue::{EventQueue, QueueKind};
pub use rng::DetRng;
pub use time::{Duration, Time};
