//! Core types shared by every layer of the Acheron LSM engine.
//!
//! This crate is dependency-light on purpose: it defines the vocabulary of
//! the engine — user and internal keys, sequence numbers, value kinds
//! (puts, point tombstones, secondary-range tombstones), the secondary
//! *delete key* attribute that Acheron/Lethe range-deletes operate on,
//! binary codecs, CRC32C checksums, and the clock abstraction used to
//! measure delete-persistence latency deterministically.
//!
//! Everything above (memtable, WAL, SSTables, the engine) speaks in these
//! types; nothing here performs I/O.

#![warn(missing_docs)]
// One exception: the dispatch onto the hardware CRC32C kernel in `checksum`.
#![deny(unsafe_code)]

pub mod checksum;
pub mod clock;
pub mod codec;
pub mod entry;
pub mod error;
pub mod key;
pub mod krange;
pub mod seq;
pub mod vptr;

pub use clock::{Clock, LogicalClock, SystemClock, Tick};
pub use entry::{DeleteKeyRange, Entry, RangeTombstone, DELETE_KEY_NONE};
pub use error::{Error, Result};
pub use key::{InternalKey, InternalKeyRef, SeekKey, UserKey};
pub use krange::{FragmentedRangeTombstones, KeyRangeTombstone, RangeFragment};
pub use seq::{SeqNo, ValueKind, MAX_SEQNO};
pub use vptr::{ValuePointer, VALUE_POINTER_SIZE};
