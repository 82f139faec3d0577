//! SSTable format for the Acheron engine, including the KiWi
//! (Key-Weaving) delete-tile layout.
//!
//! # Physical layout
//!
//! ```text
//! +--------------------------------------------------------------+
//! | page 0 | page 1 | ... | page N-1 |  filter  |  tile meta |   |
//! | (data blocks, each CRC-trailed)  |  block   |  block     |...|
//! +--------------------------------------------------------------+
//! ... | stats block | footer (fixed size, magic + handles) |
//! ```
//!
//! Data is grouped into **delete tiles** of up to `h` pages:
//!
//! * tiles partition the table in **sort-key** order (tile fences are
//!   used exactly like classic fence pointers),
//! * pages *within* a tile are ordered by the **secondary delete key**
//!   (each page covers a contiguous dkey band of its tile), and
//! * entries *within* a page are ordered by sort key (internal key).
//!
//! With `h = 1` the weave degenerates to the standard LSM table layout —
//! which is how the engine builds its baseline tables, so baseline and
//! KiWi share one code path and differ only in the knob.
//!
//! Every page carries its own Bloom filter, its dkey band, and its max
//! sequence number, so
//!
//! * a point lookup touches only tile pages whose Bloom matches, and
//! * a secondary range delete can *drop* a page — skip it wholesale on
//!   reads and discard it without reading during compaction — when the
//!   page's dkey band is fully covered by a newer range tombstone
//!   ([`acheron_types::RangeTombstone::covers_region`]).

#![forbid(unsafe_code)]

pub mod block;
pub mod bloom;
pub mod cache;
pub mod format;
pub mod iter;
pub mod meta;
pub mod reader;
pub mod writer;

pub use block::{Block, BlockBuilder, BlockIter};
pub use bloom::{BloomFilter, BloomFilterRef};
pub use cache::{BlockCache, CacheLease, PageKey};
pub use format::{BlockHandle, Footer, TableOptions, FOOTER_SIZE, TABLE_MAGIC};
pub use iter::TableIterator;
pub use meta::{PageMeta, TableStats, Tile, TileIndex, TileMeta};
pub use reader::Table;
pub use writer::TableBuilder;
