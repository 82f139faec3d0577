//! Seeded inputs: the benchmark's own PRNG, Zipfian sampler, key/value
//! rendering, and the compact op stream of each workload together with
//! the oracle model that supplies every expected answer.
//!
//! Nothing here depends on `third_party/rand` or `crates/workload`: the
//! engine must see only what this file generates from `--seed`, and the
//! stream for a seed must not change when those crates do.

use std::collections::VecDeque;

/// Key bytes: `"key-"` + 16 zero-padded decimal digits.
pub const KEY_LEN: usize = 20;
/// Ordinary value length.
pub const VALUE_LEN: u32 = 100;
/// Large value length (one put in ten); above the separation threshold.
pub const LARGE_VALUE_LEN: u32 = 2048;
/// Ids covered by one scan.
pub const SCAN_SPAN: u32 = 50;

/// SplitMix64: tiny, seedable, and good enough for workload generation.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix64(self.0)
    }

    /// Uniform in `[0, n)` (multiply-shift; `n` must be nonzero).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The SplitMix64 finalizer; also the word mixer of [`hash_bytes`].
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Zipfian ranks over `[0, n)` (Gray et al., the YCSB generator); rank 0
/// is the hottest. Callers scramble ranks into ids with [`scramble`].
#[derive(Debug, Clone)]
pub struct Zipfian {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl Zipfian {
    pub fn new(n: u64, theta: f64) -> Zipfian {
        let zeta = |k: u64| (1..=k).map(|i| 1.0 / (i as f64).powf(theta)).sum::<f64>();
        let zetan = zeta(n);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta(2) / zetan);
        Zipfian {
            n,
            theta,
            alpha: 1.0 / (1.0 - theta),
            zetan,
            eta,
        }
    }

    pub fn sample(&self, rng: &mut Rng) -> u64 {
        let u = rng.unit();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let rank = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        rank.min(self.n - 1)
    }
}

/// Spread Zipfian ranks over the id space so hot keys are not adjacent.
pub fn scramble(rank: u64, n: u64) -> u64 {
    mix64(rank) % n
}

/// Render key number `num` into `buf`. Key order equals number order.
pub fn render_key(num: u64, buf: &mut [u8; KEY_LEN]) {
    buf[..4].copy_from_slice(b"key-");
    let mut n = num;
    for slot in buf[4..].iter_mut().rev() {
        *slot = b'0' + (n % 10) as u8;
        n /= 10;
    }
}

/// Parse a key rendered by [`render_key`] back into its number.
pub fn parse_key(key: &[u8]) -> Option<u64> {
    if key.len() != KEY_LEN || &key[..4] != b"key-" {
        return None;
    }
    key[4..].iter().try_fold(0u64, |acc, &b| {
        b.is_ascii_digit().then(|| acc * 10 + u64::from(b - b'0'))
    })
}

/// Key number of real id `id`. Real keys are even; the odd numbers
/// between them are never written, so a get for one probes filters
/// inside the tables' key range instead of missing on the fences.
pub fn key_of(id: u32) -> u64 {
    u64::from(id) * 2
}

/// Render the value of `(id, version)` into `buf` (resized to `len`).
pub fn render_value(id: u32, version: u32, len: u32, buf: &mut Vec<u8>) {
    buf.clear();
    buf.resize(len as usize, 0);
    let mut rng = Rng::new((u64::from(id) << 32) | u64::from(version));
    for chunk in buf.chunks_mut(8) {
        let word = rng.next_u64().to_le_bytes();
        chunk.copy_from_slice(&word[..chunk.len()]);
    }
}

/// Word-at-a-time 64-bit hash of an answer; never 0 (0 means "absent").
pub fn hash_bytes(data: &[u8]) -> u64 {
    let mut h = 0x1234_5678_9abc_def0u64 ^ data.len() as u64;
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        let w = u64::from_le_bytes(c.try_into().expect("chunk of 8"));
        h = (h ^ w).wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(29);
    }
    let mut tail = [0u8; 8];
    let rem = chunks.remainder();
    tail[..rem.len()].copy_from_slice(rem);
    h = (h ^ u64::from_le_bytes(tail)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    mix64(h) | 1
}

/// Fold one scan row into a running scan hash.
pub fn fold_row(h: u64, key_num: u64, value_hash: u64) -> u64 {
    mix64(h ^ key_num).wrapping_add(value_hash)
}

/// What an op does. `#[repr(u8)]` keeps [`Op`] at 24 bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Kind {
    /// `a` = id, `b` = value length, `expect` = version << 32 | dkey.
    Put,
    /// `a` = id.
    Delete,
    /// `a` = key number low 32 bits (numbers stay below 2^32),
    /// `expect` = value hash or 0 when absent.
    Get,
    /// `a` = first id, `b` = ids spanned, `expect` = folded row hash.
    Scan,
    /// `a` = first id, `b` = ids spanned (inclusive sort-key range).
    RangeDeleteKeys,
    /// `a` = low dkey, `b` = high dkey (inclusive).
    RangeDeleteSecondary,
    /// The host application's periodic `maintain()` call: with inline
    /// maintenance (`background_threads = 0`) value-log GC runs nowhere
    /// else.
    Maintain,
}

/// One generated operation in compact form; key and value bytes are
/// rendered into reused buffers when the op is issued.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    pub kind: Kind,
    pub a: u32,
    pub b: u32,
    pub expect: u64,
}

impl Op {
    pub fn put_version(&self) -> u32 {
        (self.expect >> 32) as u32
    }

    pub fn put_dkey(&self) -> u64 {
        self.expect & 0xffff_ffff
    }

    /// User bytes this op writes.
    pub fn user_bytes(&self) -> u64 {
        match self.kind {
            Kind::Put => KEY_LEN as u64 + u64::from(self.b),
            Kind::Delete => KEY_LEN as u64,
            Kind::RangeDeleteKeys => 2 * KEY_LEN as u64,
            Kind::RangeDeleteSecondary => 16,
            Kind::Get | Kind::Scan | Kind::Maintain => 0,
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    /// Hash of the live value; 0 when the id is not live.
    vhash: u64,
    len: u32,
    dkey: u32,
    /// Puts this id has received; persists across deletes so a re-put
    /// never repeats an old value.
    version: u32,
}

/// The oracle: the state a correct engine must be in after the ops
/// generated so far. Ids are dense, so an indexed `Vec` is the ordered
/// map; `live`/`pos` allow a uniform draw from the live set.
#[derive(Debug, Clone)]
pub struct Model {
    slots: Vec<Slot>,
    live: Vec<u32>,
    pos: Vec<u32>,
    live_bytes: u64,
    /// `(dkey, id)` in put order, for secondary range deletes.
    by_dkey: VecDeque<(u32, u32)>,
    track_dkeys: bool,
    /// Write ops generated so far; the next put's dkey.
    writes: u32,
    scratch: Vec<u8>,
}

const NOT_LIVE: u32 = u32::MAX;

impl Model {
    fn new(keys: u32, track_dkeys: bool) -> Model {
        Model {
            slots: vec![Slot::default(); keys as usize],
            live: Vec::with_capacity(keys as usize),
            pos: vec![NOT_LIVE; keys as usize],
            live_bytes: 0,
            by_dkey: VecDeque::new(),
            track_dkeys,
            writes: 0,
            scratch: Vec::new(),
        }
    }

    pub fn keys(&self) -> u32 {
        self.slots.len() as u32
    }

    /// Key + value bytes of every live key: the `space_amp` denominator.
    pub fn live_bytes(&self) -> u64 {
        self.live_bytes
    }

    pub fn live_keys(&self) -> usize {
        self.live.len()
    }

    /// Expected get answer for key number `num`.
    pub fn expect_get(&self, num: u64) -> u64 {
        if num % 2 == 1 {
            return 0;
        }
        self.slots
            .get((num / 2) as usize)
            .map_or(0, |slot| slot.vhash)
    }

    fn expect_scan(&self, first: u32, span: u32) -> u64 {
        let end = (first + span).min(self.keys());
        (first..end).fold(0, |h, id| match self.slots[id as usize].vhash {
            0 => h,
            vhash => fold_row(h, key_of(id), vhash),
        })
    }

    fn remove(&mut self, id: u32) {
        let slot = &mut self.slots[id as usize];
        if slot.vhash == 0 {
            return;
        }
        self.live_bytes -= KEY_LEN as u64 + u64::from(slot.len);
        slot.vhash = 0;
        let at = self.pos[id as usize];
        let last = self.live.pop().expect("live id is listed");
        if last != id {
            self.live[at as usize] = last;
            self.pos[last as usize] = at;
        }
        self.pos[id as usize] = NOT_LIVE;
    }

    fn put(&mut self, id: u32, len: u32) -> Op {
        self.writes += 1;
        let dkey = self.writes;
        let version = self.slots[id as usize].version + 1;
        render_value(id, version, len, &mut self.scratch);
        let vhash = hash_bytes(&self.scratch);
        let slot = &mut self.slots[id as usize];
        if slot.vhash == 0 {
            self.pos[id as usize] = self.live.len() as u32;
            self.live.push(id);
        } else {
            self.live_bytes -= KEY_LEN as u64 + u64::from(slot.len);
        }
        self.live_bytes += KEY_LEN as u64 + u64::from(len);
        *slot = Slot {
            vhash,
            len,
            dkey,
            version,
        };
        if self.track_dkeys {
            self.by_dkey.push_back((dkey, id));
        }
        Op {
            kind: Kind::Put,
            a: id,
            b: len,
            expect: (u64::from(version) << 32) | u64::from(dkey),
        }
    }

    fn delete(&mut self, id: u32) -> Op {
        self.writes += 1;
        self.remove(id);
        Op {
            kind: Kind::Delete,
            a: id,
            b: 0,
            expect: 0,
        }
    }

    fn get(&self, num: u64) -> Op {
        Op {
            kind: Kind::Get,
            a: num as u32,
            b: 0,
            expect: self.expect_get(num),
        }
    }

    fn scan(&self, first: u32, span: u32) -> Op {
        Op {
            kind: Kind::Scan,
            a: first,
            b: span,
            expect: self.expect_scan(first, span),
        }
    }

    fn range_delete_keys(&mut self, first: u32, span: u32) -> Op {
        self.writes += 1;
        for id in first..(first + span).min(self.keys()) {
            self.remove(id);
        }
        Op {
            kind: Kind::RangeDeleteKeys,
            a: first,
            b: span,
            expect: 0,
        }
    }

    /// Erase the oldest `share` of live keys by delete key.
    fn range_delete_secondary(&mut self, share: f64) -> Op {
        self.writes += 1;
        let want = ((self.live.len() as f64 * share) as usize).max(1);
        let (mut erased, mut hi) = (0, 0);
        while erased < want {
            let Some((dkey, id)) = self.by_dkey.pop_front() else {
                break;
            };
            hi = dkey;
            let slot = self.slots[id as usize];
            if slot.vhash != 0 && slot.dkey == dkey {
                self.remove(id);
                erased += 1;
            }
        }
        Op {
            kind: Kind::RangeDeleteSecondary,
            a: 0,
            b: hi,
            expect: 0,
        }
    }

    fn random_live(&self, rng: &mut Rng) -> Option<u32> {
        (!self.live.is_empty()).then(|| self.live[rng.below(self.live.len() as u64) as usize])
    }

    /// A written-then-deleted id if a few draws find one, else any id.
    fn random_dead(&self, rng: &mut Rng) -> u32 {
        let n = u64::from(self.keys());
        (0..8)
            .map(|_| rng.below(n) as u32)
            .find(|&id| self.slots[id as usize].vhash == 0)
            .unwrap_or_else(|| rng.below(n) as u32)
    }
}

fn value_len(rng: &mut Rng) -> u32 {
    if rng.below(10) == 0 {
        LARGE_VALUE_LEN
    } else {
        VALUE_LEN
    }
}

/// The four workloads. Names are the contract with `BENCHMARK.json`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    IngestDelete,
    ReadAged,
    WirePerop,
    WirePipelinedSharded,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::IngestDelete,
        Workload::ReadAged,
        Workload::WirePerop,
        Workload::WirePipelinedSharded,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::IngestDelete => "ingest-delete",
            Workload::ReadAged => "read-aged",
            Workload::WirePerop => "wire-perop",
            Workload::WirePipelinedSharded => "wire-pipelined-sharded",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Frozen sizes of one workload at scale 1 (`--seconds 10`), calibrated
/// once on the reference host so the timed phase lasts about ten
/// seconds. Op counts scale with `--seconds`; `--quick` divides keys,
/// ops and `D_th` by ten. Counts, never durations, bound the run, so
/// every count-valued metric repeats exactly for a seed.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Ids loaded during setup.
    pub keys: u32,
    /// Timed ops per second of `--seconds`.
    pub ops_per_second: u32,
    /// FADE delete-persistence threshold in ticks (one tick per write).
    pub d_th: u64,
    /// `block_cache_bytes` of the engine under test.
    pub cache_bytes: usize,
}

pub const RUN_SECONDS: u32 = 10;

impl Workload {
    pub fn base_sizes(self) -> Sizes {
        match self {
            // Four D_th windows fit in the timed phase.
            Workload::IngestDelete => Sizes {
                keys: 150_000,
                ops_per_second: 36_000,
                d_th: 90_000,
                cache_bytes: 8 << 20,
            },
            // Nothing expires; the cache holds about 1/8 of the tables.
            Workload::ReadAged => Sizes {
                keys: 100_000,
                ops_per_second: 60_000,
                d_th: 5_000_000,
                cache_bytes: 1664 << 10,
            },
            // The data fits in memtable + cache.
            Workload::WirePerop => Sizes {
                keys: 20_000,
                ops_per_second: 45_000,
                d_th: 1_000_000,
                cache_bytes: 32 << 20,
            },
            Workload::WirePipelinedSharded => Sizes {
                keys: 100_000,
                ops_per_second: 20_000,
                d_th: 600_000,
                cache_bytes: 8 << 20,
            },
        }
    }

    /// Sizes for this invocation.
    pub fn sizes(self, quick: bool) -> Sizes {
        let base = self.base_sizes();
        if !quick {
            return base;
        }
        Sizes {
            keys: base.keys / 10,
            ops_per_second: base.ops_per_second / 10,
            d_th: base.d_th / 10,
            cache_bytes: base.cache_bytes / 10,
        }
    }
}

/// A workload's generated inputs and the oracle's final state.
#[derive(Debug, Clone)]
pub struct Stream {
    pub workload: Workload,
    pub sizes: Sizes,
    /// Untimed ops that build the starting tree.
    pub setup: Vec<Op>,
    /// The measured ops.
    pub timed: Vec<Op>,
    /// Oracle state after the last timed op.
    pub model: Model,
    /// User bytes written by the timed ops.
    pub timed_user_bytes: u64,
    /// User bytes written by the setup and the timed ops together (the
    /// `write_amp` denominator).
    pub user_bytes: u64,
}

impl Stream {
    /// Order-sensitive digest of every generated op.
    pub fn digest(&self) -> u64 {
        self.setup.iter().chain(&self.timed).fold(0, |h, op| {
            let head = (op.kind as u64) << 56 | u64::from(op.a) << 24 | u64::from(op.b);
            mix64(mix64(h ^ head) ^ op.expect)
        })
    }
}

/// Generate the stream of `workload` for `seed`.
pub fn generate(workload: Workload, seed: u64, seconds: u32, quick: bool) -> Stream {
    let sizes = workload.sizes(quick);
    let mut rng = Rng::new(mix64(seed) ^ mix64(workload as u64 + 1));
    let mut model = Model::new(sizes.keys, workload == Workload::IngestDelete);
    let timed_ops = sizes.ops_per_second as usize * seconds as usize;
    let mut setup = Vec::new();
    load_shuffled(&mut model, &mut rng, &mut setup);
    if workload == Workload::ReadAged {
        age_tree(&mut model, &mut rng, &mut setup);
    }
    let mut timed = Vec::with_capacity(timed_ops);
    let zipf = Zipfian::new(u64::from(sizes.keys), 0.99);
    for i in 0..timed_ops {
        let op = match workload {
            Workload::IngestDelete => next_ingest_delete(&mut model, &mut rng, i, sizes.d_th),
            Workload::ReadAged => next_read_aged(&mut model, &mut rng, &zipf),
            Workload::WirePerop => next_wire_perop(&mut model, &mut rng),
            Workload::WirePipelinedSharded => next_wire_pipelined(&mut model, &mut rng),
        };
        timed.push(op);
    }
    let timed_user_bytes: u64 = timed.iter().map(Op::user_bytes).sum();
    let user_bytes = timed_user_bytes + setup.iter().map(Op::user_bytes).sum::<u64>();
    Stream {
        workload,
        sizes,
        setup,
        timed,
        model,
        timed_user_bytes,
        user_bytes,
    }
}

/// Load every id once, in a seeded random order (a sorted load would
/// build non-overlapping files that compaction only has to move).
fn load_shuffled(model: &mut Model, rng: &mut Rng, out: &mut Vec<Op>) {
    let mut ids: Vec<u32> = (0..model.keys()).collect();
    for i in (1..ids.len()).rev() {
        ids.swap(i, rng.below(i as u64 + 1) as usize);
    }
    for id in ids {
        let len = value_len(rng);
        out.push(model.put(id, len));
    }
}

/// `read-aged` setup after the load: overwrite 20%, point-delete 40%,
/// and lay live sort-key range tombstones over a further ~10% of ids.
fn age_tree(model: &mut Model, rng: &mut Rng, out: &mut Vec<Op>) {
    let keys = model.keys();
    for _ in 0..keys / 5 {
        let id = rng.below(u64::from(keys)) as u32;
        let len = value_len(rng);
        out.push(model.put(id, len));
    }
    for _ in 0..keys * 2 / 5 {
        if let Some(id) = model.random_live(rng) {
            out.push(model.delete(id));
        }
    }
    for _ in 0..keys / 500 {
        let first = rng.below(u64::from(keys - SCAN_SPAN)) as u32;
        out.push(model.range_delete_keys(first, SCAN_SPAN));
    }
}

fn uniform_id(model: &Model, rng: &mut Rng) -> u32 {
    rng.below(u64::from(model.keys())) as u32
}

fn scan_op(model: &Model, rng: &mut Rng) -> Op {
    let first = rng.below(u64::from(model.keys() - SCAN_SPAN)) as u32;
    model.scan(first, SCAN_SPAN)
}

fn delete_live_or_any(model: &mut Model, rng: &mut Rng) -> Op {
    let id = model
        .random_live(rng)
        .unwrap_or_else(|| uniform_id(model, rng));
    model.delete(id)
}

/// Ops between two `maintain()` calls of `ingest-delete`, as a share of
/// `D_th`: often enough that value-log GC runs several times per window.
const MAINTAIN_PER_D_TH: u64 = 8;

/// 55% put, 30% delete of a live key, 0.01% secondary range delete of
/// the oldest 1%, 1% scan, the rest gets (half live, half absent:
/// deleted or never written), and a `maintain()` every `D_th / 8` ops.
///
/// No sort-key range deletes here: under FADE a sort-key range
/// tombstone that straddles two bottom-level files is TTL-compacted in
/// place forever (the picker never widens the input set, so the
/// tombstone is never purgeable and the logical clock never advances).
/// `read-aged` carries the live range tombstones instead, where nothing
/// expires.
fn next_ingest_delete(model: &mut Model, rng: &mut Rng, index: usize, d_th: u64) -> Op {
    let every = (d_th / MAINTAIN_PER_D_TH).max(1) as usize;
    if index % every == every - 1 {
        return Op {
            kind: Kind::Maintain,
            a: 0,
            b: 0,
            expect: 0,
        };
    }
    let roll = rng.below(1_000_000);
    match roll {
        0..550_000 => {
            let id = uniform_id(model, rng);
            let len = value_len(rng);
            model.put(id, len)
        }
        550_000..850_000 => delete_live_or_any(model, rng),
        850_000..850_100 => model.range_delete_secondary(0.01),
        850_100..860_100 => scan_op(model, rng),
        _ => {
            let num = match rng.below(4) {
                0 | 1 => model.random_live(rng).map_or(1, key_of),
                2 => key_of(model.random_dead(rng)),
                _ => key_of(uniform_id(model, rng)) + 1,
            };
            model.get(num)
        }
    }
}

/// 85% get (half uniform over every key number, half Zipfian 0.99 over
/// ids), 10% scan, 5% put.
fn next_read_aged(model: &mut Model, rng: &mut Rng, zipf: &Zipfian) -> Op {
    let keys = u64::from(model.keys());
    match rng.below(100) {
        0..85 => {
            let num = if rng.below(2) == 0 {
                rng.below(keys * 2)
            } else {
                key_of(scramble(zipf.sample(rng), keys) as u32)
            };
            model.get(num)
        }
        85..95 => scan_op(model, rng),
        _ => {
            let id = uniform_id(model, rng);
            let len = value_len(rng);
            model.put(id, len)
        }
    }
}

/// 48% get, 2% scan, 40% put, 10% delete of a live key.
fn next_wire_perop(model: &mut Model, rng: &mut Rng) -> Op {
    match rng.below(100) {
        0..48 => model.get(key_of(uniform_id(model, rng))),
        48..50 => scan_op(model, rng),
        50..90 => {
            let id = uniform_id(model, rng);
            let len = value_len(rng);
            model.put(id, len)
        }
        _ => delete_live_or_any(model, rng),
    }
}

/// 45% get, 35% put, 10% delete, 10% scan. (No sort-key range delete
/// broadcast, for the reason given at [`next_ingest_delete`].)
fn next_wire_pipelined(model: &mut Model, rng: &mut Rng) -> Op {
    match rng.below(100) {
        0..45 => model.get(key_of(uniform_id(model, rng))),
        45..80 => {
            let id = uniform_id(model, rng);
            let len = value_len(rng);
            model.put(id, len)
        }
        80..90 => delete_live_or_any(model, rng),
        _ => scan_op(model, rng),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_seeded_and_uniform_enough() {
        let mut a = Rng::new(7);
        let mut b = Rng::new(7);
        assert_eq!(a.next_u64(), b.next_u64());
        let mut buckets = [0u32; 10];
        for _ in 0..100_000 {
            buckets[a.below(10) as usize] += 1;
        }
        assert!(buckets.iter().all(|&c| (9_000..11_000).contains(&c)));
    }

    #[test]
    fn zipfian_is_skewed_and_in_range() {
        let z = Zipfian::new(1000, 0.99);
        let mut rng = Rng::new(1);
        let mut hot = 0;
        for _ in 0..100_000 {
            let r = z.sample(&mut rng);
            assert!(r < 1000);
            if r < 10 {
                hot += 1;
            }
        }
        // The top 1% of ranks draws well over a third of the samples.
        assert!(hot > 35_000, "hot = {hot}");
    }

    #[test]
    fn keys_render_in_number_order_and_round_trip() {
        let (mut a, mut b) = ([0u8; KEY_LEN], [0u8; KEY_LEN]);
        render_key(99, &mut a);
        render_key(100, &mut b);
        assert!(a < b);
        assert_eq!(&a, b"key-0000000000000099");
        assert_eq!(parse_key(&b), Some(100));
        assert_eq!(parse_key(b"key-00000000000000x9"), None);
    }

    #[test]
    fn values_depend_on_id_and_version() {
        let (mut a, mut b, mut c) = (Vec::new(), Vec::new(), Vec::new());
        render_value(1, 1, 100, &mut a);
        render_value(1, 2, 100, &mut b);
        render_value(1, 1, 100, &mut c);
        assert_eq!(a.len(), 100);
        assert_ne!(a, b);
        assert_eq!(a, c);
        assert_ne!(hash_bytes(&a), hash_bytes(&b));
        assert_ne!(hash_bytes(b""), 0);
    }

    #[test]
    fn model_tracks_puts_deletes_and_ranges() {
        let mut m = Model::new(100, true);
        m.put(3, 100);
        m.put(4, 100);
        m.put(5, 2048);
        assert_eq!(m.live_keys(), 3);
        assert_eq!(m.live_bytes(), 3 * KEY_LEN as u64 + 2248);
        assert_ne!(m.expect_get(key_of(3)), 0);
        assert_eq!(m.expect_get(key_of(3) + 1), 0);
        let before = m.scan(0, 50).expect;
        m.delete(4);
        assert_eq!(m.expect_get(key_of(4)), 0);
        assert_ne!(m.scan(0, 50).expect, before);
        // The oldest live key by dkey is id 3.
        let op = m.range_delete_secondary(0.01);
        assert_eq!((op.a, op.b), (0, 1));
        assert_eq!(m.expect_get(key_of(3)), 0);
        m.range_delete_keys(0, 50);
        assert_eq!(m.live_keys(), 0);
        assert_eq!(m.live_bytes(), 0);
    }

    /// Pinned so that a change to the generator is a visible decision:
    /// it re-bases every count-valued metric.
    #[test]
    fn stream_digests_are_pinned_for_seed_1_and_differ_for_seed_2() {
        let digests: Vec<String> = Workload::ALL
            .into_iter()
            .map(|w| format!("{} {:#018x}", w.name(), generate(w, 1, 1, true).digest()))
            .collect();
        assert_eq!(
            digests,
            [
                "ingest-delete 0xa37cc6317c9e08be",
                "read-aged 0xe98f5db050d013b9",
                "wire-perop 0xae108b4bd03df99a",
                "wire-pipelined-sharded 0xebe79f5238b423aa",
            ]
        );
        for w in Workload::ALL {
            let one = generate(w, 1, 1, true).digest();
            assert_eq!(one, generate(w, 1, 1, true).digest());
            assert_ne!(one, generate(w, 2, 1, true).digest());
        }
    }

    #[test]
    fn mixes_match_their_descriptions() {
        let s = generate(Workload::IngestDelete, 1, 10, false);
        let share = |kind| {
            s.timed.iter().filter(|op| op.kind == kind).count() as f64 / s.timed.len() as f64
        };
        assert!((share(Kind::Put) - 0.55).abs() < 0.01);
        assert!((share(Kind::Delete) - 0.30).abs() < 0.01);
        assert!(share(Kind::RangeDeleteSecondary) > 0.0);
        assert_eq!(share(Kind::RangeDeleteKeys), 0.0);
        assert!((share(Kind::Get) - 0.139).abs() < 0.01);
        // One maintain() per D_th / 8 ops.
        let maintains = s
            .timed
            .iter()
            .filter(|op| op.kind == Kind::Maintain)
            .count();
        assert_eq!(maintains, s.timed.len() / (s.sizes.d_th as usize / 8));
        let gets: Vec<_> = s.timed.iter().filter(|op| op.kind == Kind::Get).collect();
        let live = gets.iter().filter(|op| op.expect != 0).count() as f64 / gets.len() as f64;
        // Half, plus the early gets that found no deleted key to ask for.
        assert!((0.5..0.6).contains(&live), "live get share = {live}");
    }
}
