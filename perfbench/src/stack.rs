//! How a benchmark store is opened, plus the device wrappers that sit under
//! the engine's WAL.
//!
//! * [`Device`] wraps the `FilePager`. It can charge a fixed modeled latency
//!   per page read (a spin, so the charge is exact and costs no scheduler
//!   wake-up), and, when traced, counts and times page reads.
//! * [`LogDevice`] wraps the `FileLog`; when traced it counts the bytes
//!   appended and counts and times the syncs.
//!
//! [`Stack::open`] builds exactly what `ArchIS::open_file` builds
//! (`FilePager` + `FileLog` + `WalPager` with the config's group commit,
//! under one `BufferPool`), but with the wrappers inserted, and keeps a
//! handle on the `WalPager` so its counters can be read.

use archis::{ArchConfig, ArchIS};
use relstore::pager::{FilePager, Pager};
use relstore::wal::{FileLog, LogFile, WalConfig, WalPager};
use relstore::{BufferPool, Database, PageId};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Counters of one wrapper. Statistics only, so `Relaxed` throughout.
#[derive(Default)]
pub struct Counters {
    reads: AtomicU64,
    read_ns: AtomicU64,
    bytes: AtomicU64,
    syncs: AtomicU64,
    sync_ns: AtomicU64,
}

/// The values of [`Counters`] at one moment.
#[derive(Default, Clone, Copy)]
pub struct Totals {
    pub reads: u64,
    pub read_ns: u64,
    pub bytes: u64,
    pub syncs: u64,
    pub sync_ns: u64,
}

impl Totals {
    /// What was counted between `before` and `self`.
    pub fn since(self, before: Totals) -> Totals {
        Totals {
            reads: self.reads - before.reads,
            read_ns: self.read_ns - before.read_ns,
            bytes: self.bytes - before.bytes,
            syncs: self.syncs - before.syncs,
            sync_ns: self.sync_ns - before.sync_ns,
        }
    }
}

impl Counters {
    fn timed<T>(&self, on: bool, n: &AtomicU64, ns: &AtomicU64, f: impl FnOnce() -> T) -> T {
        if !on {
            return f();
        }
        let t = Instant::now();
        let out = f();
        ns.fetch_add(t.elapsed().as_nanos() as u64, Relaxed);
        n.fetch_add(1, Relaxed);
        out
    }

    pub fn totals(&self) -> Totals {
        Totals {
            reads: self.reads.load(Relaxed),
            read_ns: self.read_ns.load(Relaxed),
            bytes: self.bytes.load(Relaxed),
            syncs: self.syncs.load(Relaxed),
            sync_ns: self.sync_ns.load(Relaxed),
        }
    }
}

fn spin(d: Duration) {
    if d.is_zero() {
        return;
    }
    let t = Instant::now();
    while t.elapsed() < d {
        std::hint::spin_loop();
    }
}

/// The page device under the WAL.
pub struct Device {
    inner: FilePager,
    read_latency: Duration,
    traced: bool,
    pub counters: Arc<Counters>,
}

impl Pager for Device {
    fn read_page(&self, id: PageId, buf: &mut [u8]) -> relstore::Result<()> {
        let c = &self.counters;
        c.timed(self.traced, &c.reads, &c.read_ns, || {
            spin(self.read_latency);
            self.inner.read_page(id, buf)
        })
    }
    fn write_page(&self, id: PageId, buf: &[u8]) -> relstore::Result<()> {
        self.inner.write_page(id, buf)
    }
    fn allocate(&self) -> relstore::Result<PageId> {
        self.inner.allocate()
    }
    fn num_pages(&self) -> u64 {
        self.inner.num_pages()
    }
    fn sync(&self) -> relstore::Result<()> {
        self.inner.sync()
    }
    fn checkpoint(&self) -> relstore::Result<()> {
        self.inner.checkpoint()
    }
    fn checksum_stats(&self) -> (u64, u64) {
        self.inner.checksum_stats()
    }
    fn reset_checksum_stats(&self) {
        self.inner.reset_checksum_stats();
    }
}

/// The log device under the WAL.
pub struct LogDevice {
    inner: FileLog,
    traced: bool,
    pub counters: Arc<Counters>,
}

impl LogFile for LogDevice {
    fn append(&self, bytes: &[u8]) -> relstore::Result<()> {
        if self.traced {
            self.counters.bytes.fetch_add(bytes.len() as u64, Relaxed);
        }
        self.inner.append(bytes)
    }
    fn sync(&self) -> relstore::Result<()> {
        let c = &self.counters;
        c.timed(self.traced, &c.syncs, &c.sync_ns, || self.inner.sync())
    }
    fn read_all(&self) -> relstore::Result<Vec<u8>> {
        self.inner.read_all()
    }
    fn truncate(&self) -> relstore::Result<()> {
        self.inner.truncate()
    }
    fn len(&self) -> relstore::Result<u64> {
        self.inner.len()
    }
}

/// Handles on an open store's layers, for the traced run's counters.
#[derive(Default)]
pub struct Layers {
    pub device: Option<Arc<Counters>>,
    pub log: Option<Arc<Counters>>,
    pub wal: Option<Arc<WalPager>>,
}

/// How to open a store.
#[derive(Clone, Copy)]
pub struct Stack {
    /// Modeled device latency charged per page read.
    pub read_latency: Duration,
    /// Open through the counting wrappers (traced run).
    pub traced: bool,
}

impl Stack {
    /// Open (or create) the durable store at `path`. Untraced stores with
    /// no modeled latency open through `ArchIS::open_file` itself.
    pub fn open(&self, path: &Path, config: ArchConfig) -> (ArchIS, Layers) {
        if !self.traced && self.read_latency.is_zero() {
            let archis = ArchIS::open_file(path, config).expect("open_file");
            return (archis, Layers::default());
        }
        let mut wal_path = path.as_os_str().to_os_string();
        wal_path.push(".wal");
        let device = Arc::new(Device {
            inner: FilePager::open(path).expect("open page file"),
            read_latency: self.read_latency,
            traced: self.traced,
            counters: Arc::default(),
        });
        let log = Arc::new(LogDevice {
            inner: FileLog::open(wal_path).expect("open log file"),
            traced: self.traced,
            counters: Arc::default(),
        });
        let layers = Layers {
            device: Some(device.counters.clone()),
            log: Some(log.counters.clone()),
            wal: None,
        };
        let wal = Arc::new(
            WalPager::open(
                device,
                log,
                WalConfig::with_group_commit(config.group_commit),
            )
            .expect("open WAL"),
        );
        let pool = Arc::new(BufferPool::new(wal.clone(), config.buffer_pages));
        let db = Database::open_pool(pool).expect("open database");
        let archis = ArchIS::open_with_database(db, config).expect("open ArchIS");
        let layers = Layers {
            wal: self.traced.then_some(wal),
            ..layers
        };
        (archis, layers)
    }
}
