//! Memory budgets and charged overflow-file I/O — the accounting layer
//! under larger-than-memory execution.
//!
//! The engine exposes one memory knob, `SMOOTH_MEM_BYTES`: the working
//! memory each *blocking operator instance* (a hash-join build, a sort)
//! of an active query may hold before it must spill, in the spirit of
//! PostgreSQL's `work_mem`. The budget is per operator rather than a
//! shared per-query pool on purpose: operator open order differs
//! between the serial and parallel drivers, so a shared pool would make
//! spill decisions — and therefore the virtual clock — depend on the
//! driver, breaking the engine-wide byte-identical accounting
//! invariant. `0` (the default) means unlimited; see
//! `docs/larger_than_memory.md` for the full ownership story.
//!
//! Spilling in this engine is *modeled the way all I/O is modeled*: an
//! overflow file is a real serialized byte buffer (the spill codec,
//! [`smooth_types::spill`]), but its transfer cost lands on the virtual
//! clock's I/O arm rather than a filesystem. [`spill_io_ns`] is the one
//! formula every overflow file in the engine pays — the grace hash
//! join's partition files, the external sort's runs, and the Smooth
//! Scan Result Cache's partition spills in `smooth-core` all route
//! through it. The shared invariant: one overflow-file transfer costs
//! one seek plus sequential page transfers of its byte length
//! (`ceil(bytes / PAGE_SIZE)` pages, minimum one) on the scan device,
//! charged to the clock's I/O lane and *never* to the disk-arm
//! counters — overflow files live beside the heap, not in it, so the
//! buffer pool, sequential/random classification and page counters are
//! unperturbed.

use std::sync::atomic::{AtomicIsize, Ordering};
use std::sync::OnceLock;

use smooth_storage::{DeviceProfile, Storage};
use smooth_types::{Result, PAGE_SIZE};

/// Per-operator memory budget in bytes: the `SMOOTH_MEM_BYTES`
/// environment variable, read **once per process** and latched. `0` or
/// unset means unlimited — no operator
/// ever spills. Tests and embedders override per instance via
/// `Database::set_mem_bytes` / the operators' `with_mem_budget`.
pub fn mem_budget_bytes() -> usize {
    static BYTES: OnceLock<usize> = OnceLock::new();
    *BYTES.get_or_init(|| {
        std::env::var("SMOOTH_MEM_BYTES").ok().and_then(|v| v.parse::<usize>().ok()).unwrap_or(0)
    })
}

/// Grace-join recursion fan-out: how many sub-partitions an overflowing
/// spilled partition re-partitions into. The `SMOOTH_SPILL_PARTITIONS`
/// environment variable (clamped to 2..=64, read once and latched),
/// default 8.
pub fn spill_partitions() -> usize {
    static PARTS: OnceLock<usize> = OnceLock::new();
    *PARTS.get_or_init(|| {
        std::env::var("SMOOTH_SPILL_PARTITIONS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .map(|n| n.clamp(2, 64))
            .unwrap_or(8)
    })
}

/// Modeled cost of transferring one `bytes`-long overflow file (in
/// either direction): one seek plus sequential page transfers on
/// `device`. Zero bytes cost nothing — no file, no seek.
#[inline]
pub fn spill_io_ns(device: &DeviceProfile, bytes: u64) -> u64 {
    if bytes == 0 {
        return 0;
    }
    device.run_cost_ns(bytes.div_ceil(PAGE_SIZE as u64))
}

/// Charge one overflow-file transfer of `bytes` to the virtual clock's
/// I/O lane (never the disk-arm counters — see the module docs).
#[inline]
pub fn charge_spill_io(storage: &Storage, bytes: u64) {
    let ns = spill_io_ns(&storage.device(), bytes);
    if ns > 0 {
        storage.clock().charge_io(ns);
    }
}

/// Write one overflow file: fault-gate the write (the storage
/// instance's [`smooth_storage::FaultInjector`], if any, may retry
/// with backoff or fail it), charge the transfer, and wrap the bytes
/// as a [`SpillFile`]. Every operator spill should route through this
/// rather than pairing [`charge_spill_io`] with [`SpillFile::new`] by
/// hand, so injected `spill_err` faults cover all of them.
pub fn spill_write(storage: &Storage, data: Vec<u8>, rows: u64) -> Result<SpillFile> {
    storage.spill_fault_check(data.len() as u64, rows)?;
    charge_spill_io(storage, data.len() as u64);
    Ok(SpillFile::new(data, rows))
}

/// Overflow files alive in the process right now (created minus
/// dropped). Tests assert this returns to its baseline after a query
/// completes or fails — spill files must never leak past their query.
static LIVE_SPILL_FILES: AtomicIsize = AtomicIsize::new(0);

/// One overflow file: really-serialized tuple bytes (the
/// [`smooth_types::spill`] codec) held as a buffer, with its transfer
/// costs charged through [`charge_spill_io`] by the owning operator.
#[derive(Debug)]
pub struct SpillFile {
    data: Vec<u8>,
    rows: u64,
}

impl Drop for SpillFile {
    fn drop(&mut self) {
        LIVE_SPILL_FILES.fetch_sub(1, Ordering::Relaxed);
    }
}

impl SpillFile {
    /// Wrap already-encoded rows as an overflow file (the caller
    /// charges the write through [`charge_spill_io`]; prefer
    /// [`spill_write`], which also fault-gates it).
    pub fn new(data: Vec<u8>, rows: u64) -> Self {
        LIVE_SPILL_FILES.fetch_add(1, Ordering::Relaxed);
        SpillFile { data, rows }
    }

    /// Number of [`SpillFile`]s alive in the process (for leak
    /// assertions in tests — a completed or failed query must leave
    /// this where it found it).
    pub fn live_count() -> isize {
        LIVE_SPILL_FILES.load(Ordering::Relaxed)
    }

    /// Serialized byte length.
    pub fn bytes_len(&self) -> u64 {
        self.data.len() as u64
    }

    /// Encoded row count.
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// The raw encoded bytes.
    pub fn data(&self) -> &[u8] {
        &self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spill_io_matches_result_cache_formula() {
        let dev = DeviceProfile::custom("t", 10, 1000);
        // The historical Result Cache formula: pages =
        // ceil(bytes / PAGE_SIZE).max(1), one seek + sequential run.
        for bytes in [1u64, 100, PAGE_SIZE as u64, PAGE_SIZE as u64 + 1, 10 * PAGE_SIZE as u64] {
            let pages = bytes.div_ceil(PAGE_SIZE as u64).max(1);
            assert_eq!(spill_io_ns(&dev, bytes), dev.run_cost_ns(pages));
        }
        assert_eq!(spill_io_ns(&dev, 0), 0);
    }

    #[test]
    fn charge_lands_on_io_not_disk_counters() {
        let storage = Storage::default_hdd();
        let clock0 = storage.clock().snapshot();
        let io0 = storage.io_snapshot();
        charge_spill_io(&storage, 3 * PAGE_SIZE as u64);
        let clock = storage.clock().snapshot().since(&clock0);
        assert_eq!(clock.io_ns, spill_io_ns(&storage.device(), 3 * PAGE_SIZE as u64));
        assert_eq!(clock.cpu_ns, 0);
        let io = storage.io_snapshot().since(&io0);
        assert_eq!(io.pages_read, 0);
        assert_eq!(io.io_requests, 0);
    }

    #[test]
    fn spill_write_charges_and_tracks_liveness() {
        let storage = Storage::default_hdd();
        let before_live = SpillFile::live_count();
        let clock0 = storage.clock().snapshot();
        let f = spill_write(&storage, vec![0u8; 1000], 10).unwrap();
        assert_eq!(f.bytes_len(), 1000);
        assert_eq!(f.rows(), 10);
        assert_eq!(SpillFile::live_count(), before_live + 1);
        let clock = storage.clock().snapshot().since(&clock0);
        assert_eq!(clock.io_ns, spill_io_ns(&storage.device(), 1000));
        drop(f);
        assert_eq!(SpillFile::live_count(), before_live);
    }

    #[test]
    fn spill_write_surfaces_injected_faults() {
        use smooth_storage::FaultConfig;
        let storage = Storage::default_hdd();
        storage.set_faults(Some(FaultConfig::new(3).spill_err(1.0)));
        let before_live = SpillFile::live_count();
        let clock0 = storage.clock().snapshot();
        let err = spill_write(&storage, vec![0u8; 1000], 10).unwrap_err();
        assert!(matches!(err, smooth_types::Error::Faulted { .. }));
        // The failed write charged only its retry backoff — not the
        // transfer — and created no file.
        let clock = storage.clock().snapshot().since(&clock0);
        assert_eq!(clock.io_ns, smooth_storage::faults::total_backoff_ns(3));
        assert_eq!(SpillFile::live_count(), before_live);
    }
}
