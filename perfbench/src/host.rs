//! Process and host facts: a counting allocator, `/proc/self` readings and
//! result provenance.

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// The system allocator, counting allocations and bytes while
/// [`CountingAlloc::enable`] is on. The counters publish no other data, so
/// every access is `Relaxed`.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

impl CountingAlloc {
    /// Start counting (the untraced run leaves it off).
    pub fn enable() {
        COUNTING.store(true, Ordering::Relaxed);
    }

    /// `(allocations, bytes allocated)` so far.
    pub fn totals() -> (u64, u64) {
        (
            ALLOCS.load(Ordering::Relaxed),
            BYTES.load(Ordering::Relaxed),
        )
    }

    fn note(size: usize) {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(size as u64, Ordering::Relaxed);
        }
    }
}

// SAFETY: every call forwards unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters only read `layout`.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// CPU and fault counters of this process from `/proc/self/stat`.
#[derive(Clone, Copy, Debug, Default)]
pub struct ProcStat {
    /// Minor page faults.
    pub minflt: u64,
    /// User CPU time in clock ticks.
    pub utime: u64,
    /// System CPU time in clock ticks.
    pub stime: u64,
}

impl ProcStat {
    /// Read the counters now.
    pub fn now() -> Result<ProcStat, String> {
        let stat = std::fs::read_to_string("/proc/self/stat")
            .map_err(|e| format!("reading /proc/self/stat: {e}"))?;
        // Fields after the parenthesised command name, which may hold spaces.
        let rest = stat.rsplit_once(')').ok_or("malformed /proc/self/stat")?.1;
        let fields: Vec<&str> = rest.split_whitespace().collect();
        // `rest` starts at field 3 (state): minflt is field 10, utime 14,
        // stime 15.
        let field = |n: usize| -> Result<u64, String> {
            fields
                .get(n - 3)
                .and_then(|f| f.parse().ok())
                .ok_or_else(|| format!("/proc/self/stat field {n} unreadable"))
        };
        Ok(ProcStat {
            minflt: field(10)?,
            utime: field(14)?,
            stime: field(15)?,
        })
    }

    /// Counters accumulated since `earlier`.
    pub fn since(self, earlier: ProcStat) -> ProcStat {
        ProcStat {
            minflt: self.minflt - earlier.minflt,
            utime: self.utime - earlier.utime,
            stime: self.stime - earlier.stime,
        }
    }
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Host name, or `unknown`.
pub fn host() -> String {
    std::fs::read_to_string("/proc/sys/kernel/hostname")
        .map(|h| h.trim().to_owned())
        .unwrap_or_else(|_| "unknown".into())
}

/// Available cores.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The commit checked out under `root`, read from `.git/HEAD` and the ref
/// it names (loose or packed) without running git; `unknown` when `root`
/// is not a git checkout.
pub fn commit(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    if let Ok(hash) = std::fs::read_to_string(git.join(name)) {
        return hash.trim().to_owned();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (hash, r) = l.split_once(' ')?;
                (r == name).then(|| hash.to_owned())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}
