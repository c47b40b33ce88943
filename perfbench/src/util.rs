//! Small shared pieces: the seeded input generator, order statistics,
//! the output-check ledger, process memory, and scratch directories.

use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// SplitMix64: every workload input (grid seeds, scripts, session order)
/// is drawn from one of these, seeded from `--seed`.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5eed_0fb3_ac40_u64)
    }

    /// An independent stream for `(seed, label, index)`.
    pub fn derive(seed: u64, label: &str, index: u64) -> Rng {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in label.bytes().chain(index.to_le_bytes()) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        Rng::new(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ h)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Median of `v` (0 for an empty slice).
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linear-interpolated quantile of `v` (0 for an empty slice).
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// A tail percentile robust to bursts: `q` of each run of `block`
/// consecutive samples (so each block has `block·(1−q)` samples beyond
/// it), then the median over blocks. Fewer than two blocks' worth of
/// samples is one block.
pub fn tail(v: &[f64], q: f64, block: usize) -> f64 {
    if v.len() < 2 * block {
        return quantile(v, q);
    }
    let per: Vec<f64> = v.chunks_exact(block).map(|c| quantile(c, q)).collect();
    median(&per)
}

/// Every checked operation: attempts, failures, and the first few
/// failure descriptions. A failed operation is a non-2xx/304 reply, a
/// failed run, or a failed output check.
#[derive(Default)]
pub struct Checks {
    inner: Mutex<(u64, u64, Vec<String>)>,
}

impl Checks {
    /// Record one operation; `what` describes it if it failed.
    pub fn op(&self, ok: bool, what: impl FnOnce() -> String) -> bool {
        let mut g = self.inner.lock().expect("check ledger poisoned");
        g.0 += 1;
        if !ok {
            g.1 += 1;
            if g.2.len() < 20 {
                g.2.push(what());
            }
        }
        ok
    }

    /// Record an error result as a failed operation.
    pub fn ok<T, E: std::fmt::Display>(&self, r: Result<T, E>, what: &str) -> Option<T> {
        match r {
            Ok(v) => {
                self.op(true, String::new);
                Some(v)
            }
            Err(e) => {
                self.op(false, || format!("{what}: {e}"));
                None
            }
        }
    }

    pub fn totals(&self) -> (u64, u64, Vec<String>) {
        self.inner.lock().expect("check ledger poisoned").clone()
    }
}

/// Peak resident set (VmHWM) of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Reset VmHWM to the current resident set (`/proc/self/clear_refs`).
pub fn reset_peak_rss() {
    if std::fs::write("/proc/self/clear_refs", "5").is_err() {
        println!("note: the peak resident set could not be reset; the window's includes set-up");
    }
}

/// A fresh, empty directory at `path`.
pub fn fresh_dir(path: &Path) -> PathBuf {
    let _ = std::fs::remove_dir_all(path);
    std::fs::create_dir_all(path).expect("create scratch directory");
    path.to_path_buf()
}

/// Total size in bytes of a run directory's `columns.jsonl` and
/// `manifest.json`.
pub fn run_bytes(dir: &Path) -> u64 {
    ["columns.jsonl", "manifest.json"]
        .iter()
        .filter_map(|f| std::fs::metadata(dir.join(f)).ok())
        .map(|m| m.len())
        .sum()
}
