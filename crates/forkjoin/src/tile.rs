//! Cache geometry probing and tile-size selection.
//!
//! The Cell BE matrix-language lineage (see PAPERS.md) blocks matrix
//! operands into tiles sized to the local store so large operands stream
//! instead of thrash. On a cache-based CPU the same policy applies with
//! L1d/L2 in place of the local store. This module probes the cache
//! sizes once per process and derives two numbers the rest of the
//! workspace uses:
//!
//! * [`TilePolicy::matmul_tile`] — a square tile edge chosen so three
//!   tiles (an A panel, a B panel and a C block) fit in L1d together. The
//!   matrix-product kernel does not block: the edge sizes the row tiles
//!   a parallel product claims and the tile edges `cmmc tune` proposes;
//! * [`TilePolicy::static_grain`] — the maximum iteration count of one
//!   statically scheduled claim, chosen so a claim's write set stays
//!   around half of L2. Large `static` loops are thereby split into
//!   cache-sized bites whose tails remain visible to work stealing,
//!   while loops smaller than a bite keep the classic one-chunk-per-
//!   participant partition (and its telemetry) exactly.

use std::sync::OnceLock;

/// Probed (or defaulted) per-core cache sizes in bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheGeometry {
    /// Level-1 data cache size.
    pub l1d_bytes: usize,
    /// Level-2 (unified) cache size.
    pub l2_bytes: usize,
}

/// Conservative defaults when the platform exposes no cache topology:
/// 32 KiB L1d / 256 KiB L2 — the smallest geometry among the common
/// x86-64 and AArch64 server parts, so tiles never overshoot a real
/// cache.
pub const DEFAULT_GEOMETRY: CacheGeometry = CacheGeometry {
    l1d_bytes: 32 * 1024,
    l2_bytes: 256 * 1024,
};

/// Cache geometry of this machine, probed once per process from the
/// Linux sysfs cache topology and falling back to [`DEFAULT_GEOMETRY`]
/// elsewhere (or when sysfs is absent, e.g. in minimal containers).
pub fn cache_geometry() -> CacheGeometry {
    static GEOMETRY: OnceLock<CacheGeometry> = OnceLock::new();
    *GEOMETRY.get_or_init(probe_geometry)
}

fn probe_geometry() -> CacheGeometry {
    let mut g = DEFAULT_GEOMETRY;
    let base = std::path::Path::new("/sys/devices/system/cpu/cpu0/cache");
    let Ok(entries) = std::fs::read_dir(base) else {
        return g;
    };
    for entry in entries.flatten() {
        let dir = entry.path();
        let read = |name: &str| -> Option<String> {
            std::fs::read_to_string(dir.join(name))
                .ok()
                .map(|s| s.trim().to_string())
        };
        let (Some(level), Some(size)) = (read("level"), read("size")) else {
            continue;
        };
        let Some(bytes) = parse_cache_size(&size) else {
            continue;
        };
        let ty = read("type").unwrap_or_default();
        match (level.as_str(), ty.as_str()) {
            ("1", "Data") => g.l1d_bytes = bytes,
            ("2", "Unified" | "Data") => g.l2_bytes = bytes,
            _ => {}
        }
    }
    g
}

/// Parse a sysfs cache size string like `32K` or `1M`.
fn parse_cache_size(s: &str) -> Option<usize> {
    let s = s.trim();
    let (digits, mult) = match s.as_bytes().last()? {
        b'K' => (&s[..s.len() - 1], 1024),
        b'M' => (&s[..s.len() - 1], 1024 * 1024),
        _ => (s, 1),
    };
    digits.parse::<usize>().ok().map(|n| n * mult)
}

/// Tile sizes derived from a [`CacheGeometry`]; selected once at pool
/// construction ([`crate::ForkJoinPool::tile_policy`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TilePolicy {
    /// The geometry the policy was derived from.
    pub geometry: CacheGeometry,
    /// Cap on the iteration count of one `static` schedule claim; see the
    /// module docs.
    pub static_grain: usize,
}

/// Assumed bytes touched per abstract loop iteration when sizing
/// `static_grain`. The interpreter cannot know a with-loop body's real
/// footprint, so a cache line per iteration is the planning estimate.
const BYTES_PER_ITER_ESTIMATE: usize = 64;

impl TilePolicy {
    /// Derive the policy from a probed geometry.
    pub fn from_geometry(geometry: CacheGeometry) -> Self {
        // Half of L2 per claim: the other half is left for the operands
        // the body reads.
        let static_grain = (geometry.l2_bytes / 2 / BYTES_PER_ITER_ESTIMATE).max(64);
        TilePolicy { geometry, static_grain }
    }

    /// Square tile edge over elements of `elem_bytes` such that three
    /// tiles fit in L1d: an A panel row block, a B panel and a C
    /// accumulation block. Clamped to `[8, 128]` and rounded down to a
    /// multiple of 8.
    pub fn matmul_tile(&self, elem_bytes: usize) -> usize {
        let budget = self.geometry.l1d_bytes / (3 * elem_bytes.max(1));
        let edge = (budget as f64).sqrt() as usize;
        (edge.clamp(8, 128) / 8) * 8
    }
}

impl Default for TilePolicy {
    fn default() -> Self {
        TilePolicy::from_geometry(cache_geometry())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_sysfs_sizes() {
        assert_eq!(parse_cache_size("32K"), Some(32 * 1024));
        assert_eq!(parse_cache_size("1M"), Some(1024 * 1024));
        assert_eq!(parse_cache_size("512"), Some(512));
        assert_eq!(parse_cache_size("x"), None);
    }

    #[test]
    fn tiles_fit_their_budget() {
        for l1 in [16 * 1024, 32 * 1024, 48 * 1024, 128 * 1024] {
            let p = TilePolicy::from_geometry(CacheGeometry {
                l1d_bytes: l1,
                l2_bytes: 8 * l1,
            });
            for elem in [4usize, 8] {
                let t = p.matmul_tile(elem);
                assert!((8..=128).contains(&t) && t.is_multiple_of(8), "tile {t}");
                // Three tiles fit in L1d (up to the clamp floor).
                if t > 8 {
                    assert!(3 * t * t * elem <= l1, "tile {t} overflows L1 {l1}");
                }
            }
        }
    }

    #[test]
    fn static_grain_scales_with_l2() {
        let small = TilePolicy::from_geometry(CacheGeometry {
            l1d_bytes: 32 * 1024,
            l2_bytes: 256 * 1024,
        });
        let big = TilePolicy::from_geometry(CacheGeometry {
            l1d_bytes: 32 * 1024,
            l2_bytes: 1024 * 1024,
        });
        assert_eq!(small.static_grain, 2048);
        assert_eq!(big.static_grain, 8192);
        assert!(TilePolicy::default().static_grain >= 64);
    }

    #[test]
    fn probe_never_panics() {
        let g = cache_geometry();
        assert!(g.l1d_bytes >= 4 * 1024);
        assert!(g.l2_bytes >= g.l1d_bytes);
    }
}
