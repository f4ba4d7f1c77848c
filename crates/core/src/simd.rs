//! Portable explicit-width SIMD lanes for the engine and trainer
//! kernels.
//!
//! Stable Rust has no `std::simd`, and the workspace vendors no SIMD
//! crate, so this module provides the small vector vocabulary the hot
//! loops need as plain structs over fixed-size arrays. Every operation
//! is a straight-line per-lane loop with no early exits — the shape
//! LLVM's auto-vectorizer reliably turns into packed instructions on
//! every x86-64 tier (SSE2 baseline, AVX/AVX-512 when the target
//! allows) and on AArch64 NEON, without any `unsafe` or
//! target-feature dispatch in this crate.
//!
//! # Determinism contract
//!
//! The lane types are used inside kernels that must stay **bit-exact**
//! against their scalar oracles (the per-row `CompiledTree::predict` /
//! `classify`, and the trainer's scalar threshold scan), so every
//! operation is an exactly rounded IEEE-754 scalar operation applied
//! per lane:
//!
//! * [`F64x4::mul_add`] is deliberately **unfused** (`a * b + c`, two
//!   roundings). A hardware FMA would change results relative to the
//!   scalar engine and trainer, and on targets without native FMA it
//!   lowers to a slow libm call; the unfused form is both faster on
//!   the baseline target and bit-identical to the scalar code it
//!   vectorizes.
//! * Comparisons, `min`/`max`, and `sqrt` match the corresponding
//!   scalar `f64` operators exactly (same NaN behavior), so
//!   lane-width comparison masks partition exactly like scalar
//!   branches.
//! * [`F64x4::reduce_add`] sums lanes in ascending lane order — a
//!   fixed association, documented so callers can reason about
//!   reproducibility. The engine kernels avoid horizontal reductions
//!   entirely; only code that has budgeted for reassociation uses it.
//!
//! # Cache blocking
//!
//! The vectorized kernels always run; there is no switch back to a
//! scalar batch path. [`block_rows`] picks their cache-block row count
//! from a small runtime probe of the L2 size, so each kernel's working
//! set stays cache-resident (`CompiledTree::with_block_rows` fixes it
//! per engine for tests).

use std::sync::OnceLock;

/// Four `f64` lanes — the engine's partition and folded-leaf FMA width
/// and the trainer scan's candidate width (two SSE2 registers; one
/// AVX-256 register). Every method is a straight-line loop over the
/// fixed array so the auto-vectorizer can lower it to packed ops.
#[derive(Debug, Clone, Copy, PartialEq)]
#[repr(transparent)]
pub struct F64x4(pub [f64; 4]);

// `add`/`sub`/`mul` intentionally mirror the packed-op names rather
// than implementing the operator traits: the kernels want explicit
// by-value method chains, not operator sugar. The indexed `for k in
// 0..4` loops are the straight-line shape the auto-vectorizer lowers
// to packed ops, so they stay indexed rather than iterator chains.
#[allow(clippy::should_implement_trait, clippy::needless_range_loop)]
impl F64x4 {
    /// Number of lanes.
    pub const LANES: usize = 4;

    /// All lanes set to `v`.
    #[inline(always)]
    pub fn splat(v: f64) -> Self {
        F64x4([v; 4])
    }

    /// Loads the first `LANES` elements of `src`.
    ///
    /// # Panics
    ///
    /// Panics if `src` is shorter than `LANES`.
    #[inline(always)]
    pub fn from_slice(src: &[f64]) -> Self {
        let mut out = [0.0; 4];
        out.copy_from_slice(&src[..4]);
        F64x4(out)
    }

    /// Stores the lanes into the first `LANES` elements of
    /// `dst`.
    ///
    /// # Panics
    ///
    /// Panics if `dst` is shorter than `LANES`.
    #[inline(always)]
    pub fn write_to(self, dst: &mut [f64]) {
        dst[..4].copy_from_slice(&self.0);
    }

    /// Gathers `src[idx[k]]` into lane `k`.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds for `src`.
    #[inline(always)]
    pub fn gather(src: &[f64], idx: &[u32; 4]) -> Self {
        let mut out = [0.0; 4];
        for k in 0..4 {
            out[k] = src[idx[k] as usize];
        }
        F64x4(out)
    }

    /// Lane-wise addition.
    #[inline(always)]
    pub fn add(self, rhs: Self) -> Self {
        let mut out = self.0;
        for k in 0..4 {
            out[k] += rhs.0[k];
        }
        F64x4(out)
    }

    /// Lane-wise subtraction.
    #[inline(always)]
    pub fn sub(self, rhs: Self) -> Self {
        let mut out = self.0;
        for k in 0..4 {
            out[k] -= rhs.0[k];
        }
        F64x4(out)
    }

    /// Lane-wise multiplication.
    #[inline(always)]
    pub fn mul(self, rhs: Self) -> Self {
        let mut out = self.0;
        for k in 0..4 {
            out[k] *= rhs.0[k];
        }
        F64x4(out)
    }

    /// `self * m + a`, **unfused**: the product rounds before the
    /// addition, exactly like the scalar `acc += c * x` chains of the
    /// per-row oracles (see the module docs for why fusing is
    /// deliberately avoided).
    #[inline(always)]
    pub fn mul_add(self, m: Self, a: Self) -> Self {
        let mut out = [0.0; 4];
        for k in 0..4 {
            out[k] = self.0[k] * m.0[k] + a.0[k];
        }
        F64x4(out)
    }

    /// Lane-wise `max` with the scalar `max` NaN semantics
    /// (`NaN.max(x) == x`).
    #[inline(always)]
    pub fn max(self, rhs: Self) -> Self {
        let mut out = [0.0; 4];
        for k in 0..4 {
            out[k] = self.0[k].max(rhs.0[k]);
        }
        F64x4(out)
    }

    /// Lane-wise square root (exactly rounded per IEEE-754,
    /// bit-identical to the scalar `sqrt`).
    #[inline(always)]
    pub fn sqrt(self) -> Self {
        let mut out = [0.0; 4];
        for k in 0..4 {
            out[k] = self.0[k].sqrt();
        }
        F64x4(out)
    }

    /// Lane-width comparison mask: `self > rhs` per lane.
    #[inline(always)]
    pub fn gt(self, rhs: Self) -> [bool; 4] {
        let mut out = [false; 4];
        for k in 0..4 {
            out[k] = self.0[k] > rhs.0[k];
        }
        out
    }

    /// Lane-width comparison mask: `self < rhs` per lane.
    #[inline(always)]
    pub fn lt(self, rhs: Self) -> [bool; 4] {
        let mut out = [false; 4];
        for k in 0..4 {
            out[k] = self.0[k] < rhs.0[k];
        }
        out
    }

    /// Lane-width comparison mask: `self != rhs` per lane
    /// (IEEE inequality, so a NaN lane is always unequal).
    #[inline(always)]
    pub fn ne(self, rhs: Self) -> [bool; 4] {
        let mut out = [false; 4];
        for k in 0..4 {
            out[k] = self.0[k] != rhs.0[k];
        }
        out
    }

    /// Lane-wise select: `if mask[k] { a } else { b }`.
    #[inline(always)]
    pub fn select(mask: [bool; 4], a: Self, b: Self) -> Self {
        let mut out = [0.0; 4];
        for k in 0..4 {
            out[k] = if mask[k] { a.0[k] } else { b.0[k] };
        }
        F64x4(out)
    }

    /// Horizontal sum in **ascending lane order** — a fixed,
    /// documented association (`((l0 + l1) + l2) + …`).
    #[inline(always)]
    pub fn reduce_add(self) -> f64 {
        let mut acc = self.0[0];
        for k in 1..4 {
            acc += self.0[k];
        }
        acc
    }
}

/// Whether the engine and trainer run their vectorized kernels. Always
/// `true`: the lane kernels are the only batch paths, and there is no
/// process-wide switch. Kept so run reports can record the fact.
pub fn simd_enabled() -> bool {
    true
}

/// Default cache-blocking row count for a kernel whose per-row working
/// set is `bytes_per_row` bytes.
///
/// A small runtime probe of the L2 cache
/// size (`/sys/devices/system/cpu/cpu0/cache`, falling back to 1 MiB
/// when unreadable, e.g. on non-Linux hosts) sizes the block so the
/// working set fills at most a quarter of L2 — large enough to
/// amortize the per-node partition recursion to nothing, small enough
/// that every descent level re-sweeps cache-resident data with head
/// room for the columns' and scratch buffers' conflict misses (the
/// quarter, rather than half, measured fastest across the sweep in
/// `DESIGN.md` §10). The result is always a multiple of 8 so full
/// lanes dominate and the scalar tail stays bounded.
pub fn block_rows(bytes_per_row: usize) -> usize {
    let budget = l2_cache_bytes() / 4;
    let rows = budget / bytes_per_row.max(1);
    rows.clamp(512, 8192) & !7
}

/// L2 cache size in bytes, probed once from sysfs (Linux) with a 1 MiB
/// fallback.
fn l2_cache_bytes() -> usize {
    static BYTES: OnceLock<usize> = OnceLock::new();
    *BYTES.get_or_init(|| probe_cache_bytes(2).unwrap_or(1 << 20))
}

/// Reads `/sys/devices/system/cpu/cpu0/cache/index{level}/size`
/// (values like `"2048K"` or `"1M"`).
fn probe_cache_bytes(level: usize) -> Option<usize> {
    let path = format!("/sys/devices/system/cpu/cpu0/cache/index{level}/size");
    parse_cache_size(std::fs::read_to_string(path).ok()?.trim())
}

/// Parses a sysfs cache-size string (`"48K"`, `"2048K"`, `"1M"`).
fn parse_cache_size(s: &str) -> Option<usize> {
    let (digits, unit): (String, String) = (
        s.chars().take_while(|c| c.is_ascii_digit()).collect(),
        s.chars().skip_while(|c| c.is_ascii_digit()).collect(),
    );
    let n: usize = digits.parse().ok()?;
    match unit.trim() {
        "" => Some(n),
        "K" | "k" => Some(n << 10),
        "M" | "m" => Some(n << 20),
        "G" | "g" => Some(n << 30),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splat_load_store_roundtrip() {
        let src = [1.0, 2.0, 3.0, 4.0, 5.0];
        let v = F64x4::from_slice(&src);
        let mut dst = [0.0; 4];
        v.write_to(&mut dst);
        assert_eq!(dst, [1.0, 2.0, 3.0, 4.0]);
        assert_eq!(F64x4::splat(7.5).0, [7.5; 4]);
    }

    #[test]
    fn gather_follows_indices() {
        let src = [10.0, 11.0, 12.0, 13.0, 14.0];
        let v = F64x4::gather(&src, &[4, 0, 2, 2]);
        assert_eq!(v.0, [14.0, 10.0, 12.0, 12.0]);
    }

    #[test]
    fn mul_add_is_unfused() {
        // Pick operands where fused and unfused FMA differ: with
        // a = 1 + 2^-27, a*a = 1 + 2^-26 + 2^-54; the product rounds
        // (2^-54 is below f64 precision at this magnitude) before the
        // subtraction in the unfused form, so a*a - (1 + 2^-26) is
        // exactly 0 unfused but 2^-54 fused.
        let a = 1.0 + (2.0f64).powi(-27);
        let b = -(1.0 + (2.0f64).powi(-26));
        let lanes = F64x4::splat(a).mul_add(F64x4::splat(a), F64x4::splat(b));
        let scalar = a * a + b;
        assert_eq!(lanes.0[0].to_bits(), scalar.to_bits());
        assert_eq!(lanes.0[0], 0.0, "product must round before the add");
    }

    #[test]
    fn arithmetic_matches_scalar_bitwise() {
        let xs = [0.1, -3.75, 1e-300, 2.5e17];
        let ys = [7.25, 0.3, -1e-300, 1.5];
        let x = F64x4(xs);
        let y = F64x4(ys);
        for k in 0..4 {
            assert_eq!(x.add(y).0[k].to_bits(), (xs[k] + ys[k]).to_bits());
            assert_eq!(x.sub(y).0[k].to_bits(), (xs[k] - ys[k]).to_bits());
            assert_eq!(x.mul(y).0[k].to_bits(), (xs[k] * ys[k]).to_bits());
            assert_eq!(
                x.max(F64x4::splat(0.0)).0[k].to_bits(),
                xs[k].max(0.0).to_bits()
            );
            assert_eq!(
                x.max(F64x4::splat(0.0)).sqrt().0[k].to_bits(),
                xs[k].max(0.0).sqrt().to_bits()
            );
        }
    }

    #[test]
    fn masks_and_select() {
        let x = F64x4([1.0, 5.0, f64::NAN, 3.0]);
        let t = F64x4::splat(3.0);
        assert_eq!(x.gt(t), [false, true, false, false]);
        assert_eq!(x.lt(t), [true, false, false, false]);
        assert_eq!(x.ne(x), [false, false, true, false]);
        let sel = F64x4::select(x.gt(t), F64x4::splat(1.0), F64x4::splat(0.0));
        assert_eq!(sel.0, [0.0, 1.0, 0.0, 0.0]);
    }

    #[test]
    fn reduce_add_is_ascending_lane_order() {
        // Association-sensitive operands: ascending-order sum differs
        // from other orders, pinning the documented reduction order.
        let v = F64x4([1e16, 1.0, -1e16, 1.0]);
        let expected: f64 = ((1e16 + 1.0) + -1e16) + 1.0;
        assert_eq!(v.reduce_add().to_bits(), expected.to_bits());
    }

    #[test]
    fn cache_size_parsing() {
        assert_eq!(parse_cache_size("48K"), Some(48 << 10));
        assert_eq!(parse_cache_size("2048K"), Some(2048 << 10));
        assert_eq!(parse_cache_size("1M"), Some(1 << 20));
        assert_eq!(parse_cache_size("512"), Some(512));
        assert_eq!(parse_cache_size("weird"), None);
        assert_eq!(parse_cache_size(""), None);
    }

    #[test]
    fn block_rows_is_clamped_and_lane_aligned() {
        for bytes in [1usize, 8, 100, 1000, 1 << 20] {
            let rows = block_rows(bytes);
            assert!((512..=8192).contains(&rows), "{rows} rows at {bytes} B");
            assert_eq!(rows % 8, 0, "{rows} not a multiple of 8");
        }
        // Heavier rows never get bigger blocks.
        assert!(block_rows(1000) <= block_rows(10));
    }

    #[test]
    fn lane_counts() {
        assert_eq!(F64x4::LANES, 4);
        assert!(simd_enabled());
    }
}
