//! The metric block width.
//!
//! Gate evaluation runs a whole row per gate (see the row kernel in
//! `kernel.rs`), so no gate loop has a block width. What remains
//! blockwise is the [`nmed`](crate::nmed) kernel, which carries a
//! borrow across the same word range of every primary output: it walks
//! the rows in blocks of [`BLOCK_WORDS`] words, small stack arrays of
//! straight-line bitwise ops that LLVM folds into vector registers.
//!
//! [`SimdWidth`] describes that compile-time width for bench and host
//! records. Its values are kept as they were when the width also
//! shaped the gate kernels, because recorded host descriptions (the
//! flowbench host record among them) carry them.

/// Words per metric block: the inner-loop width of the blockwise NMED
/// kernel.
pub(crate) const BLOCK_WORDS: usize = 8;

/// Description of the compiled block width, for bench and host
/// records. There is one width, so there is one value: `8`, as recorded
/// since the width was introduced. The gate kernels evaluate whole rows
/// and no longer depend on it; the value is kept unchanged so recorded
/// host descriptions stay comparable.
///
/// # Examples
///
/// ```
/// use tdals_sim::SimdWidth;
///
/// assert_eq!(SimdWidth::auto().lanes(), 8);
/// assert_eq!(SimdWidth::auto().cli_name(), "8");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SimdWidth(());

impl SimdWidth {
    /// The compiled width.
    pub const fn auto() -> SimdWidth {
        SimdWidth(())
    }

    /// Number of 64-bit words per block.
    pub const fn lanes(self) -> usize {
        BLOCK_WORDS
    }

    /// Name used in bench JSON (`"8"`).
    pub const fn cli_name(self) -> &'static str {
        "8"
    }
}

// `cli_name` spells the width out; keep it in step with the constant.
const _: () = assert!(BLOCK_WORDS == 8);
