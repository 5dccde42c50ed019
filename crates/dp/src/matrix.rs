//! Dense matrices over DPM rectangles.

/// `i32` entries per 64-byte cache line: the row alignment unit of a
/// lined [`ScoreMatrix`].
const LINE: usize = 16;

/// A `(rows+1) × (cols+1)` score matrix including the input boundary as
/// row 0 and column 0 (the paper's DPM layout, Figure 1).
///
/// Row-major storage; `rows`/`cols` count *residues*, so the matrix has one
/// more row and column than the rectangle has residues. Rows sit a fixed
/// *pitch* apart: [`ScoreMatrix::from_storage`] packs them densely
/// (`cols + 1` entries), while the lined layout of the affine full fills
/// ([`ScoreMatrix::lined_len`] entries) pads each row to a multiple of 16
/// entries and offsets the first so that column 1 of every row opens a
/// 64-byte cache line. Padding is never read, and two matrices compare
/// equal when their shapes and cells agree, whatever their pitch.
#[derive(Debug, Clone)]
pub struct ScoreMatrix {
    rows: usize,
    cols: usize,
    /// Entries from the start of one row to the start of the next.
    pitch: usize,
    /// Index of entry `(0, 0)` in `data`.
    off: usize,
    data: Vec<i32>,
}

impl ScoreMatrix {
    /// Allocates a zeroed, dense matrix for an `rows × cols` residue
    /// rectangle.
    pub fn new(rows: usize, cols: usize) -> Self {
        ScoreMatrix::from_storage(rows, cols, vec![0; (rows + 1) * (cols + 1)])
    }

    /// Builds a dense matrix reusing `storage` (resized to exactly
    /// `(rows + 1) · (cols + 1)` entries, contents overwritten with zeros
    /// only where grown). FastLSA recycles one buffer — the paper's
    /// pre-allocated Base Case buffer — across every base-case solve; see
    /// [`ScoreMatrix::into_vec`].
    pub fn from_storage(rows: usize, cols: usize, mut storage: Vec<i32>) -> Self {
        storage.resize((rows + 1) * (cols + 1), 0);
        ScoreMatrix {
            rows,
            cols,
            pitch: cols + 1,
            off: 0,
            data: storage,
        }
    }

    /// Storage entries of a lined `rows × cols` matrix: `rows + 1` rows of
    /// `cols + 1` entries rounded up to a multiple of 16 (at most 15
    /// padding entries each), plus up to 15 entries before the first row
    /// to line it up.
    pub fn lined_len(rows: usize, cols: usize) -> usize {
        (rows + 1) * (cols + 1).next_multiple_of(LINE) + (LINE - 1)
    }

    /// [`ScoreMatrix::from_storage`] with lined rows: `storage` is resized
    /// to exactly [`ScoreMatrix::lined_len`] entries, every row is padded
    /// to a multiple of 16 entries, and row 0 starts where column 1 of
    /// every row opens a 64-byte line, so sixteen-lane row fills load and
    /// store whole lines. Size `storage` beforehand to keep the buffer
    /// from moving.
    pub(crate) fn lined_from_storage(rows: usize, cols: usize, mut storage: Vec<i32>) -> Self {
        storage.resize(ScoreMatrix::lined_len(rows, cols), 0);
        // Taken after the resize, which may have moved the buffer.
        let off = storage
            .as_ptr()
            .wrapping_add(1)
            .align_offset(LINE * std::mem::size_of::<i32>())
            .min(LINE - 1);
        ScoreMatrix {
            rows,
            cols,
            pitch: (cols + 1).next_multiple_of(LINE),
            off,
            data: storage,
        }
    }

    /// Consumes the matrix, returning its storage for reuse.
    pub fn into_vec(self) -> Vec<i32> {
        self.data
    }

    /// Residue rows (matrix has `rows + 1` score rows).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Residue columns (matrix has `cols + 1` score columns).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Bytes of score storage, padding included (for memory accounting).
    pub fn bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<i32>()
    }

    /// Index of `(i, j)` in the storage.
    #[inline(always)]
    fn index(&self, i: usize, j: usize) -> usize {
        debug_assert!(i <= self.rows && j <= self.cols);
        self.off + i * self.pitch + j
    }

    /// Score at `(i, j)`, `0 ≤ i ≤ rows`, `0 ≤ j ≤ cols`.
    #[inline(always)]
    pub fn get(&self, i: usize, j: usize) -> i32 {
        self.data[self.index(i, j)]
    }

    /// Sets the score at `(i, j)`.
    #[inline(always)]
    pub fn set(&mut self, i: usize, j: usize, v: i32) {
        let at = self.index(i, j);
        self.data[at] = v;
    }

    /// Immutable view of score row `i` (`cols + 1` entries).
    #[inline]
    pub fn row(&self, i: usize) -> &[i32] {
        let start = self.index(i, 0);
        &self.data[start..start + self.cols + 1]
    }

    /// Mutable view of score row `i` (`cols + 1` entries).
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [i32] {
        let start = self.index(i, 0);
        &mut self.data[start..start + self.cols + 1]
    }

    /// Copies score column `j` out (columns are strided, so this allocates).
    pub fn col(&self, j: usize) -> Vec<i32> {
        (0..=self.rows).map(|i| self.get(i, j)).collect()
    }

    /// Two rows at once, `i0 < i1`, the first immutable and the second
    /// mutable — the DP fill's access pattern (read row above, write row
    /// below) without cloning.
    #[inline]
    pub fn rows_prev_cur(&mut self, i: usize) -> (&[i32], &mut [i32]) {
        debug_assert!(i >= 1 && i <= self.rows);
        let w = self.cols + 1;
        let start = self.index(i, 0);
        let (a, b) = self.data.split_at_mut(start);
        (&a[start - self.pitch..][..w], &mut b[..w])
    }
}

impl PartialEq for ScoreMatrix {
    /// Same shape and every cell equal; pitch, offset and padding are
    /// layout, not content.
    fn eq(&self, other: &Self) -> bool {
        self.rows == other.rows
            && self.cols == other.cols
            && (0..=self.rows).all(|i| self.row(i) == other.row(i))
    }
}

impl Eq for ScoreMatrix {}

/// Traceback direction of one DPM entry.
///
/// The paper (Section 2.1) notes an FM implementation can store the
/// backward path in 2 bits per entry when only a single optimal path is
/// needed; [`DirMatrix`] is that representation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Dir {
    /// Predecessor is `(i-1, j-1)` (match/mismatch).
    Diag = 0,
    /// Predecessor is `(i-1, j)` (gap in the horizontal sequence).
    Up = 1,
    /// Predecessor is `(i, j-1)` (gap in the vertical sequence).
    Left = 2,
    /// No predecessor (boundary cells / Smith-Waterman local start).
    Stop = 3,
}

impl Dir {
    fn from_bits(b: u8) -> Dir {
        match b & 3 {
            0 => Dir::Diag,
            1 => Dir::Up,
            2 => Dir::Left,
            _ => Dir::Stop,
        }
    }
}

/// A packed 2-bit-per-entry direction matrix over a `(rows+1) × (cols+1)`
/// DPM (¼ byte per entry vs 4 bytes for scores — the paper's memory
/// argument for direction-based FM traceback).
#[derive(Debug, Clone)]
pub struct DirMatrix {
    rows: usize,
    cols: usize,
    bits: Vec<u8>,
}

impl DirMatrix {
    /// Allocates a direction matrix initialized to [`Dir::Stop`].
    pub fn new(rows: usize, cols: usize) -> Self {
        let entries = (rows + 1) * (cols + 1);
        DirMatrix {
            rows,
            cols,
            bits: vec![0xFF; entries.div_ceil(4)],
        }
    }

    /// Residue rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Residue columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Bytes of packed storage (for memory accounting).
    pub fn bytes(&self) -> usize {
        self.bits.len()
    }

    #[inline(always)]
    fn index(&self, i: usize, j: usize) -> (usize, u32) {
        debug_assert!(i <= self.rows && j <= self.cols);
        let linear = i * (self.cols + 1) + j;
        (linear / 4, (linear % 4) as u32 * 2)
    }

    /// Direction at `(i, j)`.
    #[inline(always)]
    pub fn get(&self, i: usize, j: usize) -> Dir {
        let (byte, shift) = self.index(i, j);
        Dir::from_bits(self.bits[byte] >> shift)
    }

    /// Sets the direction at `(i, j)`.
    #[inline(always)]
    pub fn set(&mut self, i: usize, j: usize, d: Dir) {
        let (byte, shift) = self.index(i, j);
        self.bits[byte] = (self.bits[byte] & !(3 << shift)) | ((d as u8) << shift);
    }
}

/// Rows per band of [`TraceCodes`]: one row per byte lane of a 512-bit
/// vector, as the byte band sweeps them.
const CODE_BAND: usize = 64;

/// A base case's traceback codes as the AVX-512 byte band stores them
/// while it fills a `rows × cols` rectangle: 2 bits a cell instead of a
/// score, in two 64-bit masks per band step.
///
/// Band `k` covers rows `64k + 1 ..= 64k + 64`, one per lane, and takes
/// `cols + 63` steps; cell `(i, j)` is lane `(i − 1) mod 64` at step
/// `j − 1 + lane`. The word pair for band `k`, step `s` sits at word
/// `2·(k·(cols + 63) + s)`: its first word has the lane set when the cell
/// came from its diagonal, the second when it came from above (see
/// `x86::ByteBand::byte_step`). The words live little-endian in `i32`
/// storage (the Base Case buffer), two entries a word. Lanes outside the
/// rectangle hold garbage, which no traceback reads.
#[derive(Debug, Clone)]
pub struct TraceCodes {
    rows: usize,
    cols: usize,
    words: Vec<i32>,
}

impl TraceCodes {
    /// `i32` entries the codes of a `rows × cols` rectangle take:
    /// `⌈rows/64⌉·(cols + 63)` steps of two 64-bit words. Fewer than the
    /// `(rows + 1)·(cols + 1)` of its score matrix whenever `rows ≥ 48`
    /// and `cols ≥ 16`, the smallest block the byte band codes.
    pub(crate) fn storage_len(rows: usize, cols: usize) -> usize {
        rows.div_ceil(CODE_BAND) * (cols + CODE_BAND - 1) * 4
    }

    /// Wraps `storage`, resized to [`TraceCodes::storage_len`] entries,
    /// as the codes of a `rows × cols` rectangle.
    pub(crate) fn from_storage(rows: usize, cols: usize, mut storage: Vec<i32>) -> Self {
        storage.resize(TraceCodes::storage_len(rows, cols), 0);
        TraceCodes {
            rows,
            cols,
            words: storage,
        }
    }

    /// Consumes the codes, returning their storage for reuse.
    pub(crate) fn into_vec(self) -> Vec<i32> {
        self.words
    }

    /// Residue rows.
    pub(crate) fn rows(&self) -> usize {
        self.rows
    }

    /// Residue columns.
    pub(crate) fn cols(&self) -> usize {
        self.cols
    }

    /// The move into interior cell `(i, j)`, `1 ≤ i ≤ rows`,
    /// `1 ≤ j ≤ cols`, under the tie order Diag ≻ Up ≻ Left.
    #[inline]
    pub(crate) fn dir(&self, i: usize, j: usize) -> Dir {
        let lane = (i - 1) % CODE_BAND;
        let step = (i - 1) / CODE_BAND * (self.cols + CODE_BAND - 1) + j - 1 + lane;
        // Entry `4·step` starts the Diag word, `4·step + 2` the Up word;
        // lanes 32–63 sit in each word's high entry.
        let at = 4 * step + lane / 32;
        let bit = 1i32 << (lane % 32);
        if self.words[at] & bit != 0 {
            Dir::Diag
        } else if self.words[at + 2] & bit != 0 {
            Dir::Up
        } else {
            Dir::Left
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_codes_fit_the_score_matrix_of_every_coded_block() {
        // The byte band codes blocks of at least 48 rows and 16 columns;
        // the Base Case buffer is sized for their score matrices.
        for rows in 48..=600 {
            for cols in (16..=400).chain([1_000, 4_000]) {
                assert!(
                    TraceCodes::storage_len(rows, cols) < (rows + 1) * (cols + 1),
                    "{rows}x{cols}"
                );
            }
        }
        assert_eq!(TraceCodes::storage_len(64, 1), 64 * 4);
        assert_eq!(TraceCodes::storage_len(65, 1), 2 * 64 * 4);
    }

    #[test]
    fn score_matrix_get_set_round_trip() {
        let mut m = ScoreMatrix::new(3, 5);
        m.set(0, 0, 7);
        m.set(3, 5, -42);
        m.set(2, 4, 13);
        assert_eq!(m.get(0, 0), 7);
        assert_eq!(m.get(3, 5), -42);
        assert_eq!(m.get(2, 4), 13);
    }

    #[test]
    fn rows_prev_cur_exposes_adjacent_rows() {
        let mut m = ScoreMatrix::new(2, 2);
        m.set(0, 1, 5);
        {
            let (prev, cur) = m.rows_prev_cur(1);
            assert_eq!(prev[1], 5);
            cur[2] = 9;
        }
        assert_eq!(m.get(1, 2), 9);
    }

    #[test]
    fn col_extracts_strided_column() {
        let mut m = ScoreMatrix::new(2, 3);
        m.set(0, 2, 1);
        m.set(1, 2, 2);
        m.set(2, 2, 3);
        assert_eq!(m.col(2), vec![1, 2, 3]);
    }

    #[test]
    fn bytes_counts_full_matrix() {
        let m = ScoreMatrix::new(9, 9);
        assert_eq!(m.bytes(), 100 * 4);
        let lined = ScoreMatrix::lined_from_storage(9, 9, Vec::new());
        assert_eq!(ScoreMatrix::lined_len(9, 9), 10 * 16 + 15);
        assert_eq!(lined.bytes(), ScoreMatrix::lined_len(9, 9) * 4);
    }

    #[test]
    fn lined_rows_open_a_cache_line_at_column_one() {
        // Storage left by a wider and by a narrower matrix: the pitch and
        // the offset both change with the shape and the buffer's address.
        let mut storage = Vec::new();
        for (rows, cols) in [(3, 40), (5, 17), (2, 1), (4, 15), (1, 16)] {
            let mut m = ScoreMatrix::lined_from_storage(rows, cols, storage);
            for i in 0..=rows {
                let row = m.row_mut(i);
                assert_eq!(row.len(), cols + 1);
                assert_eq!(row[1..].as_ptr() as usize % 64, 0, "{rows}x{cols} row {i}");
                row.fill(i as i32);
            }
            for i in 1..=rows {
                let (prev, cur) = m.rows_prev_cur(i);
                assert!(prev.iter().all(|&v| v == i as i32 - 1));
                assert!(cur.iter().all(|&v| v == i as i32));
            }
            assert_eq!(m.col(cols), (0..=rows as i32).collect::<Vec<_>>());
            storage = m.into_vec();
        }
    }

    #[test]
    fn equality_compares_cells_not_layout() {
        let (rows, cols) = (4, 21);
        let mut dense = ScoreMatrix::new(rows, cols);
        // Poisoned storage: the padding holds values no cell has.
        let mut lined = ScoreMatrix::lined_from_storage(rows, cols, vec![-7; 1000]);
        for i in 0..=rows {
            for j in 0..=cols {
                dense.set(i, j, (i * 31 + j) as i32);
                lined.set(i, j, (i * 31 + j) as i32);
            }
        }
        assert_eq!(dense, lined);
        assert_eq!(lined, dense);
        lined.set(3, 20, 0);
        assert_ne!(dense, lined);
        assert_ne!(ScoreMatrix::new(2, 3), ScoreMatrix::new(3, 2));
    }

    #[test]
    fn dir_matrix_round_trips_all_values() {
        let mut d = DirMatrix::new(4, 4);
        // Every cell starts as Stop.
        assert_eq!(d.get(2, 2), Dir::Stop);
        let dirs = [Dir::Diag, Dir::Up, Dir::Left, Dir::Stop];
        for i in 0..=4 {
            for j in 0..=4 {
                d.set(i, j, dirs[(i * 5 + j) % 4]);
            }
        }
        for i in 0..=4 {
            for j in 0..=4 {
                assert_eq!(d.get(i, j), dirs[(i * 5 + j) % 4], "at ({i},{j})");
            }
        }
    }

    #[test]
    fn dir_matrix_is_quarter_byte_per_entry() {
        let d = DirMatrix::new(99, 99);
        assert_eq!(d.bytes(), (100 * 100usize).div_ceil(4));
    }
}
