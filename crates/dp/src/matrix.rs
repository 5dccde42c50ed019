//! Dense matrices over DPM rectangles.

/// A dense `(rows+1) × (cols+1)` score matrix including the input boundary
/// as row 0 and column 0 (the paper's DPM layout, Figure 1).
///
/// Row-major storage; `rows`/`cols` count *residues*, so the matrix has one
/// more row and column than the rectangle has residues.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScoreMatrix {
    rows: usize,
    cols: usize,
    data: Vec<i32>,
}

impl ScoreMatrix {
    /// Allocates a zeroed matrix for an `rows × cols` residue rectangle.
    pub fn new(rows: usize, cols: usize) -> Self {
        ScoreMatrix {
            rows,
            cols,
            data: vec![0; (rows + 1) * (cols + 1)],
        }
    }

    /// Builds a matrix reusing `storage` (resized as needed, contents
    /// overwritten with zeros only where grown). FastLSA recycles one
    /// buffer — the paper's pre-allocated Base Case buffer — across every
    /// base-case solve; see [`ScoreMatrix::into_vec`].
    pub fn from_storage(rows: usize, cols: usize, mut storage: Vec<i32>) -> Self {
        storage.resize((rows + 1) * (cols + 1), 0);
        ScoreMatrix {
            rows,
            cols,
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

    /// Bytes of score storage (for memory accounting).
    pub fn bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<i32>()
    }

    /// Score at `(i, j)`, `0 ≤ i ≤ rows`, `0 ≤ j ≤ cols`.
    #[inline(always)]
    pub fn get(&self, i: usize, j: usize) -> i32 {
        debug_assert!(i <= self.rows && j <= self.cols);
        self.data[i * (self.cols + 1) + j]
    }

    /// Sets the score at `(i, j)`.
    #[inline(always)]
    pub fn set(&mut self, i: usize, j: usize, v: i32) {
        debug_assert!(i <= self.rows && j <= self.cols);
        self.data[i * (self.cols + 1) + j] = v;
    }

    /// Immutable view of score row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> &[i32] {
        let w = self.cols + 1;
        &self.data[i * w..(i + 1) * w]
    }

    /// Mutable view of score row `i`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [i32] {
        let w = self.cols + 1;
        &mut self.data[i * w..(i + 1) * w]
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
        let (a, b) = self.data.split_at_mut(i * w);
        (&a[(i - 1) * w..], &mut b[..w])
    }
}

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

#[cfg(test)]
mod tests {
    use super::*;

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
