//! The orthogonal list of §3.1.3 / Figure 3: a sparse matrix with two
//! *dependent* dimensions X (across rows) and Y (down columns) — "one
//! traversal along X and another traversal along Y may lead to a common
//! substructure", yet each row and each column is itself a disjoint
//! uniquely-forward chain, which is what licenses parallel row operations.

/// The ADDS declaration this structure realizes (Figure 3).
pub const ADDS_DECL: &str = "
type OrthList [X] [Y]
{
    int data;
    OrthList *across is uniquely forward along X;
    OrthList *back is backward along X;
    OrthList *down is uniquely forward along Y;
    OrthList *up is backward along Y;
};
";

/// Index of a node within the matrix arena.
pub type NodeId = u32;

#[derive(Clone, Debug)]
/// One stored (row, col, value) entry with its four links (Figure 3).
pub struct OrthNode {
    /// Row index.
    pub row: usize,
    /// Column index.
    pub col: usize,
    /// Stored value.
    pub value: f64,
    /// Uniquely forward along X (next entry in the row).
    pub across: Option<NodeId>,
    /// Backward along X.
    pub back: Option<NodeId>,
    /// Uniquely forward along Y (next entry in the column).
    pub down: Option<NodeId>,
    /// Backward along Y.
    pub up: Option<NodeId>,
}

/// Sparse matrix as an orthogonal list: row heads and column heads index
/// into a node arena.
#[derive(Clone, Debug)]
pub struct OrthList {
    /// Number of matrix rows.
    pub rows: usize,
    /// Number of matrix columns.
    pub cols: usize,
    nodes: Vec<OrthNode>,
    row_heads: Vec<Option<NodeId>>,
    col_heads: Vec<Option<NodeId>>,
}

impl OrthList {
    /// An empty rows×cols sparse matrix.
    pub fn new(rows: usize, cols: usize) -> OrthList {
        OrthList {
            rows,
            cols,
            nodes: Vec::new(),
            row_heads: vec![None; rows],
            col_heads: vec![None; cols],
        }
    }

    /// Build from (row, col, value) triplets; later duplicates overwrite.
    pub fn from_triplets(
        rows: usize,
        cols: usize,
        triplets: impl IntoIterator<Item = (usize, usize, f64)>,
    ) -> OrthList {
        let mut m = OrthList::new(rows, cols);
        for (r, c, v) in triplets {
            m.set(r, c, v);
        }
        m
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.nodes.len()
    }

    fn node(&self, id: NodeId) -> &OrthNode {
        &self.nodes[id as usize]
    }

    /// Insert or overwrite entry (r, c). Maintains both the X chain (sorted
    /// by column within the row) and the Y chain (sorted by row within the
    /// column), with back/up links.
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        assert!(r < self.rows && c < self.cols, "({r},{c}) out of bounds");
        // Overwrite if present.
        let mut cur = self.row_heads[r];
        while let Some(id) = cur {
            let n = self.node(id);
            if n.col == c {
                self.nodes[id as usize].value = v;
                return;
            }
            if n.col > c {
                break;
            }
            cur = n.across;
        }
        let id = self.nodes.len() as NodeId;
        self.nodes.push(OrthNode {
            row: r,
            col: c,
            value: v,
            across: None,
            back: None,
            down: None,
            up: None,
        });
        self.link_into_row(r, id);
        self.link_into_col(c, id);
    }

    fn link_into_row(&mut self, r: usize, id: NodeId) {
        let col = self.node(id).col;
        let mut prev: Option<NodeId> = None;
        let mut cur = self.row_heads[r];
        while let Some(x) = cur {
            if self.node(x).col > col {
                break;
            }
            prev = Some(x);
            cur = self.node(x).across;
        }
        self.nodes[id as usize].across = cur;
        self.nodes[id as usize].back = prev;
        if let Some(nx) = cur {
            self.nodes[nx as usize].back = Some(id);
        }
        match prev {
            Some(p) => self.nodes[p as usize].across = Some(id),
            None => self.row_heads[r] = Some(id),
        }
    }

    fn link_into_col(&mut self, c: usize, id: NodeId) {
        let row = self.node(id).row;
        let mut prev: Option<NodeId> = None;
        let mut cur = self.col_heads[c];
        while let Some(x) = cur {
            if self.node(x).row > row {
                break;
            }
            prev = Some(x);
            cur = self.node(x).down;
        }
        self.nodes[id as usize].down = cur;
        self.nodes[id as usize].up = prev;
        if let Some(nx) = cur {
            self.nodes[nx as usize].up = Some(id);
        }
        match prev {
            Some(p) => self.nodes[p as usize].down = Some(id),
            None => self.col_heads[c] = Some(id),
        }
    }

    /// The value at (r, c); 0.0 if unset.
    pub fn get(&self, r: usize, c: usize) -> f64 {
        let mut cur = self.row_heads[r];
        while let Some(id) = cur {
            let n = self.node(id);
            if n.col == c {
                return n.value;
            }
            if n.col > c {
                return 0.0;
            }
            cur = n.across;
        }
        0.0
    }

    /// Entries of row `r` in column order (an X-chain walk).
    pub fn row_iter(&self, r: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let mut cur = self.row_heads[r];
        std::iter::from_fn(move || {
            let id = cur?;
            let n = self.node(id);
            cur = n.across;
            Some((n.col, n.value))
        })
    }

    /// Entries of column `c` in row order (a Y-chain walk).
    pub fn col_iter(&self, c: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let mut cur = self.col_heads[c];
        std::iter::from_fn(move || {
            let id = cur?;
            let n = self.node(id);
            cur = n.down;
            Some((n.row, n.value))
        })
    }

    /// Sparse matrix–vector product: walks each row's X chain.
    pub fn spmv(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols);
        (0..self.rows)
            .map(|r| self.row_iter(r).map(|(c, v)| v * x[c]).sum())
            .collect()
    }

    /// Parallel SpMV: rows are disjoint X chains ("each row is disjoint, so
    /// that parallel traversals of different rows along X will never visit
    /// the same node"), so they can be processed concurrently.
    pub fn spmv_parallel(&self, x: &[f64], threads: usize) -> Vec<f64> {
        assert_eq!(x.len(), self.cols);
        let threads = threads.max(1);
        let mut out = vec![0.0; self.rows];
        let chunks: Vec<(usize, &mut [f64])> = {
            // Static block split of rows.
            let mut rem: &mut [f64] = &mut out;
            let mut start = 0usize;
            let mut v = Vec::new();
            let per = self.rows.div_ceil(threads);
            while !rem.is_empty() {
                let take = per.min(rem.len());
                let (a, b) = rem.split_at_mut(take);
                v.push((start, a));
                start += take;
                rem = b;
            }
            v
        };
        std::thread::scope(|s| {
            for (start, chunk) in chunks {
                s.spawn(move || {
                    for (k, slot) in chunk.iter_mut().enumerate() {
                        *slot = self.row_iter(start + k).map(|(c, v)| v * x[c]).sum();
                    }
                });
            }
        });
        out
    }

    /// Scale every entry of every row — parallel across rows.
    pub fn scale_rows_parallel(&mut self, c: f64, threads: usize) {
        let threads = threads.max(1);
        // Collect each row's node ids (disjoint sets), scale in parallel
        // via per-thread ownership of rows.
        let row_nodes: Vec<Vec<NodeId>> = (0..self.rows)
            .map(|r| {
                let mut ids = Vec::new();
                let mut cur = self.row_heads[r];
                while let Some(id) = cur {
                    ids.push(id);
                    cur = self.node(id).across;
                }
                ids
            })
            .collect();
        // Disjointness of rows ⇒ disjoint id sets; scale sequentially per
        // row but rows in parallel using unsafe-free partitioning: gather
        // (id, new_value) pairs per thread then apply.
        let mut updates: Vec<Vec<(NodeId, f64)>> = Vec::new();
        std::thread::scope(|s| {
            let mut handles = Vec::new();
            for t in 0..threads {
                let row_nodes = &row_nodes;
                let nodes = &self.nodes;
                handles.push(s.spawn(move || {
                    let mut local = Vec::new();
                    let mut r = t;
                    while r < row_nodes.len() {
                        for id in &row_nodes[r] {
                            local.push((*id, nodes[*id as usize].value * c));
                        }
                        r += threads;
                    }
                    local
                }));
            }
            for h in handles {
                updates.push(h.join().expect("scale worker"));
            }
        });
        for batch in updates {
            for (id, v) in batch {
                self.nodes[id as usize].value = v;
            }
        }
    }

    /// Materialize as a dense matrix (tests and references).
    pub fn to_dense(&self) -> Vec<Vec<f64>> {
        let mut d = vec![vec![0.0; self.cols]; self.rows];
        for n in &self.nodes {
            d[n.row][n.col] = n.value;
        }
        d
    }

    /// Run-time shape validation: X chains sorted and disjoint with correct
    /// back links; Y chains sorted with correct up links; unique incoming
    /// along each dimension.
    pub fn validate_shape(&self) -> Result<(), String> {
        let mut across_incoming = vec![0usize; self.nodes.len()];
        let mut down_incoming = vec![0usize; self.nodes.len()];
        for (i, n) in self.nodes.iter().enumerate() {
            if let Some(a) = n.across {
                across_incoming[a as usize] += 1;
                let an = self.node(a);
                if an.row != n.row || an.col <= n.col {
                    return Err(format!("row chain broken at node {i}"));
                }
                if an.back != Some(i as NodeId) {
                    return Err(format!("back link inconsistent at node {i}"));
                }
            }
            if let Some(d) = n.down {
                down_incoming[d as usize] += 1;
                let dn = self.node(d);
                if dn.col != n.col || dn.row <= n.row {
                    return Err(format!("column chain broken at node {i}"));
                }
                if dn.up != Some(i as NodeId) {
                    return Err(format!("up link inconsistent at node {i}"));
                }
            }
        }
        if across_incoming.iter().any(|c| *c > 1) {
            return Err("sharing along X".into());
        }
        if down_incoming.iter().any(|c| *c > 1) {
            return Err("sharing along Y".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> OrthList {
        OrthList::from_triplets(
            3,
            4,
            [
                (0, 0, 1.0),
                (0, 2, 2.0),
                (1, 1, 3.0),
                (2, 0, 4.0),
                (2, 3, 5.0),
                (1, 3, 6.0),
            ],
        )
    }

    #[test]
    fn get_set_and_dense() {
        let m = sample();
        assert_eq!(m.get(0, 0), 1.0);
        assert_eq!(m.get(0, 1), 0.0);
        assert_eq!(m.get(2, 3), 5.0);
        assert_eq!(m.nnz(), 6);
        assert_eq!(
            m.to_dense(),
            vec![
                vec![1.0, 0.0, 2.0, 0.0],
                vec![0.0, 3.0, 0.0, 6.0],
                vec![4.0, 0.0, 0.0, 5.0],
            ]
        );
        m.validate_shape().unwrap();
    }

    #[test]
    fn overwrite_keeps_shape() {
        let mut m = sample();
        m.set(0, 0, 9.0);
        assert_eq!(m.get(0, 0), 9.0);
        assert_eq!(m.nnz(), 6);
        m.validate_shape().unwrap();
    }

    #[test]
    fn insertion_order_does_not_matter() {
        let a = OrthList::from_triplets(2, 2, [(0, 0, 1.0), (0, 1, 2.0), (1, 1, 3.0)]);
        let b = OrthList::from_triplets(2, 2, [(1, 1, 3.0), (0, 1, 2.0), (0, 0, 1.0)]);
        assert_eq!(a.to_dense(), b.to_dense());
        a.validate_shape().unwrap();
        b.validate_shape().unwrap();
    }

    #[test]
    fn row_and_col_iterators_are_sorted() {
        let m = sample();
        let row0: Vec<(usize, f64)> = m.row_iter(0).collect();
        assert_eq!(row0, vec![(0, 1.0), (2, 2.0)]);
        let col3: Vec<(usize, f64)> = m.col_iter(3).collect();
        assert_eq!(col3, vec![(1, 6.0), (2, 5.0)]);
        let col0: Vec<(usize, f64)> = m.col_iter(0).collect();
        assert_eq!(col0, vec![(0, 1.0), (2, 4.0)]);
    }

    #[test]
    fn dependent_dimensions_share_nodes() {
        // The same node is reachable along X (row walk) and Y (column
        // walk) — the dependence the paper's Figure 3 discussion uses.
        let m = sample();
        let via_row: Vec<(usize, f64)> = m.row_iter(2).collect();
        let via_col: Vec<(usize, f64)> = m.col_iter(0).collect();
        assert!(via_row.contains(&(0, 4.0)));
        assert!(via_col.contains(&(2, 4.0)));
    }

    #[test]
    fn spmv_matches_dense() {
        let m = sample();
        let x = vec![1.0, 2.0, 3.0, 4.0];
        let y = m.spmv(&x);
        assert_eq!(y, vec![1.0 + 6.0, 6.0 + 24.0, 4.0 + 20.0]);
    }

    #[test]
    fn spmv_parallel_matches_sequential() {
        let n = 50;
        let m = OrthList::from_triplets(
            n,
            n,
            (0..n).flat_map(|i| [(i, i, 2.0), (i, (i + 1) % n, -1.0), (i, (i + 7) % n, 0.5)]),
        );
        let x: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let seq = m.spmv(&x);
        for threads in [1, 2, 4, 7] {
            let par = m.spmv_parallel(&x, threads);
            for (a, b) in seq.iter().zip(&par) {
                assert!((a - b).abs() < 1e-12, "threads={threads}");
            }
        }
    }

    #[test]
    fn scale_rows_parallel_scales_everything() {
        let mut m = sample();
        m.scale_rows_parallel(10.0, 3);
        assert_eq!(m.get(0, 0), 10.0);
        assert_eq!(m.get(2, 3), 50.0);
        m.validate_shape().unwrap();
    }

    #[test]
    fn adds_decl_is_well_formed() {
        let prog = adds_lang::parse_program(ADDS_DECL).unwrap();
        let env = adds_lang::AddsEnv::build(&prog).unwrap();
        let t = env.get("OrthList").unwrap();
        assert!(t.is_uniquely_forward("across"));
        assert!(t.is_uniquely_forward("down"));
        assert!(t.opposite_pair("across", "back"));
        assert!(t.opposite_pair("down", "up"));
        // X and Y are dependent (no `where` clause).
        assert!(!t.dims_independent(0, 1));
    }

    #[test]
    fn empty_matrix() {
        let m = OrthList::new(3, 3);
        assert_eq!(m.nnz(), 0);
        assert_eq!(m.spmv(&[1.0, 1.0, 1.0]), vec![0.0, 0.0, 0.0]);
        m.validate_shape().unwrap();
    }
}
