//! The Winograd output stage's write geometry, exported as data.
//!
//! The output stage transforms [`LANES`] `(k, p)` pairs at a time —
//! filter `k`, tile `p`, pair `q = k·P + p` with `P` tiles per filter —
//! and stores each lane's `m × m` tile, clipped to the plane, into the
//! NCHW output. [`ScatterMap`] is that lane-group → row-segment map. The
//! engine's store walks it, and `wino-verify`'s index analysis proves
//! over the same map that the segments cover every output element
//! exactly once and stay in bounds, which is what lets the engine write
//! its output without zero-filling it first.

use std::ops::Range;

use wino_tensor::tile_counts;

use crate::compiled::LANES;

/// Where one lane's output tile lands: `rows` row segments of `cols`
/// floats, the first at `origin`, each next one a plane row
/// ([`ScatterMap::row_stride`]) further on. A lane with no pair has
/// `rows = cols = 0`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TileSpan {
    /// Output offset of the tile's top-left element.
    pub origin: usize,
    /// Rows of the tile inside the plane (`m`, fewer on the last tile row).
    pub rows: usize,
    /// Columns of the tile inside the plane (`m`, fewer on the last tile
    /// column).
    pub cols: usize,
}

impl TileSpan {
    /// Row segment `dy < rows` as a range of the output.
    pub fn row(&self, dy: usize, row_stride: usize) -> Range<usize> {
        let start = self.origin + dy * row_stride;
        start..start + self.cols
    }
}

/// One lane group's spans: lane `l < count` holds pair `q0 + l`.
#[derive(Clone, Copy, Debug)]
pub struct LaneGroup {
    /// Per-lane spans; the ones past `count` are empty.
    pub spans: [TileSpan; LANES],
    /// Lanes that hold a pair (`LANES` but for the last group).
    pub count: usize,
}

/// The output stage's lane groups for `batch` images of `out_ch`
/// `oh × ow` planes under output tile `m`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ScatterMap {
    m: usize,
    batch: usize,
    out_ch: usize,
    oh: usize,
    ow: usize,
    th: usize,
    tw: usize,
}

impl ScatterMap {
    /// The map of one convolution's output.
    pub fn new(batch: usize, out_ch: usize, oh: usize, ow: usize, m: usize) -> Self {
        let (th, tw) = tile_counts(oh, ow, m);
        ScatterMap {
            m,
            batch,
            out_ch,
            oh,
            ow,
            th,
            tw,
        }
    }

    /// Output tile side `m`.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Floats between consecutive rows of a plane (`ow`).
    pub fn row_stride(&self) -> usize {
        self.ow
    }

    /// Tiles per filter, `P = batch · th · tw`.
    pub fn tiles(&self) -> usize {
        self.batch * self.th * self.tw
    }

    /// `(k, p)` pairs, `K · P`.
    pub fn pairs(&self) -> usize {
        self.out_ch * self.tiles()
    }

    /// Lane groups, `⌈K · P / LANES⌉`.
    pub fn groups(&self) -> usize {
        self.pairs().div_ceil(LANES)
    }

    /// Elements of the output, `batch · K · oh · ow`.
    pub fn out_len(&self) -> usize {
        self.batch * self.out_ch * self.oh * self.ow
    }

    /// The spans of group `g`: the pair of its first lane is decomposed
    /// once, and each later lane steps `(k, n, ty, tx)` forward from it.
    pub fn group(&self, g: usize) -> LaneGroup {
        let (m, oh, ow) = (self.m, self.oh, self.ow);
        let q0 = g * LANES;
        let count = LANES.min(self.pairs().saturating_sub(q0));
        let per_image = self.th * self.tw;
        let mut spans = [TileSpan::default(); LANES];
        if count == 0 {
            return LaneGroup { spans, count };
        }
        let (mut k, p) = (q0 / self.tiles(), q0 % self.tiles());
        let (mut n, mut ty, mut tx) = (p / per_image, p % per_image / self.tw, p % self.tw);
        for span in &mut spans[..count] {
            *span = TileSpan {
                origin: ((n * self.out_ch + k) * oh + ty * m) * ow + tx * m,
                rows: m.min(oh - ty * m),
                cols: m.min(ow - tx * m),
            };
            tx += 1;
            if tx == self.tw {
                (tx, ty) = (0, ty + 1);
                if ty == self.th {
                    (ty, n) = (0, n + 1);
                    if n == self.batch {
                        (n, k) = (0, k + 1);
                    }
                }
            }
        }
        LaneGroup { spans, count }
    }
}
