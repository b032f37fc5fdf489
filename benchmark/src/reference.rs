//! The benchmark's own f64 reference: direct convolution, max-pool,
//! concat and ReLU, and a graph walk over them.
//!
//! Nothing here calls an engine under test. The walk reads a
//! `ComputeGraph` as data (topology, descriptors, weights) and keeps
//! every activation in f64 from the network input to its output, so
//! the engines' per-layer f32 rounding shows up as error against it.

use std::rc::Rc;

use wino_graph::{ComputeGraph, NodeId, Op};
use wino_tensor::{ConvDesc, Tensor4};

/// Outputs may differ from the reference by this share of the
/// reference's largest magnitude (relative L∞).
pub const TOLERANCE: f64 = 1e-3;

/// One batch-1 activation `(c, h, w)` in f64.
pub struct Act {
    pub c: usize,
    pub h: usize,
    pub w: usize,
    pub data: Vec<f64>,
}

fn act(c: usize, h: usize, w: usize, data: Vec<f64>) -> Act {
    Act { c, h, w, data }
}

/// One output element of a convolution, accumulated in f64.
pub fn conv_point(
    input: &Tensor4<f32>,
    weights: &Tensor4<f32>,
    d: &ConvDesc,
    (n, k, y, x): (usize, usize, usize, usize),
) -> f64 {
    let mut acc = 0.0f64;
    for c in 0..d.in_ch {
        for dy in 0..d.ksz {
            let iy = y * d.stride + dy;
            if iy < d.pad || iy - d.pad >= d.in_h {
                continue;
            }
            for dx in 0..d.ksz {
                let ix = x * d.stride + dx;
                if ix < d.pad || ix - d.pad >= d.in_w {
                    continue;
                }
                acc += f64::from(input[(n, c, iy - d.pad, ix - d.pad)])
                    * f64::from(weights[(k, c, dy, dx)]);
            }
        }
    }
    acc
}

/// Accumulates output plane `k` of a convolution. Row-wise axpy keeps
/// the inner loop contiguous for unit stride.
fn conv_plane(a: &Act, weights: &Tensor4<f32>, d: &ConvDesc, k: usize, plane: &mut [f64]) {
    let (oh, ow, s, pad) = (d.out_h(), d.out_w(), d.stride, d.pad);
    for c in 0..d.in_ch {
        let src = &a.data[c * a.h * a.w..(c + 1) * a.h * a.w];
        for dy in 0..d.ksz {
            for dx in 0..d.ksz {
                let wt = f64::from(weights[(k, c, dy, dx)]);
                // Output columns whose input column x·s + dx − pad is in range.
                let x0 = pad.saturating_sub(dx).div_ceil(s);
                let x1 = ow.min((a.w + pad - dx).div_ceil(s));
                for y in 0..oh {
                    let iy = y * s + dy;
                    if iy < pad || iy - pad >= a.h || x0 >= x1 {
                        continue;
                    }
                    let row = &src[(iy - pad) * a.w..(iy - pad + 1) * a.w];
                    let dst = &mut plane[y * ow + x0..y * ow + x1];
                    if s == 1 {
                        let off = x0 + dx - pad;
                        for (o, i) in dst.iter_mut().zip(&row[off..off + x1 - x0]) {
                            *o += wt * i;
                        }
                    } else {
                        for (j, o) in dst.iter_mut().enumerate() {
                            *o += wt * row[(x0 + j) * s + dx - pad];
                        }
                    }
                }
            }
        }
    }
}

/// Full convolution of one activation, output planes split over the
/// machine's cores (the reference is computed outside every timed
/// window, so it may use them all).
pub fn conv(a: &Act, weights: &Tensor4<f32>, d: &ConvDesc, relu: bool) -> Act {
    assert_eq!((a.c, a.h, a.w), (d.in_ch, d.in_h, d.in_w), "conv input");
    let (oh, ow) = (d.out_h(), d.out_w());
    let mut data = vec![0.0f64; d.out_ch * oh * ow];
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    let per = d.out_ch.div_ceil(threads);
    std::thread::scope(|scope| {
        for (t, planes) in data.chunks_mut(per * oh * ow).enumerate() {
            scope.spawn(move || {
                for (j, plane) in planes.chunks_mut(oh * ow).enumerate() {
                    conv_plane(a, weights, d, t * per + j, plane);
                    if relu {
                        plane.iter_mut().for_each(|v| *v = v.max(0.0));
                    }
                }
            });
        }
    });
    act(d.out_ch, oh, ow, data)
}

pub fn max_pool(a: &Act, k: usize, s: usize) -> Act {
    let (oh, ow) = ((a.h - k) / s + 1, (a.w - k) / s + 1);
    let mut data = Vec::with_capacity(a.c * oh * ow);
    for c in 0..a.c {
        for y in 0..oh {
            for x in 0..ow {
                let at = |i: usize| a.data[(c * a.h + y * s + i / k) * a.w + x * s + i % k];
                data.push((0..k * k).map(at).fold(f64::NEG_INFINITY, f64::max));
            }
        }
    }
    act(a.c, oh, ow, data)
}

pub fn concat(parts: &[Rc<Act>]) -> Act {
    let data = parts.iter().flat_map(|p| p.data.iter().copied()).collect();
    let channels = parts.iter().map(|p| p.c).sum();
    act(channels, parts[0].h, parts[0].w, data)
}

pub fn relu(a: &Act) -> Act {
    act(a.c, a.h, a.w, a.data.iter().map(|v| v.max(0.0)).collect())
}

/// Walks `graph` on a batch-1 `input` and returns the last node's
/// value — the output `wino-exec` compiles for.
pub fn graph_walk(graph: &ComputeGraph, input: &Tensor4<f32>) -> Rc<Act> {
    assert_eq!(input.n(), 1, "the reference walk is batch 1");
    let widened = input.data().iter().map(|&v| f64::from(v)).collect();
    let external = Rc::new(act(input.c(), input.h(), input.w(), widened));
    let mut values: Vec<Rc<Act>> = Vec::with_capacity(graph.len());
    for i in 0..graph.len() {
        let node = graph.node(NodeId(i));
        let src = |j: usize| Rc::clone(&values[node.inputs[j].0]);
        let value = match &node.op {
            // A fused ReLU leaves a pass-through node behind.
            Op::Input if node.inputs.is_empty() => Rc::clone(&external),
            Op::Input => src(0),
            Op::Conv { desc, fused_relu } => {
                let weights = graph
                    .weights(NodeId(i))
                    .expect("registered convs have weights");
                Rc::new(conv(&src(0), weights, desc, *fused_relu))
            }
            Op::Relu => Rc::new(relu(&src(0))),
            Op::MaxPool { k, s } => Rc::new(max_pool(&src(0), *k, *s)),
            Op::Concat => Rc::new(concat(&(0..node.inputs.len()).map(src).collect::<Vec<_>>())),
        };
        values.push(value);
    }
    values.pop().expect("a registered graph is never empty")
}

/// Largest `|out − reference|` over the reference's largest magnitude.
pub fn rel_linf(out: &[f32], reference: &[f64]) -> f64 {
    // `f64::max` drops NaN, so non-finite outputs are caught up front.
    if out.len() != reference.len() || out.iter().any(|o| !o.is_finite()) {
        return f64::INFINITY;
    }
    let scale = reference.iter().fold(0.0f64, |m, v| m.max(v.abs()));
    let worst = out
        .iter()
        .zip(reference)
        .fold(0.0f64, |m, (&o, r)| m.max((f64::from(o) - r).abs()));
    worst / if scale > 0.0 { scale } else { 1.0 }
}
