//! The compute graph: Boda's front-end representation (§3, Figure 2).
//!
//! A ConvNet model parses into a DAG of tensor operations; the
//! framework runs graph-level optimization (here: ReLU fusion into the
//! preceding convolution) and then executes each node with the engine
//! the variant selector picked for it.

use std::collections::HashMap;
use std::fmt;

use wino_conv::{conv_direct_f32, conv_im2col, conv_winograd, ConvError, WinogradConfig};
use wino_tensor::{ConvDesc, Tensor4};

/// Node identifier within one graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

/// Which engine executes a convolution node.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum EngineChoice {
    /// Direct convolution.
    Direct,
    /// im2col + GEMM.
    Im2col,
    /// Winograd with the given configuration.
    Winograd(WinogradConfig),
}

/// A graph operation.
#[derive(Clone, Debug)]
pub enum Op {
    /// External input tensor.
    Input,
    /// 2-D convolution. Weights are attached via
    /// [`ComputeGraph::set_weights`]; `fused_relu` is set by the
    /// graph-level optimizer.
    Conv {
        /// Shape descriptor (batch inferred at run time).
        desc: ConvDesc,
        /// Apply `max(x, 0)` to the output in the same pass.
        fused_relu: bool,
    },
    /// Rectified linear unit.
    Relu,
    /// Max pooling with square window `k` and stride `s`.
    MaxPool {
        /// Window size.
        k: usize,
        /// Stride.
        s: usize,
    },
    /// Channel-wise concatenation of all inputs (the join of an
    /// Inception module's branches).
    Concat,
}

/// One node: an operation and its input edges.
#[derive(Clone, Debug)]
pub struct Node {
    /// The operation.
    pub op: Op,
    /// Producer nodes (all current ops take 0 or 1 inputs).
    pub inputs: Vec<NodeId>,
}

/// Errors from graph construction and execution.
#[derive(Clone, Debug, PartialEq)]
pub enum GraphError {
    /// A node referenced an id that does not exist (or a later node).
    BadEdge(String),
    /// A convolution has no weights attached.
    MissingWeights(NodeId),
    /// Shapes do not line up at execution time.
    Shape(String),
    /// Engine failure.
    Conv(ConvError),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::BadEdge(msg) => write!(f, "bad edge: {msg}"),
            GraphError::MissingWeights(id) => write!(f, "conv node {id:?} has no weights"),
            GraphError::Shape(msg) => write!(f, "shape error: {msg}"),
            GraphError::Conv(e) => write!(f, "engine error: {e}"),
        }
    }
}

impl std::error::Error for GraphError {}

impl From<ConvError> for GraphError {
    fn from(e: ConvError) -> Self {
        GraphError::Conv(e)
    }
}

/// A ConvNet compute graph with attached weights and per-conv engine
/// choices.
#[derive(Clone, Default)]
pub struct ComputeGraph {
    nodes: Vec<Node>,
    weights: HashMap<NodeId, Tensor4<f32>>,
    engines: HashMap<NodeId, EngineChoice>,
}

impl ComputeGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an input node.
    pub fn add_input(&mut self) -> NodeId {
        self.push(Node {
            op: Op::Input,
            inputs: vec![],
        })
    }

    /// Adds a convolution node consuming `input`.
    ///
    /// # Errors
    /// [`GraphError::BadEdge`] on a dangling input reference.
    pub fn add_conv(&mut self, input: NodeId, desc: ConvDesc) -> Result<NodeId, GraphError> {
        self.check_edge(input)?;
        Ok(self.push(Node {
            op: Op::Conv {
                desc,
                fused_relu: false,
            },
            inputs: vec![input],
        }))
    }

    /// Adds a ReLU node.
    ///
    /// # Errors
    /// [`GraphError::BadEdge`] on a dangling input reference.
    pub fn add_relu(&mut self, input: NodeId) -> Result<NodeId, GraphError> {
        self.check_edge(input)?;
        Ok(self.push(Node {
            op: Op::Relu,
            inputs: vec![input],
        }))
    }

    /// Adds a max-pool node.
    ///
    /// # Errors
    /// [`GraphError::BadEdge`] on a dangling input reference.
    pub fn add_max_pool(
        &mut self,
        input: NodeId,
        k: usize,
        s: usize,
    ) -> Result<NodeId, GraphError> {
        self.check_edge(input)?;
        Ok(self.push(Node {
            op: Op::MaxPool { k, s },
            inputs: vec![input],
        }))
    }

    /// Adds a channel-wise concatenation of two or more nodes.
    ///
    /// # Errors
    /// [`GraphError::BadEdge`] on a dangling reference or fewer than
    /// two inputs.
    pub fn add_concat(&mut self, inputs: &[NodeId]) -> Result<NodeId, GraphError> {
        if inputs.len() < 2 {
            return Err(GraphError::BadEdge(
                "concat needs at least two inputs".into(),
            ));
        }
        for &i in inputs {
            self.check_edge(i)?;
        }
        Ok(self.push(Node {
            op: Op::Concat,
            inputs: inputs.to_vec(),
        }))
    }

    /// Infers the output shape of every node given the graph-input
    /// shape, without executing (weights not required).
    ///
    /// # Errors
    /// [`GraphError::Shape`] on any dimension mismatch.
    pub fn infer_shapes(
        &self,
        input: (usize, usize, usize, usize),
    ) -> Result<Vec<(usize, usize, usize, usize)>, GraphError> {
        let mut shapes: Vec<(usize, usize, usize, usize)> = Vec::with_capacity(self.nodes.len());
        for (i, node) in self.nodes.iter().enumerate() {
            let shape = match &node.op {
                Op::Input => match node.inputs.first() {
                    Some(&src) => shapes[src.0],
                    None => input,
                },
                Op::Relu => self.single_input_shape(&shapes, node)?,
                Op::MaxPool { k, s } => {
                    let (n, c, h, w) = self.single_input_shape(&shapes, node)?;
                    if h < *k || w < *k {
                        return Err(GraphError::Shape(format!(
                            "node {i}: pool window {k} larger than {h}x{w}"
                        )));
                    }
                    (n, c, (h - k) / s + 1, (w - k) / s + 1)
                }
                Op::Conv { desc, .. } => {
                    let (n, c, h, w) = self.single_input_shape(&shapes, node)?;
                    if (c, h, w) != (desc.in_ch, desc.in_h, desc.in_w) {
                        return Err(GraphError::Shape(format!(
                            "node {i}: input {c}x{h}x{w} does not match {desc}"
                        )));
                    }
                    (n, desc.out_ch, desc.out_h(), desc.out_w())
                }
                Op::Concat => {
                    let first = shapes[node.inputs[0].0];
                    let mut channels = 0;
                    for &src in &node.inputs {
                        let (n, c, h, w) = shapes[src.0];
                        if (n, h, w) != (first.0, first.2, first.3) {
                            return Err(GraphError::Shape(format!(
                                "node {i}: concat inputs disagree spatially"
                            )));
                        }
                        channels += c;
                    }
                    (first.0, channels, first.2, first.3)
                }
            };
            shapes.push(shape);
        }
        Ok(shapes)
    }

    fn single_input_shape(
        &self,
        shapes: &[(usize, usize, usize, usize)],
        node: &Node,
    ) -> Result<(usize, usize, usize, usize), GraphError> {
        let src = node
            .inputs
            .first()
            .ok_or_else(|| GraphError::BadEdge("node has no input".into()))?;
        Ok(shapes[src.0])
    }

    fn push(&mut self, node: Node) -> NodeId {
        self.nodes.push(node);
        NodeId(self.nodes.len() - 1)
    }

    fn check_edge(&self, id: NodeId) -> Result<(), GraphError> {
        if id.0 >= self.nodes.len() {
            return Err(GraphError::BadEdge(format!(
                "node {} does not exist yet (graph has {})",
                id.0,
                self.nodes.len()
            )));
        }
        Ok(())
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns `true` for an empty graph.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Read access to a node.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0]
    }

    /// The filter weights attached to a conv node, if any (the serving
    /// registry reads these when registering a whole graph).
    pub fn weights(&self, id: NodeId) -> Option<&Tensor4<f32>> {
        self.weights.get(&id)
    }

    /// All convolution nodes with their descriptors.
    pub fn conv_nodes(&self) -> Vec<(NodeId, ConvDesc)> {
        self.nodes
            .iter()
            .enumerate()
            .filter_map(|(i, n)| match n.op {
                Op::Conv { desc, .. } => Some((NodeId(i), desc)),
                _ => None,
            })
            .collect()
    }

    /// Attaches filter weights `(K, C, r, r)` to a conv node.
    ///
    /// # Errors
    /// [`GraphError::Shape`] if the node is not a conv or dims do not
    /// match its descriptor.
    pub fn set_weights(&mut self, id: NodeId, weights: Tensor4<f32>) -> Result<(), GraphError> {
        match self.nodes.get(id.0).map(|n| &n.op) {
            Some(Op::Conv { desc, .. }) => {
                if weights.dims() != (desc.out_ch, desc.in_ch, desc.ksz, desc.ksz) {
                    return Err(GraphError::Shape(format!(
                        "weights {:?} do not match {desc}",
                        weights.dims()
                    )));
                }
                self.weights.insert(id, weights);
                Ok(())
            }
            _ => Err(GraphError::Shape(format!(
                "node {id:?} is not a convolution"
            ))),
        }
    }

    /// Sets the engine executing a conv node (default: direct).
    pub fn set_engine(&mut self, id: NodeId, engine: EngineChoice) {
        self.engines.insert(id, engine);
    }

    /// The engine a conv node executes with (the default
    /// [`EngineChoice::Direct`] when never set).
    pub fn engine(&self, id: NodeId) -> EngineChoice {
        self.engines
            .get(&id)
            .copied()
            .unwrap_or(EngineChoice::Direct)
    }

    /// Graph-level optimization: fuse each ReLU whose sole producer is
    /// a convolution into that convolution (the optimization sketched
    /// in Figure 2's "graph-level optimization" stage). Returns the
    /// number of fused pairs. The ReLU node remains but becomes a
    /// pass-through at execution.
    pub fn fuse_relu(&mut self) -> usize {
        let mut fused = 0;
        for i in 0..self.nodes.len() {
            if !matches!(self.nodes[i].op, Op::Relu) {
                continue;
            }
            let Some(&src) = self.nodes[i].inputs.first() else {
                continue;
            };
            if let Op::Conv { fused_relu, .. } = &mut self.nodes[src.0].op {
                if !*fused_relu {
                    *fused_relu = true;
                    fused += 1;
                }
                // Make the ReLU a pass-through (identity) node.
                self.nodes[i].op = Op::Input;
                self.nodes[i].inputs = vec![src];
            }
        }
        fused
    }

    /// Executes the graph on `input` node by node, returning the value
    /// of the last node. This is the bit-identity *reference* the
    /// `wino-exec` executor is tested against (one fresh tensor per
    /// node, no scheduling, no arenas) — not a serving path: requests
    /// run through `wino_exec::NetworkExecutor`. Every node opens a
    /// `graph.node.<op>` probe span so the reference trace lines up
    /// against the executor's `exec.*` spans.
    ///
    /// # Errors
    /// Missing weights, shape mismatches, or engine failures.
    pub fn execute(&self, input: &Tensor4<f32>) -> Result<Tensor4<f32>, GraphError> {
        let mut values: Vec<Option<Tensor4<f32>>> = vec![None; self.nodes.len()];
        for (i, node) in self.nodes.iter().enumerate() {
            let id = NodeId(i);
            // Span names must be 'static; one per op kind, with the
            // node index attached as an arg.
            let span_name = match &node.op {
                Op::Input => "graph.node.input",
                Op::Relu => "graph.node.relu",
                Op::MaxPool { .. } => "graph.node.max_pool",
                Op::Concat => "graph.node.concat",
                Op::Conv { .. } => "graph.node.conv",
            };
            let mut span = wino_probe::span(span_name);
            span.arg("node", || i.to_string());
            let value = match &node.op {
                Op::Input => match node.inputs.first() {
                    // Pass-through (fused ReLU remnant).
                    Some(&src) => values[src.0].clone().expect("topological order"),
                    None => input.clone(),
                },
                Op::Relu => {
                    let src = self.input_value(&values, node)?;
                    src.map(|v| v.max(0.0))
                }
                Op::MaxPool { k, s } => {
                    let src = self.input_value(&values, node)?;
                    max_pool(src, *k, *s)
                }
                Op::Concat => {
                    let srcs: Vec<&Tensor4<f32>> = node
                        .inputs
                        .iter()
                        .map(|src| values[src.0].as_ref().expect("topological order"))
                        .collect();
                    concat_channels(&srcs)?
                }
                Op::Conv { desc, fused_relu } => {
                    let src = self.input_value(&values, node)?;
                    let mut desc = *desc;
                    desc.batch = src.n();
                    if (src.c(), src.h(), src.w()) != (desc.in_ch, desc.in_h, desc.in_w) {
                        return Err(GraphError::Shape(format!(
                            "node {i}: input {:?} does not match {desc}",
                            src.dims()
                        )));
                    }
                    let weights = self
                        .weights
                        .get(&id)
                        .ok_or(GraphError::MissingWeights(id))?;
                    let engine = self
                        .engines
                        .get(&id)
                        .copied()
                        .unwrap_or(EngineChoice::Direct);
                    let out = run_conv(engine, src, weights, &desc)?;
                    if *fused_relu {
                        out.map(|v| v.max(0.0))
                    } else {
                        out
                    }
                }
            };
            values[i] = Some(value);
        }
        values
            .pop()
            .flatten()
            .ok_or_else(|| GraphError::Shape("empty graph".into()))
    }

    fn input_value<'a>(
        &self,
        values: &'a [Option<Tensor4<f32>>],
        node: &Node,
    ) -> Result<&'a Tensor4<f32>, GraphError> {
        let src = node
            .inputs
            .first()
            .ok_or_else(|| GraphError::BadEdge("node has no input".into()))?;
        values[src.0]
            .as_ref()
            .ok_or_else(|| GraphError::BadEdge("input not yet computed".into()))
    }
}

/// Dispatches one convolution to the chosen engine.
///
/// # Errors
/// Engine failures.
pub fn run_conv(
    engine: EngineChoice,
    input: &Tensor4<f32>,
    weights: &Tensor4<f32>,
    desc: &ConvDesc,
) -> Result<Tensor4<f32>, ConvError> {
    match engine {
        EngineChoice::Direct => conv_direct_f32(input, weights, desc),
        EngineChoice::Im2col => conv_im2col(input, weights, desc),
        EngineChoice::Winograd(cfg) => conv_winograd(input, weights, desc, &cfg),
    }
}

/// Channel-wise concatenation; all inputs must agree on (n, h, w).
pub fn concat_channels(inputs: &[&Tensor4<f32>]) -> Result<Tensor4<f32>, GraphError> {
    let (n, _, h, w) = inputs[0].dims();
    let total_c: usize = inputs.iter().map(|t| t.c()).sum();
    for t in inputs {
        if (t.n(), t.h(), t.w()) != (n, h, w) {
            return Err(GraphError::Shape(format!(
                "concat inputs disagree: {:?} vs {:?}",
                t.dims(),
                inputs[0].dims()
            )));
        }
    }
    let mut out = Tensor4::<f32>::zeros(n, total_c, h, w);
    concat_into(inputs, &mut out)?;
    Ok(out)
}

/// [`concat_channels`] writing into a caller-owned output tensor
/// (the arena executor's allocation-free path). Values are
/// bit-identical to [`concat_channels`] — both are plane copies.
///
/// # Errors
/// [`GraphError::Shape`] when inputs disagree spatially or `out` does
/// not match the concatenated shape.
pub fn concat_into(inputs: &[&Tensor4<f32>], out: &mut Tensor4<f32>) -> Result<(), GraphError> {
    let (n, _, h, w) = inputs[0].dims();
    let total_c: usize = inputs.iter().map(|t| t.c()).sum();
    if out.dims() != (n, total_c, h, w) {
        return Err(GraphError::Shape(format!(
            "concat output {:?} does not match ({n}, {total_c}, {h}, {w})",
            out.dims()
        )));
    }
    let mut c_base = 0;
    for t in inputs {
        if (t.n(), t.h(), t.w()) != (n, h, w) {
            return Err(GraphError::Shape(format!(
                "concat inputs disagree: {:?} vs {:?}",
                t.dims(),
                inputs[0].dims()
            )));
        }
        for ni in 0..n {
            for c in 0..t.c() {
                out.plane_mut(ni, c_base + c)
                    .copy_from_slice(t.plane(ni, c));
            }
        }
        c_base += t.c();
    }
    Ok(())
}

/// Max pooling with square window `k` and stride `s`.
pub fn max_pool(input: &Tensor4<f32>, k: usize, s: usize) -> Tensor4<f32> {
    let oh = (input.h() - k) / s + 1;
    let ow = (input.w() - k) / s + 1;
    let mut out = Tensor4::<f32>::zeros(input.n(), input.c(), oh, ow);
    max_pool_into(input, k, s, &mut out);
    out
}

/// [`max_pool`] writing into a caller-owned output tensor. Each output
/// element is the same `f32::max` reduction in the same window order,
/// so values are bit-identical to [`max_pool`].
///
/// The window offset `(dy, dx)` is the outer loop and the output row
/// the inner one, over row slices: every output element still folds
/// its window in `(dy, dx)` order from `-inf`, so the bits match the
/// per-element loop (kept as the test reference) for any input, NaN,
/// `-0.0` and `-inf` included.
///
/// # Panics
/// When `out`'s shape does not match the pooled shape of `input`.
pub fn max_pool_into(input: &Tensor4<f32>, k: usize, s: usize, out: &mut Tensor4<f32>) {
    let (h, w) = (input.h(), input.w());
    let oh = (h - k) / s + 1;
    let ow = (w - k) / s + 1;
    assert_eq!(
        out.dims(),
        (input.n(), input.c(), oh, ow),
        "max_pool output shape mismatch"
    );
    let planes = input.data().chunks_exact(h * w);
    for (plane, out_plane) in planes.zip(out.data_mut().chunks_exact_mut(oh * ow)) {
        for (y, out_row) in out_plane.chunks_exact_mut(ow).enumerate() {
            out_row.fill(f32::NEG_INFINITY);
            for dy in 0..k {
                let row = &plane[(y * s + dy) * w..][..w];
                for dx in 0..k {
                    // `(ow - 1) * s + dx < w`: the stepped row has at
                    // least `ow` elements and the zip stops there.
                    for (best, &v) in out_row.iter_mut().zip(row[dx..].iter().step_by(s)) {
                        *best = best.max(v);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_net() -> (ComputeGraph, NodeId) {
        let mut g = ComputeGraph::new();
        let input = g.add_input();
        let desc = ConvDesc::new(3, 1, 1, 4, 1, 8, 8, 2);
        let conv = g.add_conv(input, desc).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        g.set_weights(conv, Tensor4::random(4, 2, 3, 3, -1.0, 1.0, &mut rng))
            .unwrap();
        (g, conv)
    }

    fn rand_input(seed: u64) -> Tensor4<f32> {
        let mut rng = StdRng::seed_from_u64(seed);
        Tensor4::random(1, 2, 8, 8, -1.0, 1.0, &mut rng)
    }

    #[test]
    fn single_conv_executes() {
        let (g, _) = small_net();
        let out = g.execute(&rand_input(2)).unwrap();
        assert_eq!(out.dims(), (1, 4, 8, 8));
    }

    #[test]
    fn engines_agree_in_graph_context() {
        let (mut g, conv) = small_net();
        let input = rand_input(3);
        let direct = g.execute(&input).unwrap();
        g.set_engine(conv, EngineChoice::Im2col);
        let im2col = g.execute(&input).unwrap();
        g.set_engine(conv, EngineChoice::Winograd(WinogradConfig::new(2)));
        let wino = g.execute(&input).unwrap();
        for i in 0..direct.len() {
            assert!((direct.data()[i] - im2col.data()[i]).abs() < 1e-4);
            assert!((direct.data()[i] - wino.data()[i]).abs() < 1e-3);
        }
    }

    #[test]
    fn relu_fusion_preserves_semantics() {
        let mut g = ComputeGraph::new();
        let input = g.add_input();
        let desc = ConvDesc::new(3, 1, 1, 3, 1, 6, 6, 2);
        let conv = g.add_conv(input, desc).unwrap();
        let _relu = g.add_relu(conv).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        g.set_weights(conv, Tensor4::random(3, 2, 3, 3, -1.0, 1.0, &mut rng))
            .unwrap();
        let x = {
            let mut rng = StdRng::seed_from_u64(5);
            Tensor4::random(1, 2, 6, 6, -1.0, 1.0, &mut rng)
        };
        let before = g.execute(&x).unwrap();
        assert_eq!(g.fuse_relu(), 1);
        let after = g.execute(&x).unwrap();
        assert_eq!(before, after);
        assert!(after.data().iter().all(|&v| v >= 0.0));
        // Fusing again is a no-op.
        assert_eq!(g.fuse_relu(), 0);
    }

    #[test]
    fn max_pool_shapes_and_values() {
        let mut g = ComputeGraph::new();
        let input = g.add_input();
        let _pool = g.add_max_pool(input, 2, 2).unwrap();
        let x = Tensor4::from_fn(1, 1, 4, 4, |_, _, y, xx| (y * 4 + xx) as f32);
        let out = g.execute(&x).unwrap();
        assert_eq!(out.dims(), (1, 1, 2, 2));
        assert_eq!(out[(0, 0, 0, 0)], 5.0);
        assert_eq!(out[(0, 0, 1, 1)], 15.0);
    }

    /// The per-element window loop `max_pool_into` replaced; its
    /// reference.
    fn max_pool_elementwise(input: &Tensor4<f32>, k: usize, s: usize) -> Tensor4<f32> {
        let oh = (input.h() - k) / s + 1;
        let ow = (input.w() - k) / s + 1;
        Tensor4::from_fn(input.n(), input.c(), oh, ow, |n, c, y, x| {
            let mut best = f32::NEG_INFINITY;
            for dy in 0..k {
                for dx in 0..k {
                    best = best.max(input[(n, c, y * s + dy, x * s + dx)]);
                }
            }
            best
        })
    }

    #[test]
    fn max_pool_rows_match_the_element_loop_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(9);
        // The zoo's windows (3/2, 3/1, 2/2) plus a ragged one whose
        // last window stops short of the edge, on a plane sprinkled
        // with the values where `f32::max` is order-sensitive.
        for (h, w, k, s) in [(13, 13, 3, 2), (9, 11, 3, 1), (8, 8, 2, 2), (10, 7, 4, 3)] {
            let mut x = Tensor4::random(2, 3, h, w, -1.0, 1.0, &mut rng);
            let specials = [f32::NAN, -0.0, 0.0, f32::NEG_INFINITY, f32::INFINITY];
            for (i, v) in x.data_mut().iter_mut().enumerate() {
                if i % 3 != 0 {
                    *v = specials[(i / 3 + i / 7) % specials.len()];
                }
            }
            let want = max_pool_elementwise(&x, k, s);
            let got = max_pool(&x, k, s);
            assert_eq!(got.dims(), want.dims());
            let bits = |t: &Tensor4<f32>| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "{h}x{w} window {k} stride {s}");
        }
    }

    #[test]
    fn missing_weights_detected() {
        let mut g = ComputeGraph::new();
        let input = g.add_input();
        let desc = ConvDesc::new(3, 1, 1, 4, 1, 8, 8, 2);
        let conv = g.add_conv(input, desc).unwrap();
        assert!(matches!(
            g.execute(&rand_input(6)),
            Err(GraphError::MissingWeights(id)) if id == conv
        ));
    }

    #[test]
    fn shape_mismatch_detected() {
        let (g, _) = small_net();
        let bad = Tensor4::<f32>::zeros(1, 3, 8, 8);
        assert!(matches!(g.execute(&bad), Err(GraphError::Shape(_))));
    }

    #[test]
    fn bad_edges_rejected() {
        let mut g = ComputeGraph::new();
        assert!(g.add_relu(NodeId(5)).is_err());
        let i = g.add_input();
        assert!(g.add_conv(i, ConvDesc::new(3, 1, 1, 1, 1, 4, 4, 1)).is_ok());
    }

    #[test]
    fn batch_adapts_to_input() {
        let (g, _) = small_net();
        let mut rng = StdRng::seed_from_u64(7);
        let x = Tensor4::random(3, 2, 8, 8, -1.0, 1.0, &mut rng);
        let out = g.execute(&x).unwrap();
        assert_eq!(out.n(), 3);
    }
}
