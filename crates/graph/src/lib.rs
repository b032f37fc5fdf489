//! # wino-graph — ConvNet compute graph and model zoo
//!
//! The front-end of the reproduced system (Figure 2 of the paper): a
//! ConvNet model becomes a [`ComputeGraph`] suitable for graph-level
//! optimization (ReLU fusion) and per-layer variant selection; the
//! [`zoo`] module defines the convolution layers of AlexNet,
//! Network-in-Network and InceptionV1 and regenerates the paper's 31
//! benchmark convolutions (Table 4).

#![warn(missing_docs)]

mod graph;
mod select;
pub mod zoo;

pub use graph::{
    concat_channels, concat_into, max_pool, max_pool_into, run_conv, ComputeGraph, EngineChoice,
    GraphError, Node, NodeId, Op,
};
pub use select::{candidates, select_engine_static};
pub use zoo::{
    alexnet_convs, all_network_convs, build_alexnet_graph, build_inception_3a_3b,
    build_inception_module, build_inception_v1_graph, build_nin_graph, extract_benchmark_convs,
    inception_v1_convs, nin_convs, table4_convs, table4_paper_flops, NamedConv,
};
