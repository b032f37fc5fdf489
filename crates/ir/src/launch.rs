//! Kernel launch configuration.

use std::fmt;

/// Target GPU programming interface for emitted source (§3.2: CUDA on
/// NVIDIA, Vulkan elsewhere, since it "supports a broader range of
/// GPUs, including mobile platforms").
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Backend {
    /// NVIDIA CUDA C.
    Cuda,
    /// Vulkan compute (GLSL).
    Vulkan,
    /// OpenCL C (legacy fallback).
    OpenCl,
}

impl Backend {
    /// Qualifier for on-chip scratchpad memory.
    pub fn shared_qualifier(&self) -> &'static str {
        match self {
            Backend::Cuda => "__shared__",
            Backend::Vulkan => "shared",
            Backend::OpenCl => "__local",
        }
    }
}

impl fmt::Display for Backend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Backend::Cuda => write!(f, "CUDA"),
            Backend::Vulkan => write!(f, "Vulkan"),
            Backend::OpenCl => write!(f, "OpenCL"),
        }
    }
}

/// A 3-component extent (grid or block dimensions).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Dim3 {
    /// X extent.
    pub x: usize,
    /// Y extent.
    pub y: usize,
    /// Z extent.
    pub z: usize,
}

impl Dim3 {
    /// 1-D extent.
    pub fn linear(x: usize) -> Self {
        Dim3 { x, y: 1, z: 1 }
    }

    /// 2-D extent.
    pub fn plane(x: usize, y: usize) -> Self {
        Dim3 { x, y, z: 1 }
    }

    /// Total element count.
    pub fn count(&self) -> usize {
        self.x * self.y * self.z
    }
}

impl fmt::Display for Dim3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {}, {})", self.x, self.y, self.z)
    }
}

/// Launch configuration and per-block resource usage of one kernel —
/// the inputs to the occupancy model in `wino-gpu`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LaunchConfig {
    /// Grid dimensions (thread blocks).
    pub grid: Dim3,
    /// Block dimensions (threads per block).
    pub block: Dim3,
    /// Shared (scratchpad) memory per block, in bytes.
    pub shared_mem_bytes: usize,
    /// Estimated registers per thread.
    pub regs_per_thread: usize,
}

impl LaunchConfig {
    /// Simple 1-D launch helper covering `total` work items with
    /// `block_size` threads per block.
    pub fn linear(total: usize, block_size: usize) -> Self {
        let bs = block_size.max(1);
        LaunchConfig {
            grid: Dim3::linear(total.div_ceil(bs).max(1)),
            block: Dim3::linear(bs),
            shared_mem_bytes: 0,
            regs_per_thread: 32,
        }
    }

    /// Total threads launched.
    pub fn total_threads(&self) -> usize {
        self.grid.count() * self.block.count()
    }

    /// Threads per block.
    pub fn threads_per_block(&self) -> usize {
        self.block.count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_launch_covers_work() {
        let lc = LaunchConfig::linear(1000, 256);
        assert_eq!(lc.grid.x, 4);
        assert!(lc.total_threads() >= 1000);
        assert_eq!(lc.threads_per_block(), 256);
    }

    #[test]
    fn linear_launch_never_empty() {
        let lc = LaunchConfig::linear(0, 128);
        assert_eq!(lc.grid.count(), 1);
    }

    #[test]
    fn dim3_helpers() {
        assert_eq!(Dim3::plane(4, 8).count(), 32);
        assert_eq!(Dim3::linear(7).count(), 7);
        assert_eq!(Dim3::linear(7).to_string(), "(7, 1, 1)");
    }

    #[test]
    fn backend_qualifiers() {
        assert_eq!(Backend::Vulkan.shared_qualifier(), "shared");
    }
}
