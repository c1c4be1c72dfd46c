//! # teamnet-partition
//!
//! The paper's three MPI-style model-parallel baselines, implemented both
//! as *real* distributed executions over `teamnet-net` and as calibrated
//! cost-model strategies for the table-generating simulations:
//!
//! * **MPI-Matrix** ([`mpi_matrix_forward`]) — column-parallel dense
//!   layers with a per-layer all-gather (MLPs);
//! * **MPI-Branch** ([`branch_parallel_forward`]) — the two Shake-Shake
//!   branches on two devices, one round trip per block;
//! * **MPI-Kernel** ([`kernel_parallel_conv2d`]) — convolution kernels
//!   (output channels) spread over devices, broadcast + gather per layer.
//!
//! [`simulate`] prices any [`Strategy`] (these three plus Baseline,
//! TeamNet and both SG-MoE deployments) on a simulated edge cluster using
//! cost profiles measured from the real models.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod branch;
mod kernel;
mod matrix;
mod sim;

pub use branch::{
    branch_parallel_forward, serve_branch_worker, shutdown_branch_worker, TAG_BRANCH_INPUT,
    TAG_BRANCH_OUTPUT, TAG_BRANCH_SHUTDOWN,
};
pub use kernel::{kernel_parallel_conv2d, ConvShard};
pub use matrix::{mpi_matrix_forward, shard_mlp, split_range, split_sizes, MlpShards};
pub use sim::{simulate, LayerCost, ModelCost, Strategy, StrategyReport, Workload};
