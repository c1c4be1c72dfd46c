//! Runs every *real* distributed inference implementation once, over
//! in-process transports, and prints measured wall-clock per strategy —
//! TeamNet vs MPI-Matrix vs SG-MoE (RPC and point-to-point) — the live
//! counterpart of the simulated Tables I/II.
//!
//! ```text
//! cargo run --release --example baseline_showdown
//! ```

use rand::{rngs::StdRng, SeedableRng};
use std::time::{Duration, Instant};
use teamnet_core::build_expert;
use teamnet_core::runtime::{serve_worker, shutdown_workers, InferenceSession, MasterConfig};
use teamnet_moe::{
    infer_p2p, infer_rpc, serve_expert_p2p, serve_expert_rpc, shutdown_experts_p2p, SgMoe,
    SgMoeConfig,
};
use teamnet_net::rpc::ServerControl;
use teamnet_net::{ChannelTransport, Communicator};
use teamnet_nn::{state_vec, Layer, Mode, ModelSpec};
use teamnet_partition::{mpi_matrix_forward, shard_mlp};
use teamnet_tensor::Tensor;

const ROUNDS: u32 = 200;

fn time_per_round(f: impl FnMut()) -> Duration {
    let mut f = f;
    let start = Instant::now();
    for _ in 0..ROUNDS {
        f();
    }
    start.elapsed() / ROUNDS
}

fn main() {
    let mut rng = StdRng::seed_from_u64(0);
    let image = Tensor::rand_uniform([1, 1, 28, 28], 0.0, 1.0, &mut rng);
    let base_spec = ModelSpec::mlp(8, 256);
    let expert_spec = ModelSpec::mlp(4, 256);

    // Baseline: one deep model, no communication.
    let mut baseline = build_expert(&base_spec, 0);
    let t = time_per_round(|| {
        baseline.forward(&image, Mode::Eval);
    });
    println!("{:<28} {:>12?}", "baseline MLP-8 (local)", t);

    // TeamNet x2 over in-process transport.
    {
        let nodes = ChannelTransport::mesh(2);
        crossbeam::thread::scope(|scope| {
            let node1 = &nodes[1];
            let spec = expert_spec.clone();
            scope.spawn(move |_| {
                let mut expert = build_expert(&spec, 1);
                serve_worker(node1, 0, &mut expert).unwrap();
            });
            let mut master = build_expert(&expert_spec, 0);
            let mut session = InferenceSession::new(&nodes[0], MasterConfig::default());
            let t = time_per_round(|| {
                session.infer(&nodes[0], &mut master, &image).unwrap();
            });
            println!("{:<28} {:>12?}", "TeamNet x2 (broadcast+gather)", t);
            shutdown_workers(&nodes[0]).unwrap();
        })
        .unwrap();
    }

    // MPI-Matrix x2: per-layer all-gathers.
    {
        let mut model = build_expert(&base_spec, 0);
        let state = state_vec(&mut model);
        let nodes = ChannelTransport::mesh(2);
        let flat = image.reshape([1, 784]).unwrap();
        crossbeam::thread::scope(|scope| {
            let node1 = &nodes[1];
            let shards1 = shard_mlp(&base_spec, &state, 1, 2);
            let stop = ServerControl::new();
            let stop_worker = stop.clone();
            scope.spawn(move |_| {
                let comm = Communicator::new(node1);
                while !stop_worker.is_stopped() {
                    if mpi_matrix_forward(&comm, &shards1, None).is_err() {
                        break;
                    }
                }
            });
            let shards0 = shard_mlp(&base_spec, &state, 0, 2);
            let comm = Communicator::new(&nodes[0]);
            let t = time_per_round(|| {
                mpi_matrix_forward(&comm, &shards0, Some(&flat)).unwrap();
            });
            println!("{:<28} {:>12?}", "MPI-Matrix x2 (per-layer)", t);
            stop.stop();
            nodes[0].shutdown();
            nodes[1].shutdown();
        })
        .unwrap();
    }

    // SG-MoE x2 over RPC and raw point-to-point.
    for rpc in [true, false] {
        let nodes = ChannelTransport::mesh(2);
        let config = SgMoeConfig {
            top_k: 1,
            ..SgMoeConfig::default()
        };
        let mut moe = SgMoe::new(expert_spec.clone(), 2, config.clone());
        crossbeam::thread::scope(|scope| {
            let node1 = &nodes[1];
            let control = ServerControl::new();
            let worker_control = control.clone();
            let spec = expert_spec.clone();
            let seed = config.seed.wrapping_add(0xB0B + 1);
            scope.spawn(move |_| {
                let mut expert = build_expert(&spec, seed);
                if rpc {
                    serve_expert_rpc(node1, &worker_control, &mut expert).unwrap();
                } else {
                    serve_expert_p2p(node1, 0, &mut expert).unwrap();
                }
            });
            let timeout = Duration::from_secs(5);
            let t = time_per_round(|| {
                if rpc {
                    infer_rpc(&nodes[0], &mut moe, &image, timeout).unwrap();
                } else {
                    infer_p2p(&nodes[0], &mut moe, &image, timeout).unwrap();
                }
            });
            let label = if rpc {
                "SG-MoE-G x2 (rpc gate)"
            } else {
                "SG-MoE-M x2 (p2p gate)"
            };
            println!("{label:<28} {t:>12?}");
            if rpc {
                control.stop();
            } else {
                shutdown_experts_p2p(&nodes[0]).unwrap();
            }
        })
        .unwrap();
    }

    println!("\n(in-process transports: the ordering, not the absolute values, is the");
    println!("point — on WiFi every MPI-Matrix message would cost milliseconds)");
}
