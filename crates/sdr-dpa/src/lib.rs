//! # sdr-dpa — the simulated Data Path Accelerator
//!
//! The paper offloads SDR's receive backend to the BlueField-3 **DPA**
//! (§3.4): 256 hardware threads process packet Write completions in
//! parallel, each validating the packet's generation, updating a per-packet
//! bitmap in DPA memory, and publishing chunk bits to host memory over PCIe.
//!
//! This crate runs it on worker threads for Figures 14–16. The receive
//! backend itself — slot generations and activity, the two-stage
//! late-packet filter, the checksum-verdict stage and the two-level bitmap
//! recording — is [`RecvTable`] in `sdr-core`, the same table every
//! [`SdrQp`](sdr_core::SdrQp) runs. What this crate adds is the execution
//! model around it:
//!
//! * [`CqeRing`] — per-worker lock-free completion rings (one per channel
//!   group, §3.4.1).
//! * [`DpaEngine`] — spawns the workers, each draining its ring through
//!   [`RecvTable::process_batch`], and stripes completions round-robin.
//! * [`run_loopback`] — the `ib_write_bw`-style client/server stress loop
//!   used to regenerate Figure 14 (throughput vs message size, thread
//!   scaling), Figure 15 (bitmap chunk size) and Figure 16 (packet-rate
//!   scaling toward Tbit/s links).
//!
//! What is measured is the *packet-completion processing rate* — table
//! lookup, generation filter, atomic bitmap updates, chunk publication —
//! which is the work the DPA performs; payload movement is the NIC DMA
//! engine's job in both the paper and this model and is therefore excluded
//! on purpose.

#![warn(missing_docs)]

pub mod engine;
pub mod loopback;
pub mod ring;

pub use engine::{DpaConfig, DpaEngine};
pub use loopback::{run_loopback, LoopbackConfig, ThroughputReport};
pub use ring::CqeRing;
pub use sdr_core::table::{RecvCqe, RecvStats, RecvTable, SlotPost};
