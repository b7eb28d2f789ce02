//! Thread-scaling regression: the worker pool is a pure performance knob.
//!
//! The engine's wide-slice handoff (see `shard_for_position` in
//! `crates/core/src/machine.rs`) carves each layer's phase-major row order
//! into contiguous blocks striped across shards. That assignment — and the
//! task-index-order reduction behind it — must make pool size invisible in
//! every observable: outputs, busy PE cycles, `EventCounts` and work units
//! are bit-identical at pool sizes 1, 2 and 4 on reduced-zoo networks, and
//! a batched pool matches one-shot execution of each element exactly.

use ganax::{GanaxMachine, InferenceEngine};
use ganax_bench::{conformance_input, conformance_weights};
use ganax_energy::EventCounts;
use ganax_models::zoo;
use ganax_tensor::Tensor;

#[test]
fn pool_sizes_are_bit_identical_on_the_reduced_zoo() {
    for (m, name) in ["DCGAN", "ArtGAN", "MAGAN"].iter().enumerate() {
        let network = zoo::reduced_generator(name, 4).expect("model is in the zoo");
        let weights = conformance_weights(&network, 500 + m as u64);
        let inputs: Vec<Tensor> = (0..3u64)
            .map(|j| conformance_input(&network, 700 + 13 * m as u64 + j))
            .collect();

        let serial_engine = InferenceEngine::new(GanaxMachine::paper(), 1);
        let compiled = serial_engine.compile(&network, &weights).expect("compiles");
        let serial = serial_engine
            .execute_batch(&compiled, &inputs)
            .expect("serial batch executes");

        // One-shot execution of each element is the ground truth the
        // batched pool must match: same outputs per element, same aggregate
        // counters over the batch.
        let machine = GanaxMachine::paper();
        let mut direct_counts = EventCounts::default();
        let mut direct_busy = 0u64;
        for (input, output) in inputs.iter().zip(&serial.outputs) {
            let direct = machine
                .execute_network_threaded(&network, input, &weights, 1)
                .expect("one-shot run executes");
            assert_eq!(
                &direct.output, output,
                "{name}: pool output diverged from the one-shot run"
            );
            direct_counts += direct.total_counts();
            direct_busy += direct.total_busy_pe_cycles();
        }
        assert_eq!(
            serial.counts, direct_counts,
            "{name}: pool EventCounts diverged from the one-shot runs"
        );
        assert_eq!(
            serial.busy_pe_cycles, direct_busy,
            "{name}: pool busy cycles diverged from the one-shot runs"
        );

        for pool in [2usize, 4] {
            let engine = InferenceEngine::new(GanaxMachine::paper(), pool);
            let compiled = engine.compile(&network, &weights).expect("compiles");
            let run = engine
                .execute_batch(&compiled, &inputs)
                .expect("pooled batch executes");
            assert_eq!(
                run.outputs, serial.outputs,
                "{name}: {pool}-worker outputs diverged from serial"
            );
            assert_eq!(
                run.busy_pe_cycles, serial.busy_pe_cycles,
                "{name}: {pool}-worker busy cycles diverged from serial"
            );
            assert_eq!(
                run.counts, serial.counts,
                "{name}: {pool}-worker EventCounts diverged from serial"
            );
            assert_eq!(
                run.work_units, serial.work_units,
                "{name}: {pool}-worker work units diverged from serial"
            );
        }
    }
}
